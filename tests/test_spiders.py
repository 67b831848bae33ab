"""Instance model: canonicalization, parameters, materialization, enumeration."""

import itertools

import pytest
from hypothesis import given, strategies as st

from antimagic import (
    CanonicalDoubleSpider,
    CaseTag,
    DoubleSpiderSpec,
    EdgeAddress,
    InvalidSpider,
    canonicalize,
    classify,
    derive_parameters,
    enumerate_instances,
    materialize_tree,
    parse_address,
)
from antimagic.labelers import SPECIAL_INSTANCE
from antimagic.spiders import KIND_CORE, KIND_L_UNIT, KIND_R_ODD, address_rows, pendant_paths, unit_runs


def spec(core, left, right):
    return DoubleSpiderSpec(core, tuple(left), tuple(right))


def sides():
    return st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=4)


# --- canonicalize ---------------------------------------------------------

def test_canonicalize_special_instance_unchanged():
    c = canonicalize(spec(2, [3, 1], [1, 1]))
    assert (c.core_length, c.left_lengths, c.right_lengths) == (2, (1, 3), (1, 1))
    assert not c.swapped


def test_canonicalize_swaps_when_min_copies_favor_left():
    c = canonicalize(spec(1, [1, 1], [3, 1]))
    assert c.right_lengths == (1, 1) and c.left_lengths == (1, 3)
    assert c.swapped


def test_canonicalize_keeps_more_min_copies_on_right():
    c = canonicalize(spec(1, [2, 1], [1, 1]))
    assert c.left_lengths == (1, 2) and c.right_lengths == (1, 1)


def test_canonicalize_count_rule():
    c = canonicalize(spec(3, [1, 1], [2, 2, 2]))
    assert len(c.left_lengths) == 3 and c.swapped


@given(st.integers(min_value=1, max_value=4), sides(), sides())
def test_canonicalize_idempotent(core, left, right):
    once = canonicalize(DoubleSpiderSpec(core, tuple(left), tuple(right)))
    assert canonicalize(once) == once


@given(st.integers(min_value=1, max_value=4), sides(), sides())
def test_canonicalize_preserves_structure(core, left, right):
    c = canonicalize(DoubleSpiderSpec(core, tuple(left), tuple(right)))
    assert c.core_length == core
    assert sorted(c.left_lengths + c.right_lengths) == sorted(tuple(left) + tuple(right))


@pytest.mark.parametrize("core,left,right", [
    (0, (1, 1), (1, 1)),
    (1, (1,), (1, 1)),
    (1, (1, 1), (2,)),
    (1, (1, 0), (1, 1)),
    (1, (1, 1), (1, -2)),
])
def test_invalid_specs_rejected(core, left, right):
    for make in (DoubleSpiderSpec, CanonicalDoubleSpider):
        with pytest.raises(InvalidSpider):
            make(core, left, right)


@pytest.mark.parametrize("core,left,right,message", [
    (0, (1,), (0,), "core length must be >= 1"),
    (1, (1,), (0,), "left side needs at least 2 paths (hub degree >= 3)"),
    (1, (4, 0, 2), (1,), "left side has a non-positive path length"),
    (1, (2, 3), (5, 1, -1, 2), "right side has a non-positive path length"),
    (1, [3.0, "2"], (1, 1, 0), "right side has a non-positive path length"),
])
def test_invalid_spec_messages(core, left, right, message):
    # the checks run in this order, on the lengths as sorted ints
    with pytest.raises(InvalidSpider) as err:
        DoubleSpiderSpec(core, left, right)
    assert str(err.value) == message
    assert DoubleSpiderSpec(1, [3.0, "2"], (1, 1)).left_lengths == (2, 3)


def test_canonical_rejects_more_right_paths():
    with pytest.raises(InvalidSpider, match="at least as many paths"):
        CanonicalDoubleSpider(1, (1, 1), (1, 1, 1))


# --- derive_parameters ----------------------------------------------------

def test_parameters_special_instance():
    p = derive_parameters(SPECIAL_INSTANCE)
    assert (p.a, p.x, p.b) == (2, (0, 0), 0)
    assert (p.c, p.w, p.d, p.t, p.s, p.m) == (1, (1,), 0, 1, 2, 8)


def test_parameters_smallest():
    p = derive_parameters(canonicalize(spec(1, [1, 1], [1, 1])))
    assert (p.a, p.x, p.c, p.d, p.t, p.s, p.m) == (2, (0, 0), 0, 0, 2, 1, 5)


def split_edges(p):
    """Edges counted from the parity split: core, odd and even right paths,
    long odd, even and unit left paths."""
    return (p.s + sum(2 * xi + 1 for xi in p.x) + 2 * sum(p.y)
            + sum(2 * wi + 1 for wi in p.w) + 2 * sum(p.z) + p.t)


def expected_addresses(p):
    """Every address of an instance, written from its parity split."""
    out = [EdgeAddress.core(j) for j in range(1, p.s + 1)]
    for kind, lengths in ((EdgeAddress.r_odd, [2 * xi + 1 for xi in p.x]),
                          (EdgeAddress.r_even, [2 * yi for yi in p.y]),
                          (EdgeAddress.l_odd, [2 * wi + 1 for wi in p.w]),
                          (EdgeAddress.l_even, [2 * zi for zi in p.z])):
        out += [kind(i, j) for i, l in enumerate(lengths, start=1) for j in range(1, l + 1)]
    return out + [EdgeAddress.l_unit(i) for i in range(1, p.t + 1)]


def test_parameters_mixed_instance():
    # core 3, left {5,4,2,1,1}, right {3,2}: classified by hand; the edge
    # count is 3 + 13 + 5 = 21, cross-checked by the parity-split identity.
    p = derive_parameters(canonicalize(spec(3, [5, 4, 2, 1, 1], [3, 2])))
    assert (p.a, p.x) == (1, (1,))
    assert (p.b, p.y) == (1, (1,))
    assert (p.c, p.w) == (1, (2,))
    assert (p.d, p.z) == (2, (1, 2))
    assert (p.t, p.s, p.m) == (2, 3, 21)
    assert p.m == split_edges(p)
    assert p.deg_vl == 6 and p.deg_vr == 3


def test_m_identity_over_enumeration():
    for c in enumerate_instances(12):
        p = derive_parameters(c)
        assert p.m == split_edges(p) == c.total_edges


# --- materialize ----------------------------------------------------------

def test_materialize_smallest():
    sp = materialize_tree(canonicalize(spec(1, [1, 1], [1, 1])))
    assert len(sp.tree.vertices) == 6 and len(sp.tree.edges) == 5
    assert sorted(sp.tree.degrees.values()) == [1, 1, 1, 1, 3, 3]


def test_materialize_special_instance():
    sp = materialize_tree(SPECIAL_INSTANCE)
    assert len(sp.tree.vertices) == 9 and len(sp.tree.edges) == 8
    assert sp.tree.degree("vl") == 3 and sp.tree.degree("vr") == 3


def test_materialize_hub_degrees():
    # 14 edges, hence 15 vertices
    sp = materialize_tree(canonicalize(spec(2, [2, 2, 2], [2, 2, 2])))
    assert len(sp.tree.vertices) == len(sp.tree.edges) + 1 == 15
    assert sp.tree.degree("vl") == 4 and sp.tree.degree("vr") == 4


def test_materialize_address_bijection():
    for c in enumerate_instances(12):
        sp = materialize_tree(c)
        addrs = expected_addresses(sp.params)
        assert len(addrs) == sp.params.m
        # addresses sort as tuples into the labeling file's order
        assert sorted(sp.edge_of) == addrs
        assert len(set(sp.edge_of.values())) == sp.params.m
        assert tuple(sp.edge_of.values()) == sp.tree.edges
        assert sp.tree.vertices == sp.vertices
        # a path edge's far end is the vertex named by its address
        assert all(a.text in e for a, e in sp.edge_of.items() if a.kind != KIND_CORE)
        high = sorted(v for v in sp.tree.vertices if sp.tree.degree(v) >= 3)
        assert high == ["vl", "vr"]
        assert sp.tree.degree("vl") >= sp.tree.degree("vr")


def test_address_text_round_trip():
    for text in ("core/3", "R/odd/1/2", "R/even/2/4", "L/odd/1/3", "L/even/2/1", "L/unit/2"):
        assert parse_address(text).text == text
    with pytest.raises(ValueError):
        parse_address("core")
    with pytest.raises(ValueError):
        parse_address("R/odd/1")


# --- classify -------------------------------------------------------------

@pytest.mark.parametrize("core,left,right,tag", [
    (3, (1, 1), (1, 1), CaseTag.EQUAL_DEG3),
    (1, (1, 1, 1), (3, 1), CaseTag.UNEQUAL_ODD_RIGHT),
    (2, (2, 2, 2), (2, 2, 2), CaseTag.EQUAL_DEG_HIGH),
    (1, (1, 1, 1), (2, 1), CaseTag.UNEQUAL_EVEN_RIGHT),
    (1, (1, 1, 1), (1, 1), CaseTag.UNEQUAL_ALL_UNIT_RIGHT),
])
def test_classify(core, left, right, tag):
    assert classify(derive_parameters(canonicalize(spec(core, left, right)))) is tag


def test_classify_exhaustive_partition():
    for c in enumerate_instances(11):
        p = derive_parameters(c)
        tag = classify(p)
        if p.deg_vl == p.deg_vr:
            assert tag in (CaseTag.EQUAL_DEG3, CaseTag.EQUAL_DEG_HIGH)
            assert (tag is CaseTag.EQUAL_DEG3) == (p.deg_vl == 3)
        elif p.b >= 1:
            assert tag is CaseTag.UNEQUAL_EVEN_RIGHT
        elif any(xi >= 1 for xi in p.x):
            assert tag is CaseTag.UNEQUAL_ODD_RIGHT
        else:
            assert tag is CaseTag.UNEQUAL_ALL_UNIT_RIGHT


# --- enumeration ----------------------------------------------------------

def test_enumerate_empty_below_minimum():
    assert list(enumerate_instances(4)) == []


def test_enumerate_smallest():
    got = list(enumerate_instances(5))
    assert got == [CanonicalDoubleSpider(1, (1, 1), (1, 1))]


def test_enumerate_up_to_six():
    got = list(enumerate_instances(6))
    assert len(got) == 4
    assert got[0].total_edges == 5
    assert all(c.total_edges == 6 for c in got[1:])


def _independent_enumeration(max_edges):
    """Cross-check generator built from raw length tuples, not partitions."""
    seen = set()
    for m in range(5, max_edges + 1):
        for s in range(1, m):
            rest = m - s
            for n_left in range(2, rest):
                for left in itertools.combinations_with_replacement(range(1, rest), n_left):
                    l_sum = sum(left)
                    if l_sum >= rest:
                        continue
                    r_sum = rest - l_sum
                    for n_right in range(2, n_left + 1):
                        for right in itertools.combinations_with_replacement(
                                range(1, r_sum + 1), n_right):
                            if sum(right) != r_sum:
                                continue
                            c = canonicalize(DoubleSpiderSpec(s, left, right))
                            seen.add((c.core_length, c.left_lengths, c.right_lengths))
    return seen


def test_enumerate_matches_independent_generator():
    got = {(c.core_length, c.left_lengths, c.right_lengths) for c in enumerate_instances(10)}
    assert got == _independent_enumeration(10)


def test_enumerate_order_is_documented_key():
    keys = [(c.total_edges, c.core_length, c.right_lengths, c.left_lengths)
            for c in enumerate_instances(12)]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def _ahu_form(tree):
    """Canonical form of an unrooted tree (center-rooted subtree encoding)."""
    adj = {v: set(ns) for v, ns in tree.adjacency.items()}
    # peel leaves to find the center(s)
    layer = [v for v in adj if len(adj[v]) <= 1]
    remaining = set(adj)
    while len(remaining) > 2:
        nxt = []
        for v in layer:
            remaining.discard(v)
            for w in adj[v]:
                adj[w].discard(v)
                if w in remaining and len(adj[w]) == 1:
                    nxt.append(w)
        layer = nxt
    centers = sorted(remaining)

    def encode(v, parent):
        subs = sorted(encode(w, v) for w in tree.adjacency[v] if w != parent)
        return "(" + "".join(subs) + ")"

    if len(centers) == 1:
        return encode(centers[0], None)
    a, b = centers
    return tuple(sorted([encode(a, b), encode(b, a)]))


def test_enumeration_isomorphism_free():
    forms = [_ahu_form(materialize_tree(c).tree) for c in enumerate_instances(10)]
    assert len(forms) == len(set(forms))


def test_unit_runs_are_the_unit_paths_of_the_layout():
    # every instance with m <= 12, then two with hundreds of unit paths
    instances = list(enumerate_instances(12))
    instances += [canonicalize(spec(3, [1] * 300 + [4, 7], [1] * 200)),
                  canonicalize(spec(2, [1] * 250 + [5], [1] * 120 + [3, 6]))]
    for c in instances:
        p = derive_parameters(c)
        paths = pendant_paths(p)
        units = [path for path in paths if len(path[3]) == 1]
        assert pendant_paths(p, units=False) == [path for path in paths if len(path[3]) > 1]
        right, left = unit_runs(p)
        assert [(hub, kind, i, ids[0]) for hub, kind, i, ids in units] == (
            [("vr", KIND_R_ODD, i, e) for i, e in enumerate(right, 1)]
            + [("vl", KIND_L_UNIT, i, e) for i, e in enumerate(left, 1)])
        rows = address_rows(p)
        rows[KIND_R_ODD] = rows[KIND_R_ODD][len(right):]
        rows[KIND_L_UNIT] = []
        assert address_rows(p, units=False) == rows
