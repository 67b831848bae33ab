"""Vertex sums and the antimagic / strongly antimagic verifiers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from antimagic import (
    DoubleSpiderSpec,
    EdgeAddress,
    EdgeLabeling,
    LabelingError,
    canonicalize,
    classify,
    enumerate_instances,
    materialize_tree,
    strongly_antimagic_label,
    verify_antimagic,
    verify_bijection,
    vertex_sums,
)
from antimagic.labelers import SPECIAL_INSTANCE_ASSIGNMENT
from antimagic.labelers import SPECIAL_INSTANCE
from antimagic.labeling import SumViolation, _first_pair, _strong_by_class, first_duplicate
from antimagic.spiders import edge_addresses, pendant_paths, unit_runs
from antimagic.trees import edge_key, path_tree


def path_labels(*labels):
    return {edge_key(f"p{i}", f"p{i+1}"): lab for i, lab in enumerate(labels, start=1)}


def special():
    spider = materialize_tree(SPECIAL_INSTANCE)
    return spider, EdgeLabeling(8, dict(SPECIAL_INSTANCE_ASSIGNMENT))


def test_vertex_sums_path3():
    rep = vertex_sums(path_tree(3), path_labels(1, 2))
    assert rep.sums == {"p1": 1, "p2": 3, "p3": 2}


def test_vertex_sums_single_edge():
    rep = vertex_sums(path_tree(2), path_labels(1))
    assert rep.sums == {"p1": 1, "p2": 1}


def test_vertex_sums_special_instance():
    spider, labeling = special()
    rep = vertex_sums(spider, labeling)
    assert rep.sums["vl"] == 15 and rep.sums["vr"] == 13
    deg2 = sorted(rep.sums[v] for v in rep.degree_classes[2])
    leaves = sorted(rep.sums[v] for v in rep.degree_classes[1])
    assert deg2 == [8, 9, 11]
    assert leaves == [1, 4, 5, 6]


def test_vertex_sums_rejects_mismatched_edges():
    with pytest.raises(LabelingError):
        vertex_sums(path_tree(3), path_labels(1))


def test_vertex_sums_rejects_mismatched_pairing():
    spider, labeling = special()
    with pytest.raises(LabelingError, match="EdgeLabeling needs a materialized instance"):
        vertex_sums(path_tree(3), labeling)
    with pytest.raises(LabelingError, match="EdgeLabeling needs a materialized instance"):
        vertex_sums(spider, dict(zip(spider.edges, labeling.labels)))


def test_vertex_sums_rejects_labeling_missing_an_address():
    # an address-keyed labeling is checked as it is built: its addresses
    # must be exactly those of the instance they describe, with m edges
    spider, labeling = special()
    partial = dict(labeling.assignment)
    del partial[EdgeAddress.core(1)]
    extra = {**labeling.assignment, EdgeAddress.l_unit(3): 9}
    wider_right = {**labeling.assignment, EdgeAddress.r_odd(3, 1): 9, EdgeAddress.r_odd(4, 1): 10}
    cases = [(8, partial), (7, partial), (9, extra), (8, extra), (7, labeling.assignment),
             (9, labeling.assignment), (0, {}), (10, wider_right)]
    for m, assignment in cases:
        with pytest.raises(LabelingError):
            vertex_sums(spider, EdgeLabeling(m, assignment))
    for m, assignment in (8, partial), (9, extra):
        with pytest.raises(LabelingError, match="cover exactly the instance's edges"):
            EdgeLabeling(m, assignment)
    with pytest.raises(LabelingError, match="describe no double spider: the left hub"):
        EdgeLabeling(10, wider_right)
    with pytest.raises(LabelingError, match="describe no double spider: core length"):
        EdgeLabeling(0, {})
    # a labeling of another instance
    other = strongly_antimagic_label(DoubleSpiderSpec(1, (1, 1, 1, 1), (1, 1, 1))).labeling
    with pytest.raises(LabelingError, match="cover exactly the instance's edges"):
        vertex_sums(spider, other)


def test_verify_bijection():
    assert verify_bijection({("a", "b"): 1, ("b", "c"): 2, ("c", "d"): 3})
    assert not verify_bijection({("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 3})
    assert not verify_bijection({("a", "b"): 2, ("b", "c"): 3, ("c", "d"): 4})


def test_verify_antimagic_special_instance():
    spider, labeling = special()
    assert verify_antimagic(spider, labeling)


def test_verify_antimagic_k2_false():
    assert not verify_antimagic(path_tree(2), path_labels(1))


def test_verify_antimagic_path4_sequential_false():
    assert not verify_antimagic(path_tree(4), path_labels(1, 2, 3))


def test_verify_antimagic_sees_duplicate_behind_degree_order():
    # sums 2,3,4,7,4: the scan's first violation is degree-order (p5 vs p2),
    # yet p5 and p3 share the sum 4
    labels = path_labels(2, 1, 3, 4)
    assert not verify_antimagic(path_tree(5), labels)
    rep = vertex_sums(path_tree(5), labels)
    assert rep.violation == SumViolation("p5", "p2", 4, 3, 1, 2, "degree-order")
    assert first_duplicate(rep) == SumViolation("p5", "p3", 4, 4, 1, 2, "duplicate-sum")


def test_verify_antimagic_reports_bad_bijection_distinctly():
    with pytest.raises(LabelingError):
        verify_antimagic(path_tree(4), path_labels(1, 1, 3))


def test_strongly_antimagic_special_instance():
    spider, labeling = special()
    assert vertex_sums(spider, labeling).strong_ok


def test_strongly_antimagic_path4():
    rep = vertex_sums(path_tree(4), path_labels(1, 3, 2))
    assert rep.strong_ok
    assert sorted(rep.sums.values()) == [1, 2, 4, 5]


def test_strongly_antimagic_detects_swap():
    spider, _ = special()
    tampered = dict(SPECIAL_INSTANCE_ASSIGNMENT)
    a7 = next(a for a, l in tampered.items() if l == 7)
    a1 = next(a for a, l in tampered.items() if l == 1)
    tampered[a7], tampered[a1] = 1, 7
    rep = vertex_sums(spider, EdgeLabeling(8, tampered))
    assert not rep.strong_ok
    assert rep.violation is not None


def test_bad_bijection_flagged_in_report():
    rep = vertex_sums(path_tree(4), path_labels(1, 1, 3))
    assert not rep.bijection_ok and not rep.strong_ok
    assert rep.violation.reason == "bad-bijection"


@st.composite
def labeled_instance(draw):
    core = draw(st.integers(min_value=1, max_value=3))
    left = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=3))
    right = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=3))
    spider = materialize_tree(canonicalize(DoubleSpiderSpec(core, tuple(left), tuple(right))))
    m = spider.params.m
    labels = draw(st.permutations(list(range(1, m + 1))))
    return spider, dict(zip(sorted(spider.tree.edges), labels))


@given(labeled_instance())
@settings(max_examples=120, deadline=None)
def test_handshake_identity(case):
    spider, labels = case
    rep = vertex_sums(spider.tree, labels)
    assert sum(rep.sums.values()) == len(labels) * (len(labels) + 1)


@given(labeled_instance())
@settings(max_examples=120, deadline=None)
def test_strong_implies_antimagic_and_class_monotone(case):
    spider, labels = case
    rep = vertex_sums(spider.tree, labels)
    if not rep.strong_ok:
        return
    assert rep.antimagic_ok
    # strictly increasing across every occupied degree-class boundary
    degrees = sorted(rep.degree_classes)
    for lo, hi in zip(degrees, degrees[1:]):
        max_lo = max(rep.sums[v] for v in rep.degree_classes[lo])
        min_hi = min(rep.sums[v] for v in rep.degree_classes[hi])
        assert max_lo < min_hi


def test_strong_verifier_over_small_enumeration():
    # sanity: reports agree with a direct quadratic re-check
    from antimagic import strongly_antimagic_label
    for c in enumerate_instances(8):
        lt = strongly_antimagic_label(c)
        rep = lt.report
        sums, tree = rep.sums, lt.tree
        for u in tree.vertices:
            for v in tree.vertices:
                if u < v:
                    assert sums[u] != sums[v]
                if tree.degree(u) < tree.degree(v):
                    assert sums[u] < sums[v]


def reference_report(tree, labels):
    """Quadratic reference: the pairwise scan over (degree, id) order."""
    m = len(labels)
    sums = {v: 0 for v in tree.vertices}
    for (u, v), lab in labels.items():
        sums[u] += lab
        sums[v] += lab
    order = sorted(tree.vertices, key=lambda v: (tree.degree(v), v))
    classes = {}
    for v in order:
        classes.setdefault(tree.degree(v), []).append(v)
    bijection_ok = sorted(labels.values()) == list(range(1, m + 1))
    if not bijection_ok:
        violation = SumViolation("", "", 0, 0, 0, 0, "bad-bijection")
    else:
        violation = None
        for idx, u in enumerate(order):
            for v in order[idx + 1:]:
                du, dv = tree.degree(u), tree.degree(v)
                if sums[u] == sums[v]:
                    violation = SumViolation(u, v, sums[u], sums[v], du, dv, "duplicate-sum")
                elif du < dv and sums[u] > sums[v]:
                    violation = SumViolation(u, v, sums[u], sums[v], du, dv, "degree-order")
                if violation is not None:
                    break
            if violation is not None:
                break
    return dict(
        sums=sums,
        degree_classes={k: tuple(vs) for k, vs in classes.items()},
        bijection_ok=bijection_ok,
        antimagic_ok=bijection_ok and len(set(sums.values())) == len(sums),
        strong_ok=bijection_ok and violation is None,
        violation=violation,
    )


@st.composite
def tampered_instance(draw):
    """A labeled instance: a permutation, one with a repeated label, or a
    strongly antimagic labeling with two labels swapped."""
    spider, labels = draw(labeled_instance())
    mode = draw(st.sampled_from(["permutation", "repeat", "swap"]))
    if mode != "permutation":
        a, b = draw(st.lists(st.sampled_from(sorted(labels)), min_size=2, max_size=2, unique=True))
        if mode == "repeat":
            labels[a] = labels[b]
        else:
            labels = dict(strongly_antimagic_label(spider.instance).labels)
            labels[a], labels[b] = labels[b], labels[a]
    return spider, labels


@given(tampered_instance())
@settings(max_examples=300, deadline=None)
def test_report_matches_quadratic_reference(case):
    spider, labels = case
    rep = vertex_sums(spider.tree, labels)
    ref = reference_report(spider.tree, labels)
    assert {k: getattr(rep, k) for k in ref} == ref
    # the same labels, keyed by address, checked by edge id on the spider
    addresses = edge_addresses(spider.params)
    addressed = EdgeLabeling(spider.params.m, {a: labels[e] for a, e in zip(addresses, spider.edges)})
    assert {k: getattr(vertex_sums(spider, addressed), k) for k in ref} == ref
    if rep.bijection_ok:
        sums, deg = ref["sums"], spider.tree.degree
        order = [v for vs in ref["degree_classes"].values() for v in vs]
        pairs = [(u, v) for i, u in enumerate(order) for v in order[i + 1:] if sums[u] == sums[v]]
        expected = None
        if pairs:
            u, v = pairs[0]
            expected = SumViolation(u, v, sums[u], sums[v], deg(u), deg(v), "duplicate-sum")
        assert first_duplicate(rep) == expected


def test_flat_spider_verifier_matches_the_tree_verifier():
    # every instance with m <= 12: the driver's labeling, three seeded
    # one-swap tamperings and one repeated label, each checked flat on the
    # spider and, as the reference, edge-keyed on its plain Tree; the
    # driver's labeling, rebuilt from its assignment, is the same flat one
    rng = random.Random(12)
    keys = ("bijection_ok", "antimagic_ok", "strong_ok", "violation")
    strong = weak = 0
    for c in enumerate_instances(12):
        lt = strongly_antimagic_label(c)
        spider, p = lt.spider, lt.spider.params
        addressed = EdgeLabeling(p.m, lt.labeling.assignment)
        assert addressed.params == p and addressed.labels == lt.labeling.labels
        cases = [list(lt.labeling.labels)]
        for _ in range(3):
            labels = list(cases[0])
            a, b = rng.sample(range(p.m), 2)
            labels[a], labels[b] = labels[b], labels[a]
            cases.append(labels)
        repeated = list(cases[0])
        repeated[rng.randrange(p.m)] = repeated[rng.randrange(p.m)]
        cases.append(repeated)
        for labels in cases:
            flat = vertex_sums(spider, EdgeLabeling.flat(p, labels))
            ref = vertex_sums(spider.tree, dict(zip(spider.edges, labels)))
            assert [getattr(flat, k) for k in keys] == [getattr(ref, k) for k in keys]
            assert flat.sums == ref.sums and flat.degree_classes == ref.degree_classes
            if ref.bijection_ok:
                assert _strong_by_class(p, labels) == ref.strong_ok
                strong += ref.strong_ok
                weak += not ref.strong_ok
    assert strong > 843 and weak > 843


def _many_unit_specs(rng):
    """Specs with 20-300 unit paths on a side and at most three longer paths
    there; every third one has only unit paths on the right, and every third
    one equal hub degrees."""
    specs = []
    for k in range(12):
        left, right = ([1] * rng.randint(20, 300) + [rng.randint(2, 9) for _ in range(rng.randint(0, 3))]
                       for _ in range(2))
        if k % 3 == 0:
            right = [1] * rng.randint(20, 300)
        elif k % 3 == 1:
            right = [1] * (len(left) - 2) + [rng.randint(2, 9), rng.randint(2, 9)]
        specs.append(DoubleSpiderSpec(rng.randint(1, 6), tuple(left), tuple(right)))
    return specs


def test_flat_verifier_matches_the_tree_verifier_on_many_unit_paths():
    # the driver's labeling, then one-swap tamperings that trade a unit
    # path's label (either side's run) for a hub edge's (a core end or a
    # long path's first edge) and for any long-path edge's
    rng = random.Random(25)
    keys = ("bijection_ok", "antimagic_ok", "strong_ok", "violation")
    outcomes, routes = set(), set()
    for spec in _many_unit_specs(rng):
        lt = strongly_antimagic_label(spec)
        spider, p = lt.spider, lt.spider.params
        long_paths = [ids for *_, ids in pendant_paths(p, units=False)]
        units = [e for run in unit_runs(p) for e in run]
        hub_edges = [0, p.s - 1] + [ids[0] for ids in long_paths]
        cases = [list(lt.labeling.labels)]
        for pool in (hub_edges, [e for ids in long_paths for e in ids]):
            for _ in range(6):
                labels = list(cases[0])
                a, b = rng.choice(units), rng.choice(pool) if pool else rng.choice(units)
                labels[a], labels[b] = labels[b], labels[a]
                cases.append(labels)
        for labels in cases:
            flat = vertex_sums(spider, EdgeLabeling.flat(p, labels))
            ref = vertex_sums(spider.tree, dict(zip(spider.edges, labels)))
            assert [getattr(flat, k) for k in keys] == [getattr(ref, k) for k in keys]
            assert flat.sums == ref.sums
            assert _strong_by_class(p, labels) == ref.strong_ok
            outcomes.add(ref.violation.reason if ref.violation else "strong")
        routes.add(classify(p))
    assert outcomes == {"strong", "duplicate-sum", "degree-order"} and len(routes) == 4


class _CountedSlices(list):
    """A vertex order that counts the tails _first_pair slices off it."""

    tails = 0

    def __getitem__(self, key):
        self.tails += isinstance(key, slice)
        return super().__getitem__(key)


def test_first_pair_scans_at_most_one_tail():
    # the pairwise scan runs in O(V) plus the tail of the one vertex that it
    # reports: a strong labeling scans none, a failing one exactly one
    strong = set()
    for spec in _many_unit_specs(random.Random(9))[:4]:
        lt = strongly_antimagic_label(spec)
        labels = list(lt.labeling.labels)
        for swap in (False, True):
            if swap:  # labels 1 and m trade edges
                a, b = labels.index(1), labels.index(len(labels))
                labels[a], labels[b] = labels[b], labels[a]
            report = vertex_sums(lt.spider, EdgeLabeling.flat(lt.spider.params, labels))
            sums, degrees = report.sums, report._tables[1]
            order = _CountedSlices(sorted(sums, key=lambda v: (degrees[v], v)))
            assert _first_pair(order, sums, degrees) == report.violation
            assert order.tails == (report.violation is not None)
            strong.add(report.strong_ok)
    assert strong == {True, False}
