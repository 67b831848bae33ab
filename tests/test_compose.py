"""Composition moves: leaf extension, pendant attachment, unit insertion."""

import pytest
from hypothesis import given, settings, strategies as st

from antimagic import (
    CanonicalDoubleSpider,
    CompositionError,
    DoubleSpiderSpec,
    EdgeAddress,
    EdgeLabeling,
    InvalidSpider,
    attach_pendants_to_degree_class,
    canonicalize,
    delete_leaf_level,
    enumerate_instances,
    extend_leaves,
    insert_unit_path,
    materialize_tree,
    strongly_antimagic_label,
)
from antimagic.compose import (
    add_unit_path,
    extend_leaf_levels,
    grow_all_paths,
    insert_unit_paths,
    remove_unit_path,
)
from antimagic.labeling import labeled_spider, labeled_tree
from antimagic.trees import edge_key, path_tree, star_tree


def path_lt(*labels):
    n = len(labels) + 1
    t = path_tree(n)
    return labeled_tree(t, {edge_key(f"p{i}", f"p{i+1}"): lab
                            for i, lab in enumerate(labels, start=1)})


# --- extend_leaves ----------------------------------------------------------

def test_extend_path3():
    out = extend_leaves(path_lt(1, 2))
    assert len(out.labels) == 4
    assert sorted(out.report.sums.values()) == [1, 2, 4, 6, 7]
    assert out.report.strong_ok


def test_extend_star():
    st = star_tree(3)
    lt = labeled_tree(st, {edge_key("c", f"c{i}"): i for i in (1, 2, 3)})
    out = extend_leaves(lt)
    assert out.report.sums["c"] == 15
    # leaf with the smallest old sum got the new label 1
    assert out.labels[edge_key("c", "c1")] == 4
    assert out.report.strong_ok


def test_extend_rejects_k2():
    with pytest.raises(CompositionError):
        extend_leaves(path_lt(1))


def test_extend_shift_law_generic():
    lt = path_lt(1, 3, 4, 2)
    out = extend_leaves(lt)
    n = len(lt.tree.leaves())
    for e, lab in lt.labels.items():
        assert out.labels[e] == lab + n


def test_extend_spider_keeps_instance_context():
    lt = strongly_antimagic_label(DoubleSpiderSpec(1, (1, 1), (1, 1)))
    out = extend_leaves(lt)
    assert out.spider is not None
    assert out.spider.instance.left_lengths == (2, 2)
    assert out.spider.instance.right_lengths == (2, 2)
    assert out.report.strong_ok
    # old labels shifted by the number of leaves edgewise
    old = lt.labeling.assignment
    new = out.labeling.assignment
    assert new[EdgeAddress.core(1)] == old[EdgeAddress.core(1)] + 4
    # old unit paths became the shortest even paths, hub edge keeps its label
    for i in (1, 2):
        assert new[EdgeAddress.l_even(i, 2)] == old[EdgeAddress.l_unit(i)] + 4


# --- attach_pendants_to_degree_class -----------------------------------------

def test_attach_degree2_exact():
    out = attach_pendants_to_degree_class(path_lt(1, 3, 4, 2), 2)
    kept = {edge_key(f"p{i}", f"p{i+1}"): out.labels[edge_key(f"p{i}", f"p{i+1}")]
            for i in range(1, 5)}
    assert list(kept.values()) == [4, 6, 7, 5]
    assert out.report.strong_ok
    assert sorted(out.tree.degrees.values()).count(1) == 5


def test_attach_degree1_matches_extend():
    lt = path_lt(1, 3, 4, 2)
    a = attach_pendants_to_degree_class(lt, 1)
    b = extend_leaves(lt)
    assert a.labels == b.labels
    assert a.report.sums == b.report.sums


def test_attach_empty_class_rejected():
    with pytest.raises(CompositionError):
        attach_pendants_to_degree_class(path_lt(1, 3, 4, 2), 7)


def test_attach_requires_strong_input():
    with pytest.raises(CompositionError):
        attach_pendants_to_degree_class(path_lt(1, 2, 3), 2)


# --- insert_unit_path ---------------------------------------------------------

def vertex_map_after_insert(lt, side):
    """Old vertex id -> new vertex id; right insertion shifts the indices of
    right odd paths longer than the inserted unit."""
    if side == "left":
        return {v: v for v in lt.tree.vertices}
    units = sum(1 for xi in lt.spider.params.x if xi == 0)
    mapping = {}
    for v in lt.tree.vertices:
        parts = v.split("/")
        if v.startswith("R/odd/") and int(parts[2]) > units:
            parts[2] = str(int(parts[2]) + 1)
            mapping[v] = "/".join(parts)
        else:
            mapping[v] = v
    return mapping


def test_insert_right_shift_laws():
    lt = strongly_antimagic_label(DoubleSpiderSpec(1, (1, 1, 1), (3, 1)))
    assert lt.report.sums["vl"] == 20 and lt.report.sums["vr"] == 16
    out = insert_unit_path(lt, "right")
    assert out.total_edges == 9
    assert out.report.sums["vr"] == 20  # 16 + deg_G(vr) = 16 + 4
    assert out.report.sums["vl"] == 24  # 20 + deg(vl)
    assert out.report.strong_ok
    # every old non-hub vertex shifted by its degree
    mapping = vertex_map_after_insert(lt, "right")
    for v, old_sum in lt.report.sums.items():
        if v in ("vl", "vr"):
            continue
        assert out.report.sums[mapping[v]] == old_sum + lt.tree.degree(v)


def test_insert_left():
    lt = strongly_antimagic_label(DoubleSpiderSpec(1, (1, 1), (1, 1)))
    assert lt.report.sums["vl"] == 12 and lt.report.sums["vr"] == 8
    out = insert_unit_path(lt, "left")
    assert out.total_edges == 6
    assert out.labeling.assignment[EdgeAddress.l_unit(3)] == 1
    assert out.report.strong_ok


def test_insert_left_requires_bigger_left_sum():
    spider = materialize_tree(canonicalize(DoubleSpiderSpec(1, (1, 1), (1, 1))))
    mirrored = EdgeLabeling(5, {
        EdgeAddress.core(1): 5,
        EdgeAddress.l_unit(1): 1, EdgeAddress.l_unit(2): 2,
        EdgeAddress.r_odd(1, 1): 3, EdgeAddress.r_odd(2, 1): 4,
    })
    lt = labeled_spider(spider, mirrored)
    assert lt.report.strong_ok and lt.report.sums["vl"] < lt.report.sums["vr"]
    with pytest.raises(CompositionError):
        insert_unit_path(lt, "left")


def test_insert_right_requires_degree_gap():
    lt = strongly_antimagic_label(DoubleSpiderSpec(2, (1, 1), (1, 1)))
    with pytest.raises(CompositionError):
        insert_unit_path(lt, "right")


def test_insert_requires_spider_context():
    with pytest.raises(CompositionError):
        insert_unit_path(path_lt(1, 3, 2), "left")


# --- instance-level reductions -------------------------------------------------

def test_delete_leaf_level():
    c = canonicalize(DoubleSpiderSpec(2, (2, 2, 2), (2, 2, 2)))
    out = delete_leaf_level(c)
    assert out.left_lengths == (1, 1, 1) and out.right_lengths == (1, 1, 1)
    assert out.core_length == 2


def test_delete_leaf_level_mixed():
    c = canonicalize(DoubleSpiderSpec(1, (5, 3), (3, 2)))
    out = delete_leaf_level(c)
    assert out.left_lengths == (2, 4) and out.right_lengths == (1, 2)


def test_delete_leaf_level_rejects_unit_paths():
    with pytest.raises(InvalidSpider):
        delete_leaf_level(canonicalize(DoubleSpiderSpec(1, (2, 1), (1, 1))))


def test_delete_leaf_level_rejects_deleting_a_whole_path():
    # levels equal to the shortest length: the move's own check, not the constructor's
    with pytest.raises(InvalidSpider, match="a unit path would vanish"):
        delete_leaf_level(CanonicalDoubleSpider(1, (3, 4), (3, 5)), 3)


def test_remove_unit_path_rejects_unknown_side():
    c = CanonicalDoubleSpider(1, (1, 1, 2), (1, 1, 3))
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        remove_unit_path(c, "Left")


def test_remove_unit_path_rejects_missing_units():
    c = CanonicalDoubleSpider(1, (1, 2, 2), (1, 1))
    with pytest.raises(InvalidSpider, match="not enough unit paths on the left side"):
        remove_unit_path(c, "left", 2)


def test_unit_path_moves_reject_unknown_side():
    c = CanonicalDoubleSpider(1, (1, 1, 1, 2), (1, 3))
    lt = strongly_antimagic_label(c)
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        add_unit_path(c, "Left")
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        insert_unit_paths(c, lt.labeling, "Left", 1)
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        insert_unit_path(lt, "Left")


COUNTED_MOVES = {
    "delete_leaf_level": lambda c, lab, n: delete_leaf_level(c, n),
    "remove_unit_path": lambda c, lab, n: remove_unit_path(c, "left", n),
    "grow_all_paths": lambda c, lab, n: grow_all_paths(c, n),
    "add_unit_path": lambda c, lab, n: add_unit_path(c, "left", n),
    "extend_leaf_levels": lambda c, lab, n: extend_leaf_levels(c, lab, n)[0],
    "insert_unit_paths": lambda c, lab, n: insert_unit_paths(c, lab, "left", n)[0],
}


@pytest.mark.parametrize("move", sorted(COUNTED_MOVES))
def test_counted_moves_reject_negative_counts(move):
    # a negative count used to build a wrong instance silently; 0 is a no-op
    c = CanonicalDoubleSpider(1, (1, 1, 3, 5), (1, 2))
    lab = strongly_antimagic_label(c).labeling
    with pytest.raises(ValueError, match="a move count must be >= 0"):
        COUNTED_MOVES[move](c, lab, -1)
    assert COUNTED_MOVES[move](c, lab, 0) == c


def test_reduction_stack_replays_to_original():
    c = canonicalize(DoubleSpiderSpec(2, (3, 3, 3), (3, 3, 3)))
    stack = []
    cur = c
    for _ in range(2):
        cur = delete_leaf_level(cur)
        stack.append("delete-leaf-level")
    cur = remove_unit_path(cur, "right")
    stack.append("remove-unit-right")
    # invert at the instance level, LIFO
    for step in reversed(stack):
        if step == "delete-leaf-level":
            cur = grow_all_paths(cur)
        elif step == "remove-unit-right":
            cur = add_unit_path(cur, "right")
        else:
            cur = add_unit_path(cur, "left")
    assert cur == c


def test_reduction_step_invert_runs_verifier():
    lt = strongly_antimagic_label(DoubleSpiderSpec(1, (1, 1, 1), (3, 1)))
    out = insert_unit_path(lt, "right")
    assert out.report.strong_ok and out.total_edges == lt.total_edges + 1


# --- batched runs of moves ------------------------------------------------------

SMALL_INSTANCES = list(enumerate_instances(10))


@st.composite
def labeled_run(draw):
    """A driver-labeled instance with m <= 10 and a run of k equal moves whose
    preconditions hold at every step."""
    lt = strongly_antimagic_label(draw(st.sampled_from(SMALL_INSTANCES)))
    p = lt.spider.params
    moves = ["extend", "left"] + (["right"] if p.deg_vl > p.deg_vr else [])
    move = draw(st.sampled_from(moves))
    # each right insertion raises deg(vr), which must stay <= deg(vl)
    cap = p.deg_vl - p.deg_vr if move == "right" else 6
    return lt, move, draw(st.integers(min_value=1, max_value=min(6, cap)))


@given(labeled_run())
@settings(max_examples=150, deadline=None)
def test_batched_run_equals_sequential_moves(run):
    lt, move, k = run
    seq = lt
    for _ in range(k):
        seq = extend_leaves(seq) if move == "extend" else insert_unit_path(seq, move)
    c, labeling = lt.spider.instance, lt.labeling
    if move == "extend":
        c, labeling = extend_leaf_levels(c, labeling, k)
    else:
        c, labeling = insert_unit_paths(c, labeling, move, k)
    assert c == seq.spider.instance
    assert labeling.total_edges == seq.labeling.total_edges
    assert labeling.assignment == seq.labeling.assignment


def test_batched_extension_closed_form():
    # core 1, paths of 1 on both sides, driver labels; two extensions at once
    lt = strongly_antimagic_label(DoubleSpiderSpec(1, (1, 1), (1, 1)))
    old = lt.labeling.assignment
    c, labeling = extend_leaf_levels(lt.spider.instance, lt.labeling, 2)
    assert c.left_lengths == (3, 3) and c.right_lengths == (3, 3)
    new = labeling.assignment
    assert new[EdgeAddress.core(1)] == old[EdgeAddress.core(1)] + 2 * 4
    pendants = {EdgeAddress.r_odd(1, 1): (EdgeAddress.r_odd(1, 2), EdgeAddress.r_odd(1, 3)),
                EdgeAddress.r_odd(2, 1): (EdgeAddress.r_odd(2, 2), EdgeAddress.r_odd(2, 3)),
                EdgeAddress.l_unit(1): (EdgeAddress.l_odd(1, 2), EdgeAddress.l_odd(1, 1)),
                EdgeAddress.l_unit(2): (EdgeAddress.l_odd(2, 2), EdgeAddress.l_odd(2, 1))}
    ranked = sorted(pendants, key=old.__getitem__)
    for r, a in enumerate(ranked, start=1):
        level1, level2 = pendants[a]
        assert new[level1] == r + 4  # r + n * (k - 1)
        assert new[level2] == r      # r + n * (k - 2)
    assert sorted(new.values()) == list(range(1, 14))
