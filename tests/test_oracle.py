"""The exact search oracle: soundness, completeness, budgets."""

import itertools

import pytest

from antimagic import (
    DoubleSpiderSpec,
    SearchBudget,
    canonicalize,
    enumerate_instances,
    find_antimagic,
    find_strongly_antimagic,
    materialize_tree,
    vertex_sums,
)
from antimagic.oracle import _pendant_predecessors
from antimagic.trees import Tree, edge_key, make_tree, path_tree, star_tree


def test_k2_proven_none():
    res = find_strongly_antimagic(path_tree(2))
    assert res.proven_absent and res.labels is None
    assert find_antimagic(path_tree(2)).proven_absent


def test_path3_found():
    res = find_strongly_antimagic(path_tree(3))
    assert res.found
    assert vertex_sums(path_tree(3), res.labels).strong_ok


def test_star_found():
    res = find_antimagic(star_tree(3))
    assert res.found


def _brute_force(tree, strong):
    edges = sorted(tree.edges)
    m = len(edges)
    for perm in itertools.permutations(range(1, m + 1)):
        rep = vertex_sums(tree, dict(zip(edges, perm)))
        if rep.strong_ok if strong else rep.antimagic_ok:
            return True
    return False


def test_path4_only_middle_three_works():
    # among the 6 assignments exactly those with the middle edge labeled 3
    t = path_tree(4)
    edges = [edge_key("p1", "p2"), edge_key("p2", "p3"), edge_key("p3", "p4")]
    winners = []
    for perm in itertools.permutations((1, 2, 3)):
        rep = vertex_sums(t, dict(zip(edges, perm)))
        if rep.strong_ok:
            winners.append(perm)
    assert winners == [(1, 3, 2), (2, 3, 1)]
    assert find_strongly_antimagic(t).found


def _rooted_code(adj, root, parent=None):
    return "(" + "".join(sorted(_rooted_code(adj, w, root) for w in adj[root] if w != parent)) + ")"


def _all_trees(max_edges):
    """Every tree with 1..max_edges edges up to isomorphism, by edge count.

    Each tree on n + 1 vertices is a tree on n vertices plus a leaf; trees
    are deduplicated by the least AHU code over all roots.
    """
    level = [[[1], [0]]]  # K2, as adjacency lists over 0..n-1
    by_edges = {1: level}
    for edges in range(2, max_edges + 1):
        grown = {}
        for adj in level:
            n = len(adj)
            for v in range(n):
                new = [list(ns) for ns in adj] + [[v]]
                new[v].append(n)
                grown.setdefault(min(_rooted_code(new, r) for r in range(n + 1)), new)
        level = by_edges[edges] = list(grown.values())
    return {
        edges: [make_tree([f"v{i}" for i in range(len(adj))],
                          [(f"v{u}", f"v{w}") for u in range(len(adj)) for w in adj[u] if u < w])
                for adj in trees]
        for edges, trees in by_edges.items()
    }


def _is_witness(tree, labels, strong):
    # Written here, independent of vertex_sums: a bijection onto 1..m whose
    # sums are distinct and, if strong, rise with degree.
    m = len(tree.edges)
    if set(labels) != set(tree.edges) or sorted(labels.values()) != list(range(1, m + 1)):
        return False
    total = dict.fromkeys(tree.vertices, 0)
    degree = dict.fromkeys(tree.vertices, 0)
    for (u, v), label in labels.items():
        total[u] += label
        total[v] += label
        degree[u] += 1
        degree[v] += 1
    if not strong:
        return len(set(total.values())) == len(total)
    ranked = sorted((degree[v], total[v]) for v in tree.vertices)
    return all(a[1] < b[1] for a, b in zip(ranked, ranked[1:]))


@pytest.mark.parametrize("strong", [True, False])
def test_agrees_with_naive_enumeration(strong):
    search = find_strongly_antimagic if strong else find_antimagic
    trees = _all_trees(7)
    assert [len(trees[m]) for m in range(1, 8)] == [1, 1, 2, 3, 6, 11, 23]  # OEIS A000055
    for m, group in trees.items():
        for tree in group:
            res = search(tree, SearchBudget(max_edges=7))
            assert res.status in ("found", "none")
            assert res.found == _brute_force(tree, strong) == (m > 1)
            if res.found:
                rep = vertex_sums(tree, res.labels)
                assert rep.strong_ok if strong else rep.antimagic_ok


def _symmetric_trees():
    for n in range(2, 10):
        yield star_tree(n)
    for legs, length in ((3, 2), (3, 3), (4, 2)):  # spiders with equal legs
        names = ["c"] + [f"l{i}_{j}" for i in range(legs) for j in range(1, length + 1)]
        yield make_tree(names, [(f"l{i}_{j - 1}" if j > 1 else "c", f"l{i}_{j}")
                                for i in range(legs) for j in range(1, length + 1)])
    for c in enumerate_instances(9):  # double spiders with a repeated length
        if any(len(set(side)) < len(side) for side in (c.left_lengths, c.right_lengths)):
            yield materialize_tree(c).tree


@pytest.mark.parametrize("strong", [True, False])
def test_symmetric_families_found(strong):
    search = find_strongly_antimagic if strong else find_antimagic
    trees = list(_symmetric_trees())
    assert len(trees) == 97
    for tree in trees:
        res = search(tree, SearchBudget(max_edges=9))
        assert res.found, tree
        assert _is_witness(tree, res.labels, strong)


def test_pendant_paths_grouped_by_attachment_and_length():
    # legs a, b of length 2 and d, e of length 1 at c; f, g of length 1 at h
    tree = make_tree(
        ["c", "a1", "a2", "b1", "b2", "d1", "e1", "h", "f1", "g1"],
        [("c", "a1"), ("a1", "a2"), ("c", "b1"), ("b1", "b2"), ("c", "d1"), ("c", "e1"),
         ("c", "h"), ("h", "f1"), ("h", "g1")],
    )
    assert _pendant_predecessors(tree) == {
        ("b1", "c"): ("a1", "c"),
        ("c", "e1"): ("c", "d1"),
        ("g1", "h"): ("f1", "h"),
    }
    assert _pendant_predecessors(path_tree(5)) == {}


def test_node_count_gate():
    # A count, not a wall-clock bound: the search explored 956,728 nodes on
    # these instances before the degree-first order and the symmetry rule.
    results = [find_strongly_antimagic(materialize_tree(c).tree, SearchBudget(max_edges=10))
               for c in enumerate_instances(10)]
    assert len(results) == 208 and all(r.found for r in results)
    assert sum(r.nodes_explored for r in results) <= 10_000


def test_zero_time_limit_exhausts():
    tree = materialize_tree(canonicalize(DoubleSpiderSpec(2, (1, 4), (1, 2)))).tree
    res = find_strongly_antimagic(tree, SearchBudget(time_limit=0))
    assert res.status == "exhausted"


def test_budget_node_limit():
    res = find_strongly_antimagic(path_tree(8), SearchBudget(node_limit=2))
    assert res.status == "exhausted"
    assert res.nodes_explored > 0


def test_oversized_tree_rejected():
    with pytest.raises(ValueError):
        find_strongly_antimagic(path_tree(13), SearchBudget(max_edges=10))


def test_deterministic_witness():
    t = materialize_tree(canonicalize(DoubleSpiderSpec(1, (2, 1), (2, 1)))).tree
    a = find_strongly_antimagic(t)
    b = find_strongly_antimagic(t)
    assert a.labels == b.labels and a.nodes_explored == b.nodes_explored
