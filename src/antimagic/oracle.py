"""Exact backtracking search for (strongly) antimagic labelings of small trees.

Independent of the constructive labelers: this is the ground truth the
constructions are checked against on small instances, and it takes any tree.
Labels are placed in descending order m, m-1, ...; at each level every open
edge is a branch, one search node per placement attempt.

Branch order: the edges sorted once by (-min endpoint degree, -max endpoint
degree, edge key).  The strong property makes sums rise with degree, so large
labels are tried first between high-degree vertices.

Symmetry: a pendant path runs from a leaf through degree-2 vertices to the
first vertex w of degree >= 3.  Paths are grouped by (w, length) and ordered
by the key of their edge at w; that edge may take a label only once the
previous path's edge at w is labeled.  Sound, because swapping two whole
paths of a group is a tree automorphism that keeps every degree and carries
the sums along, so every valid labeling has a valid image whose labels at w
descend in group order.  As labels are placed m, m-1, ..., that image is
reachable: the search tries every permitted edge and cuts only branches that
no valid labeling extends.

Pruning: a branch is cut once a finished vertex ties a sum or breaks the
degree order, or an unfinished vertex's reachable sums must.  Finished sums
live in a set and in a min and max per degree class, restored LIFO on
backtrack, so a finish check costs O(#classes) and the bound check
O(V + #classes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import accumulate
from math import inf

from .labeling import vertex_sums
from .trees import Edge, Tree, edge_key


@dataclass(frozen=True)
class SearchBudget:
    max_edges: int = 10
    node_limit: int | None = None
    time_limit: float | None = None  # seconds


@dataclass(frozen=True)
class SearchResult:
    status: str  # "found" | "none" | "exhausted"
    labels: dict[Edge, int] | None
    nodes_explored: int

    @property
    def found(self) -> bool:
        return self.status == "found"

    @property
    def proven_absent(self) -> bool:
        return self.status == "none"


class _BudgetExceeded(Exception):
    pass


def find_strongly_antimagic(tree: Tree, budget: SearchBudget = SearchBudget()) -> SearchResult:
    """A witness labeling, a completed-search "none", or budget exhaustion."""
    return _search(tree, budget, strong=True)


def find_antimagic(tree: Tree, budget: SearchBudget = SearchBudget()) -> SearchResult:
    return _search(tree, budget, strong=False)


def _pendant_predecessors(tree: Tree) -> dict[Edge, Edge]:
    """Attachment edge of each pendant path -> that of the previous path in its group."""
    degree = tree.degrees
    groups: dict[tuple[str, int], list[Edge]] = {}
    for leaf in tree.vertices:
        if degree[leaf] != 1:
            continue
        prev, v, length = None, leaf, 1
        w = tree.adjacency[leaf][0]
        while degree[w] == 2:
            prev, v, length = v, w, length + 1
            w = next(x for x in tree.adjacency[w] if x != prev)
        if degree[w] >= 3:
            groups.setdefault((w, length), []).append(edge_key(v, w))
    after: dict[Edge, Edge] = {}
    for attachments in groups.values():
        attachments.sort()
        after.update(zip(attachments[1:], attachments))
    return after


def _search(tree: Tree, budget: SearchBudget, strong: bool) -> SearchResult:
    m = len(tree.edges)
    if m > budget.max_edges:
        raise ValueError(f"tree has {m} edges, over the {budget.max_edges}-edge budget")
    if m == 0:
        return SearchResult("none", None, 0)

    degree = tree.degrees
    order = sorted(tree.edges, key=lambda e: (-min(degree[e[0]], degree[e[1]]),
                                              -max(degree[e[0]], degree[e[1]]), e))
    after = _pendant_predecessors(tree)
    classes = sorted(set(degree.values()))
    rank = {v: classes.index(d) for v, d in degree.items()}
    lo = [inf] * len(classes)  # least finished sum per degree class
    hi = [-inf] * len(classes)  # greatest finished sum per degree class
    sums: set[int] = set()

    assigned: dict[Edge, int] = {}
    partial = {v: 0 for v in tree.vertices}
    unlabeled = dict(degree)
    nodes = 0
    deadline = time.monotonic() + budget.time_limit if budget.time_limit is not None else None

    def consistent(v: str) -> bool:
        s, c = partial[v], rank[v]
        if s in sums:
            return False
        return not strong or max(hi[:c], default=-inf) < s < min(lo[c + 1:], default=inf)

    def bounds_hold(top: int) -> bool:
        # Labels 1..top are still unplaced; an unfinished vertex with k open
        # slots can gain between 1+...+k and top+...+(top-k+1) more.
        below = list(accumulate([-inf, *hi[:-1]], max))  # max(hi[:c])
        above = list(accumulate([inf, *lo[:0:-1]], min))[::-1]  # min(lo[c + 1:])
        for v, k in unlabeled.items():
            if k == 0:
                continue
            lb = partial[v] + k * (k + 1) // 2
            ub = partial[v] + k * top - k * (k - 1) // 2
            if lb == ub and lb in sums:
                return False
            if strong and (ub <= below[rank[v]] or lb >= above[rank[v]]):
                return False
        return True

    def place(label: int) -> bool:
        nonlocal nodes
        if label == 0:
            return True
        for e in order:
            if e in assigned or (e in after and after[e] not in assigned):
                continue
            nodes += 1
            if budget.node_limit is not None and nodes > budget.node_limit:
                raise _BudgetExceeded
            if deadline is not None and time.monotonic() >= deadline:
                raise _BudgetExceeded
            assigned[e] = label
            for v in e:
                partial[v] += label
                unlabeled[v] -= 1
            done = []  # (class, its old min and max, sum) of each vertex finished here
            ok = True
            for v in e:
                if unlabeled[v] == 0:
                    if not consistent(v):
                        ok = False
                        break
                    c, s = rank[v], partial[v]
                    done.append((c, lo[c], hi[c], s))
                    lo[c], hi[c] = min(lo[c], s), max(hi[c], s)
                    sums.add(s)
            if ok and bounds_hold(label - 1) and place(label - 1):
                return True
            for c, old_lo, old_hi, s in reversed(done):
                lo[c], hi[c] = old_lo, old_hi
                sums.discard(s)
            del assigned[e]
            for v in e:
                partial[v] -= label
                unlabeled[v] += 1
        return False

    try:
        found = place(m)
    except _BudgetExceeded:
        return SearchResult("exhausted", None, nodes)

    if not found:
        return SearchResult("none", None, nodes)
    witness = dict(assigned)
    report = vertex_sums(tree, witness)
    assert report.antimagic_ok and (not strong or report.strong_ok)
    return SearchResult("found", witness, nodes)
