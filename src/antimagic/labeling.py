"""Edge labelings, vertex sums, and the antimagic / strongly antimagic checks.

A labeling assigns the integers 1..m bijectively to the m edges of a tree.
The vertex sum at u is the sum of labels on edges incident to u.  A labeling
is antimagic when all vertex sums are pairwise distinct, and strongly
antimagic when additionally deg(u) < deg(v) implies sum(u) < sum(v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .spiders import EdgeAddress, SpiderTree
from .trees import Edge, Tree, edge_key


class LabelingError(ValueError):
    """A labeling is structurally unusable (wrong keys, missing edges, ...)."""


@dataclass(frozen=True)
class EdgeLabeling:
    """Address-keyed labeling of a double spider's edges."""

    total_edges: int
    assignment: dict[EdgeAddress, int]


@dataclass(frozen=True)
class SumViolation:
    """First offending vertex pair under the deterministic (degree, id) order."""

    vertex_a: str
    vertex_b: str
    sum_a: int
    sum_b: int
    degree_a: int
    degree_b: int
    reason: str  # "duplicate-sum" | "degree-order" | "bad-bijection"

    def describe(self) -> str:
        if self.reason == "bad-bijection":
            return "labels are not a bijection onto 1..m"
        return (
            f"{self.reason}: phi({self.vertex_a})={self.sum_a} (deg {self.degree_a}) vs "
            f"phi({self.vertex_b})={self.sum_b} (deg {self.degree_b})"
        )


@dataclass(frozen=True)
class VertexSumReport:
    sums: dict[str, int]
    degree_classes: dict[int, tuple[str, ...]]
    bijection_ok: bool
    antimagic_ok: bool
    strong_ok: bool
    violation: SumViolation | None


def _first_pair(
    order: list[str], sums: dict[str, int], degrees: dict[str, int]
) -> SumViolation | None:
    """The pair a pairwise scan over ``order`` reports first, in O(V) plus one tail.

    The scan takes each u in order and, within u, each later v in order; it
    stops at the first v with sum(v) == sum(u) ("duplicate-sum") or with
    deg(u) < deg(v) and sum(u) > sum(v) ("degree-order").  Whether u has such
    a v is an O(1) test: its sum recurs at a later position, or the least sum
    over the higher degree classes is below it.  Only the first u that passes
    the test has its tail scanned.
    """
    n = len(order)
    s = [sums[v] for v in order]
    last = {x: i for i, x in enumerate(s)}
    # above[i]: least sum over the degree classes after order[i]'s class
    above = [0] * n
    low = tail = math.inf
    for i in range(n - 1, -1, -1):
        if i + 1 < n and degrees[order[i]] != degrees[order[i + 1]]:
            low = tail
        above[i] = low
        tail = min(tail, s[i])
    for i, u in enumerate(order):
        su = s[i]
        if last[su] > i or above[i] < su:
            du = degrees[u]
            for v in order[i + 1:]:
                sv, dv = sums[v], degrees[v]
                if sv == su:
                    return SumViolation(u, v, su, sv, du, dv, "duplicate-sum")
                if du < dv and su > sv:
                    return SumViolation(u, v, su, sv, du, dv, "degree-order")
    return None


def vertex_sums(tree: Tree | SpiderTree, labeling) -> VertexSumReport:
    """Compute per-vertex label sums plus all property flags, in O(V log V).

    With the vertices ordered by (degree, id), a bijective labeling is
    strongly antimagic iff no u has a later v with an equal sum, or a later v
    of higher degree with a smaller sum; equivalently, iff sorting the
    vertices by (degree, sum) gives strictly increasing sums.  One linear
    pass over that order (``_first_pair``) decides it.  ``antimagic_ok`` is
    the all-sums-distinct test on its own.

    When the strong property fails, ``violation`` is the first pair of a
    pairwise scan over the vertices in (degree, id) order: the first u that
    has such a v, paired with the first such v.  A non-bijective labeling gets
    the "bad-bijection" violation and all flags False.

    A double spider (SpiderTree) takes its address-keyed EdgeLabeling and
    any other Tree an edge-keyed mapping; the spider's Tree is never built.
    Raises LabelingError when the labeled edge set differs from the tree's.
    """
    if isinstance(labeling, EdgeLabeling) != isinstance(tree, SpiderTree):
        raise LabelingError("an address-keyed labeling needs a materialized instance, "
                            "an edge-keyed one a Tree")
    if isinstance(tree, SpiderTree):
        if labeling.assignment.keys() != tree.edge_of.keys():
            raise LabelingError("labeling does not cover exactly the instance's edges")
        edges, m = tree.edge_of.values(), labeling.total_edges
        labels = list(map(labeling.assignment.__getitem__, tree.edge_of))
    else:
        labeling = {edge_key(u, v): lab for (u, v), lab in labeling.items()}
        if labeling.keys() != set(tree.edges):
            raise LabelingError("labeling does not cover exactly the tree's edges")
        edges, labels, m = labeling.keys(), labeling.values(), len(labeling)

    vertices = tree.vertices
    sums = dict.fromkeys(vertices, 0)
    degrees = dict.fromkeys(vertices, 0)
    for (u, v), lab in zip(edges, labels):
        sums[u] += lab
        sums[v] += lab
        degrees[u] += 1
        degrees[v] += 1

    bijection_ok = verify_bijection(labeling)
    if bijection_ok:
        assert sum(sums.values()) == m * (m + 1)

    order = sorted(vertices, key=lambda v: (degrees[v], v))
    classes: dict[int, list[str]] = {}
    for v in order:
        classes.setdefault(degrees[v], []).append(v)
    degree_classes = {k: tuple(vs) for k, vs in classes.items()}

    if bijection_ok:
        violation = _first_pair(order, sums, degrees)
        strong_ok = violation is None
        antimagic_ok = strong_ok or len(set(sums.values())) == len(sums)
    else:
        violation = SumViolation("", "", 0, 0, 0, 0, "bad-bijection")
        antimagic_ok = strong_ok = False

    return VertexSumReport(
        sums=sums,
        degree_classes=degree_classes,
        bijection_ok=bijection_ok,
        antimagic_ok=antimagic_ok,
        strong_ok=strong_ok,
        violation=violation,
    )


def first_duplicate(report: VertexSumReport) -> SumViolation | None:
    """The first "duplicate-sum" pair in (degree, id) order, or None if all sums differ.

    It is ``report.violation`` whenever that is a duplicate-sum pair.
    """
    order = [(v, k) for k, vs in report.degree_classes.items() for v in vs]
    s = [report.sums[v] for v, _ in order]
    last = {x: i for i, x in enumerate(s)}
    i = next((i for i, x in enumerate(s) if last[x] > i), None)
    if i is None:
        return None
    j = s.index(s[i], i + 1)
    (u, du), (v, dv) = order[i], order[j]
    return SumViolation(u, v, s[i], s[j], du, dv, "duplicate-sum")


def verify_bijection(labeling: EdgeLabeling | Mapping) -> bool:
    """True iff the labels are exactly {1..m} with no repeats."""
    if isinstance(labeling, EdgeLabeling):
        values, m = labeling.assignment.values(), labeling.total_edges
    else:
        values, m = labeling.values(), len(labeling)
    return sorted(values) == list(range(1, m + 1))


def verify_antimagic(tree: Tree | SpiderTree, labeling) -> bool:
    """True iff all vertex sums are pairwise distinct.

    Bijection failure is reported distinctly (LabelingError) rather than as
    a False result.
    """
    report = vertex_sums(tree, labeling)
    if not report.bijection_ok:
        raise LabelingError("labels are not a bijection onto 1..m")
    return report.antimagic_ok


# ---------------------------------------------------------------------------
# Labeled trees (construction and composition results)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabeledTree:
    """A plain tree with a verified edge-keyed labeling."""

    tree: Tree
    labels: dict[Edge, int]
    report: VertexSumReport

    @property
    def total_edges(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class LabeledSpider:
    """A double spider with a verified address-keyed labeling; tree and labels on first use."""

    spider: SpiderTree
    labeling: EdgeLabeling
    report: VertexSumReport

    @property
    def tree(self) -> Tree:
        return self.spider.tree

    @cached_property
    def labels(self) -> dict[Edge, int]:
        lab = self.labeling.assignment
        return {e: lab[a] for a, e in self.spider.edge_of.items()}

    @property
    def total_edges(self) -> int:
        return self.labeling.total_edges


def labeled_tree(tree: Tree, labels: Mapping[Edge, int]) -> LabeledTree:
    labels = {edge_key(u, v): lab for (u, v), lab in labels.items()}
    return LabeledTree(tree=tree, labels=labels, report=vertex_sums(tree, labels))


def labeled_spider(spider: SpiderTree, labeling: EdgeLabeling) -> LabeledSpider:
    return LabeledSpider(spider=spider, labeling=labeling, report=vertex_sums(spider, labeling))
