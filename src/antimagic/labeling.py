"""Edge labelings, vertex sums, and the antimagic / strongly antimagic checks.

A labeling assigns the integers 1..m bijectively to the m edges of a tree.
The vertex sum at u is the sum of labels on edges incident to u.  A labeling
is antimagic when all vertex sums are pairwise distinct, and strongly
antimagic when additionally deg(u) < deg(v) implies sum(u) < sum(v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import add
from typing import Callable, Mapping

from .spiders import (HUB_LEFT, HUB_RIGHT, EdgeAddress, Parameters, SpiderTree, edge_addresses,
                      pendant_paths, unit_runs)
from .trees import Edge, Tree, edge_key


class LabelingError(ValueError):
    """A labeling is structurally unusable (wrong keys, missing edges, ...)."""


class EdgeLabeling:
    """A double spider's edge count and address-keyed labels.

    One built ``flat`` has labels[e] for each edge id e of params' layout
    and builds its assignment on first use; any other has no params or labels.
    """

    params = labels = None

    def __init__(self, total_edges: int, assignment: dict[EdgeAddress, int]) -> None:
        self.total_edges, self.assignment = total_edges, assignment

    @classmethod
    def flat(cls, p: Parameters, labels: list[int]) -> EdgeLabeling:
        out = cls.__new__(cls)
        out.total_edges, out.params, out.labels = p.m, p, labels
        return out

    @cached_property
    def assignment(self) -> dict[EdgeAddress, int]:
        return dict(zip(edge_addresses(self.params), self.labels))

    def by_id(self, p: Parameters) -> list[int]:
        """The label of each edge id in p's layout; LabelingError unless it covers p's edges."""
        if self.params is p or self.params == p:
            return self.labels
        addresses = edge_addresses(p)
        if self.assignment.keys() != set(addresses):
            raise LabelingError("labeling does not cover exactly the instance's edges")
        return list(map(self.assignment.__getitem__, addresses))


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
    """The flags and the first violation; sums and degree classes from ``named`` on first read."""

    bijection_ok: bool
    antimagic_ok: bool
    strong_ok: bool
    violation: SumViolation | None
    named: Callable[[], tuple[dict[str, int], dict[str, int]]] = field(repr=False, compare=False)

    @cached_property
    def _tables(self) -> tuple[dict[str, int], dict[str, int]]:
        return self.named()

    @property
    def sums(self) -> dict[str, int]:
        return self._tables[0]

    @cached_property
    def degree_classes(self) -> dict[int, tuple[str, ...]]:
        degrees = self._tables[1]
        order = sorted(degrees, key=lambda v: (degrees[v], v))
        return {k: tuple(vs) for k, vs in groupby(order, key=degrees.__getitem__)}


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


def _named_sums(vertices, edges, labels) -> tuple[dict[str, int], dict[str, int]]:
    """The sum and the degree of each vertex id."""
    sums, degrees = dict.fromkeys(vertices, 0), dict.fromkeys(vertices, 0)
    for (u, v), lab in zip(edges, labels):
        sums[u] += lab
        sums[v] += lab
        degrees[u] += 1
        degrees[v] += 1
    return sums, degrees


def _named_report(sums: dict[str, int], degrees: dict[str, int], bijection_ok: bool) -> VertexSumReport:
    """The report of named sums; a failure names the first pair in (degree, id) order."""
    if not bijection_ok:
        return VertexSumReport(False, False, False, SumViolation("", "", 0, 0, 0, 0, "bad-bijection"),
                               lambda: (sums, degrees))
    assert sum(sums.values()) == len(sums) * (len(sums) - 1)  # twice 1 + ... + m, as V = m + 1
    violation = _first_pair(sorted(sums, key=lambda v: (degrees[v], v)), sums, degrees)
    strong_ok = violation is None
    antimagic_ok = strong_ok or len(set(sums.values())) == len(sums)
    return VertexSumReport(True, antimagic_ok, strong_ok, violation, lambda: (sums, degrees))


def _strong_by_class(p: Parameters, lab: list[int]) -> bool:
    """Whether a bijective labeling of p's layout is strong, read off the path spans.

    Inner sums add neighbouring edge ids along the core and each path, a leaf
    has its path's last edge, a hub its core end plus its paths' first edges.
    A side's unit paths are one run of ids: its labels are leaf sums, and
    their sum goes to the hub.  Each degree class must have distinct sums,
    all above the class before.
    """
    paths = pendant_paths(p, units=False)
    right, left = (lab[run.start:run.stop] for run in unit_runs(p))
    inner = list(map(add, lab[:p.s - 1], lab[1:p.s]))
    hubs = {HUB_LEFT: lab[0] + sum(left), HUB_RIGHT: lab[p.s - 1] + sum(right)}
    for hub, _, _, ids in paths:
        inner += map(add, lab[ids.start:ids.stop - 1], lab[ids.start + 1:ids.stop])
        hubs[hub] += lab[ids.start]
    vl, vr = hubs[HUB_LEFT], hubs[HUB_RIGHT]
    classes = [right + left + [lab[ids[-1]] for *_, ids in paths], inner]
    classes += [[vr, vl]] if p.deg_vl == p.deg_vr else [[vr], [vl]]
    top = 0
    for sums in classes:
        if sums:
            if min(sums) <= top or len(set(sums)) < len(sums):
                return False
            top = max(sums)
    return True


def vertex_sums(tree: Tree | SpiderTree, labeling) -> VertexSumReport:
    """Decide the bijection, antimagic and strong properties of a labeling.

    With the vertices ordered by (degree, id), a bijective labeling is
    strongly antimagic iff no u has a later v with an equal sum, or a later v
    of higher degree with a smaller sum; equivalently, iff sorting the
    vertices by (degree, sum) gives strictly increasing sums.  One linear
    pass over that order (``_first_pair``) decides it, in O(V log V).
    ``antimagic_ok`` is the all-sums-distinct test on its own.

    When the strong property fails, ``violation`` is the first pair of a
    pairwise scan over the vertices in (degree, id) order: the first u that
    has such a v, paired with the first such v.  A non-bijective labeling gets
    the "bad-bijection" violation and all flags False.

    A double spider (SpiderTree) takes an EdgeLabeling, checked by edge id
    (``_strong_by_class``); its vertex ids are named only on a failure or
    when the report's sums are read.  Any other Tree takes an edge-keyed
    mapping.  Raises LabelingError when the labeled edges differ from the tree's.
    """
    if isinstance(labeling, EdgeLabeling) != isinstance(tree, SpiderTree):
        raise LabelingError("an address-keyed labeling needs a materialized instance, "
                            "an edge-keyed one a Tree")
    if isinstance(tree, SpiderTree):
        labels = labeling.by_id(tree.params)
        named = lambda: _named_sums(tree.vertices, tree.edges, labels)  # noqa: E731
        bijection_ok = verify_bijection(labeling)
        if bijection_ok and _strong_by_class(tree.params, labels):
            return VertexSumReport(True, True, True, None, named)
        return _named_report(*named(), bijection_ok)
    labeling = {edge_key(u, v): lab for (u, v), lab in labeling.items()}
    if labeling.keys() != set(tree.edges):
        raise LabelingError("labeling does not cover exactly the tree's edges")
    return _named_report(*_named_sums(tree.vertices, labeling.keys(), labeling.values()),
                         verify_bijection(labeling))


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
        values = labeling.assignment.values() if labeling.labels is None else labeling.labels
        m = labeling.total_edges
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
    """A double spider with a verified labeling; tree and edge-keyed labels on first use."""

    spider: SpiderTree
    labeling: EdgeLabeling
    report: VertexSumReport

    @property
    def tree(self) -> Tree:
        return self.spider.tree

    @cached_property
    def labels(self) -> dict[Edge, int]:
        return dict(zip(self.spider.edges, self.labeling.by_id(self.spider.params)))

    @property
    def total_edges(self) -> int:
        return self.labeling.total_edges


def labeled_tree(tree: Tree, labels: Mapping[Edge, int]) -> LabeledTree:
    labels = {edge_key(u, v): lab for (u, v), lab in labels.items()}
    return LabeledTree(tree=tree, labels=labels, report=vertex_sums(tree, labels))


def labeled_spider(spider: SpiderTree, labeling: EdgeLabeling) -> LabeledSpider:
    return LabeledSpider(spider=spider, labeling=labeling, report=vertex_sums(spider, labeling))
