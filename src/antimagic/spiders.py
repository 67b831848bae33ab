"""Double spider instances and their structural machinery.

A double spider is a tree with exactly two vertices of degree >= 3 (the hubs
vl and vr), joined by a core path of length s, with a multiset of pendant
paths hanging off each hub.  This module owns validation, the canonical
orientation, the parity split of each side (Parameters), edge addressing, the
edge layout (edge ids 0..m-1, defined once, in pendant_paths), tree
materialization, case classification, and exhaustive enumeration by edge
budget.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple

from .trees import Edge, Tree, edge_key, make_tree


class InvalidSpider(ValueError):
    """The given data does not describe a double spider."""


@dataclass(frozen=True)
class DoubleSpiderSpec:
    """Raw instance: core length plus the two pendant-path length multisets."""

    core_length: int
    left_lengths: tuple[int, ...]
    right_lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        left = tuple(sorted(map(int, self.left_lengths)))
        right = tuple(sorted(map(int, self.right_lengths)))
        object.__setattr__(self, "left_lengths", left)
        object.__setattr__(self, "right_lengths", right)
        if self.core_length < 1:
            raise InvalidSpider("core length must be >= 1")
        for side, lengths in (("left", left), ("right", right)):
            if len(lengths) < 2:
                raise InvalidSpider(f"{side} side needs at least 2 paths (hub degree >= 3)")
            if lengths[0] < 1:  # the shortest, as the lengths are sorted
                raise InvalidSpider(f"{side} side has a non-positive path length")

    @property
    def total_edges(self) -> int:
        return self.core_length + sum(self.left_lengths) + sum(self.right_lengths)


@dataclass(frozen=True)
class CanonicalDoubleSpider(DoubleSpiderSpec):
    """Oriented instance: the left hub carries at least as many paths.

    Lengths are stored ascending on both sides.  Instances coming out of
    canonicalize() and enumerate_instances() additionally satisfy the
    equal-count tie-break (the side holding more copies of the globally
    minimum path length is the right one, remaining ties to the side with
    the lexicographically smaller length sequence); composition moves may
    legitimately build equal-count instances in their construction order.
    """

    swapped: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.left_lengths) < len(self.right_lengths):
            raise InvalidSpider("the left hub must carry at least as many paths")

    @property
    def text(self) -> str:
        """`core=<s> left=<lengths> right=<lengths>`, as traces and sweep reports name it."""
        left = ",".join(map(str, self.left_lengths))
        right = ",".join(map(str, self.right_lengths))
        return f"core={self.core_length} left={left} right={right}"


def _oriented_ok(left: tuple[int, ...], right: tuple[int, ...]) -> bool:
    if len(left) != len(right):
        return len(left) > len(right)
    gmin = min(left[0], right[0])
    copies_l, copies_r = left.count(gmin), right.count(gmin)
    if copies_l != copies_r:
        return copies_r > copies_l
    return right <= left


def canonicalize(spec: DoubleSpiderSpec) -> CanonicalDoubleSpider:
    """Apply the orientation rule; idempotent on already-canonical instances."""
    if isinstance(spec, CanonicalDoubleSpider):
        return spec
    left, right = spec.left_lengths, spec.right_lengths
    if _oriented_ok(left, right):
        return CanonicalDoubleSpider(spec.core_length, left, right, swapped=False)
    return CanonicalDoubleSpider(spec.core_length, right, left, swapped=True)


# ---------------------------------------------------------------------------
# Derived parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Parameters:
    """Counting parameters of a canonical instance: each side split by parity.

    Right side: a odd paths of lengths 2x_i+1 and b even paths of lengths
    2y_i.  Left side: c odd paths of lengths 2w_i+1 with w_i >= 1, d even
    paths of lengths 2z_i, and t unit paths.
    """

    a: int
    b: int
    c: int
    d: int
    t: int
    s: int
    x: tuple[int, ...]
    y: tuple[int, ...]
    w: tuple[int, ...]
    z: tuple[int, ...]
    m: int
    deg_vl: int
    deg_vr: int


def derive_parameters(c: CanonicalDoubleSpider) -> Parameters:
    """Split both sides into parity classes and count the edges and hub degrees."""
    # the lengths ascend, so each side's unit paths lead it and are counted, not walked
    units, t = c.right_lengths.count(1), c.left_lengths.count(1)
    right, left = c.right_lengths[units:], c.left_lengths[t:]
    x = (0,) * units + tuple((l - 1) // 2 for l in right if l % 2 == 1)
    y = tuple(l // 2 for l in right if l % 2 == 0)
    w = tuple((l - 1) // 2 for l in left if l % 2 == 1)
    z = tuple(l // 2 for l in left if l % 2 == 0)
    s = c.core_length
    p = Parameters(
        a=len(x), b=len(y), c=len(w), d=len(z), t=t, s=s,
        x=x, y=y, w=w, z=z,
        m=c.total_edges,
        deg_vl=len(c.left_lengths) + 1,
        deg_vr=len(c.right_lengths) + 1,
    )
    assert all(wi >= 1 for wi in w)
    assert p.m == s + 2 * sum(x) + p.a + 2 * sum(y) + 2 * sum(w) + p.c + 2 * sum(z) + t
    return p


# ---------------------------------------------------------------------------
# Edge addressing
# ---------------------------------------------------------------------------

KIND_CORE, KIND_R_ODD, KIND_R_EVEN, KIND_L_ODD, KIND_L_EVEN, KIND_L_UNIT = range(6)
KIND_NAMES = ("core", "R/odd", "R/even", "L/odd", "L/even", "L/unit")


class EdgeAddress(NamedTuple):
    """Position of an edge in a canonical instance; tuples sort in labeling-file order.

    kind is the class rank, core first.  Core edges carry only j (1..s).
    Path edges carry the path index i within their parity class and the
    position j along the path; on right paths j grows away from vr (the
    pendant edge has maximal j), on left paths the pendant edge has j = 1.
    Unit left paths carry only i.
    """

    kind: int
    i: int = 0
    j: int = 0

    @staticmethod
    def core(j: int) -> "EdgeAddress":
        return EdgeAddress(KIND_CORE, 0, j)

    @staticmethod
    def r_odd(i: int, j: int) -> "EdgeAddress":
        return EdgeAddress(KIND_R_ODD, i, j)

    @staticmethod
    def r_even(i: int, j: int) -> "EdgeAddress":
        return EdgeAddress(KIND_R_EVEN, i, j)

    @staticmethod
    def l_odd(i: int, j: int) -> "EdgeAddress":
        return EdgeAddress(KIND_L_ODD, i, j)

    @staticmethod
    def l_even(i: int, j: int) -> "EdgeAddress":
        return EdgeAddress(KIND_L_EVEN, i, j)

    @staticmethod
    def l_unit(i: int) -> "EdgeAddress":
        return EdgeAddress(KIND_L_UNIT, i, 0)

    @property
    def text(self) -> str:
        return _address_text(*self)

    def __str__(self) -> str:
        return self.text


def _address_text(kind: int, i: int, j: int) -> str:
    if kind == KIND_CORE:
        return f"core/{j}"
    if kind == KIND_L_UNIT:
        return f"L/unit/{i}"
    return f"{KIND_NAMES[kind]}/{i}/{j}"


def parse_address(text: str) -> EdgeAddress:
    """Parse the `core/<j>`, `R/odd/<i>/<j>`, ..., `L/unit/<i>` grammar."""
    parts = [p.strip() for p in text.strip().split("/")]
    try:
        if parts[0] == "core" and len(parts) == 2:
            return EdgeAddress.core(int(parts[1]))
        kind = "/".join(parts[:2])
        if kind == "L/unit" and len(parts) == 3:
            return EdgeAddress.l_unit(int(parts[2]))
        if kind in KIND_NAMES[KIND_R_ODD:KIND_L_UNIT] and len(parts) == 4:
            return EdgeAddress(KIND_NAMES.index(kind), int(parts[2]), int(parts[3]))
    except ValueError:
        pass
    raise ValueError(f"bad edge address: {text!r}")


HUB_LEFT = "vl"
HUB_RIGHT = "vr"


PendantPath = tuple[str, int, int, range]  # hub, class, index i, edge ids from the hub outward


def pendant_paths(p: Parameters, units: bool = True) -> list[PendantPath]:
    """Every pendant path, with its edge ids: the one edge layout.

    The core takes the edge ids 0..s-1 (core/1..core/s); then each path in
    turn takes the next ids, from its hub outward.  Paths come class by
    class (R/odd, R/even, L/odd, L/even, L/unit) and, in a class, by index
    i, in the ascending order of the parity split.  On right paths j grows
    from the hub; on left paths it falls to the pendant edge's j = 1.

    The unit paths (half-length 0) lead their class, and only the first
    class and the last hold any, so each side's unit paths take one run of
    ids: unit_runs(p).  With units False they are left out.
    """
    classes = (
        (HUB_RIGHT, KIND_R_ODD, 1, p.x),
        (HUB_RIGHT, KIND_R_EVEN, 0, p.y),
        (HUB_LEFT, KIND_L_ODD, 1, p.w),
        (HUB_LEFT, KIND_L_EVEN, 0, p.z),
        (HUB_LEFT, KIND_L_UNIT, 1, (0,) * p.t),
    )
    out, start = [], p.s
    for hub, kind, odd, halves in classes:
        skip = 0 if units else halves.count(0)
        start += skip
        for i, h in enumerate(halves[skip:], start=skip + 1):
            out.append((hub, kind, i, range(start, start + 2 * h + odd)))
            start += 2 * h + odd
    return out


def unit_runs(p: Parameters) -> tuple[range, range]:
    """The edge ids of the right unit paths (R/odd/1..) and of the left ones (L/unit/1..).

    In pendant_paths' order these are the ids just after the core and the last t ids.
    """
    return range(p.s, p.s + p.x.count(0)), range(p.m - p.t, p.m)


def address_rows(p: Parameters, units: bool = True) -> list[list[range]]:
    """The edge ids in address order: rows[kind] lists each path's ids by ascending j.

    The core is the one row of its kind; left rows are reversed paths.  With
    units False the unit paths have no rows (see unit_runs).
    """
    rows: list[list[range]] = [[range(p.s)]] + [[] for _ in KIND_NAMES[1:]]
    for hub, kind, _, ids in pendant_paths(p, units):
        rows[kind].append(ids if hub == HUB_RIGHT else ids[::-1])
    return rows


def _js(hub: str, kind: int, ids: range) -> range:
    """The position j of each edge of a path, from the hub outward (0 on a unit path)."""
    if kind == KIND_L_UNIT:
        return range(1)
    return range(1, len(ids) + 1) if hub == HUB_RIGHT else range(len(ids), 0, -1)


def edge_addresses(p: Parameters) -> list[EdgeAddress]:
    """The address of every edge, by edge id."""
    out = [EdgeAddress.core(j) for j in range(1, p.s + 1)]
    for hub, kind, i, ids in pendant_paths(p):
        out += [EdgeAddress(kind, i, j) for j in _js(hub, kind, ids)]
    return out


# ---------------------------------------------------------------------------
# Materialization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpiderTree:
    """An instance and its parameters; vertex ids, edges, address -> edge map and Tree on first use."""

    instance: CanonicalDoubleSpider
    params: Parameters

    @cached_property
    def _named(self) -> tuple[tuple[str, ...], list[Edge]]:
        # core/2..core/s name the core's inner vertices; every other vertex
        # is named by the address of the path edge that reaches it from its hub
        p = self.params
        vertices = [HUB_LEFT] + [f"core/{i}" for i in range(2, p.s + 1)] + [HUB_RIGHT]
        edges = [edge_key(u, v) for u, v in zip(vertices, vertices[1:])]
        for hub, kind, i, ids in pendant_paths(p):
            near = hub
            for j in _js(hub, kind, ids):
                far = _address_text(kind, i, j)
                vertices.append(far)
                edges.append(edge_key(near, far))
                near = far
        return tuple(vertices), edges

    vertices = property(lambda self: self._named[0])
    edges = property(lambda self: self._named[1])  # each edge's endpoints, by edge id

    @cached_property
    def edge_of(self) -> dict[EdgeAddress, Edge]:
        return dict(zip(edge_addresses(self.params), self.edges))

    @cached_property
    def tree(self) -> Tree:
        tree = make_tree(self.vertices, self.edges)
        p = self.params
        assert tree.degree(HUB_LEFT) == p.deg_vl and tree.degree(HUB_RIGHT) == p.deg_vr
        assert sorted(v for v in tree.vertices if tree.degree(v) >= 3) == sorted([HUB_LEFT, HUB_RIGHT])
        return tree


def materialize_tree(c: CanonicalDoubleSpider) -> SpiderTree:
    """The instance c with its parameters, which fix its edge layout."""
    return SpiderTree(instance=c, params=derive_parameters(c))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


class CaseTag(Enum):
    EQUAL_DEG3 = "equal-deg3"
    EQUAL_DEG_HIGH = "equal-deg-high"
    UNEQUAL_ALL_UNIT_RIGHT = "unequal-all-unit-right"
    UNEQUAL_ODD_RIGHT = "unequal-odd-right"
    UNEQUAL_EVEN_RIGHT = "unequal-even-right"


def classify(p: Parameters) -> CaseTag:
    """Route an instance to the labeling lemma that covers it."""
    if p.deg_vl == p.deg_vr:
        return CaseTag.EQUAL_DEG3 if p.deg_vl == 3 else CaseTag.EQUAL_DEG_HIGH
    if p.b >= 1:
        return CaseTag.UNEQUAL_EVEN_RIGHT
    if max(p.x, default=0) >= 1:
        return CaseTag.UNEQUAL_ODD_RIGHT
    return CaseTag.UNEQUAL_ALL_UNIT_RIGHT


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

MIN_EDGES = 5  # core 1 plus four unit paths


@lru_cache(maxsize=None)
def _ascending_partitions(total: int, min_part: int = 1) -> tuple[tuple[int, ...], ...]:
    if total == 0:
        return ((),)
    out = []
    for first in range(min_part, total + 1):
        for rest in _ascending_partitions(total - first, first):
            out.append((first,) + rest)
    return tuple(out)


def enumerate_instances(max_edges: int) -> Iterator[CanonicalDoubleSpider]:
    """Yield every canonical double spider with at most max_edges edges.

    Order: ascending edge count, then lexicographic on (core length, right
    lengths, left lengths).  Each unlabeled-tree isomorphism class appears
    exactly once.  The order comes by construction: each sum's partitions
    are already lexicographic, so merging them orders the right sides.
    """
    for m in range(MIN_EDGES, max_edges + 1):
        for s in range(1, m - 3):
            for right in heapq.merge(*map(_ascending_partitions, range(2, m - s - 1))):
                if len(right) < 2:
                    continue
                for left in _ascending_partitions(m - s - sum(right)):
                    if _oriented_ok(left, right):
                        yield CanonicalDoubleSpider(s, left, right)
