"""Composition operators that grow a strongly antimagic labeling.

Three moves, each shifting old labels up and giving the new pendant edges
the smallest labels:

- extend_leaves: hang one new pendant edge off every leaf;
- attach_pendants_to_degree_class: same, but off every degree-k vertex;
- insert_unit_path: put one new unit path back on a double spider hub.

The instance-level reductions these moves undo (leaf-level deletion, unit
path removal) live here as well, and so do their batched inverses on a
double spider labeling (extend_leaf_levels, insert_unit_paths): a run of k
equal moves in one O(m) relabeling of the flat label list, left to the
caller to verify.  The double spider branches of the public moves are those
with k = 1, verified.
"""

from __future__ import annotations

from .labeling import EdgeLabeling, LabeledSpider, LabeledTree, labeled_spider, labeled_tree
from .spiders import (
    HUB_LEFT,
    HUB_RIGHT,
    CanonicalDoubleSpider,
    InvalidSpider,
    Parameters,
    PendantPath,
    derive_parameters,
    materialize_tree,
    pendant_paths,
)
from .trees import edge_key, make_tree


class CompositionError(ValueError):
    """Preconditions of a composition move do not hold."""


class ConstructionBug(RuntimeError):
    """A move that is guaranteed to preserve the strong property failed to."""


# ---------------------------------------------------------------------------
# Instance-level reductions
# ---------------------------------------------------------------------------


def delete_leaf_level(c: CanonicalDoubleSpider, levels: int = 1) -> CanonicalDoubleSpider:
    """Drop the leaves `levels` times, shortening each pendant path by that much."""
    _check_count(levels)
    if min(min(c.left_lengths), min(c.right_lengths)) <= levels:
        raise InvalidSpider("cannot delete the leaf level: a unit path would vanish")
    return CanonicalDoubleSpider(
        c.core_length,
        (l - levels for l in c.left_lengths),
        (l - levels for l in c.right_lengths),
    )


def _check_side(side: str) -> None:
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")


def _check_count(count: int) -> None:
    if count < 0:
        raise ValueError("a move count must be >= 0")


def remove_unit_path(c: CanonicalDoubleSpider, side: str, count: int = 1) -> CanonicalDoubleSpider:
    _check_side(side)
    _check_count(count)
    lengths = c.left_lengths if side == "left" else c.right_lengths
    if lengths[:count].count(1) < count:
        raise InvalidSpider(f"not enough unit paths on the {side} side")
    trimmed = lengths[count:]  # ascending, so the unit paths come first
    if side == "left":
        return CanonicalDoubleSpider(c.core_length, trimmed, c.right_lengths)
    return CanonicalDoubleSpider(c.core_length, c.left_lengths, trimmed)


def grow_all_paths(c: CanonicalDoubleSpider, levels: int = 1) -> CanonicalDoubleSpider:
    """Inverse of delete_leaf_level at the instance level."""
    _check_count(levels)
    return CanonicalDoubleSpider(
        c.core_length,
        (l + levels for l in c.left_lengths),
        (l + levels for l in c.right_lengths),
    )


def add_unit_path(c: CanonicalDoubleSpider, side: str, count: int = 1) -> CanonicalDoubleSpider:
    _check_side(side)
    _check_count(count)
    units = (1,) * count
    if side == "left":
        return CanonicalDoubleSpider(c.core_length, c.left_lengths + units, c.right_lengths)
    return CanonicalDoubleSpider(c.core_length, c.left_lengths, c.right_lengths + units)


# ---------------------------------------------------------------------------
# Batched relabeling of a double spider (no verification)
# ---------------------------------------------------------------------------


def _ranked_paths(p: Parameters) -> list[PendantPath]:
    """The pendant paths by hub, shortest first; a leaf extension keeps this order."""
    return sorted(pendant_paths(p), key=lambda path: (path[0], len(path[3])))


def extend_leaf_levels(
    c: CanonicalDoubleSpider, labeling: EdgeLabeling, k: int
) -> tuple[CanonicalDoubleSpider, EdgeLabeling]:
    """k leaf extensions at once, in O(m + n log n) for n leaves.

    An extension keeps the length order of the paths on each side and the
    order of the leaf sums (a new leaf's sum is its rank), so every old edge
    keeps its side, path rank and distance from the hub and gains k*n; the
    level-q new edge (q = 1 next to the old leaf) on the path whose old
    pendant label ranks r gets r + n*(k - q).
    """
    _check_count(k)
    grown = grow_all_paths(c, k)
    p, q = labeling.params, derive_parameters(grown)
    n = len(c.left_lengths) + len(c.right_lengths)
    old = [lab + k * n for lab in labeling.labels]
    before = {path: ids for path, (*_, ids) in zip(_ranked_paths(q), _ranked_paths(p))}
    rank = {lab: r for r, lab in enumerate(sorted(old[ids[-1]] for ids in before.values()), 1)}
    new = old[:p.s]
    for path in pendant_paths(q):
        ids = before[path]  # the path's edge ids before the extension
        new += old[ids.start:ids.stop]
        new += range(rank[old[ids[-1]]] + n * (k - 1), 0, -n)
    return grown, EdgeLabeling.flat(q, new)


def insert_unit_paths(
    c: CanonicalDoubleSpider, labeling: EdgeLabeling, side: str, k: int
) -> tuple[CanonicalDoubleSpider, EdgeLabeling]:
    """k unit-path insertions at one hub at once, in O(m).

    Every old label gains k and the q-th new unit gets k - q + 1.  On the
    left the new units take the last edge ids; on the right they sit after
    the old unit paths among the odd ones, so the longer odd paths move k
    indices (and edge ids) up.
    """
    _check_side(side)
    _check_count(k)
    p = labeling.params
    at = p.m if side == "left" else p.s + c.right_lengths.count(1)
    old = [lab + k for lab in labeling.labels]
    grown = add_unit_path(c, side, k)
    new = old[:at] + list(range(k, 0, -1)) + old[at:]
    return grown, EdgeLabeling.flat(derive_parameters(grown), new)


def _verified(grown: tuple[CanonicalDoubleSpider, EdgeLabeling], move: str) -> LabeledSpider:
    c, labeling = grown
    out = labeled_spider(materialize_tree(c), labeling)
    if not out.report.strong_ok:
        raise ConstructionBug(f"{move} broke the strong property")
    return out


# ---------------------------------------------------------------------------
# Leaf extension
# ---------------------------------------------------------------------------


def _fresh_id(base: str, taken: set[str]) -> str:
    vid = base + "+"
    while vid in taken:
        vid += "+"
    return vid


def extend_leaves(lt: LabeledTree | LabeledSpider) -> LabeledTree | LabeledSpider:
    """Attach one new pendant edge to every leaf (Lemma-1 style growth).

    New edges get 1..|V1| in ascending order of the old leaf sums; every old
    label shifts up by |V1|.  A double spider stays one; any other tree goes
    through attach_pendants_to_degree_class with k = 1.
    """
    if not isinstance(lt, LabeledSpider):
        return attach_pendants_to_degree_class(lt, 1)
    if not lt.report.strong_ok:
        raise CompositionError("input labeling is not strongly antimagic")
    return _verified(extend_leaf_levels(lt.spider.instance, lt.labeling, 1), "leaf extension")


def attach_pendants_to_degree_class(lt: LabeledTree | LabeledSpider, k: int) -> LabeledTree:
    """Attach one new pendant edge to every degree-k vertex.

    With k = 1 this is extend_leaves on a plain tree; the output is a plain
    labeled tree even when the input was a double spider, since the
    attachment usually leaves that family.
    """
    if not lt.report.strong_ok:
        raise CompositionError("input labeling is not strongly antimagic")
    targets = [v for v in lt.tree.vertices if lt.tree.degree(v) == k]
    if not targets:
        raise CompositionError(f"no vertices of degree {k}")

    n = len(targets)
    ranked = sorted(targets, key=lambda v: lt.report.sums[v])
    taken = set(lt.tree.vertices)
    new_vertices = list(lt.tree.vertices)
    new_edges = list(lt.tree.edges)
    labels = {e: lab + n for e, lab in lt.labels.items()}
    for rank, v in enumerate(ranked, start=1):
        mate = _fresh_id(v, taken)
        taken.add(mate)
        new_vertices.append(mate)
        e = edge_key(v, mate)
        new_edges.append(e)
        labels[e] = rank
    out = labeled_tree(make_tree(new_vertices, new_edges), labels)
    if not out.report.strong_ok:
        raise ConstructionBug("pendant attachment broke the strong property")
    return out


# ---------------------------------------------------------------------------
# Unit-path insertion at a hub
# ---------------------------------------------------------------------------


def insert_unit_path(lt: LabeledSpider, side: str) -> LabeledSpider:
    """Add a unit path at a hub: the new edge gets 1, everything shifts by 1.

    Right insertion needs the right hub to reach degree > 3 without passing
    the left one; left insertion needs the left hub, which never trails in
    degree on a canonical instance, to already carry the larger vertex sum.
    """
    _check_side(side)
    if not isinstance(lt, LabeledSpider):
        raise CompositionError("unit-path insertion needs a double spider instance")
    if not lt.report.strong_ok:
        raise CompositionError("input labeling is not strongly antimagic")

    p = lt.spider.params
    if side == "right":
        if p.deg_vl < p.deg_vr + 1:
            raise CompositionError("right insertion would push deg(vr) past deg(vl)")
    elif lt.report.sums[HUB_LEFT] <= lt.report.sums[HUB_RIGHT]:
        raise CompositionError("left insertion needs phi(vl) > phi(vr)")

    return _verified(insert_unit_paths(lt.spider.instance, lt.labeling, side, 1),
                     "unit-path insertion")
