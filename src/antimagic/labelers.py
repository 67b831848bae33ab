"""Step-by-step constructive labelers for the four double spider cases.

Each labeler walks a fixed sequence of steps, assigning 1..m to edge ids;
steps whose slices are empty are skipped.  A step takes every other edge, or
one end edge, of some path rows, or a slice of a unit run: ranges of edge ids
from the layout in spiders.pendant_paths.  Every step takes the next block of
labels, those just above the earlier steps' labels, rising or falling in the
order it emits its edges; only the even-right labeler's Step 1, which
interleaves 2i - 1 and 2i, places its two strided blocks itself.  Each
labeler has one entry point, its ``*_steps`` function, which returns Steps:
the flat list of labels by edge id, and the blocks that placed them.  The
driver reads the list; iterating the Steps expands the blocks into
StepEvents, so callers can audit exactly which step placed which label.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .labeling import EdgeLabeling, LabeledSpider, labeled_spider
from .spiders import (
    CanonicalDoubleSpider,
    EdgeAddress,
    Parameters,
    address_rows,
    derive_parameters,
    edge_addresses,
    materialize_tree,
    unit_runs,
)

# The one instance whose shape fits the two-path right-hub rules but whose
# step execution ties the hub sums; it gets a fixed hand-built labeling.
SPECIAL_INSTANCE = CanonicalDoubleSpider(2, (1, 3), (1, 1))
_SPECIAL_PARAMETERS = derive_parameters(SPECIAL_INSTANCE)


class UnsupportedCase(ValueError):
    """The instance does not satisfy the labeler's entry conditions."""


class StepEvent(NamedTuple):
    step: int
    address: EdgeAddress
    label: int

    def line(self) -> str:
        return f"step={self.step} edge={self.address.text} label={self.label}"


class Steps:
    """A labeler's output: labels[e] for each edge id e and the blocks (step,
    edge ids, first label, stride) that placed them; iterating expands the
    blocks into StepEvents."""

    def __init__(self, p: Parameters) -> None:
        self.params, self.labels, self.blocks = p, [0] * p.m, []
        self.done = 0  # the labels placed so far are 1..done

    def place(self, step: int, edges: Sequence[int], first: int, stride: int = 1) -> None:
        n, labels = len(edges), self.labels
        self.blocks.append((step, edges, first, stride))
        for e, label in zip(edges, range(first, first + stride * n, stride)):
            labels[e] = label
        self.done += n

    def __iter__(self) -> Iterator[StepEvent]:
        addresses = edge_addresses(self.params)
        for step, edges, first, stride in self.blocks:
            yield from (StepEvent(step, addresses[e], first + k * stride) for k, e in enumerate(edges))


def _paths(p: Parameters) -> list:
    """[core, r_odd, r_even, l_odd, l_even, right, left]: the core row and long path
    rows of spiders.address_rows, then the right and left runs of spiders.unit_runs."""
    core, r_odd, r_even, l_odd, l_even, _ = address_rows(p)
    return [core[0], r_odd, r_even, l_odd, l_even, *unit_runs(p)]


def _every_other(rows: list[range], start: int, stop: int | None = None) -> list[int]:
    """Every other edge id of each row's [start:stop] slice, row by row."""
    return [a for row in rows for a in row[start:stop:2]]


# ---------------------------------------------------------------------------
# Steps shared by the labelers.  Each gives its edges the next block of
# labels through _next_block, rising or falling in the order it emits them;
# the caller supplies only the step number.  The core steps carry the parity
# rule of the core row.
# ---------------------------------------------------------------------------


def _next_block(ev: Steps, step: int, edges: Sequence[int], falling: bool = False) -> None:
    """Label the edges with the len(edges) labels after those placed so far."""
    if falling:
        ev.place(step, edges, ev.done + len(edges), -1)
    else:
        ev.place(step, edges, ev.done + 1)


def _inner_core(ev: Steps, step: int, core: range) -> None:
    """The core edges other than the three or four at its ends; none for s < 4."""
    if len(core) % 2 == 0:
        _next_block(ev, step, core[1:-2:2], falling=True)
    else:
        _next_block(ev, step, core[2:-2:2])


def _core_sweep(ev: Steps, step: int, core: range) -> None:
    """Odd core edges from vr inwards (even s), or even ones outwards (odd s)."""
    if len(core) % 2 == 0:
        _next_block(ev, step, core[0::2], falling=True)
    else:
        _next_block(ev, step, core[1::2])


def _last_core(ev: Steps, step: int, core: range) -> None:
    """core/s gets m; an odd core with s >= 3 also gives core/1 m - 1."""
    s = len(core)
    if s % 2 == 1 and s > 1:
        _next_block(ev, step, [core[0], core[-1]])
    else:
        _next_block(ev, step, [core[-1]])


# ---------------------------------------------------------------------------
# Type (a): both hubs of degree 3, four unit paths around the core
# ---------------------------------------------------------------------------


def is_type_a(p: Parameters) -> bool:
    """Two unit paths on each side and nothing else."""
    return p.a == 2 and p.b == 0 and p.x == (0, 0) and p.t == 2 and p.c == 0 and p.d == 0


def type_a_steps(p: Parameters) -> Steps:
    """Closed-form labeling for the two-units-per-side case."""
    if not is_type_a(p):
        raise UnsupportedCase("type (a) needs two unit paths on each side and nothing else")
    core, _, _, _, _, right, left = _paths(p)
    odd = p.s % 2 == 1
    ev = Steps(p)
    _next_block(ev, 1, core[1::2], falling=odd)
    _next_block(ev, 2, right if odd else left)
    _next_block(ev, 3, left if odd else right)
    _next_block(ev, 4, core[0::2], falling=odd)
    return ev


# ---------------------------------------------------------------------------
# Types (b)/(c): deg(vr) = 3, right side is {P1, Pk}
# ---------------------------------------------------------------------------


def _type_bc_entry(p: Parameters) -> bool:
    """Check the entry conditions of the eleven-step labeler; return t', which
    switches the Step-5 ordering.  The printed rule's clause k >= 2 (k the
    length of the right path other than the unit) is implied: with t = 1,
    deg(vl) = 3 and c = 1 leave d = 0, so s = 2, w_1 = 1 and k = 1 make the
    special instance, rejected here."""
    if p.deg_vr != 3 or p.a < 1 or p.x[0] != 0:
        raise UnsupportedCase("types (b)/(c) need a degree-3 right hub with a unit path")
    if p.t > 1:
        raise UnsupportedCase("types (b)/(c) allow at most one unit path on the left")
    if p.t == 1 and p.deg_vl != 3:
        raise UnsupportedCase("a left unit path is only allowed when both hubs have degree 3")
    if p == _SPECIAL_PARAMETERS:
        raise UnsupportedCase("this is the special instance with its own fixed labeling")
    return p.t == 1 and (p.d == 1 or (p.s == 2 and p.c == 1 and p.w[0] == 1))


def type_bc_steps(p: Parameters) -> Steps:
    t_prime = _type_bc_entry(p)
    core, r_odd, r_even, l_odd, l_even, right, units = _paths(p)
    pk = (r_even or r_odd or [right[1:]])[0]  # the right path other than the unit
    # With k = len(Pk), the entry checks leave slack in the step bookkeeping:
    # deg(vl) >= 3 gives c + d + t >= 2, so k//2 + c - [c >= 1] + sum(z) + t >= 1;
    # and t' = 1 needs d = 1 or k >= 2, so then k//2 + sum(z) >= 1.
    ev = Steps(p)

    # Step 1: even edges of Pk.
    _next_block(ev, 1, pk[1::2], falling=True)

    # Step 2: odd edges of long odd left paths; the first path's hub edge waits.
    _next_block(ev, 2, _every_other(l_odd[:1], 0, -1) + _every_other(l_odd[1:], 0))

    # Step 3: inner core edges.
    _inner_core(ev, 3, core)

    # Step 4: odd edges of even left paths.
    _next_block(ev, 4, _every_other(l_even, 0))

    # Step 5: the right unit edge and the left unit edge, order set by t'.
    if t_prime:
        _next_block(ev, 5, [right[0], *units])
    else:
        _next_block(ev, 5, [*units, right[0]])

    # Step 6: odd edges of Pk.
    _next_block(ev, 6, pk[0::2], falling=True)

    # Step 7: even edges of long odd left paths.
    _next_block(ev, 7, _every_other(l_odd, 1))

    # Step 8: main core sweep.
    _core_sweep(ev, 8, core)

    # Step 9: even edges of even left paths.
    _next_block(ev, 9, _every_other(l_even, 1))

    # Step 10: the deferred hub edge of the first long odd left path.
    _next_block(ev, 10, [row[-1] for row in l_odd[:1]])

    # Step 11: remaining core edges.
    _last_core(ev, 11, core)
    return ev


# ---------------------------------------------------------------------------
# The fixed special instance (core 2, left {3,1}, right {1,1})
# ---------------------------------------------------------------------------

SPECIAL_INSTANCE_ASSIGNMENT = {
    EdgeAddress.l_odd(1, 3): 7,
    EdgeAddress.l_odd(1, 2): 2,
    EdgeAddress.l_odd(1, 1): 6,
    EdgeAddress.l_unit(1): 5,
    EdgeAddress.core(1): 3,
    EdgeAddress.core(2): 8,
    EdgeAddress.r_odd(1, 1): 1,
    EdgeAddress.r_odd(2, 1): 4,
}


def special_instance_steps() -> Steps:
    """The hand-built labeling as one Step-1 block: the edges in label order."""
    ev, addresses = Steps(_SPECIAL_PARAMETERS), edge_addresses(_SPECIAL_PARAMETERS)
    ev.place(1, sorted(range(8), key=lambda e: SPECIAL_INSTANCE_ASSIGNMENT[addresses[e]]), 1)
    return ev


def special_instance_labeling() -> LabeledSpider:
    """The hand-built labeling of the one instance the step rules cannot handle."""
    spider = materialize_tree(SPECIAL_INSTANCE)
    lt = labeled_spider(spider, EdgeLabeling.flat(spider.params, special_instance_steps().labels))
    assert lt.report.strong_ok
    return lt


# ---------------------------------------------------------------------------
# Odd-right case: deg(vl) > deg(vr), no even right paths, some long odd one
# ---------------------------------------------------------------------------


def _check_odd_right(p: Parameters) -> None:
    if not (p.deg_vl > p.deg_vr >= 3 and p.b == 0 and p.a >= 2 and p.x[-1] >= 1):
        raise UnsupportedCase("odd-right labeler needs b = 0 and a long odd right path")


def odd_right_steps(p: Parameters) -> Steps:
    _check_odd_right(p)
    core, r_odd, _, l_odd, l_even, right, units = _paths(p)
    top = r_odd[-1]
    ev = Steps(p)

    # Step 1: odd edges of odd right paths; the top path's hub edge waits.
    _next_block(ev, 1, [*right, *_every_other(r_odd[:-1], 0), *top[2::2]])

    # Step 2: odd edges of long odd left paths; hub edges wait for Step 11.
    _next_block(ev, 2, _every_other(l_odd, 0, -1))

    # Step 3: inner core edges.
    _inner_core(ev, 3, core)

    # Step 4: odd edges of even left paths.
    _next_block(ev, 4, _every_other(l_even, 0))

    # Step 5: unit left paths; afterwards every pendant edge is labeled.
    _next_block(ev, 5, units)

    # Step 6: even edges of odd right paths.
    _next_block(ev, 6, _every_other(r_odd, 1))

    # Step 7: even edges of long odd left paths.
    _next_block(ev, 7, _every_other(l_odd, 1))

    # Step 8: main core sweep.
    _core_sweep(ev, 8, core)

    # Step 9: even edges of even left paths.
    _next_block(ev, 9, _every_other(l_even, 1))

    # Step 10: the deferred hub edge on the right, pushing phi(vr) up.
    _next_block(ev, 10, top[:1])

    # Step 11: the deferred hub edges on the left, pushing phi(vl) higher.
    _next_block(ev, 11, [row[-1] for row in l_odd])

    # Step 12: remaining core edges.
    _last_core(ev, 12, core)
    return ev


# ---------------------------------------------------------------------------
# Even-right case: deg(vl) > deg(vr), at least one even right path
# ---------------------------------------------------------------------------
#
# One narrow family needs a repair: three unit paths on the left, exactly
# two even right paths of lengths 2u <= 2v with u >= 2, and an even core s.
# The printed step order assumes a length-2 right path exists; with none it
# ties the hub sums, vl = vr.  Write h = s/2, w = u+v+h-1, m = 2u+2v+s+3.
# From vr outwards the switched path R/even/1 carries w, m-1, w+4, 1, w+5,
# 2, ..., u-1, and the leaf sums are u-1, w-1, w+1, w+2, w+3.  The degree-2
# sums lie in increasing runs [w+5, w+2u+1] (R/even/1), [m+w-2v-s,
# m+w-2v-3] (core), [m+w-2v-1, m+w-3] (R/even/2), then m+w-1, m+w+3 and
# 2m-v-h-1 (the core vertex next to vr), so they are distinct.
#
# The repair reverses the labels along R/even/1.  That permutes the sums of
# its inner vertices among themselves, so exactly two sums move:
#   - its leaf gets w, so the leaf sums become w-1..w+3, below w+5;
#   - vr drops by w-(u-1) = v+h to 2m+u-v-2, which is v+h below vl and
#     u+h-1 >= 2 above the largest degree-2 sum.
# The same rule covers s = 2.


def _check_even_right(p: Parameters) -> None:
    if not (p.deg_vl > p.deg_vr >= 3 and p.b >= 1):
        raise UnsupportedCase("even-right labeler needs an even path on the right")


def needs_hub_gap_repair(p: Parameters) -> bool:
    """True for the family whose printed step order ties the hub sums."""
    return (p.a == 0 and p.b == 2 and p.c == 0 and p.d == 0 and p.t == 3
            and p.s % 2 == 0 and min(p.y) >= 2)


def even_right_steps(p: Parameters) -> Steps:
    """The nineteen printed steps; the hub-gap family reads R/even/1 from its leaf."""
    _check_even_right(p)
    # alpha counts the even right paths whose edge order is switched so vl
    # keeps the larger vertex sum; beta of them are paths of length exactly 2.
    # deg(vl) > deg(vr) is c + d + t > a + b, so t > a + 1 + alpha >= 1 + beta.
    alpha = max(0, (p.b - 1) - (p.c + p.d))
    beta = min(alpha, p.y.count(1))
    core, r_odd, r_even, l_odd, l_even, right, units = _paths(p)
    if needs_hub_gap_repair(p):
        # the steps then give each edge of R/even/1 its mirror image's label
        r_even[0] = r_even[0][::-1]
    switched, unswitched, top = r_even[beta:alpha], r_even[alpha:-1], r_even[-1]

    # Step 1: hub edges of the switched length-2 paths, interleaved with units.
    ev = Steps(p)
    ev.place(1, [row[0] for row in r_even[:beta]], 1, 2)
    ev.place(1, units[:max(0, beta - 1)], 2, 2)

    # Step 2: even edges of the remaining non-top even right paths.
    _next_block(ev, 2, _every_other(switched, 3) + _every_other(unswitched, 1))

    # Step 3: odd edges of odd right paths.
    _next_block(ev, 3, [*right, *_every_other(r_odd, 0)])

    # Step 4: odd edges of long odd left paths; hub edges wait for Step 18.
    _next_block(ev, 4, _every_other(l_odd, 0, -1))

    # Step 5: inner core edges.
    _inner_core(ev, 5, core)

    # Step 6: even edges of the top even right path.
    _next_block(ev, 6, top[1::2])

    # Step 7: odd edges of even left paths.
    _next_block(ev, 7, _every_other(l_even, 0))

    # Step 8: hub edges of the switched longer even right paths.
    _next_block(ev, 8, [row[0] for row in switched])

    # Step 9: the remaining unit left paths.  The printed rule starts at
    # i = beta, which leaves the units unplaced when beta = 0; starting at
    # max(1, beta) restores bijectivity.
    _next_block(ev, 9, units[max(1, beta) - 1:])

    # Step 10: pendant edges of the switched length-2 paths.
    _next_block(ev, 10, [row[1] for row in r_even[:beta]], falling=True)

    # Step 11: odd edges of the switched longer paths, then of the unswitched.
    _next_block(ev, 11, _every_other(switched, 2) + _every_other(unswitched, 0))

    # Step 12: even edges of odd right paths.
    _next_block(ev, 12, _every_other(r_odd, 1))

    # Step 13: even edges of long odd left paths.
    _next_block(ev, 13, _every_other(l_odd, 1))

    # Step 14: main core sweep.
    _core_sweep(ev, 14, core)

    # Step 15: odd edges of the top even right path.
    _next_block(ev, 15, top[0::2])

    # Step 16: even edges of even left paths.
    _next_block(ev, 16, _every_other(l_even, 1))

    # Step 17: deferred pendant edges of the switched longer paths.
    _next_block(ev, 17, [row[1] for row in switched])

    # Step 18: deferred hub edges of the long odd left paths.
    _next_block(ev, 18, [row[-1] for row in l_odd])

    # Step 19: remaining core edges.
    _last_core(ev, 19, core)
    return ev
