"""Seeded double spider specs for the per-route `label` measurements.

Sizes are fixed per route so that every seed costs the same work: the seed
varies only the shape (how the edges split into core and pendant paths).
Every drawn spec is checked against the package's own router
(canonicalize / derive_parameters / classify / needs_hub_gap_repair) and
redrawn until it lands on the route it was drawn for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ROUTES = ("odd_right", "even_right", "hub_gap", "equal_deg3", "equal_deg_high", "all_unit_right")

# The hub-gap family: left (1,1,1), right (2*y1, 2*y2), even core s.  These 18
# members are the ones the current completion search finishes quickly.
HUB_GAP_MEMBERS = tuple(
    (s, (1, 1, 1), (2 * y1, 2 * y2))
    for s in (4, 6, 8) for y1 in range(2, 5) for y2 in range(y1, 5)
)

# Per-route size targets.  Direct routes: m.  equal_deg3: (h, m), where h is
# the shortest path and m == 4h + 1 draws four equal paths around a unit core
# (the type-(a) residue).  equal_deg_high: (paths per hub, h, m).  all_unit_right: (right
# unit paths, m).
SIZES = {
    "label": {
        "odd_right": (1000, 1200, 1500),
        "even_right": (1000, 1200, 1500),
        "equal_deg3": ((50, 201), (55, 240), (60, 270)),
        "equal_deg_high": ((3, 30, 200), (4, 30, 250), (3, 35, 240)),
        "all_unit_right": ((50, 130), (55, 140), (60, 150)),
    },
    "panel": {
        "odd_right": (200, 300, 400),
        "even_right": (200, 300, 400),
        "equal_deg3": ((8, 33), (8, 44), (10, 52)),
        "equal_deg_high": ((3, 6, 44), (4, 5, 50), (3, 8, 56)),
        "all_unit_right": ((10, 30), (12, 36), (14, 40)),
    },
    "smoke": {
        "odd_right": (20,),
        "even_right": (20,),
        "equal_deg3": ((3, 13),),
        "equal_deg_high": ((3, 2, 16),),
        "all_unit_right": ((4, 14),),
    },
}


@dataclass(frozen=True)
class Spec:
    route: str
    core: int
    left: tuple[int, ...]
    right: tuple[int, ...]

    @property
    def m(self) -> int:
        return self.core + sum(self.left) + sum(self.right)

    def text(self) -> str:
        return (f"core = {self.core}\nleft = {','.join(map(str, self.left))}\n"
                f"right = {','.join(map(str, self.right))}\n")


def _composition(rng: random.Random, total: int, parts: int, low: int = 1) -> list[int]:
    """A random split of total into parts values, each at least low."""
    spare = total - parts * low
    if spare < 0:
        raise ValueError("total too small for the requested parts")
    cuts = sorted(rng.randint(0, spare) for _ in range(parts - 1))
    bounds = [0, *cuts, spare]
    return [low + bounds[k + 1] - bounds[k] for k in range(parts)]


def _odd(rng: random.Random, lo: int, hi: int) -> int:
    return rng.randrange(lo | 1, hi + 1, 2)


def _draw(rng: random.Random, route: str, target) -> Spec:
    if route == "odd_right":
        m = target
        n_right = rng.randint(2, 3)
        right = [_odd(rng, 1, m // 6) for _ in range(n_right - 1)] + [_odd(rng, 3, m // 6)]
        core = rng.randint(1, min(20, m // 10))
        left = _composition(rng, m - core - sum(right), n_right + rng.randint(1, 2))
        return Spec(route, core, tuple(left), tuple(right))
    if route == "even_right":
        m = target
        n_right = rng.randint(2, 3)
        right = [rng.randint(1, m // 6) for _ in range(n_right - 1)]
        right.append(2 * rng.randint(1, m // 12))
        core = rng.randint(1, min(20, m // 10))
        left = _composition(rng, m - core - sum(right), n_right + rng.randint(1, 2))
        return Spec(route, core, tuple(left), tuple(right))
    if route == "equal_deg3":
        h, m = target
        if 4 * h == m - 1:
            return Spec(route, 1, (h, h), (h, h))
        core = rng.randint(1, min(20, m - 4 * h))
        rest = _composition(rng, m - core - h, 3, low=h)
        lengths = [h, *rest]
        rng.shuffle(lengths)
        return Spec(route, core, tuple(lengths[:2]), tuple(lengths[2:]))
    if route == "equal_deg_high":
        k, h, m = target
        core = rng.randint(1, min(20, m - 2 * k * h))
        rest = _composition(rng, m - core - h, 2 * k - 1, low=h)
        lengths = [h, *rest]
        rng.shuffle(lengths)
        return Spec(route, core, tuple(lengths[:k]), tuple(lengths[k:]))
    if route == "all_unit_right":
        # units - 1 left unit paths plus two or three longer ones, so the
        # number of unit removals (2 * units - 3) does not depend on the seed.
        units, m = target
        n_long = rng.randint(2, 3)
        core = rng.randint(1, min(10, m - 2 * units + 1 - 2 * n_long))
        long_paths = _composition(rng, m - core - 2 * units + 1, n_long, low=2)
        return Spec(route, core, (1,) * (units - 1) + tuple(long_paths), (1,) * units)
    raise ValueError(f"unknown route {route!r}")


def _reaches_hub_gap(api, spec: Spec) -> bool:
    """True when an equal-degree spec reduces into the hub-gap family.

    The driver deletes h - 1 leaf levels, removes one right unit path and
    labels what is left directly; that residue must not be a hub-gap member,
    whose completion search does not finish in practical time beyond the
    fixed members above.
    """
    h = min(spec.left + spec.right)
    c = api.canonicalize(api.DoubleSpiderSpec(spec.core, spec.left, spec.right))
    left = [l - h + 1 for l in c.left_lengths]
    right = [l - h + 1 for l in c.right_lengths]
    right.remove(1)
    if len(right) < 2:
        return False
    p = api.derive_parameters(api.canonicalize(api.DoubleSpiderSpec(spec.core, left, right)))
    return api.labelers.needs_hub_gap_repair(p)


def route_of(api, spec: Spec) -> str:
    """The route the package itself takes for this spec."""
    c = api.canonicalize(api.DoubleSpiderSpec(spec.core, spec.left, spec.right))
    p = api.derive_parameters(c)
    tag = api.classify(p)
    if tag is api.CaseTag.UNEQUAL_EVEN_RIGHT and api.labelers.needs_hub_gap_repair(p):
        return "hub_gap"
    return {
        api.CaseTag.UNEQUAL_ODD_RIGHT: "odd_right",
        api.CaseTag.UNEQUAL_EVEN_RIGHT: "even_right",
        api.CaseTag.EQUAL_DEG3: "equal_deg3",
        api.CaseTag.EQUAL_DEG_HIGH: "equal_deg_high",
        api.CaseTag.UNEQUAL_ALL_UNIT_RIGHT: "all_unit_right",
    }[tag]


def generate(api, seed: int, size: str) -> dict[str, list[Spec]]:
    """Specs per route for one seed; api is the imported antimagic package
    (with its labelers submodule loaded).

    The hub-gap members are fixed (the seed does not touch them); the panel
    keeps the six with core 4 and the smoke size only the smallest one.
    """
    rng = random.Random(seed)
    out: dict[str, list[Spec]] = {}
    for route in ROUTES:
        if route == "hub_gap":
            members = {"label": HUB_GAP_MEMBERS, "panel": HUB_GAP_MEMBERS[:6],
                       "smoke": HUB_GAP_MEMBERS[:1]}[size]
            specs = [Spec(route, s, left, right) for s, left, right in members]
        else:
            specs = []
            for target in SIZES[size][route]:
                for _ in range(1000):
                    spec = _draw(rng, route, target)
                    if route_of(api, spec) == route and not (
                            route == "equal_deg_high" and _reaches_hub_gap(api, spec)):
                        break
                else:
                    raise RuntimeError(f"no {route} spec found for target {target}")
                specs.append(spec)
        for spec in specs:
            if route_of(api, spec) != route:
                raise RuntimeError(f"{spec} is not on route {route}")
        out[route] = specs
    return out
