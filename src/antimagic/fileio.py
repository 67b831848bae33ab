"""Text formats: instance files, labeling files, and DOT export.

Instance file (whitespace-insensitive, value order irrelevant):

    core = 2
    left = 3,1
    right = 1,1

Labeling file:

    m = 8
    edge = core/1, label = 3
    edge = L/odd/1/1, label = 6
    ...

In both, lines starting with ``#`` and blank lines are skipped, keys may be
in any case, and spaces may stand around ``=``, ``,`` and ``/``.  Labeling
records may come in any order.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Iterable, Iterator

from .labeling import EdgeLabeling
from .spiders import (
    KIND_CORE,
    KIND_L_UNIT,
    KIND_NAMES,
    KIND_R_ODD,
    CanonicalDoubleSpider,
    DoubleSpiderSpec,
    EdgeAddress,
    Parameters,
    SpiderTree,
    address_rows,
    edge_addresses,
    parse_address,
    unit_runs,
)


class FormatError(ValueError):
    """Malformed instance or labeling text."""


def _clean_lines(text: str) -> list[str]:
    return [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]


def parse_instance(text: str) -> DoubleSpiderSpec:
    fields: dict[str, str] = {}
    for line in _clean_lines(text):
        key, sep, value = line.partition("=")
        key = key.strip().lower()
        if not sep or key not in ("core", "left", "right") or key in fields:
            raise FormatError(f"unexpected instance line: {line!r}")
        fields[key] = value.strip()
    if set(fields) != {"core", "left", "right"}:
        raise FormatError("instance file needs exactly the core/left/right lines")
    try:
        core = int(fields["core"])
        left = [int(v) for v in fields["left"].split(",")]
        right = [int(v) for v in fields["right"].split(",")]
    except ValueError as exc:
        raise FormatError(f"bad integer in instance file: {exc}") from None
    try:
        return DoubleSpiderSpec(core, tuple(left), tuple(right))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def format_instance(c: CanonicalDoubleSpider | DoubleSpiderSpec) -> str:
    left = ",".join(map(str, c.left_lengths))
    right = ",".join(map(str, c.right_lengths))
    return f"core = {c.core_length}\nleft = {left}\nright = {right}\n"


# A record line exactly as format_labeling writes it: the groups are core j,
# unit i, path class, path i, path j and the label.
_WRITTEN = (r"edge = (?:core/([0-9]+)|L/unit/([0-9]+)|([LR]/(?:odd|even))/([0-9]+)/([0-9]+))"
            r", label = (-?[0-9]+)")


def _records(lines: Iterable[str]) -> Iterator[tuple[int, int, int, int]]:
    """Each record line's address (kind, i, j) and label, in line order."""
    written = re.compile(_WRITTEN).fullmatch
    for line in lines:
        hit = written(line)
        if hit:
            j, unit, kind, i, pj, label = hit.groups()
            if j:
                yield KIND_CORE, 0, int(j), int(label)
            elif unit:
                yield KIND_L_UNIT, int(unit), 0, int(label)
            else:
                yield KIND_NAMES.index(kind), int(i), int(pj), int(label)
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise FormatError(f"bad labeling record: {line!r}")
        ekey, esep, etext = parts[0].partition("=")
        lkey, lsep, ltext = parts[1].partition("=")
        if not esep or ekey.strip().lower() != "edge" or not lsep or lkey.strip().lower() != "label":
            raise FormatError(f"bad labeling record: {line!r}")
        try:
            yield (*parse_address(etext.strip()), int(ltext.strip()))
        except ValueError as exc:
            raise FormatError(str(exc)) from None


def parse_labeling(text: str, p: Parameters | None = None) -> EdgeLabeling:
    """The labeling in text: keyed by address, or flat in p's layout when p is given.

    Read against p, the file must label exactly p's edges.  The first fault
    is raised, in this order: a grammar error or a duplicate record, by line;
    an m line or a record count other than p.m; the first five missing and
    unknown addresses.  A record's edge id is its path's id at j, or its
    place in its side's unit run, so no address is built for a known edge,
    and the flat list is allocated only when the m line and the record count
    both equal p.m.
    """
    lines = _clean_lines(text)
    if not lines:
        raise FormatError("empty labeling file")
    key, sep, value = lines[0].partition("=")
    if not sep or key.strip().lower() != "m":
        raise FormatError("labeling file must start with an 'm = <int>' line")
    try:
        m = int(value.strip())
    except ValueError:
        raise FormatError(f"bad edge count: {value.strip()!r}") from None
    rows = None
    if p is not None:
        rows, runs = address_rows(p, units=False), [range(0)] * len(KIND_NAMES)
        runs[KIND_R_ODD], runs[KIND_L_UNIT] = unit_runs(p)
        first = [len(run) + (kind != KIND_CORE) for kind, run in enumerate(runs)]  # i of rows[kind][0]
    flat = [None] * m if p is not None and m == p.m == len(lines) - 1 else None
    other: dict = {}  # label by address, or by edge id while flat is None
    for kind, i, j, label in _records(islice(lines, 1, None)):
        e = None
        if rows is not None:
            paths, r, at = rows[kind], i - first[kind], j - (kind != KIND_L_UNIT)
            if 0 <= r < len(paths) and 0 <= at < len(paths[r]):
                e = paths[r][at]
            elif -len(runs[kind]) <= r < 0 and at == 0:  # a unit path: the run leads its class
                e = runs[kind][r]
        if flat is not None and e is not None:
            seen = flat[e] is not None
            flat[e] = label
        else:
            key = EdgeAddress(kind, i, j) if e is None else e
            seen = key in other
            other[key] = label
        if seen:
            raise FormatError(f"duplicate edge record for {EdgeAddress(kind, i, j).text}")
    if p is None:
        return EdgeLabeling(m, other)
    if m != p.m:
        raise FormatError(f"labeling says m = {m} but the instance has {p.m} edges")
    if len(lines) - 1 != p.m:
        raise FormatError(f"labeling has {len(lines) - 1} edge records but the instance has {p.m} edges")
    if other:
        # every record is distinct, so as many edges are missing as addresses are unknown
        missing = sorted(a for a, x in zip(edge_addresses(p), flat) if x is None)
        raise FormatError("labeling does not match the instance: missing "
                          + ", ".join(a.text for a in missing[:5]) + "; unknown "
                          + ", ".join(a.text for a in sorted(other)[:5]))
    return EdgeLabeling.flat(p, flat)


def format_labeling(labeling: EdgeLabeling) -> str:
    """The labeling file text; a flat labeling is written from its layout, row by row
    and each side's unit paths as one run."""
    lines, lab = [f"m = {labeling.total_edges}"], labeling.labels
    if lab is None:
        lines += (f"edge = {a.text}, label = {x}" for a, x in sorted(labeling.assignment.items()))
        return "\n".join(lines) + "\n"
    right, left = (lab[run.start:run.stop] for run in unit_runs(labeling.params))
    for kind, rows in enumerate(address_rows(labeling.params, units=False)):
        if kind == KIND_R_ODD:
            lines += (f"edge = R/odd/{i}/1, label = {x}" for i, x in enumerate(right, 1))
        for i, row in enumerate(rows, start=(kind != KIND_CORE) + len(right) * (kind == KIND_R_ODD)):
            prefix = EdgeAddress(kind, i).text[:-1]  # the text up to j = 0
            lines += (f"edge = {prefix}{j}, label = {lab[e]}" for j, e in enumerate(row, 1))
    lines += (f"edge = L/unit/{i}, label = {x}" for i, x in enumerate(left, 1))
    return "\n".join(lines) + "\n"


def check_labeling_matches(spider: SpiderTree, labeling: EdgeLabeling) -> None:
    """Raise FormatError unless the labeling's file would read as a labeling of spider."""
    if labeling.params != spider.params:
        parse_labeling(format_labeling(labeling), spider.params)


def export_dot(spider: SpiderTree, labeling: EdgeLabeling | None = None) -> str:
    """Deterministic DOT text; vertex names are the canonical addresses, edges in address order."""
    if labeling is not None:
        check_labeling_matches(spider, labeling)
        labels = labeling.by_id(spider.params)
    lines = ["graph doublespider {"]
    lines += (f'  "{v}";' for v in spider.vertices)
    edges = spider.edges
    for e in (e for rows in address_rows(spider.params) for row in rows for e in row):
        u, v = edges[e]
        lines.append(f'  "{u}" -- "{v}";' if labeling is None
                     else f'  "{u}" -- "{v}" [label={labels[e]}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
