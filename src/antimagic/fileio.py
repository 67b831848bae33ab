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
"""

from __future__ import annotations

from .labeling import EdgeLabeling
from .spiders import (
    KIND_CORE,
    KIND_L_UNIT,
    CanonicalDoubleSpider,
    DoubleSpiderSpec,
    EdgeAddress,
    SpiderTree,
    address_rows,
    edge_addresses,
    parse_address,
)


class FormatError(ValueError):
    """Malformed instance or labeling text."""


def _clean_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


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


def parse_labeling(text: str) -> EdgeLabeling:
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
    assignment: dict[EdgeAddress, int] = {}
    for line in lines[1:]:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise FormatError(f"bad labeling record: {line!r}")
        ekey, esep, etext = parts[0].partition("=")
        lkey, lsep, ltext = parts[1].partition("=")
        if not esep or ekey.strip().lower() != "edge" or not lsep or lkey.strip().lower() != "label":
            raise FormatError(f"bad labeling record: {line!r}")
        try:
            addr = parse_address(etext)
            label = int(ltext.strip())
        except ValueError as exc:
            raise FormatError(str(exc)) from None
        if addr in assignment:
            raise FormatError(f"duplicate edge record for {addr.text}")
        assignment[addr] = label
    return EdgeLabeling(total_edges=m, assignment=assignment)


def format_labeling(labeling: EdgeLabeling) -> str:
    """The labeling file text; a flat labeling is written from its layout, row by row."""
    lines, lab = [f"m = {labeling.total_edges}"], labeling.labels
    if lab is None:
        lines += (f"edge = {a.text}, label = {x}" for a, x in sorted(labeling.assignment.items()))
    for kind, rows in enumerate(address_rows(labeling.params) if lab else ()):
        for i, row in enumerate(rows, start=kind != KIND_CORE):
            if kind == KIND_L_UNIT:
                lines.append(f"edge = {EdgeAddress(kind, i).text}, label = {lab[row[0]]}")
            else:
                prefix = EdgeAddress(kind, i).text[:-1]  # the text up to j = 0
                lines += (f"edge = {prefix}{j}, label = {lab[e]}" for j, e in enumerate(row, 1))
    return "\n".join(lines) + "\n"


def check_labeling_size(spec: DoubleSpiderSpec, labeling: EdgeLabeling) -> None:
    """Raise FormatError unless the m line and the record count equal the spec's edge count."""
    m, records = spec.total_edges, len(labeling.assignment)
    if labeling.total_edges != m:
        raise FormatError(f"labeling says m = {labeling.total_edges} but the instance has {m} edges")
    if records != m:
        raise FormatError(f"labeling has {records} edge records but the instance has {m} edges")


def check_labeling_matches(spider: SpiderTree, labeling: EdgeLabeling) -> None:
    """Raise FormatError unless the labeling covers exactly the instance's edges."""
    expected = set(edge_addresses(spider.params))
    got = set(labeling.assignment)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        parts = []
        if missing:
            parts.append("missing " + ", ".join(a.text for a in missing[:5]))
        if extra:
            parts.append("unknown " + ", ".join(a.text for a in extra[:5]))
        raise FormatError("labeling does not match the instance: " + "; ".join(parts))


def export_dot(spider: SpiderTree, labeling: EdgeLabeling | None = None) -> str:
    """Deterministic DOT text; vertex names are the canonical addresses."""
    if labeling is not None:
        check_labeling_matches(spider, labeling)
    lines = ["graph doublespider {"]
    for v in spider.vertices:
        lines.append(f'  "{v}";')
    for addr in sorted(spider.edge_of):
        u, v = spider.edge_of[addr]
        if labeling is None:
            lines.append(f'  "{u}" -- "{v}";')
        else:
            lines.append(f'  "{u}" -- "{v}" [label={labeling.assignment[addr]}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
