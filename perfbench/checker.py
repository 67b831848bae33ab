"""Independent output checks for the benchmark.

Nothing here imports the package under test: the instance's edge set is
rebuilt from the documented address scheme and the strong property is
checked by sorting vertices by (degree, sum), which must give strictly
increasing sums.  Each check returns None when the output is right and a
one-line reason when it is not.
"""

from __future__ import annotations

from collections import defaultdict


def orient(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Canonical sides (left, right), both ascending.

    The left hub carries more paths; on a tie the right side holds more
    copies of the globally shortest length, then the lexicographically
    smaller length sequence.
    """
    left, right = tuple(sorted(left)), tuple(sorted(right))
    if len(left) != len(right):
        ok = len(left) > len(right)
    else:
        shortest = min(left[0], right[0])
        copies_l, copies_r = left.count(shortest), right.count(shortest)
        ok = copies_r > copies_l if copies_l != copies_r else right <= left
    return (left, right) if ok else (right, left)


def spider_edges(core: int, left, right) -> dict[str, tuple[str, str]]:
    """Address text -> endpoint pair for every edge of the instance.

    core/j runs from the left hub (j = 1) to the right hub; right paths
    count j outward from the hub; left paths put j = 1 on the pendant edge.
    Paths are indexed 1.. within their parity class in ascending length.
    """
    left, right = orient(left, right)
    edges: dict[str, tuple[str, str]] = {}
    chain = ["vl", *(f"c{k}" for k in range(1, core)), "vr"]
    for j in range(1, core + 1):
        edges[f"core/{j}"] = (chain[j - 1], chain[j])

    def right_path(kind: str, i: int, length: int) -> None:
        nodes = ["vr", *(f"R{kind}{i}.{j}" for j in range(1, length + 1))]
        for j in range(1, length + 1):
            edges[f"R/{kind}/{i}/{j}"] = (nodes[j - 1], nodes[j])

    def left_path(kind: str, i: int, length: int) -> None:
        nodes = [*(f"L{kind}{i}.{j}" for j in range(length)), "vl"]
        for j in range(1, length + 1):
            edges[f"L/{kind}/{i}/{j}"] = (nodes[j - 1], nodes[j])

    for i, length in enumerate((l for l in right if l % 2), start=1):
        right_path("odd", i, length)
    for i, length in enumerate((l for l in right if l % 2 == 0), start=1):
        right_path("even", i, length)
    for i, length in enumerate((l for l in left if l % 2 and l > 1), start=1):
        left_path("odd", i, length)
    for i, length in enumerate((l for l in left if l % 2 == 0), start=1):
        left_path("even", i, length)
    for i in range(1, left.count(1) + 1):
        edges[f"L/unit/{i}"] = ("vl", f"Lunit{i}")
    return edges


def check_strong(edges: dict, labels: dict) -> str | None:
    """Labels must biject the edges onto 1..m with a strongly antimagic sum order."""
    if set(labels) != set(edges):
        return f"labeled edge set differs from the instance's ({len(labels)} vs {len(edges)} edges)"
    m = len(edges)
    if sorted(labels.values()) != list(range(1, m + 1)):
        return "labels are not a bijection onto 1..m"
    sums: dict[str, int] = defaultdict(int)
    degree: dict[str, int] = defaultdict(int)
    for key, (u, v) in edges.items():
        sums[u] += labels[key]
        sums[v] += labels[key]
        degree[u] += 1
        degree[v] += 1
    order = sorted(sums, key=lambda v: (degree[v], sums[v]))
    for a, b in zip(order, order[1:]):
        if sums[a] >= sums[b]:
            return (f"not strongly antimagic: {a} (deg {degree[a]}, sum {sums[a]}) "
                    f"before {b} (deg {degree[b]}, sum {sums[b]})")
    return None


def parse_labeling(text: str) -> tuple[int, dict[str, int]]:
    """The `m = N` header and the `edge = ADDR, label = L` records."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    key, _, value = lines[0].partition("=")
    if key.strip() != "m":
        raise ValueError("missing m header")
    labels: dict[str, int] = {}
    for line in lines[1:]:
        edge_part, label_part = line.split(",")
        ekey, _, addr = edge_part.partition("=")
        lkey, _, label = label_part.partition("=")
        if ekey.strip() != "edge" or lkey.strip() != "label":
            raise ValueError(f"bad record {line!r}")
        addr = addr.strip()
        if addr in labels:
            raise ValueError(f"duplicate record for {addr}")
        labels[addr] = int(label)
    return int(value), labels


def check_labeling_file(core: int, left, right, text: str) -> str | None:
    """Check an emitted labeling file against the instance it was made for."""
    try:
        m, labels = parse_labeling(text)
    except (ValueError, IndexError) as exc:
        return f"unreadable labeling file: {exc}"
    edges = spider_edges(core, left, right)
    if m != len(edges):
        return f"header says m = {m}, instance has {len(edges)} edges"
    return check_strong(edges, labels)


def check_witness(tree_edges, labels: dict | None) -> str | None:
    """Check an oracle witness (edge pair -> label) on the searched tree."""
    if labels is None:
        return "oracle returned no witness"
    return check_strong({e: e for e in tree_edges}, labels)
