"""Immutable tree graphs over string vertex ids.

Vertices are plain strings; an edge is the sorted pair of its endpoint ids,
so edge keys are canonical and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

Edge = tuple[str, str]


def edge_key(u: str, v: str) -> Edge:
    """Canonical key for the edge between u and v."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Tree:
    """A finite tree: connected, acyclic, |E| = |V| - 1."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        es = {edge_key(*e) for e in self.edges}
        if len(es) != len(self.edges):
            raise ValueError("duplicate edges")
        for u, v in self.edges:
            if u == v or u not in vs or v not in vs:
                raise ValueError(f"bad edge ({u}, {v})")
        if len(self.edges) != len(self.vertices) - 1:
            raise ValueError("edge count must be vertex count - 1")
        # Connectivity; together with the count above this rules out cycles.
        if self.vertices:
            seen = {self.vertices[0]}
            frontier = [self.vertices[0]]
            while frontier:
                u = frontier.pop()
                for w in self.adjacency[u]:
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
            if len(seen) != len(self.vertices):
                raise ValueError("tree is not connected")

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    def degree(self, v: str) -> int:
        return len(self.adjacency[v])

    @cached_property
    def degrees(self) -> dict[str, int]:
        return {v: len(self.adjacency[v]) for v in self.vertices}

    def leaves(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if self.degree(v) == 1)


def make_tree(vertices, edges) -> Tree:
    """Build a Tree, normalizing edge keys."""
    return Tree(tuple(vertices), tuple(edge_key(u, v) for u, v in edges))


def path_tree(n_vertices: int, prefix: str = "p") -> Tree:
    """A path on n_vertices vertices (ids p1..pn), handy for tests."""
    names = [f"{prefix}{i}" for i in range(1, n_vertices + 1)]
    return make_tree(names, [(names[i], names[i + 1]) for i in range(n_vertices - 1)])


def star_tree(n_leaves: int, center: str = "c") -> Tree:
    """A star with n_leaves pendant edges around a center vertex."""
    leaves = [f"{center}{i}" for i in range(1, n_leaves + 1)]
    return make_tree([center] + leaves, [(center, leaf) for leaf in leaves])
