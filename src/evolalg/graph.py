"""Directed graphs attached to evolution algebras.

The graph of an algebra with structure matrix M has an edge i -> j exactly
when M[j][i] != 0, i.e. when basis vector j appears in the square of basis
vector i.  All invariants used by the verdict engines live here: sinks,
reachability, ancestor sets, hereditary sets, downward directedness,
undirected components, iterated sink strata, and DOT export.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .exactla import Mat


@dataclass(frozen=True)
class DiGraph:
    n: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        for i, targets in enumerate(self.adj):
            if list(targets) != sorted(set(targets)):
                raise ValueError(f"targets of vertex {i} must be sorted and distinct")
            for t in targets:
                if not 0 <= t < self.n:
                    raise ValueError(f"edge target {t} out of range")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "DiGraph":
        out: list[set[int]] = [set() for _ in range(n)]
        for i, j in edges:
            out[i].add(j)
        return DiGraph(n, tuple(tuple(sorted(s)) for s in out))

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in self.adj[i]]

    def reverse(self) -> "DiGraph":
        return DiGraph.from_edges(self.n, ((j, i) for i, j in self.edges()))


def from_matrix(m: Mat) -> DiGraph:
    if m.rows != m.cols:
        raise ValueError("structure matrix must be square")
    n = m.rows
    adj = tuple(
        tuple(j for j in range(n) if m.at(j, i) != 0) for i in range(n)
    )
    return DiGraph(n, adj)


def sinks(g: DiGraph) -> frozenset[int]:
    return frozenset(i for i in range(g.n) if not g.adj[i])


def is_sinkless(g: DiGraph) -> bool:
    return not sinks(g)


def reach(g: DiGraph, seed: Iterable[int]) -> frozenset[int]:
    """Forward-reachable closure of a vertex set; contains the set itself."""
    seen = set()
    stack = []
    for v in seed:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        if v not in seen:
            seen.add(v)
            stack.append(v)
    while stack:
        v = stack.pop()
        for w in g.adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def is_hereditary(g: DiGraph, s: Iterable[int]) -> bool:
    s = frozenset(s)
    return reach(g, s) == s


def ancestors(g: DiGraph) -> Iterable[frozenset[int]]:
    """anc(v) for each vertex v in turn: v with every vertex that reaches v."""
    r = g.reverse()
    return (reach(r, (v,)) for v in range(g.n))


def is_downward_directed(g: DiGraph) -> bool:
    """Every two vertices have a common descendant (vacuous when n = 0).

    Equivalently, some vertex v is reached from every vertex: anc(v) = V.
    Every vertex reaches a terminal strongly connected component, and two of
    those share no descendant, so a downward directed graph has exactly one
    and every vertex reaches each of its vertices.
    """
    return g.n == 0 or any(len(a) == g.n for a in ancestors(g))


def components(g: DiGraph) -> list[list[int]]:
    """Connected components of the underlying undirected graph.

    Blocks are sorted internally and ordered by their least vertex.
    """
    neighbours: list[set[int]] = [set() for _ in range(g.n)]
    for i, j in g.edges():
        neighbours[i].add(j)
        neighbours[j].add(i)
    seen = [False] * g.n
    blocks = []
    for start in range(g.n):
        if seen[start]:
            continue
        block = []
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            block.append(v)
            for w in neighbours[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        blocks.append(sorted(block))
    return blocks


@dataclass(frozen=True)
class SinkStrata:
    """Vertex layers removed by iterated sink elimination, plus the sinkless residue."""

    strata: tuple[frozenset[int], ...]
    residue: frozenset[int]


def sink_strata(g: DiGraph) -> SinkStrata:
    remaining = set(range(g.n))
    strata: list[frozenset[int]] = []
    while True:
        layer = frozenset(
            v for v in remaining if not any(w in remaining for w in g.adj[v])
        )
        if not layer:
            break
        strata.append(layer)
        remaining -= layer
    return SinkStrata(tuple(strata), frozenset(remaining))


def is_isolated_loops(g: DiGraph) -> bool:
    """True when every vertex carries exactly a loop and no other incident edge."""
    for v in range(g.n):
        if g.adj[v] != (v,):
            return False
    return True


def to_dot(g: DiGraph, labels: Sequence[str]) -> str:
    """DOT text; labels are quoted DOT IDs, with backslashes and quotes escaped."""
    if len(labels) != g.n:
        raise ValueError("label count does not match vertex count")
    ids = ['"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"' for s in labels]
    lines = ["digraph E {"]
    for i in range(g.n):
        lines.append(f"  {ids[i]};")
    for i, j in sorted(g.edges()):
        lines.append(f"  {ids[i]} -> {ids[j]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
