"""Shared example algebras.

Structure matrices follow the package convention: column i holds the
coordinates of the square of basis vector i.
"""

import itertools

import pytest

from evolalg import graph as G
from evolalg.algebra import EvolutionAlgebra


def alg(rows, labels=None) -> EvolutionAlgebra:
    return EvolutionAlgebra.from_rows(rows, labels)


def pairwise_downward_directed(g: G.DiGraph) -> bool:
    """The definition: the reach sets of every two vertices intersect."""
    reaches = [G.reach(g, (v,)) for v in range(g.n)]
    return all(r & s for r, s in itertools.combinations(reaches, 2))


def induced_subgraph(g: G.DiGraph, removed) -> G.DiGraph:
    """The graph induced on the vertices outside ``removed``, renumbered ascending."""
    removed = set(removed)
    keep = [v for v in range(g.n) if v not in removed]
    index = {v: k for k, v in enumerate(keep)}
    return G.DiGraph.from_edges(
        len(keep), ((index[i], index[j]) for i, j in g.edges() if i in index and j in index)
    )


# 2-dim, complete graph on two vertices; degenerate, not semiprime
COMPLETE2_ROWS = [[1, -1], [1, -1]]

# 4-dim; the squared symbolic left-multiplication forces x1=x2=x3=0, x4 free
DEG4_ROWS = [[1, 0, 1, -1], [0, 1, 1, 1], [1, 1, 2, 0], [1, 1, 2, 0]]

# 4-dim with exactly one zero-square line, spanned by e1-e2
LINE4_ROWS = [[1, -1, 0, 1], [-1, 1, 1, 2], [0, 0, 1, 0], [0, 0, 0, 1]]

# 5-dim; degenerate, and its top-left block is COMPLETE2, so it contains the
# zero-square line spanned by e1+e2
FIVE_ROWS = [
    [1, -1, 0, 0, 1],
    [1, -1, 0, 0, 1],
    [0, 0, 1, -1, 1],
    [0, 0, 0, 0, 1],
    [0, 0, 0, 0, 1],
]

# 5-dim with a rich hereditary lattice; exactly three prime ideals
LATTICE5_ROWS = [
    [1, 0, 1, 0, 0],
    [0, 1, 1, 0, 0],
    [0, 0, 1, 0, 0],
    [0, 0, 1, 1, -1],
    [0, 0, 0, 1, -1],
]

# 4-dim, sinkless, semiprime yet degenerate; hereditary sets are only {} and all
SEMI4_ROWS = [[0, 0, 1, -1], [0, 0, 1, -1], [1, -2, 0, 0], [1, -2, 0, 0]]

# 2-dim, prime but not perfect: e1^2 = e1, e2^2 = e1
PRIME_NP_ROWS = [[1, 1], [0, 0]]

# two isolated loops: von Neumann regular, decomposes into two lines
LOOPS2_ROWS = [[1, 0], [0, 1]]

# e1^2 = e1, e2^2 = 0: nonzero annihilator, two components
SINK2_ROWS = [[1, 0], [0, 0]]

# e1^2 = 0, e2^2 = e1 + e2: same pair of algebras up to isomorphism, one component
SINK2B_ROWS = [[0, 1], [0, 1]]

# 2-dim perfect and semiprime: e1^2 = e1+e2, e2^2 = e1-e2
SEMI2_ROWS = [[1, 1], [1, -1]]

# 8-vertex sink cascade with unit weights: four rounds of sink removal
_CASCADE8_EDGES = {
    0: (0, 1, 2),
    1: (1,),
    2: (1, 2, 3, 4),
    3: (6, 7),
    4: (5,),
    5: (3,),
    6: (),
    7: (),
}
CASCADE8_ROWS = [
    [1 if j in _CASCADE8_EDGES[i] else 0 for i in range(8)] for j in range(8)
]


@pytest.fixture
def complete2():
    return alg(COMPLETE2_ROWS)


@pytest.fixture
def deg4():
    return alg(DEG4_ROWS)


@pytest.fixture
def line4():
    return alg(LINE4_ROWS)


@pytest.fixture
def five():
    return alg(FIVE_ROWS)


@pytest.fixture
def lattice5():
    return alg(LATTICE5_ROWS)


@pytest.fixture
def semi4():
    return alg(SEMI4_ROWS)


@pytest.fixture
def cascade8():
    return alg(CASCADE8_ROWS)
