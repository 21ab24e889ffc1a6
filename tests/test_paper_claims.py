"""The paper's combinatorial claims, checked across the n = 3 census.

Some properties of an evolution algebra are read off its graph: a zero
annihilator, the absorption radical, von Neumann regularity, primeness in
the presence of semiprimeness, and, for a zero annihilator, a centroid whose
dimension is the number of components.  Two matrices with the same zero
pattern have the same graph, so each of those facts must be constant on every
zero pattern.  The census over {-1, 0, 1} splits into 512 zero patterns;
every 7th of them is checked here with all of its signings (74 patterns,
2,889 algebras).

Only some checks are independent of the code under test.  ``centroid``,
``prime`` and ``vn_algebra`` read the graph, so their constancy holds by
construction: the centroid substitutes along the edges, so with a zero
annihilator its dimension is the component count.  The independent check of
the centroid is ``TestCentroid::test_matches_the_definition`` in
``test_analysis.py``, a sympy nullspace of the full n^2-unknown system;
``prime`` is still compared with the definition of downward directedness
(every two reach sets meet), which also checks ``graph.is_downward_directed``.
The annihilator and the absorption radical are levels of the annihilating
series, computed from the structure matrix; one comparison in ``absorption``
checks the whole series against the sink strata of the graph, and the engine
raises if they disagree.

Semiprimeness and perfection "can not be characterized in combinatorial
terms": the two fixtures below are pairs of algebras with the same graph that
disagree on them.
"""

from collections import defaultdict

import pytest

from evolalg import analysis, graph as G
from evolalg.algebra import EvolutionAlgebra

from census import census_matrices
from conftest import alg, pairwise_downward_directed

PATTERN_STRIDE = 7


def zero_pattern(rows) -> int:
    """The pattern's index in ``itertools.product((0, 1), repeat=n * n)`` order."""
    return int("".join("1" if x else "0" for row in rows for x in row), 2)


def graph_facts(a: EvolutionAlgebra) -> dict:
    """The facts the paper reads off the graph; ``None`` where one does not apply."""
    zero_ann = analysis.is_zero_annihilator(a)
    semi = analysis.semiprime(a)
    prime = analysis.prime(a).is_yes if semi.is_yes else None
    if prime is not None:
        assert prime == pairwise_downward_directed(a.graph())
    centroid_dim = analysis.centroid(a).dim if zero_ann else None
    if centroid_dim is not None:
        assert centroid_dim == len(G.components(a.graph()))
    return {
        "zero annihilator": zero_ann,
        "absorption radical dimension": analysis.absorption(a)[0].dim,
        "von Neumann regular": analysis.vn_algebra(a),
        "prime given semiprime": prime,
        "centroid dimension given zero annihilator": centroid_dim,
    }


def test_graph_facts_are_constant_on_zero_patterns():
    seen = defaultdict(lambda: defaultdict(set))
    checked = 0
    for rows in census_matrices(3):
        pattern = zero_pattern(rows)
        if pattern % PATTERN_STRIDE:
            continue
        try:
            facts = graph_facts(EvolutionAlgebra.from_rows(rows))
        except AssertionError as exc:
            raise AssertionError(f"census matrix {rows}: {exc}") from exc
        for name, value in facts.items():
            if value is not None:
                seen[pattern][name].add(value)
        checked += 1
    assert (len(seen), checked) == (74, 2889)
    for pattern, facts in seen.items():
        for name, values in facts.items():
            assert len(values) == 1, f"{name} splits on zero pattern {pattern:09b}: {values}"


@pytest.fixture
def semiprime_split():
    """Same graph; the first is semiprime, the second is not."""
    return alg([[-1, -1, -1], [-1, -1, 0], [0, 0, 0]]), alg([[-1, 1, -1], [-1, 1, 0], [0, 0, 0]])


@pytest.fixture
def perfect_split():
    """Same graph; the first is not perfect, the second is."""
    return alg([[-1, -1, 0], [-1, -1, 0], [0, 0, -1]]), alg([[-1, -1, 0], [-1, 1, 0], [0, 0, -1]])


def test_semiprime_is_not_combinatorial(semiprime_split):
    a, b = semiprime_split
    assert a.graph() == b.graph()
    assert (analysis.semiprime(a).state, analysis.semiprime(b).state) == ("yes", "no")


def test_perfect_is_not_combinatorial(perfect_split):
    a, b = perfect_split
    assert a.graph() == b.graph()
    assert (a.is_perfect(), b.is_perfect()) == (False, True)
