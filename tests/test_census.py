"""A fixed stride of the small-dimension census as a gate for the verdict engines.

The data is enumerated, not sampled: every 53rd matrix with n = 3 over
{-1, 0, 1} and every 109th with n = 4 over {0, 1}.  ``tests/census.py`` runs
the whole n = 3 census and prints a digest of its verdicts.
"""

import itertools

import pytest

from evolalg import analysis, graph as G
from evolalg.algebra import EvolutionAlgebra
from evolalg.exactla import vec_is_zero

from census import census_matrices
from reference import degeneracy_witnesses


def check_scans(a: EvolutionAlgebra):
    """The pruned degeneracy scan against the unpruned reference, the
    semiprime closure test in both directions, and the paper's perfect
    case."""
    all_witnesses = degeneracy_witnesses(a)
    assert analysis._first_azd_witness(a) == (all_witnesses[0] if all_witnesses else None)

    degenerate = analysis.degeneracy(a)
    semi = analysis.semiprime(a)
    g = a.graph()
    squares = [a.basis_square(i) for i in range(a.n)]

    def isotropic(v):
        closure = G.reach(g, (v,))
        return all(
            vec_is_zero(a.multiply(squares[j], squares[k])) for j in closure for k in closure
        )

    if semi.is_yes:
        # every vertex reaches two squares with a nonzero product
        assert not any(isotropic(v) for v in range(a.n))
    else:
        # e_v for the first zero square, else e_v^2 for the first isotropic v
        assert semi.is_no
        zero = [v for v in range(a.n) if vec_is_zero(squares[v])]
        if zero:
            generator = a.basis_element(zero[0])
        else:
            generator = squares[next(v for v in range(a.n) if isotropic(v))]
        ideal = semi.witness
        assert ideal.member(generator)
        for x in ideal.basis_vectors():
            for y in ideal.basis_vectors():
                assert vec_is_zero(a.multiply(x, y))
    if a.is_perfect():
        assert semi.is_yes
        loops = all(a.M.at(i, i) != 0 for i in range(a.n))
        assert loops == degenerate.is_no
    if degenerate.is_no:
        assert semi.is_yes


@pytest.mark.parametrize(
    "n, values, stride, count", [(3, (-1, 0, 1), 53, 372), (4, (0, 1), 109, 602)]
)
def test_census_stride(n, values, stride, count):
    checked = 0
    for rows in itertools.islice(census_matrices(n, values), 0, None, stride):
        try:
            check_scans(EvolutionAlgebra.from_rows(rows))
        except AssertionError as exc:
            raise AssertionError(f"census matrix {rows}: {exc}") from exc
        checked += 1
    assert checked == count
