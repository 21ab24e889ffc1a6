"""A fixed stride of the small-dimension census as a gate for the support scans.

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


def check_scans(a: EvolutionAlgebra):
    """The pruned scans against the unpruned references, and the paper's
    perfect case."""
    all_witnesses = analysis.degeneracy_witnesses(a)
    assert analysis._first_azd_witness(a) == (all_witnesses[0] if all_witnesses else None)

    g = a.graph()
    reach_sets = [G.reach(g, (v,)) for v in range(a.n)]

    def sqz(j, k):
        return vec_is_zero(a.multiply(a.basis_square(j), a.basis_square(k)))

    scanned = set(analysis._dependent_supports(a))
    for gamma in analysis.iter_supports(a.n):
        if gamma not in scanned:
            outcome = analysis._semiprime_support(a, gamma, reach_sets, sqz, 50)
            assert outcome.kind == "clean", gamma

    degenerate = analysis.degeneracy(a)
    semi = analysis.semiprime(a)
    if a.is_perfect():
        assert semi.is_yes
        assert analysis.nondegenerate_perfect_check(a) == degenerate.is_no
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
