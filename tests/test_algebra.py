import pytest
from hypothesis import given, settings, strategies as st

from evolalg import graph as G
from evolalg.algebra import EvolutionAlgebra, support
from evolalg.exactla import Mat, Rat, Subspace, vec, vec_is_zero

from conftest import (
    CASCADE8_ROWS,
    COMPLETE2_ROWS,
    DEG4_ROWS,
    LATTICE5_ROWS,
    PRIME_NP_ROWS,
    SEMI4_ROWS,
    SINK2_ROWS,
    alg,
    induced_subgraph,
)
from reference import brute_hereditary

rationals = st.builds(Rat, st.integers(-3, 3), st.integers(1, 2))


def algebras(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.lists(
            st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(alg)
    )


def elements(a):
    return st.lists(rationals, min_size=a.n, max_size=a.n).map(vec)


class TestConstruction:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            EvolutionAlgebra(("a", "b"), Mat.from_rows([[1, 2, 3], [4, 5, 6]]))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            EvolutionAlgebra(("a", "a"), Mat.identity(2))

    def test_default_labels(self):
        assert alg(COMPLETE2_ROWS).labels == ("e1", "e2")


class TestMultiply:
    def test_distinct_basis_vectors_annihilate(self, complete2):
        e1, e2 = complete2.basis_element(0), complete2.basis_element(1)
        assert vec_is_zero(complete2.multiply(e1, e2))

    def test_complete2_diagonal_square(self, complete2):
        x = vec([1, 1])
        assert vec_is_zero(complete2.multiply(x, x))

    def test_square_of_second_generator(self):
        a = alg(PRIME_NP_ROWS)
        e2 = a.basis_element(1)
        assert a.multiply(e2, e2) == a.basis_element(0)

    def test_dimension_mismatch(self, complete2):
        with pytest.raises(ValueError):
            complete2.multiply(vec([1]), vec([1, 2]))

    @given(algebras(), st.data())
    def test_commutative_and_bilinear(self, a, data):
        x = data.draw(elements(a))
        y = data.draw(elements(a))
        z = data.draw(elements(a))
        c = data.draw(rationals)
        assert a.multiply(x, y) == a.multiply(y, x)
        lhs = a.multiply(tuple(xi + c * zi for xi, zi in zip(x, z)), y)
        rhs = tuple(
            p + c * q for p, q in zip(a.multiply(x, y), a.multiply(z, y))
        )
        assert lhs == rhs


class TestLeftMultMatrix:
    def test_all_ones_recovers_matrix(self, complete2):
        assert complete2.left_mult_matrix(vec([1, 1])) == complete2.M

    def test_zero_element(self, complete2):
        assert not any(complete2.left_mult_matrix(vec([0, 0])).entries)

    def test_single_coordinate_column(self, deg4):
        n = deg4.left_mult_matrix(vec([0, 0, 0, 1]))
        assert n.col(3) == vec([-1, 1, 0, 0])
        for j in range(3):
            assert vec_is_zero(n.col(j))

    @given(algebras(), st.data())
    def test_matrix_realizes_multiplication(self, a, data):
        x = data.draw(elements(a))
        y = data.draw(elements(a))
        assert a.left_mult_matrix(x).matvec(y) == a.multiply(x, y)


class TestSupportAndAnnihilator:
    def test_support(self):
        assert support(vec([1, 0, 2])) == {0, 2}
        assert support(vec([0, 0])) == frozenset()
        assert support(vec([0, 1, 0])) == {1}

    def test_annihilator_examples(self):
        assert alg(SINK2_ROWS).annihilator() == Subspace.axes(2, [1])
        assert alg(COMPLETE2_ROWS).annihilator() == Subspace.zero(2)
        zero = EvolutionAlgebra.from_rows([[0, 0], [0, 0]])
        assert zero.annihilator() == Subspace.full(2)

    def test_perfect_examples(self):
        assert not alg(COMPLETE2_ROWS).is_perfect()
        assert not alg(PRIME_NP_ROWS).is_perfect()
        assert not alg(SEMI4_ROWS).is_perfect()
        assert alg([[1, 1], [1, -1]]).is_perfect()


class TestIdealGeneratedBy:
    def test_complete2_diagonal(self, complete2):
        ideal = complete2.ideal_generated_by(vec([1, 1]))
        assert ideal == Subspace.span([[1, 1]], 2)

    def test_loop_vertex(self):
        a = alg(PRIME_NP_ROWS)
        assert a.ideal_generated_by(a.basis_element(0)) == Subspace.axes(2, [0])

    def test_zero_element(self, complete2):
        assert complete2.ideal_generated_by(vec([0, 0])) == Subspace.zero(2)

    @given(algebras(), st.data())
    @settings(max_examples=50)
    def test_multiplication_closed(self, a, data):
        x = data.draw(elements(a))
        ideal = a.ideal_generated_by(x)
        assert ideal.member(x)
        for v in ideal.basis_vectors():
            for i in range(a.n):
                assert ideal.member(a.multiply(v, a.basis_element(i)))


class TestBasicIdeal:
    def test_lattice_pair(self, lattice5):
        b = lattice5.basic_ideal({3, 4})
        assert b.space == Subspace.axes(5, [3, 4])

    def test_empty_and_full(self, lattice5):
        assert lattice5.basic_ideal(()).space == Subspace.zero(5)
        assert lattice5.basic_ideal(range(5)).space == Subspace.full(5)

    def test_rejects_non_hereditary(self, lattice5):
        with pytest.raises(ValueError):
            lattice5.basic_ideal({2})


class TestQuotient:
    def test_lattice_pair(self, lattice5):
        q = lattice5.quotient_by_basic({3, 4})
        assert q.labels == ("e1", "e2", "e3")
        assert q.M == lattice5.M.submatrix([0, 1, 2], [0, 1, 2])

    def test_trivial_cases(self, lattice5):
        assert lattice5.quotient_by_basic(()) == lattice5
        assert lattice5.quotient_by_basic(range(5)).n == 0

    @given(algebras(), st.data())
    @settings(max_examples=50)
    def test_quotient_graph_commutes(self, a, data):
        h = data.draw(st.sampled_from(brute_hereditary(a.graph())))
        assert a.quotient_by_basic(h).graph() == induced_subgraph(a.graph(), h)

    def test_cascade_first_round(self, cascade8):
        q = cascade8.quotient_by_basic({6, 7})
        assert q.n == 6
        assert G.sinks(q.graph()) == {3}  # the old vertex 3 keeps its position among survivors


class TestAnnSeries:
    def test_cascade(self, cascade8):
        series, asi = cascade8.ann_series()
        assert asi == 4
        assert series[0] == Subspace.axes(8, [6, 7])
        assert series[1] == Subspace.axes(8, [3, 6, 7])
        assert series[2] == Subspace.axes(8, [3, 5, 6, 7])
        assert series[3] == Subspace.axes(8, [3, 4, 5, 6, 7])

    def test_sinkless(self, complete2):
        series, asi = complete2.ann_series()
        assert asi == 1 and series == [Subspace.zero(2)]

    def test_zero_algebra(self):
        zero = EvolutionAlgebra.from_rows([[0, 0], [0, 0]])
        series, asi = zero.ann_series()
        assert asi == 1 and series == [Subspace.full(2)]

    @given(algebras())
    def test_monotone_and_strata_bridge(self, a):
        series, asi = a.ann_series()
        assert len(series) == asi
        for lo, hi in zip(series, series[1:]):
            assert all(hi.member(v) for v in lo.basis_vectors()) and hi.dim > lo.dim
        strata = G.sink_strata(a.graph()).strata
        acc = set()
        for level, layer in enumerate(strata, start=1):
            acc |= layer
            assert series[level - 1] == Subspace.axes(a.n, acc)
