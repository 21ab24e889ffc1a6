import itertools

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from evolalg import exactla
from evolalg.exactla import (
    Mat,
    Rat,
    Subspace,
    kernel_basis,
    pivot_columns,
    rat,
    rref,
    solve,
    vec,
    vec_is_zero,
)


def brute_det(m: Mat) -> Rat:
    """Independent oracle: permutation expansion."""
    n = m.rows
    total = Rat(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = Rat(1)
        for i in range(n):
            prod *= m.at(i, perm[i])
        total += sign * prod
    return total


rationals = st.builds(Rat, st.integers(-4, 4), st.integers(1, 3))


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(lambda rows: Mat.from_rows(rows, cols=c))
        )
    )


square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: Mat.from_rows(rows, cols=n))
)


class TestRat:
    def test_parse(self):
        assert rat("2/4") == Rat(1, 2)
        assert rat(-3) == Rat(-3)
        assert rat("-3") == Rat(-3)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            rat(0.5)


class TestProducts:
    @given(matrices(), st.data())
    def test_matvec_and_product_match_sympy(self, m, data):
        v = data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols))
        sm = sympy.Matrix(m.rows, m.cols, [sympy.Rational(x) for x in m.entries])
        sv = sympy.Matrix(m.cols, 1, [sympy.Rational(x) for x in v])
        expected = tuple(Rat(int(c.p), int(c.q)) for c in sm * sv)
        assert m.matvec(v) == expected
        column = Mat.from_rows([[x] for x in v], cols=1)
        assert (m * column).entries == expected


class TestRref:
    def test_rank_one_forcing(self):
        assert rref(Mat.from_rows([[2, 4], [1, 2]])) == Mat.from_rows([[1, 2], [0, 0]])

    def test_identity_fixed(self):
        assert rref(Mat.identity(3)) == Mat.identity(3)

    def test_zero_matrix(self):
        z = Mat.from_rows([[0, 0], [0, 0]])
        assert rref(z) == z
        assert pivot_columns(z) == []

    @given(matrices())
    def test_idempotent(self, m):
        assert rref(rref(m)) == rref(m)

    @given(matrices(), st.randoms(use_true_random=False))
    def test_canonical_under_row_operations(self, m, rng):
        rows = m.to_rows()
        for _ in range(4):
            i, j = rng.randrange(m.rows), rng.randrange(m.rows)
            c = Rat(rng.randint(-3, 3))
            if i != j:
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            rng.shuffle(rows)
        assert rref(Mat.from_rows(rows, cols=m.cols)) == rref(m)

    @given(matrices())
    def test_row_space_preserved(self, m):
        r = rref(m)
        original = Subspace.span([m.row(i) for i in range(m.rows)], m.cols)
        reduced = Subspace.span(
            [r.row(i) for i in range(r.rows) if not vec_is_zero(r.row(i))], m.cols
        )
        assert original == reduced


class TestKernel:
    def test_hand_elimination_example(self):
        k = kernel_basis(Mat.from_rows([[1, -1], [1, -1]]))
        assert k == Subspace.span([[1, 1]], 2)

    def test_identity_has_zero_kernel(self):
        assert kernel_basis(Mat.identity(3)) == Subspace.zero(3)

    def test_zero_matrix_has_full_kernel(self):
        assert kernel_basis(Mat.from_rows([[0, 0], [0, 0]])) == Subspace.full(2)

    @given(matrices())
    def test_kernel_vectors_annihilate(self, m):
        k = kernel_basis(m)
        for v in k.basis_vectors():
            assert vec_is_zero(m.matvec(v))

    @given(matrices())
    @settings(max_examples=40)
    def test_rank_nullity(self, m):
        sm = sympy.Matrix(m.rows, m.cols, [sympy.Rational(x) for x in m.entries])
        assert sm.rank() + kernel_basis(m).dim == m.cols

    @given(square_matrices)
    def test_det_vs_kernel(self, m):
        assert (brute_det(m) != 0) == (kernel_basis(m).dim == 0)

    @given(matrices())
    @settings(max_examples=40)
    def test_matches_sympy_nullspace(self, m):
        sm = sympy.Matrix(m.rows, m.cols, [sympy.Rational(x) for x in m.entries])
        theirs = [
            tuple(Rat(int(c.p), int(c.q)) for c in v) for v in sm.nullspace()
        ]
        assert Subspace.span(theirs, m.cols) == kernel_basis(m)


class TestSolve:
    def test_identity(self):
        assert solve(Mat.identity(2), vec([3, 4])) == vec([3, 4])

    def test_inconsistent(self):
        assert solve(Mat.from_rows([[1, 1], [1, 1]]), vec([1, 0])) is None

    def test_underdetermined_free_vars_zero(self):
        assert solve(Mat.from_rows([[1, 0], [0, 0]]), vec([5, 0])) == vec([5, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve(Mat.identity(2), vec([1, 2, 3]))

    @given(matrices(), st.data())
    def test_solution_or_certified_inconsistent(self, m, data):
        x = vec(data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols)))
        b = m.matvec(x)
        got = solve(m, b)
        assert got is not None
        assert m.matvec(got) == b

    @given(matrices(), st.data())
    @settings(max_examples=40)
    def test_none_only_when_inconsistent(self, m, data):
        b = vec(data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows)))
        got = solve(m, b)
        sm = sympy.Matrix(m.rows, m.cols, [sympy.Rational(x) for x in m.entries])
        sb = sympy.Matrix(m.rows, 1, [sympy.Rational(x) for x in b])
        consistent = sm.row_join(sb).rank() == sm.rank()
        if got is None:
            assert not consistent
        else:
            assert consistent and m.matvec(got) == b


class TestSubspace:
    def test_member(self):
        s = Subspace.span([[1, 1]], 2)
        assert s.member(vec([2, 2]))
        assert not s.member(vec([1, 0]))

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            Subspace.full(2).member(vec([1, 0, 0]))

    def test_axes(self):
        s = Subspace.axes(3, [2, 0])
        assert s.dim == 2
        assert s.member(vec([1, 0, 0])) and s.member(vec([0, 0, 5]))
        assert not s.member(vec([0, 1, 0]))

    def test_axes_runs_no_elimination(self, monkeypatch):
        calls = []
        monkeypatch.setattr(exactla, "rref", lambda m: calls.append(m) or rref(m))
        assert Subspace.axes(4, [3, 1, 3]).dim == 2
        assert calls == []

    @given(st.data())
    def test_axes_is_the_span_of_its_unit_rows(self, data):
        n = data.draw(st.integers(0, 6))
        indices = data.draw(st.lists(st.integers(0, n - 1), max_size=8)) if n else []
        rows = [[1 if j == i else 0 for j in range(n)] for i in indices]
        assert Subspace.axes(n, indices) == Subspace.span(rows, n)

    @given(st.lists(st.lists(rationals, min_size=3, max_size=3), max_size=3))
    def test_canonical_equality(self, rows):
        a = Subspace.span(rows, 3)
        doubled = [[2 * x for x in r] for r in rows]
        assert Subspace.span(doubled + rows, 3) == a
