import json

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from evolalg import analysis, cli, poly
from evolalg.errors import EngineLimitError
from evolalg.exactla import Rat
from evolalg.poly import (
    MPoly,
    PolyIdeal,
    grevlex_key,
    in_radical,
    n2_entries,
    n2_ideal,
    normal_form,
    variety_is_only_origin,
)

from conftest import COMPLETE2_ROWS, DEG4_ROWS, LINE4_ROWS, alg
from reference import evaluate, groebner, is_unit_ideal, only_origin_homogeneous, substitute


def mono(nvars, exps, c=1):
    return MPoly(nvars, {tuple(exps): c})


def to_sympy(p: MPoly, symbols):
    expr = sympy.Integer(0)
    for m, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(symbols, m):
            term *= s**e
        expr += term
    return expr


def from_sympy(expr, symbols):
    poly = sympy.Poly(expr, *symbols)
    terms = {}
    for exps, coeff in poly.terms():
        q = sympy.Rational(coeff)
        terms[tuple(int(e) for e in exps)] = Rat(int(q.p), int(q.q))
    return MPoly(len(symbols), terms)


def dense_n2_ideal(seed):
    """The ideal of one ``groebner-engine`` benchmark report: 5 variables, 25 generators."""
    a, _ = cli.parse_algebra_text(json.dumps(cli.random_algebra_file(5, 1.0, seed)))
    return n2_ideal(a)


def sympy_reduced_basis(nvars, gens) -> set:
    symbols = sympy.symbols(f"x1:{nvars + 1}")
    if len(symbols) != nvars:
        symbols = (symbols,) if nvars == 1 else symbols
    theirs = sympy.groebner([to_sympy(p, symbols) for p in gens], *symbols, order="grevlex")
    expected = {from_sympy(e, symbols).monic() for e in theirs.exprs}
    return set() if expected == {MPoly(nvars)} else expected


# ideals whose basis needs a pair that the chain criterion keeps only because
# lcm(i, h) or lcm(j, h) equals lcm(i, j)
CHAIN_CASES = [
    (2, [{(3, 0): 2, (2, 0): 1, (0, 2): -2}, {(0, 3): -2}, {(1, 0): -1, (3, 0): 1},
         {(2, 0): -1, (0, 0): 2, (1, 0): -1}]),
    (3, [{(0, 3, 0): 2, (0, 0, 0): -2}, {(1, 1, 1): -1, (1, 0, 1): 2}, {(1, 2, 0): -1},
         {(1, 1, 0): -2}]),
    (3, [{(2, 0, 0): -2, (0, 1, 0): 2}, {(0, 0, 0): 1, (2, 0, 0): 2},
         {(1, 0, 1): 1, (1, 0, 0): -2}]),
    (3, [{(0, 1, 2): 1}, {(2, 0, 1): -2, (3, 0, 0): -2}, {(1, 0, 0): 2, (0, 2, 1): -1},
         {(2, 0, 1): -2, (1, 1, 0): -1, (0, 0, 2): -2}]),
]


rationals = st.builds(Rat, st.integers(-3, 3), st.integers(1, 2))


def polys(nvars, max_deg=2, max_terms=4):
    exps = st.lists(st.integers(0, max_deg), min_size=nvars, max_size=nvars).filter(
        lambda e: sum(e) <= max_deg
    )
    return st.lists(
        st.tuples(exps.map(tuple), rationals), max_size=max_terms
    ).map(lambda ts: MPoly(nvars, ts))


def quadratic_forms(nvars):
    exps = st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars).filter(
        lambda e: sum(e) == 2
    )
    return st.lists(st.tuples(exps.map(tuple), rationals), max_size=4).map(
        lambda ts: MPoly(nvars, ts)
    )


class TestGrevlex:
    def test_degree_dominates(self):
        assert grevlex_key((2, 0)) > grevlex_key((0, 1))

    def test_classic_tie_break(self):
        # xy^2 beats x^2z in grevlex although lex says otherwise
        assert grevlex_key((1, 2, 0)) > grevlex_key((2, 0, 1))

    def test_variable_order(self):
        x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
        assert grevlex_key(x) > grevlex_key(y) > grevlex_key(z)

    @given(polys(3))
    def test_leading_monomial_is_max(self, p):
        if p.is_zero():
            return
        lm = p.leading_monomial()
        assert all(grevlex_key(lm) >= grevlex_key(m) for m in p.terms)

    def test_leading_monomial_is_found_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(poly, "grevlex_key", lambda m: calls.append(m) or grevlex_key(m))
        p = MPoly(3, {(2, 0, 0): 1, (1, 1, 0): 2, (0, 1, 1): 3, (0, 0, 1): 4})
        assert p.leading_monomial() == p.leading_monomial() == (2, 0, 0)
        assert len(calls) == len(p.terms)


class TestArithmetic:
    @given(polys(3), polys(3), polys(3))
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert (p + q) - q == p

    @given(polys(3), polys(3), st.lists(rationals, min_size=3, max_size=3))
    def test_evaluation_is_a_homomorphism(self, p, q, point):
        assert evaluate(p * q, point) == evaluate(p, point) * evaluate(q, point)
        assert evaluate(p + q, point) == evaluate(p, point) + evaluate(q, point)

    def test_substitute(self):
        # x^2 at x -> u + v
        p = mono(1, (2,))
        u_plus_v = MPoly(2, {(1, 0): 1, (0, 1): 1})
        expanded = substitute(p, [u_plus_v])
        assert expanded == MPoly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


class TestN2Entries:
    def test_deg4_corner_entry(self):
        entries = n2_entries(alg(DEG4_ROWS))
        # entry (row 0, col 3) is minus the product of the first and last variables
        assert entries[0 * 4 + 3] == mono(4, (1, 0, 0, 1), -1)

    def test_line4_center_entry(self):
        entries = n2_entries(alg(LINE4_ROWS))
        assert entries[2 * 4 + 2] == mono(4, (0, 0, 2, 0))

    def test_zero_matrix(self):
        entries = n2_entries(alg([[0, 0], [0, 0]]))
        assert all(p.is_zero() for p in entries)

    def test_vanishes_at_witnesses(self):
        for rows, witness in ((COMPLETE2_ROWS, (1, 1)), (DEG4_ROWS, (0, 0, 0, 1))):
            a = alg(rows)
            for p in n2_entries(a):
                assert evaluate(p, witness) == 0

    @given(st.data())
    @settings(max_examples=40)
    def test_vanishing_matches_azd(self, data):
        n = data.draw(st.integers(1, 3))
        rows = data.draw(
            st.lists(
                st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
        a = alg(rows)
        x = tuple(data.draw(st.lists(rationals, min_size=n, max_size=n)))
        vanishes = all(evaluate(p, x) == 0 for p in n2_entries(a))
        assert vanishes == analysis.is_absolute_zero_divisor(a, x)


class TestGroebner:
    def test_monomial_ideal_is_fixed(self):
        gens = [mono(2, (2, 0)), mono(2, (1, 1)), mono(2, (0, 2))]
        basis = groebner(PolyIdeal.of(2, gens))
        assert set(basis.generators) == set(gens)

    def test_linear_reduction(self):
        x = MPoly.variable(2, 0)
        y = MPoly.variable(2, 1)
        basis = groebner(PolyIdeal.of(2, [x - y, y]))
        assert set(basis.generators) == {x, y}

    def test_deg4_ideal_reduced_basis(self):
        basis = groebner(n2_ideal(alg(DEG4_ROWS)))
        expected = {
            mono(4, (2, 0, 0, 0)),
            mono(4, (0, 2, 0, 0)),
            mono(4, (0, 0, 2, 0)),
            mono(4, (1, 0, 1, 0)),
            mono(4, (0, 1, 1, 0)),
            mono(4, (1, 0, 0, 1)),
            mono(4, (0, 1, 0, 1)),
            mono(4, (0, 0, 1, 1)),
        }
        assert set(basis.generators) == expected

    def test_generators_reduce_to_zero(self):
        ideal = n2_ideal(alg(LINE4_ROWS))
        basis = groebner(ideal)
        for g in ideal.generators:
            assert normal_form(g, basis.generators).is_zero()

    def test_var_bound(self):
        gens = [MPoly.variable(9, 0)]
        with pytest.raises(EngineLimitError):
            groebner(PolyIdeal.of(9, gens))

    def test_reduction_cap_reported(self, monkeypatch):
        # cyclic-3 needs a few honest S-pair reductions
        monkeypatch.setattr(poly, "DEFAULT_REDUCTION_CAP", 1)
        x, y, z = (MPoly.variable(3, i) for i in range(3))
        gens = [x + y + z, x * y + y * z + z * x, x * y * z - MPoly.const(3, 1)]
        with pytest.raises(EngineLimitError, match=r"^S-pair reduction cap exceeded \(1\)$"):
            groebner(PolyIdeal.of(3, gens))

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_sympy_reduced_basis(self, data):
        nvars = data.draw(st.integers(1, 3))
        gens = [
            p
            for p in data.draw(st.lists(polys(nvars), min_size=1, max_size=3))
            if not p.is_zero()
        ]
        if not gens:
            return
        ours = groebner(PolyIdeal.of(nvars, gens))
        assert set(ours.generators) == sympy_reduced_basis(nvars, gens)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_sympy_on_dense_five_dim_n2_ideals(self, seed):
        ideal = dense_n2_ideal(seed)
        assert set(groebner(ideal).generators) == sympy_reduced_basis(5, ideal.generators)

    @pytest.mark.parametrize("nvars, gens", CHAIN_CASES)
    def test_matches_sympy_where_the_chain_criterion_must_keep_a_pair(self, nvars, gens):
        gens = [MPoly(nvars, g) for g in gens]
        ours = groebner(PolyIdeal.of(nvars, gens))
        assert set(ours.generators) == sympy_reduced_basis(nvars, gens)

    def test_pair_criteria_and_early_stop_bound_the_work(self, monkeypatch):
        # without the criteria both calls reduce 404 S-polynomials here
        calls = []
        s_polynomial = poly.s_polynomial
        monkeypatch.setattr(
            poly, "s_polynomial", lambda f, g: calls.append(None) or s_polynomial(f, g)
        )
        ideal = dense_n2_ideal(0)
        assert variety_is_only_origin(ideal)
        assert len(calls) <= 20
        calls.clear()
        groebner(ideal)
        assert 0 < len(calls) <= 80


class TestNormalForm:
    def test_membership(self):
        x = MPoly.variable(2, 0)
        assert normal_form(x, PolyIdeal.of(2, [x]).generators).is_zero()

    def test_non_membership(self):
        x = MPoly.variable(2, 0)
        y = MPoly.variable(2, 1)
        assert normal_form(x, PolyIdeal.of(2, [y]).generators) == x

    def test_substitution_then_reduction(self):
        x = MPoly.variable(2, 0)
        y = MPoly.variable(2, 1)
        basis = groebner(PolyIdeal.of(2, [x - y, y * y]))
        assert normal_form(x * x, basis.generators).is_zero()

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_ideal_members_reduce_to_zero(self, data):
        nvars = data.draw(st.integers(1, 3))
        gens = [p for p in data.draw(st.lists(polys(nvars), min_size=1, max_size=3)) if p]
        if not gens:
            return
        basis = groebner(PolyIdeal.of(nvars, gens))
        combo = MPoly(nvars)
        for g in gens:
            combo = combo + data.draw(polys(nvars, max_deg=1)) * g
        assert normal_form(combo, basis.generators).is_zero()


class TestVarietyOrigin:
    def test_nilpotent_variables(self):
        gens = [mono(2, (2, 0)), mono(2, (0, 2))]
        assert variety_is_only_origin(PolyIdeal.of(2, gens))

    def test_deg4_has_free_direction(self):
        ideal = n2_ideal(alg(DEG4_ROWS))
        assert not variety_is_only_origin(ideal)
        assert not only_origin_homogeneous(groebner(ideal))

    def test_line_is_not_origin(self):
        x = MPoly.variable(2, 0)
        y = MPoly.variable(2, 1)
        assert not variety_is_only_origin(PolyIdeal.of(2, [x - y]))

    def test_non_homogeneous_ideals_take_the_radical_route(self):
        x = MPoly.variable(2, 0)
        y = MPoly.variable(2, 1)
        # x^2 = y and y^2 = 0 force y = 0, then x = 0
        assert variety_is_only_origin(PolyIdeal.of(2, [x * x - y, y * y]))
        # x = y^2 is a parabola through the origin
        assert not variety_is_only_origin(PolyIdeal.of(2, [x - y * y]))

    def test_radical_membership_on_deg4(self):
        ideal = n2_ideal(alg(DEG4_ROWS))
        for i in range(3):
            assert in_radical(MPoly.variable(4, i), ideal)
        assert not in_radical(MPoly.variable(4, 3), ideal)

    def test_radical_membership_stops_at_the_first_constant(self, monkeypatch):
        # the completed run reduces 15 S-pairs here
        calls = []
        s_polynomial = poly.s_polynomial
        monkeypatch.setattr(
            poly, "s_polynomial", lambda f, g: calls.append(None) or s_polynomial(f, g)
        )
        assert in_radical(MPoly.variable(4, 2), n2_ideal(alg(DEG4_ROWS)))
        assert len(calls) <= 12

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_radical_membership_agrees_with_the_completed_basis(self, data):
        nvars = data.draw(st.integers(1, 3))
        gens = [p for p in data.draw(st.lists(polys(nvars), min_size=1, max_size=3)) if p]
        p = data.draw(polys(nvars, max_deg=1))
        if not gens or p.is_zero():
            return
        z = MPoly.variable(nvars + 1, nvars)
        adjoined = [g.extend(nvars + 1) for g in gens]
        adjoined.append(MPoly.const(nvars + 1, 1) - z * p.extend(nvars + 1))
        basis = groebner(PolyIdeal.of(nvars + 1, adjoined))
        assert in_radical(p, PolyIdeal.of(nvars, gens)) == is_unit_ideal(basis)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_homogeneous_shortcut_agrees_with_radical_route(self, data):
        nvars = data.draw(st.integers(1, 3))
        forms = st.lists(quadratic_forms(nvars), min_size=1, max_size=3)
        gens = [p for p in data.draw(forms) if p]
        if not gens:
            return
        ideal = PolyIdeal.of(nvars, gens)
        fast = variety_is_only_origin(ideal)
        slow = all(in_radical(MPoly.variable(nvars, i), ideal) for i in range(nvars))
        assert fast == slow

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_early_stop_agrees_with_the_completed_basis(self, data):
        nvars = data.draw(st.integers(1, 4))
        forms = st.lists(quadratic_forms(nvars), min_size=1, max_size=nvars + 1)
        gens = [p for p in data.draw(forms) if p]
        if not gens:
            return
        ideal = PolyIdeal.of(nvars, gens)
        basis = groebner(ideal)
        assert variety_is_only_origin(ideal) == (
            is_unit_ideal(basis) or only_origin_homogeneous(basis)
        )
