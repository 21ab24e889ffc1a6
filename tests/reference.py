"""Unpruned references that the engines are checked against.

Nothing in ``evolalg`` calls these; they are the plain definitions the
pruned or early-stopping engines must agree with:

* ``degeneracy_witnesses`` scans every support, where ``analysis.degeneracy``
  returns its first witness after a loop test, a rank test and a pruned
  search;
* ``groebner`` completes the Buchberger loop and builds the reduced basis,
  and ``is_unit_ideal`` reads off it whether 1 lies in the ideal, where
  ``poly.in_radical`` stops at the first constant leading monomial;
* ``only_origin_homogeneous`` reads the origin test off a completed
  Groebner basis, where ``poly.variety_is_only_origin`` stops early;
* ``evaluate`` and ``substitute`` apply a polynomial to a point or to other
  polynomials, to check the zero locus of ``poly.n2_entries`` directly;
* ``brute_hereditary`` lists every hereditary vertex set by testing every
  subset, where ``analysis.prime_ideals`` tries only the sets V - anc(v).
"""

from __future__ import annotations

import itertools
from typing import Sequence

from evolalg import graph as G
from evolalg.algebra import EvolutionAlgebra
from evolalg.analysis import _check_support_bound, _embed, _support_system
from evolalg.exactla import Rat, Vec, ZERO, rat
from evolalg.poly import (
    DEFAULT_VAR_BOUND,
    MPoly,
    Monom,
    PolyIdeal,
    _buchberger,
    _monom_divides,
    grevlex_key,
    normal_form,
)


def iter_supports(n: int):
    """Nonempty candidate supports, ascending by size then lexicographically."""
    for size in range(1, n + 1):
        yield from itertools.combinations(range(n), size)


def _support_witnesses(A: EvolutionAlgebra, supports):
    """Yields one witness per support with a nontrivial kernel, in the order
    of ``supports``.

    For x supported on gamma, (x e_i) x = x_i (e_i^2 x) for i in gamma, so
    dividing by x_i leaves the linear system x * e_i^2 = 0 on gamma.
    """
    for gamma in supports:
        kern = _support_system(A, gamma, gamma)
        if kern.dim:
            yield _embed(A.n, gamma, kern.basis.row(0))


def degeneracy_witnesses(A: EvolutionAlgebra) -> list[Vec]:
    """One canonical absolute zero divisor per support whose system has
    nontrivial kernel (the first kernel basis vector)."""
    _check_support_bound(A)
    return list(_support_witnesses(A, iter_supports(A.n)))


def groebner(ideal: PolyIdeal, *, var_bound: int = DEFAULT_VAR_BOUND) -> PolyIdeal:
    """Reduced grevlex Groebner basis.

    Buchberger's algorithm with the Gebauer-Moeller criteria (see
    ``poly._buchberger``) runs to completion; the basis it yields is then cut
    to a minimal one and tail-reduced.  The reduced basis is unique, so the
    criteria change only how much work is done, never the result.
    """
    # minimal basis: scan leading monomials upward, keeping only the ones not
    # divisible by an already kept (hence smaller or equal) leading monomial
    minimal: list[tuple[MPoly, Monom]] = []
    for g, lm in sorted(_buchberger(ideal, var_bound), key=lambda e: grevlex_key(e[1])):
        if not any(_monom_divides(m, lm) for _, m in minimal):
            minimal.append((g, lm))
    # tail-reduce each element against the others to get the reduced basis
    reduced = []
    for i, (g, _) in enumerate(minimal):
        others = [o for k, (o, _) in enumerate(minimal) if k != i]
        reduced.append(normal_form(g, others).monic() if others else g)
    reduced.sort(key=MPoly.sort_key)
    return PolyIdeal(ideal.nvars, tuple(reduced))


def is_unit_ideal(basis: PolyIdeal) -> bool:
    return any(max((sum(m) for m in g.terms), default=0) == 0 for g in basis.generators)


def only_origin_homogeneous(basis: PolyIdeal) -> bool:
    """A homogeneous ideal vanishes only at the origin iff the quotient ring is
    finite dimensional, i.e. every variable has a pure power among the leading
    monomials of the reduced basis.  The verdict read off a completed basis,
    which the early stop of ``variety_is_only_origin`` is tested against."""
    lms = [g.leading_monomial() for g in basis.generators]
    for i in range(basis.nvars):
        if not any(m[i] > 0 and all(e == 0 for k, e in enumerate(m) if k != i) for m in lms):
            return False
    return True


def evaluate(p: MPoly, point: Sequence) -> Rat:
    if len(point) != p.nvars:
        raise ValueError("point length does not match variable count")
    pt = [rat(x) for x in point]
    total = ZERO
    for m, c in p.terms.items():
        v = c
        for x, e in zip(pt, m):
            if e:
                v *= x**e
        total += v
    return total


def substitute(p: MPoly, values: Sequence[MPoly]) -> MPoly:
    """Substitute a polynomial for every variable."""
    if len(values) != p.nvars:
        raise ValueError("need one replacement per variable")
    if not values:
        return MPoly(0, dict(p.terms))
    nvars = values[0].nvars
    out = MPoly(nvars)
    for m, c in p.terms.items():
        term = MPoly.const(nvars, c)
        for v, e in zip(values, m):
            for _ in range(e):
                term = term * v
        out = out + term
    return out


def brute_hereditary(g: G.DiGraph) -> list[frozenset[int]]:
    """Every hereditary vertex set, ascending by size then lexicographically."""
    out = []
    for size in range(g.n + 1):
        for s in itertools.combinations(range(g.n), size):
            if G.is_hereditary(g, s):
                out.append(frozenset(s))
    return out
