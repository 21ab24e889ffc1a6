"""Sparse multivariate polynomials over Q and a small Buchberger engine.

The monomial order is graded reverse lexicographic throughout and is not
configurable.  The engine is sized for the quadratic systems produced by the
symbolic square of a left-multiplication matrix; it enforces a hard variable
bound and an S-pair reduction cap, and failing either raises EngineLimitError
instead of hanging.

S-pairs are kept by the criteria of Gebauer and Moeller (J. Symb. Comp. 6,
1988) in the ``UPDATE`` form of Becker and Weispfenning: of the new pairs of
an element h, one per lcm survives, none whose lcm another new pair's lcm
properly divides or a coprime pair shares, and no coprime pair; a queued
pair (i, j) goes when lm(h) divides its lcm and differs from lcm(i, h) and
lcm(j, h).  The pairs left come off a heap in ascending grevlex order of
their lcm.  The reduction cap counts only the pairs actually reduced.

One early-stopping loop, ``_buchberger``, answers every question asked of
an ideal.  ``variety_is_only_origin`` on homogeneous input stops it as soon
as the leading monomials held so far include a constant or a pure power of
every variable: they all lie in LT(I), so k[x]/I is finite dimensional, and
a homogeneous ideal with finitely many zeros vanishes only at the origin.
``in_radical`` stops it at the first constant leading monomial.  The tests
check both early stops against a completed, reduced Groebner basis, which
only ``tests/reference.py`` builds.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import EngineLimitError
from .exactla import ONE, Rat, ZERO, rat

Monom = tuple[int, ...]

DEFAULT_VAR_BOUND = 8
DEFAULT_REDUCTION_CAP = 20000


def grevlex_key(m: Monom):
    """Sort key realizing grevlex: higher total degree wins, ties go to the
    monomial whose rightmost differing exponent is smaller."""
    return (sum(m), tuple(-e for e in reversed(m)))


def _monom_mul(a: Monom, b: Monom) -> Monom:
    return tuple(x + y for x, y in zip(a, b))


def _monom_divides(a: Monom, b: Monom) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _monom_div(a: Monom, b: Monom) -> Monom:
    return tuple(x - y for x, y in zip(a, b))


def _monom_lcm(a: Monom, b: Monom) -> Monom:
    return tuple(max(x, y) for x, y in zip(a, b))


class MPoly:
    """Polynomial as a map from exponent tuples to nonzero rational coefficients."""

    __slots__ = ("nvars", "terms", "_lm")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean: dict[Monom, Rat] = {}
        if terms:
            for m, c in (terms.items() if isinstance(terms, dict) else terms):
                if len(m) != nvars:
                    raise ValueError("exponent tuple length does not match variable count")
                c = rat(c)
                if c:
                    acc = clean.get(m, ZERO) + c
                    if acc:
                        clean[m] = acc
                    elif m in clean:
                        del clean[m]
        self.terms = clean
        self._lm = None  # the leading monomial, filled on first use

    @staticmethod
    def _of(nvars: int, terms: dict) -> "MPoly":
        """Trusted constructor: ``terms`` maps exponent tuples of length
        ``nvars`` to nonzero coefficients and is taken over, not copied."""
        p = MPoly.__new__(MPoly)
        p.nvars = nvars
        p.terms = terms
        p._lm = None
        return p

    @staticmethod
    def const(nvars: int, c) -> "MPoly":
        return MPoly(nvars, {(0,) * nvars: rat(c)})

    @staticmethod
    def variable(nvars: int, i: int) -> "MPoly":
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return MPoly(nvars, {exps: ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, MPoly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _check(self, other: "MPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            acc = out.get(m, ZERO) + c
            if acc:
                out[m] = acc
            elif m in out:
                del out[m]
        return MPoly._of(self.nvars, out)

    def __neg__(self) -> "MPoly":
        return MPoly._of(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def scale(self, c) -> "MPoly":
        c = rat(c)
        return MPoly._of(self.nvars, {} if c == 0 else {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Rat)):
            return self.scale(other)
        self._check(other)
        out: dict[Monom, Rat] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _monom_mul(m1, m2)
                acc = out.get(m, ZERO) + c1 * c2
                if acc:
                    out[m] = acc
                elif m in out:
                    del out[m]
        return MPoly._of(self.nvars, out)

    __rmul__ = __mul__

    def mul_term(self, exps: Monom, c: Rat) -> "MPoly":
        return MPoly._of(
            self.nvars, {_monom_mul(m, exps): c * v for m, v in self.terms.items()} if c else {}
        )

    def leading_monomial(self) -> Monom:
        """The grevlex-largest exponent tuple, found once per polynomial."""
        if self._lm is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading monomial")
            self._lm = max(self.terms, key=grevlex_key)
        return self._lm

    def leading_coeff(self) -> Rat:
        return self.terms[self.leading_monomial()]

    def monic(self) -> "MPoly":
        if not self.terms:
            return self
        return self.scale(ONE / self.leading_coeff())

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def extend(self, nvars: int) -> "MPoly":
        """Reinterpret in a larger ring by padding exponents with zeros."""
        if nvars < self.nvars:
            raise ValueError("cannot shrink the variable count")
        pad = (0,) * (nvars - self.nvars)
        return MPoly(nvars, {m + pad: c for m, c in self.terms.items()})

    def sort_key(self):
        return tuple(
            sorted(((grevlex_key(m), m, c) for m, c in self.terms.items()), reverse=True)
        )

    def __str__(self):
        if not self.terms:
            return "0"
        names = [f"x{i + 1}" for i in range(self.nvars)]
        parts = []
        for m in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[m]
            factors = [
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(m)
                if e
            ]
            body = "*".join(factors)
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


@dataclass(frozen=True)
class PolyIdeal:
    nvars: int
    generators: tuple[MPoly, ...]

    def __post_init__(self):
        for g in self.generators:
            if g.nvars != self.nvars:
                raise ValueError("generator variable count mismatch")
            if g.is_zero():
                raise ValueError("zero generator")

    @staticmethod
    def of(nvars: int, gens: Iterable[MPoly]) -> "PolyIdeal":
        cleaned = sorted({g for g in gens if not g.is_zero()}, key=MPoly.sort_key)
        return PolyIdeal(nvars, tuple(cleaned))


def _descending(m: Monom):
    """Heap key under which the grevlex-largest monomial comes out first."""
    return (-sum(m), m[::-1])


def normal_form(p: MPoly, polys: Sequence[MPoly]) -> MPoly:
    """Remainder of p under multivariate division by the given polynomials.

    Reducers are tried in list order against the current grevlex-largest
    reducible term, so the result is deterministic; it is the canonical normal
    form whenever the polynomials form a Groebner basis.
    """
    reducers = [(g.leading_monomial(), g.terms) for g in polys if g]
    current = dict(p.terms)
    order = [(_descending(m), m) for m in current]
    heapq.heapify(order)
    remainder: dict[Monom, Rat] = {}
    while order:
        m = heapq.heappop(order)[1]
        c = current.pop(m, None)
        if c is None:
            continue  # cancelled, or pushed twice
        for lm, terms in reducers:
            if _monom_divides(lm, m):
                break
        else:
            remainder[m] = c
            continue
        shift = _monom_div(m, lm)
        factor = c / terms[lm]
        for mg, cg in terms.items():
            if mg == lm:
                continue
            key = _monom_mul(mg, shift)
            old = current.get(key)
            if old is None:
                current[key] = -factor * cg
                heapq.heappush(order, (_descending(key), key))
            else:
                acc = old - factor * cg
                if acc:
                    current[key] = acc
                else:
                    del current[key]
    return MPoly._of(p.nvars, remainder)


def s_polynomial(f: MPoly, g: MPoly) -> MPoly:
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = _monom_lcm(lf, lg)
    left = f.mul_term(_monom_div(lcm, lf), ONE / f.terms[lf])
    right = g.mul_term(_monom_div(lcm, lg), ONE / g.terms[lg])
    return left - right


def _buchberger(ideal: PolyIdeal, var_bound: int) -> Iterator[tuple[MPoly, Monom]]:
    """Buchberger's algorithm with the pair bookkeeping of Gebauer and Moeller.

    Yields each basis element (monic) with its leading monomial as it joins
    the basis: the input generators first, then every nonzero S-pair
    remainder.  Once exhausted, the elements yielded form a Groebner basis of
    the ideal, so a caller may stop early on what the leading monomials held
    so far already prove.

    Each new element h goes through ``UPDATE`` (Becker and Weispfenning,
    *Groebner Bases*, 1993):

    - of the new pairs (g, h), one is kept per lcm; a pair goes when another
      new pair's lcm properly divides its lcm, or when a pair with coprime
      leading monomials has the same lcm, and then the coprime pairs go
      (their S-polynomials reduce to zero);
    - a queued pair (i, j) goes when lm(h) divides lcm(i, j) and differs from
      both lcm(i, h) and lcm(j, h) (the chain criterion);
    - every reducer whose leading monomial lm(h) divides leaves the set of
      reducers; its queued pairs stay.

    Pairs come off a heap in ascending grevlex order of their lcm, ties by
    index.
    """
    if ideal.nvars > var_bound:
        raise EngineLimitError(f"variable bound exceeded: {ideal.nvars} > {var_bound}")
    inputs = sorted({g.monic() for g in ideal.generators if g}, key=MPoly.sort_key)
    basis: list[MPoly] = []
    lms: list[Monom] = []
    active: list[int] = []  # indices of the reducers, in basis order
    queue: list[tuple] = []  # heap of (grevlex_key(lcm), i, j, lcm)
    reductions = 0
    while True:
        if len(basis) < len(inputs):  # the input generators join first
            h = inputs[len(basis)]
        elif queue:
            _, i, j, _ = heapq.heappop(queue)
            reductions += 1
            if reductions > DEFAULT_REDUCTION_CAP:
                raise EngineLimitError(f"S-pair reduction cap exceeded ({DEFAULT_REDUCTION_CAP})")
            h = normal_form(s_polynomial(basis[i], basis[j]), [basis[g] for g in active])
            if h.is_zero():
                continue
            h = h.monic()
        else:
            return
        t = len(basis)
        lm_h = h.leading_monomial()
        by_lcm: dict[Monom, list[int]] = {}
        for g in active:
            by_lcm.setdefault(_monom_lcm(lms[g], lm_h), []).append(g)
        coprime = {
            lcm
            for lcm, gs in by_lcm.items()
            if any(lcm == _monom_mul(lms[g], lm_h) for g in gs)
        }
        new = [
            (grevlex_key(lcm), gs[0], t, lcm)
            for lcm, gs in by_lcm.items()
            if lcm not in coprime
            and not any(o != lcm and _monom_divides(o, lcm) for o in by_lcm)
        ]
        queue = [
            pair
            for pair in queue
            if not _monom_divides(lm_h, pair[3])
            or _monom_lcm(lms[pair[1]], lm_h) == pair[3]
            or _monom_lcm(lms[pair[2]], lm_h) == pair[3]
        ] + new
        heapq.heapify(queue)
        active = [g for g in active if not _monom_divides(lm_h, lms[g])] + [t]
        basis.append(h)
        lms.append(lm_h)
        yield h, lm_h


def in_radical(p: MPoly, ideal: PolyIdeal) -> bool:
    """Radical membership by adjoining z: p lies in the radical of I exactly
    when J = <I, 1 - z*p> is the unit ideal.  The Buchberger loop on J stops
    at the first constant leading monomial, and that is exact: such a
    monomial leads a nonzero constant of J, so 1 lies in J; and when the run
    completes, its leading monomials generate LT(J), so if none is constant,
    1 is not in LT(J) and J is not the unit ideal.
    """
    if p.is_zero():
        return True
    n = ideal.nvars
    gens = [g.extend(n + 1) for g in ideal.generators]
    z = MPoly.variable(n + 1, n)
    gens.append(MPoly.const(n + 1, 1) - z * p.extend(n + 1))
    run = _buchberger(PolyIdeal.of(n + 1, gens), DEFAULT_VAR_BOUND + 1)
    return any(not any(lm) for _, lm in run)  # stops at the first constant


def variety_is_only_origin(ideal: PolyIdeal) -> bool:
    """Decide whether the common zero locus over the algebraic closure is {0}.

    Equivalently, every variable lies in the radical of the ideal.  For
    homogeneous input one Buchberger run suffices, and it stops as soon as
    the leading monomials yielded so far include a constant or a pure power
    of every variable.  That is exact: each of them is the leading monomial
    of an element of I, hence lies in LT(I), so only finitely many monomials
    lie outside LT(I) and k[x]/I is finite dimensional.  Then V(I) is finite,
    and a homogeneous ideal with a point p != 0 vanishes on the whole line
    through p, so V(I) = {0}.  Conversely, when the run completes, its
    leading monomials generate LT(I), so a missing pure power leaves
    infinitely many standard monomials and a point other than the origin:
    a ``False`` needs the completed run.  Otherwise each variable is tested
    by radical membership.
    """
    if ideal.nvars == 0:
        return True
    if not ideal.generators:
        return False
    if all(g.is_homogeneous() for g in ideal.generators):
        powers: set[int] = set()
        for _, lm in _buchberger(ideal, DEFAULT_VAR_BOUND):
            support = [i for i, e in enumerate(lm) if e]
            if not support:
                return True
            if len(support) == 1:
                powers.add(support[0])
                if len(powers) == ideal.nvars:
                    return True
        return False
    return all(
        in_radical(MPoly.variable(ideal.nvars, i), ideal) for i in range(ideal.nvars)
    )


def n2_entries(algebra) -> list[MPoly]:
    """Entries of the squared symbolic left-multiplication matrix.

    With one variable per basis vector, the matrix N has N[k][i] = w_ki * x_i,
    and entry (r, c) of N^2 is sum_k w_rk * w_kc * x_k * x_c, one distinct
    monomial per k.  An element is an absolute zero divisor exactly when all
    entries vanish at its coordinates.
    """
    n = algebra.n
    m = algebra.M
    out = []
    for r in range(n):
        for c in range(n):
            terms: dict[Monom, Rat] = {}
            for k in range(n):
                coeff = m.at(r, k) * m.at(k, c)
                if coeff:
                    exps = [0] * n
                    exps[k] += 1
                    exps[c] += 1
                    terms[tuple(exps)] = coeff
            out.append(MPoly(n, terms))
    return out


def n2_ideal(algebra) -> PolyIdeal:
    return PolyIdeal.of(algebra.n, n2_entries(algebra))
