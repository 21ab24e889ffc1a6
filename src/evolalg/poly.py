"""Sparse multivariate polynomials over Q and a small Buchberger engine.

The monomial order is graded reverse lexicographic throughout and is not
configurable.  The engine is sized for the quadratic systems produced by the
symbolic square of a left-multiplication matrix; it enforces a hard variable
bound and an S-pair reduction cap, and failing either raises EngineLimitError
instead of hanging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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

    __slots__ = ("nvars", "terms")

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

    @staticmethod
    def zero(nvars: int) -> "MPoly":
        return MPoly(nvars)

    @staticmethod
    def const(nvars: int, c) -> "MPoly":
        return MPoly(nvars, {(0,) * nvars: rat(c)})

    @staticmethod
    def variable(nvars: int, i: int) -> "MPoly":
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return MPoly(nvars, {exps: ONE})

    @staticmethod
    def monomial(nvars: int, exps: Monom, c=1) -> "MPoly":
        return MPoly(nvars, {tuple(exps): rat(c)})

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
        p = MPoly.__new__(MPoly)
        p.nvars = self.nvars
        p.terms = out
        return p

    def __neg__(self) -> "MPoly":
        p = MPoly.__new__(MPoly)
        p.nvars = self.nvars
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def scale(self, c) -> "MPoly":
        c = rat(c)
        p = MPoly.__new__(MPoly)
        p.nvars = self.nvars
        p.terms = {} if c == 0 else {m: c * v for m, v in self.terms.items()}
        return p

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
        p = MPoly.__new__(MPoly)
        p.nvars = self.nvars
        p.terms = out
        return p

    __rmul__ = __mul__

    def mul_term(self, exps: Monom, c: Rat) -> "MPoly":
        p = MPoly.__new__(MPoly)
        p.nvars = self.nvars
        p.terms = {_monom_mul(m, exps): c * v for m, v in self.terms.items()} if c else {}
        return p

    def leading_monomial(self) -> Monom:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grevlex_key)

    def leading_coeff(self) -> Rat:
        return self.terms[self.leading_monomial()]

    def monic(self) -> "MPoly":
        if not self.terms:
            return self
        return self.scale(ONE / self.leading_coeff())

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def evaluate(self, point: Sequence) -> Rat:
        if len(point) != self.nvars:
            raise ValueError("point length does not match variable count")
        pt = [rat(x) for x in point]
        total = ZERO
        for m, c in self.terms.items():
            v = c
            for x, e in zip(pt, m):
                if e:
                    v *= x**e
            total += v
        return total

    def substitute(self, values: Sequence["MPoly"]) -> "MPoly":
        """Substitute a polynomial for every variable."""
        if len(values) != self.nvars:
            raise ValueError("need one replacement per variable")
        if not values:
            return MPoly(0, dict(self.terms))
        nvars = values[0].nvars
        out = MPoly.zero(nvars)
        for m, c in self.terms.items():
            term = MPoly.const(nvars, c)
            for v, e in zip(values, m):
                for _ in range(e):
                    term = term * v
            out = out + term
        return out

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


def normal_form(p: MPoly, basis) -> MPoly:
    """Remainder of p under multivariate division by the given polynomials.

    Reducers are tried in list order against the current grevlex-largest
    reducible term, so the result is deterministic; it is the canonical normal
    form whenever the basis is a Groebner basis.
    """
    gens = list(basis.generators) if isinstance(basis, PolyIdeal) else list(basis)
    gens = [g for g in gens if not g.is_zero()]
    lms = [g.leading_monomial() for g in gens]
    lcs = [g.terms[lm] for g, lm in zip(gens, lms)]
    current = dict(p.terms)
    remainder: dict[Monom, Rat] = {}
    while current:
        m = max(current, key=grevlex_key)
        c = current.pop(m)
        reducer = None
        for idx, lm in enumerate(lms):
            if _monom_divides(lm, m):
                reducer = idx
                break
        if reducer is None:
            remainder[m] = c
            continue
        g = gens[reducer]
        shift = _monom_div(m, lms[reducer])
        factor = c / lcs[reducer]
        for mg, cg in g.terms.items():
            if mg == lms[reducer]:
                continue
            key = _monom_mul(mg, shift)
            acc = current.get(key, ZERO) - factor * cg
            if acc:
                current[key] = acc
            elif key in current:
                del current[key]
    return MPoly(p.nvars, remainder)


def s_polynomial(f: MPoly, g: MPoly) -> MPoly:
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = _monom_lcm(lf, lg)
    left = f.mul_term(_monom_div(lcm, lf), ONE / f.terms[lf])
    right = g.mul_term(_monom_div(lcm, lg), ONE / g.terms[lg])
    return left - right


def groebner(ideal: PolyIdeal, *, var_bound: int = DEFAULT_VAR_BOUND) -> PolyIdeal:
    """Reduced grevlex Groebner basis via Buchberger with pair pruning."""
    if ideal.nvars > var_bound:
        raise EngineLimitError(
            f"variable bound exceeded: {ideal.nvars} > {var_bound}"
        )
    basis: list[MPoly] = []
    for g in sorted({g.monic() for g in ideal.generators if g}, key=MPoly.sort_key):
        basis.append(g)
    if not basis:
        return PolyIdeal(ideal.nvars, ())

    lms = [g.leading_monomial() for g in basis]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    reductions = 0
    while pairs:
        i, j = min(
            pairs,
            key=lambda p: (grevlex_key(_monom_lcm(lms[p[0]], lms[p[1]])), p),
        )
        pairs.remove((i, j))
        lcm = _monom_lcm(lms[i], lms[j])
        if lcm == _monom_mul(lms[i], lms[j]):
            continue  # coprime leading monomials reduce to zero
        reductions += 1
        if reductions > DEFAULT_REDUCTION_CAP:
            raise EngineLimitError(
                f"S-pair reduction cap exceeded ({DEFAULT_REDUCTION_CAP})"
            )
        r = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if r.is_zero():
            continue
        r = r.monic()
        basis.append(r)
        lms.append(r.leading_monomial())
        new = len(basis) - 1
        pairs.update((k, new) for k in range(new))

    # minimal basis: scan leading monomials upward, keeping only the ones not
    # divisible by an already kept (hence smaller or equal) leading monomial
    keep: list[int] = []
    for i in sorted(range(len(basis)), key=lambda k: (grevlex_key(lms[k]), k)):
        if not any(_monom_divides(lms[k], lms[i]) for k in keep):
            keep.append(i)
    minimal = [basis[i] for i in keep]
    # tail-reduce each element against the others to get the reduced basis
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        reduced.append(normal_form(g, others).monic() if others else g)
    reduced.sort(key=MPoly.sort_key)
    return PolyIdeal(ideal.nvars, tuple(reduced))


def is_unit_ideal(basis: PolyIdeal) -> bool:
    return any(g.total_degree() == 0 for g in basis.generators)


def in_radical(p: MPoly, ideal: PolyIdeal) -> bool:
    """Radical membership: adjoin z and test whether 1 - z*p makes the ideal trivial."""
    if p.is_zero():
        return True
    n = ideal.nvars
    gens = [g.extend(n + 1) for g in ideal.generators]
    z = MPoly.variable(n + 1, n)
    gens.append(MPoly.const(n + 1, 1) - z * p.extend(n + 1))
    basis = groebner(PolyIdeal.of(n + 1, gens), var_bound=DEFAULT_VAR_BOUND + 1)
    return is_unit_ideal(basis)


def _only_origin_homogeneous(basis: PolyIdeal) -> bool:
    """A homogeneous ideal vanishes only at the origin iff the quotient ring is
    finite dimensional, i.e. every variable has a pure power among the leading
    monomials of the reduced basis."""
    lms = [g.leading_monomial() for g in basis.generators]
    for i in range(basis.nvars):
        if not any(m[i] > 0 and all(e == 0 for k, e in enumerate(m) if k != i) for m in lms):
            return False
    return True


def variety_is_only_origin(ideal: PolyIdeal) -> bool:
    """Decide whether the common zero locus over the algebraic closure is {0}.

    Equivalently, every variable lies in the radical of the ideal.  For
    homogeneous input a single basis computation suffices (finiteness
    criterion); otherwise each variable is tested by radical membership.
    """
    if ideal.nvars == 0:
        return True
    if not ideal.generators:
        return False
    if all(g.is_homogeneous() for g in ideal.generators):
        basis = groebner(ideal)
        return is_unit_ideal(basis) or _only_origin_homogeneous(basis)
    return all(
        in_radical(MPoly.variable(ideal.nvars, i), ideal) for i in range(ideal.nvars)
    )


def n2_entries(algebra) -> list[MPoly]:
    """Entries of the squared symbolic left-multiplication matrix.

    With one variable per basis vector, the matrix N has N[k][i] = w_ki * x_i,
    and entry (r, c) of N^2 is sum_k w_rk * w_kc * x_k * x_c.  An element is an
    absolute zero divisor exactly when all entries vanish at its coordinates.
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
                    key = tuple(exps)
                    acc = terms.get(key, ZERO) + coeff
                    if acc:
                        terms[key] = acc
                    elif key in terms:
                        del terms[key]
            out.append(MPoly(n, terms))
    return out


def n2_ideal(algebra) -> PolyIdeal:
    return PolyIdeal.of(algebra.n, n2_entries(algebra))
