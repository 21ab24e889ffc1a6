"""Verdict engines for evolution algebras.

Every engine is exact over Q.  Degeneracy is decided by enumerating supports:
for a fixed support the absolute-zero-divisor condition is linear, so the
answer is always definite.  Semiprimeness is three-valued:

* ``no`` comes with a concrete zero-square ideal, re-verified by direct
  multiplication;
* ``yes`` is certified over the algebraic closure (a zero-square ideal over Q
  would survive scalar extension, so an empty closure variety is conclusive);
* ``undetermined`` means some support admits a zero-square ideal over the
  closure but the bounded search found no rational point.  The reason is
  recorded in the certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional, Sequence

from . import graph as graphmod
from . import poly as polymod
from .algebra import BasicIdeal, EvolutionAlgebra, support
from .errors import EngineLimitError
from .exactla import (
    Mat,
    Rat,
    Subspace,
    Vec,
    ZERO,
    kernel_basis,
    solve,
    vec_is_zero,
)

YES = "yes"
NO = "no"
UNDETERMINED = "undetermined"

DEFAULT_SUPPORT_BOUND = 16
DEFAULT_HEIGHT_CAP = 50
DEFAULT_CENTROID_BOUND = 1024  # unknowns in the centralizer system


@dataclass(frozen=True)
class Verdict3:
    state: str
    witness: object
    certificate: str

    @staticmethod
    def yes(certificate: str, witness=None) -> "Verdict3":
        return Verdict3(YES, witness, certificate)

    @staticmethod
    def no(certificate: str, witness=None) -> "Verdict3":
        return Verdict3(NO, witness, certificate)

    @staticmethod
    def undetermined(certificate: str) -> "Verdict3":
        return Verdict3(UNDETERMINED, None, certificate)

    @property
    def is_yes(self) -> bool:
        return self.state == YES

    @property
    def is_no(self) -> bool:
        return self.state == NO


def iter_supports(n: int):
    """Nonempty candidate supports, ascending by size then lexicographically."""
    for size in range(1, n + 1):
        yield from itertools.combinations(range(n), size)


def is_absolute_zero_divisor(A: EvolutionAlgebra, x: Sequence[Rat]) -> bool:
    """Direct check that (x e_i) x = 0 for every basis vector."""
    x = A.element(x)
    return all(
        vec_is_zero(A.multiply(A.multiply(x, A.basis_element(i)), x))
        for i in range(A.n)
    )


def is_zero_annihilator(A: EvolutionAlgebra) -> bool:
    """The graph is sinkless iff the annihilator vanishes; both are computed."""
    sinkless = graphmod.is_sinkless(A.graph())
    algebraic = A.annihilator().dim == 0
    if sinkless != algebraic:
        raise RuntimeError("internal error: sink test disagrees with annihilator")
    return sinkless


def _support_system(A: EvolutionAlgebra, gamma: Sequence[int], targets) -> Subspace:
    """Coordinates on gamma of the x supported there with x * e_j^2 = 0 for
    every target j: the kernel of the rows M[q][j] * M[m][q] over q in gamma,
    one row per (j, m) in that order, all-zero rows dropped."""
    n = A.n
    rows = []
    for j in targets:
        for m in range(n):
            row = [A.M.at(q, j) * A.M.at(m, q) for q in gamma]
            if any(row):
                rows.append(row)
    if not rows:
        return Subspace.full(len(gamma))
    return kernel_basis(Mat.from_rows(rows, cols=len(gamma)))


def _embed(n: int, gamma: Sequence[int], compact: Sequence[Rat]) -> Vec:
    out = [ZERO] * n
    for pos, q in enumerate(gamma):
        out[q] = compact[pos]
    return tuple(out)


def _support_witnesses(A: EvolutionAlgebra):
    """Yields the witnesses of ``degeneracy_witnesses`` in support order.

    For x supported on gamma, (x e_i) x = x_i (e_i^2 x) for i in gamma, so
    dividing by x_i leaves the linear system x * e_i^2 = 0 on gamma.
    """
    for gamma in iter_supports(A.n):
        kern = _support_system(A, gamma, gamma)
        if kern.dim:
            yield _embed(A.n, gamma, kern.basis.row(0))


def degeneracy_witnesses(A: EvolutionAlgebra) -> list[Vec]:
    """One canonical absolute zero divisor per support whose system has
    nontrivial kernel (the first kernel basis vector)."""
    if A.n > DEFAULT_SUPPORT_BOUND:
        raise EngineLimitError(
            f"support bound exceeded: n={A.n} > {DEFAULT_SUPPORT_BOUND}"
        )
    return list(_support_witnesses(A))


def degeneracy(
    A: EvolutionAlgebra,
    *,
    engine: str = "linear",
    support_bound: int = DEFAULT_SUPPORT_BOUND,
) -> Verdict3:
    """Existence of a nonzero absolute zero divisor.

    The linear engine is complete over Q: per support the system is linear, so
    a nontrivial kernel yields a rational witness and empty kernels everywhere
    are conclusive.  The groebner engine decides the same question from the
    symbolic square of the left-multiplication matrix.
    """
    if engine not in ("linear", "groebner"):
        raise ValueError(f"unknown degeneracy engine {engine!r}")
    if A.n > support_bound:
        raise EngineLimitError(f"support bound exceeded: n={A.n} > {support_bound}")
    if engine == "groebner":
        nondeg = polymod.variety_is_only_origin(polymod.n2_ideal(A))
        if nondeg:
            return Verdict3.no("n2-variety-only-origin")
        witness = _first_azd_witness(A)
        if witness is None:
            raise RuntimeError("internal error: engines disagree on degeneracy")
        return Verdict3.yes("n2-variety-nontrivial", witness)
    witness = _first_azd_witness(A)
    if witness is None:
        return Verdict3.no("all-support-kernels-trivial")
    return Verdict3.yes(f"support-kernel support={sorted(support(witness))}", witness)


def _first_azd_witness(A: EvolutionAlgebra) -> Optional[Vec]:
    witness = next(_support_witnesses(A), None)
    if witness is not None and not is_absolute_zero_divisor(A, witness):
        raise RuntimeError("internal error: witness failed re-verification")
    return witness


def nondegenerate_perfect_check(A: EvolutionAlgebra) -> bool:
    """For perfect algebras, nondegeneracy amounts to every vertex carrying a
    loop: a loop-free vertex gives a singleton zero principal pattern, and a
    zero principal pattern forces a zero diagonal."""
    if not A.is_perfect():
        raise ValueError("check requires a perfect algebra")
    return all(A.M.at(i, i) != 0 for i in range(A.n))


@dataclass(frozen=True)
class _SupportOutcome:
    kind: str  # "clean" | "witness" | "undetermined"
    witness: Optional[Vec] = None


def _primitive_vectors(dim: int, height: int):
    """Primitive integer vectors with max-norm exactly `height`, first nonzero
    coordinate positive, in lexicographic order."""
    for t in itertools.product(range(-height, height + 1), repeat=dim):
        if max(abs(c) for c in t) != height:
            continue
        first = next((c for c in t if c), None)
        if first is None or first < 0:
            continue
        g = 0
        for c in t:
            g = gcd(g, abs(c))
        if g == 1:
            yield t


def _semiprime_support(
    A: EvolutionAlgebra,
    gamma: Sequence[int],
    reach_sets: list[frozenset[int]],
    sq_product_zero,
    height_cap: int,
) -> _SupportOutcome:
    n = A.n
    closure: set[int] = set()
    for v in gamma:
        closure |= reach_sets[v]
    R = sorted(closure)
    # (a) all products of squares over the reachable set must vanish
    for j in R:
        for k in R:
            if not sq_product_zero(j, k):
                return _SupportOutcome("clean")
    # (b) x * e_j^2 = 0 for j in R, linear in the coordinates of x on gamma
    k1 = _support_system(A, gamma, R)
    if k1.dim == 0:
        return _SupportOutcome("clean")
    # (c) x^2 = 0 seen as a linear condition on the squares x_i^2: if the
    # relevant columns of M are independent no nonzero solution exists over
    # any field
    col_rows = [[A.M.at(m, i) for i in gamma] for m in range(n)]
    if kernel_basis(Mat.from_rows(col_rows, cols=len(gamma))).dim == 0:
        return _SupportOutcome("clean")
    # substitute the kernel parametrization into x^2 = 0
    d = k1.dim
    basis_vecs = k1.basis_vectors()
    lin = [
        polymod.MPoly(d, {tuple(1 if b == a else 0 for b in range(d)): basis_vecs[a][pos]
                          for a in range(d) if basis_vecs[a][pos]})
        for pos in range(len(gamma))
    ]
    quadratics = []
    for m in range(n):
        q = polymod.MPoly.zero(d)
        for pos in range(len(gamma)):
            c = A.M.at(m, gamma[pos])
            if c and lin[pos].terms:
                q = q + (lin[pos] * lin[pos]).scale(c)
        if not q.is_zero():
            quadratics.append(q)
    if not quadratics:
        witness = _embed(n, gamma, basis_vecs[0])
        return _SupportOutcome("witness", witness)
    # closure certificate on the parameter space
    try:
        if polymod.variety_is_only_origin(polymod.PolyIdeal.of(d, quadratics)):
            return _SupportOutcome("clean")
    except EngineLimitError:
        return _SupportOutcome("undetermined")
    # rational point search by increasing height
    int_quadratics = []
    for q in quadratics:
        denom = 1
        for c in q.terms.values():
            denom = denom * c.denominator // gcd(denom, c.denominator)
        int_quadratics.append({m: int(c * denom) for m, c in q.terms.items()})

    def _eval(q, t):
        total = 0
        for m, c in q.items():
            v = c
            for x, e in zip(t, m):
                for _ in range(e):
                    v *= x
            total += v
        return total

    for height in range(1, height_cap + 1):
        for t in _primitive_vectors(d, height):
            if all(_eval(q, t) == 0 for q in int_quadratics):
                compact = [
                    sum((Rat(t[a]) * basis_vecs[a][pos] for a in range(d)), ZERO)
                    for pos in range(len(gamma))
                ]
                return _SupportOutcome("witness", _embed(n, gamma, tuple(compact)))
    return _SupportOutcome("undetermined")


def semiprime(
    A: EvolutionAlgebra,
    *,
    support_bound: int = DEFAULT_SUPPORT_BOUND,
    height_cap: int = DEFAULT_HEIGHT_CAP,
) -> Verdict3:
    """Absence of nonzero ideals with zero square.

    The search runs over principal ideals: a zero-square ideal contains the
    principal ideal of each of its elements, so per support it suffices to
    solve the linear conditions against the reachable squares plus the single
    quadratic condition x^2 = 0.

    The verdict is held on A per height cap: a report asks again through
    ``prime`` and through ``prime_ideals`` (the quotient by the empty
    hereditary set is A itself).
    """
    if A.n > support_bound:
        raise EngineLimitError(f"support bound exceeded: n={A.n} > {support_bound}")
    return A._held(("semiprime", height_cap), lambda: _semiprime(A, height_cap))


def _semiprime(A: EvolutionAlgebra, height_cap: int) -> Verdict3:
    n = A.n
    g = A.graph()
    reach_sets = [graphmod.reach(g, (v,)) for v in range(n)]
    squares = [A.basis_square(i) for i in range(n)]
    zero_table: dict[tuple[int, int], bool] = {}

    def sq_product_zero(j: int, k: int) -> bool:
        key = (j, k) if j <= k else (k, j)
        hit = zero_table.get(key)
        if hit is None:
            hit = vec_is_zero(A.multiply(squares[j], squares[k]))
            zero_table[key] = hit
        return hit

    undetermined_supports: list[tuple[int, ...]] = []
    for gamma in iter_supports(n):
        outcome = _semiprime_support(A, gamma, reach_sets, sq_product_zero, height_cap)
        if outcome.kind == "witness":
            ideal = A.ideal_generated_by(outcome.witness)
            _verify_zero_square_ideal(A, ideal)
            sup = sorted(support(outcome.witness))
            return Verdict3.no(f"principal-zero-square-ideal support={sup}", ideal)
        if outcome.kind == "undetermined":
            undetermined_supports.append(gamma)
    if undetermined_supports:
        shown = ", ".join(str(list(s)) for s in undetermined_supports[:4])
        return Verdict3.undetermined(
            "closure witness exists but no rational point found at height "
            f"<= {height_cap} for supports {shown}"
        )
    return Verdict3.yes("all-supports-certified-over-closure")


def _verify_zero_square_ideal(A: EvolutionAlgebra, ideal: Subspace):
    vecs = ideal.basis_vectors()
    if not vecs:
        raise RuntimeError("internal error: zero witness ideal")
    for v in vecs:
        for w in vecs:
            if not vec_is_zero(A.multiply(v, w)):
                raise RuntimeError("internal error: witness ideal square is nonzero")
        for i in range(A.n):
            if not ideal.member(A.multiply(v, A.basis_element(i))):
                raise RuntimeError("internal error: witness is not an ideal")


def prime(
    A: EvolutionAlgebra,
    *,
    support_bound: int = DEFAULT_SUPPORT_BOUND,
    height_cap: int = DEFAULT_HEIGHT_CAP,
) -> Verdict3:
    """Primeness.

    A prime algebra has a downward directed graph, so that check is an
    unconditional rejection.  Perfect algebras are prime exactly when the
    graph is downward directed; otherwise the semiprime verdict decides, and
    its undetermined state propagates.
    """
    if not graphmod.is_downward_directed(A.graph()):
        return Verdict3.no("graph-not-downward-directed")
    if A.is_perfect():
        return Verdict3.yes("perfect-and-downward-directed")
    sp = semiprime(A, support_bound=support_bound, height_cap=height_cap)
    if sp.is_yes:
        return Verdict3.yes("semiprime-and-downward-directed")
    if sp.is_no:
        return Verdict3.no("not-semiprime", sp.witness)
    return Verdict3.undetermined(f"semiprime undetermined: {sp.certificate}")


@dataclass(frozen=True)
class PrimeIdealsResult:
    primes: tuple[BasicIdeal, ...]
    undetermined: tuple[frozenset[int], ...]
    rejected: tuple[tuple[frozenset[int], str], ...]


def prime_ideals(
    A: EvolutionAlgebra,
    *,
    support_bound: int = DEFAULT_SUPPORT_BOUND,
    height_cap: int = DEFAULT_HEIGHT_CAP,
) -> PrimeIdealsResult:
    """All prime ideals, as basic ideals on hereditary sets.

    A hereditary set H yields a prime ideal exactly when the quotient graph is
    downward directed and the quotient algebra is semiprime.  Hereditary sets
    whose quotient gets an undetermined semiprime verdict are reported in a
    separate channel, never silently classified.
    """
    g = A.graph()
    primes: list[BasicIdeal] = []
    undetermined: list[frozenset[int]] = []
    rejected: list[tuple[frozenset[int], str]] = []
    for h in graphmod.hereditary_subsets(g):
        if len(h) == A.n:
            continue  # the whole algebra is not a proper ideal
        if not graphmod.is_downward_directed(graphmod.quotient(g, h)):
            rejected.append((h, "quotient-not-downward-directed"))
            continue
        verdict = semiprime(
            A.quotient_by_basic(h), support_bound=support_bound, height_cap=height_cap
        )
        if verdict.is_yes:
            primes.append(A.basic_ideal(h))
        elif verdict.is_no:
            rejected.append((h, "quotient-not-semiprime"))
        else:
            undetermined.append(h)
    return PrimeIdealsResult(tuple(primes), tuple(undetermined), tuple(rejected))


def absorption(A: EvolutionAlgebra) -> tuple[Subspace, int]:
    """Absorption radical and the annihilating-series stabilizing index.

    The radical is spanned by the vertices removed during iterated sink
    elimination; level n of the annihilating series must equal the span of the
    first n strata, which is asserted, not assumed.
    """
    strata = graphmod.sink_strata(A.graph())
    series, asi = A.ann_series()
    accumulated: set[int] = set()
    spans = []
    for layer in strata.strata:
        accumulated |= layer
        spans.append(Subspace.axes(A.n, accumulated))
    depth_ok = len(strata.strata) == asi if strata.strata else asi == 1
    if not depth_ok:
        raise RuntimeError("internal error: strata depth disagrees with asi")
    for level in range(1, asi + 1):
        expected = spans[level - 1] if level <= len(spans) else Subspace.zero(A.n)
        if series[level - 1] != expected:
            raise RuntimeError("internal error: annihilating series mismatches strata")
    radical = Subspace.axes(A.n, accumulated)
    if series[asi - 1] != radical:
        raise RuntimeError("internal error: radical differs from stable series term")
    return radical, asi


def has_absorption(A: EvolutionAlgebra, vertices: Iterable[int]) -> bool:
    """A basic ideal absorbs exactly when the quotient graph is sinkless."""
    h = A.check_hereditary(vertices)
    return graphmod.is_sinkless(graphmod.quotient(A.graph(), h))


def vn_element(A: EvolutionAlgebra, x: Sequence[Rat]) -> Optional[Vec]:
    """A von Neumann inverse of x, if the linear system is consistent.

    The equation x y x = x is linear in y with coefficient matrix the square
    of the left-multiplication matrix of x.  Free variables are fixed to zero.
    """
    x = A.element(x)
    lm = A.left_mult_matrix(x)
    y = solve(lm * lm, x)
    if y is None:
        return None
    if A.multiply(A.multiply(x, y), x) != x:
        raise RuntimeError("internal error: inverse failed re-verification")
    return y


def vn_algebra(A: EvolutionAlgebra) -> bool:
    """The algebra is von Neumann regular iff the graph is isolated loops."""
    return graphmod.is_isolated_loops(A.graph())


@dataclass(frozen=True)
class CentroidBasis:
    dim: int
    basis_mats: tuple[Mat, ...]


def centroid(A: EvolutionAlgebra) -> CentroidBasis:
    """Kernel basis of the centralizer equations in the n^2 unknowns t_ij.

    A linear map commutes with all multiplications iff t_ij e_i^2 = 0 for all
    i != j and T(e_i^2) = e_i T(e_i) for all i.  Off-diagonal unknowns whose
    column of M is nonzero are forced to zero and eliminated up front; the
    remaining homogeneous system is solved exactly.

    The basis is held on A: ``decompose`` asks again for the one summand of a
    connected algebra, which is A itself.
    """
    if A.n * A.n > DEFAULT_CENTROID_BOUND:
        raise EngineLimitError(
            f"centroid bound exceeded: {A.n * A.n} unknowns > {DEFAULT_CENTROID_BOUND}"
        )
    return A._held("centroid", lambda: _centroid(A))


def _centroid(A: EvolutionAlgebra) -> CentroidBasis:
    n = A.n
    col_nonzero = [any(A.M.at(k, i) != 0 for k in range(n)) for i in range(n)]
    unknowns = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i == j or not col_nonzero[i]
    ]
    index = {u: pos for pos, u in enumerate(unknowns)}
    rows = []
    for i in range(n):
        for k in range(n):
            coeffs: dict[int, Rat] = {}
            w_ki = A.M.at(k, i)
            if w_ki and (i, i) in index:
                coeffs[index[(i, i)]] = coeffs.get(index[(i, i)], ZERO) + w_ki
            for j in range(n):
                w_ji = A.M.at(j, i)
                if w_ji and (k, j) in index:
                    pos = index[(k, j)]
                    coeffs[pos] = coeffs.get(pos, ZERO) - w_ji
            if coeffs:
                row = [ZERO] * len(unknowns)
                for pos, c in coeffs.items():
                    row[pos] = c
                if any(row):
                    rows.append(row)
    if rows:
        kern = kernel_basis(Mat.from_rows(rows, cols=len(unknowns)))
    else:
        kern = Subspace.full(len(unknowns))
    mats = []
    for v in kern.basis_vectors():
        entries = [ZERO] * (n * n)
        for pos, (i, j) in enumerate(unknowns):
            entries[i * n + j] = v[pos]
        mats.append(Mat(n, n, tuple(entries)))
    result = CentroidBasis(len(mats), tuple(mats))
    _verify_centroid(A, result)
    return result


def _verify_centroid(A: EvolutionAlgebra, cb: CentroidBasis):
    n = A.n
    if n and cb.dim < 1:
        raise RuntimeError("internal error: identity centralizer missing")
    for t in cb.basis_mats:
        for i in range(n):
            ti = t.col(i)
            for j in range(n):
                if j != i and not vec_is_zero(A.multiply(ti, A.basis_element(j))):
                    raise RuntimeError("internal error: centralizer axiom T(e_i)e_j=0 fails")
            if t.matvec(A.basis_square(i)) != A.multiply(ti, A.basis_element(i)):
                raise RuntimeError("internal error: centralizer axiom on squares fails")


def decompose(A: EvolutionAlgebra) -> list[EvolutionAlgebra]:
    """Split a zero-annihilator algebra into its indecomposable summands.

    One summand per connected component of the graph; entries of M never link
    distinct components, and every summand must come back with a
    one-dimensional centroid.  Each summand is the quotient by the other
    components, so a connected algebra gives ``[A]`` and its held centroid.
    """
    if not is_zero_annihilator(A):
        raise ValueError("decomposition requires a zero-annihilator algebra")
    blocks = graphmod.components(A.graph())
    summands = []
    for block in blocks:
        inside = set(block)
        for i in block:
            for j in range(A.n):
                if j not in inside and (A.M.at(j, i) != 0 or A.M.at(i, j) != 0):
                    raise RuntimeError("internal error: component blocks are not exact")
        summands.append(A.quotient_by_basic(set(range(A.n)) - inside))
    for sub in summands:
        if centroid(sub).dim != 1:
            raise RuntimeError("internal error: summand centroid is not one-dimensional")
    return summands
