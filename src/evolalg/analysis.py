"""Verdict engines for evolution algebras.

Every engine is exact over Q, and every ``yes`` or ``no`` is definite; a
verdict is ``undetermined`` only when an engine limit is hit.

Degeneracy is decided over supports: x e_c = x_c e_c^2, so (x e_c) x =
x_c M (col_c o x) with o the coordinatewise product, and for x supported
exactly on gamma the condition is the linear system x * e_j^2 = 0 for j in
gamma.  The witness is the first kernel vector of the first support, in
size-then-lexicographic order, with a nontrivial kernel.  It is found in
three steps (see ``degeneracy``): a vertex without a loop; else ``no`` for a
perfect algebra; else a search over the larger supports, size by size in
lexicographic order.  The search prunes a node whose kernel forces an
included coordinate to zero: no smaller support holds a witness, so a
witness of the current size has full support and would lie in that kernel.

Semiprimeness is decided one vertex at a time: A is semiprime iff no vertex
v has e_j^2 e_k^2 = 0 for all j, k reachable from v (see ``semiprime``).  A
``no`` comes with a zero-square ideal, re-verified by direct multiplication;
a ``yes`` holds over every field, hence over the algebraic closure.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
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

DEFAULT_SUPPORT_BOUND = 16  # dimension cap of degeneracy and semiprime
DEFAULT_CENTROID_BOUND = 1024  # cap on n^2, the centroid's unknowns before substitution


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


def is_absolute_zero_divisor(A: EvolutionAlgebra, x: Sequence[Rat]) -> bool:
    """Direct check that (x e_i) x = 0 for every basis vector."""
    x = A.element(x)
    return all(
        vec_is_zero(A.multiply(A.multiply(x, A.basis_element(i)), x))
        for i in range(A.n)
    )


def is_zero_annihilator(A: EvolutionAlgebra) -> bool:
    """The annihilator is level 1 of the series, which ``absorption`` checks
    against the sinks: it vanishes iff the graph is sinkless."""
    return absorption(A)[0].dim == 0


def _support_system(
    A: EvolutionAlgebra, gamma: Sequence[int], targets: Sequence[int]
) -> Subspace:
    """Coordinates on gamma of the x supported there with x * e_j^2 = 0 for
    every j in targets: the kernel of the rows M[q][j] * M[m][q] over q in
    gamma, one row per (j, m) in that order, all-zero rows dropped."""
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


def _check_support_bound(A: EvolutionAlgebra):
    if A.n > DEFAULT_SUPPORT_BOUND:
        raise EngineLimitError(
            f"support bound exceeded: n={A.n} > {DEFAULT_SUPPORT_BOUND}"
        )


def degeneracy(A: EvolutionAlgebra, *, engine: str = "linear") -> Verdict3:
    """Existence of a nonzero absolute zero divisor, for n up to
    ``DEFAULT_SUPPORT_BOUND`` (``EngineLimitError`` beyond it).

    The linear engine is complete over Q: per support the system is linear, so
    a nontrivial kernel yields a rational witness and empty kernels everywhere
    are conclusive.  It returns the first kernel vector of the first support,
    in size-then-lexicographic order, with a nontrivial kernel (the unpruned
    scan in ``tests/reference.py`` lists them all), in three steps:

    1. If M[i][i] = 0, then e_i is a witness (the singleton system of {i} has
       the rows M[i][i] M[m][i]); the first such i is reported.
    2. Otherwise, if M is nonsingular, there is none: for c in supp(x),
       (x e_c) x = 0 puts col_c o x in ker M = 0, but its coordinate c is
       M[c][c] x_c != 0.  So a perfect algebra is nondegenerate iff every
       vertex has a loop.
    3. Otherwise ``_ordered_witness`` searches the supports of each size from
       2 up, in lexicographic order, pruned by support kernels.

    The groebner engine decides the same question from the symbolic square
    of the left-multiplication matrix.
    """
    if engine not in ("linear", "groebner"):
        raise ValueError(f"unknown degeneracy engine {engine!r}")
    _check_support_bound(A)
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
    loop_free = next((i for i in range(A.n) if A.M.at(i, i) == 0), None)
    if loop_free is not None:
        witness = A.basis_element(loop_free)
    elif A.is_perfect():
        return None
    else:
        sizes = range(2, A.n + 1)
        witness = next(filter(None, (_ordered_witness(A, size) for size in sizes)), None)
    if witness is not None and not is_absolute_zero_divisor(A, witness):
        raise RuntimeError("internal error: witness failed re-verification")
    return witness


def _ordered_witness(
    A: EvolutionAlgebra, size: int, included: tuple[int, ...] = (), c: int = 0
) -> Optional[Vec]:
    """Step 3 of ``degeneracy``: the first witness, in lexicographic order,
    on a support of ``size`` vertices that contains ``included`` and
    otherwise lies in c..n-1, given that no smaller support holds one.

    A node solves the system of the targets ``included`` on ``included`` +
    c..n-1; once ``included`` has ``size`` vertices the rest are excluded,
    so that is the support's own system.  A witness on a support S between
    the two has full support, since no smaller support holds one, and it
    solves the node's system; so a node on whose kernel some included
    coordinate vanishes holds none and is pruned.  The search branches on
    c, including it first, so the leaves come in lexicographic order.
    """
    n = A.n
    if len(included) + n - c < size:
        return None
    if len(included) == size:
        c = n
    kern = _support_system(A, included + tuple(range(c, n)), included)
    if any(not any(kern.basis.col(pos)) for pos in range(len(included))):
        return None
    if c == n:
        return _embed(n, included, kern.basis.row(0))
    return (_ordered_witness(A, size, included + (c,), c + 1)
            or _ordered_witness(A, size, included, c + 1))


def semiprime(A: EvolutionAlgebra) -> Verdict3:
    """Absence of nonzero ideals with zero square, for n up to
    ``DEFAULT_SUPPORT_BOUND`` (``EngineLimitError`` beyond it).

    Call a vertex v isotropic when e_j^2 e_k^2 = 0 for all j, k in reach(v)
    (which contains v).  A is semiprime iff no vertex is isotropic, over any
    field:

    * If I != 0 is an ideal with I^2 = 0, take x in I nonzero and v in its
      support.  The ideal generated by x contains x e_v = x_v e_v^2, and
      with e_j^2 it contains e_j^2 e_k = M[k][j] e_k^2, so it contains e_j^2
      for every j in reach(v).  Its square is zero, so v is isotropic.
    * If v is isotropic and e_v^2 = 0, then span(e_v) is an ideal with zero
      square.  Otherwise J = span{e_j^2 : j in reach(v)} is nonzero, closed
      under multiplication by each e_k (M[k][j] != 0 puts k in reach(v)),
      and J^2 = 0 by isotropy.

    The witness is the ideal generated by e_v for the first vertex with
    e_v^2 = 0, else by e_v^2 for the first isotropic vertex.  Since the test
    holds over any field, ``yes`` is certified over the algebraic closure.

    The verdict is held on A: a report asks again through ``prime`` and
    through ``prime_ideals`` (the quotient by the empty hereditary set is A
    itself).
    """
    _check_support_bound(A)
    return A._held("semiprime", lambda: _semiprime(A))


def _semiprime(A: EvolutionAlgebra) -> Verdict3:
    n = A.n
    squares = [A.basis_square(i) for i in range(n)]
    product_is_zero = functools.cache(
        lambda j, k: vec_is_zero(A.multiply(squares[j], squares[k]))
    )

    def isotropic(v: int) -> bool:
        closure = sorted(graphmod.reach(A.graph(), (v,)))
        return all(
            product_is_zero(j, k)
            for j, k in itertools.combinations_with_replacement(closure, 2)
        )

    generator = next((A.basis_element(v) for v in range(n) if vec_is_zero(squares[v])), None)
    if generator is None:
        generator = next((squares[v] for v in range(n) if isotropic(v)), None)
    if generator is None:
        return Verdict3.yes("all-supports-certified-over-closure")
    ideal = A.ideal_generated_by(generator)
    _verify_zero_square_ideal(A, ideal)
    return Verdict3.no(f"principal-zero-square-ideal support={sorted(support(generator))}", ideal)


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


def prime(A: EvolutionAlgebra) -> Verdict3:
    """Primeness.

    A prime algebra has a downward directed graph, so that check is an
    unconditional rejection.  Perfect algebras are prime exactly when the
    graph is downward directed; otherwise the semiprime verdict decides.
    """
    if not graphmod.is_downward_directed(A.graph()):
        return Verdict3.no("graph-not-downward-directed")
    if A.is_perfect():
        return Verdict3.yes("perfect-and-downward-directed")
    sp = semiprime(A)
    if sp.is_yes:
        return Verdict3.yes("semiprime-and-downward-directed")
    return Verdict3.no("not-semiprime", sp.witness)


@dataclass(frozen=True)
class PrimeIdealsResult:
    primes: tuple[BasicIdeal, ...]
    rejected: tuple[tuple[frozenset[int], str], ...]


def prime_ideals(A: EvolutionAlgebra) -> PrimeIdealsResult:
    """All prime ideals, as basic ideals on hereditary sets.

    A hereditary set H yields a prime ideal exactly when the quotient graph is
    downward directed and the quotient algebra is semiprime.  Only the
    candidates, the sets whose quotient graph is downward directed, are
    tried, ascending by size then lexicographically; those whose quotient is
    not semiprime are listed as rejected.

    The quotient graph is the graph induced on U = V - H, and U is closed
    under ancestors.  By ``graph.is_downward_directed`` that graph is
    downward directed iff U = anc(v) for some v: each u in anc(v) reaches v
    inside anc(v); and a v reached from all of U has U within anc(v) within
    U.  So the candidates are the at most n sets V - anc(v): V is never one
    (v is in anc(v)), and the empty set is one iff the graph is downward
    directed.
    """
    g = A.graph()
    candidates = {frozenset(range(A.n)) - a for a in graphmod.ancestors(g)}
    primes: list[BasicIdeal] = []
    rejected: list[tuple[frozenset[int], str]] = []
    for h in sorted(candidates, key=lambda s: (len(s), sorted(s))):
        if semiprime(A.quotient_by_basic(h)).is_yes:
            primes.append(A.basic_ideal(h))
        else:
            rejected.append((h, "quotient-not-semiprime"))
    return PrimeIdealsResult(tuple(primes), tuple(rejected))


def absorption(A: EvolutionAlgebra) -> tuple[Subspace, int]:
    """Absorption radical and the annihilating-series stabilizing index.

    Level k of the series must equal the span of the first k sink strata (the
    zero term alone when there are none), so one comparison checks both links:
    level 1, the annihilator, is the span of the sinks, and the stable term,
    the radical, is the span of all strata.  Held on A for the two
    ``is_zero_annihilator`` calls of a report."""
    return A._held("absorption", lambda: _absorption(A))


def _absorption(A: EvolutionAlgebra) -> tuple[Subspace, int]:
    strata = graphmod.sink_strata(A.graph()).strata
    series, asi = A.ann_series()
    levels = itertools.accumulate(strata, frozenset.union)
    if series != ([Subspace.axes(A.n, s) for s in levels] or [Subspace.zero(A.n)]):
        raise RuntimeError("internal error: annihilating series mismatches sink strata")
    return series[-1], asi


def has_absorption(A: EvolutionAlgebra, vertices: Iterable[int]) -> bool:
    """I absorbs iff A/I has a zero annihilator, checked by ``absorption``."""
    return is_zero_annihilator(A.quotient_by_basic(vertices))


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

    A linear map T commutes with all multiplications iff T(e_i) e_j = 0 for
    all i != j and T(e_i^2) = T(e_i) e_i for all i.  The first set forces
    t_ij = 0 for i != j unless e_i^2 = 0; the second, in row k, reads
    sum_j M[j][i] t_kj = M[k][i] t_ii.  Where e_k^2 != 0 that row is
    M[k][i] (t_ii - t_kk), so t is constant along every edge i -> k into such
    a vertex, and the system is solved by substitution along the graph (see
    ``_centroid``).  With a zero annihilator nothing else is left: the basis
    is the indicator of each component's diagonal, as the paper says.

    The basis is held on A: ``decompose`` asks again for the one summand of a
    connected algebra, which is A itself.
    """
    if A.n * A.n > DEFAULT_CENTROID_BOUND:
        raise EngineLimitError(
            f"centroid bound exceeded: {A.n * A.n} unknowns > {DEFAULT_CENTROID_BOUND}"
        )
    return A._held("centroid", lambda: _centroid(A))


def _centroid(A: EvolutionAlgebra) -> CentroidBasis:
    """Solves the centralizer system in the reduced unknowns: one diagonal
    unknown per class of the edges into vertices outside D = sinks, at its
    least vertex, and t_aj for a in D, j != a.  Only the rows of the a in D
    go to ``kernel_basis``; with a zero annihilator there are none.

    Each unknown stands for its positions in the row-major n x n matrix and
    the unknowns are ordered by their first position, so expanding the
    canonical kernel basis copies each value only to later positions: the
    result is the canonical basis of the full n^2-unknown kernel.
    """
    n = A.n
    g = A.graph()
    dead = graphmod.sinks(g)
    live_edges = ((i, k) for i, k in g.edges() if k not in dead)
    classes = graphmod.components(graphmod.DiGraph.from_edges(n, live_edges))
    unknowns = sorted([[v * n + v for v in c] for c in classes]
                      + [[a * n + j] for a in dead for j in range(n) if j != a])
    index = {p: u for u, positions in enumerate(unknowns) for p in positions}
    width = len(unknowns)
    rows = []
    for a in dead:
        for i in range(n):
            if i not in dead:
                row = [ZERO] * width
                for j in g.adj[i]:
                    row[index[a * n + j]] += A.M.at(j, i)
                row[index[i * n + i]] -= A.M.at(a, i)
                rows.append(row)
    kern = kernel_basis(Mat.from_rows(rows, cols=width)) if rows else Subspace.full(width)
    mats = []
    for v in kern.basis_vectors():
        entries = [ZERO] * (n * n)
        for value, positions in zip(v, unknowns):
            for p in positions:
                entries[p] = value
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
    one-dimensional centroid, a check of the substitution in ``_centroid``:
    a connected summand with zero annihilator is one class.  Each summand is
    the quotient by the other components, so a connected algebra gives
    ``[A]`` and its held centroid.
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
