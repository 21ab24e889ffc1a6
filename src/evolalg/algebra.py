"""Finite-dimensional evolution algebras over the rationals.

An evolution algebra is given by a natural basis e_1..e_n in which distinct
basis vectors multiply to zero, so the whole product is encoded by the squares
e_i^2.  We store the structure matrix M column-wise: column i holds the
coordinates of e_i^2, i.e. M[j][i] is the coefficient of e_j in e_i^2.  This
is the convention used by every matrix in this package and by the CLI file
format.

Elements are plain coordinate tuples over the natural basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import graph as graphmod
from .exactla import Mat, Rat, Subspace, Vec, ZERO, det, vec


def support(x: Sequence[Rat]) -> frozenset[int]:
    """Indices of the nonzero coordinates."""
    return frozenset(i for i, c in enumerate(x) if c != 0)


@dataclass(frozen=True)
class BasicIdeal:
    """Span of the basis vectors indexed by a hereditary vertex set."""

    vertices: frozenset[int]
    space: Subspace


@dataclass(frozen=True)
class EvolutionAlgebra:
    labels: tuple[str, ...]
    M: Mat

    def __post_init__(self):
        if self.M.rows != self.M.cols:
            raise ValueError("structure matrix must be square")
        if len(self.labels) != self.M.rows:
            raise ValueError("label count does not match dimension")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate basis labels")

    @staticmethod
    def from_rows(rows: Sequence[Sequence], labels: Sequence[str] | None = None) -> "EvolutionAlgebra":
        m = Mat.from_rows(rows, cols=len(rows) if rows else 0)
        if labels is None:
            labels = tuple(f"e{i + 1}" for i in range(m.rows))
        return EvolutionAlgebra(tuple(labels), m)

    @property
    def n(self) -> int:
        return self.M.rows

    def _held(self, key, compute):
        """A derived fact, computed on first use and held in the instance
        ``__dict__`` (outside equality and hashing), so reuse goes by identity."""
        held = self.__dict__.setdefault("_held_facts", {})
        if key not in held:
            held[key] = compute()
        return held[key]

    def graph(self) -> graphmod.DiGraph:
        return self._held("graph", lambda: graphmod.from_matrix(self.M))

    def element(self, coords: Iterable) -> Vec:
        x = vec(coords)
        if len(x) != self.n:
            raise ValueError("coordinate count does not match dimension")
        return x

    def basis_element(self, i: int) -> Vec:
        return tuple(Rat(1) if j == i else ZERO for j in range(self.n))

    def basis_square(self, i: int) -> Vec:
        """Coordinates of e_i^2 (column i of the structure matrix)."""
        return self.M.col(i)

    def multiply(self, x: Sequence[Rat], y: Sequence[Rat]) -> Vec:
        if len(x) != self.n or len(y) != self.n:
            raise ValueError("dimension mismatch in product")
        out = [ZERO] * self.n
        for i in range(self.n):
            c = x[i] * y[i]
            if c:
                for j in range(self.n):
                    w = self.M.at(j, i)
                    if w:
                        out[j] += c * w
        return tuple(out)

    def left_mult_matrix(self, x: Sequence[Rat]) -> Mat:
        """Matrix of y -> x*y, which is M scaled columnwise by the coordinates of x."""
        if len(x) != self.n:
            raise ValueError("dimension mismatch")
        entries = []
        for k in range(self.n):
            for i in range(self.n):
                entries.append(x[i] * self.M.at(k, i))
        return Mat(self.n, self.n, tuple(entries))

    def annihilator(self) -> Subspace:
        """Span of the basis vectors whose square is zero."""
        dead = [i for i in range(self.n) if all(self.M.at(j, i) == 0 for j in range(self.n))]
        return Subspace.axes(self.n, dead)

    def is_perfect(self) -> bool:
        return self._held("perfect", lambda: det(self.M) != 0)

    def ideal_generated_by(self, x: Sequence[Rat]) -> Subspace:
        """Smallest ideal containing x.

        Spanned by x together with the squares of all basis vectors reachable
        from the support of x.  Closure under multiplication is re-checked on
        the result rather than trusted.
        """
        x = self.element(x)
        sup = support(x)
        if not sup:
            return Subspace.zero(self.n)
        reachable = graphmod.reach(self.graph(), sup)
        vectors = [x] + [self.basis_square(j) for j in sorted(reachable)]
        space = Subspace.span(vectors, self.n)
        for v in space.basis_vectors():
            for i in range(self.n):
                if not space.member(self.multiply(v, self.basis_element(i))):
                    raise RuntimeError("internal error: generated span is not an ideal")
        return space

    def check_hereditary(self, vertices: Iterable[int]) -> frozenset[int]:
        h = frozenset(vertices)
        if not graphmod.is_hereditary(self.graph(), h):
            raise ValueError(f"vertex set {sorted(h)} is not hereditary")
        return h

    def basic_ideal(self, vertices: Iterable[int]) -> BasicIdeal:
        h = self.check_hereditary(vertices)
        return BasicIdeal(h, Subspace.axes(self.n, h))

    def quotient_by_basic(self, vertices: Iterable[int]) -> "EvolutionAlgebra":
        """Quotient modulo the basic ideal on a hereditary set.

        The structure matrix of the quotient is M with the rows and columns of
        the removed vertices deleted; surviving labels are kept.  The quotient
        by the empty set is the algebra itself, and ``self`` is returned, so
        its held facts are reused.
        """
        h = self.check_hereditary(vertices)
        if not h:
            return self
        keep = [i for i in range(self.n) if i not in h]
        return EvolutionAlgebra(
            tuple(self.labels[i] for i in keep), self.M.submatrix(keep, keep)
        )

    def ann_series(self) -> tuple[list[Subspace], int]:
        """Upper annihilating series and its stabilizing index.

        Level 1 is the annihilator; each next level lifts the annihilator of
        the quotient by the previous level.  Every level is the span of a
        hereditary set of basis vertices, so the series is computed on vertex
        sets: the next level is {i : M[j][i] = 0 for all j outside the current
        level}.  Returns the strictly increasing chain up to the stable term.
        """
        series = self._held("ann_series", self._ann_series)
        return list(series), len(series)

    def _ann_series(self) -> tuple[Subspace, ...]:
        levels: list[frozenset[int]] = []
        current: frozenset[int] = frozenset()
        while True:
            outside = [j for j in range(self.n) if j not in current]
            nxt = frozenset(i for i in range(self.n)
                            if all(self.M.at(j, i) == 0 for j in outside))
            if levels and nxt == current:
                return tuple(Subspace.axes(self.n, s) for s in levels)
            levels.append(nxt)
            current = nxt
