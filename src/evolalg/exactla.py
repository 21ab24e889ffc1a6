"""Exact linear algebra over the rationals.

Scalars are `fractions.Fraction` (aliased ``Rat``), vectors are tuples of
``Rat``, matrices are immutable row-major ``Mat`` values.  Subspaces are kept
in reduced row-echelon form at all times, so equality of subspaces is plain
structural equality.  Everything here is pure; values can be shared freely
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Rat = Fraction
Vec = tuple[Rat, ...]

ZERO = Rat(0)
ONE = Rat(1)


def rat(value) -> Rat:
    """Coerce an int, a Fraction, or a string like ``"3"`` / ``"-2/5"``."""
    if isinstance(value, Rat):
        return value
    if isinstance(value, int):
        return Rat(value)
    if isinstance(value, str):
        return Rat(value)
    if isinstance(value, float):
        raise TypeError("floats are not exact; use an int or a 'p/q' string")
    raise TypeError(f"not an exact rational: {value!r}")


def vec(values: Iterable) -> Vec:
    return tuple(rat(v) for v in values)


def vec_is_zero(v: Sequence[Rat]) -> bool:
    return all(x == 0 for x in v)


@dataclass(frozen=True)
class Mat:
    """Dense rational matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple[Rat, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} != {self.rows}x{self.cols}"
            )

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: Optional[int] = None) -> "Mat":
        rows = list(rows)
        if not rows:
            if cols is None:
                raise ValueError("cannot infer column count of an empty matrix")
            return Mat(0, cols, ())
        width = len(rows[0])
        if cols is not None and cols != width:
            raise ValueError("explicit column count disagrees with row width")
        entries = []
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged rows")
            entries.extend(rat(x) for x in r)
        return Mat(len(rows), width, tuple(entries))

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "Mat":
        return Mat(rows, cols, (ZERO,) * (rows * cols))

    def at(self, i: int, j: int) -> Rat:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vec:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> Vec:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[Rat]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def matvec(self, v: Sequence[Rat]) -> Vec:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        out = []
        for i in range(self.rows):
            base = i * self.cols
            out.append(sum((self.entries[base + j] * v[j] for j in range(self.cols)), ZERO))
        return tuple(out)

    def __mul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        cols = [other.col(j) for j in range(other.cols)]
        entries = []
        for i in range(self.rows):
            r = self.row(i)
            for c in cols:
                entries.append(sum((a * b for a, b in zip(r, c) if a and b), ZERO))
        return Mat(self.rows, other.cols, tuple(entries))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def submatrix(self, keep_rows: Sequence[int], keep_cols: Sequence[int]) -> "Mat":
        entries = tuple(self.at(i, j) for i in keep_rows for j in keep_cols)
        return Mat(len(keep_rows), len(keep_cols), entries)


def rref(m: Mat) -> Mat:
    """Unique reduced row-echelon form; zero rows collect at the bottom."""
    rows = m.to_rows()
    nrows, ncols = m.rows, m.cols
    pivot_row = 0
    for col in range(ncols):
        pr = None
        for r in range(pivot_row, nrows):
            if rows[r][col] != 0:
                pr = r
                break
        if pr is None:
            continue
        rows[pivot_row], rows[pr] = rows[pr], rows[pivot_row]
        lead = rows[pivot_row][col]
        if lead != ONE:
            inv = ONE / lead
            rows[pivot_row] = [x * inv for x in rows[pivot_row]]
        prow = rows[pivot_row]
        for r in range(nrows):
            if r != pivot_row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
        pivot_row += 1
        if pivot_row == nrows:
            break
    return Mat.from_rows(rows, cols=ncols)


def pivot_columns(reduced: Mat) -> list[int]:
    """Pivot columns of a matrix already in reduced row-echelon form."""
    pivots = []
    for i in range(reduced.rows):
        row = reduced.row(i)
        for j, x in enumerate(row):
            if x != 0:
                pivots.append(j)
                break
    return pivots


def rank(m: Mat) -> int:
    return len(pivot_columns(rref(m)))


def det(m: Mat) -> Rat:
    """Exact determinant by rational Gaussian elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return ONE
    rows = m.to_rows()
    sign = 1
    result = ONE
    for col in range(n):
        pr = None
        for r in range(col, n):
            if rows[r][col] != 0:
                pr = r
                break
        if pr is None:
            return ZERO
        if pr != col:
            rows[col], rows[pr] = rows[pr], rows[col]
            sign = -sign
        lead = rows[col][col]
        result *= lead
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                f = rows[r][col] / lead
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return result if sign == 1 else -result


def solve(m: Mat, b: Sequence[Rat]) -> Optional[Vec]:
    """Some exact solution of ``m x = b``, or None if inconsistent.

    Underdetermined systems get the particular solution with all free
    variables fixed to zero, which keeps results reproducible.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    aug_rows = [list(m.row(i)) + [rat(b[i])] for i in range(m.rows)]
    reduced = rref(Mat.from_rows(aug_rows, cols=m.cols + 1))
    pivots = pivot_columns(reduced)
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for r, c in enumerate(pivots):
        x[c] = reduced.at(r, m.cols)
    return tuple(x)


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of K^n stored as a canonical rref basis (one row each).

    The canonical form makes ``==`` decide subspace equality.
    """

    ambient_dim: int
    basis: Mat

    def __post_init__(self):
        b = self.basis
        if b.cols != self.ambient_dim:
            raise ValueError("basis width does not match ambient dimension")
        pivots = []
        for i in range(b.rows):
            row = b.row(i)
            lead = next((j for j, x in enumerate(row) if x != 0), None)
            if lead is None:
                raise ValueError("zero row in subspace basis")
            if row[lead] != ONE:
                raise ValueError("pivot entry is not 1")
            if pivots and lead <= pivots[-1]:
                raise ValueError("pivot columns not strictly increasing")
            for r in range(b.rows):
                if r != i and b.at(r, lead) != 0:
                    raise ValueError("pivot column not cleared")
            pivots.append(lead)

    @staticmethod
    def span(vectors: Sequence[Sequence], ambient_dim: int) -> "Subspace":
        rows = [vec(v) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        if not rows:
            return Subspace(ambient_dim, Mat(0, ambient_dim, ()))
        reduced = rref(Mat.from_rows(rows, cols=ambient_dim))
        keep = [reduced.row(i) for i in range(reduced.rows) if not vec_is_zero(reduced.row(i))]
        return Subspace(ambient_dim, Mat.from_rows(keep, cols=ambient_dim))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Mat(0, ambient_dim, ()))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Mat.identity(ambient_dim))

    @staticmethod
    def axes(ambient_dim: int, indices: Iterable[int]) -> "Subspace":
        """Span of the given coordinate axes."""
        rows = []
        for i in sorted(set(indices)):
            if not 0 <= i < ambient_dim:
                raise ValueError(f"axis {i} out of range")
            rows.append([ONE if j == i else ZERO for j in range(ambient_dim)])
        return Subspace.span(rows, ambient_dim)

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_vectors(self) -> list[Vec]:
        return [self.basis.row(i) for i in range(self.basis.rows)]

    def member(self, v: Sequence[Rat]) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        w = list(vec(v))
        for i in range(self.basis.rows):
            row = self.basis.row(i)
            lead = next(j for j, x in enumerate(row) if x != 0)
            if w[lead] != 0:
                f = w[lead]
                w = [a - f * b for a, b in zip(w, row)]
        return vec_is_zero(w)

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.member(v) for v in other.basis_vectors())

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")


def kernel_basis(m: Mat) -> Subspace:
    """Canonical basis of the right kernel {x : m x = 0}."""
    reduced = rref(m)
    pivots = pivot_columns(reduced)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    vectors = []
    for f in free:
        v = [ZERO] * m.cols
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -reduced.at(r, f)
        vectors.append(v)
    return Subspace.span(vectors, m.cols)
