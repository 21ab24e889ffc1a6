"""Exhaustive census of small evolution algebras.

Enumerates every structure matrix of a given dimension with entries from a
fixed value set, in ``itertools.product`` order, and decides degeneracy and
semiprimeness for each.  Run as a script it covers all 3^9 = 19,683 matrices
with n = 3 over {-1, 0, 1} and prints the verdict counts plus a sha256 over
one line per matrix (matrix, degeneracy and semiprime verdicts, certificates
and witnesses), so two versions of the engines can be compared byte for byte:

    PYTHONPATH=src python tests/census.py

pytest does not collect this file; ``tests/test_census.py`` imports its
enumerator and checks a fixed stride of it.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter

from evolalg import analysis
from evolalg.algebra import EvolutionAlgebra

CENSUS_VALUES = (-1, 0, 1)


def census_matrices(n: int, values=CENSUS_VALUES):
    """All n x n row lists with entries from ``values``, in product order."""
    for entries in itertools.product(values, repeat=n * n):
        yield [list(entries[i * n:(i + 1) * n]) for i in range(n)]


def _render(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, tuple):
        return "(" + ",".join(str(c) for c in value) + ")"
    return "[" + ";".join(_render(v) for v in value.basis_vectors()) + "]"


def main(n: int = 3) -> None:
    digest = hashlib.sha256()
    counts: Counter = Counter()
    for rows in census_matrices(n):
        a = EvolutionAlgebra.from_rows(rows)
        deg = analysis.degeneracy(a)
        semi = analysis.semiprime(a)
        line = " | ".join([
            str(rows),
            deg.state, deg.certificate, _render(deg.witness),
            semi.state, semi.certificate, _render(semi.witness),
        ])
        digest.update(line.encode() + b"\n")
        counts[f"degenerate {deg.state}"] += 1
        counts[f"semiprime {semi.state}"] += 1
    for key in sorted(counts):
        print(f"{key}: {counts[key]}")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
