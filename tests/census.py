"""Exhaustive census of small evolution algebras.

Enumerates every structure matrix of a given dimension with entries from a
fixed value set, in ``itertools.product`` order, and decides degeneracy and
semiprimeness for each.  Run as a script it prints the verdict counts plus a
sha256 over one line per matrix (matrix, degeneracy and semiprime verdicts,
certificates and witnesses), so two versions of the engines can be compared
byte for byte.  The optional arguments are n and a comma-separated value set;
the defaults cover all 3^9 = 19,683 matrices with n = 3 over {-1, 0, 1}:

    PYTHONPATH=src python tests/census.py          # n = 3 over {-1, 0, 1}
    PYTHONPATH=src python tests/census.py 4 0,1    # all 65,536 with n = 4

pytest does not collect this file; ``tests/test_census.py`` imports its
enumerator and checks a fixed stride of it.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
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


def main(n: int = 3, values=CENSUS_VALUES) -> None:
    digest = hashlib.sha256()
    counts: Counter = Counter()
    for rows in census_matrices(n, values):
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
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    values = (
        tuple(int(v) for v in sys.argv[2].split(",")) if len(sys.argv) > 2 else CENSUS_VALUES
    )
    main(n, values)
