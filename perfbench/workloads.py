"""Seeded workload generators.

Every workload is a list of instances made only from ``--seed``: the same seed
gives byte-identical JSON texts.  The program under test receives nothing but
these texts, through ``cli.parse_algebra_text``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

from evolalg import cli

SUITE_DENSITIES = (0.3, 0.6, 0.9)
SUITE_SIZE = 1000
BANDED_DIM = 11
BANDED_COUNT = 4
GROEBNER_DIM = 5
GROEBNER_DENSITY = 1.0
GROEBNER_COUNT = 16
SUMSQ_K = 5
SUMSQ_COUNT = 4


@dataclass(frozen=True)
class Instance:
    """One algebra file plus how to analyse it and what the answer must be."""

    label: str
    text: str
    engine: str = "linear"
    expect: Optional[dict] = None  # verdict key -> (state, certificate or None)


def _entry(x: Fraction):
    return int(x) if x.denominator == 1 else str(x)


def _file_text(matrix: list[list[Fraction]], description: str) -> str:
    n = len(matrix)
    payload = {
        "basis": [f"e{i + 1}" for i in range(n)],
        "matrix": [[_entry(x) for x in row] for row in matrix],
        "description": description,
    }
    return json.dumps(payload)


def _nonzero_weight(rng: random.Random) -> Fraction:
    """A nonzero rational from the numerator and denominator sets of
    ``cli.random_algebra_file``."""
    num = rng.choice(cli.RANDOM_NUMERATORS)
    return Fraction(num, rng.randint(1, cli.RANDOM_MAX_DENOMINATOR))


def _is_rational_square(x: Fraction) -> bool:
    return all(v >= 0 and isqrt(v) ** 2 == v for v in (x.numerator, x.denominator))


def random_suite(seed: int, count: int = SUITE_SIZE) -> list[Instance]:
    """The acceptance-suite generator; seed 0 gives acceptance seeds 0..999."""
    out = []
    for i in range(count):
        dim, density = 2 + i % 5, SUITE_DENSITIES[i % 3]
        payload = cli.random_algebra_file(dim, density, seed + i)
        out.append(Instance(f"suite-{seed + i}", json.dumps(payload)))
    return out


def banded(n: int, rng: random.Random) -> list[list[Fraction]]:
    """Tridiagonal structure matrix with every band entry nonzero.

    For n >= 3 no support carries an absolute zero divisor: with t the largest
    index of a support and t < n-1, the e_{t+1} coefficient of (x e_t) x is
    x_t^2 M[t][t] M[t+1][t] != 0; a support that holds n-1 fails the same way
    on e_{n-3}.  So degeneracy is "no" after a full scan of all 2^n supports,
    and the graph is strongly connected, hence prime.
    """
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(max(0, i - 1), min(n, i + 2)):
            m[j][i] = _nonzero_weight(rng)
    return m


def banded_scan(seed: int, count: int = BANDED_COUNT, n: int = BANDED_DIM) -> list[Instance]:
    rng = random.Random(f"banded-scan/{seed}")
    expect = {
        "degenerate": ("no", "all-support-kernels-trivial"),
        "semiprime": ("yes", None),
        "prime": ("yes", None),
    }
    return [
        Instance(
            f"banded-{seed}-{i}",
            _file_text(banded(n, rng), f"banded all-loop n={n} seed={seed} index={i}"),
            expect=expect,
        )
        for i in range(count)
    ]


def groebner_engine(
    seed: int, count: int = GROEBNER_COUNT, dim: int = GROEBNER_DIM
) -> list[Instance]:
    out = []
    for i in range(count):
        payload = cli.random_algebra_file(dim, GROEBNER_DENSITY, seed + i)
        out.append(Instance(f"groebner-{seed + i}", json.dumps(payload), engine="groebner"))
    return out


def sumsq(k: int, rng: random.Random) -> list[list[Fraction]]:
    """Sum-of-squares algebra on e_1..e_{k+2}.

    With u = e_{k+1} + e_{k+2}: e_i^2 = c_i u for i <= k, e_{k+1}^2 = u and
    e_{k+2}^2 = -u, so u^2 = 0.  The c_i are positive and not rational
    squares, so on a support {i, j} of imaginary vertices x^2 = 0 reads
    c_i a^2 + c_j b^2 = 0: solvable over the closure, never over Q, and the
    bounded rational search runs to the height cap.  The first rational
    witness is u itself, on the 0-based support [k, k+1].
    """
    n = k + 2
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(k):
        c = _nonzero_weight(rng)
        while c < 0 or _is_rational_square(c):
            c = _nonzero_weight(rng)
        m[k][i] = m[k + 1][i] = c
    m[k][k] = m[k + 1][k] = Fraction(1)
    m[k][k + 1] = m[k + 1][k + 1] = Fraction(-1)
    return m


def sumsq_search(seed: int, count: int = SUMSQ_COUNT, k: int = SUMSQ_K) -> list[Instance]:
    rng = random.Random(f"sumsq-search/{seed}")
    expect = {
        "semiprime": ("no", f"principal-zero-square-ideal support={[k, k + 1]}"),
        "prime": ("no", None),
    }
    return [
        Instance(
            f"sumsq-{seed}-{i}",
            _file_text(sumsq(k, rng), f"sum of squares k={k} seed={seed} index={i}"),
            expect=expect,
        )
        for i in range(count)
    ]


WORKLOADS = {
    "random-suite": random_suite,
    "banded-scan": banded_scan,
    "groebner-engine": groebner_engine,
    "sumsq-search": sumsq_search,
}
