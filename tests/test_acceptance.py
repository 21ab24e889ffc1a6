"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Criterion 7/8/9 share a module-scoped run over 1000 seeded random algebras
(dimensions 2..6 cycling, densities 0.3/0.6/0.9 cycling, seed = instance
index).
"""

import json
import time
from types import SimpleNamespace

import pytest

from evolalg import analysis, cli, graph as G, poly
from evolalg.exactla import Subspace, vec, vec_is_zero

from conftest import (
    CASCADE8_ROWS,
    COMPLETE2_ROWS,
    DEG4_ROWS,
    FIVE_ROWS,
    LATTICE5_ROWS,
    LINE4_ROWS,
    alg,
)
from reference import degeneracy_witnesses, substitute

DENSITIES = (0.3, 0.6, 0.9)
SUITE_SIZE = 1000


def _emit(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num}: {status}{suffix}")
    return ok


def _suite_instance(k):
    dim = 2 + (k % 5)
    density = DENSITIES[k % 3]
    payload = cli.random_algebra_file(dim, density, k)
    a, echo = cli.parse_algebra_text(json.dumps(payload), source=f"seed-{k}")
    return a, echo


def test_criterion_1_two_dim_golden():
    started = time.monotonic()
    a = alg(COMPLETE2_ROWS)
    deg = analysis.degeneracy(a)
    semi = analysis.semiprime(a)
    line = Subspace.span([[1, 1]], 2)
    checks = [
        deg.state == "yes",
        Subspace.span([deg.witness], 2) == line,
        semi.state == "no",
        semi.witness == line,
        not a.is_perfect(),
        analysis.is_zero_annihilator(a),
        len(G.components(a.graph())) == 1,
        analysis.centroid(a).dim == 1,
    ]
    elapsed = time.monotonic() - started
    ok = all(checks) and elapsed < 1.0
    assert _emit(1, ok, f"{elapsed:.3f}s")
    assert elapsed < 1.0


def test_criterion_2_four_dim_witness_and_groebner():
    started = time.monotonic()
    a = alg(DEG4_ROWS)
    deg = analysis.degeneracy(a)
    witnesses = degeneracy_witnesses(a)
    ideal = poly.n2_ideal(a)
    forced = [poly.in_radical(poly.MPoly.variable(4, i), ideal) for i in range(4)]
    checks = [
        deg.state == "yes",
        vec([0, 0, 0, 1]) in witnesses,
        analysis.degeneracy(a, engine="groebner").state == "yes",
        not poly.variety_is_only_origin(ideal),
        forced == [True, True, True, False],  # first three coordinates forced, last free
    ]
    elapsed = time.monotonic() - started
    ok = all(checks) and elapsed < 5.0
    assert _emit(2, ok, f"{elapsed:.3f}s")
    assert elapsed < 5.0


def test_criterion_3_unique_zero_square_ideal():
    started = time.monotonic()
    a = alg(LINE4_ROWS)
    semi = analysis.semiprime(a)
    elapsed = time.monotonic() - started
    ok = (
        semi.state == "no"
        and semi.witness == Subspace.span([[1, -1, 0, 0]], 4)
        and elapsed < 5.0
    )
    assert _emit(3, ok, f"{elapsed:.3f}s")
    assert elapsed < 5.0


def test_criterion_4_five_dim_semiprime_though_degenerate():
    """The name records the criterion as first stated; FIVE_ROWS is not semiprime.

    With x = e1 + e2 the structure matrix gives
        x^2 = e1^2 + e2^2 = (e1 + e2) - (e1 + e2) = 0,
        x*e1 = x, x*e2 = -x, x*e3 = x*e4 = x*e5 = 0,
    so span(e1 + e2) is a nonzero ideal with zero square and the verdict is
    "no". The test checks that the engine finds this witness and re-verifies it
    from the matrix. The name is kept so the criterion stays in the suite.
    """
    started = time.monotonic()
    a = alg(FIVE_ROWS)
    deg = analysis.degeneracy(a)
    entries = poly.n2_entries(a)

    def lies_in_zero_square_locus(vectors):
        # substitute a generic combination of the vectors and require every
        # entry of the squared left-multiplication matrix to vanish identically
        d = len(vectors)
        combo = [
            poly.MPoly(d, {tuple(1 if b == t else 0 for b in range(d)): vectors[t][i]
                           for t in range(d) if vectors[t][i]})
            for i in range(a.n)
        ]
        return all(substitute(p, combo).is_zero() for p in entries)

    def is_ideal(space):
        return all(
            space.member(a.multiply(v, a.basis_element(i)))
            for v in space.basis_vectors()
            for i in range(a.n)
        )

    e4 = a.basis_element(3)
    pair = vec([1, 1, 0, 0, 0])
    cand_small = Subspace.span([e4], 5)
    cand_large = Subspace.span([pair, e4], 5)
    semi = analysis.semiprime(a)
    elapsed = time.monotonic() - started
    checks_found = [
        deg.state == "yes",
        lies_in_zero_square_locus([e4]),
        lies_in_zero_square_locus([pair, e4]),
        not is_ideal(cand_small),
        not is_ideal(cand_large),
    ]
    # the plane span(e1+e2, e4) consists of absolute zero divisors but is not
    # an ideal; the span of e1+e2 inside it is a zero-square ideal, re-checked
    # here from the structure matrix rather than through the engine
    line = Subspace.span([pair], 5)
    witness_checks = [
        all(
            vec_is_zero(a.multiply(x, y))
            for x in line.basis_vectors()
            for y in line.basis_vectors()
        ),
        is_ideal(line),
        all(cand_large.member(v) for v in line.basis_vectors()),
    ]
    ok = (
        all(checks_found)
        and semi.state == "no"
        and semi.witness == line
        and all(witness_checks)
        and elapsed < 10.0
    )
    _emit(4, ok, f"engine says semiprime={semi.state}; {elapsed:.3f}s")
    assert all(checks_found)
    assert elapsed < 10.0
    assert semi.state == "no"
    assert semi.witness == line
    assert all(witness_checks)


def test_criterion_5_prime_ideal_list():
    started = time.monotonic()
    a = alg(LATTICE5_ROWS)
    res = analysis.prime_ideals(a)
    expected = [
        Subspace.axes(5, [0, 3, 4]),
        Subspace.axes(5, [1, 3, 4]),
        Subspace.axes(5, [0, 1, 3, 4]),
    ]
    rejected = dict(res.rejected)
    elapsed = time.monotonic() - started
    ok = (
        [b.space for b in res.primes] == expected
        and [sorted(b.vertices) for b in res.primes]
        == [[0, 3, 4], [1, 3, 4], [0, 1, 3, 4]]
        and rejected.get(frozenset({0, 1})) == "quotient-not-semiprime"
        and elapsed < 10.0
    )
    assert _emit(5, ok, f"{elapsed:.3f}s")
    assert elapsed < 10.0


def test_criterion_6_sink_cascade():
    started = time.monotonic()
    a = alg(CASCADE8_ROWS)
    strata = G.sink_strata(a.graph())
    radical, asi = analysis.absorption(a)
    series, _ = a.ann_series()
    level_ok = True
    acc = set()
    for n_, layer in enumerate(strata.strata, start=1):
        acc |= layer
        level_ok = level_ok and series[n_ - 1] == Subspace.axes(8, acc)
    elapsed = time.monotonic() - started
    ok = (
        [sorted(s) for s in strata.strata] == [[6, 7], [3], [5], [4]]
        and sorted(strata.residue) == [0, 1, 2]
        and radical == Subspace.axes(8, [3, 4, 5, 6, 7])
        and asi == 4
        and level_ok
        and elapsed < 1.0
    )
    assert _emit(6, ok, f"{elapsed:.3f}s")
    assert elapsed < 1.0


@pytest.fixture(scope="module")
def suite_run():
    started = time.monotonic()
    violations = []
    witness_total = 0
    witness_failures = []
    undetermined_semiprime = 0
    for k in range(SUITE_SIZE):
        a, _ = _suite_instance(k)
        g = a.graph()
        dim = a.n

        # (a) zero annihilator iff sinkless
        sinkless = G.is_sinkless(g)
        if (a.annihilator().dim == 0) != sinkless:
            violations.append((k, "a"))
        if analysis.is_zero_annihilator(a) != sinkless:
            violations.append((k, "a"))

        perfect = a.is_perfect()
        deg = analysis.degeneracy(a)
        semi = analysis.semiprime(a)
        pr = analysis.prime(a)
        if semi.state == "undetermined":
            undetermined_semiprime += 1

        # (b) perfect implies semiprime yes
        if perfect and semi.state != "yes":
            violations.append((k, "b"))

        # (c) in the perfect case, nondegenerate iff every vertex has a loop
        if perfect:
            loops = all(a.M.at(i, i) != 0 for i in range(dim))
            if loops != deg.is_no:
                violations.append((k, "c"))

        # (d) not downward directed forces prime no
        if not G.is_downward_directed(g) and pr.state != "no":
            violations.append((k, "d"))

        # (e) centroid of zero-annihilator instances
        if sinkless:
            cb = analysis.centroid(a)
            comps = G.components(g)
            if cb.dim != len(comps):
                violations.append((k, "e"))
            block = {v: ci for ci, c in enumerate(comps) for v in c}
            for t in cb.basis_mats:
                for i in range(dim):
                    for j in range(dim):
                        if i != j and t.at(i, j) != 0:
                            violations.append((k, "e"))
                        if block[i] == block[j] and t.at(i, i) != t.at(j, j):
                            violations.append((k, "e"))

        # (f) both degeneracy engines agree on small dimensions
        if dim <= 5:
            if analysis.degeneracy(a, engine="groebner").state != deg.state:
                violations.append((k, "f"))

        # witness re-verification pool for criterion 8
        if deg.state == "yes":
            witness_total += 1
            if not analysis.is_absolute_zero_divisor(a, deg.witness):
                witness_failures.append((k, "azd"))
        if semi.state == "no":
            witness_total += 1
            ideal = semi.witness
            good = ideal.dim > 0
            for x in ideal.basis_vectors():
                for y in ideal.basis_vectors():
                    good = good and vec_is_zero(a.multiply(x, y))
                for i in range(dim):
                    good = good and ideal.member(a.multiply(x, a.basis_element(i)))
            if not good:
                witness_failures.append((k, "ideal"))
        for x in (vec([1] * dim), a.basis_element(0)):
            y = analysis.vn_element(a, x)
            if y is not None:
                witness_total += 1
                if a.multiply(a.multiply(x, y), x) != x:
                    witness_failures.append((k, "vn"))
    elapsed = time.monotonic() - started
    return SimpleNamespace(
        violations=violations,
        witness_total=witness_total,
        witness_failures=witness_failures,
        undetermined_semiprime=undetermined_semiprime,
        elapsed=elapsed,
    )


def test_criterion_7_property_suite(suite_run):
    ok = not suite_run.violations and suite_run.elapsed < 300.0
    detail = (
        f"{SUITE_SIZE} instances, {len(suite_run.violations)} violations, "
        f"{suite_run.undetermined_semiprime} undetermined semiprime verdicts, "
        f"{suite_run.elapsed:.1f}s"
    )
    assert _emit(7, ok, detail)
    assert suite_run.elapsed < 300.0


def test_criterion_8_witness_reverification(suite_run):
    ok = not suite_run.witness_failures and suite_run.witness_total > 0
    assert _emit(
        8,
        ok,
        f"{suite_run.witness_total} witnesses re-verified, "
        f"{len(suite_run.witness_failures)} failures",
    )


def test_criterion_9_deterministic_reports():
    started = time.monotonic()
    mismatch = None
    for k in range(SUITE_SIZE):
        first_file = json.dumps(cli.random_algebra_file(2 + (k % 5), DENSITIES[k % 3], k))
        second_file = json.dumps(cli.random_algebra_file(2 + (k % 5), DENSITIES[k % 3], k))
        if first_file != second_file:
            mismatch = (k, "file")
            break
        reports = []
        for _ in range(2):
            a, echo = cli.parse_algebra_text(first_file, source=f"seed-{k}")
            reports.append(cli.report_to_json(cli.build_report(a, echo)))
        if reports[0] != reports[1]:
            mismatch = (k, "report")
            break
    elapsed = time.monotonic() - started
    ok = mismatch is None
    assert _emit(9, ok, f"{SUITE_SIZE} seeds x2, {elapsed:.1f}s" if ok else str(mismatch))
