"""Independent check of one ``analyze --json`` report.

Nothing here trusts the engine's own verdict code: witnesses are re-verified
through the public algebra API, known answers of the crafted families are
compared, and cheap structural facts are recomputed from the input matrix.
An ``undetermined`` verdict is not a failure; it is counted separately.
"""

from __future__ import annotations

import json
from fractions import Fraction

from evolalg import EvolutionAlgebra, Subspace, analysis

STATES = ("yes", "no", "undetermined")


def algebra_of(text: str) -> EvolutionAlgebra:
    """The algebra of a generated file, built without the CLI parser."""
    data = json.loads(text)
    rows = [[Fraction(x) for x in row] for row in data["matrix"]]
    return EvolutionAlgebra.from_rows(rows, labels=data["basis"])


def _vector(entries) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in entries)


def _zero_square_ideal_problem(A: EvolutionAlgebra, witness) -> str | None:
    """Why the witness is not a nonzero ideal with zero square, or None."""
    if not witness or "ideal" not in witness:
        return "missing ideal witness"
    vecs = [_vector(row) for row in witness["ideal"]["basis"]]
    if not vecs or any(len(v) != A.n for v in vecs):
        return "empty or malformed ideal witness"
    ideal = Subspace.span(vecs, A.n)
    if ideal.dim == 0:
        return "ideal witness is zero"
    for v in vecs:
        if any(any(A.multiply(v, w)) for w in vecs):
            return "ideal witness has nonzero square"
        for i in range(A.n):
            if not ideal.member(A.multiply(v, A.basis_element(i))):
                return "ideal witness is not closed under multiplication"
    return None


def check_report(text: str, report_text: str, engine: str, expect: dict | None) -> list[str]:
    """Problems found in a report; an empty list means the report is correct."""
    A = algebra_of(text)
    report = json.loads(report_text)
    problems = []
    if report["input"] != json.loads(text):
        problems.append("input echo differs from the file")
    v = report["verdicts"]
    states = {key: v[key]["state"] for key in ("degenerate", "semiprime", "prime")}
    for key, state in states.items():
        if state not in STATES:
            problems.append(f"{key}: unknown state {state!r}")

    deg = v["degenerate"]
    if deg["state"] == "yes":
        w = deg["witness"] or {}
        x = _vector(w.get("element", ()))
        if len(x) != A.n or not any(x):
            problems.append("degenerate: missing or zero element witness")
        elif not analysis.is_absolute_zero_divisor(A, x):
            problems.append("degenerate: witness is not an absolute zero divisor")
    for key in ("semiprime", "prime"):
        if v[key]["state"] == "no" and (key == "semiprime" or v[key]["witness"]):
            problem = _zero_square_ideal_problem(A, v[key]["witness"])
            if problem:
                problems.append(f"{key}: {problem}")
    if states["prime"] == "yes" and states["semiprime"] == "no":
        problems.append("prime algebra reported as not semiprime")

    zero_ann = all(any(A.M.at(j, i) for j in range(A.n)) for i in range(A.n))
    if v["zero_annihilator"] != zero_ann:
        problems.append("zero_annihilator disagrees with the input matrix")
    eng = report["engine"]
    if eng["degeneracy_engine"] != engine:
        problems.append(f"engine {eng['degeneracy_engine']!r}, expected {engine!r}")
    if "undetermined" in states.values() and not eng["undetermined_present"]:
        problems.append("undetermined verdict without undetermined_present")

    for key, (state, certificate) in (expect or {}).items():
        if v[key]["state"] != state:
            problems.append(f"{key}: state {v[key]['state']!r}, known answer {state!r}")
        elif certificate is not None and v[key]["certificate"] != certificate:
            problems.append(
                f"{key}: certificate {v[key]['certificate']!r}, known answer {certificate!r}"
            )
    return problems
