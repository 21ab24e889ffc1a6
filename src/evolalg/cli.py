"""Command line interface, algebra file format, reports, random instances.

Algebra file format (JSON object):

    {
      "basis": ["e1", "e2"],
      "matrix": [[1, -1], [1, -1]],
      "description": "optional free text"
    }

``matrix`` is the structure matrix: row j, column i holds the coefficient of
basis vector j in the square of basis vector i (so column i is the square of
basis vector i).  Entries are integers or exact fraction strings like
``"-2/3"``; floats, and decimal or exponent strings, are rejected to keep
everything exact.

Commands: analyze, graph, prime-ideals, centroid, decompose, series, element,
random.  Exit codes: 0 all verdicts determined, 1 input or usage error, 2 an
engine limit was hit (the verdicts it blocked are reported as undetermined,
the others are still emitted).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Optional, Sequence

from . import analysis, graph as graphmod
from .algebra import EvolutionAlgebra
from .analysis import Verdict3
from .errors import EngineLimitError
from .exactla import Mat, Rat, Subspace, Vec, rat

RANDOM_NUMERATORS = (-4, -3, -2, -1, 1, 2, 3, 4)
RANDOM_MAX_DENOMINATOR = 4


class AlgebraFileError(ValueError):
    """Malformed algebra file; the message carries positional diagnostics."""


# ---------------------------------------------------------------------------
# file format


def _parse_entry(value, row: int, col: int, source: str) -> Rat:
    if isinstance(value, bool) or isinstance(value, float):
        raise AlgebraFileError(
            f"{source}: matrix entry at row {row}, column {col} must be an "
            f"integer or a 'p/q' string, got {value!r}"
        )
    try:
        return rat(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise AlgebraFileError(
            f"{source}: bad rational at row {row}, column {col}: {value!r} ({exc})"
        ) from None


def parse_algebra_text(text: str, source: str = "<input>") -> tuple[EvolutionAlgebra, dict]:
    """Parse an algebra file; returns the algebra and the input echo."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AlgebraFileError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise AlgebraFileError(f"{source}: invalid JSON: nested too deeply") from None
    except ValueError as exc:  # e.g. an integer past the int conversion digit limit
        raise AlgebraFileError(f"{source}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise AlgebraFileError(f"{source}: top level must be a JSON object")
    basis = data.get("basis")
    matrix = data.get("matrix")
    if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
        raise AlgebraFileError(f"{source}: 'basis' must be a list of strings")
    if len(set(basis)) != len(basis):
        dupes = sorted({b for b in basis if basis.count(b) > 1})
        raise AlgebraFileError(f"{source}: duplicate basis labels {dupes}")
    if not isinstance(matrix, list):
        raise AlgebraFileError(f"{source}: 'matrix' must be a list of rows")
    n = len(basis)
    if len(matrix) != n:
        raise AlgebraFileError(
            f"{source}: non-square: {len(matrix)} matrix rows for {n} basis labels"
        )
    rows = []
    for j, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != n:
            got = len(row) if isinstance(row, list) else type(row).__name__
            raise AlgebraFileError(
                f"{source}: non-square: row {j} has {got} entries, expected {n}"
            )
        rows.append([_parse_entry(v, j, i, source) for i, v in enumerate(row)])
    description = data.get("description")
    if description is not None and not isinstance(description, str):
        raise AlgebraFileError(f"{source}: 'description' must be a string")
    algebra = EvolutionAlgebra(tuple(basis), Mat.from_rows(rows, cols=n))
    return algebra, render_algebra_file(algebra, description)


def load_algebra(path: str) -> tuple[EvolutionAlgebra, dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise AlgebraFileError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise AlgebraFileError(
            f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None
    return parse_algebra_text(text, source=path)


def _entry_json(x: Rat):
    return int(x) if x.denominator == 1 else str(x)


def _matrix_json(m: Mat) -> list[list]:
    return [[_entry_json(m.at(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def render_algebra_file(A: EvolutionAlgebra, description: Optional[str] = None) -> dict:
    out = {"basis": list(A.labels), "matrix": _matrix_json(A.M)}
    if description is not None:
        out["description"] = description
    return out


def random_algebra_file(dim: int, density: float, seed: int) -> dict:
    """Seeded random algebra file; identical arguments give identical output."""
    if not 1 <= dim <= 16:
        raise ValueError(f"dim must be between 1 and 16, got {dim}")
    if not 0 <= density <= 1:
        raise ValueError(f"density must be between 0 and 1, got {density}")
    rng = random.Random(seed)
    rows = []
    for _ in range(dim):
        row = []
        for _ in range(dim):
            if rng.random() < density:
                num = rng.choice(RANDOM_NUMERATORS)
                den = rng.randint(1, RANDOM_MAX_DENOMINATOR)
                row.append(_entry_json(Rat(num, den)))
            else:
                row.append(0)
        rows.append(row)
    return {
        "basis": [f"e{i + 1}" for i in range(dim)],
        "matrix": rows,
        "description": f"random dim={dim} density={density} seed={seed}",
    }


# ---------------------------------------------------------------------------
# report


def _vec_json(v: Vec) -> list[str]:
    return [str(x) for x in v]


def _subspace_json(s: Subspace) -> dict:
    return {
        "ambient_dim": s.ambient_dim,
        "basis": [_vec_json(row) for row in s.basis_vectors()],
    }


def _witness_json(w):
    if w is None:
        return None
    if isinstance(w, Subspace):
        return {"ideal": _subspace_json(w)}
    if isinstance(w, tuple):
        return {"element": _vec_json(w)}
    raise TypeError(f"unexpected witness payload {type(w).__name__}")


def _prime_ideals_json(A: EvolutionAlgebra, res: analysis.PrimeIdealsResult) -> dict:
    return {
        "primes": [
            {
                "vertices": [A.labels[i] for i in sorted(b.vertices)],
                "space": _subspace_json(b.space),
            }
            for b in res.primes
        ],
        "rejected": [
            {"vertices": [A.labels[i] for i in sorted(h)], "reason": reason}
            for h, reason in res.rejected
        ],
    }


def _centroid_json(cb: analysis.CentroidBasis) -> dict:
    return {"dim": cb.dim, "basis": [_matrix_json(t) for t in cb.basis_mats]}


def _verdict_json(v: Verdict3) -> dict:
    return {"state": v.state, "certificate": v.certificate, "witness": _witness_json(v.witness)}


def build_report(A: EvolutionAlgebra, echo: dict, *, engine: str = "linear") -> dict:
    """Run every engine and collect the machine-readable report."""
    limits: list[str] = []

    def guarded(compute, on_limit):
        """compute(), or on_limit(note) when an engine limit is hit."""
        try:
            return compute()
        except EngineLimitError as exc:
            limits.append(str(exc))
            return on_limit(f"engine-limit: {exc}")

    degenerate = guarded(lambda: analysis.degeneracy(A, engine=engine), Verdict3.undetermined)
    semi = guarded(lambda: analysis.semiprime(A), Verdict3.undetermined)
    pr = guarded(lambda: analysis.prime(A), Verdict3.undetermined)
    prime_ideals_json = guarded(
        lambda: _prime_ideals_json(A, analysis.prime_ideals(A)), lambda note: {"error": note}
    )

    radical, asi = analysis.absorption(A)
    series, _ = A.ann_series()

    centroid_json = guarded(
        lambda: _centroid_json(analysis.centroid(A)), lambda note: {"error": note}
    )

    comps = [[A.labels[i] for i in block] for block in graphmod.components(A.graph())]

    zero_ann = analysis.is_zero_annihilator(A)
    if zero_ann:
        decomposition = guarded(
            lambda: {"summands": [render_algebra_file(s) for s in analysis.decompose(A)]},
            lambda note: {"summands": None, "note": note},
        )
    else:
        decomposition = {
            "summands": None,
            "note": "component count is basis dependent when the annihilator is nonzero",
        }

    return {
        "input": echo,
        "verdicts": {
            "zero_annihilator": zero_ann,
            "perfect": A.is_perfect(),
            "degenerate": _verdict_json(degenerate),
            "semiprime": _verdict_json(semi),
            "prime": _verdict_json(pr),
            "prime_ideals": prime_ideals_json,
            "absorption": {
                "radical": _subspace_json(radical),
                "asi": asi,
                "series": [_subspace_json(s) for s in series],
            },
            "von_neumann_regular": analysis.vn_algebra(A),
            "centroid": centroid_json,
            "components": comps,
            "decomposition": decomposition,
        },
        "engine": {
            "degeneracy_engine": engine,
            "support_bound": analysis.DEFAULT_SUPPORT_BOUND,
            "limits_hit": limits,
            "undetermined_present": bool(limits),
        },
    }


def report_to_json(report) -> str:
    """Canonical JSON text of a report or any command payload."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _fmt_witness(w) -> str:
    if w is None:
        return ""
    if "element" in w:
        return " witness=(" + ", ".join(w["element"]) + ")"
    rows = ["(" + ", ".join(r) + ")" for r in w["ideal"]["basis"]]
    return " witness ideal span{" + ", ".join(rows) + "}"


def render_report_text(report: dict) -> str:
    v = report["verdicts"]
    lines = []
    basis = report["input"]["basis"]
    lines.append(f"evolution algebra of dimension {len(basis)}, basis [{', '.join(basis)}]")
    if "description" in report["input"]:
        lines.append(f"description: {report['input']['description']}")
    lines.append(f"zero annihilator: {'yes' if v['zero_annihilator'] else 'no'}")
    lines.append(f"perfect: {'yes' if v['perfect'] else 'no'}")
    for key, title in (("degenerate", "degenerate"), ("semiprime", "semiprime"), ("prime", "prime")):
        verdict = v[key]
        lines.append(
            f"{title}: {verdict['state']}{_fmt_witness(verdict['witness'])}"
            f"  [{verdict['certificate']}]"
        )
    pi = v["prime_ideals"]
    if "error" in pi:
        lines.append(f"prime ideals: {pi['error']}")
    else:
        shown = ", ".join("{" + ", ".join(p["vertices"]) + "}" for p in pi["primes"]) or "none"
        lines.append(f"prime ideals ({len(pi['primes'])}): {shown}")
    absn = v["absorption"]
    lines.append(
        f"absorption radical dimension: {len(absn['radical']['basis'])}, asi={absn['asi']}"
    )
    lines.append(f"von Neumann regular: {'yes' if v['von_neumann_regular'] else 'no'}")
    cen = v["centroid"]
    lines.append(
        f"centroid dimension: {cen['dim']}" if "dim" in cen else f"centroid: {cen['error']}"
    )
    comps = v["components"]
    lines.append(
        f"components ({len(comps)}): " + "; ".join("{" + ", ".join(c) + "}" for c in comps)
    )
    dec = v["decomposition"]
    if dec["summands"] is None:
        lines.append(f"decomposition: skipped ({dec['note']})")
    else:
        sizes = ", ".join(str(len(s["basis"])) for s in dec["summands"])
        lines.append(
            f"decomposition: {len(dec['summands'])} indecomposable summand(s) of dimension(s) {sizes}"
        )
    if report["engine"]["limits_hit"]:
        for msg in report["engine"]["limits_hit"]:
            lines.append(f"engine limit: {msg}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _add_input(sp):
    sp.add_argument("file", help="algebra file (JSON)")


def _add_json_flag(sp):
    sp.add_argument("--json", action="store_true", help="emit machine-readable JSON")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like other input errors; exit 2 means an engine limit."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="evolalg",
        description="Exact structural analysis of finite-dimensional evolution algebras over Q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="run every verdict engine on an algebra file")
    _add_input(sp)
    _add_json_flag(sp)
    sp.add_argument(
        "--engine",
        choices=("linear", "groebner"),
        default="linear",
        help="degeneracy engine",
    )

    sp = sub.add_parser("graph", help="print the associated graph as DOT")
    _add_input(sp)

    sp = sub.add_parser("prime-ideals", help="list all prime ideals")
    _add_input(sp)
    _add_json_flag(sp)

    sp = sub.add_parser("centroid", help="compute a basis of the centroid")
    _add_input(sp)
    _add_json_flag(sp)

    sp = sub.add_parser("decompose", help="split a zero-annihilator algebra into summands")
    _add_input(sp)
    _add_json_flag(sp)

    sp = sub.add_parser("series", help="annihilating series, sink strata and absorption radical")
    _add_input(sp)
    _add_json_flag(sp)

    sp = sub.add_parser("element", help="check one element given by coordinates")
    _add_input(sp)
    _add_json_flag(sp)
    sp.add_argument("--coords", required=True, help="comma separated rationals, e.g. 1,0,-2/3")
    sp.add_argument("--check", required=True, choices=("vn", "azd"))

    sp = sub.add_parser("random", help="generate a seeded random algebra file")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--density", type=float, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", help="write to this path instead of stdout")

    return parser


def _cmd_analyze(args) -> int:
    A, echo = load_algebra(args.file)
    report = build_report(A, echo, engine=args.engine)
    if args.json:
        sys.stdout.write(report_to_json(report))
    else:
        sys.stdout.write(render_report_text(report))
    return 2 if report["engine"]["undetermined_present"] else 0


def _cmd_graph(args) -> int:
    A, _ = load_algebra(args.file)
    sys.stdout.write(graphmod.to_dot(A.graph(), A.labels))
    return 0


def _cmd_prime_ideals(args) -> int:
    A, _ = load_algebra(args.file)
    res = analysis.prime_ideals(A)
    payload = _prime_ideals_json(A, res)
    if args.json:
        sys.stdout.write(report_to_json(payload))
    else:
        for p in payload["primes"]:
            sys.stdout.write("prime ideal on {" + ", ".join(p["vertices"]) + "}\n")
        if not payload["primes"]:
            sys.stdout.write("no prime ideals\n")
    return 0


def _cmd_centroid(args) -> int:
    A, _ = load_algebra(args.file)
    cb = analysis.centroid(A)
    if args.json:
        sys.stdout.write(report_to_json(_centroid_json(cb)))
    else:
        sys.stdout.write(f"centroid dimension {cb.dim}\n")
        for t in cb.basis_mats:
            sys.stdout.write(
                "  " + " / ".join(str(list(map(str, t.row(i)))) for i in range(t.rows)) + "\n"
            )
    return 0


def _cmd_decompose(args) -> int:
    A, _ = load_algebra(args.file)
    try:
        summands = analysis.decompose(A)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if args.json:
        sys.stdout.write(report_to_json([render_algebra_file(s) for s in summands]))
    else:
        sys.stdout.write(f"{len(summands)} indecomposable summand(s)\n")
        for s in summands:
            sys.stdout.write("  {" + ", ".join(s.labels) + "}\n")
    return 0


def _cmd_series(args) -> int:
    A, _ = load_algebra(args.file)
    series, asi = A.ann_series()
    strata = graphmod.sink_strata(A.graph())
    radical, _ = analysis.absorption(A)
    payload = {
        "asi": asi,
        "series": [_subspace_json(s) for s in series],
        "strata": [[A.labels[i] for i in sorted(layer)] for layer in strata.strata],
        "residue": [A.labels[i] for i in sorted(strata.residue)],
        "radical": _subspace_json(radical),
    }
    if args.json:
        sys.stdout.write(report_to_json(payload))
    else:
        sys.stdout.write(f"asi = {asi}\n")
        for level, s in enumerate(payload["series"], start=1):
            dims = len(s["basis"])
            sys.stdout.write(f"Ann^({level}) has dimension {dims}\n")
        for level, layer in enumerate(payload["strata"], start=1):
            sys.stdout.write(f"sinks removed at round {level}: {{{', '.join(layer)}}}\n")
        sys.stdout.write(f"sinkless residue: {{{', '.join(payload['residue'])}}}\n")
        sys.stdout.write(f"absorption radical dimension {len(payload['radical']['basis'])}\n")
    return 0


def _cmd_element(args) -> int:
    A, _ = load_algebra(args.file)
    try:
        coords = [rat(part.strip()) for part in args.coords.split(",")]
        x = A.element(coords)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: bad coordinates: {exc}\n")
        return 1
    if args.check == "azd":
        ok = analysis.is_absolute_zero_divisor(A, x)
        payload = {"check": "azd", "result": ok}
        text = f"absolute zero divisor: {'yes' if ok else 'no'}\n"
    else:
        y = analysis.vn_element(A, x)
        payload = {
            "check": "vn",
            "result": y is not None,
            "inverse": None if y is None else _vec_json(y),
        }
        text = (
            "no von Neumann inverse\n"
            if y is None
            else "von Neumann inverse: (" + ", ".join(_vec_json(y)) + ")\n"
        )
    if args.json:
        sys.stdout.write(report_to_json(payload))
    else:
        sys.stdout.write(text)
    return 0


def _cmd_random(args) -> int:
    try:
        payload = random_algebra_file(args.dim, args.density, args.seed)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    text = report_to_json(payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"error: {args.out}: {exc.strerror or exc}\n")
            return 1
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "graph": _cmd_graph,
    "prime-ideals": _cmd_prime_ideals,
    "centroid": _cmd_centroid,
    "decompose": _cmd_decompose,
    "series": _cmd_series,
    "element": _cmd_element,
    "random": _cmd_random,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except AlgebraFileError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except EngineLimitError as exc:
        sys.stderr.write(f"engine limit: {exc}\n")
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
