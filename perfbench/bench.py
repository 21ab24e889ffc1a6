"""Closed-loop benchmark of the ``evolalg analyze --json`` path.

One caller in one process, no threads: each algebra of a workload goes
JSON text -> ``cli.parse_algebra_text`` -> ``cli.build_report`` ->
``cli.report_to_json`` before the next one starts.  A pass runs the whole
workload once; passes repeat until ``--seconds`` is used up (at least one).
The first pass checks every report independently (check.py); later passes
must reproduce its report bytes exactly.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one extra traced pass (tracing.py).  The last line of standard
output is the JSON result; the full record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from evolalg import cli

import check
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 7

ANALYSIS_ENTRY_POINTS = (
    "degeneracy", "semiprime", "prime", "prime_ideals", "centroid", "decompose", "absorption",
)

# per-layer metric -> (traced name, field, unit); field is one of calls, s,
# self_s, or a ratio computed in layer_metrics()
PER_LAYER = {
    "cli.parse_algebra_text.s": ("cli.parse_algebra_text", "s", "s"),
    "cli.build_report.s": ("cli.build_report", "s", "s"),
    "cli.report_to_json.s": ("cli.report_to_json", "s", "s"),
    "cli.report_bytes": ("cli.report_to_json", "outcome", "bytes"),
    **{
        f"analysis.{fn}.{fld}": (f"analysis.{fn}", fld, "count" if fld == "calls" else "s")
        for fn in ANALYSIS_ENTRY_POINTS
        for fld in ("s", "self_s", "calls")
    },
    "analysis.semiprime.calls_per_report": ("analysis.semiprime", "per_report", "calls/report"),
    "analysis.centroid.calls_per_report": ("analysis.centroid", "per_report", "calls/report"),
    "exactla.kernel_basis.calls": ("exactla.kernel_basis", "calls", "count"),
    "exactla.kernel_basis.s": ("exactla.kernel_basis", "s", "s"),
    "exactla.kernel_basis.nontrivial_frac": ("exactla.kernel_basis", "frac", "fraction"),
    "exactla.rref.calls": ("exactla.rref", "calls", "count"),
    "exactla.rref.s": ("exactla.rref", "s", "s"),
    "exactla.det.calls": ("exactla.det", "calls", "count"),
    "exactla.det.s": ("exactla.det", "s", "s"),
    "exactla.Subspace.span.calls": ("exactla.Subspace.span", "calls", "count"),
    "poly.groebner.calls": ("poly.groebner", "calls", "count"),
    "poly.groebner.s": ("poly.groebner", "s", "s"),
    "poly.groebner.basis_len": ("poly.groebner", "frac", "generators"),
    "poly.normal_form.calls": ("poly.normal_form", "calls", "count"),
    "poly.normal_form.s": ("poly.normal_form", "s", "s"),
    "poly.normal_form.zero_frac": ("poly.normal_form", "frac", "fraction"),
    "poly.s_polynomial.calls": ("poly.s_polynomial", "calls", "count"),
    "poly.variety_is_only_origin.calls": ("poly.variety_is_only_origin", "calls", "count"),
    "poly.variety_is_only_origin.s": ("poly.variety_is_only_origin", "s", "s"),
    "poly.variety_is_only_origin.true_frac": ("poly.variety_is_only_origin", "frac", "fraction"),
    "poly.in_radical.calls": ("poly.in_radical", "calls", "count"),
    "graph.from_matrix.calls": ("graph.from_matrix", "calls", "count"),
    "graph.reach.calls": ("graph.reach", "calls", "count"),
    "graph.reach.s": ("graph.reach", "s", "s"),
    "graph.hereditary_subsets.calls": ("graph.hereditary_subsets", "calls", "count"),
    "graph.hereditary_subsets.s": ("graph.hereditary_subsets", "s", "s"),
    "graph.hereditary_subsets.sets": ("graph.hereditary_subsets", "outcome", "count"),
    "graph.is_downward_directed.calls": ("graph.is_downward_directed", "calls", "count"),
    "algebra.multiply.calls": ("algebra.EvolutionAlgebra.multiply", "calls", "count"),
    "algebra.multiply.s": ("algebra.EvolutionAlgebra.multiply", "s", "s"),
    "algebra.ideal_generated_by.calls": ("algebra.EvolutionAlgebra.ideal_generated_by", "calls", "count"),
    "algebra.quotient_by_basic.calls": ("algebra.EvolutionAlgebra.quotient_by_basic", "calls", "count"),
    "algebra.ann_series.calls": ("algebra.EvolutionAlgebra.ann_series", "calls", "count"),
    "algebra.is_perfect.calls": ("algebra.EvolutionAlgebra.is_perfect", "calls", "count"),
}


@dataclass
class Pass:
    """Outcome of running every algebra of a workload once."""

    parse_s: list = field(default_factory=list)  # per algebra; None if it failed
    report_s: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    problems: dict = field(default_factory=dict)  # algebra index -> message
    undetermined: int = 0
    stream: object = field(default_factory=hashlib.sha256)  # all report bytes, in order

    @property
    def wall_s(self) -> float:
        return sum(p + r for p, r in zip(self.parse_s, self.report_s) if r is not None)

    def sha256(self) -> str:
        return self.stream.hexdigest()


def run_pass(instances, reference=None, tracer=None) -> Pass:
    """Analyse every instance once.  Without ``reference`` each report is
    checked; with it, each report's bytes must equal the reference pass."""
    p = Pass()
    for idx, inst in enumerate(instances):
        if tracer is not None:
            tracer.report_id = idx
        try:
            t0 = perf_counter()
            A, echo = cli.parse_algebra_text(inst.text, source=inst.label)
            t1 = perf_counter()
            report = cli.build_report(A, echo, engine=inst.engine)
            out = cli.report_to_json(report)
            t2 = perf_counter()
        except Exception:  # counted in failed_frac; the run goes on
            p.problems[idx] = traceback.format_exc(limit=3)
            p.parse_s.append(None)
            p.report_s.append(None)
            p.digests.append(None)
            continue
        p.parse_s.append(t1 - t0)
        p.report_s.append(t2 - t1)
        data = out.encode()
        p.stream.update(data)
        digest = hashlib.sha256(data).hexdigest()
        p.digests.append(digest)
        p.undetermined += bool(report["engine"]["undetermined_present"])
        if reference is not None:
            if digest != reference.digests[idx]:
                p.problems[idx] = "report bytes differ from the first pass"
            continue
        try:
            found = check.check_report(inst.text, out, inst.engine, inst.expect)
        except Exception:  # a malformed report fails the check
            found = [traceback.format_exc(limit=3)]
        if found:
            p.problems[idx] = "; ".join(found)
    return p


def run_passes(instances, seconds: float) -> list[Pass]:
    """Whole passes until the next one would overrun ``seconds``."""
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        passes.append(run_pass(instances, passes[0] if passes else None))
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def per_algebra_ms(passes: list[Pass]) -> list[float]:
    """Median build_report + report_to_json time of each algebra, in ms."""
    out = []
    for idx in range(len(passes[0].report_s)):
        times = [p.report_s[idx] for p in passes if p.report_s[idx] is not None]
        if times:
            out.append(1000 * statistics.median(times))
    return out


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall times of fresh processes that import, generate and parse."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_PROBES):
        # no timeout: with one, Popen.wait polls with sleeps of up to 50 ms,
        # which would quantise the measurement
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        out.append(perf_counter() - t0)
    return out


def commit_id() -> str:
    """Commit of the checkout, read from its own .git directory if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit_id(),
        "evolalg_threads": os.environ.get("EVOLALG_THREADS"),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer: tracing.Tracer, reports: int) -> dict:
    totals = tracer.totals()
    out = {}
    for metric, (name, fld, unit) in PER_LAYER.items():
        calls, inclusive, self_s, outcome = totals[name]
        value = {
            "calls": calls,
            "s": inclusive,
            "self_s": self_s,
            "outcome": outcome,
            "per_report": calls / reports,
            "frac": outcome / calls if calls else 0.0,
        }[fld]
        out[metric] = _metric(value, unit)
    for layer, self_s in tracer.layer_self_time().items():
        out[f"layer.{layer}.self_s"] = _metric(self_s, "s")
    return out


def summary_lines(workload: str, seed: int, record: dict) -> list[str]:
    lines = [
        f"workload {workload} seed {seed}: {record['algebras']} algebras x "
        f"{record['passes']} passes, reports sha256 {record['report_sha256']}"
    ]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for name, value in record["info"].items():
        lines.append(f"  {name:<40} {value}")
    for idx, msg in sorted(record["problems"].items())[:5]:
        lines.append(f"  FAILED algebra {idx}: {msg.strip().splitlines()[-1]}")
    return lines


def run_workload(args) -> dict:
    make = workloads.WORKLOADS[args.workload]
    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    instances = make(args.seed)
    passes = run_passes(instances, args.seconds)
    first = passes[0]
    problems = {}
    for p in passes:
        for idx, msg in p.problems.items():
            problems.setdefault(idx, msg)
    attempted = len(instances) * len(passes)
    failed = sum(len(p.problems) for p in passes)
    shas = {p.sha256() for p in passes}
    per_alg = sorted(per_algebra_ms(passes))
    info = {
        "failed_frac": f"{failed / attempted:.6g} ({failed}/{attempted} reports)",
        "undetermined_frac": (
            f"{first.undetermined / len(instances):.6g} "
            f"({first.undetermined}/{len(instances)} algebras)"
        ),
        "report_samples": f"{len(per_alg)} algebras, median of {len(passes)} passes each",
    }
    if len(per_alg) >= 100:
        info["report_p90_ms"] = f"{nearest_rank(per_alg, 0.9):.6g} ms (nearest rank)"
    record = {
        "environment": environment(args),
        "algebras": len(instances),
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "report_sha256": first.sha256() if len(shas) == 1 else sorted(shas),
        "attempted": attempted,
        "failed": failed,
        "undetermined": first.undetermined,
        "problems": problems,
        "info": info,
    }
    if not args.trace:
        ok_reports = len(instances) - len(first.problems)
        record["setup_runs_s"] = setup
        record["metrics"] = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "algebras_per_s": _metric(
                ok_reports / statistics.median(p.wall_s for p in passes), "1/s"
            ),
            "report_p50_ms": _metric(statistics.median(per_alg) if per_alg else math.nan, "ms"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
        }
        return record

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass(instances, first, tracer)
    finally:
        tracer.uninstall()
    record["attempted"] += len(instances)
    record["failed"] += len(traced.problems)
    for idx, msg in traced.problems.items():
        problems.setdefault(idx, f"traced pass: {msg}")
    untraced_s = statistics.median(p.wall_s for p in passes)
    metrics = layer_metrics(tracer, len(instances))
    metrics["trace.overhead_s"] = _metric(traced.wall_s - untraced_s, "s")
    metrics["trace.overhead_frac"] = _metric((traced.wall_s - untraced_s) / untraced_s, "fraction")
    metrics["trace.spans"] = _metric(len(tracer.spans), "count")
    metrics["report.undetermined_frac"] = _metric(first.undetermined / len(instances), "fraction")
    record["metrics"] = metrics
    record["traced_pass_wall_s"] = traced.wall_s
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write_spans(spans)
    record["spans_file"] = str(spans.relative_to(ROOT))
    return record


def setup_probe(args) -> int:
    """Everything a workload does before its first report, then exit."""
    for inst in workloads.WORKLOADS[args.workload](args.seed):
        cli.parse_algebra_text(inst.text, source=inst.label)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to one workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(res.stderr)
        lines = res.stdout.splitlines()
        if res.returncode != 0 or not lines:
            sys.stderr.write(f"error: workload {name} exited with {res.returncode}\n")
            return 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measuring time; whole passes run until it is used up")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from an extra traced pass")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print("\n".join(summary_lines(args.workload, args.seed, record)))
    print(f"  record written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0
