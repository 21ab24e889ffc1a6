"""Self-test of the benchmark: the checker catches tampering, every workload
runs clean at a tiny size, and the emitted metrics match BENCHMARK.json.

    python3 -m pytest perfbench/test_bench.py -q
"""

import json
import sys
from argparse import Namespace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from evolalg import analysis, cli, exactla  # noqa: E402

TINY = {
    "random-suite": lambda seed: workloads.random_suite(seed, count=20),
    "banded-scan": lambda seed: workloads.banded_scan(seed, count=2, n=5),
    "groebner-engine": lambda seed: workloads.groebner_engine(seed, count=2, dim=3),
    "sumsq-search": lambda seed: workloads.sumsq_search(seed, count=2, k=2),
}


def _report(inst):
    A, echo = cli.parse_algebra_text(inst.text)
    return json.loads(cli.report_to_json(cli.build_report(A, echo, engine=inst.engine)))


def _problems(inst, report):
    return check.check_report(inst.text, cli.report_to_json(report), inst.engine, inst.expect)


def test_checker_flags_tampered_witness():
    pair = {"basis": ["e1", "e2"], "matrix": [[1, -1], [1, -1]]}
    inst = workloads.Instance("pair", json.dumps(pair))
    report = _report(inst)
    assert report["verdicts"]["degenerate"]["state"] == "yes"
    assert report["verdicts"]["semiprime"]["state"] == "no"
    assert _problems(inst, report) == []

    bad = json.loads(json.dumps(report))
    bad["verdicts"]["degenerate"]["witness"]["element"] = ["1", "0"]
    assert any("absolute zero divisor" in p for p in _problems(inst, bad))

    bad = json.loads(json.dumps(report))
    bad["verdicts"]["semiprime"]["witness"]["ideal"]["basis"] = [["1", "0"]]
    assert any(p.startswith("semiprime:") for p in _problems(inst, bad))


def test_checker_flags_tampered_report():
    inst = TINY["banded-scan"](0)[0]
    report = _report(inst)
    assert _problems(inst, report) == []

    bad = json.loads(json.dumps(report))
    bad["verdicts"]["prime"]["state"] = "no"
    assert any("known answer" in p for p in _problems(inst, bad))

    bad = json.loads(json.dumps(report))
    bad["input"]["matrix"][0][0] = 7
    assert "input echo differs from the file" in _problems(inst, bad)

    bad = json.loads(json.dumps(report))
    bad["verdicts"]["zero_annihilator"] = not bad["verdicts"]["zero_annihilator"]
    assert any("zero_annihilator" in p for p in _problems(inst, bad))


def test_later_pass_must_repeat_report_bytes():
    instances = TINY["random-suite"](0)[:3]
    first = bench.run_pass(instances)
    first.digests[1] = "0" * 64
    again = bench.run_pass(instances, reference=first)
    assert list(again.problems) == [1]


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_clean(name):
    instances = TINY[name](5)
    passes = [bench.run_pass(instances)]
    passes.append(bench.run_pass(instances, reference=passes[0]))
    assert [p.problems for p in passes] == [{}, {}]
    assert passes[0].undetermined == 0
    assert passes[0].sha256() == passes[1].sha256()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_alone_fixes_the_inputs(name):
    make = TINY[name]
    texts = [inst.text for inst in make(3)]
    assert texts == [inst.text for inst in make(3)]
    assert texts != [inst.text for inst in make(4)]


def test_sumsq_first_witness_is_u():
    for inst in workloads.sumsq_search(9, count=3, k=4):
        report = _report(inst)
        assert report["verdicts"]["semiprime"]["certificate"].endswith("support=[4, 5]")
        assert _problems(inst, report) == []


def test_emitted_metrics_match_benchmark_json(monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench, "SETUP_PROBES", 1)
    monkeypatch.setitem(workloads.WORKLOADS, "random-suite", TINY["random-suite"])
    emitted = {}
    for trace in (0, 1):
        args = Namespace(workload="random-suite", seed=0, seconds=0.01, trace=trace)
        record = bench.run_workload(args)
        assert record["failed"] == 0
        emitted[trace] = record["metrics"]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert list(emitted[trace]) == [m["name"] for m in spec[key]]
        for m in spec[key]:
            assert emitted[trace][m["name"]]["unit"] == m["unit"]
    assert all(m["value"] > 0 for m in emitted[0].values())


def test_tracer_patches_every_alias_and_restores_them(monkeypatch):
    monkeypatch.setitem(tracing.TRACED, "poly", tracing.TRACED["poly"] + ("no_such_function",))
    original = exactla.kernel_basis
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert analysis.kernel_basis is exactla.kernel_basis is not original
        bench.run_pass(TINY["banded-scan"](0)[:1], tracer=tracer)
    finally:
        tracer.uninstall()
    assert analysis.kernel_basis is exactla.kernel_basis is original
    totals = tracer.totals()
    assert totals["exactla.kernel_basis"][0] > 0
    assert totals["poly.no_such_function"] == (0, 0.0, 0.0, 0)
