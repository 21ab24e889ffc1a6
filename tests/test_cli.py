import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from evolalg import algebra, analysis, cli, graph as graphmod, poly
from evolalg.exactla import Rat

from conftest import (
    CASCADE8_ROWS, COMPLETE2_ROWS, FIVE_ROWS, LATTICE5_ROWS, LOOPS2_ROWS, alg,
)

rationals = st.builds(Rat, st.integers(-6, 6), st.integers(1, 4))

DATA = Path(__file__).resolve().parent.parent / "data"


def write_algebra(tmp_path, rows, name="a.json", labels=None, description=None):
    a = alg(rows, labels)
    path = tmp_path / name
    path.write_text(json.dumps(cli.render_algebra_file(a, description)))
    return str(path)


class TestParse:
    def test_frozen_example(self):
        text = '{"basis": ["e1", "e2"], "matrix": [[1, -1], [1, -1]]}'
        a, echo = cli.parse_algebra_text(text)
        assert a == alg(COMPLETE2_ROWS)
        assert echo["matrix"] == [[1, -1], [1, -1]]

    def test_fraction_strings(self):
        a, _ = cli.parse_algebra_text('{"basis": ["u"], "matrix": [["1/2"]]}')
        assert a.M.at(0, 0) == Rat(1, 2)

    def test_malformed_json_has_position(self):
        with pytest.raises(cli.AlgebraFileError, match=r"line 1, column"):
            cli.parse_algebra_text('{"basis": [,]}')

    def test_non_square(self):
        with pytest.raises(cli.AlgebraFileError, match="non-square"):
            cli.parse_algebra_text('{"basis": ["a", "b"], "matrix": [[1], [2]]}')

    def test_row_count_mismatch(self):
        with pytest.raises(cli.AlgebraFileError, match="non-square"):
            cli.parse_algebra_text('{"basis": ["a"], "matrix": [[1], [2]]}')

    def test_bad_rational_has_position(self):
        # exponent and decimal strings are outside the 'p/q' format; "1e5000"
        # would otherwise become a 5001-digit integer
        for entry in ("x", "1e5000", "1.5"):
            text = json.dumps({"basis": ["a", "b"], "matrix": [[1, entry], [0, 1]]})
            with pytest.raises(cli.AlgebraFileError, match=r"bad rational at row 0, column 1"):
                cli.parse_algebra_text(text)

    def test_float_rejected(self):
        with pytest.raises(cli.AlgebraFileError, match=r"row 0, column 0"):
            cli.parse_algebra_text('{"basis": ["a"], "matrix": [[0.5]]}')

    def test_duplicate_labels(self):
        with pytest.raises(cli.AlgebraFileError, match="duplicate"):
            cli.parse_algebra_text('{"basis": ["a", "a"], "matrix": [[1, 0], [0, 1]]}')

    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
        )
    ))
    def test_round_trip(self, rows):
        a = alg(rows)
        rendered = json.dumps(cli.render_algebra_file(a, "round trip"))
        parsed, _ = cli.parse_algebra_text(rendered)
        assert parsed == a


class TestRandom:
    def test_seed_stability(self):
        one = cli.random_algebra_file(4, 0.5, 7)
        two = cli.random_algebra_file(4, 0.5, 7)
        assert one == two

    def test_density_zero(self):
        f = cli.random_algebra_file(3, 0.0, 1)
        assert all(all(x == 0 for x in row) for row in f["matrix"])

    def test_density_one(self):
        f = cli.random_algebra_file(3, 1.0, 1)
        assert all(all(x != 0 for x in row) for row in f["matrix"])

    def test_range_validation(self):
        with pytest.raises(ValueError):
            cli.random_algebra_file(0, 0.5, 1)
        with pytest.raises(ValueError):
            cli.random_algebra_file(17, 0.5, 1)
        with pytest.raises(ValueError):
            cli.random_algebra_file(4, 1.5, 1)

    def test_generated_files_parse(self):
        for seed in range(5):
            text = json.dumps(cli.random_algebra_file(5, 0.6, seed))
            a, _ = cli.parse_algebra_text(text)
            assert a.n == 5


class TestAnalyzeCommand:
    def test_exit_zero_and_verdicts(self, tmp_path, capsys):
        path = write_algebra(tmp_path, COMPLETE2_ROWS)
        code = cli.main(["analyze", path, "--json"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        v = report["verdicts"]
        assert v["zero_annihilator"] is True
        assert v["perfect"] is False
        assert v["degenerate"]["state"] == "yes"
        assert v["degenerate"]["witness"]["element"] == ["1", "1"]
        assert v["semiprime"]["state"] == "no"
        assert v["semiprime"]["witness"]["ideal"]["basis"] == [["1", "1"]]
        assert v["prime"]["state"] == "no"
        assert v["centroid"]["dim"] == 1
        assert v["components"] == [["e1", "e2"]]

    def test_json_and_text_verdicts_agree(self, tmp_path, capsys):
        path = write_algebra(tmp_path, LATTICE5_ROWS)
        cli.main(["analyze", path, "--json"])
        report = json.loads(capsys.readouterr().out)
        cli.main(["analyze", path])
        text = capsys.readouterr().out
        v = report["verdicts"]
        assert f"zero annihilator: {'yes' if v['zero_annihilator'] else 'no'}" in text
        assert f"perfect: {'yes' if v['perfect'] else 'no'}" in text
        for key in ("degenerate", "semiprime", "prime"):
            assert f"{key}: {v[key]['state']}" in text
        assert f"prime ideals ({len(v['prime_ideals']['primes'])})" in text
        assert f"centroid dimension: {v['centroid']['dim']}" in text
        assert f"components ({len(v['components'])})" in text

    def test_loops_report(self, tmp_path, capsys):
        path = write_algebra(tmp_path, LOOPS2_ROWS)
        code = cli.main(["analyze", path, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["verdicts"]["von_neumann_regular"] is True
        assert report["verdicts"]["centroid"]["dim"] == 2
        assert len(report["verdicts"]["decomposition"]["summands"]) == 2

    def test_groebner_engine_flag(self, tmp_path, capsys):
        path = write_algebra(tmp_path, COMPLETE2_ROWS)
        code = cli.main(["analyze", path, "--json", "--engine", "groebner"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["verdicts"]["degenerate"]["state"] == "yes"
        assert report["engine"]["degeneracy_engine"] == "groebner"

    def test_engine_limit_gives_exit_two(self, tmp_path, capsys):
        # a 17-cycle: one prime ideal candidate, but past the support bound
        n = 17
        rows = [[1 if (i + 1) % n == j else 0 for i in range(n)] for j in range(n)]
        path = write_algebra(tmp_path, rows)
        code = cli.main(["analyze", path, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert report["engine"]["undetermined_present"] is True
        assert report["verdicts"]["degenerate"]["state"] == "undetermined"
        assert "engine-limit" in report["verdicts"]["degenerate"]["certificate"]

    def test_missing_file(self, capsys):
        code = cli.main(["analyze", "/nonexistent.json"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"{", "invalid JSON at line 1, column 2"),
            (b"\xff\xfe{}", "not UTF-8 text"),
            (b"[" * 100_000 + b"]" * 100_000, "invalid JSON: nested too deeply"),
            (b'{"basis": ["a"], "matrix": [[' + b"1" * 5000 + b"]]}", "invalid JSON:"),
        ],
        ids=["truncated", "not-utf8", "deep-nesting", "long-integer"],
    )
    def test_bad_file(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert cli.main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: {message}")
        assert captured.out == ""

    def test_zero_dimensional_input(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text('{"basis": [], "matrix": []}')
        assert cli.main(["analyze", str(path), "--json"]) == 0

    def test_every_engine_limit_degrades_gracefully(self, tmp_path, capsys):
        # one connected 40-cycle with loops: every bounded engine hits its cap,
        # and the one prime ideal candidate, the empty set, leaves A itself
        n = 40
        rows = [
            [1 if ((i + 1) % n == j or i == j) else 0 for i in range(n)]
            for j in range(n)
        ]
        path = write_algebra(tmp_path, rows)
        assert cli.main(["analyze", str(path), "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["engine"]["undetermined_present"] is True
        assert report["verdicts"]["decomposition"]["note"].startswith("engine-limit")
        assert report["verdicts"]["prime_ideals"] == {
            "error": "engine-limit: support bound exceeded: n=40 > 16"
        }
        assert cli.main(["centroid", str(path)]) == 2
        assert "engine limit" in capsys.readouterr().err


class TestOtherCommands:
    def test_graph_dot(self, tmp_path, capsys):
        path = write_algebra(tmp_path, COMPLETE2_ROWS)
        assert cli.main(["graph", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph E {")
        assert out.count("->") == 4

    def test_prime_ideals(self, tmp_path, capsys):
        path = write_algebra(tmp_path, LATTICE5_ROWS)
        code = cli.main(["prime-ideals", path, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [p["vertices"] for p in payload["primes"]] == [
            ["e1", "e4", "e5"],
            ["e2", "e4", "e5"],
            ["e1", "e2", "e4", "e5"],
        ]
        assert {"vertices": ["e1", "e2"], "reason": "quotient-not-semiprime"} in payload[
            "rejected"
        ]

    def test_centroid(self, tmp_path, capsys):
        path = write_algebra(tmp_path, LOOPS2_ROWS)
        assert cli.main(["centroid", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dim"] == 2

    def test_decompose(self, tmp_path, capsys):
        path = write_algebra(tmp_path, LOOPS2_ROWS)
        assert cli.main(["decompose", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [s["basis"] for s in payload] == [["e1"], ["e2"]]

    def test_decompose_rejects_nonzero_annihilator(self, tmp_path, capsys):
        path = write_algebra(tmp_path, [[1, 0], [0, 0]])
        assert cli.main(["decompose", path]) == 1
        assert "annihilator" in capsys.readouterr().err

    def test_series(self, tmp_path, capsys):
        from conftest import CASCADE8_ROWS

        path = write_algebra(tmp_path, CASCADE8_ROWS)
        assert cli.main(["series", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["asi"] == 4
        assert payload["strata"] == [["e7", "e8"], ["e4"], ["e6"], ["e5"]]
        assert payload["residue"] == ["e1", "e2", "e3"]

    def test_element_azd(self, tmp_path, capsys):
        path = write_algebra(tmp_path, COMPLETE2_ROWS)
        assert cli.main(["element", path, "--coords", "1,1", "--check", "azd", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["result"] is True
        assert cli.main(["element", path, "--coords", "1,0", "--check", "azd", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["result"] is False

    def test_element_vn(self, tmp_path, capsys):
        path = write_algebra(tmp_path, [[2]])
        assert cli.main(["element", path, "--coords", "1", "--check", "vn", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] is True and payload["inverse"] == ["1/4"]

    def test_element_bad_coords(self, tmp_path, capsys):
        path = write_algebra(tmp_path, COMPLETE2_ROWS)
        for coords in ("1,oops", "1/0,1"):
            assert cli.main(["element", path, "--coords", coords, "--check", "azd"]) == 1
            assert capsys.readouterr().err.startswith("error: bad coordinates: ")

    def test_random_command_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        args = ["random", "--dim", "4", "--density", "0.5", "--seed", "7"]
        assert cli.main(args + ["--out", str(out_path)]) == 0
        assert cli.main(args) == 0
        assert out_path.read_text() == capsys.readouterr().out

    def test_random_range_error(self, capsys):
        assert cli.main(["random", "--dim", "0", "--density", "0.5", "--seed", "1"]) == 1

    def test_random_unwritable_out(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        args = ["random", "--dim", "2", "--density", "0.5", "--seed", "1", "--out", str(target)]
        assert cli.main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {target}: No such file or directory\n"
        assert captured.out == ""


class TestUsageErrors:
    """Usage errors exit 1 like other input errors; 2 means an engine limit."""

    @pytest.mark.parametrize(
        "args",
        [
            ["analyze", str(DATA / "complete_pair.json"), "--engine", "nope"],
            ["analyze"],
            ["analyze", str(DATA / "complete_pair.json"), "--support-bound", "16"],
            ["analyze", str(DATA / "complete_pair.json"), "--height-cap", "3"],
            ["prime-ideals", str(DATA / "complete_pair.json"), "--support-bound", "16"],
            [],
        ],
    )
    def test_exit_one(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""

    def test_zero_bounds_are_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(analysis, "DEFAULT_SUPPORT_BOUND", 0)
        path = str(DATA / "complete_pair.json")
        assert cli.main(["analyze", path]) == 2
        assert "support bound exceeded: n=2 > 0" in capsys.readouterr().out
        assert cli.main(["prime-ideals", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == "engine limit: support bound exceeded: n=2 > 0\n"
        assert captured.out == ""

    def test_help_exits_zero(self, capsys):
        for args in (["--help"], ["analyze", "--help"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(args)
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith("usage: evolalg")

    def test_process_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "evolalg", "analyze", str(DATA / "complete_pair.json"),
             "--engine", "nope"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "invalid choice: 'nope'" in proc.stderr


class TestDeterminism:
    def test_reports_are_byte_identical(self, tmp_path):
        path = write_algebra(tmp_path, FIVE_ROWS)
        outputs = []
        for _ in range(2):
            a, echo = cli.load_algebra(path)
            outputs.append(cli.report_to_json(cli.build_report(a, echo)))
        assert outputs[0] == outputs[1]


class TestDataReports:
    # sha256 of `evolalg analyze FILE --json` on the sample files: a change to
    # any verdict, witness, certificate or formatting shows up here
    DIGESTS = {
        "complete_pair": "8bf955c0bde56c223efa124c0b3f12a68012f8ecfde2d183068f44921b393597",
        "five_vertex_lattice": "8a3d8a41ba4cff7975dec5d8422ab2c5686b8d5c9c5ec6d0aeb0f0b9fca597b3",
        "isolated_loops": "79e3651ed96e73ade9c0fe9517aba5c6088782a787925d6d4b6a8d172e6c99f9",
        "sink_cascade": "62583096d08e2b1c4e43bcdfce254ee0c7a97741a8afdf67346d686b9858e721",
        "unique_zero_square": "ba59e77350aeb2b8f8f51f3862705f2a2f4b2916a1119911285acd6b3320739d",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_analyze_json_bytes(self, name, capsys):
        assert cli.main(["analyze", str(DATA / f"{name}.json"), "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[name]


class TestOneAnalysisPerReport:
    def test_semiprime_visits_each_support_once(self, monkeypatch):
        # COMPLETE2_ROWS is downward directed and not perfect, so prime and
        # prime_ideals (quotient by the empty set) both ask for semiprime(A);
        # the closure test runs once per algebra object (the list keeps every
        # algebra alive, so equal ids mean the same object)
        runs = []
        original = analysis._semiprime
        monkeypatch.setattr(analysis, "_semiprime", lambda A: runs.append(A) or original(A))
        a = alg(COMPLETE2_ROWS)
        cli.build_report(a, cli.render_algebra_file(a))
        assert runs and len({id(A) for A in runs}) == len(runs)

    @pytest.mark.parametrize(
        "rows", [COMPLETE2_ROWS, FIVE_ROWS, LATTICE5_ROWS, LOOPS2_ROWS, CASCADE8_ROWS]
    )
    def test_one_graph_per_algebra_object(self, rows, monkeypatch):
        # the matrices are kept alive, so equal ids mean the same algebra
        built = []
        original = graphmod.from_matrix

        def counting(m):
            built.append(m)
            return original(m)

        monkeypatch.setattr(graphmod, "from_matrix", counting)
        a = alg(rows)
        cli.build_report(a, cli.render_algebra_file(a))
        assert built and len({id(m) for m in built}) == len(built)

    def test_connected_algebra_computes_its_centroid_once(self, monkeypatch):
        calls = []
        original = analysis._centroid
        monkeypatch.setattr(analysis, "_centroid", lambda A: calls.append(A) or original(A))
        a = alg(COMPLETE2_ROWS)
        report = cli.build_report(a, cli.render_algebra_file(a))
        assert report["verdicts"]["decomposition"]["summands"] == [cli.render_algebra_file(a)]
        assert calls == [a] and calls[0] is a

    def test_empty_quotient_reuses_semiprime(self, monkeypatch):
        calls = []
        original = analysis._semiprime
        monkeypatch.setattr(analysis, "_semiprime", lambda A: calls.append(A) or original(A))
        a = alg(COMPLETE2_ROWS)
        assert a.quotient_by_basic(()) is a
        verdict = analysis.semiprime(a)
        assert analysis.prime(a).witness == verdict.witness
        analysis.prime_ideals(a)
        assert len(calls) == 1 and calls[0] is a

    def test_perfect_algebra_solves_no_support_system(self, monkeypatch):
        # tridiagonal 1, 2, 1 has determinant n + 1 and a loop at every
        # vertex, so the loops and is_perfect decide degeneracy
        n = 11
        rows = [[2 if i == j else 1 if abs(i - j) == 1 else 0 for j in range(n)]
                for i in range(n)]
        systems = []
        original_system = analysis._support_system
        monkeypatch.setattr(
            analysis, "_support_system",
            lambda *args: systems.append(args) or original_system(*args),
        )
        a = alg(rows)
        report = cli.build_report(a, cli.render_algebra_file(a))
        assert a.is_perfect()
        assert report["verdicts"]["degenerate"]["state"] == "no"
        assert report["verdicts"]["semiprime"]["state"] == "yes"
        assert systems == []

    def test_nullity_one_semiprime_visits_supersets_of_the_circuit(self, monkeypatch):
        # columns 2 and 3 are equal, so ker M is spanned by e3 - e4; the
        # closure test decides semiprime without that kernel, the ordered
        # degeneracy search or any support system
        a = alg([
            [2, 0, 1, 1, 1, 0],
            [1, 1, 1, 1, -1, 0],
            [2, 0, 0, 0, -1, 2],
            [0, 2, 0, 0, 0, 0],
            [0, 1, 1, 1, 2, 0],
            [1, 0, 0, 0, 1, 1],
        ])
        calls = []
        for owner, name in (
            (analysis, "_support_system"),
            (analysis, "kernel_basis"),
            (algebra, "kernel_basis"),
            (analysis, "_ordered_witness"),
            (poly, "_buchberger"),
        ):
            original = getattr(owner, name)
            monkeypatch.setattr(
                owner, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args)
            )
        assert analysis.semiprime(a).state == analysis.YES
        assert calls == []
        assert a.null_space().basis_vectors() == [(0, 0, 1, -1, 0, 0)]

    def test_rank_deficient_report_enumerates_no_circuits(self, monkeypatch):
        # M = B C with B 12 x 6 (row 0 zero, so vertex 0 is loop-free) and
        # C 6 x 12: rank 6, and ker M has 787 circuits; the loop-free vertex
        # ends the check before the ordered search
        rng = random.Random(1)
        b = [[0] * 6] + [[rng.randint(-3, 3) for _ in range(6)] for _ in range(11)]
        c = [[rng.randint(-3, 3) for _ in range(12)] for _ in range(6)]
        rows = [[sum(b[i][k] * c[k][j] for k in range(6)) for j in range(12)]
                for i in range(12)]
        enumerated = []
        original = analysis._ordered_witness
        monkeypatch.setattr(
            analysis, "_ordered_witness", lambda *args: enumerated.append(args) or original(*args)
        )
        a = alg(rows)
        report = cli.build_report(a, cli.render_algebra_file(a))
        assert enumerated == []
        v = report["verdicts"]
        assert v["degenerate"]["state"] == "yes"
        assert v["degenerate"]["witness"] == {"element": ["1"] + ["0"] * 11}
        assert v["semiprime"]["state"] == "yes"


def test_module_entry_point_smoke(tmp_path):
    path = write_algebra(tmp_path, COMPLETE2_ROWS)
    proc = subprocess.run(
        [sys.executable, "-m", "evolalg", "analyze", str(path), "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["verdicts"]["semiprime"]["state"] == "no"
