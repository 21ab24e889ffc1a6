"""Every function in the package is reached by what the package is for.

Under ``sys.setprofile`` every ``evolalg`` command runs on every
``data/*.json`` file, plus three inputs that the data files do not cover:
an algebra past the support bound (so a verdict is ``undetermined``), a
singular algebra with a loop at every vertex (so degeneracy reaches its
ordered search), and the groebner engine.  Every ``def`` under
``src/evolalg``, found with ``ast``, must have been called, apart from
``ALLOWED``: each entry there names the caller outside these runs.  A helper
that only tests call belongs in the tests (``tests/reference.py``).
"""

import ast
import contextlib
import io
import json
import os
import pathlib
import sys

import evolalg
from evolalg import cli

PACKAGE = pathlib.Path(evolalg.__file__).resolve().parent
DATA = sorted((pathlib.Path(__file__).resolve().parent.parent / "data").glob("*.json"))

_CRITERION_2 = "acceptance criterion 2 calls poly.in_radical"
ALLOWED = {
    "poly.in_radical": _CRITERION_2,
    "poly.MPoly.__mul__": _CRITERION_2 + " (z*p)",
    "poly.MPoly.const": _CRITERION_2 + " (1 - z*p)",
    "poly.MPoly.extend": _CRITERION_2 + " (adjoins z)",
    "poly.MPoly.variable": _CRITERION_2 + " (adjoins z)",
    "algebra.EvolutionAlgebra.from_rows": "the README's library example",
    "analysis.has_absorption": "library API: absorption of one basic ideal",
    "analysis.Verdict3.is_no": "library API: the pair of Verdict3.is_yes",
    "poly.MPoly.__str__": "serves as __repr__ in hypothesis failure reports",
    "cli._Parser.error": "usage errors (exit 1)",
    "cli.entry": "the console script",
}


def package_defs() -> dict[tuple[str, int], str]:
    """(file, first line of the code object) -> qualified name, for every def."""
    defs = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                defs[(path, first)] = prefix + child.name
                visit(child, prefix + child.name + ".", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", path)

    for source in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(source.read_text()), source.stem + ".", str(source))
    return defs


def write(path, rows):
    path.write_text(json.dumps({"basis": [f"e{i + 1}" for i in range(len(rows))], "matrix": rows}))
    return str(path)


def commands(path: str) -> list[list[str]]:
    n = len(json.loads(pathlib.Path(path).read_text())["basis"])
    coords = ",".join(["1"] * n)
    runs = [["analyze", path], ["analyze", "--json", path],
            ["analyze", "--json", "--engine", "groebner", path], ["graph", path]]
    for command in ("prime-ideals", "centroid", "decompose", "series"):
        runs += [[command, path], [command, "--json", path]]
    for check in ("vn", "azd"):
        runs += [["element", path, "--coords", coords, "--check", check],
                 ["element", "--json", path, "--coords", coords, "--check", check]]
    return runs


def test_every_def_is_reached(tmp_path):
    n = 17  # a loop-free cycle past the support bound: degeneracy is undetermined
    cycle = [[1 if i == (j + 1) % n else 0 for j in range(n)] for i in range(n)]
    inputs = [str(p) for p in DATA] + [
        write(tmp_path / "cycle.json", cycle),
        write(tmp_path / "singular_loops.json", [[1, 1], [1, 1]]),  # the ordered search
    ]
    runs = [run for path in inputs for run in commands(path)]
    runs += [["random", "--dim", "3", "--density", "0.5", "--seed", "0"],
             ["random", "--dim", "3", "--density", "0.5", "--seed", "0",
              "--out", str(tmp_path / "random.json")]]

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    codes = []
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in runs:
                codes.append(cli.main(argv))
    finally:
        sys.setprofile(previous)

    assert 2 in codes and set(codes) <= {0, 1, 2}
    reached = {(os.path.realpath(f), line) for f, line in called}
    unreached = sorted(name for key, name in package_defs().items() if key not in reached)
    stray = [name for name in unreached if name not in ALLOWED]
    assert not stray, "no command or report calls " + ", ".join(stray)
    stale = [name for name in ALLOWED if name not in unreached]
    assert not stale, "allowed but reached, drop from ALLOWED: " + ", ".join(stale)
