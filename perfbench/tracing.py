"""Per-layer tracing from outside the package.

``Tracer.install()`` wraps the public functions of each evolalg module in
place, wherever a caller looks the name up: a function imported by name into
another module (``analysis.kernel_basis`` is ``exactla.kernel_basis``) is
replaced there too.  Nothing under ``src/`` is edited, and ``uninstall()``
puts every original back.

Each call records a span (name, start, end, parent span, report id) in memory,
plus running totals of calls, inclusive time and self time.  Self time is a
span's duration minus the time covered by its direct child spans.

A name the package no longer defines is skipped and reads as zero calls, so
a later refactor of ``src/`` does not break the traced run.

Leaf helpers that run millions of times per pass (``exactla.rat``,
``Mat.at``, ``MPoly`` arithmetic, ``poly.grevlex_key``) are not wrapped: the
wrapper would cost more than they do, and their time is already inside the
self time of the traced function that calls them.  Generator functions
(``analysis.iter_supports``) are not wrapped either, since a call only
creates the generator.
"""

from __future__ import annotations

import sys
from time import perf_counter

LAYERS = ("cli", "analysis", "exactla", "poly", "graph", "algebra")

# layer -> traced attributes of evolalg.<layer>; "Class.method" for methods
TRACED = {
    "cli": ("parse_algebra_text", "build_report", "report_to_json"),
    "analysis": (
        "degeneracy", "semiprime", "prime", "prime_ideals", "centroid", "decompose",
        "absorption", "is_absolute_zero_divisor", "is_zero_annihilator", "vn_algebra",
        "has_absorption", "vn_element", "degeneracy_witnesses",
        "nondegenerate_perfect_check",
    ),
    "exactla": (
        "kernel_basis", "rref", "det", "solve", "rank", "pivot_columns",
        "Subspace.span", "Subspace.axes", "Subspace.member", "Subspace.sum",
        "Subspace.intersect", "Subspace.contains",
    ),
    "poly": (
        "groebner", "normal_form", "s_polynomial", "variety_is_only_origin", "in_radical",
        "is_unit_ideal", "n2_entries", "n2_ideal",
    ),
    "graph": (
        "from_matrix", "reach", "hereditary_subsets", "is_downward_directed",
        "is_hereditary", "is_sinkless", "sinks", "components", "sink_strata", "quotient",
        "is_isolated_loops",
    ),
    "algebra": (
        "support", "EvolutionAlgebra.graph", "EvolutionAlgebra.multiply",
        "EvolutionAlgebra.left_mult_matrix", "EvolutionAlgebra.annihilator",
        "EvolutionAlgebra.is_perfect", "EvolutionAlgebra.ideal_generated_by",
        "EvolutionAlgebra.check_hereditary", "EvolutionAlgebra.basic_ideal",
        "EvolutionAlgebra.quotient_by_basic", "EvolutionAlgebra.ann_series",
    ),
}


# traced name -> function of the return value; its values are summed per name
OUTCOMES = {
    "exactla.kernel_basis": lambda kernel: kernel.dim > 0,
    "poly.normal_form": lambda remainder: remainder.is_zero(),
    "poly.variety_is_only_origin": lambda only_origin: only_origin is True,
    "poly.groebner": lambda basis: len(basis.generators),
    "graph.hereditary_subsets": len,
    "cli.report_to_json": lambda text: len(text.encode()),
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name index, start, end, parent, report)
        self.calls: list[int] = []
        self.inclusive: list[float] = []
        self.self_time: list[float] = []
        self.outcome: list[int] = []
        self.report_id = -1
        self._stack: list[int] = []  # open span ids
        self._child: list[float] = []  # time covered by children of open spans
        self._saved: list[tuple] = []

    def _wrap(self, key: int, fn, observe):
        spans, stack, child = self.spans, self._stack, self._child
        calls, inclusive, self_time, outcome = (
            self.calls, self.inclusive, self.self_time, self.outcome
        )

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                covered = child.pop()
                took = end - start
                if child:
                    child[-1] += took
                spans[sid] = (key, start, end, parent, self.report_id)
                calls[key] += 1
                inclusive[key] += took
                self_time[key] += took - covered
            if observe is not None:
                outcome[key] += observe(result)
            return result

        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "evolalg" or name.startswith("evolalg.")]
        for layer in LAYERS:
            mod = sys.modules[f"evolalg.{layer}"]
            for attr in TRACED[layer]:
                name = f"{layer}.{attr}"
                key = len(self.names)
                self.names.append(name)
                for counter in (self.calls, self.outcome):
                    counter.append(0)
                for clock in (self.inclusive, self.self_time):
                    clock.append(0.0)
                observe = OUTCOMES.get(name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name, None)
                    raw = vars(cls).get(meth) if cls is not None else None
                    if raw is None:
                        continue
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self._wrap(key, raw.__func__, observe))
                    else:
                        new = self._wrap(key, raw, observe)
                    self._saved.append((cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                wrapped = self._wrap(key, fn, observe)
                for m in modules:
                    for alias, value in list(vars(m).items()):
                        if value is fn:
                            self._saved.append((m, alias, fn))
                            setattr(m, alias, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, tuple[int, float, float, int]]:
        """name -> (calls, inclusive s, self s, summed outcome)."""
        return {
            name: (self.calls[k], self.inclusive[k], self.self_time[k], self.outcome[k])
            for k, name in enumerate(self.names)
        }

    def layer_self_time(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for k, name in enumerate(self.names):
            out[name.split(".", 1)[0]] += self.self_time[k]
        return out

    def write_spans(self, path):
        """One CSV line per span: name,start,end,parent,report (times in s)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,report\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for sid, (key, start, end, parent, report) in enumerate(self.spans):
                fh.write(
                    f"{sid},{self.names[key]},{start - t0:.9f},{end - t0:.9f},"
                    f"{parent},{report}\n"
                )
