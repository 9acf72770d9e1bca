"""Layer tracing for the benchmark, installed from outside the package.

The tracer rebinds chosen ``hermitia`` functions, in every loaded
``hermitia`` module namespace that holds them, to wrappers that record a
span (name, start, end, parent span, op id) or only count calls.  Modules
such as ``curvature``, ``hopf``, ``forms`` and ``structure`` import some of
these functions by name, so rebinding only the defining module would miss
those calls.  ``Jet.__init__`` is wrapped on the class to count jets made.

Spans stay in memory until ``write`` is called at the end of a run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute) of every function that gets a span; its metrics are
# "<module>.<function>.self_ms" and "<module>.<function>.calls".
SPANNED = (
    ("jets", "jet_matrix_inverse"),
    ("metric", "metric_jet"),
    ("metric", "ingest_torus_metric"),
    ("connection", "levi_civita"),
    ("connection", "chern"),
    ("connection", "bismut"),
    ("curvature", "ricci_panel"),
    ("curvature", "scalars"),
    ("curvature", "curvature_lc"),
    ("curvature", "curvature_induced"),
    ("curvature", "curvature_chern"),
    ("curvature", "curvature_bismut"),
    ("curvature", "normal_point_suite"),
    ("structure", "structure_report"),
    ("positivity", "p_positivity"),
    ("positivity", "griffiths_sample"),
    ("hopf", "oracle_vs_pipeline"),
    ("forms", "identity_suite"),
    ("forms", "bundle_identity_suite"),
    ("forms", "star"),
    ("forms", "random_form"),
    ("flow", "sample_on_grid"),
    ("flow", "step"),
    ("flow", "theta2_discrete"),
    ("flow", "diagnostics"),
    ("flow", "kahler_defect"),
)

# Functions called too often for a span each: calls are counted only.
COUNTED = (
    ("jets", "wirtinger"),
    ("metric", "evaluate"),
)

JET_CREATED = "jets.Jet.created"


class Tracer:
    """Span recorder for one traced pass over a list of ops."""

    def __init__(self):
        # span: [name, start_ns, end_ns, parent index, op id]; index 0.. in order
        # of starting, so a parent always precedes its children.
        self.spans: list = []
        self._stack: list = []
        self._op = -1
        self.counts: dict = defaultdict(int)   # name -> calls in the current op
        self.op_counts: dict = {}              # op id -> {name: calls}
        self._undo: list = []

    # -- ops -----------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self.counts.clear()
        self._stack.append(len(self.spans))
        self.spans.append(["op", time.perf_counter_ns(), 0, -1, op_id])

    def end_op(self) -> None:
        i = self._stack.pop()
        self.spans[i][2] = time.perf_counter_ns()
        self.op_counts[self._op] = dict(self.counts)
        self._op = -1

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            i = len(spans)
            spans.append([name, clock(), 0, stack[-1], self._op])
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][2] = clock()
        return wrapped

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def install(self) -> None:
        """Rebind every target in every loaded hermitia module."""
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "hermitia" or k.startswith("hermitia."))]
        for targets, make in ((SPANNED, self._spanned),
                              (COUNTED, self._counted)):
            for mod, attr in targets:
                orig = getattr(sys.modules[f"hermitia.{mod}"], attr)
                wrapper = make(f"{mod}.{attr}", orig)
                for m in mods:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapper)
                            self._undo.append((m, key, orig))
        jet_cls = sys.modules["hermitia.jets"].Jet
        init = jet_cls.__init__
        jet_cls.__init__ = self._counted(JET_CREATED, init)
        self._undo.append((jet_cls, "__init__", init))

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    # -- analysis ------------------------------------------------------------

    def per_op(self) -> dict:
        """op id -> {"wall_ms", "unattributed_ms", "reconcile_err_ms",
        "self_ms": {name: ms}, "calls": {name: n}, "min_self_ms"}.

        Self time is a span's duration minus the time its children cover.
        The op's own self time is what no span covers (unattributed)."""
        covered = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        out: dict = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            self_ns = (end - start) - covered[i]
            if parent < 0:
                rec = out.setdefault(op, {"self_ms": defaultdict(float),
                                          "calls": defaultdict(int)})
                rec["wall_ms"] = (end - start) / 1e6
                rec["unattributed_ms"] = self_ns / 1e6
                continue
            rec = out.setdefault(op, {"self_ms": defaultdict(float),
                                      "calls": defaultdict(int)})
            rec["self_ms"][name] += self_ns / 1e6
            rec["calls"][name] += 1
            rec["min_self_ms"] = min(rec.get("min_self_ms", 0.0), self_ns / 1e6)
        for op, rec in out.items():
            rec["calls"].update(self.op_counts.get(op, {}))
            total = sum(rec["self_ms"].values()) + rec["unattributed_ms"]
            rec["reconcile_err_ms"] = abs(total - rec["wall_ms"])
        return out

    def durations_ms(self, name: str) -> dict:
        """op id -> inclusive durations (ms) of every span called ``name``."""
        out: dict = defaultdict(list)
        for s in self.spans:
            if s[0] == name:
                out[s[4]].append((s[2] - s[1]) / 1e6)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,op\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{op}\n")
