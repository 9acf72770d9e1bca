"""Benchmark of the hermitia pipelines, driven from outside the package.

    python3 perfbench/run.py --workload {points,forms,flow} --seed N \
        --seconds S --trace {0,1}

One process, one BLAS thread, one client in a closed loop: the next op
starts when the previous one returns.  Inputs are drawn from the seed (see
workloads.py); ops run in whole cycles until ``--seconds`` are measured.
Every op's output is checked by the gates in gates.py.

--trace 0  times the run untraced and reports the end-to-end metrics.
--trace 1  runs whole cycles untraced for a quarter of ``--seconds``, then
           the same ops again with layer tracing (spans.py), checks that the
           outputs are bit-identical, and reports the per-layer metrics, the
           tracing overhead and the baseline readout.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Detailed results and spans go to perfbench/out/.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import env  # noqa: E402  (pins BLAS threads before numpy loads)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

OUT = env.ROOT / "perfbench" / "out"
SETUP_PROBES = 7
# n values whose lazy jet (and, for forms, form-basis) tables set-up fills.
SETUP_DIMS = {"points": (2, 3, 4), "forms": (2, 3), "flow": ()}

END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "op_ms_p50": "ms",
              "peak_rss_mb": "MB"}

# Per-layer metrics: every one per op (mean over the traced ops), and the
# ones of the layers a workload exercises also per op class.
_JETS = ["jets.Jet.created", "jets.jet_matrix_inverse.self_ms",
         "jets.wirtinger.calls"]
_CONNECTION = ["connection.levi_civita.calls", "connection.levi_civita.self_ms",
               "connection.chern.self_ms", "connection.bismut.self_ms"]
_CURVATURE = [f"curvature.{f}.self_ms" for f in (
    "ricci_panel", "scalars", "curvature_lc", "curvature_induced",
    "curvature_chern", "curvature_bismut", "normal_point_suite")]
_CHECKS = ["structure.structure_report.self_ms",
           "positivity.p_positivity.self_ms",
           "positivity.griffiths_sample.self_ms",
           "hopf.oracle_vs_pipeline.self_ms"]
_FORMS = ["forms.identity_suite.self_ms", "forms.bundle_identity_suite.self_ms",
          "forms.star.calls", "forms.star.self_ms", "forms.random_form.self_ms",
          "forms.lc_reuse"]
_FLOW = ["metric.ingest_torus_metric.self_ms", "metric.evaluate.calls",
         "flow.sample_on_grid.self_ms", "flow.step.calls",
         "flow.theta2_discrete.calls", "flow.theta2_discrete.self_ms",
         "flow.diagnostics.self_ms", "flow.kahler_defect.self_ms"]
_POINT_LAYERS = _JETS + ["metric.metric_jet.self_ms"] + _CONNECTION \
    + _CURVATURE + _CHECKS
LAYER_BASE = _POINT_LAYERS + _FLOW + _FORMS
LAYER_SPLITS = ((("n2", "n3", "n4"), _POINT_LAYERS), (("n2", "n3"), _FORMS),
                (("N8", "N12"), _FLOW))
SPLITS = {s for splits, _ in LAYER_SPLITS for s in splits}
TRACE_HEALTH = {"trace.unattributed_ms": "ms", "trace.overhead_frac": "fraction",
                "trace.reconcile_err_ms": "ms"}

# Inclusive per-call medians printed by --trace 1, as the ROADMAP baseline
# table quotes them.
BASELINE_ROWS = {
    "points": ("connection.levi_civita", "curvature.ricci_panel",
               "curvature.scalars", "hopf.oracle_vs_pipeline"),
    "forms": ("forms.identity_suite", "forms.bundle_identity_suite"),
    "flow": ("flow.sample_on_grid", "flow.theta2_discrete", "flow.step",
             "flow.diagnostics"),
}


def per_layer_units() -> dict:
    names = list(LAYER_BASE)
    for splits, metrics in LAYER_SPLITS:
        names += [f"{m}.{s}" for m in metrics for s in splits]
    units = {}
    for name in names:
        base = name.rsplit(".", 1)[0] if name.rsplit(".", 1)[1] in SPLITS \
            else name
        units[name] = ("ms" if base.endswith("self_ms") else
                       "trials/call" if base.endswith("lc_reuse") else "count")
    units.update(TRACE_HEALTH)
    return units


def set_up(workload: str) -> float:
    """Import hermitia and fill the lazy tables the workload's ops use.
    Returns seconds since this process started running this file."""
    env.use_source_tree()
    import numpy as np
    from hermitia import (connection, curvature, flow, forms, hopf,  # noqa: F401
                          jets, metric, positivity, structure)
    for n in SETUP_DIMS[workload]:
        for order in range(4):
            jets.Jet(n, order)
        if workload == "forms":
            mj = metric.metric_jet(metric.flat_metric(n), np.zeros(n, complex))
            for p in range(n + 1):
                for q in range(n + 1):
                    forms.zero_form(mj, p, q)
    return time.perf_counter() - _T0


def probe_setup(workload: str) -> float:
    """Median set-up time over fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload],
            capture_output=True, text=True, timeout=120, check=True,
            cwd=env.ROOT)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run_cycles(wl, seed, seconds=None, cycles=None, tracer=None):
    """Whole cycles until ``seconds`` are measured, or exactly ``cycles``.
    Each cycle's inputs are generated before its clock starts.  Returns the
    (op, outcome) pairs and each cycle's (ops, seconds)."""
    import workloads as W
    done, rates = [], []
    while (sum(t for _, t in rates) < seconds) if cycles is None \
            else (len(rates) < cycles):
        ops = wl.cycle(seed, len(rates) + 1)
        t0 = time.perf_counter()
        for op in ops:
            done.append((op, W.attempt(op, tracer, len(done))))
        rates.append((len(ops), time.perf_counter() - t0))
    return done, rates


def report_failures(done) -> int:
    failed = [(op, o) for op, o in done if o.failures]
    for op, o in failed[:5]:
        print(f"FAILED {op.workload} {op.split}: {'; '.join(o.failures)}",
              file=sys.stderr)
        if o.error:
            print(o.error, file=sys.stderr)
    return len(failed)


def timed(wl, args, setup_s, warm):
    done, cycles = run_cycles(wl, args.seed, seconds=args.seconds)
    elapsed = sum(t for _, t in cycles)
    ms = [o.ms for _, o in done]
    k = len(ms)
    # Median over cycles, so a burst of load from outside the process that
    # slows one cycle does not move the figure.
    metrics = {"setup_s": setup_s,
               "ops_per_s": statistics.median(n / t for n, t in cycles),
               "op_ms_p50": statistics.median(ms),
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024}
    failed = report_failures(warm + done)
    attempted = len(warm) + k
    print(f"== {wl.name} seed {args.seed}: {k} ops in {len(cycles)} whole cycles, "
          f"{elapsed:.2f} s measured; closed loop, 1 client, 1 BLAS thread")
    notes = {"setup_s": f"median of {SETUP_PROBES} fresh-process set-ups",
             "ops_per_s": f"median over {len(cycles)} cycles; "
                          f"{k / elapsed:.4f} over all {k} ops",
             "op_ms_p50": f"{k} ops",
             "peak_rss_mb": "peak resident set of the run"}
    for name, unit in END_TO_END.items():
        print(f"{name:<12} {metrics[name]:12.4f} {unit:<6} {notes[name]}")
    if k >= 100:
        print(f"{'op_ms_p90':<12} {statistics.quantiles(ms, n=10)[8]:12.4f} "
              f"{'ms':<6} {k} ops")
    else:
        print(f"{'op_ms_p90':<12} {'n/a':>12} {'ms':<6} needs >= 100 ops, "
              f"run had {k}")
    print("  cycle ops/s: " + " ".join(f"{n / t:.4f}" for n, t in cycles))
    print(f"{'fail_frac':<12} {failed / attempted:12.4f} {'':<6} "
          f"{failed} of {attempted} ops attempted (warm-up included)")
    for split in wl.splits:
        sub = [o.ms for op, o in done if op.split == split]
        print(f"  op_ms_p50.{split:<4} {statistics.median(sub):10.3f} ms  "
              f"{len(sub)} ops")
    return metrics, attempted, failed, END_TO_END, True


def _layer_values(rows, name):
    """Mean per op of one base metric over ``rows`` of (op, trace record)."""
    if not rows:
        return 0.0
    if name == "forms.lc_reuse":
        calls = sum(r["calls"].get("connection.levi_civita", 0) for _, r in rows)
        return sum(op.trials for op, _ in rows) / calls if calls else 0.0
    func, kind = name.rsplit(".", 1)
    if name == "jets.Jet.created":
        func, kind = name, "calls"
    key = "self_ms" if kind == "self_ms" else "calls"
    return sum(r[key].get(func, 0) for _, r in rows) / len(rows)


def traced(wl, args, warm):
    from spans import Tracer

    plain, cycles = run_cycles(wl, args.seed, seconds=args.seconds / 4)
    tracer = Tracer()
    tracer.install()
    try:
        traced_ops, traced_cycles = run_cycles(wl, args.seed,
                                               cycles=len(cycles), tracer=tracer)
    finally:
        tracer.uninstall()
    wall_plain = sum(t for _, t in cycles)
    wall_traced = sum(t for _, t in traced_cycles)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.csv")

    k = len(traced_ops)
    same = sum(a.digest == b.digest and a.failures == b.failures
               for (_, a), (_, b) in zip(plain, traced_ops))
    per_op = tracer.per_op()
    rows = [(op, per_op[i]) for i, (op, _) in enumerate(traced_ops)]
    overhead = wall_traced / wall_plain - 1.0
    reconcile = max(r["reconcile_err_ms"] for _, r in rows)
    nested = all(r.get("min_self_ms", 0.0) >= 0 and r["unattributed_ms"] >= 0
                 for _, r in rows)

    units = per_layer_units()
    metrics = {}
    for name in units:
        if name in TRACE_HEALTH:
            continue
        base, _, split = name.rpartition(".")
        if split in wl.splits:
            metrics[name] = _layer_values(
                [(op, r) for op, r in rows if op.split == split], base)
        elif split in SPLITS:
            metrics[name] = 0.0          # op class this workload does not run
        else:
            metrics[name] = _layer_values(rows, name)
    metrics["trace.unattributed_ms"] = statistics.fmean(
        r["unattributed_ms"] for _, r in rows)
    metrics["trace.overhead_frac"] = overhead
    metrics["trace.reconcile_err_ms"] = reconcile

    print(f"== {wl.name} seed {args.seed} traced: {len(cycles)} whole cycles, {k} "
          f"ops per pass; untraced {wall_plain:.2f} s "
          f"({k / wall_plain:.4f} ops/s), traced {wall_traced:.2f} s "
          f"({k / wall_traced:.4f} ops/s), overhead {100 * overhead:.1f} %")
    print(f"outputs bit-identical to the untraced pass: {same} of {k} ops")
    print(f"reconciliation: max |sum(self) + unattributed - wall| = "
          f"{reconcile:.6f} ms per op; spans nested: {nested}; unattributed "
          f"{metrics['trace.unattributed_ms']:.3f} ms per op (mean)")
    print("baseline readout: median inclusive ms per call, traced run "
          "(calls in parentheses)")
    for func in BASELINE_ROWS[wl.name]:
        cells = []
        durations = tracer.durations_ms(func)
        for split in wl.splits:
            vals = [d for i, (op, _) in enumerate(traced_ops)
                    if op.split == split for d in durations.get(i, ())]
            if vals:
                cells.append(f"{split} {statistics.median(vals):9.2f} "
                             f"({len(vals)})")
        print(f"  {func:<30} " + "   ".join(cells))
    failed = report_failures(warm + plain + traced_ops)
    faithful = same == k and reconcile <= 1e-6 and nested
    if not faithful:
        print("trace fidelity check failed", file=sys.stderr)
    return metrics, len(warm) + len(plain) + k, failed, units, faithful


def check_spec(trace: int, units: dict) -> None:
    """The metrics reported must be exactly those BENCHMARK.json lists."""
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: m["unit"] for m in
              spec["per_layer" if trace else "end_to_end"]}
    if listed != units:
        sys.exit("perfbench: metrics out of step with BENCHMARK.json: "
                 f"{sorted(set(listed) ^ set(units))}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUP_DIMS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        print(f"{set_up(args.workload):.9f}")
        return 0
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    check_spec(args.trace, per_layer_units() if args.trace else END_TO_END)

    set_up(args.workload)
    import gates
    import workloads as W

    stamp = env.stamp(args.seed)
    print("environment " + json.dumps(stamp))
    if stamp["threads_in_process"] not in (None, 1):
        print(f"warning: {stamp['threads_in_process']} threads in process "
              "despite the BLAS thread cap", file=sys.stderr)
    problems = gates.selftest()
    print("gate self-test: " + ("; ".join(problems) if problems else
                                "each gate rejects a perturbed answer"))
    setup_s = None if args.trace else probe_setup(args.workload)

    wl = W.WORKLOADS[args.workload]
    wl.prepare()
    warm = [(op, W.attempt(op)) for op in wl.warmup(args.seed)]
    if args.trace:
        metrics, attempted, failed, units, ok = traced(wl, args, warm)
    else:
        metrics, attempted, failed, units, ok = timed(wl, args, setup_s, warm)
    result = {"correct": ok and failed == 0 and not problems,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{wl.name}-trace{args.trace}-seed{args.seed}.json"
    (OUT / name).write_text(json.dumps({**result, "environment": stamp},
                                       indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
