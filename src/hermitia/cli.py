"""Command-line front end: curvature evaluation, structure classification,
verification suites, and the metric flow.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 domain error.
Reports are JSON by default (complex numbers as {"re": .., "im": ..} pairs)
or CSV with --format csv.  Every report embeds the tool version, an echo of
the parsed configuration, and the seed.  The HERMITIA_THREADS environment
variable caps worker-thread counts of the numerical backends (applied when
the package is imported; see hermitia/__init__.py).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import HermitiaError, DomainError, ParseError, ValidationError
from . import curvature as C
from . import flow as FL
from . import forms as FO
from . import hopf as HO
from . import metric as M
from . import positivity as P
from . import structure as ST


# -- serialization ----------------------------------------------------------


def _jsonify(obj):
    if isinstance(obj, complex) or isinstance(obj, np.complexfloating):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int, bool, str)) or obj is None:
        return obj
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()] \
            if obj.ndim else _jsonify(obj.item())
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if hasattr(obj, "__dict__"):
        return _jsonify(vars(obj))
    return str(obj)


def _csv_rows(obj, prefix=""):
    out = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.extend(_csv_rows(v, f"{prefix}.{k}" if prefix else str(k)))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            out.extend(_csv_rows(v, f"{prefix}[{i}]"))
    elif isinstance(obj, np.ndarray):
        out.extend(_csv_rows(obj.tolist(), prefix))
    elif isinstance(obj, (complex, np.complexfloating)):
        out.append((prefix, float(obj.real), float(obj.imag)))
    elif isinstance(obj, (float, np.floating, int, np.integer, bool)):
        out.append((prefix, obj, ""))
    else:
        out.append((prefix, str(obj), ""))
    return out


def _require_finite(doc, path="") -> None:
    """Raise DomainError, naming its key path, at the first number of a
    jsonified report that is not finite: JSON (RFC 8259) has no NaN or
    Infinity, and a run that computed one has not succeeded."""
    if isinstance(doc, float) and not math.isfinite(doc):
        raise DomainError(f"the report's {path} is not finite ({doc!r})")
    if isinstance(doc, dict):
        for k, v in doc.items():
            _require_finite(v, f"{path}.{k}" if path else k)
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            _require_finite(v, f"{path}[{i}]")


def _emit(report: dict, args) -> None:
    """Print the report, in either format, only when every number in it
    is finite (``_require_finite``); nothing is printed otherwise."""
    doc = _jsonify(report)
    _require_finite(doc)
    if args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["key", "value_or_re", "im"])
        for row in _csv_rows(report):
            w.writerow(row)
    else:
        json.dump(doc, sys.stdout, indent=2, allow_nan=False)
        sys.stdout.write("\n")


def _envelope(args, results) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    return {"version": __version__, "config": cfg,
            "seed": getattr(args, "seed", None), "results": results}


# -- metric sources and point sampling --------------------------------------

# --metric name -> maker(n, seed)
_BUILTIN = {
    "flat": lambda n, seed: M.flat_metric(n),
    "hopf": lambda n, seed: M.hopf_metric(n),
    "normal-form": M.normal_form_random,
    "normal-form-balanced": M.normal_form_balanced,
    "normal-form-skt": M.normal_form_skt,
    "kahler-torus": M.potential_kahler_torus,
    "separable-kahler-torus": M.separable_kahler_torus,
    "random-torus": M.random_torus_fourier,
}


def _field(args) -> M.MetricField:
    if getattr(args, "metric_file", None):
        if getattr(args, "metric", None):
            raise ValidationError("give exactly one of --metric/--metric-file")
        return M.ingest_torus_metric(args.metric_file)
    name, n, seed = args.metric, args.dim, getattr(args, "seed", 0) or 0
    if name is None:
        raise ValidationError("give exactly one of --metric/--metric-file")
    if name not in _BUILTIN:
        raise ValidationError(f"unknown metric {name!r}")
    return _BUILTIN[name](n, seed)


def _parse_point(text: str, n: int) -> np.ndarray:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"point components must be numbers: {exc}") \
            from exc
    if not np.all(np.isfinite(vals)):
        raise ValidationError(f"point components must be finite, got {text!r}")
    if len(vals) != 2 * n:
        raise ValidationError(
            f"point needs {2*n} real components (x1,y1,...,x{n},y{n})")
    return np.array([vals[2 * i] + 1j * vals[2 * i + 1] for i in range(n)])


def _sample_points(fld: M.MetricField, count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    n = fld.n
    pts = []
    for _ in range(count):
        if fld.kind == "Hopf":
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v *= rng.uniform(1.0, 2.0) / np.linalg.norm(v)
            pts.append(v)
        elif fld.kind == "TorusFourier":
            x = rng.uniform(0.0, 1.0, 2 * n)
            pts.append(x[0::2] + 1j * x[1::2])
        else:
            v = 0.15 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            pts.append(v)
    return pts


def _points(args, fld) -> list:
    if args.point:
        return [_parse_point(args.point, fld.n)]
    return _sample_points(fld, args.sample, args.seed or 0)


def _worst_over_points(args, fld, suite) -> dict:
    """The largest value of each residual of suite(mj) over the run's
    points."""
    worst: dict = {}
    for z in _points(args, fld):
        for k, v in suite(M.metric_jet(fld, z, order=3)).items():
            worst[k] = max(worst.get(k, 0.0), v)
    return worst


def _require_counts(args, *names):
    """A count below 1 would make a run over nothing that reports success."""
    for name in names:
        value = getattr(args, name)
        if value < 1:
            raise ValidationError(
                f"--{name} must be an integer >= 1, got {value}")


# -- subcommands ------------------------------------------------------------

_CONN = {"lc": C.curvature_lc, "induced": C.curvature_induced,
         "chern": C.curvature_chern, "bismut": C.curvature_bismut}


def cmd_curvature(args) -> int:
    _require_counts(args, "sample")
    fld = _field(args)
    pts = _points(args, fld)
    per_point = []
    for z in pts:
        mj = M.metric_jet(fld, z, order=3)
        tensor = _CONN[args.connection](mj)
        entry = {"point": np.stack([z.real, z.imag], axis=-1).reshape(-1)}
        what = args.what
        if what in ("tensor", "all"):
            entry["tensor"] = tensor
        if what in ("ricci1", "all"):
            entry["ricci1"] = C.ricci(tensor, mj, "first")
        if what in ("ricci2", "all"):
            entry["ricci2"] = C.ricci(tensor, mj, "second")
        if what in ("ricci-panel", "all"):
            entry["ricci_panel"] = C.ricci_panel(mj)
        if what in ("scalars", "all"):
            entry["scalars"] = C.scalars(mj).as_dict()
        per_point.append(entry)
    _emit(_envelope(args, per_point), args)
    return 0


def cmd_check(args) -> int:
    _require_counts(args, "sample")
    fld = _field(args)
    pts = _points(args, fld)
    reports, panel_rows = [], []
    kahler = balanced = skt = True
    for z in pts:
        mj = M.metric_jet(fld, z, order=3)
        r = ST.structure_report(mj, tol=args.tol)
        kahler &= r.is_kahler
        balanced &= r.is_balanced
        skt &= r.is_skt
        reports.append({
            "point": np.stack([z.real, z.imag], axis=-1).reshape(-1),
            "kahler_defect": r.kahler_defect,
            "balanced_defect": r.balanced_defect,
            "skt_defect": r.skt_defect,
        })
        if args.positivity:
            panel = C.ricci_panel(mj)
            gr = P.griffiths_sample(C.curvature_chern(mj), trials=50,
                                    seed=args.seed or 0)
            panel_rows.append({
                "point": reports[-1]["point"],
                "theta1_verdicts": P.p_positivity(panel["chern_first"]).verdicts,
                "theta2_verdicts": P.p_positivity(panel["chern_second"]).verdicts,
                "hermitian_verdicts": P.p_positivity(panel["hermitian"]).verdicts,
                "bismut1_verdicts": P.p_positivity(panel["bismut_first"]).verdicts,
                "griffiths_min": gr.minimum,
            })
    results = {"kahler": bool(kahler), "balanced": bool(balanced),
               "skt": bool(skt), "points": reports}
    if args.positivity:
        results["positivity"] = panel_rows
    _emit(_envelope(args, results), args)
    return 0


def cmd_verify(args) -> int:
    _require_counts(args, "sample", "trials")
    builds_own = args.suite in ("hopf-oracle", "normal-form")
    if builds_own and (args.metric or args.metric_file):
        raise ValidationError(
            f"the {args.suite} suite builds its own metrics and takes no "
            "--metric/--metric-file")
    seed = args.seed or 0
    failed = False
    results: dict = {"suite": args.suite, "tolerance": args.tol}
    if args.suite in ("appendix", "bundle"):
        def suite(mj):
            if args.suite == "appendix":
                return FO.identity_suite(mj, trials=args.trials, seed=seed)
            conn = FO.random_metric_connection(mj, r=2, seed=seed)
            return FO.bundle_identity_suite(mj, conn, trials=args.trials,
                                            seed=seed)
        worst = _worst_over_points(args, _field(args), suite)
        results["residuals"] = worst
        failed = any(v > args.tol for v in worst.values())
    elif args.suite == "hopf-oracle":
        worst = {}
        matches = set()
        for z in _points(args, M.hopf_metric(args.dim)):
            res = HO.oracle_vs_pipeline(HO.HopfPoint(args.dim, z))
            for k, val in res.items():
                if isinstance(val, str):
                    matches.add(f"{k}={val}")
                else:
                    worst[k] = max(worst.get(k, 0.0), val)
        results["residuals"] = worst
        results["trace_form_matches"] = sorted(matches)
        # the trace-of-torsion entries pass if either closed-form candidate
        # matches; the report records which one did
        failed = any(v > args.tol for k, v in worst.items()
                     if not (k.startswith("b1_") or k.startswith("b2_")))
        for name in ("b1", "b2"):
            best = min(worst.get(f"{name}_printed", np.inf),
                       worst.get(f"{name}_corrected", np.inf))
            failed = failed or best > args.tol
    elif args.suite == "normal-form":
        if args.point:
            raise ValidationError(
                "the normal-form suite runs at the normal point z = 0 and "
                "takes no --point")
        worst = {}
        for s in range(args.trials):
            for fam, kw in (("plain", {}), ("balanced", {"balanced": True}),
                            ("skt", {"skt": True})):
                make = {"plain": M.normal_coordinates_random,
                        "balanced": M.normal_form_balanced,
                        "skt": M.normal_form_skt}[fam]
                mj = M.metric_jet(make(args.dim, s),
                                  np.zeros(args.dim, complex), order=3)
                for k, v in C.normal_point_suite(mj, **kw).items():
                    worst[f"{fam}.{k}"] = max(worst.get(f"{fam}.{k}", 0.0), v)
        results["residuals"] = worst
        failed = any(v > args.tol for k, v in worst.items()
                     if not k.endswith("skt_trace_relation"))
        results["printed_trace_relation_exceeds_tol"] = \
            worst.get("skt.skt_trace_relation", 0.0) > args.tol
    else:
        raise ValidationError(f"unknown suite {args.suite!r}")
    results["pass"] = not failed
    _emit(_envelope(args, results), args)
    return 1 if failed else 0


def cmd_flow(args) -> int:
    if args.hopf_ode:
        n, mu, c0 = args.dim, args.mu, args.c0
        if args.steps < 1:
            raise ValidationError(
                f"--steps must be an integer >= 1, got {args.steps}")
        if n < 1:
            raise ValidationError(f"--dim must be >= 1, got {n}")
        ts = np.linspace(0.0, args.T, args.steps + 1)
        # an exp(mu t) or k / mu out of range is refused below, not warned of
        with np.errstate(over="ignore", invalid="ignore"):
            series = [{"t": float(t), "c": FL.hopf_self_similar(n, c0, mu, t)}
                      for t in ts]
            ext = FL.hopf_extinction_time(n, c0, mu)
        for point in series:
            if not math.isfinite(point["c"]):
                raise DomainError(
                    f"the scale factor c(t) is not finite at t = {point['t']!r}"
                    f" with --mu {mu!r} --c0 {c0!r}")
        results = {"mode": "hopf-ode", "series": series,
                   "extinction_time": ext,
                   "extinct_within_horizon": ext is not None and ext <= args.T}
        _emit(_envelope(args, results), args)
        return 0
    fld = _field(args)
    if fld.kind == "Hopf":
        raise DomainError(
            "the annulus-family metric is flowed only through --hopf-ode")
    cfg = FL.FlowConfig(dt=args.dt, cadence=args.cadence)
    state, series = FL.run(fld, mu=args.mu, T=args.T, N=args.grid, config=cfg)
    if args.diagnostics_csv:
        FL.write_diagnostics_csv(series, args.diagnostics_csv)
    if args.dump:
        FL.write_grid_dump(state, args.dump)
    results = {
        "mode": "grid",
        "final_t": state.t,
        "steps": series[-1].step_count,
        "dt": state.config.dt,  # the last step taken
        "final": vars(series[-1]),
        "max_kahler_defect": max(d.kahler_defect for d in series),
        "diagnostics": [vars(d) for d in series],
    }
    _emit(_envelope(args, results), args)
    return 0


# -- parser -----------------------------------------------------------------


def _finite(text: str, nonnegative: bool = False, name: str = "") -> float:
    """A finite number, >= 0 if ``nonnegative``: --mu and --c0, --tol and
    --T.  Every comparison with NaN is false, so a NaN tolerance would fail
    no residual and a NaN horizon would end no run."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and (value >= 0 or not nonnegative)):
        raise argparse.ArgumentTypeError(
            f"{name}must be a finite number{' >= 0' * nonnegative}, "
            f"got {text!r}")
    return value


def _tolerance(text: str) -> float:
    return _finite(text, nonnegative=True)


def _horizon(text: str) -> float:
    return _finite(text, nonnegative=True, name="the horizon ")


def _seed(text: str) -> int:
    """--seed: an integer >= 0, as numpy's generators require."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 0, got {text!r}")
    return value


def _common(sp, sample_default=1):
    sp.add_argument("--metric", choices=tuple(_BUILTIN))
    sp.add_argument("--metric-file")
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--point")
    sp.add_argument("--sample", type=int, default=sample_default)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--tol", type=_tolerance, default=1e-9)
    sp.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hermitia",
        description="Hermitian curvature toolkit: tensors, structure checks, "
                    "verification suites, and the metric flow.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("curvature", help="evaluate curvature quantities")
    _common(sp)
    sp.add_argument("--connection", choices=sorted(_CONN), default="chern")
    sp.add_argument("--what", default="all",
                    choices=("tensor", "ricci1", "ricci2", "ricci-panel",
                             "scalars", "all"))
    sp.set_defaults(func=cmd_curvature)

    sp = sub.add_parser("check", help="kahler / balanced / skt verdicts")
    _common(sp)
    sp.add_argument("--positivity", action="store_true",
                    help="include eigenvalue-sum sign verdicts per point")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("verify", help="run a verification suite")
    _common(sp, sample_default=3)
    sp.add_argument("--suite", required=True,
                    choices=("appendix", "bundle", "hopf-oracle",
                             "normal-form"))
    sp.add_argument("--trials", type=int, default=10)
    sp.add_argument("--points", dest="sample", type=int,
                    help="alias for --sample")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("flow", help="integrate the metric flow")
    _common(sp)
    sp.add_argument("--hopf-ode", action="store_true",
                    help="exact scale-factor reduction instead of a grid run")
    sp.add_argument("--mu", type=_finite, default=0.0)
    sp.add_argument("--c0", type=_finite, default=1.0)
    sp.add_argument("--T", type=_horizon, default=0.01)
    sp.add_argument("--steps", type=int, default=50,
                    help="sample count for the ODE series")
    sp.add_argument("--grid", type=int, default=12)
    sp.add_argument("--dt", type=float, default=None,
                    help="fixed RK4 step; default: error-controlled steps "
                         "(local error <= 1e-5) starting from "
                         "0.1 dx^2 min eig(h)")
    sp.add_argument("--cadence", type=int, default=1,
                    help="diagnostics every CADENCE steps (integer >= 1)")
    sp.add_argument("--diagnostics-csv")
    sp.add_argument("--dump")
    sp.set_defaults(func=cmd_flow)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValidationError, ParseError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (HermitiaError, FL.FlowHalt, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
