"""Command-line front end: curvature evaluation, structure classification,
verification suites, and the metric flow.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 domain error.
Reports are JSON by default (complex numbers as {"re": .., "im": ..} pairs)
or CSV with --format csv.  Every report embeds the tool version, an echo of
the flags the run read, and the seed.  The HERMITIA_THREADS environment
variable caps worker-thread counts of the numerical backends (applied when
the package is imported; see hermitia/__init__.py).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from functools import partial

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


def _emit(args, results) -> None:
    """Print the report: the version, the subcommand and the flags its mode
    reads (``_READS``), the seed (null if the mode reads none), and the
    results; in either format, only when every number in it is finite
    (``_require_finite``), and nothing otherwise."""
    read = {flag[2:].replace("-", "_") for flag in _mode(args)[1]}
    cfg = {k: v for k, v in vars(args).items()
           if k == "subcommand" or k in read}
    report = {"version": __version__, "config": cfg, "seed": cfg.get("seed"),
              "results": results}
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
    if bool(args.metric) == bool(args.metric_file):
        raise ValidationError("give exactly one of --metric/--metric-file")
    if args.metric:
        return _BUILTIN[args.metric](args.dim, args.seed)
    fld = M.ingest_torus_metric(args.metric_file)
    args.dim = fld.n  # the report's config echoes the file's dimension
    return fld


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
        elif fld.kind == "TorusFourier":
            x = rng.uniform(0.0, 1.0, 2 * n)
            v = x[0::2] + 1j * x[1::2]
        else:
            v = 0.15 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        pts.append(v)
    return pts


def _points(args, fld) -> list:
    if args.point:
        return [_parse_point(args.point, fld.n)]
    return _sample_points(fld, args.sample, args.seed)


# -- the flags each mode reads ---------------------------------------------

# mode, as the command line picks it -> the flags it reads besides --format.
# A subcommand registers the flags its modes read, a run refuses any other
# flag given (``_check_flags``), and the report's config echoes its own.
_SOURCE = ("--metric", "--metric-file", "--dim", "--seed")
_AT_POINTS = (*_SOURCE, "--point", "--sample")
_SUITE_AT_POINTS = (*_AT_POINTS, "--points", "--tol", "--suite", "--trials")
_READS = {
    "curvature": (*_AT_POINTS, "--connection", "--what"),
    "check": (*_AT_POINTS, "--tol", "--positivity"),
    "verify --suite appendix": _SUITE_AT_POINTS,
    "verify --suite bundle": _SUITE_AT_POINTS,
    "verify --suite hopf-oracle": ("--dim", "--seed", "--point", "--sample",
                                   "--points", "--tol", "--suite"),
    "verify --suite normal-form": ("--dim", "--seed", "--tol", "--suite",
                                   "--trials"),
    "flow": (*_SOURCE, "--hopf-ode", "--mu", "--T", "--grid", "--dt",
             "--cadence", "--diagnostics-csv", "--dump"),
    "flow --hopf-ode": ("--dim", "--hopf-ode", "--mu", "--c0", "--T",
                        "--steps"),
}
# why a mode reads no metric or point flags, said when it refuses one
_OWN_METRICS = {"verify --suite hopf-oracle": "it builds the Hopf metric",
                "verify --suite normal-form": "it runs at the normal point "
                "z = 0 of the metrics it builds",
                "flow --hopf-ode": "it integrates the Hopf scale factor"}


def _mode(args) -> tuple:
    """The run's key in ``_READS``, and the flags it reads, --format too."""
    mode = (f"verify --suite {args.suite}" if args.subcommand == "verify"
            else "flow --hopf-ode" if getattr(args, "hopf_ode", False)
            else args.subcommand)
    return mode, ("--format", *_READS[mode])


def _draws(args, mode: str) -> bool:
    """Whether the run draws from its seed: the random forms or metrics of
    a suite, the Griffiths samples of --positivity, a metric maker other
    than flat and hopf (a file draws nothing), or points sampled where no
    --point is given (a grid flow samples none)."""
    return (mode in ("verify --suite appendix", "verify --suite bundle",
                     "verify --suite normal-form")
            or getattr(args, "positivity", False)
            or getattr(args, "metric", None) not in (None, "flat", "hopf")
            or (mode != "flow" and not args.point))


def _check_flags(args) -> None:
    """Check the counts the run's mode reads, then refuse every flag given
    that it does not read, a --seed where the run draws nothing, and a
    --dim beside --metric-file (the file has its own)."""
    mode, reads = _mode(args)
    for flag in ("--sample", "--trials", "--steps"):
        value = getattr(args, flag[2:], 1)
        if flag in reads and value < 1:  # a run over nothing would pass
            raise ValidationError(
                f"{flag} must be an integer >= 1, got {value}")
    given = list(dict.fromkeys(getattr(args, "given", ())))
    unread = [flag for flag in given if flag not in reads]
    if unread:
        why = f": {_OWN_METRICS[mode]}" if mode in _OWN_METRICS else ""
        raise ValidationError(f"{mode} does not read {', '.join(unread)}{why}")
    if "--seed" in given and not _draws(args, mode):
        raise ValidationError(
            f"--seed changes nothing here: this {mode} run draws nothing "
            "(its metric has no random coefficients and it samples no "
            "points)")
    if "--dim" in given and "--metric-file" in given:
        raise ValidationError(
            "--metric-file gives the dimension; --dim cannot be given with it")


# -- subcommands ------------------------------------------------------------

_CONN = {"lc": C.curvature_lc, "induced": C.curvature_induced,
         "chern": C.curvature_chern, "bismut": C.curvature_bismut}


def cmd_curvature(args) -> tuple:
    fld = _field(args)
    per_point = []
    for z in _points(args, fld):
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
    return per_point, 0


def cmd_check(args) -> tuple:
    fld = _field(args)
    verdicts, reports, panel_rows = [], [], []
    for z in _points(args, fld):
        mj = M.metric_jet(fld, z, order=3)
        r = ST.structure_report(mj, tol=args.tol)
        verdicts.append(r)
        reports.append({
            "point": np.stack([z.real, z.imag], axis=-1).reshape(-1),
            "kahler_defect": r.kahler_defect,
            "balanced_defect": r.balanced_defect,
            "skt_defect": r.skt_defect,
        })
        if args.positivity:
            panel = C.ricci_panel(mj)
            gr = P.griffiths_sample(C.curvature_chern(mj), trials=50,
                                    seed=args.seed)
            panel_rows.append({
                "point": reports[-1]["point"],
                "theta1_verdicts": P.p_positivity(panel["chern_first"]).verdicts,
                "theta2_verdicts": P.p_positivity(panel["chern_second"]).verdicts,
                "hermitian_verdicts": P.p_positivity(panel["hermitian"]).verdicts,
                "bismut1_verdicts": P.p_positivity(panel["bismut_first"]).verdicts,
                "griffiths_min": gr.minimum,
            })
    results = {k: all(getattr(r, f"is_{k}") for r in verdicts)
               for k in ("kahler", "balanced", "skt")}
    results["points"] = reports
    if args.positivity:
        results["positivity"] = panel_rows
    return results, 0


def cmd_verify(args) -> tuple:
    seed, worst = args.seed, {}
    results: dict = {"suite": args.suite, "tolerance": args.tol}
    if args.suite in ("appendix", "bundle"):
        fld = _field(args)
        for z in _points(args, fld):
            mj = M.metric_jet(fld, z, order=3)
            if args.suite == "appendix":
                res = FO.identity_suite(mj, trials=args.trials, seed=seed)
            else:
                conn = FO.random_metric_connection(mj, r=2, seed=seed)
                res = FO.bundle_identity_suite(mj, conn, trials=args.trials,
                                               seed=seed)
            for k, v in res.items():
                worst[k] = max(worst.get(k, 0.0), v)
        results["residuals"] = worst
        failed = any(v > args.tol for v in worst.values())
    elif args.suite == "hopf-oracle":
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
                     if not k.startswith(("b1_", "b2_")))
        for name in ("b1", "b2"):
            best = min(worst.get(f"{name}_printed", np.inf),
                       worst.get(f"{name}_corrected", np.inf))
            failed = failed or best > args.tol
    elif args.suite == "normal-form":
        for s in range(seed, seed + args.trials):
            for fam, make, kw in (
                    ("plain", M.normal_coordinates_random, {}),
                    ("balanced", M.normal_form_balanced, {"balanced": True}),
                    ("skt", M.normal_form_skt, {"skt": True})):
                mj = M.metric_jet(make(args.dim, s),
                                  np.zeros(args.dim, complex), order=3)
                for k, v in C.normal_point_suite(mj, **kw).items():
                    worst[f"{fam}.{k}"] = max(worst.get(f"{fam}.{k}", 0.0), v)
        results["residuals"] = worst
        failed = any(v > args.tol for k, v in worst.items()
                     if not k.endswith("skt_trace_relation"))
        results["printed_trace_relation_exceeds_tol"] = \
            worst.get("skt.skt_trace_relation", 0.0) > args.tol
    results["pass"] = not failed
    return results, 1 if failed else 0


def cmd_flow(args) -> tuple:
    if args.hopf_ode:
        n, mu, c0 = args.dim, args.mu, args.c0
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
        return results, 0
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
    return results, 0


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


# flag -> its argparse options; ``_READS`` says which subcommands get it
_FLAGS = {
    "--metric": dict(choices=tuple(_BUILTIN)),
    "--metric-file": {},
    "--dim": dict(type=int, default=2),
    "--point": {},
    "--sample": dict(type=int, default=1),
    "--seed": dict(type=_seed, default=0),
    "--tol": dict(type=partial(_finite, nonnegative=True), default=1e-9),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--connection": dict(choices=sorted(_CONN), default="chern"),
    "--what": dict(default="all", choices=("tensor", "ricci1", "ricci2",
                                           "ricci-panel", "scalars", "all")),
    "--positivity": dict(action="store_true", help="include eigenvalue-sum "
                         "sign verdicts per point"),
    "--suite": dict(required=True, choices=("appendix", "bundle",
                                            "hopf-oracle", "normal-form")),
    "--trials": dict(type=int, default=10),
    "--points": dict(dest="sample", type=int, help="alias for --sample"),
    "--hopf-ode": dict(action="store_true", help="exact scale-factor "
                       "reduction instead of a grid run"),
    "--mu": dict(type=_finite, default=0.0),
    "--c0": dict(type=_finite, default=1.0),
    "--T": dict(type=partial(_finite, nonnegative=True,
                             name="the horizon "), default=0.01),
    "--steps": dict(type=int, default=50,
                    help="sample count for the ODE series"),
    "--grid": dict(type=int, default=12),
    "--dt": dict(type=float, default=None, help="fixed RK4 step; default: "
                 "error-controlled steps (local error <= 1e-5) starting from "
                 "0.1 dx^2 min eig(h)"),
    "--cadence": dict(type=int, default=1,
                      help="diagnostics every CADENCE steps (integer >= 1)"),
    "--diagnostics-csv": {},
    "--dump": {},
}


def _noting(base):
    """``base``, noting on the namespace the option string it was given as."""
    class Noting(base):
        def __call__(self, parser, namespace, values, option_string=None):
            namespace.given = [*getattr(namespace, "given", ()),
                               option_string]
            super().__call__(parser, namespace, values, option_string)
    return Noting


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hermitia",
        description="Hermitian curvature toolkit: tensors, structure checks, "
                    "verification suites, and the metric flow.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for command, func, text in (
            ("curvature", cmd_curvature, "evaluate curvature quantities"),
            ("check", cmd_check, "kahler / balanced / skt verdicts"),
            ("verify", cmd_verify, "run a verification suite"),
            ("flow", cmd_flow, "integrate the metric flow")):
        sp = sub.add_parser(command, help=text)
        sp.register("action", None, _noting(argparse._StoreAction))
        sp.register("action", "store_true",
                    _noting(argparse._StoreTrueAction))
        reads = {"--format"}.union(*(flags for mode, flags in _READS.items()
                                     if mode.split()[0] == command))
        for flag, options in _FLAGS.items():
            if flag in reads:
                sp.add_argument(flag, **options)
        sp.set_defaults(func=func)
    sub.choices["verify"].set_defaults(sample=3)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        _check_flags(args)
        results, code = args.func(args)
        _emit(args, results)
        return code
    except (ValidationError, ParseError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (HermitiaError, FL.FlowHalt, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
