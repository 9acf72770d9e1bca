"""The benchmark's three workloads: fixed op schedules, inputs from the seed.

Each workload runs in cycles.  A cycle is a fixed list of op classes (the
same on every seed); the seed only draws the inputs of each op (points,
metric seeds, trial seeds).  Runs measure whole cycles, so every run of a
workload times the same mix of op classes whatever its seed.

points  one op is one point: a fresh order-3 metric jet, ``ricci_panel``,
        ``scalars``, ``structure_report``, ``p_positivity`` on the four panel
        matrices ``check --positivity`` uses and ``griffiths_sample``, then the
        family's oracle.  Connections and curvature (on jets) do the work;
        forms and flow do none.  A fresh MetricJet per op always misses the
        Levi-Civita cache that ``forms`` keeps per MetricJet.
forms   one op is one identity trial (``trials=1``); blocks of trials share a
        MetricJet as ``verify --trials`` does, so the cache is hit.  Each block
        covers every bidegree (p, q) once: the trial seed is drawn until the
        suite's own first two draws give the wanted bidegree, because trial
        cost depends mostly on the bidegree.
flow    one op ingests a torus metric file and runs ``flow.run`` (sampling,
        RK4 at the default dt, diagnostics every step) to a short horizon,
        fixed per metric as 5 (N=8) or 3 (N=12) default steps of the commit
        that made the references.  No jets.  It passes only if the final state is within
        ``gates.FLOW_ACCURACY`` of a stored quarter-dt reference, so its time
        is a time to a solution of stated accuracy.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from hermitia import curvature as C
from hermitia import flow as FL
from hermitia import forms as FO
from hermitia import hopf as HO
from hermitia import metric as M
from hermitia import positivity as P
from hermitia import structure as ST

import gates

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "out" / "inputs"


@dataclass
class Op:
    workload: str
    split: str                       # "n2".."n4" or "N8"/"N12"
    run: Callable                    # () -> result
    gate: Callable                   # result -> [failure, ...]
    digest: Callable                 # result -> bytes identifying the output
    trials: int = 0                  # identity trials in the op (forms)


@dataclass
class Outcome:
    ms: float
    failures: list
    digest: str
    error: str = ""


def attempt(op: Op, tracer=None, op_id: int = 0) -> Outcome:
    """Run one op (timed), then its gate and digest (untimed)."""
    if tracer is not None:
        tracer.begin_op(op_id)
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        ms = (time.perf_counter() - t0) * 1e3
        return Outcome(ms, [f"{type(exc).__name__}: {exc}"],
                       f"raised {type(exc).__name__}", traceback.format_exc())
    finally:
        if tracer is not None:
            tracer.end_op()
    ms = (time.perf_counter() - t0) * 1e3
    digest = hashlib.sha256(op.digest(result)).hexdigest()
    return Outcome(ms, op.gate(result), digest)


def _canon(obj) -> bytes:
    """Exact byte image of a result (floats by repr, arrays by buffer)."""
    if isinstance(obj, dict):
        return b"{" + b",".join(str(k).encode() + b":" + _canon(obj[k])
                                for k in sorted(obj, key=str)) + b"}"
    if isinstance(obj, (list, tuple)):
        return b"[" + b",".join(_canon(v) for v in obj) + b"]"
    if isinstance(obj, np.ndarray):
        return str(obj.shape).encode() + np.ascontiguousarray(obj).tobytes()
    if dataclasses.is_dataclass(obj):
        return _canon({f.name: getattr(obj, f.name)
                       for f in dataclasses.fields(obj)})
    return repr(obj).encode()


def _rng(seed: int, cycle: int, slot: int):
    return np.random.default_rng([seed, cycle, slot])


def _hopf_point(n, rng):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v * (rng.uniform(1.0, 2.0) / np.linalg.norm(v))


# -- points ------------------------------------------------------------------

POINT_FAMILIES = ("hopf", "normal-form-skt", "normal-form-balanced",
                  "kahler-torus", "random-torus")
POINT_DIMS = (2, 3, 4)
POSITIVITY_PANEL = ("chern_first", "chern_second", "hermitian", "bismut_first")
_MAKERS = {
    "normal-form-skt": M.normal_form_skt,
    "normal-form-balanced": M.normal_form_balanced,
    "kahler-torus": M.potential_kahler_torus,
    "random-torus": M.random_torus_fourier,
    "separable-kahler-torus": M.separable_kahler_torus,
}


def _point_input(family, n, rng):
    if family == "hopf":
        return M.hopf_metric(n), _hopf_point(n, rng)
    fld = _MAKERS[family](n, int(rng.integers(2**31)))
    if family.startswith("normal-form"):
        return fld, np.zeros(n, complex)    # the normal point itself
    x = rng.uniform(0.0, 1.0, 2 * n)
    return fld, x[0::2] + 1j * x[1::2]


def _point_op(family, fld, z, gseed):
    n = fld.n
    mj = M.metric_jet(fld, z, order=3)
    panel = C.ricci_panel(mj)
    out = {"panel": panel, "scalars": C.scalars(mj).as_dict(),
           "structure": ST.structure_report(mj),
           "positivity": {k: P.p_positivity(panel[k]).verdicts
                          for k in POSITIVITY_PANEL},
           "griffiths": P.griffiths_sample(C.curvature_chern(mj), trials=50,
                                           seed=gseed).minimum}
    if family == "hopf":
        out["oracle"] = HO.oracle_vs_pipeline(HO.HopfPoint(n, z))
    elif family == "normal-form-skt":
        out["oracle"] = C.normal_point_suite(mj, skt=True)
    elif family == "normal-form-balanced":
        # The balanced-point formulas close only at n = 2 on this code: at
        # n = 3, 4 balanced_bismut_second leaves residuals of 0.17-0.42, so
        # there the point is checked against the unconstrained formulas.
        out["oracle"] = C.normal_point_suite(mj, balanced=n == 2)
    return out


def _point_gate(family, n, out):
    bad = gates.structure(family, n, out["structure"])
    if family == "hopf":
        bad += gates.hopf_oracle(out["oracle"])
    elif family.startswith("normal-form"):
        bad += gates.normal_form(out["oracle"])
    return bad


def points_cycle(seed: int, cycle: int) -> list:
    ops = []
    for slot, (n, fam) in enumerate(itertools.product(POINT_DIMS,
                                                      POINT_FAMILIES)):
        rng = _rng(seed, cycle, slot)
        fld, z = _point_input(fam, n, rng)
        gseed = int(rng.integers(2**31))
        ops.append(Op("points", f"n{n}",
                      functools.partial(_point_op, fam, fld, z, gseed),
                      functools.partial(_point_gate, fam, n), _canon))
    return ops


def points_warmup(seed: int) -> list:
    return points_cycle(seed, 0)[::len(POINT_FAMILIES)]    # one op per n


# -- forms -------------------------------------------------------------------

# (n, metric family, suite); each block covers all (n+1)^2 bidegrees.
FORMS_BLOCKS = (
    (2, "hopf", "identity"),
    (2, "normal-form-skt", "identity"),
    (2, "normal-form-balanced", "bundle"),
    (3, "hopf", "identity"),
)


class _Block:
    """Trials sharing one MetricJet, built by the block's first trial."""

    def __init__(self, fld, z, suite):
        self.fld, self.z, self.suite, self.mj = fld, z, suite, None

    def trial(self, seed):
        if self.mj is None:
            self.mj = M.metric_jet(self.fld, self.z, order=3)
        if self.suite == "bundle":
            conn = FO.random_metric_connection(self.mj, r=2, seed=seed)
            return FO.bundle_identity_suite(self.mj, conn, trials=1, seed=seed)
        return FO.identity_suite(self.mj, trials=1, seed=seed)


def _bidegree_seed(rng, n, pq):
    """A trial seed whose suite draws bidegree pq (its first two draws)."""
    while True:
        s = int(rng.integers(2**31))
        r = np.random.default_rng(s)
        if (int(r.integers(0, n + 1)), int(r.integers(0, n + 1))) == pq:
            return s


def forms_cycle(seed: int, cycle: int) -> list:
    ops = []
    for slot, (n, fam, suite) in enumerate(FORMS_BLOCKS):
        rng = _rng(seed, cycle, slot)
        if fam == "hopf":
            fld, z = M.hopf_metric(n), _hopf_point(n, rng)
        else:   # a sampled point of a normal form, as the CLI samples one
            fld = _MAKERS[fam](n, int(rng.integers(2**31)))
            z = 0.15 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        block = _Block(fld, z, suite)
        for pq in itertools.product(range(n + 1), repeat=2):
            ops.append(Op("forms", f"n{n}",
                          functools.partial(block.trial,
                                            _bidegree_seed(rng, n, pq)),
                          gates.residuals, _canon, trials=1))
    return ops


def forms_warmup(seed: int) -> list:
    ops = forms_cycle(seed, 0)
    starts = np.cumsum([0] + [(n + 1) ** 2 for n, _, _ in FORMS_BLOCKS])[:-1]
    return [ops[i] for i in starts]                          # one per block


# -- flow --------------------------------------------------------------------

FLOW_DIM = 2
FLOW_FAMILIES = ("separable-kahler-torus", "kahler-torus", "random-torus")
FLOW_MUS = (0.0, 0.5)
FLOW_CONFIGS = tuple(itertools.product(FLOW_FAMILIES, FLOW_MUS))
FLOW_STEPS = {8: 5, 12: 3}                 # horizon, in default RK4 steps
FLOW_VARIANTS = 4                          # metric seeds 0..3 per family
FLOW_SITES = 32                            # reference sites per grid


def flow_key(fam, variant, mu, N):
    return f"{fam}|seed{variant}|mu{mu}|N{N}"


def flow_metric_path(fam, variant) -> Path:
    return INPUTS / f"{fam}-seed{variant}.txt"


def write_flow_inputs() -> None:
    """Write the metric files the flow ops ingest (the pool of variants)."""
    INPUTS.mkdir(parents=True, exist_ok=True)
    for fam in FLOW_FAMILIES:
        for v in range(FLOW_VARIANTS):
            M.write_torus_metric(_MAKERS[fam](FLOW_DIM, v),
                                 flow_metric_path(fam, v))


def flow_sites(N: int) -> np.ndarray:
    rng = np.random.default_rng(N)
    return np.sort(rng.choice(N ** (2 * FLOW_DIM), FLOW_SITES, replace=False))


def flow_at_sites(h: np.ndarray, sites) -> np.ndarray:
    return h.reshape(-1, FLOW_DIM, FLOW_DIM)[np.asarray(sites)]


@functools.lru_cache(maxsize=None)
def flow_refs() -> dict:
    return json.loads((HERE / "flow_refs.json").read_text(encoding="utf-8"))


def flow_reference(key: str) -> np.ndarray:
    vals = np.array(flow_refs()["refs"][key]["values"])
    return (vals[..., 0] + 1j * vals[..., 1]).reshape(-1, FLOW_DIM, FLOW_DIM)


def _flow_op(path, mu, N, T):
    fld = M.ingest_torus_metric(path)
    return FL.run(fld, mu=mu, T=T, N=N)


def _flow_gate(key, N, result):
    state, _ = result
    sites = flow_refs()["sites"][str(N)]
    bad = gates.flow_accuracy(flow_at_sites(state.h, sites),
                              flow_reference(key))
    T = flow_refs()["refs"][key]["T"]
    if state.t < T - 1e-12:
        bad.append(f"stopped at t={state.t} before the horizon {T}")
    return bad


def _flow_digest(result):
    state, series = result
    return _canon([state.h, state.t] +
                  [dataclasses.replace(d, wall_time=0.0) for d in series])


def flow_cycle(seed: int, cycle: int) -> list:
    """Every (family, mu) at N=8, and one N=12 op whose family rotates with
    the cycle index (then mu, every third cycle)."""
    configs = [(fam, mu, 8) for fam, mu in FLOW_CONFIGS]
    configs.append((FLOW_FAMILIES[cycle % len(FLOW_FAMILIES)],
                    FLOW_MUS[cycle // len(FLOW_FAMILIES) % len(FLOW_MUS)], 12))
    ops = []
    for slot, (fam, mu, N) in enumerate(configs):
        v = int(_rng(seed, cycle, slot).integers(FLOW_VARIANTS))
        key = flow_key(fam, v, mu, N)
        ops.append(Op("flow", f"N{N}",
                      functools.partial(_flow_op, flow_metric_path(fam, v),
                                        mu, N, flow_refs()["refs"][key]["T"]),
                      functools.partial(_flow_gate, key, N), _flow_digest))
    return ops


def flow_warmup(seed: int) -> list:
    return flow_cycle(seed, 0)[:1]


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: Callable          # (seed, cycle index >= 1) -> [Op]
    warmup: Callable         # seed -> [Op], run untimed first
    splits: tuple
    prepare: Callable = field(default=lambda: None)


WORKLOADS = {
    "points": Workload("points", points_cycle, points_warmup,
                       ("n2", "n3", "n4")),
    "forms": Workload("forms", forms_cycle, forms_warmup, ("n2", "n3")),
    "flow": Workload("flow", flow_cycle, flow_warmup, ("N8", "N12"),
                     prepare=write_flow_inputs),
}
