"""Write perfbench/flow_refs.json: reference final states of every flow op.

Each op's horizon T is ``workloads.FLOW_STEPS`` default RK4 steps of the
metric, as the flow computes that step today; T is stored here so that a
later change of step size does not move it.  Each reference integrates the
same ingested metric file with the same ``flow.run`` to T at a quarter of
the default step, and keeps the final metric at ``workloads.FLOW_SITES``
fixed sites of the grid.  Run from the root of the repository:

    python3 perfbench/make_refs.py

Takes a few minutes on one core.  Rerun only if the flow op configs, the
horizons or the flow's equations change; the file records the commit and
step sizes it was made with.
"""

from __future__ import annotations

import env  # noqa: F401  (pins BLAS threads before numpy loads)

import itertools
import json
import time

env.use_source_tree()

from hermitia import flow as FL  # noqa: E402
from hermitia import metric as M  # noqa: E402

import gates  # noqa: E402
import workloads as W  # noqa: E402

DT_FRACTION = 0.25


def reference(fam, variant, mu, N):
    fld = M.ingest_torus_metric(W.flow_metric_path(fam, variant))
    h0 = FL.sample_on_grid(fld, N)
    h0 = 0.5 * (h0 + h0.conj().swapaxes(-1, -2))   # as flow.run does
    dt = FL.default_dt(h0, N)
    T = W.FLOW_STEPS[N] * dt
    state, series = FL.run(h0, mu=mu, T=T, N=N,
                           config=FL.FlowConfig(dt=DT_FRACTION * dt,
                                                cadence=10**9))
    vals = W.flow_at_sites(state.h, W.flow_sites(N))
    return {"T": T, "dt_default": dt, "dt_reference": DT_FRACTION * dt,
            "steps": series[-1].step_count,
            "values": [[float(v.real), float(v.imag)] for v in vals.reshape(-1)]}


def main():
    W.write_flow_inputs()
    refs = {}
    for fam, mu in W.FLOW_CONFIGS:
        for N, v in itertools.product(W.FLOW_STEPS, range(W.FLOW_VARIANTS)):
            t0 = time.perf_counter()
            refs[W.flow_key(fam, v, mu, N)] = reference(fam, v, mu, N)
            print(f"{W.flow_key(fam, v, mu, N)}: "
                  f"{time.perf_counter() - t0:.1f} s", flush=True)
    doc = {
        "commit": env.git_sha(),
        "src_sha256": env.source_digest(),
        "method": f"flow.run, RK4 at {DT_FRACTION} x the default dt, "
                  "from the ingested metric file",
        "dt_fraction": DT_FRACTION,
        "accuracy_target": gates.FLOW_ACCURACY,
        "horizon_steps": {str(N): k for N, k in W.FLOW_STEPS.items()},
        "sites": {str(N): W.flow_sites(N).tolist() for N in W.FLOW_STEPS},
        "refs": refs,
    }
    with open(W.HERE / "flow_refs.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
