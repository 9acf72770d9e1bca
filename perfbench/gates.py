"""Correctness gates for benchmark ops, reusing the CLI's pass rules.

Every gate takes an op's result and returns a list of failure messages; an
empty list is a pass.  ``python3 perfbench/gates.py`` runs the self-test,
which shows that each gate accepts a real answer and rejects a perturbed one.
"""

from __future__ import annotations

import dataclasses

import numpy as np

TOL = 1e-9             # the CLI's default --tol for every suite
FLOW_ACCURACY = 1e-5   # max |h - h_ref| over the reference sites

# Structure verdicts each family's construction implies, as
# (is_kahler, is_balanced, is_skt); None where the construction says nothing.
# The round metric 4|z|^-2 on C^n minus 0 is pluriclosed (SKT) only for n = 2
# and never Kahler or balanced.
EXPECTED_STRUCTURE = {
    "hopf": lambda n: (False, False, n == 2),
    "normal-form-skt": lambda n: (None, None, True),
    "normal-form-balanced": lambda n: (None, True, None),
    "kahler-torus": lambda n: (True, True, True),
    "random-torus": lambda n: (False, None, None),
}


def hopf_oracle(res: dict) -> list:
    """``verify --suite hopf-oracle`` rule: every residual <= TOL, except
    that b1 and b2 pass when either the printed or the corrected closed form
    matches."""
    bad = [f"{k}={v:.3e}" for k, v in res.items()
           if not isinstance(v, str) and not k.startswith(("b1_", "b2_"))
           and not v <= TOL]
    for name in ("b1", "b2"):
        best = min(res.get(f"{name}_printed", np.inf),
                   res.get(f"{name}_corrected", np.inf))
        if not best <= TOL:
            bad.append(f"{name} matches neither closed form ({best:.3e})")
    return bad


def normal_form(res: dict) -> list:
    """``verify --suite normal-form`` rule: every residual <= TOL except
    ``skt_trace_relation``, which is reported alongside and not gated."""
    return [f"{k}={v:.3e}" for k, v in res.items()
            if not k.endswith("skt_trace_relation") and not v <= TOL]


def residuals(res: dict) -> list:
    """``verify --suite appendix`` / ``bundle`` rule: every residual <= TOL."""
    return [f"{k}={v:.3e}" for k, v in res.items() if not v <= TOL]


def structure(family: str, n: int, report) -> list:
    want = EXPECTED_STRUCTURE[family](n)
    got = (report.is_kahler, report.is_balanced, report.is_skt)
    names = ("kahler", "balanced", "skt")
    return [f"is_{nm}={g} but {family} implies {w}"
            for nm, w, g in zip(names, want, got) if w is not None and g != w]


def flow_accuracy(values: np.ndarray, ref: np.ndarray) -> list:
    err = float(np.max(np.abs(values - ref)))
    if not err <= FLOW_ACCURACY:
        return [f"final state off the reference by {err:.3e} "
                f"(target {FLOW_ACCURACY:.0e})"]
    return []


def selftest() -> list:
    """Run each gate on a real answer (must pass) and on a perturbed one
    (must fail).  Returns a list of gates that misbehaved."""
    from hermitia import curvature as C, flow as FL, forms as FO
    from hermitia import hopf as HO, metric as M, structure as ST

    import workloads

    problems = []

    def expect(name, fails, should_fail):
        if bool(fails) != should_fail:
            problems.append(f"{name}: {'accepted' if should_fail else 'rejected'}"
                            f" {'a perturbed' if should_fail else 'a true'} answer"
                            f" {fails}")

    res = HO.oracle_vs_pipeline(HO.HopfPoint(2, np.array([1.0, 0.5j])))
    expect("hopf-oracle", hopf_oracle(res), False)
    expect("hopf-oracle theta", hopf_oracle({**res, "theta": 1e-6}), True)
    expect("hopf-oracle b1 one form", hopf_oracle({**res, "b1_printed": 1.0,
                                                   "b1_corrected": 0.0}), False)
    expect("hopf-oracle b1 both forms", hopf_oracle(
        {**res, "b1_printed": 1e-6, "b1_corrected": 1e-6}), True)

    mj0 = M.metric_jet(M.normal_form_skt(2, 0), np.zeros(2, complex), order=3)
    res = C.normal_point_suite(mj0, skt=True)
    expect("normal-form", normal_form(res), False)
    key = next(k for k in res if not k.endswith("skt_trace_relation"))
    expect("normal-form perturbed", normal_form({**res, key: 1e-6}), True)

    mj = M.metric_jet(M.hopf_metric(2), np.array([1.0, 0.5j]), order=3)
    res = FO.identity_suite(mj, trials=1, seed=0)
    expect("identity", residuals(res), False)
    expect("identity perturbed", residuals({**res, "lambda_a": 2 * TOL}), True)

    fld = M.potential_kahler_torus(2, 0)
    rep = ST.structure_report(M.metric_jet(fld, np.array([0.3 + 0.1j, 0.7j])))
    expect("structure", structure("kahler-torus", 2, rep), False)
    expect("structure perturbed", structure(
        "kahler-torus", 2, dataclasses.replace(rep, is_skt=False)), True)

    ref = workloads.flow_reference(next(iter(workloads.flow_refs()["refs"])))
    expect("flow accuracy", flow_accuracy(ref.copy(), ref), False)
    bumped = ref.copy()
    bumped[0, 0, 0] += 2 * FLOW_ACCURACY
    expect("flow accuracy perturbed", flow_accuracy(bumped, ref), True)

    def halting():
        raise FL.FlowHalt("positivity", (0, 0, 0, 0), 0.0)
    outcome = workloads.attempt(workloads.Op("flow", "N8", halting,
                                             lambda r: [], lambda r: b""))
    expect("FlowHalt", outcome.failures, True)
    return problems


if __name__ == "__main__":
    import sys

    import env

    env.use_source_tree()
    bad = selftest()
    print("\n".join(bad) if bad else "every gate accepts a true answer and "
          "rejects a perturbed one")
    sys.exit(1 if bad else 0)
