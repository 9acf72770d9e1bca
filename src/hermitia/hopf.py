"""Closed-form oracle for the canonical metric 4 delta / |z|^2 on C^n \\ {0}.

Every quantity the pipeline computes from jets is available here in closed
form, so golden tests can compare the two routes at arbitrary points.  The
trace of the Bismut curvature has two candidate closed forms that differ in
the power of |z|^2 (``printed`` and ``corrected``); the oracle exposes both
and `oracle_vs_pipeline` reports which one the jet pipeline matches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import levi_civita
from .curvature import (curvature_bismut, curvature_chern, curvature_lc,
                        ricci)
from .errors import DomainError
from .jets import point_derivatives
from .metric import POINT_ORDER, derivative_tables, hopf_metric, metric_jet

__all__ = ["HopfPoint", "oracle", "oracle_vs_pipeline"]


@dataclass(frozen=True)
class HopfPoint:
    n: int
    z: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("Hopf oracle needs n >= 2")
        z = np.asarray(self.z, dtype=complex)
        object.__setattr__(self, "z", z)
        if z.shape != (self.n,) or np.vdot(z, z).real <= 0:
            raise DomainError("point must be a nonzero vector in C^n")


def oracle(p: HopfPoint, quantity: str):
    n, z = p.n, p.z
    zb = np.conj(z)
    r2 = float(np.vdot(z, z).real)
    d = np.eye(n)
    if quantity == "metric":
        return 4 * d / r2
    if quantity == "dh":
        # dh[i, k, l] = d h_{k lbar} / d z^i
        return -4 * np.einsum("kl,i->ikl", d, zb) / r2**2
    if quantity == "d2h":
        # d2h[i, j, k, l] = d^2 h_{k lbar} / d z^i d zbar^j
        core = np.einsum("ij->ij", d) * r2 - 2 * np.outer(zb, z)
        return -4 * np.einsum("kl,ij->ijkl", d, core) / r2**3
    if quantity == "gamma_lc":
        # (unbarred-direction, unbarred-direction) and (barred, unbarred) blocks
        g_uu = -(np.einsum("il,k->ikl", d, zb)
                 + np.einsum("kl,i->ikl", d, zb)) / (2 * r2)
        g_bu = (np.einsum("jk,l->jkl", d, z)
                - np.einsum("kl,j->jkl", d, z)) / (2 * r2)
        return g_uu, g_bu
    if quantity == "theta":
        core = d * r2 - np.einsum("j,i->ij", z, zb)
        return 4 * np.einsum("kl,ij->ijkl", d, core) / r2**3
    if quantity == "theta1":
        return n * (d * r2 - np.einsum("l,k->kl", z, zb)) / r2**2
    if quantity == "theta2":
        return (n - 1) * d / r2
    if quantity == "riemann":
        t = 2 * np.einsum("il,jk->ijkl", d, d).astype(complex) / r2**2
        t -= (np.einsum("il,j,k->ijkl", d, z, zb)
              + np.einsum("jk,l,i->ijkl", d, z, zb)) / r2**3
        return t
    if quantity == "ricci_lc":
        return (d * r2 - np.einsum("l,k->kl", z, zb)) / (2 * r2**2)
    if quantity == "bismut_tensor":
        up = (np.einsum("jk,il->ijkl", d, d)
              - np.einsum("kl,ij->ijkl", d, d)).astype(complex) / r2
        up += (np.einsum("ij,k,l->ijkl", d, zb, z)
               + np.einsum("kl,i,j->ijkl", d, zb, z)
               - np.einsum("il,k,j->ijkl", d, zb, z)
               - np.einsum("jk,i,l->ijkl", d, zb, z)) / r2**2
        return up * (4 / r2)  # lowered with h_{s lbar} = 4 d_{sl} / r2
    core = (2 - n) * (d * r2 - np.einsum("i,j->ij", zb, z))
    if quantity in ("b1_printed", "b2_printed"):
        return core / (4 * r2**2)
    if quantity in ("b1_corrected", "b2_corrected"):
        return core / r2**2
    raise DomainError(f"unknown oracle quantity {quantity!r}")


def oracle_vs_pipeline(p: HopfPoint) -> dict:
    """Max componentwise |oracle - pipeline| per quantity.

    The Bismut-trace entries report both closed-form candidates plus which
    one the pipeline matched."""
    n = p.n
    mj = metric_jet(hopf_metric(n), p.z, order=POINT_ORDER)
    out = {}
    h_pipe = mj.h_at0()
    out["metric"] = float(abs(h_pipe - oracle(p, "metric")).max())
    dh, _, d2h = derivative_tables(mj)
    out["dh"] = float(abs(dh - oracle(p, "dh")).max())
    out["d2h"] = float(abs(d2h - oracle(p, "d2h")).max())
    g = point_derivatives(levi_civita(mj), n)
    g_uu, g_bu = oracle(p, "gamma_lc")
    out["gamma_lc"] = float(max(abs(g[:n, :n, :n] - g_uu).max(),
                                abs(g[n:, :n, :n] - g_bu).max()))
    th = curvature_chern(mj)
    out["theta"] = float(abs(th - oracle(p, "theta")).max())
    out["theta1"] = float(abs(ricci(th, mj, "first")
                              - oracle(p, "theta1")).max())
    out["theta2"] = float(abs(ricci(th, mj, "second")
                              - oracle(p, "theta2")).max())
    rlc = curvature_lc(mj)
    out["riemann"] = float(abs(rlc - oracle(p, "riemann")).max())
    out["ricci_lc"] = float(abs(ricci(rlc, mj, "second")
                                - oracle(p, "ricci_lc")).max())
    bt = curvature_bismut(mj)
    out["bismut_tensor"] = float(abs(bt - oracle(p, "bismut_tensor")).max())
    b1 = ricci(bt, mj, "first")
    b2 = ricci(bt, mj, "second")
    out["b1_printed"] = float(abs(b1 - oracle(p, "b1_printed")).max())
    out["b1_corrected"] = float(abs(b1 - oracle(p, "b1_corrected")).max())
    out["b2_printed"] = float(abs(b2 - oracle(p, "b2_printed")).max())
    out["b2_corrected"] = float(abs(b2 - oracle(p, "b2_corrected")).max())
    for name in ("b1", "b2"):
        pr, co = out[f"{name}_printed"], out[f"{name}_corrected"]
        if min(pr, co) > 1e-9:
            out[f"{name}_matches"] = "neither"
        else:
            out[f"{name}_matches"] = "printed" if pr <= co else "corrected"
    return out
