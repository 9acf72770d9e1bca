"""Pointwise structure classification: Kaehler, balanced, SKT.

The three defects are exact jet evaluations, so a structure that holds
identically shows up as a machine-zero defect.  "SKT" here means the trace
condition on the mixed second derivatives of the metric (vanishing of the
contracted ddbar of the fundamental form).  The readers read h to degree
2 at most; those of the Levi-Civita table run on ``mj.at_order(2)``
(``per_point(order=POINT_ORDER)``), so they share that table with the
curvature readers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import levi_civita
from .errors import OrderExhaustedError, StructuralError
from .jets import point_derivatives
from .metric import MetricJet, POINT_ORDER, derivative_tables, per_point

__all__ = [
    "StructureReport",
    "DEFAULT_TOL",
    "kahler_defect",
    "balanced_torsion",
    "skt_defect",
    "laplacian_compare",
    "prop38_check",
    "structure_report",
]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class StructureReport:
    point: np.ndarray
    kahler_defect: float
    balanced_defect: float
    skt_defect: float
    is_kahler: bool
    is_balanced: bool
    is_skt: bool
    tol: float


def kahler_defect(mj: MetricJet):
    """f_{i jbar k} = dh_{i jbar}/dz^k - dh_{k jbar}/dz^i and its max modulus."""
    dh = derivative_tables(mj)[0]
    f = np.einsum("kij->ijk", dh) - np.einsum("ikj->ijk", dh)
    return float(abs(f).max()), f


@per_point(order=POINT_ORDER)
def balanced_torsion(mj: MetricJet) -> np.ndarray:
    """The torsion 1-form coefficients eta_l = Gamma_{l jbar}^{jbar}."""
    n = mj.n
    g = point_derivatives(levi_civita(mj), n)
    return np.array([sum(g[l, n + j, n + j] for j in range(n))
                     for l in range(n)])


def skt_defect(mj: MetricJet):
    """Residual matrix of the trace condition on ddbar of the fundamental
    form: r_{ij} = sum_k (d2[k,k,i,j] + d2[i,j,k,k] - d2[k,j,i,k]
    - d2[i,k,k,j]); zero iff the metric is SKT at the point."""
    if mj.order < 2:
        raise OrderExhaustedError("metric jet order must be >= 2")
    d2 = derivative_tables(mj)[2]
    r = (np.einsum("kkij->ij", d2) + np.einsum("ijkk->ij", d2)
         - np.einsum("kjik->ij", d2) - np.einsum("ikkj->ij", d2))
    return float(abs(r).max()), r


def laplacian_compare(mj: MetricJet, f: np.ndarray):
    """The dbar-, d- (1,0 part) and canonical Laplacians at the point of the
    scalar jet of order >= 2 with coefficients f (S,): (dbar, d, canonical)."""
    n = mj.n
    if np.ndim(f) != 1:
        raise StructuralError(
            f"a scalar jet is one coefficient array, got shape {np.shape(f)}")
    d2f = point_derivatives(f, n, 2)  # refuses an order below 2
    df = point_derivatives(f, n, 1)   # d/dz^l, then d/dzbar^l
    up = mj.hinv_at0().T              # h^{i jbar} at [i, j]
    g = point_derivatives(levi_civita(mj.at_order(POINT_ORDER)), n)
    can = -np.sum(up * d2f)
    corr_bar = 2 * np.einsum("ij,ijl,l->", up, g[:n, n:, n:], df[n:])
    corr_hol = 2 * np.einsum("ij,jil,l->", up, g[:n, n:, :n], df[:n])
    return complex(can + corr_bar), complex(can + corr_hol), complex(can)


def prop38_check(mj: MetricJet, tol: float = DEFAULT_TOL):
    """On a point that is both balanced and SKT (defects below tol), the full
    first-derivative norm of the metric must vanish; returns
    ('skip', None) when the precondition fails, else ('checked', norm)."""
    bal = float(abs(balanced_torsion(mj)).max())
    skt, _ = skt_defect(mj)
    if bal > tol or skt > tol:
        return "skip", None
    dh, dbh, _ = derivative_tables(mj)
    norm = float((abs(dh) ** 2).sum() + (abs(dbh) ** 2).sum())
    return "checked", norm


def structure_report(mj: MetricJet, tol: float = DEFAULT_TOL) -> StructureReport:
    kd, _ = kahler_defect(mj)
    bd = float(abs(balanced_torsion(mj)).max())
    sd, _ = skt_defect(mj)
    return StructureReport(point=mj.point, kahler_defect=kd,
                           balanced_defect=bd, skt_defect=sd,
                           is_kahler=kd <= tol, is_balanced=bd <= tol,
                           is_skt=sd <= tol, tol=tol)
