"""The four curvature tensors and every Ricci / scalar contraction.

Storage order for all (1,1)-type tensors is (i, jbar, k, lbar): the first
pair are form indices, the second pair bundle indices.  Contractions use the
inverse-metric tensor h^{i jbar} = hinv[j][i] (see docs/conventions.md).
Every tensor here reads h to degree 2 (Gamma to degree 1) and is built on
``mj.at_order(2)`` (``per_point(order=POINT_ORDER)``), whatever the order
of the jet given; the contractions read those tensors and h^-1 at the
point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import _complexified, bismut, chern, levi_civita
from .errors import OrderExhaustedError, StructuralError
from .jets import point_derivatives
from .metric import MetricJet, POINT_ORDER, derivative_tables, per_point
from .positivity import _pairing, _unit_pairs

__all__ = [
    "ScalarReport",
    "curvature_lc",
    "curvature_induced",
    "curvature_chern",
    "curvature_bismut",
    "lc_curvature_full",
    "connection_curvature",
    "ricci",
    "complexified_ricci",
    "complexified_ricci_bianchi",
    "scalars",
    "ricci_panel",
    "curvature_comparison",
    "normal_point_suite",
]


@dataclass(frozen=True)
class ScalarReport:
    s_h: complex
    S: complex
    S_LC: complex
    S_CH: complex
    S_BM: complex
    point: np.ndarray

    def as_dict(self):
        return {"s_h": self.s_h, "S": self.S, "S_LC": self.S_LC,
                "S_CH": self.S_CH, "S_BM": self.S_BM}


def connection_curvature(g: np.ndarray, dg: np.ndarray,
                         fiber: np.ndarray) -> np.ndarray:
    """Pointwise curvature of one connection, from its direction-first table
    g[D, a, b] = G_{D a}^b and dg[E, D, a, b] = dG_{D a}^b/dz^E:

    R_{AB a}^b = d_A G_{B a}^b - d_B G_{A a}^b
                 - G_{A a}^c G_{B c}^b + G_{B a}^c G_{A c}^b,

    lowered with the fiber metric F_{b l} into index order (A, B, a, l).
    Directions run over all 2n; the fiber indices over g's last two axes.
    """
    quad = g[:, None] @ g[None]   # [A, B] = G_A G_B as fiber matrices
    r_up = (dg - dg.transpose(1, 0, 2, 3)
            - quad + quad.transpose(1, 0, 2, 3))
    return r_up @ fiber


@per_point(order=POINT_ORDER)
def lc_curvature_full(mj: MetricJet) -> np.ndarray:
    """Pointwise complexified curvature R_{ABCD} for all 2n-range indices:
    the Levi-Civita table on the full tangent bundle, lowered with H_{DE}."""
    n, lc = mj.n, levi_civita(mj)
    return connection_curvature(point_derivatives(lc, n),
                                point_derivatives(lc, n, 1),
                                point_derivatives(_complexified(mj.h), n))


@per_point(order=POINT_ORDER)
def curvature_lc(mj: MetricJet) -> np.ndarray:
    n = mj.n
    return lc_curvature_full(mj)[:n, n:, :n, n:]


def _tangent_curvature(connection, mj: MetricJet) -> np.ndarray:
    """(1,1)-part R_{i jbar a lbar} of ``connection(mj)``'s table on the
    holomorphic tangent bundle: fiber indices < n, lowered with h_{b lbar}."""
    n = mj.n
    table = connection(mj)
    g = point_derivatives(table, n)[:, :n, :n]
    dg = point_derivatives(table, n, 1)[..., :n, :n]
    return connection_curvature(g, dg, mj.h_at0())[:n, n:]


@per_point(order=POINT_ORDER)
def curvature_induced(mj: MetricJet) -> np.ndarray:
    """Curvature of the projection of the Levi-Civita connection onto the
    holomorphic tangent bundle: the Levi-Civita table restricted to fiber
    indices < n."""
    return _tangent_curvature(levi_civita, mj)


@per_point(order=POINT_ORDER)
def curvature_chern(mj: MetricJet) -> np.ndarray:
    return _tangent_curvature(chern, mj)


@per_point(order=POINT_ORDER)
def curvature_bismut(mj: MetricJet) -> np.ndarray:
    return _tangent_curvature(bismut, mj)


# -- Ricci contractions ----------------------------------------------------


def ricci(t: np.ndarray, mj: MetricJet, flavor: str) -> np.ndarray:
    """Contract a curvature tensor t[i, jbar, k, lbar] to a Ricci matrix:
    flavor 'first' traces the bundle pair (the matrix is indexed by the form
    pair), 'second' the form pair.  The 'second' trace of the Levi-Civita
    tensor is the Hermitian Ricci matrix."""
    up = mj.hinv_at0().T   # h^{i jbar} at [i, j]
    if flavor == "first":
        return np.einsum("kl,ijkl->ij", up, t)
    if flavor == "second":
        return np.einsum("ij,ijkl->kl", up, t)
    raise StructuralError(f"unknown Ricci flavor {flavor!r}")


@per_point(order=POINT_ORDER)
def complexified_ricci(mj: MetricJet) -> np.ndarray:
    """R_{k lbar} = h^{i jbar} (R_{k jbar i lbar} + R_{k i jbar lbar})."""
    n = mj.n
    full = lc_curvature_full(mj)
    up = mj.hinv_at0().T
    return (np.einsum("ij,kjil->kl", up, full[:n, n:, :n, n:])
            + np.einsum("ij,kijl->kl", up, full[:n, :n, n:, n:]))


def complexified_ricci_bianchi(mj: MetricJet) -> np.ndarray:
    """Second route: R_{k lbar} = h^{i jbar} (2 R_{k jbar i lbar}
    - R_{k lbar i jbar}), using only the (1,1)-slice."""
    slice11 = curvature_lc(mj)
    up = mj.hinv_at0().T
    return (2 * np.einsum("ij,kjil->kl", up, slice11)
            - np.einsum("ij,klij->kl", up, slice11))


def scalars(mj: MetricJet) -> ScalarReport:
    up = mj.hinv_at0().T
    S, S_LC, S_CH, S_BM = (complex(np.einsum("kl,ij,ijkl->", up, up, t))
                           for t in (curvature_lc(mj), curvature_induced(mj),
                                     curvature_chern(mj), curvature_bismut(mj)))
    s_h = complex(np.einsum("kl,kl->", up, complexified_ricci(mj)))
    return ScalarReport(s_h=s_h, S=S, S_LC=S_LC, S_CH=S_CH, S_BM=S_BM,
                        point=mj.point)


# -- normal-point direct-formula suite -------------------------------------


def _require_normal_point(mj: MetricJet, tol: float = 1e-12):
    n = mj.n
    h0 = mj.h_at0()
    if np.max(np.abs(h0 - np.eye(n))) > tol:
        raise StructuralError("normal-point suite needs h(0) = identity")
    d1 = derivative_tables(mj)[0]
    gam = d1 + np.transpose(d1, (1, 0, 2))
    if np.max(np.abs(gam)) > tol:
        raise StructuralError(
            "normal-point suite needs vanishing symmetrized Christoffels")


def ricci_panel(mj: MetricJet) -> dict:
    """All eight Ricci matrices at the point, keyed by connection/trace."""
    rlc = curvature_lc(mj)
    rind = curvature_induced(mj)
    rch = curvature_chern(mj)
    rbm = curvature_bismut(mj)
    return {
        "chern_first": ricci(rch, mj, "first"),
        "chern_second": ricci(rch, mj, "second"),
        "induced_first": ricci(rind, mj, "first"),
        "induced_second": ricci(rind, mj, "second"),
        "bismut_first": ricci(rbm, mj, "first"),
        "bismut_second": ricci(rbm, mj, "second"),
        "hermitian": ricci(rlc, mj, "second"),
        "complexified": complexified_ricci(mj),
    }


def curvature_comparison(mj: MetricJet, trials: int, seed: int) -> dict:
    """Pointwise comparison of the Levi-Civita (1,1) curvature with the
    induced-connection curvature: the (u, ubar, v, vbar) contraction of
    R - Rhat is real and nonpositive, and both induced Ricci traces
    dominate the Hermitian Ricci matrix."""
    pairs = _unit_pairs(mj.n, trials, seed)
    r11 = curvature_lc(mj)
    rhat = curvature_induced(mj)
    diff = r11 - rhat
    worst = -np.inf
    max_imag = 0.0
    for u, v in pairs:
        val = _pairing(diff, u, v)
        worst = max(worst, val.real)
        max_imag = max(max_imag, abs(val.imag))
    herm = ricci(r11, mj, "second")
    first, second = ricci(rhat, mj, "first"), ricci(rhat, mj, "second")
    return {
        "max_contraction": worst,
        "max_contraction_imag": max_imag,
        "min_eig_first_minus_hermitian": float(
            np.linalg.eigvalsh((first - herm + (first - herm).conj().T) / 2)[0]),
        "min_eig_second_minus_hermitian": float(
            np.linalg.eigvalsh((second - herm + (second - herm).conj().T) / 2)[0]),
    }


def _quad(d1, db1, a, b):
    """a sum dh_{q lbar}/dzbar^i dh_{k qbar}/dz^i
    + b sum dh_{k qbar}/dzbar^i dh_{q lbar}/dz^i over i, q, at [k, l]."""
    return (a * np.einsum("iql,ikq->kl", db1, d1)
            + b * np.einsum("ikq,iql->kl", db1, d1))


def _extra(d1, db1):
    """The torsion-trace quadratics sum dh_{q lbar}/dz^k dh_{i qbar}/dzbar^i
    + dh_{q ibar}/dz^i dh_{k qbar}/dzbar^l over i, q, at [k, l]."""
    return (np.einsum("kql,iiq->kl", d1, db1)
            + np.einsum("iqi,lkq->kl", d1, db1))


def normal_point_suite(mj: MetricJet, balanced: bool = False,
                       skt: bool = False) -> dict:
    """Residuals of the direct second-derivative curvature formulas valid at
    a point with h = identity and vanishing symmetrized Christoffels,
    against the jet pipeline.  With ``balanced``/``skt`` set, also checks
    the constrained Ricci formulas valid under those trace conditions.
    Each formula term is one einsum over ``derivative_tables``' d1, db1, d2."""
    if mj.order < 2:
        raise OrderExhaustedError("metric jet order must be >= 2")
    _require_normal_point(mj)
    d1, db1, d2 = derivative_tables(mj)
    r11, panel = curvature_lc(mj), ricci_panel(mj)
    # d^2 h_{i lbar}/dz^k dzbar^j + d^2 h_{k jbar}/dz^i dzbar^l at [i, j, k, l]
    pair = np.einsum("kjil->ijkl", d2) + np.einsum("ilkj->ijkl", d2)
    lap = np.einsum("iikl->kl", d2)     # sum_i d^2 h_{k lbar}/dz^i dzbar^i
    trace = np.einsum("klii->kl", d2)   # sum_i d^2 h_{i ibar}/dz^k dzbar^l
    half = -0.5 * (lap + trace)
    quad11, extra = _quad(d1, db1, 1, 1), _extra(d1, db1)
    induced = -0.5 * pair - np.einsum("iql,jkq->ijkl", d1, db1)
    herm_d2 = -0.5 * np.einsum("sskl->kl", pair)
    induced_d2 = -0.5 * np.einsum("ijkk->ij", pair)
    induced_q2 = np.einsum("kiq,kqj->ij", db1, d1)
    checks = {   # name -> (pipeline value, formula)
        "lc_tensor": (r11, induced - np.einsum("kqj,liq->ijkl", d1, db1)),
        "hermitian_ricci": (panel["hermitian"], herm_d2 - quad11),
        "mixed_trace": (np.einsum("kssl->kl", r11), half - extra),
        "complexified_ricci": (panel["complexified"], -herm_d2 - lap - trace
                               + quad11 - 2 * extra),
        "induced_tensor": (curvature_induced(mj), induced),
        "induced_first": (panel["induced_first"],
                          induced_d2 - np.einsum("iqk,jkq->ij", d1, db1)),
        "induced_second": (panel["induced_second"], induced_d2 - induced_q2),
        "induced_difference": (
            panel["induced_first"] - panel["induced_second"],
            induced_q2 - np.einsum("kiq,kqj->ij", d1, db1)),
        "bismut_tensor": (curvature_bismut(mj),
                          d2 - pair + np.einsum("iag,jgb->ijab", d1, db1)
                          - 4 * np.einsum("jag,igb->ijab", db1, d1)),
    }
    rows = {}   # name -> (panel entry, d2h term, _quad coefficients a, b)
    if balanced:
        checks["balanced_first_ricci"] = (
            np.stack([panel["chern_first"], panel["induced_first"],
                      panel["bismut_first"]]), -trace + _quad(d1, db1, 1, 0))
        rows.update({
            "balanced_chern_second": ("chern_second", -lap, 1, 0),
            "balanced_induced_second": ("induced_second", -trace, 2, -1),
            "balanced_bismut_second": ("bismut_second", -trace, 5, -4),
            "balanced_hermitian": ("hermitian", -trace, 1, -1),
            "balanced_complexified": ("complexified", -lap, -1, 1)})
    if skt:
        rows.update({
            "skt_chern_first": ("chern_first", -trace, 1, 0),
            "skt_chern_second": ("chern_second", -lap, 1, 0),
            "skt_induced_first": ("induced_first", half, -1, 0),
            "skt_induced_second": ("induced_second", half, 0, -1),
            "skt_bismut_first": ("bismut_first", -lap, 1, -4),
            "skt_bismut_second": ("bismut_second", -trace, 1, -4),
            "skt_hermitian": ("hermitian", half, -1, -1),
            "skt_complexified": ("complexified", half - 2 * extra, 1, 1)})
    checks.update({name: (panel[key], second + _quad(d1, db1, a, b))
                   for name, (key, second, a, b) in rows.items()})
    if skt:
        lhs = (panel["chern_second"] + panel["bismut_second"]
               - panel["chern_first"])
        checks["skt_trace_relation"] = (lhs, panel["induced_first"])
        checks["skt_trace_relation_b1"] = (lhs, panel["bismut_first"])
    return {name: float(np.max(np.abs(got - want)))
            for name, (got, want) in checks.items()}
