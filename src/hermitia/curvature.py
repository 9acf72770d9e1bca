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
from .errors import OrderExhaustedError, StructuralError, ValidationError
from .jets import point_derivatives
from .metric import MetricJet, POINT_ORDER, derivative_tables, per_point

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
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    n = mj.n
    rng = np.random.default_rng(seed)
    r11 = curvature_lc(mj)
    rhat = curvature_induced(mj)
    diff = r11 - rhat
    worst = -np.inf
    max_imag = 0.0
    for _ in range(trials):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        val = np.einsum("ijkl,i,j,k,l->", diff, u, u.conj(), v, v.conj())
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


def normal_point_suite(mj: MetricJet, balanced: bool = False,
                       skt: bool = False) -> dict:
    """Residuals of the direct second-derivative curvature formulas valid at
    a point with h = identity and vanishing symmetrized Christoffels,
    against the jet pipeline.  With ``balanced``/``skt`` set, also checks
    the constrained Ricci formulas valid under those trace conditions."""
    if mj.order < 2:
        raise OrderExhaustedError("metric jet order must be >= 2")
    _require_normal_point(mj)
    n = mj.n
    d1, db1, d2 = derivative_tables(mj)

    r11 = curvature_lc(mj)
    rhat = curvature_induced(mj)
    bis = curvature_bismut(mj)
    panel = ricci_panel(mj)

    def second(k, j, i, l):
        # d2 h_{i lbar} / dz^k dzbar^j
        return d2[k, j, i, l]

    res = {}

    # Levi-Civita (1,1) tensor from second derivatives plus first-derivative
    # quadratics.
    oracle = np.zeros((n, n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    val = -0.5 * (second(k, j, i, l) + second(i, l, k, j))
                    for q in range(n):
                        val -= (d1[i, q, l] * db1[j, k, q]
                                + d1[k, q, j] * db1[l, i, q])
                    oracle[i, j, k, l] = val
    res["lc_tensor"] = float(np.max(np.abs(r11 - oracle)))

    # Hermitian Ricci trace.
    orc = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            val = 0.0 + 0.0j
            for s in range(n):
                val -= 0.5 * (second(k, s, s, l) + second(s, l, k, s))
                for q in range(n):
                    val -= (d1[s, q, l] * db1[s, k, q]
                            + d1[s, k, q] * db1[s, q, l])
            orc[k, l] = val
    res["hermitian_ricci"] = float(np.max(np.abs(panel["hermitian"] - orc)))

    # Mixed trace h^{i jbar} R_{k jbar i lbar}.
    mixed = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            mixed[k, l] = sum(r11[k, s, s, l] for s in range(n))
    orc = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            val = 0.0 + 0.0j
            for s in range(n):
                val -= 0.5 * (second(s, s, k, l) + second(k, l, s, s))
                for q in range(n):
                    val -= (d1[k, q, l] * db1[s, s, q]
                            + d1[s, q, s] * db1[l, k, q])
            orc[k, l] = val
    res["mixed_trace"] = float(np.max(np.abs(mixed - orc)))

    # Complexified Ricci.
    orc = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            val = 0.0 + 0.0j
            for s in range(n):
                val += 0.5 * (second(k, s, s, l) + second(s, l, k, s))
                val -= second(s, s, k, l) + second(k, l, s, s)
                for q in range(n):
                    val += (d1[s, q, l] * db1[s, k, q]
                            + d1[s, k, q] * db1[s, q, l])
                    val -= 2 * (d1[k, q, l] * db1[s, s, q]
                                + d1[s, q, s] * db1[l, k, q])
            orc[k, l] = val
    res["complexified_ricci"] = float(
        np.max(np.abs(panel["complexified"] - orc)))

    # Induced-connection tensor and its two Ricci traces.
    oracle = np.zeros((n, n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    val = -0.5 * (second(k, j, i, l) + second(i, l, k, j))
                    for q in range(n):
                        val -= d1[i, q, l] * db1[j, k, q]
                    oracle[i, j, k, l] = val
    res["induced_tensor"] = float(np.max(np.abs(rhat - oracle)))

    orc = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            val = 0.0 + 0.0j
            for k in range(n):
                val -= 0.5 * (second(k, j, i, k) + second(i, k, k, j))
                for q in range(n):
                    val -= d1[i, q, k] * db1[j, k, q]
            orc[i, j] = val
    res["induced_first"] = float(np.max(np.abs(panel["induced_first"] - orc)))

    orc = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            val = 0.0 + 0.0j
            for k in range(n):
                val -= 0.5 * (second(k, j, i, k) + second(i, k, k, j))
                for q in range(n):
                    val -= db1[k, i, q] * d1[k, q, j]
            orc[i, j] = val
    res["induced_second"] = float(
        np.max(np.abs(panel["induced_second"] - orc)))

    orc = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            val = 0.0 + 0.0j
            for k in range(n):
                for q in range(n):
                    val += (db1[k, i, q] * d1[k, q, j]
                            - d1[k, i, q] * db1[k, q, j])
            orc[i, j] = val
    res["induced_difference"] = float(np.max(np.abs(
        panel["induced_first"] - panel["induced_second"] - orc)))

    # Bismut tensor.
    oracle = np.zeros((n, n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for a in range(n):
                for b in range(n):
                    val = -(d2[a, j, i, b] + d2[i, b, a, j] - d2[i, j, a, b])
                    for g in range(n):
                        val += d1[i, a, g] * db1[j, g, b]
                        val -= 4 * db1[j, a, g] * d1[i, g, b]
                    oracle[i, j, a, b] = val
    res["bismut_tensor"] = float(np.max(np.abs(bis - oracle)))

    def quad(coef_a, coef_b):
        """coef_a * sum dh_{q lbar}/dzbar^i dh_{k qbar}/dz^i
        + coef_b * sum dh_{k qbar}/dzbar^i dh_{q lbar}/dz^i, as (k,l)."""
        out = np.zeros((n, n), dtype=complex)
        for k in range(n):
            for l in range(n):
                for i in range(n):
                    for q in range(n):
                        out[k, l] += (coef_a * db1[i, q, l] * d1[i, k, q]
                                      + coef_b * db1[i, k, q] * d1[i, q, l])
        return out
    sum_d2_trace = np.zeros((n, n), dtype=complex)   # sum_i d2 h_{i ibar}/dz^k dzbar^l
    sum_d2_lap = np.zeros((n, n), dtype=complex)     # sum_i d2 h_{k lbar}/dz^i dzbar^i
    for k in range(n):
        for l in range(n):
            sum_d2_trace[k, l] = sum(d2[k, l, i, i] for i in range(n))
            sum_d2_lap[k, l] = sum(d2[i, i, k, l] for i in range(n))

    if balanced:
        orc38 = -sum_d2_trace + quad(1, 0)
        res["balanced_first_ricci"] = float(max(
            np.max(np.abs(panel["chern_first"] - orc38)),
            np.max(np.abs(panel["induced_first"] - orc38)),
            np.max(np.abs(panel["bismut_first"] - orc38))))
        res["balanced_chern_second"] = float(np.max(np.abs(
            panel["chern_second"] - (-sum_d2_lap + quad(1, 0)))))
        res["balanced_induced_second"] = float(np.max(np.abs(
            panel["induced_second"] - (-sum_d2_trace + quad(2, -1)))))
        res["balanced_bismut_second"] = float(np.max(np.abs(
            panel["bismut_second"] - (-sum_d2_trace + quad(5, -4)))))
        res["balanced_hermitian"] = float(np.max(np.abs(
            panel["hermitian"] - (-sum_d2_trace + quad(1, -1)))))
        res["balanced_complexified"] = float(np.max(np.abs(
            panel["complexified"] - (-sum_d2_lap - quad(1, -1)))))

    if skt:
        res["skt_chern_first"] = float(np.max(np.abs(
            panel["chern_first"] - (-sum_d2_trace + quad(1, 0)))))
        res["skt_chern_second"] = float(np.max(np.abs(
            panel["chern_second"] - (-sum_d2_lap + quad(1, 0)))))
        half = -0.5 * (sum_d2_lap + sum_d2_trace)
        res["skt_induced_first"] = float(np.max(np.abs(
            panel["induced_first"] - (half - quad(1, 0)))))
        res["skt_induced_second"] = float(np.max(np.abs(
            panel["induced_second"] - (half - quad(0, 1)))))
        res["skt_bismut_first"] = float(np.max(np.abs(
            panel["bismut_first"] - (-sum_d2_lap + quad(1, -4)))))
        res["skt_bismut_second"] = float(np.max(np.abs(
            panel["bismut_second"] - (-sum_d2_trace + quad(1, -4)))))
        res["skt_hermitian"] = float(np.max(np.abs(
            panel["hermitian"] - (half - quad(1, 1)))))
        # complexified: extra torsion-trace quadratics
        extra = np.zeros((n, n), dtype=complex)
        for k in range(n):
            for l in range(n):
                for q in range(n):
                    for i in range(n):
                        extra[k, l] += (d1[k, q, l] * db1[i, i, q]
                                        + d1[i, q, i] * db1[l, k, q])
        res["skt_complexified"] = float(np.max(np.abs(
            panel["complexified"] - (half + quad(1, 1) - 2 * extra))))
        lhs = panel["chern_second"] + panel["bismut_second"]
        res["skt_trace_relation"] = float(np.max(np.abs(
            lhs - panel["chern_first"] - panel["induced_first"])))
        res["skt_trace_relation_b1"] = float(np.max(np.abs(
            lhs - panel["chern_first"] - panel["bismut_first"])))

    return res
