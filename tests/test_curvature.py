import numpy as np
import pytest

from hermitia.connection import bismut, chern
from hermitia.curvature import (ScalarReport, _extra, _quad,
                                complexified_ricci,
                                complexified_ricci_bianchi,
                                connection_curvature,
                                curvature_bismut, curvature_chern,
                                curvature_comparison, curvature_induced,
                                curvature_lc, lc_curvature_full,
                                normal_point_suite, ricci, ricci_panel,
                                scalars)
from hermitia.errors import StructuralError, ValidationError
from hermitia.jets import point_derivatives, wirtinger
from hermitia.metric import (derivative_tables, flat_metric, hopf_metric,
                             metric_jet, normal_coordinates_random,
                             normal_form_balanced, normal_form_random,
                             normal_form_skt, potential_kahler_torus)
from reference import h_jets, log_det_jet


def _hopf(n=2):
    z = np.array([1.0 + 0.0j] + [0.5j] * (n - 1))
    return metric_jet(hopf_metric(n), z, order=3)


def test_flat_all_zero():
    mj = metric_jet(flat_metric(2), np.zeros(2), order=3)
    for t in (curvature_lc(mj), curvature_induced(mj), curvature_chern(mj),
              curvature_bismut(mj)):
        assert t.shape == (2, 2, 2, 2)
        assert np.max(np.abs(t)) < 1e-14
    assert np.max(np.abs(complexified_ricci(mj))) < 1e-14


def test_hopf_chern_ricci2():
    for n in (2, 3):
        mj = _hopf(n)
        r2 = float(np.vdot(mj.point, mj.point).real)
        got = ricci(curvature_chern(mj), mj, "second")
        assert np.max(np.abs(got - (n - 1) / r2 * np.eye(n))) < 1e-10


def test_ricci_flavor_validation():
    mj = _hopf(2)
    with pytest.raises(StructuralError):
        ricci(curvature_chern(mj), mj, "hermitian")


def test_curvature_comparison_refuses_no_trials():
    # trials = 0 used to report max_contraction = -inf, a pass over nothing
    mj = metric_jet(normal_form_skt(2, 1), np.zeros(2), order=3)
    for trials in (0, -1):
        with pytest.raises(ValidationError, match="trials must be >= 1"):
            curvature_comparison(mj, trials=trials, seed=0)
    assert curvature_comparison(mj, trials=1, seed=0)["max_contraction"] <= 0


def test_first_chern_logdet_route():
    mj = metric_jet(normal_form_random(2, 3), 0.05 * np.ones(2), order=3)
    a = ricci(curvature_chern(mj), mj, "first")
    b = -point_derivatives(log_det_jet(h_jets(mj)[0]).coeffs, 2, 2)
    assert np.max(np.abs(a - b)) < 1e-10


def test_bianchi_route_equality():
    rng = np.random.default_rng(0)
    metrics = [_hopf(2), _hopf(3),
               metric_jet(normal_form_random(2, 1),
                          0.1 * (rng.standard_normal(2)
                                 + 1j * rng.standard_normal(2)), order=3),
               metric_jet(potential_kahler_torus(2, 2),
                          rng.uniform(0, 1, 2) + 1j * rng.uniform(0, 1, 2),
                          order=3)]
    for mj in metrics:
        a = complexified_ricci(mj)
        b = complexified_ricci_bianchi(mj)
        assert np.max(np.abs(a - b)) < 1e-10


def test_kahler_all_tensors_coincide():
    rng = np.random.default_rng(4)
    fld = potential_kahler_torus(2, seed=6)
    z = rng.uniform(0, 1, 2) + 1j * rng.uniform(0, 1, 2)
    mj = metric_jet(fld, z, order=3)
    base = curvature_lc(mj)
    for t in (curvature_induced(mj), curvature_chern(mj),
              curvature_bismut(mj)):
        assert np.max(np.abs(t - base)) < 1e-9
    panel = ricci_panel(mj)
    mats = list(panel.values())
    for m in mats[1:]:
        assert np.max(np.abs(m - mats[0])) < 1e-9


def test_ricci_panel_hermitian():
    mj = _hopf(2)
    for name, m in ricci_panel(mj).items():
        assert np.max(np.abs(m - m.conj().T)) < 1e-10, name


def test_comparison_inequalities():
    rng = np.random.default_rng(9)
    for seed in range(5):
        z = 0.1 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        mj = metric_jet(normal_form_random(2, seed), z, order=3)
        rep = curvature_comparison(mj, trials=50, seed=seed)
        assert rep["max_contraction"] <= 1e-12
        assert rep["max_contraction_imag"] <= 1e-10
        assert rep["min_eig_first_minus_hermitian"] >= -1e-10
        assert rep["min_eig_second_minus_hermitian"] >= -1e-10


def test_normal_point_suite_unconstrained():
    for seed in range(3):
        mj = metric_jet(normal_coordinates_random(2, seed), np.zeros(2),
                        order=3)
        res = normal_point_suite(mj)
        assert max(res.values()) < 1e-12, res


def test_normal_point_suite_balanced():
    for seed in range(3):
        mj = metric_jet(normal_form_balanced(2, seed), np.zeros(2), order=3)
        res = normal_point_suite(mj, balanced=True)
        assert max(res.values()) < 1e-12, res


def test_normal_point_suite_skt():
    for seed in range(3):
        mj = metric_jet(normal_form_skt(2, seed), np.zeros(2), order=3)
        res = normal_point_suite(mj, skt=True)
        # the two-trace sum relation only closes with the nonpositive-trace
        # reading; the other printed reading is reported, not asserted here
        assert res["skt_trace_relation_b1"] < 1e-12
        others = {k: v for k, v in res.items() if k != "skt_trace_relation"}
        assert max(others.values()) < 1e-12, others


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_constrained_quadratics_match_their_loops(n):
    # normal_form_balanced and normal_form_skt have dh(0) = 0, so their
    # suite runs leave these terms unchecked; the loops are the ones the
    # einsums replaced
    rng = np.random.default_rng(n)
    d1, db1 = (rng.standard_normal((n, n, n))
               + 1j * rng.standard_normal((n, n, n)) for _ in range(2))
    idx = [(k, l, i, q) for k in range(n) for l in range(n)
           for i in range(n) for q in range(n)]
    extra = np.zeros((n, n), dtype=complex)
    for k, l, i, q in idx:
        extra[k, l] += (d1[k, q, l] * db1[i, i, q]
                        + d1[i, q, i] * db1[l, k, q])
    assert np.max(np.abs(_extra(d1, db1) - extra)) <= \
        1e-14 * np.max(np.abs(extra))
    # the seven (a, b) pairs of the formulas, each with both signs
    pairs = ((1, 0), (0, 1), (1, 1), (1, -1), (2, -1), (5, -4), (1, -4))
    for a, b in pairs + tuple((-a, -b) for a, b in pairs):
        out = np.zeros((n, n), dtype=complex)
        for k, l, i, q in idx:
            out[k, l] += (a * db1[i, q, l] * d1[i, k, q]
                          + b * db1[i, k, q] * d1[i, q, l])
        assert np.max(np.abs(_quad(d1, db1, a, b) - out)) <= \
            1e-14 * np.max(np.abs(out))


def test_normal_point_suite_rejects_generic_point():
    mj = _hopf(2)
    with pytest.raises(StructuralError):
        normal_point_suite(mj)


def test_scalars_real():
    for mj in (_hopf(2), _hopf(3)):
        rep = scalars(mj)
        assert isinstance(rep, ScalarReport)
        for v in rep.as_dict().values():
            assert abs(complex(v).imag) < 1e-10


# -- einsum contractions against the entry-by-entry loops they replaced ----


def _ricci_loops(mj):
    """Reference: both complexified Ricci routes, entry by entry."""
    n = mj.n
    full = lc_curvature_full(mj)
    s11 = curvature_lc(mj)
    up = mj.hinv_at0().T
    m1 = np.zeros((n, n), dtype=complex)
    m2 = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            for i in range(n):
                for j in range(n):
                    m1[k, l] += up[i, j] * (full[k, n + j, i, n + l]
                                            + full[k, i, n + j, n + l])
                    m2[k, l] += up[i, j] * (2 * s11[k, j, i, l]
                                            - s11[k, l, i, j])
    return m1, m2


def _bundle_curvature_loops(table, mj):
    """Reference: the raised (1,1)-curvature, one (i, j) block at a time."""
    n = mj.n
    g, dg = point_derivatives(table, n), point_derivatives(table, n, 1)
    r_up = np.zeros((n, n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            jb = n + j
            r_up[i, j] = (-dg[jb, i] + dg[i, jb]
                          - g[i] @ g[jb] + g[jb] @ g[i])
    return r_up


@pytest.mark.parametrize("n", [2, 3])
def test_einsum_contractions_match_loops(n):
    rng = np.random.default_rng(40 + n)
    z = 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    for mj in (_hopf(n), metric_jet(normal_form_random(n, 7), z, order=3)):
        m1, m2 = _ricci_loops(mj)
        assert np.max(np.abs(m1)) > 1e-3
        assert np.max(np.abs(complexified_ricci(mj) - m1)) <= 1e-13
        assert np.max(np.abs(complexified_ricci_bianchi(mj) - m2)) <= 1e-13
        for table in (chern(mj), bismut(mj)):
            want = _bundle_curvature_loops(table, mj)
            # the identity fiber metric leaves the raised tensor as it is
            got = connection_curvature(point_derivatives(table, n),
                                       point_derivatives(table, n, 1),
                                       np.eye(n))[:n, n:]
            assert np.max(np.abs(got - want)) <= 1e-13


def test_log_det_jet_derivative_is_trace_of_inverse_times_derivative():
    # Jacobi's formula: d log det H / dz^k = tr(H^-1 dH/dz^k)
    mj = _hopf(3)
    d1 = derivative_tables(mj)[0]
    want = np.einsum("ji,kij->k", mj.hinv_at0(), d1)
    ld = log_det_jet(h_jets(mj)[0])
    got = [wirtinger(ld, "holo", k).const for k in range(3)]
    assert np.max(np.abs(np.array(got) - want)) < 1e-12
