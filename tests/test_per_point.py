"""The per-point memo on MetricJet: each geometric object is built once per
jet, handed out read-only, and freed with the jet."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from hermitia import connection
from hermitia.connection import levi_civita
from hermitia.curvature import (complexified_ricci, connection_curvature,
                                curvature_bismut, curvature_chern,
                                curvature_induced,
                                curvature_lc, lc_curvature_full,
                                normal_point_suite, ricci_panel, scalars)
from hermitia.errors import OrderExhaustedError
from hermitia.forms import identity_suite
from hermitia.hopf import HopfPoint, oracle_vs_pipeline
from hermitia.jets import Jet, point_derivatives
from hermitia.metric import (derivative_tables, hopf_metric, metric_jet,
                             normal_form_skt, random_torus_fourier)
from hermitia.structure import kahler_defect, skt_defect, structure_report


def test_levi_civita_built_once_across_the_point_pipeline(monkeypatch):
    calls = []
    # levi_civita alone looks it up on connection; curvature holds its own name
    complexified = connection._complexified

    def spy(x):
        calls.append(x)
        return complexified(x)

    monkeypatch.setattr(connection, "_complexified", spy)
    mj = metric_jet(normal_form_skt(3, 0), np.zeros(3, complex), order=3)
    ricci_panel(mj)
    scalars(mj)
    structure_report(mj)
    normal_point_suite(mj, skt=True)
    assert len(calls) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_point_pipeline_builds_no_jet(monkeypatch, n):
    # every point-layer tensor is a coefficient array; 512 Jets per op at
    # n = 4 when the tables were object arrays
    made = []
    init = Jet.__init__

    def counting(self, *args, **kwargs):
        made.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Jet, "__init__", counting)
    rng = np.random.default_rng(n)
    x = rng.uniform(0.0, 1.0, 2 * n)
    for fld, z in ((normal_form_skt(n, 0), np.zeros(n, complex)),
                   (random_torus_fourier(n, 5), x[:n] + 1j * x[n:])):
        mj = metric_jet(fld, z, order=3)
        ricci_panel(mj)
        scalars(mj)
        structure_report(mj)
    normal_point_suite(metric_jet(normal_form_skt(n, 0),
                                  np.zeros(n, complex), order=3), skt=True)
    oracle_vs_pipeline(HopfPoint(n, x[:n] + 1j * x[n:]))
    assert made == []


def test_point_pipeline_peak_memory():
    # one n = 4 point: 0.8 MB with the entry-by-entry Levi-Civita loop,
    # 1.06 MB with its products taken one E at a time; a dense (2n)^3 dH
    # array held through that loop peaked at 1.43 MB
    warm = metric_jet(normal_form_skt(4, 0), np.zeros(4, complex), order=3)
    ricci_panel(warm)
    scalars(warm)
    mj = metric_jet(normal_form_skt(4, 0), np.zeros(4, complex), order=3)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ricci_panel(mj)
        scalars(mj)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1.25e6


def test_metric_jet_is_freed_after_identity_suite():
    mj = metric_jet(hopf_metric(2), np.array([1.0, 0.5j]), order=3)
    identity_suite(mj, trials=1, seed=0)
    ref = weakref.ref(mj)
    del mj
    gc.collect()
    assert ref() is None


def test_memoized_arrays_are_read_only():
    mj = metric_jet(hopf_metric(2), np.array([1.0, 0.5j]), order=3)
    arrays = [*derivative_tables(mj), levi_civita(mj),
              lc_curvature_full(mj), complexified_ricci(mj)]
    arrays += [f(mj) for f in (curvature_lc, curvature_induced,
                               curvature_chern, curvature_bismut)]
    for a in arrays:
        with pytest.raises(ValueError):
            a.flat[0] = a.flat[0]


def test_order_one_jet_keeps_first_derivative_consumers():
    mj = metric_jet(hopf_metric(2), np.array([1.0, 0.5j]), order=1)
    assert kahler_defect(mj)[0] > 0
    with pytest.raises(OrderExhaustedError):
        skt_defect(mj)
    with pytest.raises(OrderExhaustedError):
        curvature_lc(mj)


def _riemann_loops(mj, m):
    """Reference: R_{ABCD} entry by entry, intermediate index over range(m)."""
    n = mj.n
    lc = levi_civita(mj)
    g, dg = point_derivatives(lc, n), point_derivatives(lc, n, 1)
    r_up = np.zeros((2 * n,) * 4, dtype=complex)
    for A in range(2 * n):
        for B in range(2 * n):
            for C in range(2 * n):
                for D in range(2 * n):
                    val = dg[B, A, C, D] - dg[A, B, C, D]
                    val += np.dot(g[A, C, :m], g[:m, B, D])
                    val -= np.dot(g[B, C, :m], g[A, :m, D])
                    r_up[A, B, C, D] = -val
    H = np.zeros((2 * n, 2 * n), dtype=complex)
    H[:n, n:] = mj.h_at0()
    H[n:, :n] = mj.h_at0().T
    return np.einsum("abcs,sd->abcd", r_up, H)


@pytest.mark.parametrize("n", [2, 3])
def test_riemann_kernel_matches_entrywise_loops(n):
    rng = np.random.default_rng(n)
    x = rng.uniform(0, 1, 2 * n)
    mj = metric_jet(random_torus_fourier(n, 5), x[:n] + 1j * x[n:], order=3)
    full = _riemann_loops(mj, 2 * n)
    induced = _riemann_loops(mj, n)[:n, n:, :n, n:]
    assert np.max(np.abs(full)) > 1e-3
    lc = levi_civita(mj)
    g, dg = point_derivatives(lc, n), point_derivatives(lc, n, 1)
    h0 = mj.h_at0()
    H = np.block([[np.zeros((n, n)), h0], [h0.T, np.zeros((n, n))]])
    # the one curvature formula: LC on its full table, induced on the
    # block of fiber indices < n
    assert np.max(np.abs(connection_curvature(g, dg, H) - full)) < 1e-12
    got = connection_curvature(g[:, :n, :n], dg[..., :n, :n], h0)[:n, n:]
    assert np.max(np.abs(got - induced)) < 1e-12
    assert np.max(np.abs(lc_curvature_full(mj) - full)) < 1e-12
    assert np.max(np.abs(curvature_induced(mj) - induced)) < 1e-12
