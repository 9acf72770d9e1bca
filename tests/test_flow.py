import math
import os
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hermitia import curvature as C
from hermitia import flow as F
from hermitia import metric as M
from hermitia.errors import DomainError, ValidationError
from hermitia.metric import (flat_metric, hopf_metric, normal_form_random,
                             potential_kahler_torus, random_torus_fourier,
                             separable_kahler_torus)
from reference import read_grid_dump


def _hopf_grid(n, N):
    z = F.grid_points(n, N) + (1.0 + 0.0j)
    r2 = np.sum(np.abs(z) ** 2, axis=-1)
    h = np.zeros(z.shape[:-1] + (n, n), dtype=complex)
    for i in range(n):
        h[..., i, i] = 4.0 / r2
    return z, h


def test_theta2_flat_zero():
    h = np.tile(np.eye(2, dtype=complex), (8,) * 4 + (1, 1))
    assert np.max(np.abs(F.theta2_discrete(h, 2, 8))) < 1e-12


def test_theta2_needs_wide_grid():
    h = np.tile(np.eye(2, dtype=complex), (4,) * 4 + (1, 1))
    with pytest.raises(DomainError):
        F.theta2_discrete(h, 2, 4)


def test_theta2_degree_zero_homogeneity():
    h = F.sample_on_grid(potential_kahler_torus(2, 3), 8)
    t1 = F.theta2_discrete(h, 2, 8)
    t2 = F.theta2_discrete(2.7 * h, 2, 8)
    assert np.max(np.abs(t2 - t1)) < 1e-12


def test_theta2_hermitian_output():
    h = F.sample_on_grid(random_torus_fourier(2, 1), 8)
    t = F.theta2_discrete(h, 2, 8)
    assert np.max(np.abs(t - np.conj(np.swapaxes(t, -1, -2)))) < 1e-14


@pytest.mark.parametrize("n", [2, 3])
def test_theta2_is_hermitian_bit_for_bit_from_the_upper_triangle(n):
    """theta2 reads each site's upper triangle and mirrors its result once:
    the result is Hermitian bit for bit with an exactly real diagonal, it is
    the theta2 of the Hermitian h that the upper triangles define, and a
    sampled h, Hermitian only up to rounding, gives the theta2 of its
    Hermitian part to rounding."""
    h = F.sample_on_grid(random_torus_fourier(n, 1), 8)
    assert not np.array_equal(h, np.conj(np.swapaxes(h, -1, -2)))
    t = F.theta2_discrete(h, n, 8)
    assert np.array_equal(t, np.conj(np.swapaxes(t, -1, -2)))
    assert np.all(np.diagonal(t, axis1=-2, axis2=-1).imag == 0)
    assert np.array_equal(t, F.theta2_discrete(_upper_hermitian(h), n, 8))
    sym = F.theta2_discrete(0.5 * (h + np.conj(np.swapaxes(h, -1, -2))), n, 8)
    assert np.max(np.abs(t - sym)) <= 1e-14 * np.max(np.abs(sym))


@pytest.mark.parametrize("maker", [random_torus_fourier,
                                   potential_kahler_torus,
                                   separable_kahler_torus])
def test_theta2_converges_to_the_point_pipeline(maker):
    """A second route for the grid theta2: the second Ricci trace of the
    Chern curvature from the point pipeline, at 12 sites of the quarter
    lattice that N = 8, 12, 16, 24 and 32 share.  The relative error falls
    at an observed order >= 3.3 with each step up to N = 16 and >= 3.5 on
    the two steps beyond; it is <= 3e-2 at N = 16 and <= 2e-3 at N = 32."""
    n = 2
    fld = maker(n, 0)
    quarter = np.array(list(np.ndindex((4,) * (2 * n))))
    sites = quarter[np.random.default_rng(0).choice(len(quarter), 12,
                                                    replace=False)]
    want = []
    for q in sites / 4.0:
        mj = M.metric_jet(fld, q[0::2] + 1j * q[1::2], order=2)
        want.append(C.ricci(C.curvature_chern(mj), mj, "second"))
    want = np.array(want)
    Ns, errs = (8, 12, 16, 24, 32), []
    for N in Ns:
        t = F.theta2_discrete(F.sample_on_grid(fld, N), n, N)
        got = t[tuple((sites * (N // 4)).T)]
        del t
        errs.append(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    orders = [math.log(e0 / e1) / math.log(N1 / N0) for N0, N1, e0, e1
              in zip(Ns, Ns[1:], errs, errs[1:])]
    assert min(orders[:2]) >= 3.3 and min(orders[2:]) >= 3.5, (errs, orders)
    assert errs[2] <= 3e-2 and errs[-1] <= 2e-3, errs


def test_theta2_matches_annulus_oracle_interior():
    n, N = 2, 16
    z, h = _hopf_grid(n, N)
    th = F.theta2_discrete(h, n, N)
    r2 = np.sum(np.abs(z) ** 2, axis=-1)
    oracle = np.zeros_like(th)
    for i in range(n):
        oracle[..., i, i] = (n - 1) / r2
    sl = (slice(5, N - 5),) * (2 * n)
    assert np.max(np.abs((th - oracle)[sl])) < 1e-4


def test_flat_flow_exact_ode():
    st, series = F.run(flat_metric(2), mu=0.1, T=0.1, N=8,
                       config=F.FlowConfig(cadence=100))
    want = math.exp(0.1 * 0.1) * np.eye(2)
    assert np.max(np.abs(st.h - want)) / math.exp(0.01) < 1e-8
    assert abs(st.t - 0.1) < 1e-12


def test_flat_mu_zero_constant():
    st, series = F.run(flat_metric(2), mu=0.0, T=0.01, N=8,
                       config=F.FlowConfig(cadence=100))
    assert np.max(np.abs(st.h - np.eye(2))) < 1e-13
    assert series[-1].einstein_residual < 1e-12


def test_kahler_defect_preserved_separable():
    st, series = F.run(separable_kahler_torus(2, 5), mu=0.0, T=0.005, N=12,
                       config=F.FlowConfig(cadence=5))
    assert max(d.kahler_defect for d in series) < 1e-6
    assert series[-1].min_eig > 0


def test_non_kahler_runs_to_horizon():
    st, series = F.run(random_torus_fourier(2, 1), mu=0.0, T=0.002, N=8,
                       config=F.FlowConfig(cadence=10))
    assert st.t >= 0.002 - 1e-12
    assert series[-1].min_eig > 0
    assert series[0].kahler_defect > 1e-3  # genuinely non-Kahler data


@pytest.mark.parametrize("dt", [0.0, -1e-4, math.nan, math.inf])
def test_non_positive_or_non_finite_dt_rejected(dt):
    with pytest.raises(ValidationError, match="dt"):
        F.FlowConfig(dt=dt)


@pytest.mark.parametrize("cadence", [0, -5, 1.5, "2", None])
def test_cadence_below_one_or_not_an_integer_rejected(cadence):
    with pytest.raises(ValidationError, match="cadence"):
        F.FlowConfig(cadence=cadence)
    assert F.FlowConfig(cadence=np.int64(2)).cadence == 2


@pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf, -1.0, -1e-9])
def test_non_finite_horizon_rejected_before_sampling(monkeypatch, T):
    """A horizon that is not finite, or is negative, is rejected."""
    monkeypatch.setattr(F, "sample_on_grid", None)  # any sampling would fail
    with pytest.raises(ValidationError, match="horizon"):
        F.run(flat_metric(2), mu=0.0, T=T, N=8)


@pytest.mark.parametrize("N", [0, 4, 7])
def test_grid_below_the_stencil_rejected_before_sampling(monkeypatch, N):
    monkeypatch.setattr(F, "sample_on_grid", None)
    with pytest.raises(DomainError, match="N >= 8"):
        F.run(random_torus_fourier(2, 1), mu=0.0, T=0.01, N=N)
    with pytest.raises(DomainError, match="N >= 8"):
        F.run(np.tile(np.eye(2, dtype=complex), (4,) * 4 + (1, 1)), mu=0.0,
              T=0.01)


def test_zero_horizon_is_the_initial_row_alone():
    st, series = F.run(random_torus_fourier(2, 1), mu=0.0, T=0.0, N=8)
    assert st.t == 0.0 and [d.step_count for d in series] == [0]


def test_positivity_halt_with_witness():
    h = np.tile(np.eye(2, dtype=complex), (8,) * 4 + (1, 1)).copy()
    h[3, 1, 2, 0] = np.diag([1.0, -0.5])
    with pytest.raises(F.FlowHalt) as exc:
        F.run(h, mu=0.0, T=0.01)
    assert exc.value.reason == "positivity"
    assert exc.value.site == (3, 1, 2, 0)


def test_hopf_ode_fixed_point_and_extinction():
    for t in (0.0, 0.5, 2.0):
        assert F.hopf_self_similar(2, 1.0, 0.25, t) == pytest.approx(1.0)
    assert F.hopf_self_similar(2, 1.0, 0.0, 1.0) == pytest.approx(0.75)
    assert F.hopf_extinction_time(2, 1.0, 0.0) == pytest.approx(4.0)
    assert F.hopf_extinction_time(2, 1.0, 0.25) is None
    # n = 1: no curvature source term
    assert F.hopf_self_similar(1, 1.0, 0.0, 5.0) == pytest.approx(1.0)
    assert F.hopf_extinction_time(1, 1.0, 0.0) is None
    with pytest.raises(DomainError):
        F.hopf_self_similar(2, -1.0, 0.0, 1.0)


def test_hopf_ode_negative_mu_extinction_consistent():
    n, c0, mu = 3, 1.0, -0.3
    te = F.hopf_extinction_time(n, c0, mu)
    assert te is not None
    assert abs(F.hopf_self_similar(n, c0, mu, te)) < 1e-12


def test_grid_dump_roundtrip():
    st, _ = F.run(flat_metric(2), mu=0.1, T=0.002, N=8,
                  config=F.FlowConfig(cadence=100))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "dump.csv")
        F.write_grid_dump(st, path)
        back = read_grid_dump(path)
    assert np.array_equal(back.h, st.h)
    assert back.t == st.t and back.mu == st.mu


def test_diagnostics_csv_schema():
    st, series = F.run(flat_metric(2), mu=0.0, T=0.001, N=8,
                       config=F.FlowConfig(cadence=100))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "diag.csv")
        F.write_diagnostics_csv(series, path)
        lines = open(path).read().splitlines()
    assert lines[0] == ("t,step_count,kahler_defect,min_eig,max_eig,"
                        "einstein_residual,wall_time")
    assert len(lines) == len(series) + 1
    assert all(isinstance(d, F.FlowDiagnostics) for d in series)


# -- stencil and theta2 against np.roll references --------------------------


def _roll_diff(arr, axis, N):
    """Reference 4th-order central first derivative along a periodic axis."""
    dx = 1.0 / N
    return (-np.roll(arr, -2, axis=axis) + 8 * np.roll(arr, -1, axis=axis)
            - 8 * np.roll(arr, 1, axis=axis) + np.roll(arr, 2, axis=axis)
            ) / (12 * dx)


def _dz_ref(arr, i, N):
    return 0.5 * (_roll_diff(arr, 2 * i, N) - 1j * _roll_diff(arr, 2 * i + 1, N))


def _dzbar_ref(arr, i, N):
    return 0.5 * (_roll_diff(arr, 2 * i, N) + 1j * _roll_diff(arr, 2 * i + 1, N))


@pytest.mark.parametrize("n, Ns", [(1, (3, 4, 5, 8, 12, 16)),  # N < 5 wraps
                                   (2, (5, 8, 12, 16)),
                                   (3, (5, 8))])  # n=3, N=12: 0.4 GB a grid
def test_stencil_product_matches_roll_reference(n, Ns):
    rng = np.random.default_rng(n)
    for N in Ns:
        shape = (N,) * (2 * n) + (n, n)
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        # run's Hermitian symmetrization leaves each site's matrix transposed
        # in memory, so its rows are strided; cover both layouts
        grids = (h, np.swapaxes(np.swapaxes(h, -1, -2).copy(), -1, -2))
        for i in range(n):
            dx, dy = _roll_diff(h, 2 * i, N), _roll_diff(h, 2 * i + 1, N)
            for grid in grids:
                for axis, want in ((2 * i, dx), (2 * i + 1, dy)):
                    got = F._diff(grid, axis, N)
                    assert np.max(np.abs(got - want)) <= 1e-13
                    row = grid[..., n - 1, :]  # a strided row slice
                    assert np.max(np.abs(F._diff(row, axis, N)
                                         - want[..., n - 1, :])) <= 1e-13


@pytest.mark.parametrize("n, Ns", [(1, (5, 8, 16)), (2, (8, 12)), (3, (5,))])
def test_last_axis_gemm_matches_roll_reference(n, Ns):
    """theta2's matrix-leading arrays put a grid axis last; there ``_diff``
    is one GEMM against kron(D^T, I_2) for a complex array and D^T for a
    real one, into ``out`` or a new array."""
    rng = np.random.default_rng(10 + n)
    for N in Ns:
        shape = (n, n) + (N,) * (2 * n)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for arr in (a, a.real.copy()):
            want = _roll_diff(arr, 2 * n + 1, N)
            out = np.empty_like(arr)
            assert F._diff(arr, 2 * n + 1, N, out) is out
            for got in (out, F._diff(arr, 2 * n + 1, N)):
                assert got.dtype == arr.dtype
                assert np.max(np.abs(got - want)) <= 1e-13


def _upper_hermitian(h):
    """The Hermitian grid that each site's upper triangle of h defines."""
    n = h.shape[-1]
    out = np.triu(h, 1)
    out += np.conj(np.swapaxes(out, -1, -2))
    out[..., range(n), range(n)] = h[..., range(n), range(n)].real
    return out


@pytest.mark.parametrize("n, Ns", [(1, (5, 8)), (2, (5, 8)), (3, (5,))])
def test_wirtinger_matches_roll_reference(n, Ns):
    """theta2's d/dz^i h, built from the first differences of h's packed
    real fields, is (D_x - sqrt(-1) D_y) h / 2 of the Hermitian h that each
    site's upper triangle defines, entry by entry; the lower triangle of a
    non-Hermitian h is not read."""
    rng = np.random.default_rng(20 + n)
    for N in Ns:
        shape = (N,) * (2 * n) + (n, n)
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        herm = _upper_hermitian(h)
        wk = F._Work(n, N)
        F._wirtinger(F._pack(h), n, N, wk)
        assert np.array_equal(F._unpack(F._pack(h)), herm)
        for i in range(n):
            want = 0.5 * (_roll_diff(herm, 2 * i, N)
                          - 1j * _roll_diff(herm, 2 * i + 1, N))
            assert np.max(np.abs(wk.dz[i] - _lead(want))) <= 1e-13


def _theta2_loop(h, n, N):
    """Reference: each Wirtinger derivative from its own pair of np.roll
    differences, and the quadratic term as one einsum per (i, j)."""
    up = np.swapaxes(np.linalg.inv(h), -1, -2)
    dzh = [_dz_ref(h, i, N) for i in range(n)]
    dzbh = [_dzbar_ref(h, j, N) for j in range(n)]
    out = np.zeros_like(h)
    for i in range(n):
        for j in range(n):
            uij = up[..., i, j][..., None, None]
            out -= uij * _dzbar_ref(dzh[i], j, N)
            out += uij * np.einsum("...pq,...kq,...pl->...kl",
                                   up, dzh[i], dzbh[j])
    return 0.5 * (out + np.conj(np.swapaxes(out, -1, -2)))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("N", [8, 12])
def test_theta2_matches_loop_reference(n, N):
    for maker in (random_torus_fourier, potential_kahler_torus):
        h = F.sample_on_grid(maker(n, 4), N)
        got = F.theta2_discrete(h, n, N)
        assert np.max(np.abs(got - _theta2_loop(h, n, N))) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
def test_theta2_quadratic_term_matches_einsum_form(n):
    """sum_i X_i W_i, X_i = (dh/dz^i) h^{-1}, as theta2 forms it from
    per-component products, against the three-operand einsum, to 1e-14 of
    the largest entry (the two sum in different orders)."""
    rng = np.random.default_rng(30 + n)
    shape = (n, n) + (4,) * (2 * n)

    def grid():
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    dz, hinv, w = [grid() for _ in range(n)], grid(), [grid() for _ in range(n)]
    x, got = np.empty(shape, complex), np.empty(shape, complex)
    want = np.zeros(shape, complex)
    for i in range(n):
        F._site_matmul(dz[i], hinv, x)
        F._site_matmul(x, w[i], got, add=i > 0)
        want += np.einsum("kq...,qp...,pl...->kl...", dz[i], hinv, w[i])
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# -- RK4 on h's fields -----------------------------------------------------


def _rk4_textbook(h, n, N, mu, dt):
    """One RK4 step on the complex (..., n, n) grid from four
    theta2_discrete calls, symmetrized at the end."""
    def rate(g):
        return mu * g - F.theta2_discrete(g, n, N)
    k1 = rate(h)
    k2 = rate(h + 0.5 * dt * k1)
    k3 = rate(h + 0.5 * dt * k2)
    k4 = rate(h + dt * k3)
    out = h + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return 0.5 * (out + np.conj(np.swapaxes(out, -1, -2)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_packed_step_matches_textbook_rk4(n):
    """A second route for step, which runs RK4 on h's n^2 real fields: the
    textbook step on complex grids, to 1e-14 of max |h|.  Packing and
    unpacking round-trip bit for bit, and the step reads neither h's lower
    triangle nor the imaginary part of its diagonal."""
    N = 8
    rng = np.random.default_rng(50 + n)
    h = _upper_hermitian(F.sample_on_grid(random_torus_fourier(n, 1), N))
    assert np.array_equal(F._unpack(F._pack(h)), h)
    fields = rng.standard_normal((n, n) + (N,) * (2 * n))
    assert np.array_equal(F._pack(F._unpack(fields)), fields)
    junk = rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
    bad = h + np.tril(junk, -1)
    bad[..., range(n), range(n)] += 1j * junk[..., range(n), range(n)].imag
    dt = 5 * F.default_dt(h, N)  # within the stability cap for n <= 3
    for mu in (0.0, 0.5):
        config = F.FlowConfig(dt=dt)
        got = F.step(F.FlowState(n=n, N=N, h=h, t=0.0, mu=mu,
                                 config=config)).h
        want = _rk4_textbook(h, n, N, mu, dt)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(h)), mu
        assert np.max(np.abs(got - h)) > 1e-6  # the step moved h
    garbled = F.step(F.FlowState(n=n, N=N, h=bad, t=0.0, mu=mu,
                                 config=config)).h
    assert np.array_equal(garbled, got)


# -- one theta2 and one spectrum per grid state ----------------------------


def _count_theta2_and_spectrum(monkeypatch):
    calls = {"theta2": 0, "spectrum": 0}
    for name, key in (("_theta2", "theta2"), ("_spectrum", "spectrum")):
        def spy(*args, fn=getattr(F, name), key=key):
            calls[key] += 1
            return fn(*args)
        monkeypatch.setattr(F, name, spy)
    return calls


@pytest.mark.parametrize("cadence", [1, 3])
def test_run_computes_theta2_and_eigs_once_per_state(monkeypatch, cadence):
    calls = _count_theta2_and_spectrum(monkeypatch)
    steps = []
    step = F.step
    monkeypatch.setattr(F, "step", lambda s: steps.append(s) or step(s))
    fld = random_torus_fourier(2, 1)
    dt = F.default_dt(F.sample_on_grid(fld, 8), 8)
    calls["spectrum"] = 0
    st, series = F.run(fld, mu=0.5, T=4.5 * dt, N=8,
                       config=F.FlowConfig(dt=dt, cadence=cadence))
    assert len(steps) == 5 and st.t == pytest.approx(4.5 * dt)
    assert steps[-1].config.dt == pytest.approx(0.5 * dt)  # truncated
    assert len(series) == 1 + 5 // cadence + (5 % cadence != 0)
    assert calls["theta2"] == 4 * len(steps) + 1
    assert calls["spectrum"] == len(steps) + 1


@pytest.mark.parametrize("cadence", [1, 3])
def test_adaptive_run_computes_theta2_four_times_per_attempt(monkeypatch,
                                                             cadence):
    """Error-controlled steps: each attempt, rejected ones included, costs
    its three stage theta2 plus its new state's, which is the estimate's
    f(h1) and the next step's k1; one spectrum per state."""
    calls = _count_theta2_and_spectrum(monkeypatch)
    step, error = F.step, F._step_error

    def error_spy(s):
        err = error(s)
        return 1.0 if len(steps) == 2 else err  # reject the second attempt

    monkeypatch.setattr(F, "_step_error", error_spy)
    steps = []
    monkeypatch.setattr(F, "step", lambda s: steps.append(s) or step(s))
    fld = random_torus_fourier(2, 1)
    dt = F.default_dt(F.sample_on_grid(fld, 8), 8)
    calls["spectrum"] = 0
    st, series = F.run(fld, mu=0.5, T=12 * dt, N=8,
                       config=F.FlowConfig(cadence=cadence))
    accepted = series[-1].step_count
    assert st.t == pytest.approx(12 * dt) and accepted == len(steps) - 1
    assert len(series) == 1 + accepted // cadence + (accepted % cadence != 0)
    assert calls["theta2"] == 4 * len(steps) + 1
    assert calls["spectrum"] == len(steps) + 1
    assert steps[2].t == steps[1].t  # the rejected attempt kept the state
    floor = F.default_dt(steps[1].h, 8)  # the retry is held at the default
    assert steps[2].config.dt == pytest.approx(
        max(0.2 * steps[1].config.dt, floor))


@pytest.mark.parametrize("maker, seed", [(separable_kahler_torus, 0),
                                         (random_torus_fourier, 1)])
@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_adaptive_run_within_tolerance_of_small_step_run(maker, seed, mu):
    """Error-controlled steps end within 1e-5 of a fixed run at a quarter
    of the default dt, in fewer steps than the default dt would take."""
    fld = maker(2, seed)
    h0 = F.sample_on_grid(fld, 8)
    dt = F.default_dt(0.5 * (h0 + np.conj(np.swapaxes(h0, -1, -2))), 8)
    T = 20 * dt
    st, series = F.run(fld, mu=mu, T=T, N=8)
    ref, _ = F.run(fld, mu=mu, T=T, N=8,
                   config=F.FlowConfig(dt=dt / 4, cadence=10**9))
    assert st.t == pytest.approx(T) and ref.t == pytest.approx(T)
    assert np.max(np.abs(st.h - ref.h)) <= 1e-5
    assert series[-1].step_count < 20


def test_steps_never_exceed_the_stability_cap(monkeypatch):
    """With every estimate zero the step grows 4x a step until the
    stencil's RK4 stability cap, (2.96/n) dx^2 lambda_min of the state,
    holds it."""
    tried = []
    step = F.step
    monkeypatch.setattr(F, "_step_error", lambda s: 0.0)
    monkeypatch.setattr(F, "step", lambda s: tried.append(s) or step(s))
    fld = random_torus_fourier(2, 1)
    dt = F.default_dt(F.sample_on_grid(fld, 8), 8)
    st, _ = F.run(fld, mu=0.5, T=60 * dt, N=8)
    assert st.t == pytest.approx(60 * dt)
    ratios = [s.config.dt / (1.48 * s.eigs.min() / 64) for s in tried]
    assert max(ratios) <= 1 + 1e-12
    assert sum(r > 1 - 1e-12 for r in ratios) >= 2  # the cap was reached


def test_halted_attempt_is_retried_with_a_smaller_step(monkeypatch):
    """An attempt that halts is retried at a fifth of its step, never below
    the default dt; a halt at the default dt is raised, so the run ends."""
    fld = random_torus_fourier(2, 1)
    dt = F.default_dt(F.sample_on_grid(fld, 8), 8)
    tried = []
    step = F.step

    def halting(limit):
        def spy(s):
            tried.append(s.config.dt)
            if s.config.dt > limit:
                raise F.FlowHalt("positivity", (0, 0, 0, 0), s.t)
            return step(s)
        return spy

    monkeypatch.setattr(F, "step", halting(1.5 * dt))
    st, series = F.run(fld, mu=0.5, T=8 * dt, N=8)
    assert st.t == pytest.approx(8 * dt)
    assert series[-1].step_count < len(tried)  # some attempts halted
    taken = [d for d in tried if d <= 1.5 * dt]
    assert all(d >= 0.99 * dt for d in taken[:-1])  # the last lands on T
    tried.clear()
    monkeypatch.setattr(F, "step", halting(0.0))
    with pytest.raises(F.FlowHalt, match="positivity"):
        F.run(fld, mu=0.5, T=8 * dt, N=8)
    assert tried == [pytest.approx(dt)]  # the first step is the default dt


def test_flow_state_memo_is_read_only():
    h = F.sample_on_grid(random_torus_fourier(2, 1), 8)
    st = F.FlowState(n=2, N=8, h=h, t=0.0, mu=0.0)
    assert st.theta2 is st.theta2 and st.eigs is st.eigs
    assert np.array_equal(st.theta2, F.theta2_discrete(h, 2, 8))
    with pytest.raises(ValueError):
        st.theta2[0, 0, 0, 0, 0, 0] = 0
    with pytest.raises(ValueError):
        st.eigs[0, 0, 0, 0, 0] = 0


# -- grids that cannot fit fail before allocating --------------------------


def _peak_grid_arrays(n, N, config):
    """tracemalloc peak of a short run, in grid arrays."""
    fld = random_torus_fourier(n, 1)
    tracemalloc.start()
    try:
        F.run(fld, mu=0.5, T=2e-6, N=N, config=config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (N ** (2 * n) * n * n * 16)


@pytest.mark.parametrize("n, N", [(2, 12), (3, 8)])
def test_run_peak_memory_within_guard(n, N):
    """The guard's count of grid arrays alive at once bounds a real run."""
    assert _peak_grid_arrays(n, N, F.FlowConfig(dt=1e-6)) <= 11 + 2 * n


@pytest.mark.parametrize("n, N", [(2, 12), (3, 8)])
def test_adaptive_run_peak_memory_within_guard(n, N):
    """The same bound holds for error-controlled steps, whose estimate keeps
    the old state and the attempt alive while the attempt's theta2 runs."""
    assert _peak_grid_arrays(n, N, F.FlowConfig()) <= 11 + 2 * n


def test_grid_too_large_for_memory_fails_fast():
    fld = random_torus_fourier(3, 0)
    tracemalloc.start()
    try:
        for call in (lambda: F.sample_on_grid(fld, 64),
                     lambda: F.run(fld, mu=0.0, T=0.01, N=64)):
            with pytest.raises(DomainError, match="GiB"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# -- lattice sampling of Fourier fields ------------------------------------


def _ingested(n, seed):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "metric.txt")
        M.write_torus_metric(random_torus_fourier(n, seed), path)
        return M.ingest_torus_metric(path)


@pytest.mark.parametrize("n, Ns", [(1, (5, 8, 64)), (2, (8, 12)), (3, (5,))])
def test_lattice_sampling_matches_evaluate(monkeypatch, n, Ns):
    """A Fourier field is sampled from its per-axis phases, not through
    ``evaluate``; the values are evaluate's at grid_points, to 1e-14 of the
    largest entry."""
    fields = [random_torus_fourier(n, 2), potential_kahler_torus(n, 2),
              separable_kahler_torus(n, 2), _ingested(n, 3)]
    for N in Ns:
        want = [M.evaluate(f, F.grid_points(n, N)) for f in fields]
        with monkeypatch.context() as m:
            m.setattr(F, "evaluate", None)
            got = [F.sample_on_grid(f, N) for f in fields]
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.flags.c_contiguous
            assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))


def test_other_fields_are_sampled_through_evaluate(monkeypatch):
    calls = []
    evaluate = F.evaluate
    monkeypatch.setattr(F, "evaluate",
                        lambda fld, z: calls.append(fld.kind) or evaluate(fld, z))
    h = F.sample_on_grid(flat_metric(2), 8)
    assert calls == ["Flat"]
    assert np.array_equal(h, np.broadcast_to(np.eye(2), h.shape))


@pytest.mark.parametrize("make", [lambda: normal_form_random(1, 0),
                                  lambda: hopf_metric(2)])
def test_run_refuses_a_field_that_is_not_periodic(make):
    with pytest.raises(DomainError, match="periodic"):
        F.run(make(), mu=0.0, T=0.001, N=8)


@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
def test_run_refuses_a_mu_that_is_not_finite(mu):
    with pytest.raises(ValidationError, match="mu"):
        F.run(random_torus_fourier(2, 1), mu=mu, T=0.001, N=8)


def test_fourier_run_neither_evaluates_nor_rediffers(monkeypatch):
    """A Fourier-field run samples without ``evaluate``, and its diagnostics
    read the Kahler defect off theta2 instead of calling ``kahler_defect``."""
    def forbidden(*args):
        raise AssertionError("not called on this path")

    for module in (F, M):
        monkeypatch.setattr(module, "evaluate", forbidden)
    monkeypatch.setattr(F, "kahler_defect", forbidden)
    st, series = F.run(random_torus_fourier(2, 1), mu=0.5, T=2e-4, N=8)
    assert st.t == pytest.approx(2e-4) and series[0].kahler_defect > 1e-3


# -- Kahler defect read off theta2's first differences ---------------------


def _defect_rows(monkeypatch, fld, T, N, config, reject=False):
    """Run and return [(row's defect, kahler_defect of the row's h)]; with
    ``reject`` the second attempt's estimate is forced to fail."""
    rows, attempts = [], []
    diagnostics, error, step = F.diagnostics, F._step_error, F.step

    def diagnostics_spy(state, count, wall):
        row = diagnostics(state, count, wall)
        rows.append((row.kahler_defect,
                     F.kahler_defect(state.h, state.n, state.N)))
        return row

    def error_spy(s):
        err = error(s)
        return 1.0 if reject and len(attempts) == 2 else err

    monkeypatch.setattr(F, "diagnostics", diagnostics_spy)
    monkeypatch.setattr(F, "_step_error", error_spy)
    monkeypatch.setattr(F, "step", lambda s: attempts.append(s) or step(s))
    F.run(fld, mu=0.5, T=T, N=N, config=config)
    if reject:
        assert attempts[2].t == attempts[1].t  # the second was rejected
    return rows


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["fixed", "adaptive-rejected", "cadence-3"])
def test_run_defect_equals_kahler_defect_of_each_row(monkeypatch, n, kind):
    """Every diagnostics row's Kahler defect is kahler_defect of the row's
    state, exactly: both take the same first differences of the same h."""
    N = 8
    for fld in (random_torus_fourier(n, 1), potential_kahler_torus(n, 1)):
        dt = F.default_dt(F.sample_on_grid(fld, N), N)
        config = {"fixed": F.FlowConfig(dt=dt),
                  "adaptive-rejected": F.FlowConfig(),
                  "cadence-3": F.FlowConfig(dt=dt, cadence=3)}[kind]
        rows = _defect_rows(monkeypatch, fld, 7.5 * dt, N, config,
                            reject=kind == "adaptive-rejected")
        assert len(rows) >= 3
        assert all(got == want for got, want in rows), rows
        if n == 1:
            assert all(got == 0.0 for got, _ in rows)


def test_run_defect_equals_kahler_defect_at_n3(monkeypatch):
    """n = 3 (three index pairs), one fixed step: ~1.5 s a theta2 at N = 8."""
    fld = random_torus_fourier(3, 1)
    rows = _defect_rows(monkeypatch, fld, 1e-5, 8, F.FlowConfig(dt=1e-5))
    assert len(rows) == 2 and rows[0][0] > 1e-3
    assert all(got == want for got, want in rows), rows


def test_defect_memo_is_taken_with_theta2_and_carried():
    h = F.sample_on_grid(random_torus_fourier(2, 1), 8)
    st = F.FlowState(n=2, N=8, h=h, t=0.0, mu=0.0)
    assert "kahler_defect" not in vars(st)
    st.theta2
    assert vars(st)["kahler_defect"] == F.kahler_defect(h, 2, 8) > 1e-3
    fresh = F.FlowState(n=2, N=8, h=h, t=0.0, mu=0.0)
    assert fresh.kahler_defect == st.kahler_defect \
        and "_theta2_fields" in vars(fresh)
    moved = F._reconfigured(st, config=F.FlowConfig(dt=1e-4))
    assert moved.theta2 is st.theta2
    assert vars(moved)["kahler_defect"] == st.kahler_defect


# -- Kahler defect against the full-array formula --------------------------


def _kahler_defect_full(h, n, N):
    """Reference: every row of the Hermitian h that each site's upper
    triangle defines, differentiated along every z^i."""
    h = _upper_hermitian(h)
    dzh = [0.5 * (F._diff(h, 2 * i, N) - 1j * F._diff(h, 2 * i + 1, N))
           for i in range(n)]
    worst = 0.0
    for i in range(n):
        for k in range(i + 1, n):
            worst = max(worst, float(np.max(np.abs(
                dzh[i][..., k, :] - dzh[k][..., i, :]))))
    return worst


@pytest.mark.parametrize("n, N", [(2, 8), (2, 12), (3, 5)])
def test_kahler_defect_matches_full_array_formula(n, N):
    rng = np.random.default_rng(n * N)
    shape = (N,) * (2 * n) + (n, n)
    grids = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)]
    if n == 2:
        grids.append(F.sample_on_grid(random_torus_fourier(n, 1), N))
    for h in grids:
        got = F.kahler_defect(h, n, N)
        assert got > 0 and got == _kahler_defect_full(h, n, N)


# -- whole-grid Gauss-Jordan inverse ----------------------------------------


def _lead(a):
    return np.moveaxis(a, (-2, -1), (0, 1))


@pytest.mark.parametrize("n, N", [(1, 16), (2, 8), (3, 4)])
def test_grid_inverse_matches_lapack(n, N):
    rng = np.random.default_rng(90 + n)
    shape = (N,) * (2 * n) + (n, n)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    h = m @ np.conj(np.swapaxes(m, -1, -2)) / n + np.eye(n)
    want = np.linalg.inv(h)
    f = F._pack(h)
    f0 = f.copy()
    got = np.moveaxis(F._inv(f), (0, 1), (-2, -1))
    assert np.max(np.abs(got - want)) <= 1e-14
    assert np.array_equal(f, f0)  # the input is not eliminated in place


@pytest.mark.parametrize("bad", [np.zeros((2, 2)), np.ones((2, 2)),
                                 np.full((2, 2), np.nan)],
                         ids=["zero", "rank-one", "nan"])
def test_grid_inverse_singular_site_raises(bad):
    h = np.tile(np.eye(2, dtype=complex), (8,) * 4 + (1, 1))
    h[1, 2, 3, 4] = bad
    with pytest.raises(DomainError, match=r"singular metric.*\(1, 2, 3, 4\)"):
        F._inv(F._pack(h))


# -- n = 2 closed forms: spectrum and inverse -------------------------------


def _hpd_sites(shape, eigs, rng):
    """Hermitian sites U diag(eigs) U^H with random unitary U, per site."""
    th = rng.uniform(0, 2 * np.pi, shape)
    ph = rng.uniform(0, 2 * np.pi, shape)
    c, s = np.cos(th), np.sin(th) * np.exp(1j * ph)
    u = np.stack([np.stack([c, -s], -1), np.stack([np.conj(s), c], -1)], -2)
    h = u @ (eigs[..., :, None] * np.conj(np.swapaxes(u, -1, -2)))
    return 0.5 * (h + np.conj(np.swapaxes(h, -1, -2)))


def _closed_form_grids():
    """(name, grid) pairs of n = 2 grids, 8^4 sites each."""
    rng = np.random.default_rng(2)
    shape = (8,) * 4
    m = rng.standard_normal(shape + (2, 2)) \
        + 1j * rng.standard_normal(shape + (2, 2))
    yield "random", m @ np.conj(np.swapaxes(m, -1, -2)) / 2 + np.eye(2)
    for maker in (separable_kahler_torus, potential_kahler_torus,
                  random_torus_fourier):
        yield maker.__name__, F.sample_on_grid(maker(2, 3), 8)
    st, _ = F.run(random_torus_fourier(2, 3), mu=0.5, T=2e-4, N=8,
                  config=F.FlowConfig(dt=1e-4))
    yield "flowed", st.h
    # a ~ d and |b| ~ 0, down to exactly equal and exactly zero
    eps = 10.0 ** rng.integers(-16, -6, shape + (3,))
    eps *= rng.standard_normal(shape + (3,))
    eps[0] = 0.0
    near = np.zeros(shape + (2, 2), complex)
    near[..., 0, 0] = 1.0 + eps[..., 0]
    near[..., 1, 1] = 1.0 + eps[..., 1]
    near[..., 1, 0] = eps[..., 2] * np.exp(1j * rng.uniform(0, 6, shape))
    near[..., 0, 1] = np.conj(near[..., 1, 0])
    yield "near-degenerate", near
    lam = rng.uniform(0.5, 2.0, shape)
    yield "cond-1e8", _hpd_sites(shape, np.stack([lam, 1e-8 * lam], -1), rng)


def test_closed_form_spectrum_matches_eigvalsh():
    for name, h in _closed_form_grids():
        want = np.linalg.eigvalsh(h)
        got = F._spectrum(h)
        assert got.shape == want.shape
        scale = np.max(np.abs(want), axis=-1, keepdims=True)
        assert np.max(np.abs(got - want) / scale) <= 1e-13, name


def _exact_inverse(h):
    """The inverse of each stored 2 x 2 site in rational arithmetic, rounded
    once at the end."""
    from fractions import Fraction as Q
    flat = h.reshape(-1, 2, 2)
    out = np.empty_like(flat)
    for s, m in enumerate(flat):
        (a, b), (c, d) = [[(Q(z.real), Q(z.imag)) for z in row] for row in m]
        det = (a[0] * d[0] - a[1] * d[1] - b[0] * c[0] + b[1] * c[1],
               a[0] * d[1] + a[1] * d[0] - b[0] * c[1] - b[1] * c[0])
        den = det[0] ** 2 + det[1] ** 2
        for (i, j), (re, im), sign in (((0, 0), d, 1), ((0, 1), b, -1),
                                       ((1, 0), c, -1), ((1, 1), a, 1)):
            out[s, i, j] = complex(
                float(sign * (re * det[0] + im * det[1]) / den),
                float(sign * (im * det[0] - re * det[1]) / den))
    return out.reshape(h.shape)


def test_closed_form_inverse_matches_lapack():
    eps = np.finfo(float).eps
    for name, h in _closed_form_grids():
        f = F._pack(h)
        f0 = f.copy()
        got = np.moveaxis(F._inv(f), (0, 1), (-2, -1))
        assert np.array_equal(f, f0)
        if name == "cond-1e8":
            # Any inverse is only good to about eps * cond here: np.linalg.inv
            # itself lands ~1e-8 (relative) from the exact inverse.  The
            # adjugate's one rounding error is in det, |d det| / det <~
            # 2 eps cond, so hold it to the exact inverse within 8 eps cond.
            want, cond = _exact_inverse(h[:2, :2]), 1e8
            got, bound = got[:2, :2], 8 * eps * cond
        else:
            want, bound = np.linalg.inv(h), 1e-13
        scale = np.max(np.abs(want), axis=(-2, -1), keepdims=True)
        assert np.max(np.abs(got - want) / scale) <= bound, name


# -- a run's grid buffers ---------------------------------------------------


def test_run_buffers_stay_private_to_the_run(monkeypatch):
    """What a run hands out never aliases its buffers, runs nested in the
    middle of a step share none with it, and none outlives its run."""
    fields = {8: random_torus_fourier(2, 1), 12: random_torus_fourier(2, 2)}

    def flow(N):
        return F.run(fields[N], mu=0.5, T=2.5e-4, N=N,
                     config=F.FlowConfig(dt=1e-4))

    def same(a, b):
        (st, series), (st0, series0) = a, b
        assert st.h.tobytes() == st0.h.tobytes()
        assert st.theta2.tobytes() == st0.theta2.tobytes()
        assert st.eigs.tobytes() == st0.eigs.tobytes()
        assert [replace(d, wall_time=0) for d in series] \
            == [replace(d, wall_time=0) for d in series0]

    for N in (8, 12):
        for axis in (0, 1):  # its cached stencils stay for the process
            F._diff(np.zeros((N, N)), axis, N)
        tracemalloc.start()
        try:
            st, series = flow(N)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert {"_theta2_fields", "eigs"} <= set(vars(st))
        final = st.h.nbytes + st.theta2.nbytes + st.eigs.nbytes
        assert kept <= final + (64 << 10), N  # one buffer is 256 KiB or more
    alone = {N: flow(N) for N in (8, 12)}

    handed = []  # (array, bytes when handed out)
    nested = {}
    theta2, step = F._theta2, F.step

    def theta2_spy(*args):
        out = theta2(*args)
        handed.append((out, out.tobytes()))
        if nested == {"stepping": True}:  # mid-step: the outer k1 is live
            nested["stepping"] = False
            nested.update((N, flow(N)) for N in (12, 8))
        return out

    def step_spy(s):
        handed.extend((a, a.tobytes()) for a in (s.h, s.theta2, s.eigs))
        nested.setdefault("stepping", True)
        return step(s)

    monkeypatch.setattr(F, "_theta2", theta2_spy)
    monkeypatch.setattr(F, "step", step_spy)
    outer = flow(8)
    same(outer, alone[8])
    for N in (12, 8):
        same(nested[N], alone[N])
    assert len(handed) > 40
    for a, seen in handed:
        assert a.tobytes() == seen
