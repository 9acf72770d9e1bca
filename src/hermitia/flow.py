"""Parabolic flow of Hermitian metrics on discretized complex tori.

The evolution is dh/dt = -theta2 + mu*h, where theta2 is the trace of the
Chern curvature over the metric indices, realized here by 4th-order periodic
central differences on an N^(2n) lattice over [0,1)^(2n).  Real axes are
ordered (x_1, y_1, ..., x_n, y_n) with z^i = x_i + sqrt(-1)*y_i.

The round metric on the annulus family is never flowed on a grid; its flow
reduces exactly to a scalar ODE (``hopf_self_similar``).
"""

from __future__ import annotations

import csv
import functools
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, StructuralError, ValidationError
from .metric import MetricField, _read_only, evaluate

__all__ = [
    "FlowConfig",
    "FlowState",
    "FlowDiagnostics",
    "FlowHalt",
    "grid_points",
    "sample_on_grid",
    "theta2_discrete",
    "kahler_defect",
    "diagnostics",
    "step",
    "run",
    "hopf_self_similar",
    "hopf_extinction_time",
    "write_grid_dump",
    "read_grid_dump",
    "write_diagnostics_csv",
]


class FlowHalt(Exception):
    """Raised when an integration step violates a state invariant.

    Carries ``reason`` ("positivity" or "nan") and a ``site`` witness
    (lattice multi-index) where the violation occurred.
    """

    def __init__(self, reason: str, site, t: float, detail: str = ""):
        self.reason = reason
        self.site = tuple(int(s) for s in site)
        self.t = float(t)
        super().__init__(
            f"flow halted ({reason}) at t={t:.6g}, site {self.site}"
            + (f": {detail}" if detail else ""))


@dataclass(frozen=True)
class FlowConfig:
    dt: float | None = None  # None: 0.1 * dx^2 * min eigenvalue of h
    cadence: int = 1         # diagnostics every `cadence` steps

    def __post_init__(self):
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ValidationError(f"dt must be finite and > 0, got {self.dt}")


@dataclass(frozen=True)
class FlowState:
    """One grid state.  ``theta2`` and ``eigs`` are computed on first use
    and kept, read-only, for the life of the state, so ``h`` must not be
    mutated after construction."""

    n: int
    N: int
    h: np.ndarray  # shape (N,)*2n + (n, n), complex, per-site Hermitian
    t: float
    mu: float
    config: FlowConfig = field(default_factory=FlowConfig)

    def __post_init__(self):
        expected = (self.N,) * (2 * self.n) + (self.n, self.n)
        if self.h.shape != expected:
            raise StructuralError(
                f"grid array must have shape {expected}, got {self.h.shape}")

    @functools.cached_property
    def theta2(self) -> np.ndarray:
        """theta2_discrete(h), per site."""
        return _read_only(theta2_discrete(self.h, self.n, self.N))

    @functools.cached_property
    def eigs(self) -> np.ndarray:
        """Per-site eigenvalues of h, ascending: shape (N,)*2n + (n,)."""
        return _read_only(np.linalg.eigvalsh(self.h))


def _reconfigured(state: FlowState, config: FlowConfig) -> FlowState:
    """``state`` under another config; h is the same array, so whatever
    the state has already computed carries over."""
    out = replace(state, config=config)
    for name in ("theta2", "eigs"):
        if name in vars(state):
            vars(out)[name] = vars(state)[name]
    return out


@dataclass(frozen=True)
class FlowDiagnostics:
    t: float
    step_count: int
    kahler_defect: float
    min_eig: float
    max_eig: float
    einstein_residual: float
    wall_time: float


def grid_points(n: int, N: int) -> np.ndarray:
    """Complex coordinates of every site, shape (N,)*2n + (n,)."""
    axes = np.meshgrid(*[np.arange(N) / N for _ in range(2 * n)],
                       indexing="ij")
    z = np.empty((N,) * (2 * n) + (n,), dtype=complex)
    for i in range(n):
        z[..., i] = axes[2 * i] + 1j * axes[2 * i + 1]
    return z


def sample_on_grid(fld: MetricField, N: int) -> np.ndarray:
    """Per-site metric values of a torus metric field."""
    _check_fits(fld.n, N)
    return evaluate(fld, grid_points(fld.n, N))


@functools.cache
def _stencil(N: int) -> np.ndarray:
    """Real N x N circulant matrix D with D @ f the 4th-order central first
    derivative of N periodic samples f of [0,1)."""
    d = np.zeros((N, N))
    r = np.arange(N)
    for shift, c in ((1, 8.0), (2, -1.0), (-1, -8.0), (-2, 1.0)):
        d[r, (r + shift) % N] += c * N / 12.0
    return _read_only(d)


def _diff(arr: np.ndarray, axis: int, N: int) -> np.ndarray:
    """First derivative along a periodic grid axis, as one product of the
    stencil with arr seen as float64 (the stencil is real, so it acts on the
    real and imaginary parts alike); no copy when arr is C-contiguous."""
    x = np.ascontiguousarray(arr, dtype=complex).view(np.float64)
    x = x.reshape(math.prod(arr.shape[:axis]), N, -1)
    return (_stencil(N) @ x).view(complex).reshape(arr.shape)


def _wirtinger(arr: np.ndarray, axis: int, N: int):
    """(d/dz, d/dzbar) for z = x + sqrt(-1)*y, x along ``axis``, y the next."""
    dx, dy = _diff(arr, axis, N), _diff(arr, axis + 1, N)
    dx *= 0.5
    dy *= 0.5j
    return dx - dy, dx + dy


def _inv(h: np.ndarray) -> np.ndarray:
    """Per-site inverse of an (n, n, ...) array by Gauss-Jordan elimination
    without pivoting, each step one whole-grid array operation (np.linalg.inv
    loops over the sites one tiny matrix at a time).  The sites are Hermitian
    positive definite, so every pivot is a positive Schur complement."""
    n = h.shape[0]
    a = h.copy()  # eliminated in place; h is left as it is
    out = np.zeros_like(a)
    out[range(n), range(n)] = 1.0
    for k in range(n):
        piv = a[k, k].copy()
        bad = (piv == 0) | ~np.isfinite(piv)
        if bad.any():
            site = tuple(int(x) for x in np.argwhere(bad)[0])
            raise DomainError("singular metric on the grid: zero or "
                              f"non-finite pivot {k} at site {site}")
        a[k] /= piv
        out[k] /= piv
        for i in range(n):
            if i != k:
                f = a[i, k].copy()
                a[i] -= f * a[k]
                out[i] -= f * out[k]
    return out


def theta2_discrete(h: np.ndarray, n: int, N: int) -> np.ndarray:
    """Second metric-trace of the canonical curvature, per site.

    theta2_{k lbar} = -h^{i jbar} d^2 h_{k lbar}/dz^i dzbar^j
    + h^{i jbar} h^{p qbar} (dh_{k qbar}/dz^i)(dh_{p lbar}/dzbar^j),
    with 4th-order periodic central differences; Hermitian-symmetrized.
    The quadratic term is sum_i X_i W_i with X_i = (dh/dz^i) h^{-1} and
    W_i = sum_j h^{i jbar} dh/dzbar^j.  The work runs on a contiguous copy
    of h with the matrix axes first, (n, n, N, ...), so every per-site product
    is an operation on whole-grid component arrays (numpy's matmul would loop
    over the sites one tiny matrix at a time); the result is moved back last.
    """
    if N < 8:
        raise DomainError("theta2 stencil needs N >= 8")
    hl = np.array(np.moveaxis(h, (-2, -1), (0, 1)), complex, order="C")
    hinv = _inv(hl)
    up = hinv.swapaxes(0, 1)  # up[i, j] = h^{i jbar}, per site
    dzh, dzbh = zip(*[_wirtinger(hl, 2 + 2 * i, N) for i in range(n)])
    dzh = list(dzh)
    del hl
    out = np.zeros_like(hinv)
    for i in range(n):
        w = up[i, 0] * dzbh[0]
        for j in range(1, n):
            w += up[i, j] * dzbh[j]
        out += np.einsum("kq...,qp...,pl...->kl...", dzh[i], hinv, w)
        del w
    del dzbh  # free each grid temporary once used: this sets peak memory
    for i in range(n):  # d/dzbar^j = (d/dx_j + sqrt(-1) d/dy_j) / 2
        for a in range(2 * n):  # real axis a, of z^(a // 2)
            d = _diff(dzh[i], 2 + a, N)
            d *= (0.5, 0.5j)[a % 2] * up[i, a // 2]
            out -= d
        dzh[i] = None
    out = 0.5 * (out + np.conj(out.swapaxes(0, 1)))
    return np.ascontiguousarray(np.moveaxis(out, (0, 1), (-2, -1)))


def kahler_defect(h: np.ndarray, n: int, N: int) -> float:
    """max |dh_{k jbar}/dz^i - dh_{i jbar}/dz^k| over sites and indices.

    Only the compared rows are differentiated: row k along z^i, row i
    along z^k."""
    worst = 0.0
    for i in range(n):
        for k in range(i + 1, n):
            worst = max(worst, float(np.max(np.abs(
                _wirtinger(h[..., k, :], 2 * i, N)[0]
                - _wirtinger(h[..., i, :], 2 * k, N)[0]))))
    return worst


def diagnostics(state: FlowState, step_count: int,
                wall_time: float) -> FlowDiagnostics:
    return FlowDiagnostics(
        t=state.t,
        step_count=step_count,
        kahler_defect=kahler_defect(state.h, state.n, state.N),
        min_eig=float(state.eigs.min()),
        max_eig=float(state.eigs.max()),
        einstein_residual=float(
            np.max(np.abs(state.theta2 - state.mu * state.h))),
        wall_time=wall_time,
    )


def default_dt(h: np.ndarray, N: int) -> float:
    return _dt_from_eigs(np.linalg.eigvalsh(h), N)


def _dt_from_eigs(eigs: np.ndarray, N: int) -> float:
    dx = 1.0 / N
    min_eig = float(eigs.min())
    if min_eig <= 0:
        raise DomainError("initial grid metric is not positive definite")
    return 0.1 * dx * dx * min_eig


def _check_fits(n: int, N: int):
    """Raise DomainError, before anything is allocated, when a flow on an
    N^(2n) grid would need more than the machine's physical memory."""
    # Peak grid arrays (N^(2n) n x n complex) alive at once during ``run``,
    # counted with tracemalloc as peak traced bytes over one array's bytes:
    # 13.0 at n=1 (N=256), 14.3 at n=2 (N=12), 16.2 at n=3 (N=8), checked
    # by a test.  The theta2 first differences add two per complex dimension.
    arrays = 13 + 2 * n
    need = N ** (2 * n) * n * n * 16 * arrays
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise DomainError(
            f"an N={N} grid at n={n} needs about {need / 2**30:.3g} GiB "
            f"({arrays} arrays of {N}^{2 * n} sites x {n}x{n} complex), "
            f"more than the {have / 2**30:.3g} GiB of physical memory")


def _check_state(state: FlowState):
    h = state.h
    if not np.all(np.isfinite(h)):
        bad = np.argwhere(~np.isfinite(h))[0][:-2]
        raise FlowHalt("nan", bad, state.t)
    min_per_site = state.eigs[..., 0]
    if np.min(min_per_site) <= 0:
        site = np.unravel_index(np.argmin(min_per_site), min_per_site.shape)
        raise FlowHalt("positivity", site, state.t,
                       f"min eigenvalue {np.min(min_per_site):.3e}")


def step(state: FlowState) -> FlowState:
    """One Runge-Kutta 4 step of dh/dt = -theta2 + mu*h."""
    n, N, mu = state.n, state.N, state.mu
    dt = state.config.dt if state.config.dt is not None \
        else _dt_from_eigs(state.eigs, N)

    def rhs(h):
        return -theta2_discrete(h, n, N) + mu * h

    h = state.h
    acc = mu * h - state.theta2                 # k1
    k = rhs(h + 0.5 * dt * acc)                 # k2
    acc += 2 * k
    k = rhs(h + 0.5 * dt * k)                   # k3
    acc += 2 * k
    acc += rhs(h + dt * k)                      # k4
    del k
    hn = h + dt / 6.0 * acc
    del acc
    hn = 0.5 * (hn + np.conj(np.swapaxes(hn, -1, -2)))
    out = replace(state, h=hn, t=state.t + dt)
    _check_state(out)
    return out


def run(initial, mu: float, T: float, config: FlowConfig = FlowConfig(),
        N: int = 12):
    """Integrate from t=0 to the horizon T.

    ``initial`` is a torus MetricField or a pre-sampled grid array.  Returns
    (final_state, [FlowDiagnostics...]); reaching the horizon is success.
    A FlowHalt from ``step`` propagates to the caller.
    """
    if not math.isfinite(T):
        raise ValidationError(f"horizon T must be finite, got {T}")
    if isinstance(initial, MetricField):
        n = initial.n
        h0 = sample_on_grid(initial, N)
    else:
        h0 = np.asarray(initial, dtype=complex)
        n = h0.shape[-1]
        N = h0.shape[0]
        _check_fits(n, N)
    h0 = 0.5 * (h0 + np.conj(np.swapaxes(h0, -1, -2)))
    state = FlowState(n=n, N=N, h=h0, t=0.0, mu=mu, config=config)
    _check_state(state)
    dt = config.dt if config.dt is not None else _dt_from_eigs(state.eigs, N)
    config = replace(config, dt=dt)
    state = _reconfigured(state, config)
    start = time.monotonic()
    series = [diagnostics(state, 0, 0.0)]
    count = 0
    while state.t < T - 1e-12:
        if state.t + dt > T:
            state = _reconfigured(state, replace(config, dt=T - state.t))
        state = step(state)
        count += 1
        if count % max(1, config.cadence) == 0 or state.t >= T - 1e-12:
            series.append(diagnostics(state, count,
                                      time.monotonic() - start))
    return state, series


# -- exact scale-factor reduction on the round annulus family ---------------


def hopf_self_similar(n: int, c0: float, mu: float, t: float) -> float:
    """Scale factor c(t) of the self-similar solution h = c * (4/|z|^2) I.

    Solves dc/dt = mu*c - (n-1)/4 exactly.  May return c <= 0; see
    ``hopf_extinction_time``.
    """
    if c0 <= 0:
        raise DomainError("initial scale factor must be positive")
    k = (n - 1) / 4.0
    if mu == 0:
        return c0 - k * t
    return (c0 - k / mu) * np.exp(mu * t) + k / mu


def hopf_extinction_time(n: int, c0: float, mu: float) -> float | None:
    """First time the scale factor reaches zero, or None if it never does."""
    if c0 <= 0:
        raise DomainError("initial scale factor must be positive")
    k = (n - 1) / 4.0
    if k == 0:
        return None  # n = 1: c is constant (mu = 0) or grows/decays to 0 only if mu<0
    if mu == 0:
        return c0 / k
    if mu > 0 and c0 >= k / mu:
        return None
    ratio = (k / mu) / (k / mu - c0)
    if ratio <= 0:
        return None
    return float(np.log(ratio) / mu)


# -- serialization ----------------------------------------------------------


def write_grid_dump(state: FlowState, path):
    """CSV per-site matrices with a text header (dims, N, t, mu)."""
    with open(path, "w", newline="") as f:
        f.write(f"# dims={state.n} N={state.N} t={state.t!r} mu={state.mu!r}\n")
        w = csv.writer(f)
        w.writerow(["site_index", "i", "j", "re", "im"])
        flat = state.h.reshape(-1, state.n, state.n)
        for s in range(flat.shape[0]):
            for i in range(state.n):
                for j in range(state.n):
                    v = flat[s, i, j]
                    w.writerow([s, i, j, repr(float(v.real)),
                                repr(float(v.imag))])


def read_grid_dump(path) -> FlowState:
    with open(path) as f:
        header = f.readline()
        if not header.startswith("#"):
            raise StructuralError("grid dump must start with a '#' header")
        meta = dict(tok.split("=", 1) for tok in header[1:].split())
        n, N = int(meta["dims"]), int(meta["N"])
        t, mu = float(meta["t"]), float(meta["mu"])
        rows = list(csv.reader(f))
    flat = np.zeros((N ** (2 * n), n, n), dtype=complex)
    for row in rows[1:]:
        s, i, j = int(row[0]), int(row[1]), int(row[2])
        flat[s, i, j] = float(row[3]) + 1j * float(row[4])
    h = flat.reshape((N,) * (2 * n) + (n, n))
    return FlowState(n=n, N=N, h=h, t=t, mu=mu)


def write_diagnostics_csv(series, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "step_count", "kahler_defect", "min_eig",
                    "max_eig", "einstein_residual", "wall_time"])
        for d in series:
            w.writerow([repr(float(d.t)), d.step_count,
                        repr(float(d.kahler_defect)), repr(float(d.min_eig)),
                        repr(float(d.max_eig)),
                        repr(float(d.einstein_residual)),
                        repr(float(d.wall_time))])
