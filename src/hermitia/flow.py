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
import itertools
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
    dt: float | None = None  # None: error-controlled steps (see ``run``)
    cadence: int = 1         # diagnostics every `cadence` accepted steps

    def __post_init__(self):
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ValidationError(f"dt must be finite and > 0, got {self.dt}")
        if not (isinstance(self.cadence, (int, np.integer))
                and self.cadence >= 1):
            raise ValidationError(
                f"cadence must be an integer >= 1, got {self.cadence!r}")


@dataclass(frozen=True)
class FlowState:
    """One grid state.  ``theta2`` (with ``kahler_defect``) and ``eigs`` are
    computed on first use and kept, read-only, for the life of the state, so
    ``h`` must not be mutated after construction.  The flow works on the
    fields (``_pack``) of h and theta2, ``_fields`` and ``_theta2_fields``."""

    n: int
    N: int
    h: np.ndarray  # shape (N,)*2n + (n, n), complex, per-site Hermitian
    t: float
    mu: float
    config: FlowConfig = field(default_factory=FlowConfig)
    # the grid buffers of the run that made this state (None outside a run)
    _work: _Work | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        expected = (self.N,) * (2 * self.n) + (self.n, self.n)
        if self.h.shape != expected:
            raise StructuralError(
                f"grid array must have shape {expected}, got {self.h.shape}")

    @functools.cached_property
    def _fields(self) -> np.ndarray:
        """h's fields; ``step`` hands its new state the fields it made."""
        return _read_only(_pack(self.h))

    @functools.cached_property
    def _theta2_fields(self) -> np.ndarray:
        """theta2's fields; records ``kahler_defect`` from the first
        differences of h that theta2 leaves in its buffers."""
        wk = _Work(self.n, self.N) if self._work is None else self._work
        theta2 = _read_only(_theta2(self._fields, self.n, self.N, wk))
        vars(self)["kahler_defect"] = _defect_from_work(wk, self.n)
        return theta2

    @functools.cached_property
    def theta2(self) -> np.ndarray:
        """theta2_discrete(h), per site, unpacked from ``_theta2_fields``."""
        return _read_only(_unpack(self._theta2_fields))

    @functools.cached_property
    def kahler_defect(self) -> float:
        """kahler_defect(h, n, N), recorded with ``_theta2_fields``."""
        self._theta2_fields
        return vars(self)["kahler_defect"]

    @functools.cached_property
    def eigs(self) -> np.ndarray:
        """Per-site eigenvalues of h, ascending: shape (N,)*2n + (n,)."""
        return _read_only(_spectrum(self.h))


def _reconfigured(state: FlowState, **changes) -> FlowState:
    """``state`` with its config or buffers replaced; h is the same array,
    so whatever the state has already computed carries over."""
    out = replace(state, **changes)
    for name, memo in vars(state).items():  # out keeps its own attributes
        vars(out).setdefault(name, memo)
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
    """Per-site metric values of a periodic metric field: Fourier fields
    from their per-axis phases (``_sample_fourier``), the flat metric through
    ``evaluate`` at ``grid_points``.  Any other kind is not periodic on
    [0,1)^{2n}, so its grid would wrap across a jump: DomainError."""
    if fld.kind not in ("TorusFourier", "Flat"):
        raise DomainError(f"the grid flow needs a periodic metric "
                          f"(TorusFourier or Flat), got {fld.kind}")
    _check_fits(fld.n, N)
    if fld.kind == "TorusFourier":
        return _sample_fourier(fld, N)
    return evaluate(fld, grid_points(fld.n, N))


def _sample_fourier(fld: MetricField, N: int) -> np.ndarray:
    """h = sum_m A^m exp(2 pi i m.x) on the lattice, in ``evaluate``'s
    convention m = (m_x1, ..., m_xn, m_y1, ..., m_yn).

    The phase of a mode factors over the grid axes (x_1, y_1, ..., x_n, y_n)
    into length-N vectors exp(2 pi i f k / N), f = m[j] on axis 2j and
    m[n + j] on axis 2j + 1.  U_m is their outer product over the first n
    axes and V_m over the last n, each flattened to N^n entries, so each
    component h_{i jbar}, seen as an N^n x N^n matrix, is
    sum_m A^m_ij U_m V_m^T: one rank-M product, with no per-mode grid."""
    n = fld.n
    k = np.arange(N)
    roots = np.exp(2j * np.pi * k / N)
    m, a = fld.rows.reshape(-1, 2, n), fld.mats
    phases = roots[np.multiply.outer(m.swapaxes(1, 2), k) % N]
    phases = phases.reshape(len(m), 2 * n, N)  # (mode, grid axis, k)
    u, v = np.ones((2, len(m), 1), complex)
    for ax in range(n):
        u = (u[:, :, None] * phases[:, ax, None, :]).reshape(len(m), -1)
        v = (v[:, :, None] * phases[:, n + ax, None, :]).reshape(len(m), -1)
    h = np.empty((N,) * (2 * n) + (n, n), complex)
    part = np.empty((N ** n, N ** n), complex)
    for i, j in np.ndindex(n, n):
        np.matmul(u.T * a[:, i, j], v, out=part)
        h[..., i, j] = part.reshape(h.shape[:-2])
    return h


class _Work:
    """Grid buffers that ``run`` allocates once and its theta2s and steps
    reuse, so their pages fault in once per run.  Nothing handed out aliases
    them (theta2 results, state memos and h are fresh arrays); they go with
    the run's last state, and ``run`` returns its final state without them."""

    def __init__(self, n: int, N: int):
        lead = (n, n) + (N,) * (2 * n)
        # theta2: h's inverse, W_i, one scratch, and per z^i the d/dz^i and
        # first differences (the docs' "Flow grids" maps every view)
        self.hinv, self.w, self.s = (np.empty(lead, complex) for _ in range(3))
        self.dz, self.dp = ([np.empty(lead, complex) for _ in range(n)]
                            for _ in range(2))
        # step: the RK4 accumulator and stage, as fields.  A step leaves its
        # k4 in ``stage`` and ``acc`` free, for ``_step_error`` to read.
        self.acc, self.stage = (np.empty(lead) for _ in range(2))


def _halves(buf: np.ndarray) -> np.ndarray:
    """The memory of a contiguous complex grid buffer as two real arrays of
    its shape, ``[0]`` its first half and ``[1]`` its second."""
    return buf.reshape(-1).view(np.float64).reshape((2,) + buf.shape)


def _pack(h: np.ndarray) -> np.ndarray:
    """The n^2 real fields of a per-site Hermitian grid h, from each site's
    upper triangle: the real (n, n, N, ...) array f with f[k, l] = Re h_kl
    for k <= l and f[l, k] = Im h_kl for k < l."""
    f = np.moveaxis(h.real, (-2, -1), (0, 1)).copy()
    for k, l in itertools.combinations(range(h.shape[-1]), 2):
        f[l, k] = h[..., k, l].imag
    return f


def _unpack(f: np.ndarray) -> np.ndarray:
    """The per-site Hermitian grid, (N, ...) + (n, n), whose fields are f:
    h_lk = conj(h_kl), with an exactly real diagonal."""
    h = np.empty(f.shape[2:] + f.shape[:2], complex)
    out = np.moveaxis(h, (-2, -1), (0, 1))
    out.real, out.imag = f, 0.0
    for k, l in itertools.combinations(range(len(f)), 2):
        out.imag[k, l] = f[l, k]
        np.conjugate(out[k, l], out=out[l, k])
    return h


def _check_stencil(N: int):
    if N < 8:
        raise DomainError("theta2 stencil needs N >= 8")


@functools.cache
def _stencil(N: int) -> np.ndarray:
    """Real N x N circulant matrix D with D @ f the 4th-order central first
    derivative of N periodic samples f of [0,1)."""
    d = np.zeros((N, N))
    r = np.arange(N)
    for shift, c in ((1, 8.0), (2, -1.0), (-1, -8.0), (-2, 1.0)):
        d[r, (r + shift) % N] += c * N / 12.0
    return _read_only(d)


@functools.cache
def _stencil_last(N: int, width: int) -> np.ndarray:
    """kron(D^T, I_width): the stencil acting on the last axis of an array
    seen as float64 rows of ``width`` numbers per entry (1 real, 2 complex:
    re, im), as one right product.  C-ordered: at width 1 np.kron hands
    back the F-ordered transpose, which BLAS takes at half speed here."""
    return _read_only(np.ascontiguousarray(np.kron(_stencil(N).T,
                                                   np.eye(width))))


def _diff(arr: np.ndarray, axis: int, N: int, out=None) -> np.ndarray:
    """First derivative along a periodic grid axis of a real or complex
    array, as one product of the stencil with arr seen as float64 (the
    stencil is real, so it acts on the real and imaginary parts alike); no
    copy when arr is C-contiguous.  On the last axis that is one GEMM against
    ``_stencil_last``, not one tiny product per row.  Written into ``out``
    (C-contiguous, of arr's dtype) when given."""
    x = np.ascontiguousarray(arr, complex if np.iscomplexobj(arr) else float)
    if out is None:
        out = np.empty(x.shape, x.dtype)
    xf, y = x.view(np.float64), out.view(np.float64)
    if axis == x.ndim - 1:
        width = xf.shape[-1] // N
        np.matmul(xf.reshape(-1, width * N), _stencil_last(N, width),
                  out=y.reshape(-1, width * N))
    else:
        shape = (math.prod(x.shape[:axis]), N, -1)
        np.matmul(_stencil(N), xf.reshape(shape), out=y.reshape(shape))
    return out


def _wirtinger(f: np.ndarray, n: int, N: int, wk: _Work) -> None:
    """d/dz^i of the Hermitian grid whose fields are f (``_pack``): the
    first differences of p = f/2 (the first half of ``wk.w``) along x_i and
    y_i into the halves of ``wk.dp[i]``, and d/dz^i h = (D_{x_i} - sqrt(-1)
    D_{y_i}) h/2 into ``wk.dz[i]``, every entry (h_lk = conj(h_kl))."""
    p = _halves(wk.w)[0]
    np.multiply(f, 0.5, out=p)
    for i in range(n):
        dx, dy = _halves(wk.dp[i])
        _diff(p, 2 + 2 * i, N, dx)
        _diff(p, 3 + 2 * i, N, dy)
        dz = wk.dz[i]
        for k in range(n):
            np.copyto(dz[k, k].real, dx[k, k])
            np.negative(dy[k, k], out=dz[k, k].imag)
            for l in range(k + 1, n):
                np.add(dx[k, l], dy[l, k], out=dz[k, l].real)
                np.subtract(dx[l, k], dy[k, l], out=dz[k, l].imag)
                np.subtract(dx[k, l], dy[l, k], out=dz[l, k].real)
                np.add(dx[l, k], dy[k, l], out=dz[l, k].imag)
                np.negative(dz[l, k].imag, out=dz[l, k].imag)


def _singular(bad: np.ndarray, what: str):
    if bad.any():
        site = tuple(int(x) for x in np.argwhere(bad)[0])
        raise DomainError("singular metric on the grid: zero or "
                          f"non-finite {what} at site {site}")


def _inv(f: np.ndarray, out=None) -> np.ndarray:
    """Per-site inverse of the Hermitian grid with fields f, complex and
    matrix-leading, into ``out`` when given.  n = 2: the adjugate over the
    real det f00 f11 - (f01^2 + f10^2).  Otherwise Gauss-Jordan elimination
    without pivoting on the complex h, each step one whole-grid array
    operation (np.linalg.inv loops over the sites one tiny matrix at a time);
    h is positive definite, so every pivot is a positive Schur complement."""
    n = f.shape[0]
    if out is None:
        out = np.empty(f.shape, complex)
    if n == 2:
        (a, re), (im, d) = f
        det = a * d
        det -= re * re + im * im
        _singular((det == 0) | ~np.isfinite(det), "determinant")
        r = 1.0 / det
        np.multiply(d, r, out=out.real[0, 0])
        np.multiply(a, r, out=out.real[1, 1])
        r = -r
        np.multiply(re, r, out=out.real[0, 1])
        np.multiply(im, r, out=out.imag[0, 1])
        out.imag[0, 0] = out.imag[1, 1] = 0.0
        np.conjugate(out[0, 1], out=out[1, 0])
        return out
    a = np.moveaxis(_unpack(f), (-2, -1), (0, 1))  # eliminated in place
    out[...] = 0
    out[range(n), range(n)] = 1.0
    for k in range(n):
        piv = a[k, k].copy()
        _singular((piv == 0) | ~np.isfinite(piv), f"pivot {k}")
        a[k] /= piv
        out[k] /= piv
        for i in range(n):
            if i != k:
                g = a[i, k].copy()
                a[i] -= g * a[k]
                out[i] -= g * out[k]
    return out


def _site_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray,
                 add: bool = False, upper: bool = False) -> None:
    """out = a b per site (out += a b when ``add``) for matrix-leading
    (n, n, ...) grids, one whole-grid product per component (a
    three-operand einsum runs one generic loop over every index instead);
    with ``upper`` only the entries k <= j of out.  ``out`` must not overlap
    ``a`` or ``b``."""
    n = a.shape[0]
    for k in range(n):
        for j in range(k if upper else 0, n):
            o = out[k, j]
            for p in range(n):
                if p or add:
                    o += a[k, p] * b[p, j]
                else:
                    np.multiply(a[k, 0], b[0, j], out=o)


def theta2_discrete(h: np.ndarray, n: int, N: int) -> np.ndarray:
    """Second metric-trace of the canonical curvature, per site.

    theta2_{k lbar} = -h^{i jbar} d^2 h_{k lbar}/dz^i dzbar^j
    + h^{i jbar} h^{p qbar} (dh_{k qbar}/dz^i)(dh_{p lbar}/dzbar^j),
    with 4th-order periodic central differences: the core ``_theta2`` on
    h's fields (``_pack``, so only each site's upper triangle is read),
    unpacked to a result that is Hermitian bit for bit.
    """
    return _unpack(_theta2(_pack(h), n, N, _Work(n, N)))


def _theta2(f: np.ndarray, n: int, N: int, wk: _Work) -> np.ndarray:
    """theta2's fields from h's fields f, a new array; the rest is in ``wk``.

    Matrix axes lead, (n, n, N, ...), so every per-site product is an
    operation on whole-grid component arrays.  Since h^{i jbar} is
    Hermitian, the second-derivative term is a real operator on the fields:
    h^{i jbar} d_i dbar_j = 1/4 sum_i h^{i ibar} (D_{x_i}^2 + D_{y_i}^2)
    + 1/2 sum_{i<j} [Re h^{i jbar} (D_{x_i} D_{x_j} + D_{y_i} D_{y_j})
    - Im h^{i jbar} (D_{x_i} D_{y_j} - D_{y_i} D_{x_j})],
    2n^2 second differences of the fields with real per-site weights.  The
    quadratic term is sum_i X_i W_i with X_i = (dh/dz^i) h^{-1} and
    W_i = sum_j h^{i jbar} dh/dzbar^j = (sum_j h^{j ibar} dh/dz^j)^H, as
    dh/dzbar^j = (dh/dz^j)^H per site, formed at the entries k <= l alone.
    """
    _check_stencil(N)
    w, s = wk.w, wk.s
    _wirtinger(f, n, N, wk)
    hinv = _inv(f, wk.hinv)
    up = hinv.swapaxes(0, 1)  # up[i, j] = h^{i jbar}, per site
    # The real weights of the second differences of p = h/2, packed as p:
    # c[i, i] = h^{i ibar}/2, and for i < j c[i, j] = Re h^{i jbar} and
    # c[j, i] = Im h^{i jbar}; they lie beside p.
    c = _halves(w)[1]
    np.copyto(c, up.real)
    groups = []  # (weight, first difference, axis, the other, axis, sign)
    for i in range(n):
        c[i, i] *= 0.5
        dx, dy = _halves(wk.dp[i])  # D_{x_i} p, D_{y_i} p
        groups.append((c[i, i], dx, 2 * i, dy, 2 * i + 1, np.add))
        for j in range(i + 1, n):
            np.copyto(c[j, i], up[i, j].imag)
            groups += [(c[i, j], dx, 2 * j, dy, 2 * j + 1, np.add),
                       (c[j, i], dy, 2 * j, dx, 2 * j + 1, np.subtract)]
    res = np.empty(f.shape)
    d, e = _halves(s)
    for g, (weight, first, a, other, a2, sign) in enumerate(groups):
        t = _diff(first, 2 + a, N, d if g else res)
        sign(t, _diff(other, 2 + a2, N, e), out=t)
        t *= weight
        if g:
            res += t
    q = wk.dp[0]  # the packed first differences are used up
    for i in range(n):  # p and the weights are used up too
        # W_i = (sum_j h^{j ibar} dh/dz^j)^H, the sum taken in the scratch
        np.multiply(up[0, i], wk.dz[0], out=s)
        for j in range(1, n):
            s += np.multiply(up[j, i], wk.dz[j], out=w)
        np.conjugate(s.swapaxes(0, 1), out=w)
        _site_matmul(wk.dz[i], hinv, s)  # X_i
        _site_matmul(s, w, q, add=i > 0, upper=True)
    # theta2 = q - the real sum, as fields
    for k, l in itertools.combinations_with_replacement(range(n), 2):
        np.subtract(q[k, l].real, res[k, l], out=res[k, l])
        if k < l:
            np.subtract(q[k, l].imag, res[l, k], out=res[l, k])
    return res


def _defect_from_work(wk: _Work, n: int) -> float:
    """``kahler_defect`` from the d/dz^i differences in ``wk.dz``; works in
    the scratch and in ``wk.hinv``, both free after theta2."""
    worst = 0.0
    d, mag = wk.s[0], wk.hinv[0].real
    for i in range(n):
        for k in range(i + 1, n):
            np.subtract(wk.dz[i][k], wk.dz[k][i], out=d)
            worst = max(worst, float(np.abs(d, out=mag).max()))
    return worst


def kahler_defect(h: np.ndarray, n: int, N: int) -> float:
    """max |dh_{k jbar}/dz^i - dh_{i jbar}/dz^k| over sites and indices,
    from each site's upper triangle of h.  A run reads the same value off
    theta2's own first differences (``FlowState.kahler_defect``)."""
    wk = _Work(n, N)
    _wirtinger(_pack(h), n, N, wk)
    return _defect_from_work(wk, n)


def _max_modulus(f: np.ndarray) -> float:
    """max |z| over the entries z of the Hermitian grid whose fields are f,
    each |z| the np.abs of the complex entry, as on the unpacked grid."""
    worst = [np.abs(f[k, k]).max() for k in range(len(f))]
    for k, l in itertools.combinations(range(len(f)), 2):
        z = f[k, l].astype(complex)
        z.imag = f[l, k]
        worst.append(np.abs(z).max())
    return float(np.max(worst))


def _rate(state: FlowState, out=None) -> np.ndarray:
    """mu h - theta2(h) as fields, into ``out`` when given."""
    out = np.multiply(state._fields, state.mu, out=out)
    out -= state._theta2_fields
    return out


def diagnostics(state: FlowState, step_count: int,
                wall_time: float) -> FlowDiagnostics:
    return FlowDiagnostics(
        t=state.t,
        step_count=step_count,
        kahler_defect=state.kahler_defect,
        min_eig=float(state.eigs.min()),
        max_eig=float(state.eigs.max()),
        einstein_residual=_max_modulus(_rate(state)),
        wall_time=wall_time,
    )


def _spectrum(h: np.ndarray) -> np.ndarray:
    """Per-site eigenvalues of a Hermitian grid, ascending.  n = 2 in closed
    form, m -+ hypot((a - d)/2, |b|) with m = (a + d)/2, read from the lower
    triangle as LAPACK's eigvalsh reads it; otherwise eigvalsh."""
    if h.shape[-1] != 2:
        return np.linalg.eigvalsh(h)
    a, d = h[..., 0, 0].real, h[..., 1, 1].real
    m = 0.5 * (a + d)
    r = np.hypot(0.5 * (a - d), np.abs(h[..., 1, 0]))
    return np.stack((m - r, m + r), axis=-1)


def default_dt(h: np.ndarray, N: int) -> float:
    return _dt_from_eigs(_spectrum(h), N)


def _dt_from_eigs(eigs: np.ndarray, N: int) -> float:
    dx = 1.0 / N
    min_eig = float(eigs.min())
    if min_eig <= 0:
        raise DomainError("initial grid metric is not positive definite")
    return 0.1 * dx * dx * min_eig


def _stability_cap(state: FlowState) -> float:
    """Largest RK4 step the 4th-order stencil admits at this state.  RK4
    reaches 2.785 along the negative real axis.  The frozen-coefficient
    symbol of h^{i jbar} d_i d_jbar has modulus at most n |s|^2 / (2 lambda),
    lambda the least eigenvalue of h and |s| <= 1.372 / dx the first
    difference's symbol, so the step is at most (2.96 / n) dx^2 lambda."""
    dx = 1.0 / state.N
    return 2.96 / state.n * dx * dx * float(state.eigs.min())


def _check_fits(n: int, N: int):
    """Raise DomainError, before anything is allocated, when a flow on an
    N^(2n) grid would need more than the machine's physical memory."""
    # Peak grid arrays (N^(2n) n x n complex) alive at once during ``run``,
    # as tracemalloc's peak over one array's bytes, the run's 2n + 4 buffers
    # included: 11.7 at n=1 (N=256), 12.5 at n=2 (N=12) and 13.8 at n=3
    # (N=8) with fixed steps, 12.7, 13.3 and 15.4 with error-controlled
    # ones, checked by tests.  The cached stencils, two N x N float64 in a
    # run, come on top (1 array at n=1).
    arrays = 11 + 2 * n
    need = N ** (2 * n) * n * n * 16 * arrays + 40 * N * N
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
    """One Runge-Kutta 4 step of dh/dt = -theta2 + mu*h on h's fields, which
    are Hermitian by construction; the new h is unpacked from them once."""
    n, N, mu = state.n, state.N, state.mu
    dt = state.config.dt if state.config.dt is not None \
        else _dt_from_eigs(state.eigs, N)
    wk = _Work(n, N) if state._work is None else state._work
    f, acc, k = state._fields, wk.acc, wk.stage
    scratch = _halves(wk.s)[0]  # theta2's scratch, free between calls
    _rate(state, acc)                               # k1
    for c, weight, prev in ((0.5, 2, acc), (0.5, 2, k), (1.0, 1, k)):
        np.multiply(prev, c * dt, out=k)            # stage f + c*dt*prev
        k += f
        t = _theta2(k, n, N, wk)
        k *= mu
        k -= t                                      # k2, k3, k4
        del t  # gone before the next theta2 allocates its result
        acc += np.multiply(k, weight, out=scratch)
    fn = np.multiply(acc, dt / 6.0)
    fn += f
    out = replace(state, h=_unpack(fn), t=state.t + dt)
    vars(out)["_fields"] = _read_only(fn)
    _check_state(out)
    return out


# Local error accepted per error-controlled step, max-abs over the grid:
# the accuracy the flow is held to against small-step reference runs.
_TOL = 1e-5


def _step_error(state: FlowState) -> float:
    """Embedded error estimate of the run step that made ``state``:
    (dt/6) max |k4 - f(h1)|, f = ``_rate``.  f(h1) comes from the state's
    own theta2 memo, so it is the next step's k1 (first stage same as last)
    and costs no extra theta2.  k4 is read from the run's stage buffer, and
    the work is done in its free accumulator."""
    wk = state._work
    wk.stage -= _rate(state, wk.acc)
    return state.config.dt / 6.0 * _max_modulus(wk.stage)


def _controlled_step(state: FlowState, dt: float, T: float):
    """One accepted error-controlled RK4 step from the proposed ``dt``.

    Every attempt goes through ``step``.  The step is held between the
    state's default dt (the floor) and its stability cap, and shortened to
    land on T.  An attempt is accepted when its estimate is <= _TOL; either
    way the next proposal is d * clip(0.9 (tol/err)^(1/4), 0.2, 4).  An
    attempt that halts (non-finite, not positive definite, or a singular
    stage) is retried at a fifth of its step.  At the floor an attempt is taken as a fixed step
    would be: accepted whatever its estimate, and its halt is raised.
    Returns (new state, next proposal)."""
    floor = _dt_from_eigs(state.eigs, state.N)
    dt = min(max(dt, floor), _stability_cap(state))
    while True:
        d = min(dt, T - state.t)
        try:
            new = step(_reconfigured(state, config=replace(state.config,
                                                           dt=d)))
        except (FlowHalt, DomainError):
            if d <= floor:
                raise
            dt = max(0.2 * d, floor)
            continue
        err = _step_error(new)
        grow = min(4.0, max(0.2, 0.9 * (_TOL / err) ** 0.25)) if err else 4.0
        if err <= _TOL or d <= floor:
            return new, grow * d
        del new  # a rejected attempt is not held through the next one
        dt = max(grow * d, floor)


def run(initial, mu: float, T: float, config: FlowConfig = FlowConfig(),
        N: int = 12):
    """Integrate from t=0 to the horizon T.

    ``initial`` is a torus MetricField or a pre-sampled grid array.  Returns
    (final_state, [FlowDiagnostics...]); reaching the horizon is success.
    With ``config.dt`` set every step is that dt; with None each step is
    error-controlled (``_controlled_step``), starting from the default dt
    0.1 dx^2 lambda_min.  Either way the last step lands on T, the final
    state's ``config.dt`` is the last step taken, and a FlowHalt from
    ``step`` that no smaller step avoids propagates to the caller.
    """
    if not (math.isfinite(T) and T >= 0):
        raise ValidationError(f"horizon T must be finite and >= 0, got {T}")
    if not math.isfinite(mu):
        raise ValidationError(f"mu must be finite, got {mu}")
    if isinstance(initial, MetricField):
        n = initial.n
        _check_stencil(N)
        h0 = sample_on_grid(initial, N)
    else:
        h0 = np.asarray(initial, dtype=complex)
        n = h0.shape[-1]
        N = h0.shape[0]
        _check_stencil(N)
        _check_fits(n, N)
    h0 = 0.5 * (h0 + np.conj(np.swapaxes(h0, -1, -2)))
    state = FlowState(n=n, N=N, h=h0, t=0.0, mu=mu, config=config)
    del h0  # the grid goes with the initial state, after the first step
    _check_state(state)
    adaptive = config.dt is None
    dt = _dt_from_eigs(state.eigs, N) if adaptive else config.dt
    config = replace(config, dt=dt)
    state = _reconfigured(state, config=config, _work=_Work(n, N))
    start = time.monotonic()
    series = [diagnostics(state, 0, 0.0)]
    count = 0
    while state.t < T - 1e-12:
        if adaptive:
            state, dt = _controlled_step(state, dt, T)
        else:
            if state.t + dt > T:
                last = replace(config, dt=T - state.t)
                state = _reconfigured(state, config=last)
            state = step(state)
        count += 1
        if count % config.cadence == 0 or state.t >= T - 1e-12:
            series.append(diagnostics(state, count,
                                      time.monotonic() - start))
    return _reconfigured(state, _work=None), series


# -- exact scale-factor reduction on the round annulus family ---------------


def hopf_self_similar(n: int, c0: float, mu: float, t: float) -> float:
    """Scale factor c(t) of the self-similar solution h = c * (4/|z|^2) I.

    Solves dc/dt = mu*c - k, k = (n-1)/4, exactly as c0 + (c0 mu - k) t
    phi(mu t), phi(x) = expm1(x) / x, phi(0) = 1: no two terms of size k / mu
    cancel at small |mu|.  May return c <= 0; see ``hopf_extinction_time``.
    """
    if c0 <= 0:
        raise DomainError("initial scale factor must be positive")
    k = (n - 1) / 4.0
    x = mu * t  # 0 at mu = 0, at t = 0 and below the subnormals: phi = 1
    if not x:
        return c0 - k * t
    return c0 + (c0 * mu - k) * t * (np.expm1(x) / x)


def hopf_extinction_time(n: int, c0: float, mu: float) -> float | None:
    """First time the scale factor reaches zero, or None if it never does:
    t* = (c0 / k) psi(y), y = c0 mu / k < 1, psi(y) = -log1p(-y) / y, psi(0)
    = 1; below y = -1, where y may overflow, t* = log(k / (k - c0 mu)) / mu."""
    if c0 <= 0:
        raise DomainError("initial scale factor must be positive")
    k = (n - 1) / 4.0
    if k == 0:
        return None  # n = 1: c is constant (mu = 0) or grows/decays to 0 only if mu<0
    y = c0 * mu / k
    if y >= 1:
        return None  # mu > 0 and c0 >= k / mu: c never decreases
    if y < -1:
        return float(np.log((k / mu) / (k / mu - c0)) / mu)
    return float(c0 / k * (-np.log1p(-y) / y if y else 1.0))


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
