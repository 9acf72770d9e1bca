"""Hermitian metric fields on a chart and their Taylor jets.

Supported kinds:

- ``Flat``: h = identity.
- ``Hopf``: h = 4 delta_ij / |z|^2 on C^n minus the origin.
- ``NormalForm``: polynomial perturbation of the identity with zero linear
  term, so h(0) = identity and all Christoffel symbols vanish at 0.
- ``TorusFourier``: finite Fourier series over the real torus [0,1)^{2n},
  with z^j = x^j + i x^{n+j}.

``metric_jet`` produces exact Taylor jets of h and h^{-1} at a point; all
connection and curvature computations downstream consume only ``MetricJet``.
Functions of the point alone are wrapped in ``per_point``, which stores each
result on its ``MetricJet``: it is built once, handed out read-only, and freed
with the jet.  A reader of point values, which reads h to degree 2, is
wrapped in ``per_point(order=POINT_ORDER)``: it runs on ``mj.at_order(2)``,
the prefix jet, so it computes nothing beyond what it reads and shares that
jet's memo with every other point reader (docs/conventions.md, "Jet order
each reader reads").
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (DomainError, ParseError, SingularSeriesError,
                     StructuralError, ValidationError)
from .jets import _algebra, inverse, jet_matrix_inverse, point_derivatives

__all__ = [
    "MetricField",
    "MetricJet",
    "derivative_tables",
    "flat_metric",
    "hopf_metric",
    "polynomial_metric",
    "normal_form_random",
    "normal_coordinates_random",
    "normal_form_balanced",
    "normal_form_skt",
    "normal_form_balanced_skt",
    "torus_fourier",
    "potential_kahler_torus",
    "separable_kahler_torus",
    "random_torus_fourier",
    "evaluate",
    "metric_jet",
    "ingest_torus_metric",
    "write_torus_metric",
]

_POS_EIG_TOL = 1e-10


@dataclass(frozen=True)
class MetricJet:
    """Jets of h and h^{-1} at a point, the input to every curvature routine.

    ``h[i, j]`` holds the Taylor coefficients of h_{i jbar} over the basis
    of ``jets._algebra(n, order)``; ``hinv`` is the matrix inverse, so the
    tensor h^{i jbar} is ``hinv[j, i]``.  Both are read-only (n, n, S)
    complex arrays.
    """

    n: int
    order: int
    point: np.ndarray
    h: np.ndarray
    hinv: np.ndarray
    # per_point results keyed by the wrapped function, and the at_order
    # prefix jets
    _memo: dict = dc_field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def h_at0(self) -> np.ndarray:
        return point_derivatives(self.h, self.n)

    def hinv_at0(self) -> np.ndarray:
        return point_derivatives(self.hinv, self.n)

    def at_order(self, k: int) -> "MetricJet":
        """The jet cut to order k (see ``_prefix``), built once and kept in
        this jet's memo, so per_point results on it are shared by every
        reader; k >= order gives this jet itself."""
        if k >= self.order:
            return self
        key = (MetricJet.at_order, k)
        if key not in self._memo:
            self._memo[key] = self._prefix(k)
        return self._memo[key]

    def _prefix(self, k: int) -> "MetricJet":
        """A new jet of order k <= order, with an empty memo: h and hinv as
        read-only views of their first S(k) coefficients, a prefix of the
        degree-sorted basis."""
        if k < 1:
            raise ValidationError(f"metric jet order must be >= 1, got {k}")
        size = _algebra(self.n, k).size
        return MetricJet(n=self.n, order=k, point=self.point,
                         h=_read_only(self.h[..., :size]),
                         hinv=_read_only(self.hinv[..., :size]))


def _read_only(value):
    """Mark the numpy arrays in a memoized result (bare or in a tuple)
    read-only, so no caller can alter what the next caller at the same
    point receives."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    return value


# The jet order the point values of curvature read: Gamma to degree 1,
# which is h to degree 2.
POINT_ORDER = 2


def per_point(fn=None, *, order: int | None = None):
    """Decorator for a function of one MetricJet: ``fn(mj)`` runs at most
    once per jet and its result lives in the jet's memo, read-only.  With
    ``order`` set (a reader of point values, order=POINT_ORDER) it runs on
    ``mj.at_order(order)`` and lives in that prefix jet's memo; a jet of
    lower order is passed as it is, so the reader refuses it where it did
    on the full jet.  Without, it runs at the jet's own order."""
    if fn is None:
        return functools.partial(per_point, order=order)

    @functools.wraps(fn)
    def memoized(mj: MetricJet):
        if order is not None:
            mj = mj.at_order(order)
        try:
            return mj._memo[fn]
        except KeyError:
            value = mj._memo[fn] = _read_only(fn(mj))
            return value
    return memoized


@per_point(order=POINT_ORDER)
def derivative_tables(mj: MetricJet):
    """(d1, db1, d2) at the point, derivative directions first:
    d1[k, i, j] = dh_{i jbar}/dz^k, db1[k, i, j] = dh_{i jbar}/dzbar^k and
    d2[k, l, i, j] = d^2 h_{i jbar}/dz^k dzbar^l.  d2 is None on an
    order-1 jet."""
    d = point_derivatives(mj.h, mj.n, 1)
    d2 = point_derivatives(mj.h, mj.n, 2) if mj.order >= 2 else None
    return d[:mj.n], d[mj.n:], d2


@dataclass(frozen=True)
class MetricField:
    """A Hermitian metric field on a chart of C^n (or the torus)."""

    n: int
    kind: str  # Flat | Hopf | NormalForm | TorusFourier
    # The polynomial terms or Fourier modes as two read-only arrays, rows
    # (T, 2n) of integers and mats (T, n, n) complex; None for Flat and Hopf.
    # NormalForm: the given half of the monomial terms, rows[t] = (alpha,
    #   beta) as int8 and mats[t] = M.  The field value is identity +
    #   sum_t (M z^alpha zbar^beta + M^H z^beta zbar^alpha); the conjugate
    #   partners are never stored.
    # TorusFourier: the modes in sorted frequency order, rows[t] = m and
    #   mats[t] = A^(m).
    rows: np.ndarray = None
    mats: np.ndarray = None

    @property
    def terms(self) -> tuple:
        """The NormalForm monomial terms (alpha, beta, M), each followed by
        its conjugate partner (beta, alpha, M^H); () for the other kinds."""
        if self.kind != "NormalForm":
            return ()
        n, out = self.n, []
        for row, M in zip(self.rows.tolist(), self.mats):
            alpha, beta = tuple(row[:n]), tuple(row[n:])
            out += [(alpha, beta, M), (beta, alpha, M.conj().T)]
        return tuple(out)

    @property
    def modes(self) -> tuple:
        """The TorusFourier modes (m, A), m a tuple of length 2n; () for the
        other kinds."""
        if self.kind != "TorusFourier":
            return ()
        return tuple(zip(map(tuple, self.rows.tolist()), self.mats))

    def admissible(self, z) -> bool:
        if self.kind == "Hopf":
            return bool(np.any(np.asarray(z) != 0))
        return True


# -- constructors ----------------------------------------------------------


def _check_dim(n: int):
    """Each maker's first check, before any draw: at n = 0 the random torus
    makers would wait forever for a nonzero frequency of length 2n."""
    if n < 1:
        raise ValidationError(f"complex dimension must be >= 1, got {n}")


def flat_metric(n: int) -> MetricField:
    _check_dim(n)
    return MetricField(n=n, kind="Flat")


def hopf_metric(n: int) -> MetricField:
    _check_dim(n)
    if n < 2:
        raise StructuralError("the Hopf family needs n >= 2")
    return MetricField(n=n, kind="Hopf")


def polynomial_metric(n: int, terms, allow_linear: bool = False) -> MetricField:
    """Identity plus a Hermitian polynomial perturbation.

    ``terms`` is an iterable of (alpha, beta, M): a contribution
    M_{ij} z^alpha zbar^beta to h_{i jbar}.  The conjugate-partner term
    (beta, alpha, M^H) is added automatically so the field is Hermitian.
    """
    _check_dim(n)
    rows, mats = [], []
    for alpha, beta, M in terms:
        row = tuple(alpha) + tuple(beta)
        if len(row) != 2 * n or not all(0 <= e <= 127 for e in row):
            raise StructuralError(
                f"term exponents must be 2 x {n} integers in 0..127, got {row}")
        deg = sum(row)
        if deg == 0:
            raise StructuralError("degree-0 terms are not allowed; h(0) = identity")
        if deg == 1 and not allow_linear:
            raise StructuralError("normal-form fields have zero linear term")
        M = np.asarray(M, dtype=complex)
        if M.shape != (n, n):
            raise StructuralError(f"term matrix must be {n}x{n}")
        rows.append(row)
        mats.append(M)
    return _tabled(n, "NormalForm", np.array(rows, dtype=np.int8), mats)


def _tabled(n: int, kind: str, rows: np.ndarray, mats) -> MetricField:
    """A field whose rows (T, 2n) and matrices (T, n, n) are read-only."""
    rows = rows.reshape(-1, 2 * n)
    mats = np.array(mats, dtype=complex).reshape(-1, n, n)
    rows.flags.writeable = mats.flags.writeable = False
    return MetricField(n=n, kind=kind, rows=rows, mats=mats)


def _cnormal(rng, shape=None, scale: float = 0.1):
    """scale * (a + i b), a then b drawn standard normal of the given shape."""
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _hermitize_quadratic(n, d):
    """Enforce conj(h_{i jbar}) = h_{j ibar} on a mixed-quadratic tensor:
    d[i,j,k,l] is the coefficient of z^k zbar^l in h_{i jbar}."""
    return (d + np.conj(np.transpose(d, (1, 0, 3, 2)))) / 2


def _quadratic_terms(n, d, p):
    """Build monomial terms from a Hermitian mixed tensor d[i,j,k,l]
    (z^k zbar^l) and a pure tensor p[i,j,k,l] (z^k z^l, symmetric in k,l).
    Conjugate partners of the pure terms are added by polynomial_metric."""
    terms = []
    e = np.eye(n, dtype=int)
    for k in range(n):
        for l in range(n):
            M = d[:, :, k, l]
            if np.any(M):
                # d already holds each term's conjugate partner, so halve it
                # before polynomial_metric adds the partners again
                terms.append((tuple(e[k]), tuple(e[l]), M / 2.0))
    ptrms = []
    for k in range(n):
        for l in range(k, n):
            M = p[:, :, k, l] + (p[:, :, l, k] if l != k else 0)
            if np.any(M):
                ptrms.append((tuple(e[k] + e[l]), (0,) * n, M))
    return terms, ptrms


def _assemble_polynomial(n, d, p, cubic=()):
    mixed, pure = _quadratic_terms(n, _hermitize_quadratic(n, d), p)
    return polynomial_metric(n, mixed + pure + list(cubic))


def normal_form_random(n: int, seed: int) -> MetricField:
    """Random zero-linear-term polynomial metric: generic second and third
    derivatives."""
    _check_dim(n)
    rng = np.random.default_rng(seed)
    d = _cnormal(rng, (n, n, n, n))
    p = _cnormal(rng, (n, n, n, n))
    e = np.eye(n, dtype=int)
    cubic = [(tuple(e[k] + e[l]), tuple(e[m]), _cnormal(rng, (n, n)) * 0.3)
             for k in range(n) for l in range(n) for m in range(n)]
    return _assemble_polynomial(n, d, p, cubic)


def normal_coordinates_random(n: int, seed: int) -> MetricField:
    """Polynomial metric with h(0) = identity and vanishing symmetrized
    Christoffels at 0, but generically nonzero first derivatives: the linear
    coefficient tensor is antisymmetric in (derivative, row) so that
    dh_{i qbar}/dz^j + dh_{j qbar}/dz^i = 0 at the origin."""
    _check_dim(n)
    t = _cnormal(np.random.default_rng(seed), (n, n, n))
    t = t - np.transpose(t, (1, 0, 2))
    e = np.eye(n, dtype=int)
    terms = [(tuple(e[k]), (0,) * n, t[k]) for k in range(n)]
    d = _hermitize_quadratic(
        n, _cnormal(np.random.default_rng(seed + 1), (n, n, n, n)))
    terms += _quadratic_terms(n, d, np.zeros((n, n, n, n)))[0]
    return polynomial_metric(n, terms, allow_linear=True)


def _null_projection(rows, x):
    """x minus its least-squares projection onto the span of the raveled
    constraint rows: its projection onto their null space."""
    C, v = np.array(rows), x.ravel()
    corr, *_ = np.linalg.lstsq(C, C @ v, rcond=None)
    return (v - corr).reshape(x.shape)


def _constrained_quadratic(n, seed, balanced, skt):
    """Random Hermitian mixed/pure quadratic tensors projected onto the
    requested linear constraint set (trace conditions at the origin)."""
    _check_dim(n)
    rng = np.random.default_rng(seed)
    d0 = _hermitize_quadratic(n, _cnormal(rng, (n, n, n, n)))
    p0 = _cnormal(rng, (n, n, n, n))
    p0 = (p0 + np.transpose(p0, (0, 1, 3, 2))) / 2

    def row(entries):
        r = np.zeros((n, n, n, n), dtype=complex)
        for idx, w in entries:
            r[idx] += w
        return r.ravel()

    rows = []

    if balanced:
        for k in range(n):
            for l in range(n):
                rows.append(row([((i, l, k, i), 1) for i in range(n)] +
                                 [((i, i, k, l), -1) for i in range(n)]))
                rows.append(row([((k, i, i, l), 1) for i in range(n)] +
                                 [((i, i, k, l), -1) for i in range(n)]))
    if skt:
        for i in range(n):
            for j in range(n):
                rows.append(row([((i, j, k, k), 1) for k in range(n)] +
                                 [((k, k, i, j), 1) for k in range(n)] +
                                 [((i, k, k, j), -1) for k in range(n)] +
                                 [((k, j, i, k), -1) for k in range(n)]))

    # re-Hermitize: the constraint sets are conj-symmetric, so the
    # projection of a Hermitian tensor stays within tolerance Hermitian
    d = _hermitize_quadratic(n, _null_projection(rows, d0))

    if balanced:
        # pure-term balanced condition: sum_e P[e,e,i,k] = sum_e P[i,e,e,k]
        prows = [row([((e, e, i, k), 1) for e in range(n)] +
                     [((i, e, e, k), -1) for e in range(n)])
                 for i in range(n) for k in range(n)]
        p0 = _null_projection(prows, p0)
        p0 = (p0 + np.transpose(p0, (0, 1, 3, 2))) / 2
    return d, p0


def normal_form_balanced(n: int, seed: int) -> MetricField:
    return _assemble_polynomial(n, *_constrained_quadratic(n, seed, True, False))


def normal_form_skt(n: int, seed: int) -> MetricField:
    return _assemble_polynomial(n, *_constrained_quadratic(n, seed, False, True))


def normal_form_balanced_skt(n: int, seed: int) -> MetricField:
    return _assemble_polynomial(n, *_constrained_quadratic(n, seed, True, True))


def _mu(m: np.ndarray, n: int) -> np.ndarray:
    """Holomorphic frequency: the phase is exp(i pi (mu.z + conj(mu).zbar))."""
    m = np.asarray(m)
    return m[..., :n] - 1j * m[..., n:]


def torus_fourier(n: int, modes) -> MetricField:
    """Fourier metric h(x) = sum_m A^(m) exp(2 pi i m.x) on [0,1)^{2n}."""
    _check_dim(n)
    table = {}
    for m, A in modes:
        key = tuple(int(v) for v in m)
        if len(key) != 2 * n:
            raise StructuralError(f"frequency vector must have length {2*n}")
        A = np.asarray(A, dtype=complex)
        if A.shape != (n, n):
            raise StructuralError(f"mode matrix must be {n}x{n}")
        table[key] = table.get(key, 0) + A
    # Hermitian-pairing check: A^(-m) must equal A^(m) conj-transposed
    for key, A in table.items():
        neg = tuple(-v for v in key)
        partner = table.get(neg)
        if partner is None or not np.allclose(partner, A.conj().T, rtol=0,
                                              atol=1e-12):
            raise ValidationError(
                f"Hermitian frequency constraint violated at m={key}")
    keys = sorted(table)
    return _tabled(n, "TorusFourier", np.array(keys, dtype=int),
                   [table[key] for key in keys])


def _torus_from(n: int, pairs) -> MetricField:
    """Identity plus each Fourier mode (m, A) of ``pairs`` with its conjugate
    partner (-m, A^H), which keeps h Hermitian.  The nonconstant modes are
    then rescaled so that their operator norms sum to at most 0.5, which
    keeps h positive definite everywhere."""
    modes = {}
    for m, A in pairs:
        key = tuple(int(v) for v in m)
        negkey = tuple(-v for v in key)
        modes[key] = modes.get(key, 0) + A
        modes[negkey] = modes.get(negkey, 0) + A.conj().T
    total = sum(np.linalg.norm(A, 2) for A in modes.values())
    if total > 0.5:
        s = 0.5 / total
        modes = {key: A * s for key, A in modes.items()}
    zero = (0,) * (2 * n)
    modes[zero] = modes.get(zero, 0) + np.eye(n)
    return torus_fourier(n, list(modes.items()))


def _frequencies(n: int, rng):
    """Three nonzero frequency vectors with entries in [-2, 2], drawn lazily,
    so that each one's amplitude is drawn before the next frequency."""
    count = 0
    while count < 3:
        m = rng.integers(-2, 3, size=2 * n)
        if np.any(m):
            count += 1
            yield m


def _potential_mode(m, n: int, rng, amp: float):
    """The mode of d^2 phi / dz dzbar for the potential term
    phi = c exp(2 pi i m.x), c complex of size amp."""
    c = _cnormal(rng, scale=amp)
    mu = _mu(m, n)
    return m, -np.pi**2 * c * np.outer(mu, np.conj(mu))


def potential_kahler_torus(n: int, seed: int) -> MetricField:
    """Kahler metric h = identity + (d^2 phi / dz dzbar) from a random real
    Fourier potential phi; dw = 0 holds by construction."""
    _check_dim(n)
    rng = np.random.default_rng(seed)
    return _torus_from(n, (_potential_mode(m, n, rng, 0.02)
                           for m in _frequencies(n, rng)))


def separable_kahler_torus(n: int, seed: int) -> MetricField:
    """Kahler potential metric whose entries each depend on a single complex
    coordinate: h is diagonal with h_{k kbar} a function of z^k alone.  Any
    translation-invariant first-difference operator then annihilates the
    off-axis derivatives exactly, which keeps discretized closedness checks
    at machine precision."""
    _check_dim(n)
    rng = np.random.default_rng(seed)

    def modes():
        for k in range(n):
            m = np.zeros(2 * n, dtype=int)
            m[k] = int(rng.integers(1, 3))
            m[n + k] = int(rng.integers(-2, 3))
            yield _potential_mode(m, n, rng, 0.05)
    return _torus_from(n, modes())


def random_torus_fourier(n: int, seed: int) -> MetricField:
    """Generic (non-Kahler) Hermitian Fourier metric."""
    _check_dim(n)
    rng = np.random.default_rng(seed)
    return _torus_from(n, ((m, _cnormal(rng, (n, n), 0.03))
                           for m in _frequencies(n, rng)))


# -- evaluation ------------------------------------------------------------


def evaluate(field: MetricField, z) -> np.ndarray:
    """Value of h at the points z: shape (..., n) complex coordinates in,
    (..., n, n) matrices out, so one n-vector gives one n x n matrix."""
    z = np.asarray(z, dtype=complex)
    n = field.n
    if z.ndim == 0 or z.shape[-1] != n:
        raise StructuralError(f"point must be a complex {n}-vector")
    if field.kind == "Hopf":
        r2 = np.sum(np.abs(z) ** 2, axis=-1)
        if np.any(r2 == 0):
            raise DomainError("the Hopf metric is undefined at z = 0")
        return (4.0 / r2)[..., None, None] * np.eye(n, dtype=complex)
    return _taylor(field, z, 0)[..., 0]


def _powers(x: np.ndarray, top: int) -> np.ndarray:
    """x^0 .. x^top along a new last axis, by repeated multiplication."""
    return np.cumprod(np.stack([np.ones_like(x)] + [x] * top, -1), -1)


def _monomial_taylor(rows: np.ndarray, p: np.ndarray, alg):
    """Taylor coefficients of the monomials (p + zeta)^rows[t] around the
    points p (..., 2n) over the basis exponents e_s of ``alg``: the pairs
    (t, s) with e_s <= A = rows[t], row-major, and there the coefficients
    prod_v C(A_v, e_v) p_v^(A_v - e_v), shape (..., P); all others are 0."""
    t, s = np.nonzero((rows[:, None] >= alg.exponent_array).all(axis=-1))
    A, e = rows[t], alg.exponent_array[s]
    top = int(rows.max(initial=0))
    fact = np.cumprod(np.r_[1.0, 1:top + 1])  # k! for k = 0..top
    binom = (fact[A] / (fact[e] * fact[A - e])).prod(axis=-1)
    v = np.arange(p.shape[-1])
    return t, s, binom * _powers(p, top)[..., v, A - e].prod(axis=-1)


def _taylor(field: MetricField, z: np.ndarray, order: int) -> np.ndarray:
    """Taylor coefficients of h around the points z (..., n) over the basis
    of ``jets._algebra(n, order)``, shape (..., n, n, S): [..., i, j, s] is
    the coefficient of zeta^e_s in h_{i jbar}(z + zeta).  A polynomial term
    adds its matrix times ``_monomial_taylor`` (the identity is the term with
    row 0), a Fourier mode its matrix times phase(z) prod_v c_v^e_v / e_v!,
    c = i pi (mu, conj(mu)); Hopf (one point) is 4 (r^2)^-1 I, r^2
    the polynomial with rows (e_k, e_k).  ``np.add.at`` adds the terms one
    by one in their order, as the jet sums did; a matrix product would
    reorder the sum and can leave -0.0 where they left +0.0."""
    n = field.n
    alg = _algebra(n, order)
    p = np.concatenate([z, np.conj(z)], axis=-1)
    if field.kind == "TorusFourier":
        mu, mats = _mu(field.rows, n), field.mats
        c = 1j * np.pi * np.concatenate([mu, np.conj(mu)], axis=-1)
        coef = _powers(c, order)[:, range(2 * n), alg.exponent_array].prod(
            axis=-1) / alg.factorials
        phase = np.exp(1j * np.pi * (z @ mu.T + np.conj(z) @ np.conj(mu).T))
        t, s = np.indices(coef.shape).reshape(2, -1)
        vals = (phase[..., None] * coef).reshape(phase.shape[:-1] + (-1,))
    elif field.kind in ("Flat", "NormalForm"):
        rows, mats = np.zeros((1, 2 * n), dtype=int), np.eye(n)[None]
        if field.kind == "NormalForm":  # each stored term, then its partner
            rows = np.concatenate([rows, np.stack(
                [field.rows, np.roll(field.rows, n, axis=1)], 1)
                .reshape(-1, 2 * n)])
            mats = np.concatenate([mats, np.stack(
                [field.mats, field.mats.conj().swapaxes(1, 2)], 1)
                .reshape(-1, n, n)])
        t, s, vals = _monomial_taylor(rows, p, alg)
    elif field.kind == "Hopf":  # r^2 I, inverted below
        t, s, vals = _monomial_taylor(np.tile(np.identity(n, int), 2), p, alg)
        mats = [np.eye(n)] * n
    else:
        raise StructuralError(f"unknown metric kind {field.kind!r}")
    mats = np.moveaxis(np.array(mats, complex).reshape(-1, n, n)[t], 0, -1)
    out = np.zeros(z.shape[:-1] + (n, n, alg.size), dtype=complex)
    np.add.at(out, (..., s), vals[..., None, None, :] * mats)
    if field.kind == "Hopf":
        out[range(n), range(n)] = 4.0 * inverse(out[0, 0], n)
    return out


def metric_jet(field: MetricField, z, order: int = 3) -> MetricJet:
    """Exact Taylor jets of h and h^{-1} at the point z, to ``order`` >= 1.
    A point where some coefficient of h or h^{-1} is not finite, or where
    h(z) is not positive definite, is refused with ValidationError."""
    if order < 1:
        raise ValidationError(f"metric jet order must be >= 1, got {order}")
    z = np.array(z, dtype=complex)  # a copy: memoized results make it read-only
    n = field.n
    if z.shape != (n,):
        raise StructuralError(f"point must be a complex {n}-vector")
    if not field.admissible(z):
        raise DomainError(f"point {z} outside the field's domain")
    w_min, hinv = np.nan, None
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            h = _taylor(field, z, order)
        except SingularSeriesError:  # Hopf: r^2 = sum z zbar underflowed
            h = np.array(np.nan)
        if np.isfinite(h).all():
            h0 = h[..., 0]
            w_min = np.linalg.eigvalsh((h0 + h0.conj().T) / 2).min()
        if w_min > _POS_EIG_TOL:
            hinv = jet_matrix_inverse(h, n)
    if hinv is None or not np.isfinite(hinv).all():
        raise ValidationError(
            f"metric not positive definite, or its jets not finite, at {z}: "
            f"min eigenvalue {w_min:.3e}")
    return MetricJet(n=n, order=order, point=z, h=_read_only(h),
                     hinv=_read_only(hinv))


# -- torus metric files ----------------------------------------------------


def write_torus_metric(field: MetricField, path):
    if field.kind != "TorusFourier":
        raise StructuralError("only TorusFourier fields can be written")
    n = field.n
    lines = [f"dim {n}"]
    for m, A in field.modes:
        nums = []
        for i in range(n):
            for j in range(n):
                nums.append(f"{float(A[i, j].real)!r} {float(A[i, j].imag)!r}")
        lines.append("freq " + " ".join(str(v) for v in m) + " ; " +
                     " ".join(nums))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def ingest_torus_metric(path) -> MetricField:
    """Parse and validate: Hermitian pairing, then positivity, certified by
    Weyl's bound or, when that is inconclusive, checked on a 5^{2n} grid."""
    with open(path, encoding="utf-8") as fh:
        raw = fh.read()
    lines = [ln.strip() for ln in raw.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("dim "):
        raise ParseError("first line must be 'dim n'")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise ParseError("malformed 'dim' header") from exc
    if len(lines[0].split()) != 2 or n < 1:
        raise ParseError("malformed 'dim' header")
    modes = []
    for ln in lines[1:]:
        if not ln.startswith("freq "):
            raise ParseError(f"unexpected line: {ln!r}")
        body = ln[5:]
        if ";" not in body:
            raise ParseError(f"missing ';' separator in: {ln!r}")
        head, tail = body.split(";", 1)
        try:
            m = [int(v) for v in head.split()]
        except ValueError as exc:
            raise ParseError(f"non-integer frequency in: {ln!r}") from exc
        if len(m) != 2 * n:
            raise ParseError(
                f"frequency vector must have {2*n} entries, got {len(m)}")
        try:
            vals = [float(v) for v in tail.split()]
        except ValueError as exc:
            raise ParseError(f"non-numeric matrix entry in: {ln!r}") from exc
        if len(vals) != 2 * n * n:
            raise ParseError(
                f"expected {2*n*n} matrix numbers, got {len(vals)}")
        A = np.array(vals[0::2]) + 1j * np.array(vals[1::2])
        if not np.isfinite(A).all():
            raise ParseError(f"non-finite matrix entry in: {ln!r}")
        modes.append((tuple(m), A.reshape(n, n)))
    field = torus_fourier(n, modes)  # raises ValidationError on bad pairing
    # a non-finite bound (an overflow) is inconclusive
    if not _POS_EIG_TOL < _weyl_margin(field) < np.inf:
        _positivity_sweep(field)
    return field


def _weyl_margin(field: MetricField) -> float:
    """Weyl's lower bound lambda_min(A_0) - sum_{m != 0} ||A_m||_2 on the
    smallest eigenvalue of h anywhere on the torus.  Above _POS_EIG_TOL it
    certifies positivity at every point, sampled or not (A_0 symmetrized
    as A/2 + A^H/2: A + A^H can overflow)."""
    zero = (0,) * (2 * field.n)
    margin = 0.0
    for m, A in field.modes:
        if m == zero:
            margin += float(np.linalg.eigvalsh(A / 2 + A.conj().T / 2)[0])
        else:
            margin -= float(np.linalg.norm(A, 2))
    return margin


def _positivity_sweep(field: MetricField, chunk: int = 4096):
    """Raise ValidationError at the first point, in np.ndindex order over
    x in {0, 0.2, ..., 0.8}^{2n}, where h is not positive definite (a
    non-finite smallest eigenvalue counts as not positive).  Points
    go through ``evaluate`` ``chunk`` mode-points at a time (one matrix per
    point and mode), so memory stays flat in n and in the mode count."""
    n = field.n
    shape = (5,) * (2 * n)
    grid = np.linspace(0.0, 0.8, 5)
    chunk = max(1, chunk // max(1, len(field.modes)))
    for lo in range(0, 5 ** (2 * n), chunk):
        idx = np.arange(lo, min(lo + chunk, 5 ** (2 * n)))
        x = grid[np.stack(np.unravel_index(idx, shape), axis=-1)]
        hm = evaluate(field, x[:, :n] + 1j * x[:, n:])
        w = np.linalg.eigvalsh(
            (hm + np.conj(np.swapaxes(hm, -1, -2))) / 2)[:, 0]
        bad = np.flatnonzero((w <= _POS_EIG_TOL) | ~np.isfinite(w))
        if bad.size:
            k = bad[0]
            raise ValidationError(
                f"metric loses positivity at x={x[k].tolist()}: "
                f"min eigenvalue {w[k]:.3e}")
