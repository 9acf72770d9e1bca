"""Reference code the tests compare the package against: second routes to
quantities the package computes one way, readers of what it writes, and the
point makers several test modules share."""

import csv
from bisect import bisect_left
from itertools import combinations
from math import factorial

import numpy as np

from hermitia import forms as FO
from hermitia.errors import StructuralError
from hermitia.flow import FlowState
from hermitia.jets import (Jet, _algebra, _algebra_of, conj, jet_inverse,
                           wirtinger)
from hermitia.metric import (_mu, flat_metric, hopf_metric, metric_jet,
                             normal_coordinates_random, normal_form_skt,
                             random_torus_fourier, separable_kahler_torus)
from hermitia.positivity import _check_hermitian, _verdict


def constant(value, n, order):
    """The constant jet ``value``."""
    c = np.zeros(_algebra(n, order).size, dtype=complex)
    c[0] = value
    return Jet(n, order, c)


def coefficients(jets):
    """The coefficients of an array of jets of one (n, order), stacked into
    one complex array of shape ``jets.shape + (size,)``."""
    return np.stack([j.coeffs for j in jets.flat]).reshape(jets.shape + (-1,))


def jet_array(coeffs, n, order=None):
    """The object array of Jets over the leading axes of a coefficient array
    of shape (..., size); the order defaults to the one the size gives."""
    if order is None:
        order = _algebra_of(n, coeffs.shape[-1]).order
    out = np.empty(coeffs.shape[:-1], dtype=object)
    out.reshape(-1)[:] = [Jet(n, order, row)
                          for row in coeffs.reshape(-1, coeffs.shape[-1])]
    return out


def variable(n, order, index, barred=False):
    """The jet of the formal variable z^index, or zbar^index if barred."""
    alg = _algebra(n, order)
    e = [0] * (2 * n)
    e[index + (n if barred else 0)] = 1
    c = np.zeros(alg.size, dtype=complex)
    c[alg.index[tuple(e)]] = 1.0
    return Jet(n, order, c)


def h_jets(mj):
    """h and h^-1 of a MetricJet as (n, n) object arrays of Jets."""
    return jet_array(mj.h, mj.n, mj.order), jet_array(mj.hinv, mj.n, mj.order)


def table_jets(mj, table):
    """A connection table of ``mj`` as an object array of order-(K-1) Jets."""
    return jet_array(table, mj.n, mj.order - 1)


def truncate(a, order):
    """Restrict a jet to a lower truncation order (prefix of the basis)."""
    if order > a.order:
        raise StructuralError(f"cannot raise order {a.order} to {order}")
    if order == a.order:
        return a
    return Jet(a.n, order, a.coeffs[:a._alg.size_at[order]])


def jet_matrix_inverse_by_jets(m):
    """Inverse of a square object array of Jets by Gaussian elimination one
    entry at a time: the route ``jet_matrix_inverse`` took before it worked
    on whole rows of a coefficient array.  Same pivots (the first row of
    largest constant-term modulus), same skipped zero rows."""
    k = m.shape[0]
    n, order = m[0, 0].n, m[0, 0].order
    aug = np.empty((k, 2 * k), dtype=object)
    for i in range(k):
        for j in range(k):
            aug[i, j] = m[i, j]
            aug[i, k + j] = constant(1.0 if i == j else 0.0, n, order)
    for col in range(k):
        piv = max(range(col, k), key=lambda r: abs(aug[r, col].const))
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        inv_piv = jet_inverse(aug[col, col])
        for j in range(2 * k):
            aug[col, j] = aug[col, j] * inv_piv
        for r in range(k):
            f = aug[r, col]
            if r == col or f.max_abs() == 0:
                continue
            for j in range(2 * k):
                aug[r, j] = aug[r, j] - f * aug[col, j]
    return aug[:, k:].copy()


def metric_jet_by_jets(field, z, order=3):
    """The (n, n) jets of h around z built by jet arithmetic, one term or
    mode and one entry at a time: the route ``metric_jet`` took before it
    wrote the Taylor coefficients in closed form."""
    n = field.n
    z = np.asarray(z, dtype=complex)

    def linear(coeffs_z, coeffs_zb, const=0.0):
        """const + sum_i coeffs_z[i] z_i + coeffs_zb[i] zbar_i."""
        out = constant(const, n, order)
        for i in range(n):
            if coeffs_z[i] != 0:
                out = out + coeffs_z[i] * variable(n, order, i)
            if coeffs_zb[i] != 0:
                out = out + coeffs_zb[i] * variable(n, order, i, barred=True)
        return out

    def exp_linear(lin):
        """exp of a jet with zero constant term, truncated at its order."""
        out = constant(1.0, n, order)
        term = constant(1.0, n, order)
        for k in range(1, order + 1):
            term = term * lin
            out = out + term * (1.0 / factorial(k))
        return out

    def monomial(alpha, beta):
        """(z + zeta)^alpha conj(z + zeta)^beta."""
        out = constant(1.0, n, order)
        for i in range(n):
            if alpha[i]:
                base = constant(z[i], n, order) + variable(n, order, i)
                for _ in range(alpha[i]):
                    out = out * base
            if beta[i]:
                base = constant(np.conj(z[i]), n, order) + \
                    variable(n, order, i, barred=True)
                for _ in range(beta[i]):
                    out = out * base
        return out

    h = np.empty((n, n), dtype=object)
    if field.kind == "Hopf":
        r2 = linear(np.conj(z), z, const=float(np.sum(np.abs(z) ** 2)))
        for k in range(n):
            r2 = r2 + variable(n, order, k) * \
                variable(n, order, k, barred=True)
        inv_r2 = jet_inverse(r2)
        for i in range(n):
            for j in range(n):
                h[i][j] = (4.0 * inv_r2) if i == j else constant(0.0, n, order)
    elif field.kind in ("Flat", "NormalForm"):
        for i in range(n):
            for j in range(n):
                h[i][j] = constant(1.0 if i == j else 0.0, n, order)
        for alpha, beta, M in field.terms:
            mono = monomial(alpha, beta)
            for i in range(n):
                for j in range(n):
                    if M[i, j] != 0:
                        h[i][j] = h[i][j] + M[i, j] * mono
    else:
        for i in range(n):
            for j in range(n):
                h[i][j] = constant(0.0, n, order)
        for m, A in field.modes:
            mu = _mu(m, n)
            phase0 = np.exp(1j * np.pi * (mu @ z + np.conj(mu) @ np.conj(z)))
            mode_jet = phase0 * exp_linear(linear(1j * np.pi * mu,
                                                  1j * np.pi * np.conj(mu)))
            for i in range(n):
                for j in range(n):
                    if A[i, j] != 0:
                        h[i][j] = h[i][j] + A[i, j] * mode_jet
    return h


def hopf_jet(n=2):
    z = np.array([1.0 + 0.0j] + [0.4 - 0.3j] * (n - 1))
    return metric_jet(hopf_metric(n), z, order=3)


def point(family, n):
    """A metric field and a point of it, one per family."""
    rng = np.random.default_rng(10 * n + len(family))
    if family == "hopf":
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return hopf_metric(n), v * (1.5 / np.linalg.norm(v))
    if family == "skt":
        return normal_form_skt(n, 3), np.zeros(n, complex)
    if family == "normal-coordinates":    # dh(0) != 0
        return normal_coordinates_random(n, 4), np.zeros(n, complex)
    x = rng.uniform(0.0, 1.0, 2 * n)
    if family == "flat":
        return flat_metric(n), x[:n] + 1j * x[n:]
    if family == "separable-torus":       # diagonal h, h_{k kbar}(z^k)
        return separable_kahler_torus(n, 1), x[:n] + 1j * x[n:]
    return random_torus_fourier(n, 5), x[:n] + 1j * x[n:]


# (family, n, jet order) of every point case; no Hopf point at n = 1
CASES = [(family, n, order)
         for family in ("hopf", "skt", "normal-coordinates", "random-torus")
         for n in (1, 2, 3, 4) for order in (1, 2, 3)
         if not (family == "hopf" and n == 1)]


def dz(jet, A, n):
    """d/dz^A for A < n, d/dzbar^(A - n) otherwise."""
    if A < n:
        return wirtinger(jet, "holo", A)
    return wirtinger(jet, "antiholo", A - n)


def derivative_tables_loops(mj):
    """(d1, db1, d2) of ``metric.derivative_tables``, one ``wirtinger``
    call per entry."""
    n = mj.n
    d1 = np.zeros((n, n, n), dtype=complex)
    db1 = np.zeros((n, n, n), dtype=complex)
    d2 = np.zeros((n, n, n, n), dtype=complex) if mj.order >= 2 else None
    h = h_jets(mj)[0]
    for i in range(n):
        for j in range(n):
            jet = h[i][j]
            for k in range(n):
                dk = wirtinger(jet, "holo", k)
                d1[k, i, j] = dk.const
                db1[k, i, j] = wirtinger(jet, "antiholo", k).const
                if d2 is not None:
                    for l in range(n):
                        d2[k, l, i, j] = wirtinger(dk, "antiholo", l).const
    return d1, db1, d2


def det_jet(m):
    """Determinant of a square matrix of Jets by Laplace expansion."""
    k = m.shape[0]
    if k == 1:
        return m[0][0]
    acc = None
    for j in range(k):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        term = m[0][j] * det_jet(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def log_det_jet(m):
    """log det of a matrix of Jets with positive-definite constant term,
    up to an additive constant (log of the constant determinant, which the
    derivatives never see)."""
    d = det_jet(m)
    c = d.const
    u = d * (1.0 / c) - 1.0  # zero constant term
    out = u * 0.0
    term = u * 0.0 + 1.0
    for k in range(1, d.order + 1):
        term = term * u
        out = out + term * ((-1.0) ** (k + 1) / k)
    return out


def p_positivity_verdicts_bruteforce(m, tol=1e-10):
    """The p-positivity verdicts, p = 1..r, from every p-subset of the
    eigenvalues."""
    lam = np.linalg.eigvalsh(_check_hermitian(m))
    sums = [[sum(c) for c in combinations(lam, p)]
            for p in range(1, len(lam) + 1)]
    return tuple(_verdict(float(min(s)), float(max(s)), tol) for s in sums)


def lambda_matrix_adjoint(phi):
    """Lambda as the pointwise adjoint of L."""
    return FO.star(FO.l_op, phi)


def form_conj(phi):
    """Complex conjugate form; bidegree (p, q) -> (q, p)."""
    out = conj(phi.coeffs.swapaxes(0, 1), phi.n)
    return FO.FormJet(phi.mj, phi.q, phi.p, phi.r,
                      out * float((-1) ** (phi.p * phi.q)))


def form_times(phi, c):
    """The form phi times the scalar Jet c, each coefficient times c at the
    lower of the two orders, as Jet * Jet takes it."""
    size = min(phi.coeffs.shape[-1], c.coeffs.size)
    alg = _algebra_of(phi.n, size)
    return FO.FormJet(phi.mj, phi.p, phi.q, phi.r,
                      alg.mul(phi.coeffs[..., :size], c.coeffs[:size]))


def insert_slot(tup, k):
    """Sign and tuple for dz^k moved into sorted position of tup; None if k
    already present."""
    if k in tup:
        return None
    pos = bisect_left(tup, k)
    return (-1) ** pos, tup[:pos] + (k,) + tup[pos:]


def remove_slot(tup, k):
    if k not in tup:
        return None
    pos = tup.index(k)
    return (-1) ** pos, tup[:pos] + tup[pos + 1:]


def slot_map(phi, side, k, d):
    """Slot k into (d = 1) or out of (d = -1) the `side` block of phi, as a
    walk over the index tuples of that block; a barred slot passes the p
    unbarred ones."""
    out = FO.zero_form(phi.mj, *FO._bumped(phi, side, d), phi.r, phi.order)
    deg = (phi.p, phi.q)[side]
    if not 0 <= deg + d <= phi.n:
        return out
    n = phi.n
    dst = FO._combo_index(n, deg + d)
    move = insert_slot if d > 0 else remove_slot
    base = 1 if side == FO.HOLO else (-1) ** phi.p
    src = FO._side_view(phi.coeffs, side)
    res = FO._side_view(out.coeffs, side)
    for s, T in enumerate(FO._combos(n, deg)):
        mv = move(T, k)
        if mv is None:
            continue
        sgn, T2 = mv
        f = float(base * sgn)
        for o in range(src.shape[1]):
            for al in range(phi.r):
                c = src[s, o, al]
                res[dst[T2], o, al] = res[dst[T2], o, al] + c * f
    return out


def read_grid_dump(path):
    """The FlowState that ``flow.write_grid_dump`` wrote to path."""
    with open(path) as f:
        meta = dict(tok.split("=", 1) for tok in f.readline()[1:].split())
        n, N = int(meta["dims"]), int(meta["N"])
        t, mu = float(meta["t"]), float(meta["mu"])
        rows = list(csv.reader(f))
    flat = np.zeros((N ** (2 * n), n, n), dtype=complex)
    for row in rows[1:]:
        s, i, j = int(row[0]), int(row[1]), int(row[2])
        flat[s, i, j] = float(row[3]) + 1j * float(row[4])
    h = flat.reshape((N,) * (2 * n) + (n, n))
    return FlowState(n=n, N=N, h=h, t=t, mu=mu)
