"""Connections as jet matrices: the Chern and Bismut tables, the Levi-Civita
metric derivatives and the fiber connections are array products.  The index
loops they replaced survive here as references: Levi-Civita must agree bit
for bit, Chern and Bismut to 1e-15 relative (a product's terms are summed in
another order), the bundle adjoints to 1e-14."""

import numpy as np
import pytest

from hermitia import forms as FO
from hermitia.connection import bismut, chern, levi_civita
from hermitia.errors import ValidationError
from hermitia.forms import (ConnectionJet, FormJet, chern_connection,
                            check_metric_compatible, dbar_star,
                            partial_star, random_form,
                            random_metric_connection, trivial_connection)
from hermitia.jets import Jet, wirtinger
from hermitia.metric import metric_jet, normal_form_skt
from reference import (CASES, constant, dz, h_jets, hopf_jet, jet_array,
                       point, slot_map, table_jets, truncate)


# -- the loop references ----------------------------------------------------


def _H_up(mj):
    """Inverse complexified metric H^{AB} as a (2n, 2n) object array."""
    n = mj.n
    hinv = h_jets(mj)[1]
    U = np.full((2 * n, 2 * n), constant(0.0, n, mj.order), dtype=object)
    U[:n, n:] = hinv.T
    U[n:, :n] = hinv
    return U


def _H_low(mj):
    n = mj.n
    h = h_jets(mj)[0]
    H = np.full((2 * n, 2 * n), constant(0.0, n, mj.order), dtype=object)
    for i in range(n):
        for j in range(n):
            H[i][n + j] = h[i][j]
            H[n + i][j] = h[j][i]
    return H


def _ref_levi_civita(mj):
    n = mj.n
    K = mj.order - 1
    H = _H_low(mj)
    U = _H_up(mj)
    Ut = np.empty_like(U)
    for idx in np.ndindex(U.shape):
        Ut[idx] = truncate(U[idx], K)
    dH = np.empty((2 * n, 2 * n, 2 * n), dtype=object)  # dH[B][A][E]
    for A in range(2 * n):
        for E in range(2 * n):
            for B in range(2 * n):
                dH[B][A][E] = dz(H[A][E], B, n)
    zero = constant(0.0, n, K)
    G = np.full((2 * n, 2 * n, 2 * n), zero, dtype=object)
    for A in range(2 * n):
        for B in range(A, 2 * n):
            for C in range(2 * n):
                acc = zero
                for E in range(2 * n):
                    u = Ut[C][E]
                    if u.max_abs() == 0:
                        continue
                    acc = acc + 0.5 * u * (dH[B][A][E] + dH[A][B][E]
                                           - dH[E][A][B])
                G[A][B][C] = acc
                G[B][A][C] = acc
    return G


def _ref_chern(mj):
    n, K = mj.n, mj.order - 1
    h, hinv = h_jets(mj)
    zero = constant(0.0, n, K)
    G = np.full((2 * n, n, n), zero, dtype=object)
    for i in range(n):
        for a in range(n):
            for b in range(n):
                acc = zero
                for q in range(n):
                    acc = acc + truncate(hinv[q][b], K) * \
                        wirtinger(h[a][q], "holo", i)
                G[i][a][b] = acc
    return G


def _ref_bismut(mj):
    n, K = mj.n, mj.order - 1
    h, hinv = h_jets(mj)
    zero = constant(0.0, n, K)
    G = np.full((2 * n, n, n), zero, dtype=object)
    for a in range(n):
        for b in range(n):
            for i in range(n):
                acc = zero
                for q in range(n):
                    acc = acc + truncate(hinv[q][b], K) * \
                        wirtinger(h[i][q], "holo", a)
                G[i][a][b] = acc
            for j in range(n):
                acc = zero
                for e in range(n):
                    acc = acc + truncate(hinv[e][b], K) * (
                        wirtinger(h[a][e], "antiholo", j)
                        - wirtinger(h[a][j], "antiholo", e))
                G[n + j][a][b] = acc
    return G


def _ref_random_metric_connection(mj, r, seed):
    n = mj.n
    rng = np.random.default_rng(seed)
    z = constant(0.0, n, mj.order)
    one = constant(1.0, n, mj.order)
    amats, bmats = [], []
    for _ in range(n):
        A = [[None] * r for _ in range(r)]
        B = [[None] * r for _ in range(r)]
        for al in range(r):
            for be in range(r):
                shape = z.coeffs.shape
                A[al][be] = Jet(n, z.order,
                                (rng.standard_normal(shape)
                                 + 1j * rng.standard_normal(shape)) * 0.3)
        for al in range(r):
            for be in range(r):
                B[al][be] = A[be][al].conj() * (-1.0)
        amats.append(tuple(tuple(row) for row in A))
        bmats.append(tuple(tuple(row) for row in B))
    fiber = tuple(tuple(one if a == b else z for b in range(r))
                  for a in range(r))
    return tuple(amats), tuple(bmats), fiber


def _ref_check_metric_compatible(conn, n, tol=1e-10):
    r = conn.r
    fiber, amats, bmats = (jet_array(x, n)
                           for x in (conn.fiber, conn.amats, conn.bmats))
    for i in range(n):
        for al in range(r):
            for be in range(r):
                lhs = wirtinger(fiber[al][be], "holo", i)
                rhs = constant(0.0, n, lhs.order)
                for ga in range(r):
                    rhs = rhs + amats[i][al][ga] * fiber[ga][be]
                    rhs = rhs + (bmats[i][be][ga].conj()
                                 * fiber[al][ga])
                d = lhs + rhs * (-1.0)
                if d.max_abs() > tol:
                    raise ValidationError(
                        "connection not metric-compatible at fiber entry "
                        f"({al}, {be}), direction z^{i + 1}")


def _ref_d_e_star(phi, conn, side):
    """The scalar adjoint on each fiber component, then the connection term
    entry by entry."""
    mj, n = phi.mj, phi.n
    comps = [FormJet(mj, phi.p, phi.q, 1, phi.coeffs[:, :, al:al + 1].copy())
             for al in range(phi.r)]
    stars = [FO._d_star(c, side) for c in comps]
    acc = jet_array(np.concatenate([d.coeffs for d in stars], axis=2), n)
    mats = jet_array((conn.bmats, conn.amats)[side], n)
    h_up = jet_array(FO._h_up(mj, side), n)
    for al, c in enumerate(comps):
        for k in range(phi.n):
            ck = jet_array(slot_map(c, side, k, -1).coeffs, n)
            for m in range(phi.n):
                coef = np.array([h_up[k, m] * mats[m][al][be]
                                 for be in range(phi.r)], dtype=object)
                acc = acc + ck * (coef * (-1.0))
    return acc


# -- comparisons ------------------------------------------------------------


def _coeffs(jets):
    return np.stack([j.coeffs for j in jets.ravel()])


def _rel_gap(got, want):
    """Largest coefficient difference of two jet arrays over the largest
    coefficient of want (0 if both vanish)."""
    assert got.shape == want.shape
    assert [j.order for j in got.flat] == [j.order for j in want.flat]
    g, w = _coeffs(got), _coeffs(want)
    scale = np.max(np.abs(w))
    gap = np.max(np.abs(g - w))
    return gap / scale if scale else gap


@pytest.mark.parametrize("family,n,order", CASES)
def test_tables_match_loop_references(family, n, order):
    fld, z = point(family, n)
    mj = metric_jet(fld, z, order=order)
    got = table_jets(mj, levi_civita(mj))
    want = _ref_levi_civita(mj)
    assert _coeffs(got).tobytes() == _coeffs(want).tobytes()
    assert [j.order for j in got.flat] == [j.order for j in want.flat]
    assert _rel_gap(table_jets(mj, chern(mj)), _ref_chern(mj)) <= 1e-15
    assert _rel_gap(table_jets(mj, bismut(mj)), _ref_bismut(mj)) <= 1e-15


@pytest.mark.parametrize("family,n,order", [
    (family, n, order) for family in ("flat", "separable-torus")
    for n in (1, 2, 3) for order in (1, 2, 3)])
def test_zero_heavy_tables_match_loop_references(family, n, order):
    # flat and diagonal tables are mostly exact zeros, where a -0.0 from a
    # product order or a zero jet summed in would change the bytes
    test_tables_match_loop_references(family, n, order)


@pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (3, 2)])
def test_random_metric_connection_matches_tuple_build_bitwise(n, r):
    mj = hopf_jet(n)
    conn = random_metric_connection(mj, r=r, seed=7)
    assert isinstance(conn, ConnectionJet)
    assert conn.amats.shape[:-1] == conn.bmats.shape[:-1] == (n, r, r)
    assert conn.fiber.shape[:-1] == (r, r)
    for got, want in zip((conn.amats, conn.bmats, conn.fiber),
                         _ref_random_metric_connection(mj, r, 7)):
        want = np.array(want, dtype=object)
        assert _coeffs(jet_array(got, n)).tobytes() == _coeffs(want).tobytes()


def test_trivial_and_chern_connections_match_tuple_build():
    mj = hopf_jet(3)
    triv = trivial_connection(mj, r=2)
    assert not triv.amats.any()
    assert triv.bmats.shape[:-1] == (3, 2, 2)
    assert _coeffs(jet_array(triv.fiber, 3)).tobytes() == _coeffs(np.array(
        [[constant(float(a == b), 3, 3) for b in range(2)]
         for a in range(2)], dtype=object)).tobytes()
    conn = chern_connection(mj)
    assert _rel_gap(jet_array(conn.amats, 3), _ref_chern(mj)[:3]) <= 1e-15
    assert all(j.max_abs() == 0 and j.order == 2
               for j in jet_array(conn.bmats, 3).flat)
    assert conn.fiber is mj.h
    assert _coeffs(jet_array(conn.fiber, 3)).tobytes() == mj.h.tobytes()


def _bundle_cases():
    hopf, skt = hopf_jet(2), metric_jet(normal_form_skt(3, 5),
                                     0.05 * (1 + 1j) * np.ones(3), order=3)
    return [(mj, conn) for mj in (hopf, skt)
            for conn in (random_metric_connection(mj, r=2, seed=3),
                         chern_connection(mj))]


def test_bundle_adjoints_match_fiber_split_reference():
    rng = np.random.default_rng(80)
    for mj, conn in _bundle_cases():
        n = mj.n
        for p in range(n + 1):
            for q in range(n + 1):
                phi = random_form(mj, p, q, rng, r=conn.r)
                for op, side in ((dbar_star, FO.ANTI),
                                 (partial_star, FO.HOLO)):
                    got = jet_array(op(phi, conn).coeffs, n)
                    want = _ref_d_e_star(phi, conn, side)
                    assert got.shape == want.shape
                    gap = max((x - y).max_abs()
                              for x, y in zip(got.flat, want.flat))
                    assert gap <= 1e-14, (n, p, q, side)


def _message(check, conn, n):
    try:
        check(conn, n)
    except ValidationError as exc:
        return str(exc)
    return None


def test_metric_compatibility_names_the_reference_entry():
    mj = hopf_jet(2)
    triv = trivial_connection(mj, r=2)
    bad = chern_connection(mj)
    broken = ConnectionJet(r=2, amats=triv.amats, bmats=triv.bmats,
                           fiber=bad.fiber)
    got = _message(check_metric_compatible, broken, mj.n)
    assert got is not None
    assert got == _message(_ref_check_metric_compatible, broken, mj.n)
    for _, conn in _bundle_cases():
        n = conn.amats.shape[0]
        assert _message(check_metric_compatible, conn, n) is None
        assert _message(_ref_check_metric_compatible, conn, n) is None
