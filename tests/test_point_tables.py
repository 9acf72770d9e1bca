"""Point tables read off jet coefficients (``jets.point_derivatives``),
checked bit for bit against the ``wirtinger(...).const`` loops they replaced,
which survive here as references."""

import numpy as np
import pytest

from hermitia.connection import ChristoffelTable, bismut, chern, levi_civita
from hermitia.curvature import log_det_jet, ricci_first_chern_logdet
from hermitia.errors import OrderExhaustedError
from hermitia.forms import (chern_connection, random_metric_connection,
                            second_hermitian_ricci)
from hermitia.jets import constant, jet_mul, variable, wirtinger
from hermitia.metric import (derivative_tables, hopf_metric, metric_jet,
                             normal_coordinates_random, normal_form_skt,
                             random_torus_fourier)
from hermitia.structure import laplacian_compare


def _dz(jet, E, n):
    return wirtinger(jet, "holo", E) if E < n else \
        wirtinger(jet, "antiholo", E - n)


def _const_table_loops(table: ChristoffelTable):
    out = np.zeros(table.entries.shape, dtype=complex)
    for idx in np.ndindex(table.entries.shape):
        out[idx] = table.entries[idx].const
    return out


def _dconst_table_loops(table: ChristoffelTable):
    n = table.n
    out = np.zeros((2 * n,) + table.entries.shape, dtype=complex)
    for idx in np.ndindex(table.entries.shape):
        for E in range(2 * n):
            out[(E,) + idx] = _dz(table.entries[idx], E, n).const
    return out


def _derivative_tables_loops(mj):
    n = mj.n
    d1 = np.zeros((n, n, n), dtype=complex)
    db1 = np.zeros((n, n, n), dtype=complex)
    d2 = np.zeros((n, n, n, n), dtype=complex) if mj.order >= 2 else None
    for i in range(n):
        for j in range(n):
            jet = mj.h[i][j]
            for k in range(n):
                dk = wirtinger(jet, "holo", k)
                d1[k, i, j] = dk.const
                db1[k, i, j] = wirtinger(jet, "antiholo", k).const
                if d2 is not None:
                    for l in range(n):
                        d2[k, l, i, j] = wirtinger(dk, "antiholo", l).const
    return d1, db1, d2


def _at0_loops(m):
    k = m.shape[0]
    return np.array([[m[i][j].const for j in range(k)] for i in range(k)])


def _same_bits(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


def _point(family, n):
    rng = np.random.default_rng(10 * n + len(family))
    if family == "hopf":
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return hopf_metric(n), v * (1.5 / np.linalg.norm(v))
    if family == "skt":
        return normal_form_skt(n, 3), np.zeros(n, complex)
    if family == "normal-coordinates":    # dh(0) != 0
        return normal_coordinates_random(n, 4), np.zeros(n, complex)
    x = rng.uniform(0.0, 1.0, 2 * n)
    return random_torus_fourier(n, 5), x[:n] + 1j * x[n:]


CASES = [(family, n, order)
         for family in ("hopf", "skt", "normal-coordinates", "random-torus")
         for n in (1, 2, 3, 4) for order in (1, 2, 3)
         if not (family == "hopf" and n == 1)]


@pytest.mark.parametrize("family,n,order", CASES)
def test_point_tables_match_wirtinger_loops_bitwise(family, n, order):
    fld, z = _point(family, n)
    mj = metric_jet(fld, z, order=order)
    assert _same_bits(mj.h_at0(), _at0_loops(mj.h))
    assert _same_bits(mj.hinv_at0(), _at0_loops(mj.hinv))
    got, want = derivative_tables(mj), _derivative_tables_loops(mj)
    for a, b in zip(got[:2], want[:2]):
        assert _same_bits(a, b)
    if order == 1:
        assert got[2] is None
    else:
        assert _same_bits(got[2], want[2])
    for table in (levi_civita(mj), chern(mj), bismut(mj)):
        assert _same_bits(table.const_table(), _const_table_loops(table))
        if order == 1:   # the table is of order 0
            with pytest.raises(OrderExhaustedError):
                table.dconst_table()
        else:
            assert _same_bits(table.dconst_table(),
                              _dconst_table_loops(table))
    if family == "normal-coordinates" and n >= 2:   # antisymmetric: 0 at n=1
        assert np.max(np.abs(got[0])) > 1e-3


@pytest.mark.parametrize("family,n", [("hopf", 2), ("skt", 3),
                                      ("normal-coordinates", 3),
                                      ("random-torus", 2)])
def test_point_consumers_match_wirtinger_loops(family, n):
    fld, z = _point(family, n)
    mj = metric_jet(fld, z, order=3)
    # -d^2 log det h, read off one coefficient per entry: bit for bit
    ld = log_det_jet(mj.h)
    want = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            want[i, j] = -wirtinger(wirtinger(ld, "holo", i),
                                    "antiholo", j).const
    assert _same_bits(ricci_first_chern_logdet(mj).matrix, want)

    # the Laplacians at the point: the same terms, summed in another order
    f = jet_mul(variable(n, 3, 0), variable(n, 3, n - 1, barred=True)) \
        + jet_mul(variable(n, 3, 0), variable(n, 3, 0)) \
        + variable(n, 3, n - 1) + constant(0.3, n, 3)
    g = _const_table_loops(levi_civita(mj))
    can = corr_bar = corr_hol = 0.0 + 0.0j
    for i in range(n):
        fi = wirtinger(f, "holo", i)
        for j in range(n):
            can -= mj.h_up(i, j).const * wirtinger(fi, "antiholo", j).const
    for l in range(n):
        dfb = wirtinger(f, "antiholo", l).const
        dfh = wirtinger(f, "holo", l).const
        for i in range(n):
            for j in range(n):
                corr_bar += 2 * mj.h_up(i, j).const * g[i, n + j, n + l] * dfb
                corr_hol += 2 * mj.h_up(i, j).const * g[j, n + i, l] * dfh
    got = np.array(laplacian_compare(mj, f))
    want = np.array([can + corr_bar, can + corr_hol, can])
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    # the second Hermitian Ricci of a fiber connection
    for conn in (chern_connection(mj), random_metric_connection(mj, 2, 1)):
        A, B, r = conn.amats, conn.bmats, conn.r
        want = np.zeros((r, r), dtype=complex)
        for i in range(n):
            for j in range(n):
                up = mj.h_up(i, j).const
                for al in range(r):
                    for ga in range(r):
                        v = (-wirtinger(A[i][al][ga], "antiholo", j).const
                             + wirtinger(B[j][al][ga], "holo", i).const)
                        for de in range(r):
                            v -= A[i][al][de].const * B[j][de][ga].const
                            v += B[j][al][de].const * A[i][de][ga].const
                        for be in range(r):
                            want[al, be] += up * v * conn.fiber[ga][be].const
        got = second_hermitian_ricci(conn, mj)
        assert np.max(np.abs(got - want)) <= \
            1e-13 * max(1.0, np.max(np.abs(want)))
