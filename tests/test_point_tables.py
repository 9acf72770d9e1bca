"""Point tables read off jet coefficients (``jets.point_derivatives``),
checked bit for bit against the ``wirtinger(...).const`` loops they replaced,
which survive here as references."""

import numpy as np
import pytest

from hermitia.connection import bismut, chern, levi_civita
from hermitia.errors import OrderExhaustedError
from hermitia.forms import (chern_connection, random_metric_connection,
                            second_hermitian_ricci)
from hermitia.jets import point_derivatives, wirtinger
from hermitia.metric import derivative_tables, metric_jet
from hermitia.structure import laplacian_compare
from reference import (CASES, constant, derivative_tables_loops, dz, h_jets,
                       jet_array, point, table_jets, variable)


def _const_loops(jets):
    out = np.zeros(jets.shape, dtype=complex)
    for idx in np.ndindex(jets.shape):
        out[idx] = jets[idx].const
    return out


def _dconst_table_loops(table, n):
    out = np.zeros((2 * n,) + table.shape, dtype=complex)
    for idx in np.ndindex(table.shape):
        for E in range(2 * n):
            out[(E,) + idx] = dz(table[idx], E, n).const
    return out


def _same_bits(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("family,n,order", CASES)
def test_point_tables_match_wirtinger_loops_bitwise(family, n, order):
    fld, z = point(family, n)
    mj = metric_jet(fld, z, order=order)
    h, hinv = h_jets(mj)
    assert _same_bits(mj.h_at0(), _const_loops(h))
    assert _same_bits(mj.hinv_at0(), _const_loops(hinv))
    got, want = derivative_tables(mj), derivative_tables_loops(mj)
    for a, b in zip(got[:2], want[:2]):
        assert _same_bits(a, b)
    if order == 1:
        assert got[2] is None
    else:
        assert _same_bits(got[2], want[2])
    for table in (levi_civita(mj), chern(mj), bismut(mj)):
        jets = table_jets(mj, table)
        assert _same_bits(point_derivatives(table, n), _const_loops(jets))
        if order == 1:   # the table is of order 0
            with pytest.raises(OrderExhaustedError):
                point_derivatives(table, n, 1)
        else:
            assert _same_bits(point_derivatives(table, n, 1),
                              _dconst_table_loops(jets, n))
    if family == "normal-coordinates" and n >= 2:   # antisymmetric: 0 at n=1
        assert np.max(np.abs(got[0])) > 1e-3


@pytest.mark.parametrize("family,n", [("hopf", 2), ("skt", 3),
                                      ("normal-coordinates", 3),
                                      ("random-torus", 2)])
def test_point_consumers_match_wirtinger_loops(family, n):
    fld, z = point(family, n)
    mj = metric_jet(fld, z, order=3)
    # the Laplacians at the point: the same terms, summed in another order
    f = (variable(n, 3, 0) * variable(n, 3, n - 1, barred=True)) \
        + (variable(n, 3, 0) * variable(n, 3, 0)) \
        + variable(n, 3, n - 1) + constant(0.3, n, 3)
    g = _const_loops(table_jets(mj, levi_civita(mj)))
    up = _const_loops(h_jets(mj)[1]).T   # h^{i jbar} at [i, j]
    can = corr_bar = corr_hol = 0.0 + 0.0j
    for i in range(n):
        fi = wirtinger(f, "holo", i)
        for j in range(n):
            can -= up[i, j] * wirtinger(fi, "antiholo", j).const
    for l in range(n):
        dfb = wirtinger(f, "antiholo", l).const
        dfh = wirtinger(f, "holo", l).const
        for i in range(n):
            for j in range(n):
                corr_bar += 2 * up[i, j] * g[i, n + j, n + l] * dfb
                corr_hol += 2 * up[i, j] * g[j, n + i, l] * dfh
    got = np.array(laplacian_compare(mj, f.coeffs))
    want = np.array([can + corr_bar, can + corr_hol, can])
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    # the second Hermitian Ricci of a fiber connection
    for conn in (chern_connection(mj), random_metric_connection(mj, 2, 1)):
        A, B, r = jet_array(conn.amats, n), jet_array(conn.bmats, n), conn.r
        F = jet_array(conn.fiber, n)
        want = np.zeros((r, r), dtype=complex)
        for i in range(n):
            for j in range(n):
                for al in range(r):
                    for ga in range(r):
                        v = (-wirtinger(A[i][al][ga], "antiholo", j).const
                             + wirtinger(B[j][al][ga], "holo", i).const)
                        for de in range(r):
                            v -= A[i][al][de].const * B[j][de][ga].const
                            v += B[j][al][de].const * A[i][de][ga].const
                        for be in range(r):
                            want[al, be] += (up[i, j] * v
                                             * F[ga][be].const)
        got = second_hermitian_ricci(conn, mj)
        assert np.max(np.abs(got - want)) <= \
            1e-13 * max(1.0, np.max(np.abs(want)))
