import numpy as np

from hermitia.connection import bismut, chern, levi_civita
from hermitia.jets import point_derivatives, wirtinger
from hermitia.metric import (flat_metric, hopf_metric, metric_jet,
                             normal_form_random)
from reference import derivative_tables_loops, h_jets


def _mj(kind="hopf", n=2, seed=0):
    if kind == "flat":
        return metric_jet(flat_metric(n), np.zeros(n), order=3)
    if kind == "hopf":
        z = np.linspace(1.0, 1.5, n) + 0.2j
        return metric_jet(hopf_metric(n), z, order=3)
    z = 0.1 * (np.arange(n) + 1.0) * (1 + 1j)
    return metric_jet(normal_form_random(n, seed), z, order=3)


def test_flat_christoffels_vanish():
    mj = _mj("flat")
    for table in (levi_civita(mj), chern(mj), bismut(mj)):
        assert np.max(np.abs(point_derivatives(table, mj.n))) < 1e-14


def test_levi_civita_symmetric_lower_indices():
    mj = _mj("rand", seed=3)
    g = point_derivatives(levi_civita(mj), mj.n)
    assert np.max(np.abs(g - np.transpose(g, (1, 0, 2)))) < 1e-12


def test_chern_matches_direct_formula():
    # Gamma_{ik}^s = h^{s lbar} d h_{k lbar} / d z^i
    mj = _mj("rand", seed=5)
    n = mj.n
    table = point_derivatives(chern(mj), n)
    h0inv = np.linalg.inv(mj.h_at0())
    dh = derivative_tables_loops(mj)[0]
    # h^{s lbar} = (H^{-1})_{ls} with H_{kl} = h_{k lbar}
    want = np.einsum("ikl,ls->iks", dh, h0inv)
    assert np.max(np.abs(table[:n] - want)) < 1e-10


def test_levi_civita_metric_compatibility():
    # d_A h_{BC} = Gamma_{AB}^D h_{DC} + Gamma_{AC}^D h_{BD} for the real
    # metric pairing g(d_B, d_Cbar) = h_{B Cbar}; checked on the mixed block.
    mj = _mj("hopf", n=2)
    n = mj.n
    lc = levi_civita(mj)[..., 0]
    h = h_jets(mj)[0]
    for a in range(n):          # derivative along z^a
        for b in range(n):      # unbarred slot
            for c in range(n):  # barred slot
                lhs = wirtinger(h[b][c], "holo", a).const
                rhs = 0.0 + 0.0j
                for d in range(n):
                    rhs += lc[a, b, d] * h[d][c].const
                    rhs += (lc[a, n + c, n + d]
                            * h[b][d].const)
                assert abs(lhs - rhs) < 1e-10


def test_bismut_hermitian_compatibility():
    # The Bismut table lowers to a connection preserving h as well: the
    # conjugate-pair derivative identity mirrored on the antiholomorphic side.
    mj = _mj("rand", seed=1)
    n = mj.n
    t = point_derivatives(bismut(mj), n)
    tb = np.conj(t)
    # d_A h pairing via both one-sided tables must reproduce dh on constants
    # (entries [d][a][b] with derivative direction d in 0..2n-1).
    dh = derivative_tables_loops(mj)[0]
    h0 = mj.h_at0()
    want = (np.einsum("iks,sl->ikl", t[:n], h0)
            + np.einsum("ils,ks->ikl", np.conj(t[n:]), h0))
    assert np.max(np.abs(dh - want)) < 1e-10


def test_chern_no_antiholomorphic_part():
    mj = _mj("rand", seed=2)
    n = mj.n
    t = point_derivatives(chern(mj), n)
    assert t.shape == (2 * n, n, n)
    assert np.max(np.abs(t[n:])) < 1e-14
