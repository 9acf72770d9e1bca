"""Christoffel symbols of the complexified Levi-Civita connection and the
coefficient tables of the Chern and Bismut connections, as arrays of Jets of
order K-1.

``levi_civita`` holds Gamma_{AB}^C at [A, B, C], shape (2n, 2n, 2n).
``chern`` and ``bismut`` have shape (2n, n, n): [d, a, b] is the coefficient
of nabla_d acting on the frame field e_a with output component e_b
(directions d may be barred; bundle indices are unbarred).  Point values and
first derivatives are read with ``jets.point_derivatives``.

Index conventions (see docs/conventions.md): capital indices A, B, C run over
0..2n-1 where 0..n-1 are unbarred (z) and n..2n-1 are barred (zbar)
directions.  The complexified metric has the block structure
H_{i jbar} = h_{i jbar}, H_{ibar j} = h_{j ibar}, H_{ij} = H_{ibar jbar} = 0,
and the inverse blocks are H^{i jbar} = hinv[j][i], H^{ibar j} = hinv[i][j].
"""

from __future__ import annotations

import numpy as np

from .jets import constant, truncate, wirtinger
from .metric import MetricJet, per_point

__all__ = ["levi_civita", "chern", "bismut"]


def _first_derivatives(mj: MetricJet) -> np.ndarray:
    """d[0|1, i, a, q] = d h_{a qbar} / dz^i | dzbar^i, a (2, n, n, n) jet
    array of order K-1."""
    n = mj.n
    d = np.empty((2, n, n, n), dtype=object)
    for s, i, a, q in np.ndindex(d.shape):
        d[s, i, a, q] = wirtinger(mj.h[a][q], ("holo", "antiholo")[s], i)
    return d


def _H_up(mj: MetricJet):
    """Inverse complexified metric H^{AB} as a (2n, 2n) object array."""
    n = mj.n
    U = np.full((2 * n, 2 * n), constant(0.0, n, mj.order), dtype=object)
    U[:n, n:] = mj.hinv.T
    U[n:, :n] = mj.hinv
    return U


@per_point
def levi_civita(mj: MetricJet) -> np.ndarray:
    """Gamma_{AB}^C = (1/2) H^{CE} (d_B H_{AE} + d_A H_{BE} - d_E H_{AB})."""
    d = _first_derivatives(mj)
    n, K = mj.n, mj.order - 1
    zero = constant(0.0, n, K)
    U = _H_up(mj)
    Ut = np.empty_like(U)
    for idx in np.ndindex(U.shape):
        Ut[idx] = truncate(U[idx], K)
    # dH[B][A][E] = d H_{AE} / dz^B: H_{a ebar} = h_{a ebar} and
    # H_{abar e} = h_{e abar}, the unmixed blocks vanish
    dH = np.full((2 * n, 2 * n, 2 * n), zero, dtype=object)
    dH[:, :n, n:] = d.reshape(2 * n, n, n)
    dH[:, n:, :n] = d.transpose(0, 1, 3, 2).reshape(2 * n, n, n)
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
                G[B][A][C] = acc  # torsion-free symmetry
    return G


def chern(mj: MetricJet) -> np.ndarray:
    """Gamma_{i a}^b = d h_{a qbar} / dz^i h^{b qbar}, that is dh . h^-1 on
    the unbarred directions; barred directions zero."""
    d = _first_derivatives(mj)
    n = mj.n
    return np.concatenate([d[0] @ mj.hinv, np.full(
        (n, n, n), constant(0.0, n, mj.order - 1), dtype=object)])


def bismut(mj: MetricJet) -> np.ndarray:
    """Unbarred direction: Gamma~_{i a}^b = h^{b qbar} d h_{i qbar} / dz^a,
    the Chern tensor with direction and acted index swapped.  Barred
    direction: twice the Levi-Civita coefficient,
    Gamma~_{jbar a}^b
        = h^{b ebar} (d h_{a ebar}/dzbar^j - d h_{a jbar}/dzbar^e),
    that is (dbar h - dbar h^T) . h^-1 with dbar h[j, a, e].
    """
    d = _first_derivatives(mj)
    return np.concatenate([(d[0] @ mj.hinv).transpose(1, 0, 2),
                           (d[1] - d[1].transpose(2, 1, 0)) @ mj.hinv])
