"""Christoffel symbols of the complexified Levi-Civita connection and the
coefficient tables of the Chern and Bismut connections, as coefficient
arrays of jets of order K-1, the last axis over the order-(K-1) basis.

``levi_civita`` holds Gamma_{AB}^C at [A, B, C], shape (2n, 2n, 2n, S).
``chern`` and ``bismut`` have shape (2n, n, n, S): [d, a, b] is the
coefficient of nabla_d acting on the frame field e_a with output component
e_b (directions d may be barred; bundle indices are unbarred).  Point values
and first derivatives are read with ``jets.point_derivatives``.

Index conventions (see docs/conventions.md): capital indices A, B, C run over
0..2n-1 where 0..n-1 are unbarred (z) and n..2n-1 are barred (zbar)
directions.  The complexified metric has the block structure
H_{i jbar} = h_{i jbar}, H_{ibar j} = h_{j ibar}, H_{ij} = H_{ibar jbar} = 0,
and the inverse blocks are H^{i jbar} = hinv[j][i], H^{ibar j} = hinv[i][j].

Every table is ``jets.matmul`` products of ``MetricJet.h``'s derivatives
with ``hinv``; ``jets.mul`` never returns -0.0, so the products' sums are
bit for bit the ones the entry-by-entry jet loops give.
"""

from __future__ import annotations

import numpy as np

from .jets import derivatives, matmul
from .metric import MetricJet, per_point

__all__ = ["levi_civita", "chern", "bismut"]


def _complexified(x: np.ndarray) -> np.ndarray:
    """[[0, x], [x^T, 0]] over the two index axes of (..., n, n, S): the
    complexified metric H of h, or its derivatives of ``derivatives(h)``."""
    n = x.shape[-2]
    out = np.zeros(x.shape[:-3] + (2 * n, 2 * n, x.shape[-1]), dtype=complex)
    out[..., :n, n:, :] = x
    out[..., n:, :n, :] = x.swapaxes(-3, -2)
    return out


@per_point
def levi_civita(mj: MetricJet) -> np.ndarray:
    """Gamma_{AB}^C = (1/2) H^{CE} (d_B H_{AE} + d_A H_{BE} - d_E H_{AB}).

    The bracket is taken on the pairs A <= B and [B, A, C] is [A, B, C]
    (torsion-free).  H^{CE} is hinv^T on the unbarred C and barred E, hinv
    on the barred C and unbarred E, and zero elsewhere, so the sum over E
    is two jet-matrix products, each over the E of one kind."""
    n = mj.n
    dH = _complexified(derivatives(mj.h, n, range(2 * n)))
    A, B = np.triu_indices(2 * n)
    x = (dH[B, A] + dH[A, B]).swapaxes(0, 1) - dH[:, A, B]   # [E, (A, B)]
    half = 0.5 * mj.hinv
    gamma = np.concatenate([matmul(half.swapaxes(0, 1), x[n:], n),
                            matmul(half, x[:n], n)])   # [C, (A, B)]
    G = np.empty((2 * n,) * 3 + gamma.shape[-1:], dtype=complex)
    G[A, B] = G[B, A] = gamma.swapaxes(0, 1)
    return G


def chern(mj: MetricJet) -> np.ndarray:
    """Gamma_{i a}^b = d h_{a qbar} / dz^i h^{b qbar}, that is dh . h^-1 on
    the unbarred directions; barred directions zero."""
    n = mj.n
    table = matmul(derivatives(mj.h, n, range(n)), mj.hinv, n)
    return np.concatenate([table, np.zeros_like(table)])


def bismut(mj: MetricJet) -> np.ndarray:
    """Unbarred direction: Gamma~_{i a}^b = h^{b qbar} d h_{i qbar} / dz^a,
    the Chern tensor with direction and acted index swapped.  Barred
    direction: twice the Levi-Civita coefficient,
    Gamma~_{jbar a}^b
        = h^{b ebar} (d h_{a ebar}/dzbar^j - d h_{a jbar}/dzbar^e),
    that is (dbar h - dbar h^T) . h^-1 with dbar h[j, a, e].
    """
    n = mj.n
    d = derivatives(mj.h, n, range(2 * n))
    db = d[n:]
    return np.concatenate([matmul(d[:n], mj.hinv, n).swapaxes(0, 1),
                           matmul(db - db.transpose(2, 1, 0, 3), mj.hinv, n)])
