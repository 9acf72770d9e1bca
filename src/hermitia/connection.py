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

The tables are computed from ``MetricJet.h`` and ``hinv`` with the
operations the jet arithmetic would do in the same order (``jets.mul`` and
``jets.matmul``), so every table is bit for bit the one the entry-by-entry
jet loops give.
"""

from __future__ import annotations

import numpy as np

from .jets import derivatives, matmul, mul
from .metric import MetricJet, per_point

__all__ = ["levi_civita", "chern", "bismut"]


def _H_inverse(mj: MetricJet, size: int) -> np.ndarray:
    """H^{CE}, the inverse complexified metric, as (2n, 2n, size)
    coefficients truncated to the first ``size`` basis monomials."""
    n = mj.n
    hinv = mj.hinv[..., :size]
    U = np.zeros((2 * n, 2 * n, size), dtype=complex)
    U[:n, n:] = hinv.swapaxes(0, 1)
    U[n:, :n] = hinv
    return U


def _bracket(d: np.ndarray, E: int, A: np.ndarray, B: np.ndarray):
    """x[p] = d_B H_{A E} + d_A H_{B E} - d_E H_{A B} at the index pairs
    (A[p], B[p]), a (P, S) array, from the (2n, n, n, S) first derivatives
    d[v, a, q] = d h_{a qbar} / dz^v (v < n) or dzbar^(v - n)."""
    n = d.shape[1]
    # col[v, A] = d H_{AE} / dz^v and row[A, B] = d H_{AB} / dz^E; the
    # unmixed blocks of H vanish
    col = np.zeros((2 * n, 2 * n, d.shape[-1]), dtype=complex)
    if E < n:
        col[:, n:] = d[:, E]
    else:
        col[:, :n] = d[:, :, E - n]
    row = np.zeros_like(col)
    row[:n, n:] = d[E]
    row[n:, :n] = d[E].swapaxes(0, 1)
    return col[B, A] + col[A, B] - row[A, B]


@per_point
def levi_civita(mj: MetricJet) -> np.ndarray:
    """Gamma_{AB}^C = (1/2) H^{CE} (d_B H_{AE} + d_A H_{BE} - d_E H_{AB}).

    Each entry with A <= B sums its E terms in order from +0, skipping the
    E with a zero H^{CE} jet; [B, A, C] equals [A, B, C] (torsion-free).
    One E at a time keeps the products at (P, n, S), P = n (2n + 1)."""
    n = mj.n
    d = derivatives(mj.h, n, range(2 * n))
    size = d.shape[-1]
    U = _H_inverse(mj, size)
    live = (U != 0).any(axis=-1)
    A, B = np.triu_indices(2 * n)
    acc = np.zeros((len(A), 2 * n, size), dtype=complex)
    for E in range(2 * n):
        C = np.flatnonzero(live[:, E])
        x = _bracket(d, E, A, B)
        acc[:, C] += mul(0.5 * U[C, E], x[:, None], n)
    G = np.empty((2 * n,) * 3 + (size,), dtype=complex)
    G[A, B] = G[B, A] = acc
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
