"""Christoffel symbols of the complexified Levi-Civita connection and the
coefficient tables of the Chern and Bismut connections, as Jets.

Index conventions (see docs/conventions.md): capital indices A, B, C run over
0..2n-1 where 0..n-1 are unbarred (z) and n..2n-1 are barred (zbar)
directions.  The complexified metric has the block structure
H_{i jbar} = h_{i jbar}, H_{ibar j} = h_{j ibar}, H_{ij} = H_{ibar jbar} = 0,
and the inverse blocks are H^{i jbar} = hinv[j][i], H^{ibar j} = hinv[i][j].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrderExhaustedError
from .jets import Jet, constant, point_derivatives, truncate, wirtinger
from .metric import MetricJet, per_point

__all__ = ["ChristoffelTable", "levi_civita", "chern", "bismut"]


def _dz(jet: Jet, A: int, n: int) -> Jet:
    """Formal derivative along z^A (A < n) or zbar^{A-n}."""
    if A < n:
        return wirtinger(jet, "holo", A)
    return wirtinger(jet, "antiholo", A - n)


def _H_low(mj: MetricJet):
    """Complexified metric H_{AB} as a (2n, 2n) object array of Jets."""
    n = mj.n
    zero = constant(0.0, n, mj.order)
    H = np.full((2 * n, 2 * n), zero, dtype=object)
    for i in range(n):
        for j in range(n):
            H[i][n + j] = mj.h[i][j]
            H[n + i][j] = mj.h[j][i]
    return H


def _H_up(mj: MetricJet):
    """Inverse complexified metric H^{AB} as a (2n, 2n) object array."""
    n = mj.n
    zero = constant(0.0, n, mj.order)
    U = np.full((2 * n, 2 * n), zero, dtype=object)
    for i in range(n):
        for j in range(n):
            U[i][n + j] = mj.hinv[j][i]
            U[n + i][j] = mj.hinv[i][j]
    return U


@dataclass(frozen=True)
class ChristoffelTable:
    """Christoffel symbols as Jets of order K-1.

    For ``kind='LeviCivita'`` the entries array has shape (2n, 2n, 2n) and
    holds Gamma_{AB}^C at ``entries[A][B][C]``.  For ``kind='Chern'`` and
    ``kind='Bismut'`` the array has shape (2n, n, n): ``entries[d][a][b]`` is
    the coefficient of nabla_d acting on the frame field e_a with output
    component e_b (directions d may be barred; bundle indices are unbarred).
    """

    kind: str
    n: int
    order: int
    entries: np.ndarray

    def entry(self, *idx) -> Jet:
        return self.entries[idx]

    def const_table(self) -> np.ndarray:
        return point_derivatives(self.entries)

    def dconst_table(self) -> np.ndarray:
        """d(Gamma)/dz^E at the point: axis 0 is the derivative direction E;
        OrderExhaustedError on a table of order 0."""
        return point_derivatives(self.entries, 1)


@per_point
def levi_civita(mj: MetricJet) -> ChristoffelTable:
    """Gamma_{AB}^C = (1/2) H^{CE} (d_B H_{AE} + d_A H_{BE} - d_E H_{AB})."""
    if mj.order < 1:
        raise OrderExhaustedError("metric jet order must be >= 1")
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
            jet = H[A][E]
            for B in range(2 * n):
                dH[B][A][E] = _dz(jet, B, n)
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
                G[B][A][C] = acc  # torsion-free symmetry
    return ChristoffelTable(kind="LeviCivita", n=n, order=K, entries=G)


def chern(mj: MetricJet) -> ChristoffelTable:
    """Gamma_{i a}^b = h^{b qbar} d h_{a qbar} / dz^i; barred directions zero."""
    if mj.order < 1:
        raise OrderExhaustedError("metric jet order must be >= 1")
    n = mj.n
    K = mj.order - 1
    zero = constant(0.0, n, K)
    G = np.full((2 * n, n, n), zero, dtype=object)
    for i in range(n):
        for a in range(n):
            for b in range(n):
                acc = zero
                for q in range(n):
                    acc = acc + truncate(mj.hinv[q][b], K) * \
                        wirtinger(mj.h[a][q], "holo", i)
                G[i][a][b] = acc
    return ChristoffelTable(kind="Chern", n=n, order=K, entries=G)


def bismut(mj: MetricJet) -> ChristoffelTable:
    """Unbarred direction: Gamma~_{i a}^b = h^{b qbar} d h_{i qbar} / dz^a
    (the direction index sits on the metric, the acted index differentiates).
    Barred direction: twice the Levi-Civita coefficient,
    Gamma~_{jbar a}^b = h^{b ebar} (d h_{a ebar}/dzbar^j - d h_{a jbar}/dzbar^e).
    """
    if mj.order < 1:
        raise OrderExhaustedError("metric jet order must be >= 1")
    n = mj.n
    K = mj.order - 1
    zero = constant(0.0, n, K)
    G = np.full((2 * n, n, n), zero, dtype=object)
    hinv_t = np.empty((n, n), dtype=object)
    for q in range(n):
        for b in range(n):
            hinv_t[q][b] = truncate(mj.hinv[q][b], K)
    for a in range(n):
        for b in range(n):
            for i in range(n):
                acc = zero
                for q in range(n):
                    acc = acc + hinv_t[q][b] * wirtinger(mj.h[i][q], "holo", a)
                G[i][a][b] = acc
            for j in range(n):
                acc = zero
                for e in range(n):
                    acc = acc + hinv_t[e][b] * (
                        wirtinger(mj.h[a][e], "antiholo", j)
                        - wirtinger(mj.h[a][j], "antiholo", e))
                G[n + j][a][b] = acc
    return ChristoffelTable(kind="Bismut", n=n, order=K, entries=G)
