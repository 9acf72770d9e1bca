"""Pointwise exterior algebra of (p, q)-forms with Jet coefficients.

A FormJet stores coefficients over strictly increasing index tuples
I (unbarred slots) and J (barred slots) in the ordered basis
dz^I wedge dzbar^J, optionally valued in a rank-r bundle with a metric
connection.  All first-order operators act at jet level, so compositions
(commutator identities) are exact up to the available jet order.

Coefficient arrays combine with numpy's +, *, @ and sum on object arrays
(a sum or product of jets of two orders is taken at the lower one).  Slot
moves are cached integer tables of source rows, destination rows and signs:
_slot_table (dz^k ^ and the interior product), _merge_table (wedge) and
_term_table (a chain of slot moves, such as dz^c ^ I_k in nabla).  The
algebraic operators (L, Lambda, A, B, C, tau and the conjugates) are Jet
matrices assembled from _term_table and their point coefficients; the value
is T x and star, the exact adjoint under the determinant pairing
  < dz^I ^ dzbar^J, dz^K ^ dzbar^L > = det(h^{i kbar}) conj(det(h^{j lbar})),
uses T^T.  Under this pairing, with no per-degree factor, the commutator
identities close (see docs/conventions.md).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .connection import chern, levi_civita
from .curvature import connection_curvature
from .errors import StructuralError, ValidationError
from .jets import (Jet, coefficients, constant, jet_array, jet_matrix_inverse,
                   point_derivatives, wirtinger)
from .metric import MetricJet, per_point

__all__ = [
    "FormJet",
    "ConnectionJet",
    "zero_form",
    "random_form",
    "omega_form",
    "wedge",
    "partial",
    "dbar",
    "d_prime",
    "d_second",
    "delta0_prime",
    "delta0_second",
    "l_op",
    "lambda_op",
    "a_op",
    "b_op",
    "c_op",
    "tau",
    "tau_bar",
    "star",
    "partial_star",
    "dbar_star",
    "inner",
    "gram",
    "identity_suite",
    "partial_e",
    "dbar_e",
    "dbar_e_star",
    "partial_e_star",
    "trivial_connection",
    "chern_connection",
    "random_metric_connection",
    "check_metric_compatible",
    "bundle_identity_suite",
    "second_hermitian_ricci",
]


@lru_cache(maxsize=None)
def _combos(n: int, p: int):
    return tuple(itertools.combinations(range(n), p))


@lru_cache(maxsize=None)
def _combo_index(n: int, p: int):
    return {c: k for k, c in enumerate(_combos(n, p))}


def _zero(n, order):
    return constant(0.0 + 0.0j, n, order)


# entrywise Jet maps on object arrays
_jets_conj = np.frompyfunc(Jet.conj, 1, 1)
_jets_nonzero = np.frompyfunc(lambda a: a.max_abs() != 0.0, 1, 1)

_PointJets = namedtuple("_PointJets", "h hinv lc")


@per_point
def _point_jets(mj: MetricJet) -> _PointJets:
    """h, h^-1 and the Levi-Civita table at the point as object arrays of
    Jets, each Jet a view of its row in the coefficient array; [A, B] and
    [B, A] of the symmetric table share one Jet."""
    n, K = mj.n, mj.order
    lc = jet_array(levi_civita(mj), n, K - 1)
    A, B = np.triu_indices(2 * n)
    lc[B, A] = lc[A, B]
    return _PointJets(jet_array(mj.h, n, K), jet_array(mj.hinv, n, K), lc)


@dataclass(frozen=True)
class FormJet:
    mj: MetricJet
    p: int
    q: int
    r: int
    coeffs: np.ndarray  # object array (C(n,p), C(n,q), r) of Jets

    @property
    def n(self):
        return self.mj.n

    def coeff(self, I, J, alpha=0) -> Jet:
        n = self.n
        return self.coeffs[_combo_index(n, self.p)[tuple(I)],
                           _combo_index(n, self.q)[tuple(J)], alpha]

    def max_const(self) -> float:
        return max((abs(c.const) for c in self.coeffs.flat), default=0.0)

    def is_zero(self) -> bool:
        return all(c.max_abs() == 0.0 for c in self.coeffs.flat)

    def __add__(self, other):
        if (self.p, self.q, self.r) != (other.p, other.q, other.r):
            # tolerate identically-zero forms of clamped bidegree
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise StructuralError("bidegree/rank mismatch in form addition")
        return FormJet(self.mj, self.p, self.q, self.r,
                       self.coeffs + other.coeffs)

    def __sub__(self, other):
        return self + other * (-1.0)

    def __mul__(self, s):
        """Times a scalar or a scalar Jet."""
        return FormJet(self.mj, self.p, self.q, self.r, self.coeffs * s)

    __rmul__ = __mul__


def zero_form(mj: MetricJet, p: int, q: int, r: int = 1,
              order: int | None = None) -> FormJet:
    n = mj.n
    if order is None:
        order = mj.order
    p = min(max(p, 0), n)
    q = min(max(q, 0), n)
    shape = (len(_combos(n, p)), len(_combos(n, q)), r)
    coeffs = np.empty(shape, dtype=object)
    z = _zero(n, order)
    coeffs[...] = z
    return FormJet(mj, p, q, r, coeffs)


def _random_jets(n: int, order: int, shape: tuple, rng) -> np.ndarray:
    """Jets with standard complex normal coefficients, drawn entry by entry
    in C order, each one's real parts before its imaginary parts."""
    size = _zero(n, order).coeffs.size
    x = rng.standard_normal(shape + (2, size))
    out = np.empty(int(np.prod(shape)), dtype=object)
    out[:] = [Jet(n, order, c) for c in
              (x[..., 0, :] + 1j * x[..., 1, :]).reshape(-1, size)]
    return out.reshape(shape)


def random_form(mj: MetricJet, p: int, q: int, rng, r: int = 1,
                order: int | None = None) -> FormJet:
    """Random FormJet with dense random polynomial jet coefficients."""
    z = zero_form(mj, p, q, r, order)  # the clamped bidegree and shape
    order = mj.order if order is None else order
    return FormJet(mj, z.p, z.q, r,
                   _random_jets(mj.n, order, z.coeffs.shape, rng))


# -- basis bookkeeping -----------------------------------------------------

# Side index of a slot group: the dz^I block (HOLO) or the dzbar^J block
# (ANTI).  It is also the coefficient-array axis of that block, and each
# conjugate operator pair below is one body selected by it.
HOLO, ANTI = 0, 1


def _bumped(phi: FormJet, side: int, d: int):
    """Bidegree of phi with its `side` degree moved by d."""
    deg = [phi.p, phi.q]
    deg[side] += d
    return deg


def _side_view(coeffs: np.ndarray, side: int) -> np.ndarray:
    """coeffs with the `side` block on axis 0; a view, so writes go through."""
    return coeffs if side == HOLO else coeffs.swapaxes(0, 1)


def _columns(rows, width: int):
    """A table from a list of rows: integer index columns, then a float sign
    column, each a read-only array owning its data (the tables are cached)."""
    t = np.array(rows, dtype=float).reshape(-1, width).T
    cols = [c.astype(int) for c in t[:-1]] + [t[-1].copy()]
    for c in cols:
        c.flags.writeable = False
    return tuple(cols)


@lru_cache(maxsize=None)
def _slot_table(n: int, deg: int, k: int, d: int):
    """Slot k into (d = 1) or out of (d = -1) a degree-deg block: the source
    rows in _combos(n, deg) where that is defined, their destination rows in
    _combos(n, deg + d) and the signs (-1)^pos, pos the position of k in the
    longer index tuple."""
    dst = _combo_index(n, deg + d)
    rows = []
    for s, T in enumerate(_combos(n, deg)):
        if (k in T) == (d < 0):
            moved = tuple(sorted(set(T) ^ {k}))
            longer = T if d < 0 else moved
            rows.append((s, dst[moved], (-1) ** longer.index(k)))
    return _columns(rows, 3)


def _slot_map(phi: FormJet, side: int, k: int, d: int) -> FormJet:
    """Slot k into (d = 1) or out of (d = -1) the `side` block of phi; a
    barred slot passes the p unbarred ones."""
    out = zero_form(phi.mj, *_bumped(phi, side, d), phi.r)
    deg = (phi.p, phi.q)[side]
    if not 0 <= deg + d <= phi.n:
        return out
    src, dst, sign = _slot_table(phi.n, deg, k, d)
    if side == ANTI:
        sign = sign * (-1) ** phi.p
    _side_view(out.coeffs, side)[dst] = (_side_view(phi.coeffs, side)[src]
                                         * sign[:, None, None])
    return out


def _wedge1(phi: FormJet, side: int, k: int) -> FormJet:
    """dz^k (HOLO) or dzbar^k (ANTI) wedge phi."""
    return _slot_map(phi, side, k, 1)


def _contract(phi: FormJet, side: int, k: int) -> FormJet:
    """Interior product with d/dz^k (HOLO) or d/dzbar^k (ANTI)."""
    return _slot_map(phi, side, k, -1)


def _dim(n: int, p: int, q: int) -> int:
    """Length of the (p, q) coefficient vector of a scalar form."""
    return len(_combos(n, p)) * len(_combos(n, q))


@lru_cache(maxsize=None)
def _term_table(n: int, p: int, q: int, moves: tuple):
    """The terms of a chain of slot moves on (p, q)-forms.  Each move
    (side, d) slots an index k into (d = 1) or out of (d = -1) that side's
    block as _slot_map does, the first move applied first.  Columns: the
    flat source row a * C(n, q) + b, the flat destination row, the k of each
    move in order and the product of the signs."""
    nq = len(_combos(n, q))
    terms = [(s, divmod(s, nq), (), 1) for s in range(_dim(n, p, q))]
    deg = [p, q]
    for side, d in moves:
        if not 0 <= deg[side] + d <= n:
            return _columns([], 3 + len(moves))
        base = (-1) ** deg[HOLO] if side == ANTI else 1
        step = []
        for k in range(n):
            move = {s: (t, sg) for s, t, sg in
                    zip(*_slot_table(n, deg[side], k, d))}
            for src, rows, ks, sign in terms:
                if rows[side] in move:
                    t, sg = move[rows[side]]
                    moved = (t, rows[1]) if side == HOLO else (rows[0], t)
                    step.append((src, moved, ks + (k,), sign * base * sg))
        terms = step
        deg[side] += d
    nq = len(_combos(n, deg[ANTI]))
    return _columns([(src, a * nq + b, *ks, sign)
                     for src, (a, b), ks, sign in terms], 3 + len(moves))


@lru_cache(maxsize=None)
def _merge_table(n: int, d1: int, d2: int):
    """The pairs of a degree-d1 and a degree-d2 row with disjoint index
    tuples I1, I2: both rows, the row of the sorted union in
    _combos(n, d1 + d2) and the sign that sorts I1 + I2."""
    dst = _combo_index(n, d1 + d2)
    rows = []
    for a1, I1 in enumerate(_combos(n, d1)):
        for a2, I2 in enumerate(_combos(n, d2)):
            if not set(I1) & set(I2):
                swaps = sum(x > y for x in I1 for y in I2)
                rows.append((a1, a2, dst[tuple(sorted(I1 + I2))],
                             (-1) ** swaps))
    return _columns(rows, 4)


def wedge(phi: FormJet, psi: FormJet) -> FormJet:
    """phi wedge psi; fiber ranks must agree or one factor must be scalar."""
    if phi.r != 1 and psi.r != 1 and phi.r != psi.r:
        raise StructuralError("wedge of two bundle-valued forms")
    n = phi.n
    p, q = phi.p + psi.p, phi.q + psi.q
    out = zero_form(phi.mj, p, q, max(phi.r, psi.r))
    if p > n or q > n:
        return out
    a1, a2, a, sa = _merge_table(n, phi.p, psi.p)
    b1, b2, b, sb = _merge_table(n, phi.q, psi.q)
    sign = (-1) ** (phi.q * psi.p) * np.multiply.outer(sa, sb)
    terms = (phi.coeffs[a1[:, None], b1] * psi.coeffs[a2[:, None], b2]
             * sign[:, :, None])
    np.add.at(out.coeffs, (a[:, None], b), terms)
    return out


# -- differential operators ------------------------------------------------


def _derive(jets: np.ndarray, side: int, i: int) -> np.ndarray:
    """Every jet of an array differentiated along z^i (HOLO) or zbar^i
    (ANTI)."""
    kind = ("holo", "antiholo")[side]
    return np.frompyfunc(lambda c: wirtinger(c, kind, i), 1, 1)(jets)


def _dcoeffs(phi: FormJet, side: int, i: int) -> FormJet:
    """Every coefficient differentiated along z^i (HOLO) or zbar^i (ANTI)."""
    return FormJet(phi.mj, phi.p, phi.q, phi.r, _derive(phi.coeffs, side, i))


def _d(phi: FormJet, side: int, conn: "ConnectionJet | None" = None) -> FormJet:
    """partial (HOLO) or dbar (ANTI), twisted by a fiber connection."""
    out = zero_form(phi.mj, *_bumped(phi, side, 1), phi.r)
    for i in range(phi.n):
        d = _dcoeffs(phi, side, i)
        if conn is not None:
            d.coeffs[...] += phi.coeffs @ (conn.amats, conn.bmats)[side][i]
        out = out + _wedge1(d, side, i)
    return out


def partial(phi: FormJet) -> FormJet:
    return _d(phi, HOLO)


def dbar(phi: FormJet) -> FormJet:
    return _d(phi, ANTI)


def _nabla(phi: FormJet, side: int, i: int,
           conn: "ConnectionJet | None" = None) -> FormJet:
    """Type-preserving covariant derivative in direction z^i (HOLO) or
    zbar^i (ANTI): d_X - sum Gamma dz^c ^ I_k on each slot group, plus a
    fiber connection."""
    n = phi.n
    gamma = _point_jets(phi.mj).lc[n * side + i]
    out = _dcoeffs(phi, side, i)
    for slots, deg in ((HOLO, phi.p), (ANTI, phi.q)):
        if deg == 0:
            continue
        block = slice(n * slots, n * (slots + 1))
        g = gamma[block, block]  # g[c, k] = Gamma_{X c}^k on this group
        # dz^c ^ I_k on the block alone: the chain on a (deg, 0) HOLO block
        src, dst, k, c, sign = _term_table(n, deg, 0, ((HOLO, -1), (HOLO, 1)))
        live = _jets_nonzero(g).astype(bool)[c, k]
        coef = np.where(sign > 0, (g * -1.0)[c, k], g[c, k])[live]
        terms = _side_view(phi.coeffs, slots)[src[live]] * coef[:, None, None]
        np.add.at(_side_view(out.coeffs, slots), dst[live], terms)
    if conn is not None:
        out.coeffs[...] += phi.coeffs @ (conn.amats, conn.bmats)[side][i]
    return out


def _big_d(phi: FormJet, side: int, conn=None) -> FormJet:
    """D' (HOLO) or D'' (ANTI): the covariant exterior derivative parts."""
    out = zero_form(phi.mj, *_bumped(phi, side, 1), phi.r)
    for i in range(phi.n):
        out = out + _wedge1(_nabla(phi, side, i, conn), side, i)
    return out


def d_prime(phi: FormJet, conn=None) -> FormJet:
    return _big_d(phi, HOLO, conn)


def d_second(phi: FormJet, conn=None) -> FormJet:
    return _big_d(phi, ANTI, conn)


def _h_up(mj: MetricJet, side: int, k: int, m: int) -> Jet:
    """The raised metric pairing a `side` index k with an other-side index
    m: h^{k mbar} on HOLO, h^{m kbar} on ANTI."""
    return _point_jets(mj).hinv[(m, k) if side == HOLO else (k, m)]


def _delta0(phi: FormJet, side: int, conn=None) -> FormJet:
    """-h^{i jbar} I_i nabla''_jbar (HOLO) or -h^{j ibar} I_ibar nabla'_j
    (ANTI)."""
    mj = phi.mj
    out = zero_form(mj, *_bumped(phi, side, -1), phi.r)
    if (phi.p, phi.q)[side] == 0:
        return out
    for j in range(phi.n):
        nb = _nabla(phi, 1 - side, j, conn)
        for i in range(phi.n):
            out = out + _contract(nb, side, i) * (_h_up(mj, side, i, j) * (-1.0))
    return out


def delta0_prime(phi: FormJet, conn=None) -> FormJet:
    return _delta0(phi, HOLO, conn)


def delta0_second(phi: FormJet, conn=None) -> FormJet:
    return _delta0(phi, ANTI, conn)


# -- omega and the algebraic operators -------------------------------------


def omega_form(mj: MetricJet) -> FormJet:
    """The fundamental form omega = (sqrt(-1)/2) h_{i jbar} dz^i ^ dzbar^j."""
    return FormJet(mj, 1, 1, 1, (_point_jets(mj).h * 1j)[..., None]) * 0.5


def _assemble(n: int, p: int, q: int, side: int, moves: tuple,
              coef: np.ndarray) -> np.ndarray:
    """The Jet matrix of sum_k coef[k] M_k from the (p, q) coefficient
    vectors to those at the bidegree the moves reach, M_k the chain of slot
    `moves` (see _term_table) with indices k = (k_1, ..., k_m).  moves and
    coef are those of the HOLO operator; on ANTI the sides swap and the
    coefficients are conjugated, which gives the conjugate operator."""
    moves = tuple((s ^ side, d) for s, d in moves)
    if side == ANTI:
        coef = _jets_conj(coef)
    src, dst, *ks, sign = _term_table(n, p, q, moves)
    dp = sum(d for s, d in moves if s == HOLO)
    dq = sum(d for s, d in moves if s == ANTI)
    zero = _zero(n, min(c.order for c in coef.flat))
    t = np.full((_dim(n, p + dp, q + dq), _dim(n, p, q)), zero, dtype=object)
    np.add.at(t, (dst, src), coef[tuple(ks)] * sign)
    return t


def _l_matrix(mj: MetricJet, p: int, q: int, side: int) -> np.ndarray:
    """L = 2 omega ^ = sqrt(-1) h_{i jbar} dz^i ^ dzbar^j ^ (L is real, so
    side is unused)."""
    return _assemble(mj.n, p, q, HOLO, ((ANTI, 1), (HOLO, 1)),
                     _point_jets(mj).h.T * 1j)


def _lambda_matrix(mj: MetricJet, p: int, q: int, side: int) -> np.ndarray:
    """Lambda = sqrt(-1) h^{i jbar} I_i I_jbar (real, side unused)."""
    return _assemble(mj.n, p, q, HOLO, ((ANTI, -1), (HOLO, -1)),
                     _point_jets(mj).hinv * 1j)


@per_point
def _a_coefficients(mj: MetricJet) -> np.ndarray:
    """-h^{k lbar} h_{i mbar} Gamma_{s lbar}^{mbar} at [k, i, s]: the
    coefficients of a_op in the order of its slot moves, built once per
    point and kept with it, so the vanishing entries share one zero jet."""
    n, (h, hinv, lc) = mj.n, _point_jets(mj)
    gam = lc[:n, n:, n:]  # [s, l, m]
    coef = (hinv.T @ (gam @ h.T)).transpose(1, 2, 0) * -1.0
    coef[~_jets_nonzero(coef).astype(bool)] = _zero(n, mj.order - 1)
    return coef


def _a_matrix(mj: MetricJet, p: int, q: int, side: int) -> np.ndarray:
    """A = -h^{k lbar} h_{i mbar} Gamma_{s lbar}^{mbar} dz^s ^ dz^i ^ I_k."""
    return _assemble(mj.n, p, q, side, ((HOLO, -1), (HOLO, 1), (HOLO, 1)),
                     _a_coefficients(mj))


def _b_matrix(mj: MetricJet, p: int, q: int, side: int) -> np.ndarray:
    """B = -2 Gamma_{i jbar}^{lbar} dz^i ^ dzbar^j ^ I_lbar."""
    n = mj.n
    gam = _point_jets(mj).lc[:n, n:, n:].T  # [l, j, i]
    return _assemble(n, p, q, side, ((ANTI, -1), (ANTI, 1), (HOLO, 1)),
                     gam * -2.0)


def _c_matrix(mj: MetricJet, p: int, q: int, side: int) -> np.ndarray:
    """C = 2 Gamma_{j lbar}^{lbar} dz^j ^, the torsion (1,0)-form."""
    n = mj.n
    eta = np.trace(_point_jets(mj).lc[:n, n:, n:], axis1=1, axis2=2)
    return _assemble(n, p, q, side, ((HOLO, 1),), eta * 2.0)


def _w_matrix(mj: MetricJet, p: int, q: int, side: int) -> np.ndarray:
    """Wedge with w = 2 d'omega = sqrt(-1) d_a h_{b cbar} dz^a ^ dz^b ^ dzbar^c
    (HOLO) or with its conjugate (ANTI)."""
    n, h = mj.n, _point_jets(mj).h
    dh = np.array([[[wirtinger(h[b][c], "holo", a) * 1j for a in range(n)]
                    for b in range(n)] for c in range(n)], dtype=object)
    return _assemble(n, p, q, side, ((ANTI, 1), (HOLO, 1), (HOLO, 1)), dh)


def _tau_matrix(mj: MetricJet, p: int, q: int, side: int) -> np.ndarray:
    """tau = [Lambda, w ^] (w as in _w_matrix), as the commutator of the
    two matrices; tau_bar on ANTI."""
    n = mj.n
    wp, wq = (2, 1) if side == HOLO else (1, 2)
    out = np.full((_dim(n, p + wp - 1, q + wq - 1), _dim(n, p, q)),
                  _zero(n, mj.order - 1), dtype=object)
    if p + wp <= n and q + wq <= n:
        out = out + (_lambda_matrix(mj, p + wp, q + wq, side)
                     @ _w_matrix(mj, p, q, side))
    if p and q:
        out = out - (_w_matrix(mj, p - 1, q - 1, side)
                     @ _lambda_matrix(mj, p, q, side))
    return out


@dataclass(frozen=True)
class _Algebraic:
    """A Jet-linear operator without derivatives, given by its matrix:
    body(mj, p, q, side) is the Jet matrix T from the (p, q) coefficient
    vectors to those at (p, q) + ddeg.  The value on phi is T x, taken on
    the form index of each fiber column; star uses T^T.  On ANTI it is the
    conjugate operator: the same slot moves with the sides swapped, and
    conjugate coefficients."""
    body: object
    ddeg: tuple
    side: int = HOLO

    def matrix(self, mj: MetricJet, p: int, q: int) -> np.ndarray:
        return self.body(mj, p, q, self.side)

    def __call__(self, phi: FormJet) -> FormJet:
        n, (dp, dq) = phi.n, self.ddeg
        p, q = phi.p + dp, phi.q + dq
        if not (0 <= p <= n and 0 <= q <= n):
            return zero_form(phi.mj, p, q, phi.r)
        t = self.matrix(phi.mj, phi.p, phi.q)
        x = phi.coeffs.reshape(t.shape[1], phi.r)
        shape = (len(_combos(n, p)), len(_combos(n, q)), phi.r)
        return FormJet(phi.mj, p, q, phi.r, (t @ x).reshape(shape))


l_op = _Algebraic(_l_matrix, (1, 1))
lambda_op = _Algebraic(_lambda_matrix, (-1, -1))
a_op = _Algebraic(_a_matrix, (1, 0))
b_op = _Algebraic(_b_matrix, (1, 0))
c_op = _Algebraic(_c_matrix, (1, 0))
tau = _Algebraic(_tau_matrix, (1, 0))
tau_bar = _Algebraic(_tau_matrix, (0, 1), ANTI)
_a_bar = _Algebraic(_a_matrix, (0, 1), ANTI)
_b_bar = _Algebraic(_b_matrix, (0, 1), ANTI)
_c_bar = _Algebraic(_c_matrix, (0, 1), ANTI)


# -- inner product and adjoints --------------------------------------------


def _det_jet(m: np.ndarray) -> Jet:
    """Determinant of a square matrix of Jets by Laplace expansion."""
    k = m.shape[0]
    if k == 1:
        return m[0][0]
    acc = None
    for j in range(k):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        term = m[0][j] * _det_jet(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _compound(m: np.ndarray, k: int) -> np.ndarray:
    """The k x k minors of the n x n Jet matrix m, rows and columns in
    _combos(n, k) order; C_0(m) = [[1]]."""
    n = m.shape[0]
    if k == 0:
        return np.array([[constant(1.0 + 0.0j, n, m[0, 0].order)]],
                        dtype=object)
    combos = _combos(n, k)
    out = np.empty((len(combos), len(combos)), dtype=object)
    for a, I in enumerate(combos):
        for b, K in enumerate(combos):
            out[a, b] = _det_jet(m[np.ix_(I, K)])
    return out


def _gram_over(m: np.ndarray, p: int, q: int) -> np.ndarray:
    """kron(C_p(m), conj C_q(m)): the row of dz^I ^ dzbar^J is
    a * C(n, q) + b for I, J the a-th and b-th combos."""
    a, b = _compound(m, p), _jets_conj(_compound(m, q))
    out = np.multiply.outer(a, b).transpose(0, 2, 1, 3)
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def gram(mj: MetricJet, p: int, q: int) -> np.ndarray:
    """Gram matrix of the basis forms; entries are Jets.  It is
    kron(C_p(Hup), conj C_q(Hup)) for Hup[i, k] = h^{i kbar}."""
    return _gram_over(_point_jets(mj).hinv.T, p, q)


def _gram_inverse(mj: MetricJet, p: int, q: int) -> np.ndarray:
    """gram(mj, p, q)^-1 without a solve: by Cauchy-Binet C_k(Hup)^-1 =
    C_k(Hup^-1), and Hup^-1[i, k] = h_{k ibar} is the lower metric."""
    return _gram_over(_point_jets(mj).h.T, p, q)


def _metric(g: np.ndarray, x: np.ndarray, fiber) -> np.ndarray:
    """g tensored with the r x r fiber metric F (the identity when None),
    applied to coefficients x of shape (len(g), r): g x F^T."""
    y = g @ x
    return y if fiber is None else y @ np.asarray(fiber, dtype=object).T


def _flatten(phi: FormJet) -> np.ndarray:
    """The coefficient vector, entry (a * C(n, q) + b) * r + al."""
    return phi.coeffs.reshape(-1)


def inner(phi: FormJet, psi: FormJet, fiber: np.ndarray | None = None) -> Jet:
    """Pointwise Hermitian inner product; result is a Jet (conjugate linear
    in psi).  fiber is an r x r matrix of Jets G[al][be] = <e_al, e_be>."""
    if (phi.p, phi.q, phi.r) != (psi.p, psi.q, psi.r):
        raise StructuralError("bidegree/rank mismatch in inner product")
    y = _jets_conj(psi.coeffs.reshape(-1, psi.r))
    return _flatten(phi) @ _metric(gram(phi.mj, phi.p, phi.q), y,
                                   fiber).reshape(-1)


def _jets_inverse(m: np.ndarray) -> np.ndarray:
    """The inverse of a square matrix of Jets of one (n, order), as Jets."""
    a = m.flat[0]
    return jet_array(jet_matrix_inverse(coefficients(m), a.n), a.n, a.order)


def star(op: _Algebraic, phi: FormJet, fiber=None) -> FormJet:
    """Exact pointwise adjoint of an algebraic operator (l_op, lambda_op,
    a_op, b_op, c_op, tau, tau_bar or a conjugate), which maps (p,q) ->
    (p+dp, q+dq) with op.ddeg = (dp, dq); star(op) maps phi at (p,q) back
    to (p-dp, q-dq).  With T the matrix of op and G the Gram
    matrices (tensored with the fiber metric F),
    star(op) phi = conj(Gs^-1 T^T Gd conj(phi)), matrix products from the
    right on the (form index, fiber index) coefficient matrix; op itself is
    never applied.  Gs^-1 is a compound-matrix product and F^-1 the only
    solve."""
    dp, dq = op.ddeg
    mj, r = phi.mj, phi.r
    sp, sq = phi.p - dp, phi.q - dq
    if not (0 <= sp <= phi.n and 0 <= sq <= phi.n):
        return zero_form(mj, max(sp, 0), max(sq, 0), r)
    y = _metric(gram(mj, phi.p, phi.q),
                _jets_conj(phi.coeffs.reshape(-1, r)), fiber)
    f_inv = None if fiber is None else _jets_inverse(fiber)
    x = _metric(_gram_inverse(mj, sp, sq), op.matrix(mj, sp, sq).T @ y, f_inv)
    shape = (len(_combos(mj.n, sp)), len(_combos(mj.n, sq)), r)
    return FormJet(mj, sp, sq, r, _jets_conj(x).reshape(shape))


def _d_star(phi: FormJet, side: int) -> FormJet:
    """Local formula: delta0 - (B* + C*)/2 on HOLO (partial*), the
    conjugates on ANTI (dbar*)."""
    b, c = ((b_op, c_op), (_b_bar, _c_bar))[side]
    return _delta0(phi, side) - (star(b, phi) + star(c, phi)) * 0.5


def dbar_star(phi: FormJet) -> FormJet:
    return _d_star(phi, ANTI)


def partial_star(phi: FormJet) -> FormJet:
    return _d_star(phi, HOLO)


# -- identity suite --------------------------------------------------------


def identity_suite(mj: MetricJet, trials: int, seed: int) -> dict:
    """Max residual (constant coefficient) of each operator identity over
    random forms of random bidegrees."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    n = mj.n
    res = {k: 0.0 for k in ("lambda_a", "lambda_b", "lambda_c",
                            "partial_split", "dbar_star_split",
                            "kahler_torsion", "torsion_form")}
    for _ in range(trials):
        p = int(rng.integers(0, n + 1))
        q = int(rng.integers(0, n + 1))
        phi = random_form(mj, p, q, rng)
        # each operator value on phi once: the adjoints dominate a trial
        lam, d_phi, ds = lambda_op(phi), partial(phi), dbar_star(phi)
        ab, bb, cb = star(_a_bar, phi), star(_b_bar, phi), star(_c_bar, phi)
        comm = lambda op: lambda_op(op(phi)) - op(lam)
        r1 = comm(a_op) + bb * 1j
        res["lambda_a"] = max(res["lambda_a"], r1.max_const())
        r2 = comm(b_op) + (ab * 2.0 + bb + cb) * 1j
        res["lambda_b"] = max(res["lambda_b"], r2.max_const())
        r3 = comm(c_op) + cb * 1j
        res["lambda_c"] = max(res["lambda_c"], r3.max_const())
        r4 = d_phi - d_prime(phi) + b_op(phi) * 0.5
        res["partial_split"] = max(res["partial_split"], r4.max_const())
        r5 = ds - delta0_second(phi) + (bb + cb) * 0.5
        res["dbar_star_split"] = max(res["dbar_star_split"], r5.max_const())
        r6 = (lambda_op(d_phi) - partial(lam)
              - (ds + star(tau_bar, phi)) * 1j)
        res["kahler_torsion"] = max(res["kahler_torsion"], r6.max_const())
    w = omega_form(mj)
    r7 = dbar_star(w) - lambda_op(partial(w)) * 1j
    res["torsion_form"] = r7.max_const()
    return res


# -- bundle-valued machinery -----------------------------------------------


@dataclass(frozen=True)
class ConnectionJet:
    """A metric connection on a rank-r bundle E at the point, as jet arrays:
    nabla_{z^i} e_al = amats[i, al, be] e_be and nabla_{zbar^j} e_al =
    bmats[j, al, be] e_be, both (n, r, r), and the (r, r) fiber metric
    fiber[al, be] = <e_al, e_be>."""
    r: int
    amats: np.ndarray
    bmats: np.ndarray
    fiber: np.ndarray


def _unit_fiber(mj: MetricJet, r: int) -> np.ndarray:
    """The identity fiber metric, an (r, r) jet array."""
    one = constant(1.0 + 0.0j, mj.n, mj.order)
    return np.where(np.eye(r, dtype=bool), one, _zero(mj.n, mj.order))


def trivial_connection(mj: MetricJet, r: int = 1) -> ConnectionJet:
    amats = np.full((mj.n, r, r), _zero(mj.n, mj.order), dtype=object)
    return ConnectionJet(r=r, amats=amats, bmats=amats,
                         fiber=_unit_fiber(mj, r))


def chern_connection(mj: MetricJet) -> ConnectionJet:
    """The tangent bundle E = T^{1,0}M with its holomorphic-metric
    connection: fiber metric h, (1,0)-part the Chern table, (0,1)-part 0."""
    tab = jet_array(chern(mj), mj.n, mj.order - 1)
    return ConnectionJet(r=mj.n, amats=tab[:mj.n], bmats=tab[mj.n:],
                         fiber=_point_jets(mj).h)


def random_metric_connection(mj: MetricJet, r: int, seed: int) -> ConnectionJet:
    """Random connection jets compatible with the identity fiber metric:
    B_j = -A_j^H at jet level."""
    rng = np.random.default_rng(seed)
    amats = _random_jets(mj.n, mj.order, (mj.n, r, r), rng) * 0.3
    bmats = _jets_conj(amats).transpose(0, 2, 1) * -1.0
    return ConnectionJet(r=r, amats=amats, bmats=bmats,
                         fiber=_unit_fiber(mj, r))


def check_metric_compatible(conn: ConnectionJet, n: int,
                            tol: float = 1e-10) -> None:
    """d<s,t> = <nabla s, t> + <s, nabla t> at jet level, that is
    dF/dz^i - A_i F - F conj(B_i)^T = 0 for each direction; raises naming
    the first violated coefficient."""
    F = conn.fiber
    dF = np.array([_derive(F, HOLO, i) for i in range(n)])
    resid = (dF - conn.amats @ F
             - F @ _jets_conj(conn.bmats).transpose(0, 2, 1))
    bad = np.argwhere(np.frompyfunc(Jet.max_abs, 1, 1)(resid) > tol)
    if len(bad):
        i, al, be = bad[0]
        raise ValidationError(
            "connection not metric-compatible at fiber entry "
            f"({al}, {be}), direction z^{i + 1}")


def partial_e(phi: FormJet, conn: ConnectionJet) -> FormJet:
    return _d(phi, HOLO, conn)


def dbar_e(phi: FormJet, conn: ConnectionJet) -> FormJet:
    return _d(phi, ANTI, conn)


def _d_e_star(phi: FormJet, conn: ConnectionJet, side: int) -> FormJet:
    """Local formula on ANTI: dbar* phi - h^{i jbar} (I_jbar phi) nabla_i e,
    dbar* acting on each fiber component; on HOLO its conjugate dual
    partial* phi - h^{j ibar} (I_j phi) nabla''_ibar e.  The connection term
    is sum_k (I_k phi) @ C_k with C_k = -sum_m h_up(k, m) M_m, M the other
    side's matrices."""
    mj, n, r = phi.mj, phi.n, phi.r
    hinv = _point_jets(mj).hinv
    up = hinv.T if side == HOLO else hinv  # _h_up(mj, side, k, m)
    mats = (conn.bmats, conn.amats)[side]
    C = (up @ mats.reshape(n, r * r)).reshape(n, r, r) * -1.0
    ik = np.array([_contract(phi, side, k).coeffs for k in range(n)])
    out = _d_star(phi, side)
    return FormJet(mj, out.p, out.q, r,
                   out.coeffs + (ik @ C[:, None]).sum(axis=0))


def dbar_e_star(phi: FormJet, conn: ConnectionJet) -> FormJet:
    return _d_e_star(phi, conn, ANTI)


def partial_e_star(phi: FormJet, conn: ConnectionJet) -> FormJet:
    return _d_e_star(phi, conn, HOLO)


def bundle_identity_suite(mj: MetricJet, conn: ConnectionJet,
                          trials: int, seed: int) -> dict:
    """Residuals of the bundle commutator identities, curvature tensoriality
    and the torsion/section identity on random E-valued forms."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    check_metric_compatible(conn, mj.n)
    rng = np.random.default_rng(seed)
    n, r = mj.n, conn.r
    fib = conn.fiber
    res = {k: 0.0 for k in ("dbar_e_star_L", "partial_e_star_L",
                            "lambda_partial_e", "lambda_dbar_e",
                            "tensoriality", "torsion_section")}
    for _ in range(trials):
        p = int(rng.integers(0, n + 1))
        q = int(rng.integers(0, n + 1))
        phi = random_form(mj, p, q, rng, r=r)
        pe = lambda f: partial_e(f, conn)
        de = lambda f: dbar_e(f, conn)
        pes = lambda f: partial_e_star(f, conn)
        des = lambda f: dbar_e_star(f, conn)
        # each operator value on phi once: the adjoints dominate a trial
        l_phi, lam = l_op(phi), lambda_op(phi)
        pe_phi, de_phi, pes_phi, des_phi = pe(phi), de(phi), pes(phi), des(phi)
        r1 = des(l_phi) - l_op(des_phi) - (pe_phi + tau(phi)) * 1j
        res["dbar_e_star_L"] = max(res["dbar_e_star_L"], r1.max_const())
        r2 = pes(l_phi) - l_op(pes_phi) + (de_phi + tau_bar(phi)) * 1j
        res["partial_e_star_L"] = max(res["partial_e_star_L"], r2.max_const())
        r3 = (lambda_op(pe_phi) - pe(lam)
              - (des_phi + star(tau_bar, phi, fib)) * 1j)
        res["lambda_partial_e"] = max(res["lambda_partial_e"], r3.max_const())
        r4 = (lambda_op(de_phi) - de(lam)
              + (pes_phi + star(tau, phi, fib)) * 1j)
        res["lambda_dbar_e"] = max(res["lambda_dbar_e"], r4.max_const())
        # curvature tensoriality on a product phi_scalar x s
        phis = random_form(mj, p, q, rng, r=1)
        s = random_form(mj, 0, 0, rng, r=r)
        prod = FormJet(mj, p, q, r, phis.coeffs * s.coeffs[0, 0])
        lhs = pe(de(prod)) + de(pe(prod))
        rhs_s = pe(de(s)) + de(pe(s))
        rhs = wedge(phis, rhs_s)
        r5 = lhs - rhs
        res["tensoriality"] = max(res["tensoriality"], r5.max_const())
    # Lemma 4.6: tau(s) = -2 sqrt(-1) (dbar* omega) . s for sections s
    s = random_form(mj, 0, 0, rng, r=r)
    dso = dbar_star(omega_form(mj))
    r6 = tau(s) - wedge(dso, s) * (-2j)
    res["torsion_section"] = r6.max_const()
    return res


def second_hermitian_ricci(conn: ConnectionJet, mj: MetricJet) -> np.ndarray:
    """Tr_omega R^E lowered with the fiber metric: an r x r Hermitian
    matrix with entries h^{i jbar} R_{i jbar al}^{ga} <e_ga, e_be>."""
    n = mj.n
    tab = coefficients(np.concatenate([conn.amats, conn.bmats]))
    R = connection_curvature(point_derivatives(tab, n),
                             point_derivatives(tab, n, 1),
                             point_derivatives(coefficients(conn.fiber), n))
    return np.einsum("ij,ijab->ab", mj.hinv_at0().T, R[:n, n:])
