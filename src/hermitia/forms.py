"""Pointwise exterior algebra of (p, q)-forms with jet coefficients.

A FormJet holds one complex array (C(n, p), C(n, q), r, S): [a, b, al] is
the jet coefficient of dz^I wedge dzbar^J on the fiber vector e_al (r = 1
for scalar forms) over the basis of jets._algebra(n, order), I and J the
a-th and b-th increasing index tuples.  A form keeps the exact bidegree
every operator gives it; outside 0..n there are no index tuples, and the
form is zero on an empty basis.  h, h^-1, the Levi-Civita table and fiber
connections are such arrays too; no Jet is built.  All first-order
operators act at jet level, so compositions (commutator identities) are
exact up to the available jet order.

Slot moves are cached integer tables acting on the leading axes:
_slot_table (dz^k ^ and the interior product), _merge_table (wedge) and
_term_table (a chain of slot moves, such as dz^c ^ I_k in nabla).  Jet
products are batched calls of jets.mul and jets.matmul, at the lower of two
orders, a prefix of the degree-sorted basis.  Each algebraic operator (L,
Lambda, A, B, C, w ^) is one _Algebraic row of the docs/conventions.md
table, a chain of slot moves and its coefficients; .bar is its conjugate
and tau the bracket [Lambda, w ^].  An operator acts from its chain's term
table (one gather, product and scatter; no matrix is formed), and star,
the exact adjoint under the pairing
  < dz^I ^ dzbar^J, dz^K ^ dzbar^L > = det(h^{i kbar}) conj(det(h^{j lbar})),
by the same table with source and destination swapped, between Gram
factors.  With no per-degree factor the commutator identities close.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .connection import chern, levi_civita
from .curvature import connection_curvature
from .errors import StructuralError, ValidationError
from .jets import (_algebra, _algebra_of, add, conj, derivatives, matmul,
                   mul, point_derivatives)
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
    "trivial_connection",
    "chern_connection",
    "random_metric_connection",
    "check_metric_compatible",
    "bundle_identity_suite",
    "second_hermitian_ricci",
]


@lru_cache(maxsize=None)
def _combos(n: int, p: int):
    """The increasing p-tuples of 0..n-1; none outside 0 <= p <= n."""
    return tuple(itertools.combinations(range(n), p)) if p >= 0 else ()


@lru_cache(maxsize=None)
def _combo_index(n: int, p: int):
    return {c: k for k, c in enumerate(_combos(n, p))}


def _random_jets(shape: tuple, rng) -> np.ndarray:
    """A coefficient array (..., S) of standard complex normal jets, drawn
    in C order, each jet's real parts before its imaginary parts."""
    x = rng.standard_normal(shape[:-1] + (2, shape[-1]))
    return x[..., 0, :] + 1j * x[..., 1, :]


# -- forms -----------------------------------------------------------------


@dataclass(frozen=True)
class FormJet:
    mj: MetricJet
    p: int
    q: int
    r: int
    coeffs: np.ndarray  # complex (C(n, p), C(n, q), r, S)

    @property
    def n(self):
        return self.mj.n

    @property
    def order(self) -> int:
        """The jet order, one for every coefficient."""
        return _algebra_of(self.n, self.coeffs.shape[-1]).order

    def max_const(self) -> float:
        """The largest modulus of a coefficient's constant term."""
        return float(np.abs(self.coeffs[..., 0]).max(initial=0.0))

    def __add__(self, other):
        if (self.p, self.q, self.r) != (other.p, other.q, other.r):
            raise StructuralError("bidegree/rank mismatch in form addition")
        return FormJet(self.mj, self.p, self.q, self.r,
                       add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return self + other * (-1.0)

    def __mul__(self, s):
        """Times a scalar."""
        return FormJet(self.mj, self.p, self.q, self.r, self.coeffs * s)

    __rmul__ = __mul__


def zero_form(mj: MetricJet, p: int, q: int, r: int = 1,
              order: int | None = None) -> FormJet:
    """The zero (p, q)-form; outside 0..n its basis is empty."""
    n = mj.n
    size = _algebra(n, mj.order if order is None else order).size
    return FormJet(mj, p, q, r, np.zeros(
        (len(_combos(n, p)), len(_combos(n, q)), r, size), dtype=complex))


def _zeros_like(phi: FormJet, p: int, q: int) -> FormJet:
    """The zero (p, q)-form of phi's rank and jet order."""
    return zero_form(phi.mj, p, q, phi.r, phi.order)


def random_form(mj: MetricJet, p: int, q: int, rng, r: int = 1) -> FormJet:
    """Random FormJet with dense random polynomial jet coefficients."""
    shape = zero_form(mj, p, q, r).coeffs.shape
    return FormJet(mj, p, q, r, _random_jets(shape, rng))


# -- basis bookkeeping -----------------------------------------------------

# Side index of a slot group: the dz^I block (HOLO) or the dzbar^J block
# (ANTI).  It is also the coefficient-array axis of that block, and each
# conjugate operator pair below is one body selected by it.
HOLO, ANTI = 0, 1


def _bumped(phi: FormJet, side: int, d: int):
    """Bidegree of phi with its `side` degree moved by d."""
    return phi.p + d * (side == HOLO), phi.q + d * (side == ANTI)


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


def _dim(n: int, p: int, q: int) -> int:
    """Length of the (p, q) coefficient vector of a scalar form."""
    return len(_combos(n, p)) * len(_combos(n, q))


def _empty(n: int, *degrees) -> bool:
    """Whether one of the (p, q) bases is empty (a degree outside 0..n)."""
    return not all(_dim(n, p, q) for p, q in degrees)


@lru_cache(maxsize=None)
def _term_table(n: int, p: int, q: int, moves: tuple):
    """The terms of a chain of slot moves on (p, q)-forms.  Each move
    (side, d) slots an index k into (d = 1) or out of (d = -1) that side's
    block, the first move applied first; a barred slot passes the p
    unbarred ones reached so far.  Columns: the flat source row
    a * C(n, q) + b, the flat destination row, the k of each move in order
    and the product of the signs."""
    nq = len(_combos(n, q))
    terms = [(s, divmod(s, nq), (), 1) for s in range(_dim(n, p, q))]
    deg = [p, q]
    for side, d in moves:
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


def _slot_sum(phi: FormJet, side: int, d: int, parts: np.ndarray) -> FormJet:
    """sum_k dz^k ^ parts[k] (d = 1) or sum_k I_k parts[k] (d = -1) on the
    `side` block (dzbar^k and I_kbar on ANTI), for parts (n, ..., r, S) at
    phi's bidegree and rank: one gather and scatter of the (side, d) chain."""
    r, size = parts.shape[-2:]
    out = zero_form(phi.mj, *_bumped(phi, side, d), phi.r,
                    _algebra_of(phi.n, size).order)
    src, dst, k, sign = _term_table(phi.n, phi.p, phi.q, ((side, d),))
    terms = parts.reshape(len(parts), -1, r, size)[k, src] * sign[:, None, None]
    np.add.at(out.coeffs.reshape(-1, r, size), dst, terms)
    return out


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
    out = zero_form(phi.mj, p, q, max(phi.r, psi.r),
                    min(phi.order, psi.order))
    a1, a2, a, sa = _merge_table(n, phi.p, psi.p)
    b1, b2, b, sb = _merge_table(n, phi.q, psi.q)
    sign = (-1) ** (phi.q * psi.p) * np.multiply.outer(sa, sb)
    terms = (mul(phi.coeffs[a1[:, None], b1], psi.coeffs[a2[:, None], b2], n)
             * sign[:, :, None, None])
    np.add.at(out.coeffs, (a[:, None], b), terms)
    return out


# -- differential operators ------------------------------------------------


@per_point
def _gammas(mj: MetricJet) -> tuple:
    """Gamma_{D c}^k at [D, c, k] for every direction D, with c, k on the
    HOLO block and on the ANTI block: the view levi_civita(mj)[:, :n, :n],
    the one block of the table the form operators read, and its conjugate
    conj(Gamma_{Dbar c}^k), the direction conjugated too; [side] is the
    block of that side."""
    g, n = levi_civita(mj)[:, :mj.n, :mj.n], mj.n
    return g, conj(np.concatenate([g[n:], g[:n]]), n)


def _dcoeffs(phi: FormJet, side: int,
             conn: "ConnectionJet | None" = None) -> np.ndarray:
    """The coefficients differentiated along z^i (HOLO) or zbar^i (ANTI),
    i = 0..n-1, plus phi @ M_i on the fiber axis for the matrices M of a
    fiber connection: an (n,) + phi.coeffs.shape array, one order lower."""
    n = phi.n
    out = derivatives(phi.coeffs, n, range(n * side, n * (side + 1)))
    if conn is not None:
        mats = (conn.amats, conn.bmats)[side]
        out += matmul(phi.coeffs[..., :out.shape[-1]], mats[:, None], n)
    return out


def _d(phi: FormJet, side: int, conn: "ConnectionJet | None" = None) -> FormJet:
    """partial (HOLO) or dbar (ANTI), twisted by a fiber connection."""
    return _slot_sum(phi, side, 1, _dcoeffs(phi, side, conn))


def partial(phi: FormJet, conn=None) -> FormJet:
    return _d(phi, HOLO, conn)


def dbar(phi: FormJet, conn=None) -> FormJet:
    return _d(phi, ANTI, conn)


def _nabla(phi: FormJet, side: int,
           conn: "ConnectionJet | None" = None) -> np.ndarray:
    """The type-preserving covariant derivatives in the directions z^i
    (HOLO) or zbar^i (ANTI), i = 0..n-1, as in _dcoeffs:
    d_X - sum Gamma dz^c ^ I_k on each slot group, plus a fiber
    connection."""
    n = phi.n
    out = _dcoeffs(phi, side, conn)
    # the derivative has the lowest order of every term; rows are flat
    x = phi.coeffs[..., :out.shape[-1]].reshape(-1, *out.shape[-2:])
    rows = out.reshape(n, -1, *out.shape[-2:])
    for slots in (HOLO, ANTI):
        if not (phi.p, phi.q)[slots]:
            continue
        # g[i, c, k] = Gamma_{X_i c}^k on this group
        g = _gammas(phi.mj)[slots][n * side:n * (side + 1)]
        # dz^c ^ I_k on phi itself, the n directions in one product
        src, dst, k, c, sign = _term_table(n, phi.p, phi.q,
                                           ((slots, -1), (slots, 1)))
        terms = mul(x[src], (g[:, c, k] * -sign[:, None])[:, :, None], n)
        np.add.at(rows, (slice(None), dst), terms)
    return rows.reshape(out.shape)


def _big_d(phi: FormJet, side: int, conn=None) -> FormJet:
    """D' (HOLO) or D'' (ANTI): the covariant exterior derivative parts."""
    return _slot_sum(phi, side, 1, _nabla(phi, side, conn))


def d_prime(phi: FormJet, conn=None) -> FormJet:
    return _big_d(phi, HOLO, conn)


def d_second(phi: FormJet, conn=None) -> FormJet:
    return _big_d(phi, ANTI, conn)


def _h_up(mj: MetricJet, side: int) -> np.ndarray:
    """The raised metric pairing a `side` index k with an other-side index
    m, at [k, m]: h^{k mbar} on HOLO, h^{m kbar} on ANTI."""
    return mj.hinv.swapaxes(0, 1) if side == HOLO else mj.hinv


def _delta0(phi: FormJet, side: int, conn=None) -> FormJet:
    """-h^{i jbar} I_i nabla''_jbar (HOLO) or -h^{j ibar} I_ibar nabla'_j
    (ANTI)."""
    target = _bumped(phi, side, -1)
    if _empty(phi.n, target, (phi.p, phi.q)):
        return _zeros_like(phi, *target)
    up = _h_up(phi.mj, side)[:, :, None, None, None] * -1.0  # [i, j]
    nab = _nabla(phi, 1 - side, conn)
    return _slot_sum(phi, side, -1, mul(up, nab, phi.n).sum(axis=1))


def delta0_prime(phi: FormJet, conn=None) -> FormJet:
    return _delta0(phi, HOLO, conn)


def delta0_second(phi: FormJet, conn=None) -> FormJet:
    return _delta0(phi, ANTI, conn)


# -- omega and the algebraic operators -------------------------------------


def omega_form(mj: MetricJet) -> FormJet:
    """The fundamental form omega = (sqrt(-1)/2) h_{i jbar} dz^i ^ dzbar^j."""
    return FormJet(mj, 1, 1, 1, (mj.h * 1j)[:, :, None]) * 0.5


@per_point
def _a_coefficients(mj: MetricJet) -> np.ndarray:
    """-h^{k lbar} h_{i mbar} Gamma_{s lbar}^{mbar} at [k, i, s]: the
    coefficients of a_op in the order of its slot moves, built once per
    point and kept with it."""
    n = mj.n
    gam = _gammas(mj)[ANTI][:n]  # [s, l, m]
    # sum_m Gamma[s, l, m] h[i, m], then sum_l h^{k lbar} (...)[s, l, i]
    gh = matmul(gam, mj.h.swapaxes(0, 1), n)
    return (matmul(mj.hinv.swapaxes(0, 1), gh, n)
            .transpose(1, 2, 0, 3) * -1.0)


@dataclass(frozen=True)
class _Algebraic:
    """A jet-linear operator without derivatives, one row of the operator
    table in docs/conventions.md: sum_k coef(mj)[k] M_k, M_k the chain of
    slot `moves` of the HOLO operator (see _term_table) with indices k.
    It acts on the coefficient rows of phi's form index, each fiber column
    alike (_act); star acts by the transpose, the same terms with source
    and destination swapped.  With side ANTI (bar) it is the conjugate
    operator: the moves on the other side, conjugate coefficients."""
    moves: tuple
    coef: object
    side: int = HOLO

    @cached_property
    def ddeg(self) -> tuple:
        return tuple(sum(d for s, d in self.moves if s ^ self.side == side)
                     for side in (HOLO, ANTI))

    @property
    def bar(self) -> "_Algebraic":
        return replace(self, side=1 - self.side)

    def _act(self, mj: MetricJet, p: int, q: int, x: np.ndarray,
             transpose: bool = False) -> np.ndarray:
        """T x for T the operator from the (p, q) coefficient rows to those
        at (p, q) + ddeg, x (rows, r, S), or T^T x back from there: one
        product of each term's source row with sign coef[k...], summed into
        its destination row in term order."""
        n, coef, (dp, dq) = mj.n, self.coef(mj), self.ddeg
        if self.side == ANTI:
            coef = conj(coef, n)
        chain = tuple((s ^ self.side, d) for s, d in self.moves)
        src, dst, *ks, sign = _term_table(n, p, q, chain)
        if transpose:  # from the rows at (p, q) + ddeg back to (p, q)
            src, dst, dp, dq = dst, src, 0, 0
        terms = mul(x[src], (coef[tuple(ks)] * sign[:, None])[:, None], n)
        out = np.zeros((_dim(n, p + dp, q + dq), *terms.shape[1:]), complex)
        np.add.at(out, dst, terms)
        return out

    def __call__(self, phi: FormJet) -> FormJet:
        p, q = phi.p + self.ddeg[0], phi.q + self.ddeg[1]
        if _empty(phi.n, (p, q), (phi.p, phi.q)):
            return _zeros_like(phi, p, q)
        x = self._act(phi.mj, phi.p, phi.q,
                      phi.coeffs.reshape(-1, phi.r, phi.coeffs.shape[-1]))
        return FormJet(phi.mj, p, q, phi.r, x.reshape(
            len(_combos(phi.n, p)), len(_combos(phi.n, q)), phi.r, -1))


@dataclass(frozen=True)
class _Bracket:
    """[a, b] = a b - b a of two algebraic operators, each factor at its own
    bidegree, and its transpose b^T a^T - a^T b^T.  a is real, so the
    conjugate operator is [a, b.bar]."""
    a: _Algebraic
    b: _Algebraic

    @cached_property
    def ddeg(self) -> tuple:
        return tuple(x + y for x, y in zip(self.a.ddeg, self.b.ddeg))

    @property
    def bar(self) -> "_Bracket":
        return _Bracket(self.a, self.b.bar)

    def _act(self, mj: MetricJet, p: int, q: int, x: np.ndarray,
             transpose: bool = False) -> np.ndarray:
        (ap, aq), (bp, bq) = self.a.ddeg, self.b.ddeg
        a = lambda dp, dq, y: self.a._act(mj, p + dp, q + dq, y, transpose)
        b = lambda dp, dq, y: self.b._act(mj, p + dp, q + dq, y, transpose)
        if transpose:
            return b(0, 0, a(bp, bq, x)) - a(0, 0, b(ap, aq, x))
        return a(bp, bq, b(0, 0, x)) - b(ap, aq, a(0, 0, x))

    __call__ = _Algebraic.__call__


# L = 2 omega ^ = sqrt(-1) h_{i jbar} dz^i ^ dzbar^j ^ and
# Lambda = sqrt(-1) h^{i jbar} I_i I_jbar, both real
l_op = _Algebraic(((ANTI, 1), (HOLO, 1)), lambda mj: mj.h.swapaxes(0, 1) * 1j)
lambda_op = _Algebraic(((ANTI, -1), (HOLO, -1)), lambda mj: mj.hinv * 1j)
# A = -h^{k lbar} h_{i mbar} Gamma_{s lbar}^{mbar} dz^s ^ dz^i ^ I_k
a_op = _Algebraic(((HOLO, -1), (HOLO, 1), (HOLO, 1)),
                  lambda mj: _a_coefficients(mj))
# B = -2 Gamma_{i jbar}^{lbar} dz^i ^ dzbar^j ^ I_lbar
b_op = _Algebraic(((ANTI, -1), (ANTI, 1), (HOLO, 1)), lambda mj: (
    _gammas(mj)[ANTI][:mj.n].transpose(2, 1, 0, 3) * -2.0))
# C = 2 Gamma_{j lbar}^{lbar} dz^j ^, the torsion (1,0)-form
c_op = _Algebraic(((HOLO, 1),), lambda mj: (
    np.trace(_gammas(mj)[ANTI][:mj.n], axis1=1, axis2=2) * 2.0))
# w ^ for w = 2 d'omega = sqrt(-1) d_a h_{b cbar} dz^a ^ dz^b ^ dzbar^c
_w = _Algebraic(((ANTI, 1), (HOLO, 1), (HOLO, 1)), lambda mj: (
    derivatives(mj.h, mj.n, range(mj.n)).transpose(2, 1, 0, 3) * 1j))
tau = _Bracket(lambda_op, _w)
tau_bar, _a_bar, _b_bar, _c_bar = tau.bar, a_op.bar, b_op.bar, c_op.bar


# -- inner product and adjoints --------------------------------------------


@lru_cache(maxsize=None)
def _minor_table(n: int, k: int):
    """For the k x k minors on rows I, columns K of _combos(n, k), k >= 2,
    at [I, K, t]: the row I[0], the column K[t] and the rows I[1:] and
    columns K without K[t] of a (k-1) x (k-1) minor in _combos(n, k - 1)."""
    low, combos = _combo_index(n, k - 1), _combos(n, k)
    rows = np.array([(I[0], low[I[1:]]) for I in combos]).T[..., None, None]
    minors = np.array([[low[K[:t] + K[t + 1:]] for t in range(k)]
                       for K in combos])
    return rows[0], np.array(combos), rows[1], minors


def _compounds(m: np.ndarray, top: int, n: int) -> list:
    """C_0(m), ..., C_top(m): the k x k minors of the n x n jet matrix m
    (n, n, S), rows and columns in _combos(n, k) order, C_0 = [[1]].  The
    minor on rows I, columns K is sum_t (-1)^t m[I[0], K[t]] times the minor
    on I[1:] and K without K[t]: one batched product per minor size."""
    out = [np.eye(1, m.shape[-1], dtype=complex)[None], m]
    for k in range(2, top + 1):
        first, cols, rest, minors = _minor_table(n, k)
        terms = mul(m[first, cols], out[-1][rest, minors], n)
        out.append((terms * (-1.0) ** np.arange(k)[:, None]).sum(axis=2))
    return out


@per_point
def _gram_factors(mj: MetricJet) -> tuple:
    """(C_0..C_n of Hup, C_0..C_n of h^T): the Gram factors and those of
    its inverse (see _metric), built once per jet and kept with it; the
    suites read them on a jet of the call's own (_trials)."""
    return tuple(tuple(_compounds(m, mj.n, mj.n))
                 for m in (_h_up(mj, HOLO), mj.h.swapaxes(0, 1)))


def gram(mj: MetricJet, p: int, q: int) -> np.ndarray:
    """Gram matrix of the basis forms, a jet matrix (D, D, S), D = C(n,p)
    C(n,q): kron(C_p(Hup), conj C_q(Hup)) for Hup[i, k] = h^{i kbar}, the
    row of dz^I ^ dzbar^J a * C(n, q) + b, I, J the a-th and b-th combos."""
    cs = _gram_factors(mj)[0]
    a, b = cs[p], conj(cs[q], mj.n)
    out = mul(a[:, None, :, None], b[None, :, None, :], mj.n)
    return out.reshape(len(a) * len(b), len(a) * len(b), -1)


def _metric(cs: tuple, p: int, q: int, x: np.ndarray, n: int):
    """kron(C_p(m), conj C_q(m)) on the (p, q) coefficients x (C(n,p),
    C(n,q), r, S), cs the compounds of m, one factor at a time: C_p x
    conj(C_q)^T on the form axes; C_0 = [[1]] is not applied.  m = Hup
    gives the Gram matrix; by Cauchy-Binet C_k(Hup)^-1 = C_k(Hup^-1), and
    Hup^-1 = h^T is the lower metric, so m = h^T gives its inverse with no
    solve."""
    P, Q, r, _ = x.shape
    if p:
        x = matmul(cs[p], x.reshape(P, Q * r, -1), n).reshape(P, Q, r, -1)
    return matmul(conj(cs[q], n), x, n) if q else x


def inner(phi: FormJet, psi: FormJet, fiber: np.ndarray | None = None):
    """Pointwise Hermitian inner product, a jet (S,) conjugate linear in
    psi.  fiber is the (r, r, S) jet matrix F[al, be] = <e_al, e_be> (the
    identity when None), applied as F^T on the fiber axis."""
    if (phi.p, phi.q, phi.r) != (psi.p, psi.q, psi.r):
        raise StructuralError("bidegree/rank mismatch in inner product")
    n = phi.n
    y = _metric(_gram_factors(phi.mj)[0], phi.p, phi.q, conj(psi.coeffs, n), n)
    if fiber is not None:
        y = matmul(y, fiber.swapaxes(0, 1), n)
    return mul(phi.coeffs, y, n).sum(axis=(0, 1, 2))


def star(op: _Algebraic, phi: FormJet) -> FormJet:
    """Exact pointwise adjoint of an algebraic operator (l_op, lambda_op,
    a_op, b_op, c_op, tau, tau_bar or a conjugate), which maps (p,q) ->
    (p+dp, q+dq) with op.ddeg = (dp, dq); star(op) maps phi at (p,q) back
    to (p-dp, q-dq): with G the Gram matrices, conj(Gs^-1 T^T Gd conj(phi))
    from the right, T^T op's term table with source and destination swapped
    (op is never applied) and Gs^-1 a compound-matrix product.  op acts on
    form indices only, so the fiber metric F of the E-valued Gram G (x) F
    cancels between Gd and Gs^-1: star takes none."""
    mj, n, r = phi.mj, phi.n, phi.r
    sp, sq = phi.p - op.ddeg[0], phi.q - op.ddeg[1]
    if _empty(n, (sp, sq), (phi.p, phi.q)):
        return _zeros_like(phi, sp, sq)
    up, down = _gram_factors(mj)
    y = _metric(up, phi.p, phi.q, conj(phi.coeffs, n), n)
    x = op._act(mj, sp, sq, y.reshape(-1, r, y.shape[-1]), transpose=True)
    x = x.reshape(len(_combos(n, sp)), len(_combos(n, sq)), r, -1)
    return FormJet(mj, sp, sq, r, conj(_metric(down, sp, sq, x, n), n))


def _d_star(phi: FormJet, side: int, conn=None) -> FormJet:
    """Local formula: delta0 - (B* + C*)/2 on HOLO (partial*), the
    conjugates on ANTI (dbar*); with a fiber connection, delta0 is taken
    with it (the B* and C* terms act on each fiber column alike)."""
    b, c = ((b_op, c_op), (_b_bar, _c_bar))[side]
    return _delta0(phi, side, conn) - (star(b, phi) + star(c, phi)) * 0.5


def dbar_star(phi: FormJet, conn=None) -> FormJet:
    return _d_star(phi, ANTI, conn)


def partial_star(phi: FormJet, conn=None) -> FormJet:
    return _d_star(phi, HOLO, conn)


# -- identity suites -------------------------------------------------------


def _trials(mj: MetricJet, k: int, trials: int, seed: int, r: int,
            trial, last) -> dict:
    """Max constant coefficient of each residual form over `trials` random
    rank-r forms phi of random bidegree, then of the after-loop ones:
    trial(phi, draw) and last(low, draw) return residual forms by name, and
    draw(p, q, r) is a further random form.  low is mj cut to order k as a
    jet of the call's own: the trials share it and what the operators
    memoize there, and it is freed when the call returns, however long the
    caller keeps mj.  Every form is drawn at mj's order and cut to low, so
    a seed checks the same forms on any jet of order >= k."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    low = mj._prefix(min(k, mj.order))
    size = low.h.shape[-1]

    def draw(p, q, r):
        phi = random_form(mj, p, q, rng, r=r)
        return FormJet(low, phi.p, phi.q, r, phi.coeffs[..., :size])

    res = {}
    for _ in range(trials):
        p = int(rng.integers(0, mj.n + 1))
        q = int(rng.integers(0, mj.n + 1))
        for name, form in trial(draw(p, q, r), draw).items():
            res[name] = max(res.get(name, 0.0), form.max_const())
    res.update((name, form.max_const())
               for name, form in last(low, draw).items())
    return res


def identity_suite(mj: MetricJet, trials: int, seed: int) -> dict:
    """Max residual (constant coefficient) of each operator identity over
    random forms of random bidegrees.  A residual is a constant coefficient
    after one derivative, so the trials run at jet order 1."""
    def trial(phi, draw):
        # each operator value on phi once: the adjoints dominate a trial,
        # and dbar* phi is _d_star's sum of the trial's delta0'' and adjoints
        lam, d_phi, d0 = lambda_op(phi), partial(phi), delta0_second(phi)
        ab, bb, cb = star(_a_bar, phi), star(_b_bar, phi), star(_c_bar, phi)
        ds = d0 - (bb + cb) * 0.5
        comm = lambda op: lambda_op(op(phi)) - op(lam)
        return {"lambda_a": comm(a_op) + bb * 1j,
                "lambda_b": comm(b_op) + (ab * 2.0 + bb + cb) * 1j,
                "lambda_c": comm(c_op) + cb * 1j,
                "partial_split": d_phi - d_prime(phi) + b_op(phi) * 0.5,
                "dbar_star_split": ds - d0 + (bb + cb) * 0.5,
                "kahler_torsion": (lambda_op(d_phi) - partial(lam)
                                   - (ds + star(tau_bar, phi)) * 1j)}

    def last(low, draw):
        w = omega_form(low)
        return {"torsion_form": dbar_star(w) - lambda_op(partial(w)) * 1j}

    return _trials(mj, 1, trials, seed, 1, trial, last)


# -- bundle-valued machinery -----------------------------------------------


@dataclass(frozen=True)
class ConnectionJet:
    """A metric connection on a rank-r bundle E at the point, as coefficient
    arrays: nabla_{z^i} e_al = amats[i, al, be] e_be and nabla_{zbar^j} e_al
    = bmats[j, al, be] e_be, both (n, r, r, S), and the (r, r, S) fiber
    metric fiber[al, be] = <e_al, e_be>."""
    r: int
    amats: np.ndarray
    bmats: np.ndarray
    fiber: np.ndarray


def _unit_fiber(mj: MetricJet, r: int) -> np.ndarray:
    """The identity fiber metric of a rank-r bundle, an (r, r, S) array;
    refuses a rank below 1."""
    if r < 1:
        raise ValidationError(f"bundle rank r must be >= 1, got r={r}")
    fiber = np.zeros((r, r, _algebra(mj.n, mj.order).size), dtype=complex)
    fiber[range(r), range(r), 0] = 1.0
    return fiber


def trivial_connection(mj: MetricJet, r: int = 1) -> ConnectionJet:
    fiber = _unit_fiber(mj, r)
    amats = np.zeros((mj.n,) + fiber.shape, dtype=complex)
    return ConnectionJet(r=r, amats=amats, bmats=amats, fiber=fiber)


def chern_connection(mj: MetricJet) -> ConnectionJet:
    """The tangent bundle E = T^{1,0}M with its holomorphic-metric
    connection: fiber metric h, (1,0)-part the Chern table, (0,1)-part 0."""
    tab = chern(mj)
    return ConnectionJet(r=mj.n, amats=tab[:mj.n], bmats=tab[mj.n:],
                         fiber=mj.h)


def random_metric_connection(mj: MetricJet, r: int, seed: int) -> ConnectionJet:
    """Random connection jets compatible with the identity fiber metric:
    B_j = -A_j^H at jet level."""
    fiber = _unit_fiber(mj, r)
    rng = np.random.default_rng(seed)
    amats = _random_jets((mj.n,) + fiber.shape, rng) * 0.3
    bmats = conj(amats, mj.n).transpose(0, 2, 1, 3) * -1.0
    return ConnectionJet(r=r, amats=amats, bmats=bmats, fiber=fiber)


def check_metric_compatible(conn: ConnectionJet, n: int,
                            tol: float = 1e-10) -> None:
    """d<s,t> = <nabla s, t> + <s, nabla t> at jet level, that is
    dF/dz^i - A_i F - F conj(B_i)^T = 0 for each direction; raises naming
    the first violated coefficient."""
    F = conn.fiber
    resid = add(add(derivatives(F, n, range(n)),
                    matmul(conn.amats, F, n) * -1.0),
                matmul(F, conj(conn.bmats, n).swapaxes(1, 2), n) * -1.0)
    bad = np.argwhere(np.abs(resid).max(axis=-1) > tol)
    if len(bad):
        i, al, be = bad[0]
        raise ValidationError(
            "connection not metric-compatible at fiber entry "
            f"({al}, {be}), direction z^{i + 1}")


def bundle_identity_suite(mj: MetricJet, conn: ConnectionJet,
                          trials: int, seed: int) -> dict:
    """Residuals of the bundle commutator identities, curvature tensoriality
    and the torsion/section identity on random E-valued forms.  A residual
    is a constant coefficient after at most two derivatives, so the trials
    run at jet order 2, and so do the connection's arrays (checked for
    compatibility as given)."""
    check_metric_compatible(conn, mj.n)
    n, r = mj.n, conn.r
    size = _algebra(n, min(mj.order, 2)).size
    conn = ConnectionJet(r, conn.amats[..., :size], conn.bmats[..., :size],
                         conn.fiber[..., :size])
    pe = lambda f: partial(f, conn)
    de = lambda f: dbar(f, conn)
    pes = lambda f: partial_star(f, conn)
    des = lambda f: dbar_star(f, conn)

    def trial(phi, draw):
        # each operator value on phi once: the adjoints dominate a trial
        l_phi, lam = l_op(phi), lambda_op(phi)
        pe_phi, de_phi, pes_phi, des_phi = pe(phi), de(phi), pes(phi), des(phi)
        # curvature tensoriality on a product phi_scalar x s
        phis, s = draw(phi.p, phi.q, 1), draw(0, 0, r)
        prod = FormJet(phi.mj, phi.p, phi.q, r,
                       mul(phis.coeffs, s.coeffs[0, 0], n))
        return {
            "dbar_e_star_L": (des(l_phi) - l_op(des_phi)
                              - (pe_phi + tau(phi)) * 1j),
            "partial_e_star_L": (pes(l_phi) - l_op(pes_phi)
                                 + (de_phi + tau_bar(phi)) * 1j),
            "lambda_partial_e": (lambda_op(pe_phi) - pe(lam)
                                 - (des_phi + star(tau_bar, phi)) * 1j),
            "lambda_dbar_e": (lambda_op(de_phi) - de(lam)
                              + (pes_phi + star(tau, phi)) * 1j),
            "tensoriality": (pe(de(prod)) + de(pe(prod))
                             - wedge(phis, pe(de(s)) + de(pe(s))))}

    def last(low, draw):
        # Lemma 4.6: tau(s) = -2 sqrt(-1) (dbar* omega) . s for sections s
        s = draw(0, 0, r)
        dso = dbar_star(omega_form(low))
        return {"torsion_section": tau(s) - wedge(dso, s) * (-2j)}

    return _trials(mj, 2, trials, seed, r, trial, last)


def second_hermitian_ricci(conn: ConnectionJet, mj: MetricJet) -> np.ndarray:
    """Tr_omega R^E lowered with the fiber metric: an r x r Hermitian
    matrix with entries h^{i jbar} R_{i jbar al}^{ga} <e_ga, e_be>."""
    n = mj.n
    tab = np.concatenate([conn.amats, conn.bmats])
    R = connection_curvature(point_derivatives(tab, n),
                             point_derivatives(tab, n, 1),
                             point_derivatives(conn.fiber, n))
    return np.einsum("ij,ijab->ab", mj.hinv_at0().T, R[:n, n:])
