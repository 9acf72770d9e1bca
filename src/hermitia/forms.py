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
_derivation_table (the Levi-Civita part of nabla, d_X - Gamma dz^c ^ I_k).

The pointwise inner product is the determinant pairing
  < dz^I ^ dzbar^J, dz^K ^ dzbar^L > = det(h^{i kbar}) conj(det(h^{j lbar}))
with no per-degree factor, and algebraic operators get their stars as exact
matrix adjoints with respect to it.  This is the normalization under which the
commutator identities close (see docs/conventions.md).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .connection import levi_civita
from .curvature import det_jet
from .errors import StructuralError, ValidationError
from .jets import Jet, constant, jet_conj, jet_matrix_inverse, wirtinger
from .metric import MetricJet, per_point

__all__ = [
    "FormJet",
    "ConnectionJet",
    "zero_form",
    "form_from_scalar",
    "random_form",
    "two_omega",
    "omega_form",
    "wedge",
    "form_conj",
    "partial",
    "dbar",
    "d_prime",
    "d_second",
    "delta0_prime",
    "delta0_second",
    "l_op",
    "lambda_op",
    "lambda_matrix_adjoint",
    "a_op",
    "b_op",
    "c_op",
    "tau",
    "tau_bar",
    "star",
    "partial_star",
    "dbar_star",
    "apply",
    "OPERATORS",
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
_jets_conj = np.frompyfunc(jet_conj, 1, 1)
_jets_nonzero = np.frompyfunc(lambda a: a.max_abs() != 0.0, 1, 1)


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


def form_from_scalar(mj: MetricJet, f: Jet, r: int = 1,
                     component: int = 0) -> FormJet:
    out = zero_form(mj, 0, 0, r, order=f.order)
    out.coeffs[0, 0, component] = f
    return out


def random_form(mj: MetricJet, p: int, q: int, rng, r: int = 1,
                order: int | None = None) -> FormJet:
    """Random FormJet with dense random polynomial jet coefficients."""
    n = mj.n
    out = zero_form(mj, p, q, r, order)
    for idx in np.ndindex(out.coeffs.shape):
        base = out.coeffs[idx]
        vals = (rng.standard_normal(base.coeffs.shape)
                + 1j * rng.standard_normal(base.coeffs.shape))
        out.coeffs[idx] = Jet(n, base.order, vals)
    return out


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
    column, each a read-only array."""
    t = np.array(rows, dtype=float).reshape(-1, width).T
    cols = [c.astype(int) for c in t[:-1]] + [t[-1]]
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


def _slot_map(phi: FormJet, side: int, k: int, d: int,
              coef: Jet | None = None) -> FormJet:
    """Slot k into (d = 1) or out of (d = -1) the `side` block of phi, times
    an optional scalar jet; a barred slot passes the p unbarred ones."""
    out = zero_form(phi.mj, *_bumped(phi, side, d), phi.r)
    deg = (phi.p, phi.q)[side]
    if not 0 <= deg + d <= phi.n:
        return out
    src, dst, sign = _slot_table(phi.n, deg, k, d)
    if side == ANTI:
        sign = sign * (-1) ** phi.p
    c = _side_view(phi.coeffs, side)[src]
    if coef is not None:
        c = c * coef
    _side_view(out.coeffs, side)[dst] = c * sign[:, None, None]
    return out


def _wedge1(phi: FormJet, side: int, k: int, coef: Jet | None = None) -> FormJet:
    """dz^k (HOLO) or dzbar^k (ANTI) wedge phi, times an optional scalar
    jet."""
    return _slot_map(phi, side, k, 1, coef)


def _contract(phi: FormJet, side: int, k: int) -> FormJet:
    """Interior product with d/dz^k (HOLO) or d/dzbar^k (ANTI)."""
    return _slot_map(phi, side, k, -1)


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


def form_conj(phi: FormJet) -> FormJet:
    """Complex conjugate; bidegree (p, q) -> (q, p)."""
    out = _jets_conj(phi.coeffs.swapaxes(0, 1))
    return FormJet(phi.mj, phi.q, phi.p, phi.r,
                   out * float((-1) ** (phi.p * phi.q)))


# -- differential operators ------------------------------------------------


def _dcoeffs(phi: FormJet, side: int, i: int) -> FormJet:
    """Every coefficient differentiated along z^i (HOLO) or zbar^i (ANTI)."""
    kind = ("holo", "antiholo")[side]
    d = np.frompyfunc(lambda c: wirtinger(c, kind, i), 1, 1)
    return FormJet(phi.mj, phi.p, phi.q, phi.r, d(phi.coeffs))


def _fiber_apply(out: FormJet, phi: FormJet, mat) -> None:
    """out += phi . mat in place, mat[al][be] a fiber connection matrix."""
    for al in range(phi.r):
        out.coeffs[...] = (out.coeffs + phi.coeffs[..., al:al + 1]
                           * np.array(mat[al], dtype=object))


def _d(phi: FormJet, side: int, conn: "ConnectionJet | None" = None) -> FormJet:
    """partial (HOLO) or dbar (ANTI), twisted by a fiber connection."""
    out = zero_form(phi.mj, *_bumped(phi, side, 1), phi.r)
    for i in range(phi.n):
        d = _dcoeffs(phi, side, i)
        if conn is not None:
            _fiber_apply(d, phi, (conn.amats, conn.bmats)[side][i])
        out = out + _wedge1(d, side, i)
    return out


def partial(phi: FormJet) -> FormJet:
    return _d(phi, HOLO)


def dbar(phi: FormJet) -> FormJet:
    return _d(phi, ANTI)


@lru_cache(maxsize=None)
def _derivation_table(n: int, deg: int):
    """dz^c ^ I_k on a degree-deg block, for every slot k and every c,
    composed from the slot tables: source row, destination row, k, c and
    the sign."""
    rows = []
    for k in range(n):
        for s, mid, s1 in zip(*_slot_table(n, deg, k, -1)):
            for c in range(n):
                src, dst, s2 = _slot_table(n, deg - 1, c, 1)
                for t in np.flatnonzero(src == mid):
                    rows.append((s, dst[t], k, c, s1 * s2[t]))
    return _columns(rows, 5)


def _nabla(phi: FormJet, side: int, i: int,
           conn: "ConnectionJet | None" = None) -> FormJet:
    """Type-preserving covariant derivative in direction z^i (HOLO) or
    zbar^i (ANTI): d_X - sum Gamma dz^c ^ I_k on each slot group, plus a
    fiber connection."""
    n = phi.n
    gamma = levi_civita(phi.mj).entries[n * side + i]
    out = _dcoeffs(phi, side, i)
    for slots, deg in ((HOLO, phi.p), (ANTI, phi.q)):
        if deg == 0:
            continue
        block = slice(n * slots, n * (slots + 1))
        g = gamma[block, block]  # g[c, k] = Gamma_{X c}^k on this group
        src, dst, k, c, sign = _derivation_table(n, deg)
        live = _jets_nonzero(g).astype(bool)[c, k]
        coef = np.where(sign > 0, (g * -1.0)[c, k], g[c, k])[live]
        terms = _side_view(phi.coeffs, slots)[src[live]] * coef[:, None, None]
        np.add.at(_side_view(out.coeffs, slots), dst[live], terms)
    if conn is not None:
        _fiber_apply(out, phi, (conn.amats, conn.bmats)[side][i])
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
    return mj.h_up(k, m) if side == HOLO else mj.h_up(m, k)


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


# -- omega, L, Lambda, torsion operators -----------------------------------


def two_omega(mj: MetricJet) -> FormJet:
    out = zero_form(mj, 1, 1, 1)
    for i in range(mj.n):
        for j in range(mj.n):
            out.coeffs[i, j, 0] = mj.h[i][j] * 1j
    return out


def omega_form(mj: MetricJet) -> FormJet:
    return two_omega(mj) * 0.5


def l_op(phi: FormJet) -> FormJet:
    return wedge(two_omega(phi.mj), phi)


def lambda_op(phi: FormJet) -> FormJet:
    """sqrt(-1) h^{i jbar} I_i I_jbar"""
    mj = phi.mj
    out = zero_form(mj, phi.p - 1, phi.q - 1, phi.r)
    if phi.p == 0 or phi.q == 0:
        return out
    for j in range(phi.n):
        cj = _contract(phi, ANTI, j)
        for i in range(phi.n):
            out = out + _contract(cj, HOLO, i) * (mj.h_up(i, j) * 1j)
    return out


def c_op(phi: FormJet) -> FormJet:
    """Multiplication by the torsion (1,0)-form 2 Gamma_{j lbar}^{lbar} dz^j."""
    mj = phi.mj
    lc = levi_civita(mj)
    n = mj.n
    out = zero_form(mj, phi.p + 1, phi.q, phi.r)
    for j in range(n):
        eta = _zero(n, mj.order - 1)
        for l in range(n):
            eta = eta + lc.entry(j, n + l, n + l)
        out = out + _wedge1(phi, HOLO, j, coef=eta * 2.0)
    return out


def b_op(phi: FormJet) -> FormJet:
    """-2 Gamma_{i jbar}^{lbar} dz^i ^ dzbar^j I_lbar"""
    mj = phi.mj
    lc = levi_civita(mj)
    n = mj.n
    out = zero_form(mj, phi.p + 1, phi.q, phi.r)
    if phi.q == 0:
        return out
    for l in range(n):
        cl = _contract(phi, ANTI, l)
        for i in range(n):
            for j in range(n):
                gam = lc.entry(i, n + j, n + l)
                if gam.max_abs() == 0.0:
                    continue
                out = out + _wedge1(_wedge1(cl, ANTI, j), HOLO, i,
                                    coef=gam * (-2.0))
    return out


@per_point
def _a_coefficients(mj: MetricJet) -> np.ndarray:
    """-h^{k lbar} h_{i mbar} Gamma_{s lbar}^{mbar} at [k, s, i], None where
    it vanishes: the coefficients of a_op, built once per point."""
    lc = levi_civita(mj)
    n = mj.n
    out = np.full((n, n, n), None, dtype=object)
    for k in range(n):
        for s in range(n):
            for i in range(n):
                coef = _zero(n, mj.order - 1)
                for l in range(n):
                    for m in range(n):
                        gam = lc.entry(s, n + l, n + m)
                        if gam.max_abs() != 0.0:
                            coef = coef + mj.h_up(k, l) * mj.h[i][m] * gam
                if coef.max_abs() != 0.0:
                    out[k, s, i] = coef * (-1.0)
    return out


def a_op(phi: FormJet) -> FormJet:
    """-h^{k lbar} h_{i mbar} Gamma_{s lbar}^{mbar} dz^s ^ dz^i I_k"""
    mj = phi.mj
    out = zero_form(mj, phi.p + 1, phi.q, phi.r)
    if phi.p == 0:
        return out
    coefs = _a_coefficients(mj)
    for k in range(mj.n):
        ck = _contract(phi, HOLO, k)
        for (s, i), coef in np.ndenumerate(coefs[k]):
            if coef is not None:
                out = out + _wedge1(_wedge1(ck, HOLO, i), HOLO, s, coef=coef)
    return out


def _torsion(phi: FormJet, side: int) -> FormJet:
    """[Lambda, w ^] with w = 2 d'omega on HOLO and its conjugate on ANTI
    (which, unlike tau_bar, leaves the fiber coefficients unconjugated)."""
    w = partial(two_omega(phi.mj))
    if side == ANTI:
        w = form_conj(w)
    return lambda_op(wedge(w, phi)) - wedge(w, lambda_op(phi))


def tau(phi: FormJet) -> FormJet:
    """[Lambda, 2 d'omega] — the type (1,0) torsion operator."""
    return _torsion(phi, HOLO)


def tau_bar(phi: FormJet) -> FormJet:
    return form_conj(tau(form_conj(phi)))


# -- inner product and adjoints --------------------------------------------


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two Jet matrices: entry
    (i * b.shape[0] + k, j * b.shape[1] + l) is a[i, j] b[k, l]."""
    out = np.multiply.outer(a, b).transpose(0, 2, 1, 3)
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


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
            out[a, b] = det_jet(m[np.ix_(I, K)])
    return out


def _gram_over(m: np.ndarray, p: int, q: int) -> np.ndarray:
    """kron(C_p(m), conj C_q(m)): the row of dz^I ^ dzbar^J is
    a * C(n, q) + b for I, J the a-th and b-th combos."""
    return _kron(_compound(m, p), _jets_conj(_compound(m, q)))


def gram(mj: MetricJet, p: int, q: int) -> np.ndarray:
    """Gram matrix of the basis forms; entries are Jets.  It is
    kron(C_p(Hup), conj C_q(Hup)) for Hup[i, k] = h^{i kbar}."""
    return _gram_over(mj.hinv.T, p, q)


def _gram_inverse(mj: MetricJet, p: int, q: int) -> np.ndarray:
    """gram(mj, p, q)^-1 without a solve: by Cauchy-Binet C_k(Hup)^-1 =
    C_k(Hup^-1), and Hup^-1[i, k] = h_{k ibar} is the lower metric."""
    return _gram_over(mj.h.T, p, q)


def _with_fiber(mj: MetricJet, g: np.ndarray, fiber, r: int) -> np.ndarray:
    """g tensored with an r x r fiber metric (the identity when None)."""
    if fiber is None:
        if r == 1:
            return g
        fiber = trivial_connection(mj, r).fiber
    return _kron(g, np.asarray(fiber, dtype=object))


def _flatten(phi: FormJet) -> np.ndarray:
    """The coefficient vector, entry (a * C(n, q) + b) * r + al."""
    return phi.coeffs.reshape(-1)


def inner(phi: FormJet, psi: FormJet, fiber: np.ndarray | None = None) -> Jet:
    """Pointwise Hermitian inner product; result is a Jet (conjugate linear
    in psi).  fiber is an r x r matrix of Jets G[al][be] = <e_al, e_be>."""
    if (phi.p, phi.q, phi.r) != (psi.p, psi.q, psi.r):
        raise StructuralError("bidegree/rank mismatch in inner product")
    g = _with_fiber(phi.mj, gram(phi.mj, phi.p, phi.q), fiber, phi.r)
    return _flatten(phi) @ (g @ _jets_conj(_flatten(psi)))


def _op_matrix(op, mj: MetricJet, p: int, q: int, r: int, dst):
    """Materialize a Jet-linear operator as a matrix of Jets from the (p,q)
    coefficient space into the coefficient space at bidegree dst."""
    na, nb = len(_combos(mj.n, p)), len(_combos(mj.n, q))
    cols = []
    for a in range(na):
        for b in range(nb):
            for al in range(r):
                e = zero_form(mj, p, q, r)
                e.coeffs[a, b, al] = constant(1.0 + 0.0j, mj.n, mj.order)
                img = op(e)
                if (img.p, img.q) != dst:
                    if not img.is_zero():
                        raise StructuralError(
                            "operator degree shift does not match ddeg")
                    img = zero_form(mj, dst[0], dst[1], r)
                cols.append(_flatten(img))
    mat = np.empty((len(cols[0]), len(cols)), dtype=object)
    for c, col in enumerate(cols):
        mat[:, c] = col
    return mat


def star(op, phi: FormJet, ddeg, fiber=None) -> FormJet:
    """Exact pointwise adjoint of a Jet-linear (algebraic) operator.

    op maps (p,q) -> (p+dp, q+dq) with ddeg = (dp, dq); star(op) maps phi at
    (p,q) back to (p-dp, q-dq).  With T the matrix of op and G the Gram
    matrices (tensored with the fiber metric F),
    star(op) phi = conj(Gs^-1 T^T Gd conj(phi)), three matrix-vector
    products from the right; Gs^-1 is a compound-matrix product and F^-1
    the only solve."""
    dp, dq = ddeg
    mj = phi.mj
    sp, sq = phi.p - dp, phi.q - dq
    if not (0 <= sp <= phi.n and 0 <= sq <= phi.n):
        return zero_form(mj, max(sp, 0), max(sq, 0), phi.r)
    T = _op_matrix(op, mj, sp, sq, phi.r, (phi.p, phi.q))
    f_inv = None if fiber is None else jet_matrix_inverse(fiber)
    g_dst = _with_fiber(mj, gram(mj, phi.p, phi.q), fiber, phi.r)
    gs_inv = _with_fiber(mj, _gram_inverse(mj, sp, sq), f_inv, phi.r)
    x = gs_inv @ (T.T @ (g_dst @ _jets_conj(_flatten(phi))))
    shape = (len(_combos(mj.n, sp)), len(_combos(mj.n, sq)), phi.r)
    return FormJet(mj, sp, sq, phi.r, _jets_conj(x).reshape(shape))


def lambda_matrix_adjoint(phi: FormJet) -> FormJet:
    """Lambda realized as the matrix adjoint of L; ground-truth cross-check
    for lambda_op."""
    return star(l_op, phi, (1, 1))


def _conj_op(op):
    """The conjugate operator form_conj . op . form_conj."""
    return lambda phi: form_conj(op(form_conj(phi)))


def _adjoint(op, ddeg):
    """Pointwise adjoint of op; star is looked up at call time."""
    def op_star(phi, fiber=None):
        return star(op, phi, ddeg, fiber)
    return op_star


_a_star = _adjoint(a_op, (1, 0))
_b_star = _adjoint(b_op, (1, 0))
_c_star = _adjoint(c_op, (1, 0))
_tau_star = _adjoint(tau, (1, 0))
_abar_star = _adjoint(_conj_op(a_op), (0, 1))
_bbar_star = _adjoint(_conj_op(b_op), (0, 1))
_cbar_star = _adjoint(_conj_op(c_op), (0, 1))
_tau_bar_star = _adjoint(tau_bar, (0, 1))


def _d_star(phi: FormJet, side: int) -> FormJet:
    """Local formula: delta0 - (B* + C*)/2 on HOLO (partial*), the
    conjugates on ANTI (dbar*)."""
    b_star, c_star = ((_b_star, _c_star), (_bbar_star, _cbar_star))[side]
    return _delta0(phi, side) - (b_star(phi) + c_star(phi)) * 0.5


def _delta(phi: FormJet, side: int) -> FormJet:
    """delta0 - C*/2 on HOLO, delta0 - Cbar*/2 on ANTI."""
    return _delta0(phi, side) - (_c_star, _cbar_star)[side](phi) * 0.5


def dbar_star(phi: FormJet) -> FormJet:
    return _d_star(phi, ANTI)


def partial_star(phi: FormJet) -> FormJet:
    return _d_star(phi, HOLO)


def delta_prime(phi: FormJet) -> FormJet:
    return _delta(phi, HOLO)


def delta_second(phi: FormJet) -> FormJet:
    return _delta(phi, ANTI)


OPERATORS = {
    "L": l_op,
    "Lambda": lambda_op,
    "partial": partial,
    "dbar": dbar,
    "Dprime": d_prime,
    "Dsecond": d_second,
    "delta0prime": delta0_prime,
    "delta0second": delta0_second,
    "deltaprime": delta_prime,
    "deltasecond": delta_second,
    "A": a_op,
    "B": b_op,
    "C": c_op,
    "tau": tau,
    "taubar": tau_bar,
    "Astar": _a_star,
    "Bstar": _b_star,
    "Cstar": _c_star,
    "Abarstar": _abar_star,
    "Bbarstar": _bbar_star,
    "Cbarstar": _cbar_star,
    "taustar": _tau_star,
    "taubarstar": _tau_bar_star,
    "partialstar": partial_star,
    "dbarstar": dbar_star,
}


def apply(name: str, phi: FormJet) -> FormJet:
    if name not in OPERATORS:
        raise ValidationError(f"unknown operator {name!r}")
    return OPERATORS[name](phi)


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
        ab, bb, cb = _abar_star(phi), _bbar_star(phi), _cbar_star(phi)
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
              - (ds + _tau_bar_star(phi)) * 1j)
        res["kahler_torsion"] = max(res["kahler_torsion"], r6.max_const())
    w = omega_form(mj)
    r7 = dbar_star(w) - lambda_op(partial(w)) * 1j
    res["torsion_form"] = r7.max_const()
    return res


# -- bundle-valued machinery -----------------------------------------------


@dataclass(frozen=True)
class ConnectionJet:
    r: int
    amats: tuple  # amats[i][al][be]: Jet, direction z^i
    bmats: tuple  # bmats[j][al][be]: Jet, direction zbar^j
    fiber: tuple  # fiber[al][be]: Jet, <e_al, e_be>


def trivial_connection(mj: MetricJet, r: int = 1) -> ConnectionJet:
    n = mj.n
    z = _zero(n, mj.order)
    one = constant(1.0 + 0.0j, n, mj.order)
    amats = tuple(tuple(tuple(z for _ in range(r)) for _ in range(r))
                  for _ in range(n))
    fiber = tuple(tuple(one if a == b else z for b in range(r))
                  for a in range(r))
    return ConnectionJet(r=r, amats=amats, bmats=amats, fiber=fiber)


def chern_connection(mj: MetricJet) -> ConnectionJet:
    """The tangent bundle E = T^{1,0}M with its holomorphic-metric
    connection: fiber metric h, (1,0)-part from the metric, (0,1)-part 0."""
    from .connection import chern as chern_table
    n = mj.n
    tab = chern_table(mj)
    z = _zero(n, mj.order - 1)
    amats = tuple(tuple(tuple(tab.entries[i][a][b] for b in range(n))
                        for a in range(n)) for i in range(n))
    bz = tuple(tuple(tuple(z for _ in range(n)) for _ in range(n))
               for _ in range(n))
    fiber = tuple(tuple(mj.h[a][b] for b in range(n)) for a in range(n))
    return ConnectionJet(r=n, amats=amats, bmats=bz, fiber=fiber)


def random_metric_connection(mj: MetricJet, r: int, seed: int) -> ConnectionJet:
    """Random connection jets compatible with the identity fiber metric:
    B_j = -A_j^H at jet level."""
    n = mj.n
    rng = np.random.default_rng(seed)
    z = _zero(n, mj.order)
    one = constant(1.0 + 0.0j, n, mj.order)
    amats = []
    bmats = []
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
                B[al][be] = jet_conj(A[be][al]) * (-1.0)
        amats.append(tuple(tuple(row) for row in A))
        bmats.append(tuple(tuple(row) for row in B))
    fiber = tuple(tuple(one if a == b else z for b in range(r))
                  for a in range(r))
    return ConnectionJet(r=r, amats=tuple(amats), bmats=tuple(bmats),
                         fiber=fiber)


def check_metric_compatible(conn: ConnectionJet, n: int,
                            tol: float = 1e-10) -> None:
    """d<s,t> = <nabla s, t> + <s, nabla t> at jet level; raises naming the
    violated coefficient."""
    r = conn.r
    for i in range(n):
        for al in range(r):
            for be in range(r):
                lhs = wirtinger(conn.fiber[al][be], "holo", i)
                rhs = _zero(n, lhs.order)
                for ga in range(r):
                    rhs = rhs + conn.amats[i][al][ga] * conn.fiber[ga][be]
                    rhs = rhs + (jet_conj(conn.bmats[i][be][ga])
                                 * conn.fiber[al][ga])
                d = lhs + rhs * (-1.0)
                if d.max_abs() > tol:
                    raise ValidationError(
                        "connection not metric-compatible at fiber entry "
                        f"({al}, {be}), direction z^{i + 1}")


def partial_e(phi: FormJet, conn: ConnectionJet) -> FormJet:
    return _d(phi, HOLO, conn)


def dbar_e(phi: FormJet, conn: ConnectionJet) -> FormJet:
    return _d(phi, ANTI, conn)


def _fiber_split(phi: FormJet):
    """Scalar forms phi^alpha such that phi = sum phi^alpha x e_alpha."""
    return [FormJet(phi.mj, phi.p, phi.q, 1, phi.coeffs[..., al:al + 1].copy())
            for al in range(phi.r)]


def _d_e_star(phi: FormJet, conn: ConnectionJet, side: int) -> FormJet:
    """Local formula on ANTI: (dbar* phi^al) x e_al
    - h^{i jbar} (I_jbar phi^al) nabla_i e_al; on HOLO its conjugate dual
    (partial* phi^al) x e_al - h^{j ibar} (I_j phi^al) nabla''_ibar e_al."""
    mj = phi.mj
    comps = _fiber_split(phi)
    stars = [_d_star(c, side) for c in comps]
    acc = np.concatenate([d.coeffs for d in stars], axis=2)
    mats = (conn.bmats, conn.amats)[side]  # the other side's direction
    for al, c in enumerate(comps):
        for k in range(phi.n):
            ck = _contract(c, side, k).coeffs
            for m in range(phi.n):
                coef = np.array([_h_up(mj, side, k, m) * mats[m][al][be]
                                 for be in range(phi.r)], dtype=object)
                acc = acc + ck * (coef * (-1.0))
    return FormJet(mj, stars[0].p, stars[0].q, phi.r, acc)


def dbar_e_star(phi: FormJet, conn: ConnectionJet) -> FormJet:
    return _d_e_star(phi, conn, ANTI)


def partial_e_star(phi: FormJet, conn: ConnectionJet) -> FormJet:
    return _d_e_star(phi, conn, HOLO)


def bundle_identity_suite(mj: MetricJet, conn: ConnectionJet,
                          trials: int, seed: int) -> dict:
    """Residuals of the bundle commutator identities, curvature tensoriality
    and the torsion/section identity on random E-valued forms."""
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
        tau_bar_e = lambda f: _torsion(f, ANTI)
        # each operator value on phi once: the adjoints dominate a trial
        l_phi, lam = l_op(phi), lambda_op(phi)
        pe_phi, de_phi, pes_phi, des_phi = pe(phi), de(phi), pes(phi), des(phi)
        r1 = des(l_phi) - l_op(des_phi) - (pe_phi + tau(phi)) * 1j
        res["dbar_e_star_L"] = max(res["dbar_e_star_L"], r1.max_const())
        r2 = pes(l_phi) - l_op(pes_phi) + (de_phi + tau_bar_e(phi)) * 1j
        res["partial_e_star_L"] = max(res["partial_e_star_L"], r2.max_const())
        r3 = (lambda_op(pe_phi) - pe(lam)
              - (des_phi + star(tau_bar_e, phi, (0, 1), fib)) * 1j)
        res["lambda_partial_e"] = max(res["lambda_partial_e"], r3.max_const())
        r4 = (lambda_op(de_phi) - de(lam)
              + (pes_phi + _tau_star(phi, fib)) * 1j)
        res["lambda_dbar_e"] = max(res["lambda_dbar_e"], r4.max_const())
        # curvature tensoriality on a product phi_scalar x s
        phis = random_form(mj, p, q, rng, r=1)
        s = random_form(mj, 0, 0, rng, r=r)
        prod = _tensor(phis, s)
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


def _tensor(phis: FormJet, s: FormJet) -> FormJet:
    """(scalar form) x (section): multiply the section coefficients in."""
    return FormJet(phis.mj, phis.p, phis.q, s.r, phis.coeffs * s.coeffs[0, 0])


def second_hermitian_ricci(conn: ConnectionJet, mj: MetricJet) -> np.ndarray:
    """Tr_omega R^E lowered with the fiber metric: an r x r Hermitian
    matrix with entries h^{i jbar} R_{i jbar al}^{ga} <e_ga, e_be>."""
    n, r = mj.n, conn.r
    A = conn.amats
    B = conn.bmats
    out = np.zeros((r, r), dtype=complex)
    for i in range(n):
        for j in range(n):
            up = mj.h_up(i, j).const
            if up == 0:
                continue
            for al in range(r):
                for ga in range(r):
                    v = (-wirtinger(A[i][al][ga], "antiholo", j).const
                         + wirtinger(B[j][al][ga], "holo", i).const)
                    for de in range(r):
                        v -= A[i][al][de].const * B[j][de][ga].const
                        v += B[j][al][de].const * A[i][de][ga].const
                    for be in range(r):
                        out[al, be] += up * v * conn.fiber[ga][be].const
    return out
