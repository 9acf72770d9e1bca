import functools
import operator
from bisect import bisect_left
from math import comb

import numpy as np
import pytest

from hermitia import forms as FO
from hermitia.connection import levi_civita
from hermitia.errors import StructuralError, ValidationError
from hermitia.forms import (ConnectionJet, FormJet, bundle_identity_suite,
                            chern_connection, check_metric_compatible, dbar,
                            dbar_star, identity_suite, inner, l_op,
                            lambda_op, omega_form, partial, partial_star,
                            random_form, random_metric_connection,
                            second_hermitian_ricci, trivial_connection,
                            wedge, zero_form)
from hermitia.jets import Jet, _algebra, jet_matrix_inverse
from hermitia.metric import (flat_metric, metric_jet, normal_form_random,
                             normal_form_skt, per_point,
                             potential_kahler_torus)
from reference import (coefficients, constant, det_jet, form_conj, form_times,
                       h_jets, hopf_jet as _hopf, insert_slot as _insert,
                       jet_array, lambda_matrix_adjoint, slot_map, table_jets)


def _flat(n=2):
    return metric_jet(flat_metric(n), np.zeros(n), order=3)


def _rand(seed=0):
    return metric_jet(normal_form_random(2, seed),
                      0.05 * np.ones(2) * (1 + 1j), order=3)


def test_d_squared_zero():
    rng = np.random.default_rng(0)
    mj = _hopf()
    phi = random_form(mj, 1, 1, rng)
    assert dbar(dbar(phi)).max_const() < 1e-12
    assert partial(partial(phi)).max_const() < 1e-12


def test_wedge_graded_commutative():
    rng = np.random.default_rng(1)
    mj = _flat()
    a = random_form(mj, 1, 0, rng)
    b = random_form(mj, 0, 1, rng)
    ab = wedge(a, b)
    ba = wedge(b, a)
    assert (ab + ba * ((-1) ** (1 * 1 + 1))).max_const() > 0  # not cancelling
    diff = ab - ba * (-1.0)
    assert diff.max_const() < 1e-12  # (1,0)^(0,1): sign (-1)^{deg a * deg b}


def test_conj_involution():
    rng = np.random.default_rng(2)
    mj = _hopf()
    phi = random_form(mj, 2, 1, rng)
    back = form_conj(form_conj(phi))
    assert (back - phi).max_const() < 1e-12


def test_lambda_scalar_of_two_omega():
    # trace of the doubled fundamental form at the identity metric
    for n in (2, 3):
        mj = _flat(n)
        val = lambda_op(omega_form(mj) * 2.0).coeffs[0, 0, 0, 0]
        assert abs(val - n) < 1e-12
        val = lambda_op(omega_form(mj)).coeffs[0, 0, 0, 0]
        assert abs(val - n / 2) < 1e-12


def test_lambda_closed_form_equals_matrix_adjoint():
    rng = np.random.default_rng(3)
    for mj in (_flat(), _hopf(), _rand(1)):
        phi = random_form(mj, 1, 1, rng)
        a = lambda_op(phi)
        b = lambda_matrix_adjoint(phi)
        assert (a - b).max_const() < 1e-11


def test_adjoint_duality_inner_products():
    # <L phi, psi> = <phi, Lambda psi> pointwise at the jet constant term
    rng = np.random.default_rng(4)
    mj = _hopf()
    phi = random_form(mj, 0, 1, rng)
    psi = random_form(mj, 1, 2, rng)
    lhs = inner(l_op(phi), psi)[0]
    rhs = inner(phi, lambda_op(psi))[0]
    assert abs(lhs - rhs) < 1e-11


def test_identity_suite_flat_hopf_random():
    for mj in (_flat(), _hopf(), _rand(2)):
        res = identity_suite(mj, trials=6, seed=0)
        assert max(res.values()) < 1e-12, res


def test_kahler_degeneration():
    rng = np.random.default_rng(5)
    fld = potential_kahler_torus(2, 3)
    z = rng.uniform(0, 1, 2) + 1j * rng.uniform(0, 1, 2)
    mj = metric_jet(fld, z, order=3)
    phi = random_form(mj, 1, 1, rng)
    for op in (FO.tau, FO.tau_bar, FO.a_op, FO.b_op, FO.c_op):
        assert op(phi).max_const() < 1e-12, op
    # D' reduces to partial and delta0'' to the dbar adjoint
    assert (FO.d_prime(phi) - partial(phi)).max_const() < 1e-12
    assert (dbar_star(phi) - FO.delta0_second(phi)).max_const() < 1e-12


def test_zero_form_keeps_its_bidegree_and_add_refuses_a_mismatch():
    mj = _flat()
    size = _algebra(2, mj.order).size
    for p, q in ((-1, 0), (0, 3), (3, -1)):
        z = zero_form(mj, p, q, r=2)
        assert (z.p, z.q, z.r) == (p, q, 2)
        assert z.coeffs.shape == (0 if p in (-1, 3) else 1,
                                  0 if q in (-1, 3) else 1, 2, size)
        assert z.max_const() == 0.0
    phi = zero_form(mj, 0, 0)
    phi.coeffs[0, 0, 0, 0] = 2.0
    assert (phi + zero_form(mj, 0, 0)).max_const() == 2.0
    for other in (zero_form(mj, -1, 0), zero_form(mj, 0, 0, r=2),
                  random_form(mj, 1, 1, np.random.default_rng(0))):
        for a, b in ((phi, other), (other, phi)):
            with pytest.raises(StructuralError):
                _ = a + b


def test_bundle_identity_suite():
    mj = _hopf()
    conn = random_metric_connection(mj, r=2, seed=1)
    res = bundle_identity_suite(mj, conn, trials=4, seed=0)
    assert max(res.values()) < 1e-11, res


@pytest.mark.parametrize("trials", [0, -1])
def test_suites_refuse_a_run_over_no_trials(trials):
    mj = _hopf()
    conn = random_metric_connection(mj, r=2, seed=1)
    for run in (lambda: identity_suite(mj, trials=trials, seed=0),
                lambda: bundle_identity_suite(mj, conn, trials=trials,
                                              seed=0)):
        with pytest.raises(ValidationError, match="trials must be >= 1"):
            run()


@pytest.mark.parametrize("r", [0, -1])
def test_bundle_rank_below_one_is_refused(r):
    mj = _hopf()
    for make in (lambda: random_metric_connection(mj, r=r, seed=1),
                 lambda: trivial_connection(mj, r=r)):
        with pytest.raises(ValidationError, match=f"bundle rank r must be "
                                                  f">= 1, got r={r}"):
            make()


@pytest.mark.parametrize("case", ["hopf2", "skt3", "bundle2"])
def test_a_forms_trial_builds_no_jet(monkeypatch, case):
    # every coefficient is one complex array (C(n,p), C(n,q), r, S)
    mj = _hopf(2) if case != "skt3" else _metric_points(3)[1]
    n, sizes = mj.n, {_algebra(mj.n, k).size for k in range(mj.order + 1)}
    jets, forms = [], []
    jet_init, form_init = Jet.__init__, FormJet.__init__

    def form_spy(self, *args, **kwargs):
        form_init(self, *args, **kwargs)
        forms.append(self)

    monkeypatch.setattr(Jet, "__init__",
                        lambda *a, **k: jets.append(1) or jet_init(*a, **k))
    monkeypatch.setattr(FormJet, "__init__", form_spy)
    if case == "bundle2":
        conn = random_metric_connection(mj, r=2, seed=1)
        bundle_identity_suite(mj, conn, trials=1, seed=0)
    else:
        identity_suite(mj, trials=1, seed=0)
    assert jets == []
    assert forms
    for f in forms:
        assert isinstance(f.coeffs, np.ndarray)
        assert f.coeffs.dtype == complex
        assert f.coeffs.shape[:3] == (len(FO._combos(n, f.p)),
                                      len(FO._combos(n, f.q)), f.r)
        assert f.coeffs.ndim == 4 and f.coeffs.shape[-1] in sizes


def test_bundle_operators_on_the_trivial_line_are_the_scalar_ones():
    mj = _hopf()
    triv = trivial_connection(mj, r=1)
    assert isinstance(triv, ConnectionJet)
    rng = np.random.default_rng(6)
    for p in range(3):
        for q in range(3):
            phi = random_form(mj, p, q, rng)
            assert isinstance(phi, FormJet)
            for op in (partial, dbar, partial_star, dbar_star):
                assert _coeff_gap(op(phi, triv), op(phi)) == 0.0


def test_trivial_and_chern_connection_compatible():
    mj = _hopf()
    check_metric_compatible(chern_connection(mj), mj.n)
    flat = _flat()
    check_metric_compatible(trivial_connection(flat, r=2), flat.n)


def test_incompatible_connection_rejected():
    mj = _hopf()
    triv = trivial_connection(mj, r=2)
    bad = chern_connection(mj)
    # zero connection matrices with the nonconstant fiber metric h: d<h> != 0
    broken = type(bad)(r=2, amats=triv.amats, bmats=triv.bmats,
                       fiber=bad.fiber)
    with pytest.raises(ValidationError):
        check_metric_compatible(broken, mj.n)


def test_second_hermitian_ricci_hopf():
    mj = _hopf(2)
    r2 = float(np.vdot(mj.point, mj.point).real)
    got = second_hermitian_ricci(chern_connection(mj), mj)
    want = (2 - 1) / r2 * np.eye(2)
    assert np.max(np.abs(got - want)) < 1e-10


# -- conjugation symmetry of the side-indexed operator pairs ---------------


def _slot_sum_at(phi, side, k, d=-1):
    """FO._slot_sum with every part zero but parts[k] = phi: one slot move,
    the interior product by default."""
    parts = np.zeros((phi.n,) + phi.coeffs.shape, dtype=complex)
    parts[k] = phi.coeffs
    return FO._slot_sum(phi, side, d, parts)


def _coeff_gap(a, b):
    """Largest difference over every jet coefficient of two forms, 0 on an
    empty basis."""
    assert (a.p, a.q, a.r) == (b.p, b.q, b.r)
    return float(np.abs((a - b).coeffs).max(initial=0.0))


@pytest.mark.parametrize("n", [2, 3])
def test_anti_side_is_conjugate_of_holo_side(n):
    mj = metric_jet(normal_form_skt(n, 3), 0.05 * (1 + 1j) * np.ones(n),
                    order=3)
    rng = np.random.default_rng(n)

    pairs = [(dbar, partial), (FO.d_second, FO.d_prime),
             (FO.delta0_second, FO.delta0_prime),
             (FO.dbar_star, FO.partial_star)]
    def nabla(f, side, k):
        return FormJet(f.mj, f.p, f.q, f.r, FO._nabla(f, side)[k])

    for k in range(n):
        for body in (_slot_sum_at, nabla):
            pairs.append((lambda f, b=body, k=k: b(f, FO.ANTI, k),
                          lambda f, b=body, k=k: b(f, FO.HOLO, k)))
    for p in range(n + 1):
        for q in range(n + 1):
            phi = random_form(mj, p, q, rng)
            for anti, holo in pairs:
                assert _coeff_gap(anti(phi), _ref_conj(holo)(phi)) <= 1e-13


# -- each adjoint on phi is materialized once per trial --------------------


def _count_star(monkeypatch):
    calls = []
    star = FO.star
    monkeypatch.setattr(FO, "star", lambda *a: calls.append(1) or star(*a))
    return calls


def test_identity_trial_star_calls(monkeypatch):
    mj = _hopf()
    calls = _count_star(monkeypatch)
    for seed in range(3):
        calls.clear()
        identity_suite(mj, trials=1, seed=seed)
        assert len(calls) == 6


def test_bundle_trial_star_calls(monkeypatch):
    mj = _hopf()
    conn = random_metric_connection(mj, r=2, seed=1)
    calls = _count_star(monkeypatch)
    bundle_identity_suite(mj, conn, trials=1, seed=0)
    assert len(calls) == 12


# -- compound-matrix Gram factors and the mat-vec adjoint ------------------


def _metric_points(n):
    rng = np.random.default_rng(10 + n)
    z = 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return [_hopf(n), metric_jet(normal_form_skt(n, 5), z, order=3)]


def _jet_gap(a, b):
    """Largest difference over every jet coefficient of two jet arrays,
    coefficient arrays or object arrays of Jets, entry by entry in flat
    order and at the lower order."""
    a, b = (coefficients(x) if x.dtype == object else x for x in (a, b))
    size = min(a.shape[-1], b.shape[-1])
    a, b = (x[..., :size].reshape(-1, size) for x in (a, b))
    return float(np.abs(a - b).max())


_jets_conj = np.frompyfunc(Jet.conj, 1, 1)


def _jets_inverse(m):
    """The inverse of a square matrix of Jets of one (n, order), as Jets."""
    a = m.flat[0]
    return jet_array(jet_matrix_inverse(coefficients(m), a.n), a.n, a.order)


def _mm(a, b):
    """Jet matrix product, mixed jet orders truncated to the lower one."""
    return np.array([[functools.reduce(operator.add,
                                       map(operator.mul, row, col))
                      for col in b.T] for row in a], dtype=object)


def _det_gram(mj, p, q):
    """The Gram matrix one determinant per entry:
    det(h^{i kbar})_{i in I, k in K} conj det(h^{j lbar})_{j in J, l in L}."""
    hinv = h_jets(mj)[1]

    def det_up(rows, cols):
        if not rows:
            return constant(1.0, mj.n, mj.order)
        return det_jet(np.array([[hinv[k][i] for k in cols] for i in rows],
                                dtype=object))
    basis = [(I, J) for I in FO._combos(mj.n, p) for J in FO._combos(mj.n, q)]
    return np.array([[det_up(I, K) * det_up(J, L).conj() for K, L in basis]
                     for I, J in basis], dtype=object)


@pytest.mark.parametrize("n", [2, 3])
def test_inner_matches_the_determinant_gram(n):
    # inner expands both forms to tensors; this route pairs the coefficient
    # vectors through the Gram determinants, tensored with the fiber metric
    rng = np.random.default_rng(40 + n)
    for mj in _metric_points(n):
        for fib in (None, chern_connection(mj).fiber):
            r = 2 if fib is None else n
            one = constant(1.0, n, mj.order)
            f = (jet_array(fib, n) if fib is not None else
                 [[one * float(a == b) for b in range(r)] for a in range(r)])
            for p in range(n + 1):
                for q in range(n + 1):
                    phi, psi = (random_form(mj, p, q, rng, r=r)
                                for _ in range(2))
                    x, y = (jet_array(g.coeffs, n).reshape(-1, r)
                            for g in (phi, psi))
                    g = _det_gram(mj, p, q)
                    want = functools.reduce(operator.add, (
                        x[a, al] * g[a, b] * f[al][be] * y[b, be].conj()
                        for a in range(len(g)) for b in range(len(g))
                        for al in range(r) for be in range(r)))
                    got = inner(phi, psi, fib)
                    assert _jet_gap(got, want.coeffs) <= 1e-13, (p, q, r)


# -- the operator bodies each matrix is checked against -------------------


def _wedge1(phi, side, k):
    """dz^k (HOLO) or dzbar^k (ANTI) wedge phi, by the tuple walk."""
    return slot_map(phi, side, k, 1)


def _contract(phi, side, k):
    """Interior product with d/dz^k (HOLO) or d/dzbar^k (ANTI), by the tuple
    walk."""
    return slot_map(phi, side, k, -1)

# A matrix materialized by applying an operator to every basis form, and
# slot-walking forward bodies of the algebraic operators: references that
# share nothing with the matrices assembled from the term tables.


def _op_matrix(op, mj, p, q, r, dst):
    """Materialize a Jet-linear operator as a jet matrix (rows, columns, S)
    from the (p,q) coefficient space into the coefficient space at bidegree
    dst, at the lowest order of its columns."""
    na, nb = len(FO._combos(mj.n, p)), len(FO._combos(mj.n, q))
    cols = []
    for a in range(na):
        for b in range(nb):
            for al in range(r):
                e = zero_form(mj, p, q, r)
                e.coeffs[a, b, al, 0] = 1.0
                img = op(e)
                assert (img.p, img.q) == dst
                cols.append(img.coeffs.reshape(-1, img.coeffs.shape[-1]))
    size = min(col.shape[-1] for col in cols)
    return np.stack([col[:, :size] for col in cols], axis=1)


def _ref_lambda_op(phi):
    """sqrt(-1) h^{i jbar} I_i I_jbar"""
    mj = phi.mj
    hinv = h_jets(mj)[1]
    out = zero_form(mj, phi.p - 1, phi.q - 1, phi.r)
    if phi.p == 0 or phi.q == 0:
        return out
    for j in range(phi.n):
        cj = _contract(phi, FO.ANTI, j)
        for i in range(phi.n):
            out = out + form_times(_contract(cj, FO.HOLO, i),
                                   hinv[j][i] * 1j)
    return out


def _ref_l_op(phi):
    return wedge(omega_form(phi.mj) * 2.0, phi)


def _ref_c_op(phi):
    """Multiplication by the torsion (1,0)-form 2 Gamma_{j lbar}^{lbar} dz^j."""
    mj = phi.mj
    lc = table_jets(mj, levi_civita(mj))
    n = mj.n
    out = zero_form(mj, phi.p + 1, phi.q, phi.r)
    for j in range(n):
        eta = constant(0.0, n, mj.order - 1)
        for l in range(n):
            eta = eta + lc[j, n + l, n + l]
        out = out + form_times(_wedge1(phi, FO.HOLO, j), eta * 2.0)
    return out


def _ref_b_op(phi):
    """-2 Gamma_{i jbar}^{lbar} dz^i ^ dzbar^j I_lbar"""
    mj = phi.mj
    lc = table_jets(mj, levi_civita(mj))
    n = mj.n
    out = zero_form(mj, phi.p + 1, phi.q, phi.r)
    if phi.q == 0:
        return out
    for l in range(n):
        cl = _contract(phi, FO.ANTI, l)
        for i in range(n):
            for j in range(n):
                gam = lc[i, n + j, n + l]
                if gam.max_abs() == 0.0:
                    continue
                out = out + form_times(_wedge1(_wedge1(cl, FO.ANTI, j),
                                                  FO.HOLO, i), gam * (-2.0))
    return out


@per_point
def _ref_a_coefficients(mj):
    """-h^{k lbar} h_{i mbar} Gamma_{s lbar}^{mbar} at [k, s, i], None where
    it vanishes."""
    lc = table_jets(mj, levi_civita(mj))
    h, hinv = h_jets(mj)
    n = mj.n
    out = np.full((n, n, n), None, dtype=object)
    for k in range(n):
        for s in range(n):
            for i in range(n):
                coef = constant(0.0, n, mj.order - 1)
                for l in range(n):
                    for m in range(n):
                        gam = lc[s, n + l, n + m]
                        if gam.max_abs() != 0.0:
                            coef = coef + hinv[l][k] * h[i][m] * gam
                if coef.max_abs() != 0.0:
                    out[k, s, i] = coef * (-1.0)
    return out


def _ref_a_op(phi):
    """-h^{k lbar} h_{i mbar} Gamma_{s lbar}^{mbar} dz^s ^ dz^i I_k"""
    mj = phi.mj
    out = zero_form(mj, phi.p + 1, phi.q, phi.r)
    if phi.p == 0:
        return out
    coefs = _ref_a_coefficients(mj)
    for k in range(mj.n):
        ck = _contract(phi, FO.HOLO, k)
        for (s, i), coef in np.ndenumerate(coefs[k]):
            if coef is not None:
                out = out + form_times(_wedge1(_wedge1(ck, FO.HOLO, i),
                                                  FO.HOLO, s), coef)
    return out


def _ref_torsion(phi, side):
    """[Lambda, w ^] with w = 2 d'omega on HOLO and its conjugate on ANTI."""
    w = partial(omega_form(phi.mj) * 2.0)
    if side == FO.ANTI:
        w = form_conj(w)
    return _ref_lambda_op(wedge(w, phi)) - wedge(w, _ref_lambda_op(phi))


def _ref_tau(phi):
    return _ref_torsion(phi, FO.HOLO)


def _ref_conj(op):
    """The conjugate operator form_conj . op . form_conj."""
    return lambda phi: form_conj(op(form_conj(phi)))


def _reference_star(op, phi, ddeg, fiber=None):
    """The materialized adjoint conj(Gs^-1 T^T Gd) applied to phi, with Gs
    inverted by jet Gauss elimination and each Gram tensored with the fiber
    metric (the identity when fiber is None)."""
    mj, r = phi.mj, phi.r
    sp, sq = phi.p - ddeg[0], phi.q - ddeg[1]
    one = constant(1.0, mj.n, mj.order)
    f = jet_array(fiber, mj.n) if fiber is not None else \
        [[one * float(a == b) for b in range(r)] for a in range(r)]

    def with_fiber(g):
        return np.array([[g[a // r, b // r] * f[a % r][b % r]
                          for b in range(len(g) * r)]
                         for a in range(len(g) * r)], dtype=object)

    t = jet_array(_op_matrix(op, mj, sp, sq, r, (phi.p, phi.q)), mj.n)
    gs_inv = _jets_inverse(with_fiber(_det_gram(mj, sp, sq)))
    tstar = _jets_conj(_mm(_mm(gs_inv, t.T),
                           with_fiber(_det_gram(mj, phi.p, phi.q))))
    return _mm(tstar, jet_array(phi.coeffs, mj.n).reshape(-1, 1)).reshape(-1)


# the eight algebraic operators with an adjoint in the identities: name, the
# operator, its reference body, its degree shift
_STARRED = (
    ("Astar", FO.a_op, _ref_a_op, (1, 0)),
    ("Bstar", FO.b_op, _ref_b_op, (1, 0)),
    ("Cstar", FO.c_op, _ref_c_op, (1, 0)),
    ("taustar", FO.tau, _ref_tau, (1, 0)),
    ("Abarstar", FO._a_bar, _ref_conj(_ref_a_op), (0, 1)),
    ("Bbarstar", FO._b_bar, _ref_conj(_ref_b_op), (0, 1)),
    ("Cbarstar", FO._c_bar, _ref_conj(_ref_c_op), (0, 1)),
    ("taubarstar", FO.tau_bar, _ref_conj(_ref_tau), (0, 1)))


@pytest.mark.parametrize("n, point", [(2, 0), (3, 1)], ids=["hopf2", "skt3"])
def test_star_matches_materialized_adjoint(n, point):
    mj = _metric_points(n)[point]
    rng = np.random.default_rng(20 + n)
    for p in range(n + 1):
        for q in range(n + 1):
            phi = random_form(mj, p, q, rng)
            for name, op, ref, ddeg in _STARRED:
                if not (p >= ddeg[0] and q >= ddeg[1]):
                    continue
                got = FO.star(op, phi)
                want = _reference_star(ref, phi, ddeg)
                assert _jet_gap(got.coeffs, want) <= 1e-13, (name, p, q)
            if p and q:
                got = lambda_matrix_adjoint(phi)
                want = _reference_star(_ref_l_op, phi, (1, 1))
                assert _jet_gap(got.coeffs, want) <= 1e-13, ("L", p, q)


# -- the matrices assembled from the slot tables ----------------------------


# every algebraic operator: name, the table-built operator, its reference body
_ALGEBRAIC = ((("L", l_op, _ref_l_op), ("Lambda", lambda_op, _ref_lambda_op))
              + tuple((name, op, ref) for name, op, ref, _ in _STARRED)
              + (("taubar_e", FO.tau_bar, lambda f: _ref_torsion(f, FO.ANTI)),))


def _check_matrices(mj, degrees, ranks, seed):
    """Each table-applied operator, materialized on the scalar basis forms,
    against the materialized reference body, as the form-index block of
    every fiber column, and each forward value."""
    n = mj.n
    rng = np.random.default_rng(seed)
    for p, q in degrees:
        for name, op, ref in _ALGEBRAIC:
            dst = (p + op.ddeg[0], q + op.ddeg[1])
            if not (0 <= dst[0] <= n and 0 <= dst[1] <= n):
                continue
            t = _op_matrix(op, mj, p, q, 1, dst)
            for r in ranks:
                want = _op_matrix(ref, mj, p, q, r, dst)
                for al in range(r):
                    for be in range(r):
                        block = want[al::r, be::r]
                        gap = (_jet_gap(t, block) if al == be else
                               float(np.abs(block).max()))
                        assert gap <= 1e-14, (name, p, q, r, al, be)
                phi = random_form(mj, p, q, rng, r=r)
                assert _coeff_gap(op(phi), ref(phi)) <= 1e-14, (name, p, q, r)


@pytest.mark.parametrize("n", [2, 3])
def test_table_matrices_match_materialized_reference(n):
    degrees = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    for k, mj in enumerate(_metric_points(n)):
        _check_matrices(mj, degrees, (1, 2) if n == 2 else (1,), 100 + k)


def test_table_matrices_match_materialized_reference_n4():
    mj = _metric_points(4)[1]
    _check_matrices(mj, [(1, 1), (0, 2), (3, 0)], (1,), 104)


def test_table_operators_match_reference_bodies_with_fiber():
    # the forward values on rank-2 forms at n = 3, every bidegree
    rng = np.random.default_rng(105)
    for mj in _metric_points(3):
        for p in range(4):
            for q in range(4):
                phi = random_form(mj, p, q, rng, r=2)
                for name, op, ref in _ALGEBRAIC:
                    assert _coeff_gap(op(phi), ref(phi)) <= 1e-14, (name, p, q)


def test_star_never_applies_the_operator(monkeypatch):
    calls = []
    forward = FO._Algebraic.__call__
    for cls in (FO._Algebraic, FO._Bracket):
        monkeypatch.setattr(cls, "__call__", lambda op, phi: calls.append(op)
                            or forward(op, phi))
    mj = _hopf()
    rng = np.random.default_rng(106)
    for p in range(3):
        for q in range(3):
            phi = random_form(mj, p, q, rng, r=2)
            for _, op, _, _ in _STARRED:
                FO.star(op, phi)
            lambda_matrix_adjoint(phi)
    # only the adjoint rows are applied
    stars = [op.star for _, op, _, _ in _STARRED] + [FO.l_op.star]
    assert calls and all(any(c is s for s in stars) for c in calls)
    calls.clear()
    FO.b_op(phi)
    assert calls == [FO.b_op]


@pytest.mark.parametrize("which", ["random", "chern"])
def test_star_with_fiber_metric_matches_materialized_adjoint(which):
    mj = _hopf(2)
    conn = (random_metric_connection(mj, r=2, seed=1) if which == "random"
            else chern_connection(mj))
    fib = conn.fiber
    rng = np.random.default_rng(30)
    ops = _STARRED + (("taubar_e", FO.tau_bar,
                       lambda f: _ref_torsion(f, FO.ANTI), (0, 1)),)
    for p in range(3):
        for q in range(3):
            phi = random_form(mj, p, q, rng, r=2)
            for name, op, ref, ddeg in ops:
                if not (p >= ddeg[0] and q >= ddeg[1]):
                    continue
                # star takes no fiber metric: against the G (x) F reference
                got = FO.star(op, phi)
                want = _reference_star(ref, phi, ddeg, fib)
                assert _jet_gap(got.coeffs, want) <= 1e-13, (name, p, q)
                # the defining duality, through inner with the fiber metric
                psi = random_form(mj, p - ddeg[0], q - ddeg[1], rng, r=2)
                lhs = inner(op(psi), phi, fib)[0]
                rhs = inner(psi, got, fib)[0]
                assert abs(lhs - rhs) <= 1e-12, (name, p, q)
            if p and q:
                got = lambda_matrix_adjoint(phi)
                want = _reference_star(_ref_l_op, phi, (1, 1))
                assert _jet_gap(got.coeffs, want) <= 1e-13, ("L", p, q)


# -- exact bidegrees: outside 0..n a basis is empty -----------------------


# each algebraic operator's bidegree shift, its conjugate's the reverse
_SHIFTS = {"l_op": (1, 1), "lambda_op": (-1, -1), "a_op": (1, 0),
           "b_op": (1, 0), "c_op": (1, 0), "_w": (2, 1), "tau": (1, 0)}


def _count(n, k):
    """C(n, k), 0 outside 0..n."""
    return comb(n, k) if k >= 0 else 0


def _shifted_operators(mj, rng):
    """(name, operator on a form, bidegree shift) for every algebraic
    operator and its conjugate, their adjoints, the differential operators
    and wedge on either side of a (1, 0)-, (0, 1)- and (1, 1)-form."""
    out = []
    for name, (dp, dq) in _SHIFTS.items():
        op = getattr(FO, name)
        for nm, o, shift in ((name, op, (dp, dq)),
                             (name + ".bar", op.bar, (dq, dp))):
            out += [(nm, o, shift), (nm + "*", functools.partial(FO.star, o),
                                     (-shift[0], -shift[1]))]
    out += [("partial", partial, (1, 0)), ("dbar", dbar, (0, 1)),
            ("d_prime", FO.d_prime, (1, 0)), ("d_second", FO.d_second, (0, 1)),
            ("delta0_prime", FO.delta0_prime, (-1, 0)),
            ("delta0_second", FO.delta0_second, (0, -1)),
            ("partial_star", partial_star, (-1, 0)),
            ("dbar_star", dbar_star, (0, -1))]
    for shift in ((1, 0), (0, 1), (1, 1)):
        psi = random_form(mj, *shift, rng)
        out += [("wedge_left", functools.partial(wedge, psi), shift),
                ("wedge_right", lambda f, psi=psi: wedge(f, psi), shift)]
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_every_operator_maps_to_its_exact_bidegree(n):
    mj = _metric_points(n)[1]
    rng = np.random.default_rng(90 + n)
    ops = _shifted_operators(mj, rng)
    # the table covers every algebraic operator the module defines
    defined = {v for v in vars(FO).values()
               if isinstance(v, (FO._Algebraic, FO._Bracket))}
    assert defined <= {o for _, o, _ in ops}
    inside = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    outside = [d for k in range(n + 1)
               for d in ((-1, k), (k, -1), (n + 1, k), (k, n + 1))]
    sources = ([random_form(mj, p, q, rng, r=2) for p, q in inside]
               + [zero_form(mj, p, q, r=2) for p, q in outside])
    for name, op, (dp, dq) in ops:
        if isinstance(op, (FO._Algebraic, FO._Bracket)):
            assert op.ddeg == (dp, dq), name
            for p, q in inside:
                # the rows of the table apply and of the adjoint's
                rows = (_count(n, p) * _count(n, q),
                        _count(n, p + dp) * _count(n, q + dq))
                x, y = (np.zeros((k, 2, mj.h.shape[-1]), complex)
                        for k in rows)
                fwd = op._act(mj, p, q, x)
                back = op.star._act(mj, p + dp, q + dq, y)
                assert (len(fwd), len(back)) == rows[::-1], (name, p, q)
        for phi in sources:
            img = op(phi)
            p, q = phi.p + dp, phi.q + dq
            assert (img.p, img.q, img.r) == (p, q, 2), (name, phi.p, phi.q)
            assert img.coeffs.shape[:3] == (_count(n, p), _count(n, q), 2)
            if not phi.coeffs.size:
                assert not img.coeffs.any(), (name, phi.p, phi.q)


# -- slot, merge and derivation tables against the tuple walks -------------


def _merge(t1, t2):
    """Sign and sorted tuple of the concatenation; None on repeats."""
    sign = 1
    out = list(t1)
    for k in t2:
        if k in out:
            return None
        pos = bisect_left(out, k)
        sign *= (-1) ** (len(out) - pos)
        out.insert(pos, k)
    return sign, tuple(out)


def _reference_wedge(phi, psi):
    """wedge as a walk over pairs of index tuples."""
    r = max(phi.r, psi.r)
    n = phi.n
    p, q = phi.p + psi.p, phi.q + psi.q
    x1, x2 = jet_array(phi.coeffs, n), jet_array(psi.coeffs, n)
    out = zero_form(phi.mj, p, q, r,
                    min(x1.flat[0].order, x2.flat[0].order))
    if p > n or q > n:
        return out
    dst_i, dst_j = FO._combo_index(n, p), FO._combo_index(n, q)
    cross = (-1) ** (phi.q * psi.p)
    for a1, I1 in enumerate(FO._combos(n, phi.p)):
        for a2, I2 in enumerate(FO._combos(n, psi.p)):
            mi = _merge(I1, I2)
            if mi is None:
                continue
            si, I = mi
            for b1, J1 in enumerate(FO._combos(n, phi.q)):
                for b2, J2 in enumerate(FO._combos(n, psi.q)):
                    mj_ = _merge(J1, J2)
                    if mj_ is None:
                        continue
                    sj, J = mj_
                    s = float(cross * si * sj)
                    for al in range(r):
                        c1 = x1[a1, b1, al if phi.r > 1 else 0]
                        c2 = x2[a2, b2, al if psi.r > 1 else 0]
                        out.coeffs[dst_i[I], dst_j[J], al] = (
                            out.coeffs[dst_i[I], dst_j[J], al]
                            + (c1 * c2 * s).coeffs)
    return out


def _reference_nabla(phi, side, i, conn=None):
    """_nabla with its Levi-Civita part walked slot by slot."""
    n = phi.n
    lc = table_jets(phi.mj, levi_civita(phi.mj))
    x = jet_array(phi.coeffs, n)
    out = FormJet(phi.mj, phi.p, phi.q, phi.r, FO._dcoeffs(phi, side)[i])
    direction = n * side + i
    views = (out.coeffs, out.coeffs.swapaxes(0, 1))
    for a, I in enumerate(FO._combos(n, phi.p)):
        for b, J in enumerate(FO._combos(n, phi.q)):
            for slots, T in ((FO.HOLO, I), (FO.ANTI, J)):
                off = n * slots
                dst = FO._combo_index(n, len(T))
                res, other = views[slots], (b, a)[slots]
                for t, slot in enumerate(T):
                    for c in range(n):
                        gam = lc[direction, off + c, off + slot]
                        if gam.max_abs() == 0.0:
                            continue
                        ins = _insert(T[:t] + T[t + 1:], c)
                        if ins is None:
                            continue
                        sgn, T2 = ins
                        s = float((-1) ** t * sgn)
                        for al in range(phi.r):
                            res[dst[T2], other, al] = (
                                res[dst[T2], other, al]
                                + (x[a, b, al] * gam * (-s)).coeffs)
    if conn is not None:
        mat = jet_array((conn.amats, conn.bmats)[side][i], n)
        for a in range(out.coeffs.shape[0]):
            for b in range(out.coeffs.shape[1]):
                for be in range(phi.r):
                    acc = out.coeffs[a, b, be]
                    for al in range(phi.r):
                        acc = acc + (x[a, b, al]
                                     * mat[al][be]).coeffs[:acc.size]
                    out.coeffs[a, b, be] = acc
    return out


def _equal(a, b):
    """Same bidegree, rank, jet orders and coefficient values."""
    assert (a.p, a.q, a.r) == (b.p, b.q, b.r)
    return (a.coeffs.shape == b.coeffs.shape
            and np.array_equal(a.coeffs, b.coeffs))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_slot_table_matches_tuple_walk(n):
    mj = _hopf(n)
    rng = np.random.default_rng(40 + n)
    for p in range(n + 1):
        for q in range(n + 1):
            for r in (1, 2):
                phi = random_form(mj, p, q, rng, r=r)
                for side in (FO.HOLO, FO.ANTI):
                    for k in range(n):
                        for d in (1, -1):
                            assert _equal(_slot_sum_at(phi, side, k, d),
                                          slot_map(phi, side, k, d))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_merge_table_matches_tuple_walk(n):
    mj = _hopf(n)
    rng = np.random.default_rng(50 + n)
    degrees = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    for r1, r2 in ((1, 1), (2, 1), (1, 2), (2, 2)):
        forms = [(random_form(mj.at_order(2), p, q, rng, r=r1),
                  random_form(mj, p, q, rng, r=r2)) for p, q in degrees]
        for phi, _ in forms:
            for _, psi in forms:
                if phi.p + psi.p <= n + 1 and phi.q + psi.q <= n + 1:
                    assert _equal(wedge(phi, psi), _reference_wedge(phi, psi))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_derivation_nabla_matches_slot_walk(n):
    mj = _hopf(n)
    rng = np.random.default_rng(60 + n)
    conns = {1: (None, random_metric_connection(mj, r=1, seed=n)),
             2: (None, random_metric_connection(mj, r=2, seed=n))}
    for p in range(n + 1):
        for q in range(n + 1):
            for r, pair in conns.items():
                phi = random_form(mj, p, q, rng, r=r)
                for conn in pair:
                    for side in (FO.HOLO, FO.ANTI):
                        nabla = FO._nabla(phi, side, conn)
                        for i in range(n):
                            got = FormJet(mj, p, q, r, nabla[i])
                            want = _reference_nabla(phi, side, i, conn)
                            assert _coeff_gap(got, want) <= 1e-14


def test_b_op_on_holomorphic_forms_is_zero_of_degree_p_plus_one():
    mj = _hopf()
    rng = np.random.default_rng(70)
    for p in range(3):
        psi = random_form(mj, p, 0, rng, r=2)
        img = FO.b_op(psi)
        assert (img.p, img.q, img.r) == (p + 1, 0, 2)
        assert img.coeffs.shape[:3] == (comb(2, p + 1), 1, 2)
        assert not img.coeffs.any()
    psi = random_form(mj, 0, 0, rng, r=2)
    phi = random_form(mj, 1, 0, rng, r=2)
    assert np.abs(inner(FO.b_op(psi), phi)).max() == 0.0


def test_a_op_coefficients_built_once_per_metric_jet(monkeypatch):
    builds = {}
    coefficients = FO._a_coefficients

    def spy(mj):
        out = coefficients(mj)
        builds.setdefault(id(mj), []).append(out)  # kept alive: ids unique
        return out

    monkeypatch.setattr(FO, "_a_coefficients", spy)
    for mj in (_hopf(2), _metric_points(3)[1]):
        builds.clear()
        identity_suite(mj, trials=2, seed=0)
        # the trials share an order-1 prefix jet of the suite call's own
        (low, outs), = builds.items()
        assert low != id(mj) and len(outs) > 1
        assert len({id(out) for out in outs}) == 1
