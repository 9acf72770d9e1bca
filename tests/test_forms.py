import numpy as np
import pytest

from hermitia import forms as FO
from hermitia.errors import StructuralError, ValidationError
from hermitia.forms import (OPERATORS, apply, bundle_identity_suite,
                            chern_connection, check_metric_compatible, dbar,
                            form_conj, form_from_scalar, identity_suite,
                            inner, l_op, lambda_matrix_adjoint, lambda_op,
                            partial, random_form, random_metric_connection,
                            second_hermitian_ricci, trivial_connection,
                            two_omega, wedge, zero_form)
from hermitia.jets import constant
from hermitia.metric import (flat_metric, hopf_metric, metric_jet,
                             normal_form_random, normal_form_skt,
                             potential_kahler_torus)


def _flat(n=2):
    return metric_jet(flat_metric(n), np.zeros(n), order=3)


def _hopf(n=2):
    z = np.array([1.0 + 0.0j] + [0.4 - 0.3j] * (n - 1))
    return metric_jet(hopf_metric(n), z, order=3)


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
        val = lambda_op(two_omega(mj)).coeff((), (), 0).const
        assert abs(val - n) < 1e-12


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
    lhs = inner(l_op(phi), psi).const
    rhs = inner(phi, lambda_op(psi)).const
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
    for name in ("tau", "taubar", "A", "B", "C"):
        assert apply(name, phi).max_const() < 1e-12, name
    # D' reduces to partial and delta0'' to the dbar adjoint
    assert (apply("Dprime", phi)
            - apply("partial", phi)).max_const() < 1e-12
    assert (apply("dbarstar", phi)
            - apply("delta0second", phi)).max_const() < 1e-12


def test_zero_form_degree_clamp_and_add():
    mj = _flat()
    z = zero_form(mj, -1, 0)
    phi = form_from_scalar(mj, constant(2.0, 2, 3))
    assert (phi + z).max_const() == 2.0
    with pytest.raises(StructuralError):
        _ = phi + random_form(mj, 1, 1, np.random.default_rng(0))


def test_operator_registry_covers_stars():
    for name in ("L", "Lambda", "partial", "dbar", "Astar", "Bstar", "Cstar",
                 "taustar", "taubarstar", "partialstar", "dbarstar",
                 "deltaprime", "deltasecond"):
        assert name in OPERATORS


def test_bundle_identity_suite():
    mj = _hopf()
    conn = random_metric_connection(mj, r=2, seed=1)
    res = bundle_identity_suite(mj, conn, trials=4, seed=0)
    assert max(res.values()) < 1e-11, res


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


def _coeff_gap(a, b):
    """Largest difference over every jet coefficient of two forms."""
    assert (a.p, a.q, a.r) == (b.p, b.q, b.r)
    return max(x.max_abs() for x in (a - b).coeffs.flat)


@pytest.mark.parametrize("n", [2, 3])
def test_anti_side_is_conjugate_of_holo_side(n):
    mj = metric_jet(normal_form_skt(n, 3), 0.05 * (1 + 1j) * np.ones(n),
                    order=3)
    rng = np.random.default_rng(n)

    def conj_of(op):
        return lambda f: form_conj(op(form_conj(f)))

    pairs = [(dbar, partial), (FO.d_second, FO.d_prime),
             (FO.delta0_second, FO.delta0_prime),
             (FO.dbar_star, FO.partial_star)]
    for k in range(n):
        for body in (FO._contract, FO._nabla):
            pairs.append((lambda f, b=body, k=k: b(f, FO.ANTI, k),
                          lambda f, b=body, k=k: b(f, FO.HOLO, k)))
    for p in range(n + 1):
        for q in range(n + 1):
            phi = random_form(mj, p, q, rng)
            for anti, holo in pairs:
                assert _coeff_gap(anti(phi), conj_of(holo)(phi)) <= 1e-13


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
        assert len(calls) == 8


def test_bundle_trial_star_calls(monkeypatch):
    mj = _hopf()
    conn = random_metric_connection(mj, r=2, seed=1)
    calls = _count_star(monkeypatch)
    bundle_identity_suite(mj, conn, trials=1, seed=0)
    assert len(calls) == 20
