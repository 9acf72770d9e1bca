import hashlib
import itertools
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest

from hermitia import metric as M
from hermitia.cli import main
from hermitia.errors import (DomainError, ParseError, StructuralError,
                             ValidationError)
from hermitia.metric import (evaluate, flat_metric, hopf_metric,
                             ingest_torus_metric, metric_jet,
                             normal_coordinates_random, normal_form_balanced,
                             normal_form_balanced_skt, normal_form_random,
                             normal_form_skt, polynomial_metric,
                             potential_kahler_torus, random_torus_fourier,
                             separable_kahler_torus, torus_fourier,
                             write_torus_metric)
from hermitia.structure import balanced_torsion, skt_defect
from reference import derivative_tables_loops, metric_jet_by_jets


def test_flat_and_hopf_values():
    assert np.allclose(evaluate(flat_metric(3), np.zeros(3)), np.eye(3))
    z = np.array([1.0, 1.0j])
    assert np.allclose(evaluate(hopf_metric(2), z), 2.0 * np.eye(2))
    with pytest.raises(DomainError):
        evaluate(hopf_metric(2), np.zeros(2))


def test_metric_jet_matches_evaluate():
    rng = np.random.default_rng(0)
    for fld in (hopf_metric(2), normal_form_random(2, 1),
                potential_kahler_torus(2, 2), random_torus_fourier(2, 3)):
        for _ in range(5):
            z = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            if fld.kind == "Hopf":
                z = z + np.array([1.5, 0.0])
            mj = metric_jet(fld, z, order=3)
            assert np.max(np.abs(mj.h_at0() - evaluate(fld, z))) < 1e-12


def test_metric_jet_hermitian_and_positive():
    mj = metric_jet(normal_form_random(3, 7), 0.1 * np.ones(3), order=3)
    h0 = mj.h_at0()
    assert np.max(np.abs(h0 - h0.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(h0).min() > 0


def test_normal_form_is_identity_at_origin():
    for maker in (normal_form_random, normal_form_balanced, normal_form_skt,
                  normal_form_balanced_skt, normal_coordinates_random):
        mj = metric_jet(maker(2, 4), np.zeros(2), order=3)
        assert np.max(np.abs(mj.h_at0() - np.eye(2))) < 1e-12


def test_normal_coordinates_have_vanishing_christoffel_but_nonzero_dh():
    mj = metric_jet(normal_coordinates_random(2, 9), np.zeros(2), order=3)
    d1 = derivative_tables_loops(mj)[0]
    sym = d1 + np.transpose(d1, (1, 0, 2))
    assert np.max(np.abs(sym)) < 1e-12
    assert np.max(np.abs(d1)) > 1e-3  # the instrument is not degenerate


def test_balanced_and_skt_constraints():
    for seed in range(3):
        mjb = metric_jet(normal_form_balanced(2, seed), np.zeros(2), order=3)
        assert np.max(np.abs(balanced_torsion(mjb))) < 1e-12
        mjs = metric_jet(normal_form_skt(2, seed), np.zeros(2), order=3)
        assert skt_defect(mjs)[0] < 1e-12


def test_polynomial_metric_rejects_non_hermitian_use():
    fld = polynomial_metric(2, [((1, 0), (0, 1), 0.1 * np.eye(2))])
    z = np.array([0.1, 0.2j])
    h = evaluate(fld, z)
    assert np.max(np.abs(h - h.conj().T)) < 1e-12


@pytest.mark.parametrize("term", [
    ((1, 0), (-1, 2), np.eye(2)),     # a negative exponent
    ((128, 0), (0, 0), np.eye(2)),    # beyond the int8 exponent rows
    ((1, 0, 0), (0, 1), np.eye(2)),   # a row of the wrong length
    ((1, 0), (0, 1), np.eye(3))])     # a matrix of the wrong shape
def test_polynomial_metric_rejects_a_malformed_term(term):
    with pytest.raises(StructuralError):
        polynomial_metric(2, [term])


def test_torus_fourier_needs_hermitian_pairing():
    A = np.array([[0.1, 0.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValidationError):
        torus_fourier(2, [((1, 0, 0, 0), A)])


def test_torus_roundtrip():
    fld = random_torus_fourier(2, seed=11)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.txt")
        write_torus_metric(fld, path)
        back = ingest_torus_metric(path)
    z = np.array([0.3 + 0.1j, 0.7 + 0.9j])
    assert np.max(np.abs(evaluate(fld, z) - evaluate(back, z))) < 1e-12


def test_torus_positive_definite_on_grid():
    for maker in (potential_kahler_torus, random_torus_fourier,
                  separable_kahler_torus):
        fld = maker(2, 5)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.uniform(0, 1, 4)
            z = x[0::2] + 1j * x[1::2]
            assert np.linalg.eigvalsh(evaluate(fld, z)).min() > 0


def test_separable_kahler_entries_depend_on_single_coordinate():
    fld = separable_kahler_torus(2, 8)
    rng = np.random.default_rng(2)
    z = rng.uniform(0, 1, 2) + 1j * rng.uniform(0, 1, 2)
    base = evaluate(fld, z)
    assert abs(base[0, 1]) < 1e-14
    moved = z.copy()
    moved[1] += 0.37 + 0.11j
    assert abs(evaluate(fld, moved)[0, 0] - base[0, 0]) < 1e-14


# -- batched evaluate ------------------------------------------------------


def _evaluate_point(field, z):
    """Reference: h at one point, one mode or term at a time."""
    n = field.n
    if field.kind == "Flat":
        return np.eye(n, dtype=complex)
    if field.kind == "Hopf":
        r2 = float(np.sum(np.abs(z) ** 2))
        if r2 == 0:
            raise DomainError("the Hopf metric is undefined at z = 0")
        return (4.0 / r2) * np.eye(n, dtype=complex)
    if field.kind == "NormalForm":
        h = np.eye(n, dtype=complex)
        for alpha, beta, Mt in field.terms:
            h = h + Mt * np.prod(z ** np.array(alpha)) * \
                np.prod(np.conj(z) ** np.array(beta))
        return h
    if field.kind == "TorusFourier":
        h = np.zeros((n, n), dtype=complex)
        for m, A in field.modes:
            mu = np.asarray(m)[:n] - 1j * np.asarray(m)[n:]
            h = h + A * np.exp(1j * np.pi *
                               (mu @ z + np.conj(mu) @ np.conj(z)))
        return h
    raise AssertionError(field.kind)


@pytest.mark.parametrize("n", [2, 3])
def test_evaluate_batch_matches_point_loop(n):
    rng = np.random.default_rng(n)
    z = rng.uniform(-1, 1, (4, 3, n)) + 1j * rng.uniform(-1, 1, (4, 3, n))
    fields = [flat_metric(n), hopf_metric(n), normal_form_random(n, 1),
              random_torus_fourier(n, 2)]
    for fld in fields:
        batch = evaluate(fld, z)
        assert batch.shape == (4, 3, n, n)
        for idx in np.ndindex(4, 3):
            want = _evaluate_point(fld, z[idx])
            tol = 1e-15 * max(1.0, np.max(np.abs(want)))
            single = evaluate(fld, z[idx])
            assert single.shape == (n, n)
            for got in (batch[idx], single):
                assert np.max(np.abs(got - want)) <= tol, (fld.kind, idx)


def test_evaluate_batch_hopf_origin_and_shape_errors():
    z = np.ones((4, 3, 2), dtype=complex)
    z[2, 1] = 0
    with pytest.raises(DomainError):
        evaluate(hopf_metric(2), z)
    with pytest.raises(StructuralError):
        evaluate(flat_metric(2), np.zeros((4, 3)))
    with pytest.raises(StructuralError):
        evaluate(flat_metric(2), 0.5)


def test_metric_jet_refuses_an_inverse_that_is_not_finite():
    # h(z) = 1e-6 is positive and every coefficient of h is finite, but the
    # zeta^2 coefficient of 1/h is about c / h(z)^2 = 5e311: NaN jets before
    fld = polynomial_metric(1, [((2,), (0,), [[-0.4999995e300]])])
    with pytest.raises(ValidationError, match="jets not finite"):
        metric_jet(fld, np.array([1e-150]), order=3)


def test_metric_jet_refuses_an_inverse_not_finite_at_degree_three():
    # h(z) = 1 + 2 c z^3 = 1e-3 with c = -0.4995e300 at z = 1e-100: every
    # coefficient of h is finite (the zeta^3 one is c), and so is the
    # order-2 inverse (its degree-2 coefficients are about 4.5e209), but
    # the degree-3 coefficients of 1/h are about 3.4e312
    fld = polynomial_metric(1, [((3,), (0,), [[-0.4995e300]])])
    z = np.array([1e-100])
    low = metric_jet(fld, z, order=2)
    assert low.h_at0()[0, 0] == pytest.approx(1e-3)
    assert np.isfinite(low.h).all() and np.isfinite(low.hinv).all()
    with pytest.raises(ValidationError, match="jets not finite"):
        metric_jet(fld, z, order=3)


def test_polynomial_and_fourier_fields_are_read_only_arrays():
    # the given terms as (T, 2n) exponent rows and (T, n, n) matrices, no
    # conjugate partners: 29 KB at n = 4 when every term and its partner
    # were tuples of their own
    normal_form_skt(4, 0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fld = normal_form_skt(4, 1)
        size = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert size <= 10_000
    assert fld.rows.dtype == np.int8 and len(fld.terms) == 2 * len(fld.rows)
    torus = random_torus_fourier(2, 0)
    assert len(torus.modes) == len(torus.rows) == len(torus.mats)
    for a in (fld.rows, fld.mats, torus.rows, torus.mats):
        with pytest.raises(ValueError):
            a[0] = a[0]


# -- closed-form Taylor coefficients against the jet-built route ------------

_NORMAL_FORMS = (normal_form_random, normal_coordinates_random,
                 normal_form_balanced, normal_form_skt,
                 normal_form_balanced_skt)
_TORI = (random_torus_fourier, potential_kahler_torus, separable_kahler_torus)


def _coeffs(jets):
    """One row of coefficients per jet, of an object array of Jets or of a
    coefficient array (..., S)."""
    if jets.dtype != object:
        return jets.reshape(-1, jets.shape[-1])
    return np.stack([j.coeffs for j in jets.ravel()])


def _taylor_cases(n):
    """(field, point) of every kind at n: the normal forms and flat at 0 and
    at a sampled point near it, the tori at 0 and at a uniform point, Hopf
    at a point of norm 1.5."""
    rng = np.random.default_rng(70 + n)
    zero = np.zeros(n, complex)
    near = 0.15 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    x = rng.uniform(0.0, 1.0, 2 * n)
    cases = [(make(n, 1), z) for make in (lambda n, s: flat_metric(n),
                                           *_NORMAL_FORMS)
             for z in (zero, near)]
    cases += [(make(n, 2), z) for make in _TORI
              for z in (zero, x[:n] + 1j * x[n:])]
    if n >= 2:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cases.append((hopf_metric(n), v * (1.5 / np.linalg.norm(v))))
    return cases


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_taylor_coefficients_match_jet_arithmetic(n):
    for fld, z in _taylor_cases(n):
        for order in (1, 2, 3):
            got = _coeffs(metric_jet(fld, z, order=order).h)
            want = _coeffs(metric_jet_by_jets(fld, z, order))
            gap = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert gap <= 1e-14, (fld.kind, n, order, z)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_taylor_coefficients_at_the_origin_are_bit_identical(n):
    fields = [flat_metric(n)] + [make(n, s) for make in _NORMAL_FORMS
                                 for s in (0, 1)]
    for fld in fields:
        for order in (1, 2, 3):
            z = np.zeros(n, complex)
            got = _coeffs(metric_jet(fld, z, order=order).h)
            want = _coeffs(metric_jet_by_jets(fld, z, order))
            assert got.tobytes() == want.tobytes(), (fld.kind, n, order)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_evaluate_is_the_degree_zero_coefficient(n):
    for fld, z in _taylor_cases(n):
        rng = np.random.default_rng(n)
        batch = z + 0.05 * (rng.standard_normal((2, 3, n))
                            + 1j * rng.standard_normal((2, 3, n)))
        values = evaluate(fld, batch)
        for idx in np.ndindex(2, 3):
            want = metric_jet(fld, batch[idx], order=3).h_at0()
            assert np.max(np.abs(values[idx] - want)) <= \
                1e-14 * np.max(np.abs(want)), (fld.kind, n, idx)


# -- ingest positivity: Weyl certificate, then the sweep --------------------


def _ingest(fld, monkeypatch):
    """Ingest fld through a file; return (field, sweeps run)."""
    sweeps = []
    real = M._positivity_sweep
    monkeypatch.setattr(M, "_positivity_sweep",
                        lambda f: sweeps.append(f) or real(f))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.txt")
        write_torus_metric(fld, path)
        return ingest_torus_metric(path), len(sweeps)


_E00 = np.diag([1.0, 0.0]).astype(complex)
_E11 = np.diag([0.0, 1.0]).astype(complex)


def test_ingest_weyl_certificate_skips_sweep(monkeypatch):
    fld = random_torus_fourier(2, seed=3)  # sum of mode norms capped at 0.5
    assert M._weyl_margin(fld) > 0.4
    back, sweeps = _ingest(fld, monkeypatch)
    assert sweeps == 0
    assert back.modes and back.n == 2


def test_ingest_inconclusive_certificate_falls_back_to_sweep(monkeypatch):
    # h = diag(1 + 0.6 cos 2 pi x1, 1 + 0.6 cos 2 pi x2) >= 0.4, but the mode
    # norms sum to 1.2 > lambda_min(A_0) = 1
    fld = torus_fourier(2, [((0, 0, 0, 0), np.eye(2)),
                            ((1, 0, 0, 0), 0.3 * _E00),
                            ((-1, 0, 0, 0), 0.3 * _E00),
                            ((0, 1, 0, 0), 0.3 * _E11),
                            ((0, -1, 0, 0), 0.3 * _E11)])
    assert M._weyl_margin(fld) < 0
    _, sweeps = _ingest(fld, monkeypatch)
    assert sweeps == 1


def test_ingest_sweep_rejects_at_first_failing_point(monkeypatch):
    # h_00 = 1 + 1.6 cos 2 pi y1 fails first (at y1 = 0.4) in np.ndindex
    # order over (x1, x2, y1, y2); h_11 = 1 + 1.8 cos 2 pi x2 fails later
    fld = torus_fourier(2, [((0, 0, 0, 0), np.eye(2)),
                            ((0, 0, 1, 0), 0.8 * _E00),
                            ((0, 0, -1, 0), 0.8 * _E00),
                            ((0, 1, 0, 0), 0.9 * _E11),
                            ((0, -1, 0, 0), 0.9 * _E11)])
    msg = ("metric loses positivity at x=[0.0, 0.0, 0.4, 0.0]: "
           "min eigenvalue -2.944e-01")
    sweep = M._positivity_sweep
    with pytest.raises(ValidationError) as exc:
        _ingest(fld, monkeypatch)
    assert str(exc.value) == msg
    for chunk in (1, 7, 64):  # a failure late in a chunk, or in a later one
        with pytest.raises(ValidationError) as exc:
            sweep(fld, chunk=chunk)
        assert str(exc.value) == msg


@pytest.mark.parametrize("body, error, message", [
    ("freq 0 0 ; inf 0", ParseError,
     "non-finite matrix entry in: 'freq 0 0 ; inf 0'"),
    ("freq 0 0 ; nan 0", ParseError,
     "non-finite matrix entry in: 'freq 0 0 ; nan 0'"),
    # h = 1e308 (1 + 2 cos 2 pi x), -1e308 at x = 0.5: A_0 + A_0^H overflows
    # to a Weyl bound of +inf, and h itself to inf at x = 0
    ("freq -1 0 ; 1e308 0\nfreq 0 0 ; 1e308 0\nfreq 1 0 ; 1e308 0",
     ValidationError, "metric values overflow at x=[0.0, 0.0]: h is not "
     "finite"),
    # partners 9e-7 apart, within the relative tolerance np.allclose adds
    ("freq 0 0 ; 1 0\nfreq 1 0 ; 0.1 0\nfreq -1 0 ; 0.1000009 0",
     ValidationError, "Hermitian frequency constraint violated at m=(")],
    ids=["inf", "nan", "overflow", "loose-pair"])
def test_ingest_refuses_non_finite_numbers_and_inexact_pairs(
        tmp_path, capsys, body, error, message):
    path = tmp_path / "m.txt"
    path.write_text(f"dim 1\n{body}\n", encoding="utf-8")
    with pytest.raises(error, match=re.escape(message)):
        ingest_torus_metric(path)
    assert main(["check", "--metric-file", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("make", [
    M.flat_metric, M.hopf_metric,
    lambda n: M.polynomial_metric(n, []),
    lambda n: M.normal_form_random(n, 0),
    lambda n: M.normal_coordinates_random(n, 0),
    lambda n: M.normal_form_balanced(n, 0), lambda n: M.normal_form_skt(n, 0),
    lambda n: M.normal_form_balanced_skt(n, 0),
    lambda n: M.torus_fourier(n, []), lambda n: M.potential_kahler_torus(n, 0),
    lambda n: M.separable_kahler_torus(n, 0),
    lambda n: M.random_torus_fourier(n, 0)])
@pytest.mark.parametrize("n", [0, -1])
def test_makers_reject_dimension_below_one(make, n):
    with pytest.raises(ValidationError, match="dimension must be >= 1"):
        make(n)


def test_order_zero_jet_is_refused_for_every_kind():
    z = np.array([1.0, 0.5j])
    for fld in (flat_metric(2), hopf_metric(2), normal_form_skt(2, 3),
                random_torus_fourier(2, 5)):
        for order in (0, -1):
            with pytest.raises(ValidationError, match="order must be >= 1"):
                metric_jet(fld, z, order=order)


@pytest.mark.parametrize("point", [np.array([1.0, 0.5j, 0.2]), 0.5,
                                   np.array([[1.0, 0.5j]]), np.array([])])
def test_metric_jet_refuses_a_point_that_is_not_an_n_vector(point):
    # length 3 used to leak an IndexError (polynomial kinds, Hopf) or a matmul
    # ValueError (Fourier), a scalar a ValueError on zero-dimensional arrays
    for fld in (flat_metric(2), hopf_metric(2), normal_form_skt(2, 3),
                random_torus_fourier(2, 5)):
        with pytest.raises(StructuralError, match="point must be a complex "
                                                  "2-vector"):
            metric_jet(fld, point, order=3)


# The first 128 bits of a sha256 over the terms (normal forms) or modes
# (tori) of each seeded maker at n = 1..4 and seeds 0..7.  perfbench rebuilds
# its flow inputs from these makers and checks them against stored results.
@pytest.mark.parametrize("name, digest", [
    ("normal_form_random", "08c99bcde6e621626d8e7603d16cf5d1"),
    ("normal_coordinates_random", "f755f5110641df0658395627dd9c0aff"),
    ("normal_form_balanced", "5474f578ee9ca336a9af70f7fdb319fc"),
    ("normal_form_skt", "70c901a4f559cf2a5110542d201a0f7b"),
    ("normal_form_balanced_skt", "3b601a3323590a3e7b57ac938709f0ac"),
    ("potential_kahler_torus", "6ce904c3196e5b1c3a2c2f1de00a4978"),
    ("separable_kahler_torus", "cb7ceb49c02662f692edbc89ef2677be"),
    ("random_torus_fourier", "3c52ecbc127dbfa4cdb0b1b8ee3b7e4f")])
def test_seeded_makers_are_bit_stable(name, digest):
    h = hashlib.sha256()
    for n, seed in itertools.product(range(1, 5), range(8)):
        fld = getattr(M, name)(n, seed)
        for part in itertools.chain(*fld.terms, *fld.modes):
            h.update(np.asarray(part).tobytes())
    assert h.hexdigest()[:32] == digest
