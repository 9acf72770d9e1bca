import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermitia.errors import (OrderExhaustedError, SingularSeriesError,
                             StructuralError)
from hermitia.jets import (Jet, jet_inverse, jet_matrix_inverse,
                           point_derivatives, wirtinger)
from hermitia.metric import metric_jet
from reference import (CASES, coefficients, constant, h_jets, jet_array,
                       jet_matrix_inverse_by_jets, point, truncate, variable)


def _random_jet(n, order, rng):
    z = constant(0.0, n, order)
    out = z.coeffs.copy()
    out[:] = rng.standard_normal(out.shape) + 1j * rng.standard_normal(out.shape)
    return Jet(n, order, out)


def test_constant_and_variable():
    c = constant(2.5 - 1j, 2, 3)
    assert c.const == 2.5 - 1j
    z0 = variable(2, 3, 0)
    zb1 = variable(2, 3, 1, barred=True)
    prod = z0 * zb1
    assert prod.const == 0
    assert wirtinger(wirtinger(prod, "holo", 0), "antiholo", 1).const == 1


def test_mul_commutative_associative():
    rng = np.random.default_rng(0)
    a, b, c = (_random_jet(2, 3, rng) for _ in range(3))
    ab = a * b
    ba = b * a
    assert np.allclose(ab.coeffs, ba.coeffs)
    assert np.allclose((ab * c).coeffs, (a * (b * c)).coeffs)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 999), st.integers(0, 1))
def test_wirtinger_product_rule(seed, which_idx):
    which = ("holo", "antiholo")[which_idx]
    rng = np.random.default_rng(seed)
    a, b = _random_jet(2, 3, rng), _random_jet(2, 3, rng)
    lhs = wirtinger(a * b, which, 0)
    rhs1 = wirtinger(a, which, 0) * truncate(b, 2)
    rhs2 = truncate(a, 2) * wirtinger(b, which, 0)
    assert np.max(np.abs(lhs.coeffs - rhs1.coeffs - rhs2.coeffs)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 999))
def test_conj_involution_and_antihomomorphism(seed):
    rng = np.random.default_rng(seed)
    a, b = _random_jet(2, 3, rng), _random_jet(2, 3, rng)
    assert np.allclose(a.conj().conj().coeffs, a.coeffs)
    assert np.allclose((a * b).conj().coeffs,
                       (a.conj() * b.conj()).coeffs)


def test_conj_swaps_derivative_type():
    rng = np.random.default_rng(5)
    a = _random_jet(2, 3, rng)
    lhs = wirtinger(a.conj(), "holo", 1)
    rhs = wirtinger(a, "antiholo", 1).conj()
    assert np.allclose(lhs.coeffs, rhs.coeffs)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 999))
def test_inverse(seed):
    rng = np.random.default_rng(seed)
    coeffs = _random_jet(2, 3, rng).coeffs.copy()
    coeffs[0] = 2.0 + 0.3j  # keep away from zero
    a = Jet(2, 3, coeffs)
    prod = a * jet_inverse(a)
    unit = constant(1.0, 2, 3)
    assert np.max(np.abs(prod.coeffs - unit.coeffs)) < 1e-10


def test_inverse_singular():
    z = variable(2, 3, 0)
    with pytest.raises(SingularSeriesError):
        jet_inverse(z)


def test_matrix_inverse():
    rng = np.random.default_rng(3)
    m = np.empty((2, 2), dtype=object)
    for i in range(2):
        for j in range(2):
            m[i, j] = _random_jet(2, 3, rng)
        m[i, i] = Jet(2, 3, m[i, i].coeffs + constant(4.0, 2, 3).coeffs)
    inv = jet_array(jet_matrix_inverse(coefficients(m), 2), 2, 3)
    for i in range(2):
        for j in range(2):
            acc = sum(((m[i, k] * inv[k, j]).coeffs for k in range(2)))
            want = constant(1.0 if i == j else 0.0, 2, 3).coeffs
            assert np.max(np.abs(acc - want)) < 1e-10


def test_truncate_drops_high_degree():
    rng = np.random.default_rng(1)
    a = _random_jet(2, 3, rng)
    t = truncate(a, 1)
    assert t.order == 1
    assert np.allclose(t.coeffs, a.coeffs[: len(t.coeffs)])


def test_wirtinger_lowers_order():
    rng = np.random.default_rng(2)
    a = _random_jet(2, 3, rng)
    assert wirtinger(a, "holo", 0).order == 2


@pytest.mark.parametrize("low", [0, 1, 2])
def test_mixed_order_arithmetic_truncates_to_the_lower_order(low):
    rng = np.random.default_rng(7 + low)
    a, b = _random_jet(2, 3, rng), _random_jet(2, low, rng)
    for x, y in ((a, b), (b, a)):
        tx, ty = truncate(x, low), truncate(y, low)
        for got, want in ((x + y, tx + ty), (x * y, tx * ty)):
            assert got.order == low
            assert got.coeffs.tobytes() == want.coeffs.tobytes()


def test_mixed_n_still_raises():
    rng = np.random.default_rng(9)
    a, b = _random_jet(2, 3, rng), _random_jet(3, 3, rng)
    for op in (lambda x, y: x + y, lambda x, y: x * y):
        with pytest.raises(StructuralError):
            op(a, b)
        with pytest.raises(StructuralError):
            op(b, a)


# -- the public constructor validates and copies; arithmetic results are ----
# -- read-only --------------------------------------------------------------


def test_public_constructor_copies_and_checks_shape():
    size = constant(0.0, 2, 3).coeffs.size
    arr = np.arange(size, dtype=complex)
    a = Jet(2, 3, arr)
    arr[:] = -1.0
    assert np.array_equal(a.coeffs, np.arange(size))
    with pytest.raises(StructuralError):
        Jet(2, 3, np.zeros(size + 1))


def test_arithmetic_results_are_read_only():
    rng = np.random.default_rng(7)
    a, b = _random_jet(2, 3, rng), _random_jet(2, 2, rng)
    results = (a + b, a - b, a * b, -a, a * 2.0, 3 * a, a + 1j, 1.0 - a,
               a / 2.0, a.conj(), jet_inverse(a + 5.0), wirtinger(a, "holo", 0),
               truncate(a, 2), constant(1.0, 2, 3), variable(2, 3, 1))
    for out in results:
        assert not out.coeffs.flags.writeable
        with pytest.raises(ValueError):
            out.coeffs[0] = 1.0


def test_numpy_and_complex_scalar_operands():
    rng = np.random.default_rng(8)
    a = _random_jet(2, 3, rng)
    doubled = a * np.float64(2)
    assert isinstance(doubled, Jet)
    assert np.array_equal(doubled.coeffs, a.coeffs * 2)
    shifted = a + 1j
    assert shifted.const == a.const + 1j
    assert np.array_equal(shifted.coeffs[1:], a.coeffs[1:])


def test_point_derivatives_layout_and_errors():
    a = (variable(2, 2, 0) * variable(2, 2, 1, barred=True)) * 3.0 \
        + variable(2, 2, 1) * 2.0 + constant(0.5, 2, 2)
    arr = coefficients(np.array([[a, a * 2.0]], dtype=object))
    assert point_derivatives(arr, 2).shape == (1, 2)
    d1 = point_derivatives(arr, 2, 1)
    assert d1.shape == (4, 1, 2)
    assert d1[:, 0, 0].tolist() == [0, 2, 0, 0]   # d/dz^0, d/dz^1, d/dzbar^*
    d2 = point_derivatives(a.coeffs, 2, 2)
    assert d2.shape == (2, 2) and d2.tolist() == [[0, 3], [0, 0]]
    with pytest.raises(OrderExhaustedError):
        point_derivatives(constant(1.0, 2, 1).coeffs, 2, 2)
    with pytest.raises(OrderExhaustedError):
        point_derivatives(constant(1.0, 2, 0).coeffs, 2, 1)
    with pytest.raises(StructuralError):   # no basis in 2 variables has 14
        point_derivatives(np.zeros((3, 14), complex), 2)
    with pytest.raises(StructuralError):
        point_derivatives(a.coeffs, 2, 3)
    # S = 15 is the order-4 basis at n = 1 and the order-2 basis at n = 2
    c = constant(0.0, 1, 4).coeffs
    assert c.size == a.coeffs.size
    assert point_derivatives(c, 1, 1).shape == (2,)
    assert point_derivatives(a.coeffs, 2, 1).shape == (4,)


@pytest.mark.parametrize("family,n,order", CASES)
def test_matrix_inverse_matches_entrywise_elimination_bitwise(family, n, order):
    fld, z = point(family, n)
    mj = metric_jet(fld, z, order=order)
    want = coefficients(jet_matrix_inverse_by_jets(h_jets(mj)[0]))
    assert mj.hinv.shape == want.shape
    assert mj.hinv.tobytes() == want.tobytes()


def test_matrix_inverse_skips_zero_rows_and_refuses_singular():
    one, zero = constant(1.0, 2, 2), constant(0.0, 2, 2)
    z1 = variable(2, 2, 0)
    m = np.array([[one * 2.0, zero, z1], [zero, one, zero],
                  [z1, zero, one * 3.0]], dtype=object)
    got = jet_matrix_inverse(coefficients(m), 2)
    assert got.tobytes() == coefficients(jet_matrix_inverse_by_jets(m)).tobytes()
    with pytest.raises(SingularSeriesError):   # no constant term at all
        jet_matrix_inverse(coefficients(np.array([[z1, z1], [z1, z1]],
                                                 dtype=object)), 2)
