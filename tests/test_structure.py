import numpy as np
import pytest

from hermitia.errors import OrderExhaustedError, StructuralError
from hermitia.metric import (derivative_tables, flat_metric, hopf_metric,
                             metric_jet, normal_form_balanced,
                             normal_form_balanced_skt, normal_form_random,
                             normal_form_skt, potential_kahler_torus)
from hermitia.structure import (StructureReport, kahler_defect,
                                laplacian_compare, prop38_check, skt_defect,
                                structure_report)
from reference import constant, variable


def _hopf(n):
    z = np.array([1.2 + 0.0j] + [0.4 - 0.3j] * (n - 1))
    return metric_jet(hopf_metric(n), z, order=3)


def test_flat_all_verdicts_true():
    r = structure_report(metric_jet(flat_metric(2), np.zeros(2), order=3))
    assert isinstance(r, StructureReport)
    assert r.is_kahler and r.is_balanced and r.is_skt


def test_hopf_verdicts():
    r2 = structure_report(_hopf(2))
    assert not r2.is_kahler and not r2.is_balanced and r2.is_skt
    r3 = structure_report(_hopf(3))
    assert not r3.is_kahler and not r3.is_balanced and not r3.is_skt


def test_kahler_potential_torus():
    rng = np.random.default_rng(1)
    fld = potential_kahler_torus(2, 4)
    z = rng.uniform(0, 1, 2) + 1j * rng.uniform(0, 1, 2)
    r = structure_report(metric_jet(fld, z, order=3))
    assert r.is_kahler and r.is_balanced and r.is_skt


def test_constrained_normal_forms():
    rb = structure_report(metric_jet(normal_form_balanced(2, 0),
                                     np.zeros(2), order=3))
    assert rb.is_balanced
    rs = structure_report(metric_jet(normal_form_skt(2, 0),
                                     np.zeros(2), order=3))
    assert rs.is_skt


def test_laplacians_coincide_on_kahler():
    rng = np.random.default_rng(2)
    fld = potential_kahler_torus(2, 7)
    z = rng.uniform(0, 1, 2) + 1j * rng.uniform(0, 1, 2)
    mj = metric_jet(fld, z, order=3)
    f = (variable(2, 3, 0) * variable(2, 3, 1, barred=True)) \
        + variable(2, 3, 1) + constant(0.3, 2, 3)
    a, b, c = laplacian_compare(mj, f.coeffs)
    assert abs(a - c) < 1e-9 and abs(b - c) < 1e-9


def test_laplacians_differ_on_hopf():
    mj = _hopf(2)
    f = variable(2, 3, 0) + (variable(2, 3, 0)
                             * variable(2, 3, 0, barred=True))
    a, b, c = laplacian_compare(mj, f.coeffs)
    assert abs(a - c) > 1e-6 or abs(b - c) > 1e-6


def test_laplacians_take_one_scalar_coefficient_array():
    mj = _hopf(2)
    f = variable(2, 3, 0) * variable(2, 3, 0, barred=True)
    for bad in (f, np.stack([f.coeffs, f.coeffs])):   # a Jet, a (2, S) array
        with pytest.raises(StructuralError):
            laplacian_compare(mj, bad)
    with pytest.raises(OrderExhaustedError):
        laplacian_compare(mj, variable(2, 1, 0).coeffs)


def test_prop38_balanced_skt_forces_flatness():
    mj = metric_jet(normal_form_balanced_skt(2, 3), np.zeros(2), order=3)
    status, norm = prop38_check(mj)
    assert status == "checked"
    assert norm < 1e-18


def test_prop38_skips_generic():
    status, norm = prop38_check(_hopf(2))
    assert status == "skip" and norm is None


def _defect_loops(mj):
    """Reference: the Kaehler and SKT defect arrays, entry by entry."""
    dh, _, d2 = derivative_tables(mj)
    n = mj.n
    f = np.zeros((n, n, n), dtype=complex)
    r = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                f[i, j, k] = dh[k, i, j] - dh[i, k, j]
                r[i, j] += (d2[k, k, i, j] + d2[i, j, k, k]
                            - d2[k, j, i, k] - d2[i, k, k, j])
    return f, r


@pytest.mark.parametrize("n", [2, 3])
def test_einsum_defects_match_loops(n):
    rng = np.random.default_rng(50 + n)
    z = 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    rand = metric_jet(normal_form_random(n, 9), z, order=3)
    for mj in (_hopf(n), rand):
        f, r = _defect_loops(mj)
        assert np.array_equal(kahler_defect(mj)[1], f)
        assert np.max(np.abs(skt_defect(mj)[1] - r)) <= 1e-13
    f, r = _defect_loops(rand)  # neither Kaehler nor SKT
    assert np.max(np.abs(f)) > 1e-3 and np.max(np.abs(r)) > 1e-3
