import numpy as np
import pytest

from hermitia.curvature import curvature_chern, ricci
from hermitia.errors import DomainError
from hermitia.hopf import HopfPoint, oracle, oracle_vs_pipeline
from hermitia.metric import hopf_metric, metric_jet


def _annulus_points(n, count, seed):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v *= rng.uniform(1.0, 2.0) / np.linalg.norm(v)
        pts.append(v)
    return pts


def test_rejects_origin_and_n1():
    with pytest.raises(DomainError):
        HopfPoint(2, np.zeros(2))
    with pytest.raises(DomainError):
        HopfPoint(1, np.ones(1))


def test_oracle_metric_value():
    p = HopfPoint(2, np.array([1.0, 1.0j]))
    assert np.allclose(oracle(p, "metric"), 2.0 * np.eye(2))


def test_oracle_vs_pipeline_residuals():
    for n in (2, 3):
        for z in _annulus_points(n, 5, seed=n):
            res = oracle_vs_pipeline(HopfPoint(n, z))
            for k, v in res.items():
                if isinstance(v, str):
                    continue
                if k in ("b1_printed", "b2_printed"):
                    continue
                assert v < 1e-10, (n, k, v)


def test_trace_form_exponent_identified():
    # n = 3 discriminates; at n = 2 this trace vanishes identically and both
    # closed-form candidates match trivially
    res = oracle_vs_pipeline(HopfPoint(3, np.array([1.3, 0.2 - 0.4j, 0.5])))
    assert res["b1_matches"] == "corrected"
    assert res["b2_matches"] == "corrected"
    assert res["b1_corrected"] < 1e-10
    assert res["b1_printed"] > 1e-6  # the two candidates genuinely differ


def test_unitary_equivariance():
    rng = np.random.default_rng(3)
    n = 2
    z = np.array([1.1, 0.6 - 0.2j])
    for _ in range(10):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(a)
        mj1 = metric_jet(hopf_metric(n), z, order=3)
        mj2 = metric_jet(hopf_metric(n), q @ z, order=3)
        r1 = ricci(curvature_chern(mj1), mj1, "second")
        r2 = ricci(curvature_chern(mj2), mj2, "second")
        # theta2 is (n-1)/|z|^2 * identity, invariant under unitaries
        assert np.max(np.abs(r2 - r1)) < 1e-10


def test_scale_relation():
    n, c = 3, 1.7
    z = np.array([1.0, 0.5j, -0.3])
    mj1 = metric_jet(hopf_metric(n), z, order=3)
    mj2 = metric_jet(hopf_metric(n), c * z, order=3)
    r1 = ricci(curvature_chern(mj1), mj1, "second")
    r2 = ricci(curvature_chern(mj2), mj2, "second")
    assert np.max(np.abs(r2 - r1 / c**2)) < 1e-10
