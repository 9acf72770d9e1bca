import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermitia.curvature import curvature_chern, ricci_panel
from hermitia.errors import StructuralError
from hermitia.metric import hopf_metric, metric_jet
from hermitia.positivity import (GriffithsReport, HypothesisReport,
                                 PositivityReport, griffiths_sample,
                                 p_positivity, vanishing_hypothesis_report)
from reference import p_positivity_verdicts_bruteforce


def test_rejects_non_hermitian():
    with pytest.raises(StructuralError):
        p_positivity(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_known_verdicts():
    r = p_positivity(np.diag([2.0, 3.0]))
    assert isinstance(r, PositivityReport)
    assert r.verdicts == ("positive", "positive")
    r = p_positivity(np.diag([0.0, 1.0]))
    assert r.verdicts[0] == "nonnegative"
    r = p_positivity(np.diag([-1.0, 3.0]))
    assert r.verdicts == ("indefinite", "positive")  # sum of both eigs = 2 > 0
    r = p_positivity(np.diag([-2.0, -1.0]))
    assert r.verdicts == ("negative", "negative")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 999), st.integers(2, 4))
def test_eigsum_route_matches_bruteforce(seed, r):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    m = (a + a.conj().T) / 2
    assert p_positivity(m).verdicts == p_positivity_verdicts_bruteforce(m)


def test_griffiths_on_annulus_metric():
    mj = metric_jet(hopf_metric(2), np.array([1.0, 0.5j]), order=3)
    rep = griffiths_sample(curvature_chern(mj), trials=200, seed=0)
    assert isinstance(rep, GriffithsReport)
    assert rep.nonnegative
    assert rep.minimum >= -1e-12


def test_hopf_panel_signs():
    z = np.array([1.1, 0.3 - 0.2j, 0.4j])
    mj = metric_jet(hopf_metric(3), z, order=3)
    panel = ricci_panel(mj)
    th1 = np.linalg.eigvalsh(panel["chern_first"])
    assert th1.min() >= -1e-10  # nonnegative spectrum
    th2 = p_positivity(panel["chern_second"])
    assert th2.verdicts[0] == "positive"
    b1 = p_positivity(panel["bismut_first"])
    assert b1.verdicts[1] in ("negative", "nonpositive")  # 2-negative at n=3


def test_vanishing_hypothesis_report_notes_scope():
    mats = [np.diag([1.0, 2.0]), np.diag([0.5, 3.0])]
    rep = vanishing_hypothesis_report(mats, sense="nonnegative", p=1)
    assert isinstance(rep, HypothesisReport)
    assert rep.holds_everywhere
    assert "no cohomological conclusion" in rep.note
