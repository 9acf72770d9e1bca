"""The jet-order contract: each reader computes at the jet order it reads.

The goldens in ``order_contract_goldens.json`` were recorded on the code
before the contract, where every layer computed at its input's order.  A
reader on an order-3 jet must give the same bytes as it gave then, and the
same bytes as on an order-2 jet.  A change that re-associates a sum under
the rounding contract (docs/conventions.md, "Rounding contract") re-records
only the readers and SUITES entries it names, a suite as ``suite:NAME``:

    PYTHONPATH=src:tests python3 tests/test_order_contract.py --record \
        READER... suite:NAME...

which writes nothing and exits 1 if any other reader's digest or any other
SUITES residual differs from the file.  ``--record`` with no names
re-records everything, on code that should be byte-identical to the
recorded one.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hermitia import connection, jets, metric
from hermitia import forms as FO
from hermitia.connection import levi_civita
from hermitia.curvature import (complexified_ricci_bianchi, curvature_bismut,
                                curvature_chern, curvature_induced,
                                curvature_lc, lc_curvature_full,
                                normal_point_suite, ricci_panel, scalars)
from hermitia.errors import ValidationError
from hermitia.forms import (bundle_identity_suite, chern_connection,
                            identity_suite, random_metric_connection)
from hermitia.hopf import HopfPoint, oracle_vs_pipeline
from hermitia.jets import _algebra, _algebra_of
from hermitia.metric import metric_jet, normal_form_skt
from hermitia.positivity import griffiths_sample
from hermitia.structure import (balanced_torsion, kahler_defect,
                                structure_report)
from reference import CASES, hopf_jet, point

GOLDENS = Path(__file__).with_name("order_contract_goldens.json")


def _canon(obj) -> bytes:
    """Exact byte image of a result (floats by repr, arrays by buffer)."""
    if isinstance(obj, dict):
        return b"{" + b",".join(str(k).encode() + b":" + _canon(obj[k])
                                for k in sorted(obj, key=str)) + b"}"
    if isinstance(obj, (list, tuple)):
        return b"[" + b",".join(_canon(v) for v in obj) + b"]"
    if isinstance(obj, np.ndarray):
        return str(obj.shape).encode() + np.ascontiguousarray(obj).tobytes()
    if dataclasses.is_dataclass(obj):
        return _canon({f.name: getattr(obj, f.name)
                       for f in dataclasses.fields(obj)})
    return repr(obj).encode()


def _readers(family, n):
    """(name, reader of a MetricJet) for every point-value reader run on
    the family's point."""
    out = [("ricci_panel", ricci_panel),
           ("scalars", lambda mj: scalars(mj).as_dict()),
           ("structure_report", structure_report),
           ("kahler_defect", kahler_defect),
           ("balanced_torsion", balanced_torsion),
           ("lc_curvature_full", lc_curvature_full),
           ("complexified_ricci_bianchi", complexified_ricci_bianchi),
           ("griffiths_sample", lambda mj: griffiths_sample(
               curvature_chern(mj), trials=20, seed=n))]
    out += [(f.__name__, f) for f in (curvature_lc, curvature_induced,
                                      curvature_chern, curvature_bismut)]
    if family != "hopf":
        out.append(("normal_point_suite", lambda mj: normal_point_suite(
            mj, skt=family == "skt")))
    return out


def reader_digests(family, n, order) -> dict:
    """sha256 of each reader's result on one jet, or the error it raised."""
    fld, z = point(family, n)
    mj = metric_jet(fld, z, order=order)
    out = {}
    for name, reader in _readers(family, n):
        try:
            out[name] = hashlib.sha256(_canon(reader(mj))).hexdigest()
        except Exception as exc:  # a refusal is part of the contract
            out[name] = f"raised {type(exc).__name__}"
    return out


def _skt3():
    rng = np.random.default_rng(3)
    z = 0.15 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    return metric_jet(normal_form_skt(3, 3), z, order=3)


def _skt2():
    return metric_jet(normal_form_skt(2, 1), np.array([0.1, -0.05j]),
                      order=3)


# name -> () -> residual dict; each runs on fresh order-3 jets
SUITES = {
    "identity.hopf2": lambda: identity_suite(hopf_jet(2), trials=6, seed=0),
    "identity.skt3": lambda: identity_suite(_skt3(), trials=3, seed=1),
    "bundle.hopf2.random_r2": lambda: bundle_identity_suite(
        (mj := hopf_jet(2)), random_metric_connection(mj, r=2, seed=1),
        trials=3, seed=0),
    "bundle.skt2.chern": lambda: bundle_identity_suite(
        (mj := _skt2()), chern_connection(mj), trials=2, seed=2),
    "hopf_oracle.n3": lambda: oracle_vs_pipeline(
        HopfPoint(3, np.array([1.3, 0.2 - 0.4j, 0.5]))),
}


def test_at_order_is_a_memoized_read_only_prefix():
    fld, z = point("random-torus", 2)
    mj = metric_jet(fld, z, order=3)
    low = mj.at_order(2)
    assert mj.at_order(2) is low and low.at_order(2) is low
    assert mj.at_order(3) is mj and mj.at_order(5) is mj
    assert (low.n, low.order) == (2, 2) and low.point is mj.point
    size = _algebra(2, 2).size
    for got, full in ((low.h, mj.h), (low.hinv, mj.hinv)):
        assert got.shape == (2, 2, size) and np.shares_memory(got, full)
        assert np.array_equal(got, full[..., :size])
        with pytest.raises(ValueError):
            got[0, 0, 0] = 0
    assert np.array_equal(low.hinv, metric_jet(fld, z, order=2).hinv)
    with pytest.raises(ValidationError):
        mj.at_order(0)


def test_point_readers_share_the_order_two_memo():
    mj = metric_jet(normal_form_skt(3, 0), np.zeros(3, complex), order=3)
    panel = ricci_panel(mj)
    structure_report(mj)
    low = mj.at_order(2)
    built = levi_civita.__wrapped__     # the per_point memo key
    assert built in low._memo and built not in mj._memo
    assert levi_civita(low).shape[-1] == _algebra(3, 1).size
    assert curvature_chern(mj) is curvature_chern(low)
    assert ricci_panel(low)["chern_first"].tobytes() == \
        panel["chern_first"].tobytes()


def test_forms_read_the_memoized_levi_civita_at_their_order(monkeypatch):
    builds = []
    # levi_civita complexifies dh, of one order below the metric jet's
    monkeypatch.setattr(connection, "_complexified",
                        lambda x, f=connection._complexified: builds.append(
                            _algebra_of(x.shape[-2], x.shape[-1]).order + 1)
                        or f(x))
    mj = hopf_jet(2)
    identity_suite(mj, trials=3, seed=0)
    bundle_identity_suite(mj, random_metric_connection(mj, r=2, seed=0),
                          trials=2, seed=0)
    # one table per suite call, on the order-1 and order-2 prefix jets the
    # trials share; the caller's jet keeps none of it
    assert builds == [1, 2]
    assert mj._memo == {}


def test_fiber_metric_never_inverted_by_a_bundle_suite(monkeypatch):
    mj = _skt2()
    conn = chern_connection(mj)
    calls = []
    for module in (jets, metric):
        monkeypatch.setattr(module, "jet_matrix_inverse",
                            lambda m, n, f=jets.jet_matrix_inverse:
                            calls.append(m.shape) or f(m, n))
    assert not hasattr(FO, "jet_matrix_inverse")
    bundle_identity_suite(mj, conn, trials=3, seed=0)
    # star takes no fiber metric: it cancels between the Gram factors
    assert calls == []


def test_gram_compounds_built_once_per_suite_call(monkeypatch):
    calls = []
    monkeypatch.setattr(FO, "_compounds",
                        lambda m, top, n, f=FO._compounds:
                        calls.append(m.shape) or f(m, top, n))
    mj = hopf_jet(2)
    identity_suite(mj, trials=3, seed=0)
    # C_0..C_n of Hup and of h^T, on the suite's order-1 jet; twice per
    # star call before
    assert calls == [(2, 2, _algebra(2, 1).size)] * 2
    calls.clear()
    bundle_identity_suite(mj, random_metric_connection(mj, r=2, seed=0),
                          trials=2, seed=0)
    assert calls == [(2, 2, _algebra(2, 2).size)] * 2


def record() -> dict:
    return {"readers": {f"{f}|{n}|{k}": reader_digests(f, n, k)
                        for f, n, k in CASES},
            "suites": {name: run() for name, run in SUITES.items()}}


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def test_goldens_cover_every_case(goldens):
    assert sorted(goldens["readers"]) == sorted(
        f"{f}|{n}|{k}" for f, n, k in CASES)
    assert len(CASES) == 45


@pytest.mark.parametrize("family,n,order", CASES)
def test_readers_match_the_recorded_bytes(goldens, family, n, order):
    assert reader_digests(family, n, order) == \
        goldens["readers"][f"{family}|{n}|{order}"]


@pytest.mark.parametrize("family,n", sorted({(f, n) for f, n, _ in CASES}))
def test_readers_on_order_three_equal_order_two(family, n):
    # the point values read degree <= 2 of h; an order-1 jet is refused
    # where an order-2 one is not
    low, high = reader_digests(family, n, 2), reader_digests(family, n, 3)
    assert high == low
    assert not all(v.startswith("raised") for v in high.values())


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_residuals_match_the_recorded_ones(goldens, name):
    got = SUITES[name]()
    # bitwise: the JSON floats round-trip by repr
    assert {k: repr(v) for k, v in got.items()} == \
        {k: repr(v) for k, v in goldens["suites"][name].items()}


def _rerecord(names) -> int:
    """Write the goldens anew; with names (readers, and SUITES entries as
    suite:NAME), only if every reader digest and SUITES residual not named
    equals the file's."""
    new = record()
    if names:
        old = json.loads(GOLDENS.read_text(encoding="utf-8"))
        known = {r for digests in new["readers"].values() for r in digests}
        known |= {f"suite:{name}" for name in new["suites"]}
        unknown = set(names) - known
        if unknown:
            print(f"unknown readers or suites: {sorted(unknown)}",
                  file=sys.stderr)
            return 2
        stray = []
        for case in sorted(old["readers"].keys() | new["readers"].keys()):
            was, now = (d["readers"].get(case, {}) for d in (old, new))
            stray += [f"{case} {r}" for r in sorted(was.keys() | now.keys())
                      if r not in names and was.get(r) != now.get(r)]
        for name in sorted(old["suites"].keys() | new["suites"].keys()):
            was, now = ({k: repr(v) for k, v in d["suites"].get(name, {})
                         .items()} for d in (old, new))
            if f"suite:{name}" not in names and was != now:
                stray.append(f"suite {name}")
        if stray:
            print("not written; digests outside the named readers and "
                  "suites differ: " + ", ".join(stray), file=sys.stderr)
            return 1
    GOLDENS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"]:
        sys.exit("usage: test_order_contract.py --record "
                 "[READER...] [suite:NAME...]")
    sys.exit(_rerecord(sys.argv[2:]))
