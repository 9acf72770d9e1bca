"""Eigenvalue sign analysis of curvature matrices.

p-positivity of a Hermitian matrix asks that every sum of p distinct
eigenvalues be positive; since eigenvalue subsets of fixed size attain their
minimum (maximum) sum on the p smallest (largest) eigenvalues, prefix sums
of the sorted spectrum decide every verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError, ValidationError

__all__ = [
    "PositivityReport",
    "GriffithsReport",
    "HypothesisReport",
    "p_positivity",
    "griffiths_sample",
    "vanishing_hypothesis_report",
]

DEFAULT_TOL = 1e-10

_NOTE = ("sign hypotheses checked on the supplied samples only; "
         "no cohomological conclusion is asserted")


@dataclass(frozen=True)
class PositivityReport:
    eigenvalues: np.ndarray  # ascending
    verdicts: tuple          # verdicts[p-1] for p = 1..r
    tol: float


@dataclass(frozen=True)
class GriffithsReport:
    minimum: float
    witness_u: np.ndarray
    witness_v: np.ndarray
    trials: int
    seed: int
    nonnegative: bool
    tol: float


@dataclass(frozen=True)
class HypothesisReport:
    sense: str
    p: int
    holds_everywhere: bool
    strict_somewhere: bool
    strict_witness: object
    failures: tuple
    samples: int
    note: str


def _check_hermitian(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StructuralError("matrix must be square")
    if abs(m - m.conj().T).max() > 1e-12:
        raise StructuralError("matrix is not Hermitian to 1e-12")
    return m


def _verdict(min_sum: float, max_sum: float, tol: float) -> str:
    if min_sum > tol:
        return "positive"
    if max_sum < -tol:
        return "negative"
    if min_sum >= -tol:
        return "nonnegative"
    if max_sum <= tol:
        return "nonpositive"
    return "indefinite"


def p_positivity(m: np.ndarray, tol: float = DEFAULT_TOL) -> PositivityReport:
    m = _check_hermitian(m)
    lam = np.linalg.eigvalsh(m)
    r = len(lam)
    verdicts = []
    for p in range(1, r + 1):
        verdicts.append(_verdict(float(lam[:p].sum()),
                                 float(lam[r - p:].sum()), tol))
    return PositivityReport(eigenvalues=lam, verdicts=tuple(verdicts), tol=tol)


def _unit_pairs(n: int, trials: int, seed: int) -> list:
    """`trials` pairs (u, v) of random unit vectors of C^n from one
    generator seeded by seed: per pair u, then v, each drawn as
    standard_normal(n) + 1j standard_normal(n) and divided by its norm.
    Refuses trials < 1."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(trials):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        pairs.append((u / np.linalg.norm(u), v / np.linalg.norm(v)))
    return pairs


def _pairing(t: np.ndarray, u: np.ndarray, v: np.ndarray) -> complex:
    """The (u, ubar, v, vbar) contraction of t[i, jbar, k, lbar]."""
    return np.einsum("ijkl,i,j,k,l->", t, u, np.conj(u), v, np.conj(v))


def griffiths_sample(t, trials: int, seed: int,
                     tol: float = DEFAULT_TOL) -> GriffithsReport:
    """Minimum of the (u, ubar, v, vbar) pairing of a curvature tensor
    t[i, jbar, k, lbar] over random unit vectors, normalized by
    |u|^2 |v|^2."""
    best = np.inf
    wu = wv = None
    for u, v in _unit_pairs(t.shape[0], trials, seed):
        val = _pairing(t, u, v).real
        if val < best:
            best, wu, wv = float(val), u, v
    return GriffithsReport(minimum=best, witness_u=wu, witness_v=wv,
                           trials=trials, seed=seed,
                           nonnegative=best >= -tol, tol=tol)


def vanishing_hypothesis_report(matrices, sense: str, p: int = 1,
                                tol: float = DEFAULT_TOL) -> HypothesisReport:
    """Check a sign hypothesis on a family of Hermitian matrices (one per
    sample point).

    sense 'nonnegative' (resp. 'nonpositive') requires p-nonnegativity
    (resp. p-nonpositivity) at every sample; the report also records whether
    the strict version (p-positive / p-negative) holds at some sample.
    """
    if sense not in ("nonnegative", "nonpositive"):
        raise ValidationError("sense must be 'nonnegative' or 'nonpositive'")
    ok = {"nonnegative": ("nonnegative", "positive"),
          "nonpositive": ("nonpositive", "negative")}[sense]
    strict = ok[1]
    failures = []
    strict_witness = None
    count = 0
    for idx, m in enumerate(matrices):
        count += 1
        rep = p_positivity(m, tol)
        v = rep.verdicts[p - 1]
        if v not in ok:
            failures.append((idx, v, rep.eigenvalues))
        if v == strict and strict_witness is None:
            strict_witness = (idx, rep.eigenvalues)
    return HypothesisReport(sense=sense, p=p,
                            holds_everywhere=not failures,
                            strict_somewhere=strict_witness is not None,
                            strict_witness=strict_witness,
                            failures=tuple(failures), samples=count,
                            note=_NOTE)
