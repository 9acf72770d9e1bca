"""Truncated power-series (jet) arithmetic in 2n commuting variables.

A ``Jet`` stores a complex polynomial in the formal variables
``z^1..z^n, zbar^1..zbar^n`` truncated at a total degree ``order``.  The two
families of variables are treated as independent commuting symbols, so the
Wirtinger derivatives d/dz^i and d/dzbar^j are exact formal derivatives.

Coefficients live in a dense 1-D numpy array over a per-(n, order) monomial
basis; the basis is sorted by total degree first, which makes truncation to a
lower order a prefix slice and lets derivative results (order - 1) reuse the
same index map.  A sum or product of jets of two orders is taken at the lower
order, the one to which both are known; jets of different n never combine.
``add``, ``mul``, ``matmul``, ``conj``, ``derivative(s)`` and ``inverse`` act on
coefficient arrays (..., S) and are the one home of these rules; the package
holds every jet-valued tensor so, and ``Jet`` is one (S,) array on them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, count
from math import comb, factorial

import numpy as np

from .errors import OrderExhaustedError, SingularSeriesError, StructuralError

__all__ = [
    "Jet",
    "wirtinger",
    "add",
    "mul",
    "matmul",
    "conj",
    "derivatives",
    "inverse",
    "jet_matrix_inverse",
    "point_derivatives",
]


def _monomials(nvars: int, max_deg: int):
    """All exponent tuples of length nvars with total degree <= max_deg,
    sorted by (total degree, lexicographic)."""
    out = []
    for deg in range(max_deg + 1):
        # combinations_with_replacement over variable slots -> exponent vectors
        level = set()
        for combo in combinations_with_replacement(range(nvars), deg):
            e = [0] * nvars
            for v in combo:
                e[v] += 1
            level.add(tuple(e))
        out.extend(sorted(level))
    return out


class _Algebra:
    """Cached multiplication/derivative/conjugation tables for one (n, order)."""

    def __init__(self, n: int, order: int):
        self.n = n
        self.order = order
        self.exponents = _monomials(2 * n, order)
        self.index = {e: i for i, e in enumerate(self.exponents)}
        self.size = len(self.exponents)
        # the basis as an (S, 2n) exponent array and the multi-index
        # factorials prod_v e_v!, for coefficients written in closed form
        self.exponent_array = np.array(self.exponents)
        fact = np.array([factorial(k) for k in range(order + 1)], float)
        self.factorials = fact[self.exponent_array].prod(axis=1)
        self.degrees = self.exponent_array.sum(axis=1)
        # number of monomials of total degree <= d, for prefix truncation
        self.size_at = [int(np.sum(self.degrees <= d)) for d in range(order + 1)]

        # multiplication triples: coeffs[t] += a[i] * b[j]
        mi, mj, mt = [], [], []
        for i, ei in enumerate(self.exponents):
            di = sum(ei)
            for j, ej in enumerate(self.exponents):
                if di + sum(ej) > order:
                    continue
                mi.append(i)
                mj.append(j)
                mt.append(self.index[tuple(a + b for a, b in zip(ei, ej))])
        # the triples in rank passes: pass r holds the r-th triple of each
        # output monomial that has one, in the order above
        rank = np.zeros(len(mt), dtype=int)
        seen = {}
        for k, t in enumerate(mt):
            rank[k] = seen.get(t, 0)
            seen[t] = rank[k] + 1
        mi, mj, mt = np.array(mi), np.array(mj), np.array(mt)
        self.mul_passes = [(mi[rank == r], mj[rank == r], mt[rank == r])
                           for r in range(rank.max() + 1)]

        # derivative gather maps, one per variable slot v in 0..2n-1
        self.deriv_src = []
        self.deriv_dst = []
        self.deriv_fac = []
        for v in range(2 * n):
            src, dst, fac = [], [], []
            for i, e in enumerate(self.exponents):
                if e[v] == 0:
                    continue
                low = list(e)
                low[v] -= 1
                src.append(i)
                dst.append(self.index[tuple(low)])  # valid in the (order-1) prefix
                fac.append(e[v])
            self.deriv_src.append(np.array(src, dtype=int))
            self.deriv_dst.append(np.array(dst, dtype=int))
            self.deriv_fac.append(np.array(fac, dtype=float))

        # conjugation permutes z^alpha zbar^beta -> z^beta zbar^alpha
        self.conj_perm = np.array(
            [self.index[e[n:] + e[:n]] for e in self.exponents]
        )

        # basis positions of the point derivatives, by degree up to 2: the
        # constant, each variable slot v in 0..2n-1, each z^k zbar^l at [k, l]
        unit = np.eye(2 * n, dtype=int)
        self.point_index = [np.array(0)]
        if order >= 1:
            self.point_index.append(np.array(
                [self.index[tuple(u.tolist())] for u in unit]))
        if order >= 2:
            self.point_index.append(np.array(
                [[self.index[tuple((unit[k] + unit[n + l]).tolist())]
                  for l in range(n)] for k in range(n)]))

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Jet products of coefficient arrays of shape (..., size), broadcast
        over their leading axes; ``Jet.__mul__`` is this on one pair.  Every
        output monomial sums its products from +0 in triple order; a pass
        adds one product into each monomial, so no index repeats within a
        pass and a plain scatter suffices.  The passes run with the
        coefficient axis first, on whole rows; the result is a view with
        that axis moved back to the end."""
        shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
        lead = (len(shape),) + tuple(range(len(shape)))
        a, b = (np.ascontiguousarray(
            x.reshape((1,) * (len(shape) + 1 - x.ndim) + x.shape)
            .transpose(lead)) for x in (a, b))
        out = np.zeros((self.size,) + shape, dtype=complex)
        for i, j, t in self.mul_passes:
            out[t] += a[i] * b[j]
        return out.transpose(tuple(range(1, len(shape) + 1)) + (0,))

    def derivative(self, a: np.ndarray, v: int) -> np.ndarray:
        """d/d(variable slot v) of coefficient arrays of shape (..., size),
        over the basis of order - 1."""
        if self.order == 0:
            raise OrderExhaustedError("cannot differentiate an order-0 jet")
        out = np.zeros(a.shape[:-1] + (self.size_at[self.order - 1],),
                       dtype=complex)
        out[..., self.deriv_dst[v]] = (self.deriv_fac[v]
                                       * a[..., self.deriv_src[v]])
        return out


@lru_cache(maxsize=None)
def _algebra(n: int, order: int) -> _Algebra:
    return _Algebra(n, order)


@lru_cache(maxsize=None)
def _algebra_of(n: int, size: int) -> _Algebra:
    """The algebra of n variables whose basis has ``size`` monomials; the
    size alone does not fix it, (n, order) = (1, 4) and (2, 2) both give 15."""
    order = next(k for k in count() if comb(2 * n + k, k) >= size)
    if comb(2 * n + order, order) != size:
        raise StructuralError(
            f"no jet basis in {n} complex variables has {size} monomials")
    return _algebra(n, order)


# -- arithmetic on coefficient arrays (..., S) of jets in n variables -----


def _lower(a: np.ndarray, b: np.ndarray):
    """a and b cut to the lower of their two orders, a prefix of the basis."""
    size = min(a.shape[-1], b.shape[-1])
    return a[..., :size], b[..., :size]


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Jet sums, broadcast over the leading axes, at the lower order."""
    a, b = _lower(a, b)
    return a + b


def mul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Jet products of coefficient arrays, broadcast over their leading
    axes, at the lower of the two orders (``_Algebra.mul``)."""
    a, b = _lower(a, b)
    return _algebra_of(n, a.shape[-1]).mul(a, b)


def matmul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The jet-matrix product over the last two index axes, (..., i, k, S)
    times (..., k, j, S), the other leading axes broadcast: one batched
    product, then the sum over k from k = 0 on."""
    return mul(a[..., :, :, None, :], b[..., None, :, :, :], n).sum(axis=-3)


def conj(x: np.ndarray, n: int) -> np.ndarray:
    """Conjugate jets: conjugate coefficients, z and zbar swapped."""
    return np.conj(x[..., _algebra_of(n, x.shape[-1]).conj_perm])


def derivative(x: np.ndarray, n: int, v: int) -> np.ndarray:
    """d/dz^v (v < n) or d/dzbar^(v - n) of every jet, one order lower."""
    return _algebra_of(n, x.shape[-1]).derivative(x, v)


def derivatives(x: np.ndarray, n: int, slots) -> np.ndarray:
    """``derivative`` along each variable slot of ``slots``, on a new axis 0."""
    return np.stack([derivative(x, n, v) for v in slots])


def inverse(a: np.ndarray, n: int) -> np.ndarray:
    """The inverse of one jet's coefficients a (S,) by Newton's iteration
    from 1 / a_0, which doubles the correct degree each pass."""
    alg = _algebra_of(n, a.shape[-1])
    c0 = complex(a[0])
    if c0 == 0:
        raise SingularSeriesError("series has zero constant term")
    x = np.zeros(alg.size, dtype=complex)
    x[0] = 1.0 / c0
    for _ in range(max(1, int(np.ceil(np.log2(alg.order + 1))) + 1)):
        t = -alg.mul(a, x)
        t[0] += 2.0
        x = alg.mul(x, t)
    return x


# the scalar operands of Jet arithmetic (numpy scalars included)
_SCALARS = (int, float, complex, np.number)


class Jet:
    """Immutable truncated power series in (z^1..z^n, zbar^1..zbar^n)."""

    __slots__ = ("n", "order", "coeffs", "_alg")

    def __init__(self, n: int, order: int, coeffs=None):
        if order < 0:
            raise StructuralError("jet order must be >= 0")
        alg = _algebra(n, order)
        c = np.zeros(alg.size, dtype=complex) if coeffs is None \
            else np.array(coeffs, dtype=complex)
        if c.shape != (alg.size,):
            raise StructuralError(
                f"coefficient array has shape {c.shape}, expected ({alg.size},)")
        c.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "_alg", alg)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Jet is immutable")

    def _new(self, coeffs: np.ndarray) -> "Jet":
        """A jet in this one's variables, of the order its coefficients fix."""
        return Jet(self.n, _algebra_of(self.n, coeffs.shape[-1]).order, coeffs)

    def _pair(self, other: "Jet"):
        if self.n != other.n:
            raise StructuralError(f"jet mismatch: n={self.n} vs n={other.n}")
        return self.coeffs, other.coeffs

    @property
    def const(self) -> complex:
        """Constant term (value of the series at 0)."""
        return complex(self.coeffs[0])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return self._new(add(*self._pair(other)))
        if isinstance(other, _SCALARS):
            c = self.coeffs.copy()
            c[0] += other
            return Jet(self.n, self.order, c)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.n, self.order, -self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            return self._new(mul(*self._pair(other), self.n))
        if isinstance(other, _SCALARS):
            return Jet(self.n, self.order, self.coeffs * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * jet_inverse(other)
        return self * (1.0 / other)

    def conj(self) -> "Jet":
        return Jet(self.n, self.order, conj(self.coeffs, self.n))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))


# -- module-level operations ----------------------------------------------


def wirtinger(a: Jet, which: str, index: int) -> Jet:
    """Formal d/dz^index ('holo') or d/dzbar^index ('antiholo'); index 0-based.

    The result has order K-1.
    """
    if which not in ("holo", "antiholo"):
        raise StructuralError(f"unknown derivative kind {which!r}")
    if not 0 <= index < a.n:
        raise StructuralError(f"derivative index {index} out of range for n={a.n}")
    v = index + (a.n if which == "antiholo" else 0)
    return a._new(derivative(a.coeffs, a.n, v))


def point_derivatives(coeffs: np.ndarray, n: int,
                      degree: int = 0) -> np.ndarray:
    """Point values (degree 0), first derivatives (1) or mixed second
    derivatives d^2/dz^k dzbar^l (2) of jets in n complex variables, given
    by their coefficient array of shape (..., size).

    The result is one dense complex array, derivative axes first: ``...``
    for degree 0, ``(2n, ...)`` for degree 1 (z^0..z^{n-1}, then
    zbar^0..zbar^{n-1}) and ``(n, n, ...)`` for degree 2 (axes k, l).  Each
    entry is one coefficient read by basis index: the multi-index factorial
    of every monomial read here is 1, so the entries equal the
    ``wirtinger(...).const`` route bit for bit.
    """
    if degree not in (0, 1, 2):
        raise StructuralError(f"point derivatives of degree {degree} are not read")
    alg = _algebra_of(n, coeffs.shape[-1])
    if degree > alg.order:
        raise OrderExhaustedError(
            f"cannot read degree-{degree} derivatives off an order-{alg.order} jet")
    idx = alg.point_index[degree]
    rows = coeffs.reshape(-1, alg.size)
    return rows[:, idx.ravel()].T.reshape(idx.shape + coeffs.shape[:-1])


def jet_inverse(a: Jet) -> Jet:
    """Multiplicative inverse: a * jet_inverse(a) = 1 through degree K."""
    return Jet(a.n, a.order, inverse(a.coeffs, a.n))


def jet_matrix_inverse(m: np.ndarray, n: int) -> np.ndarray:
    """Inverse of a square matrix of jets in n complex variables, given and
    returned as a coefficient array (k, k, size), by Gaussian elimination
    on whole rows of the augmented matrix [m | I].

    The pivot is the first row of largest constant-term modulus, which is
    safe because the intended inputs have Hermitian positive-definite
    constant term.  Rows with an identically zero entry in the pivot column
    are skipped; the others are reduced together.
    """
    k = m.shape[0]
    if m.ndim != 3 or m.shape[1] != k:
        raise StructuralError(f"matrix must be square, got {m.shape[:-1]}")
    size = _algebra_of(n, m.shape[-1]).size
    aug = np.zeros((k, 2 * k, size), dtype=complex)
    aug[:, :k] = m
    aug[range(k), range(k, 2 * k), 0] = 1.0
    for col in range(k):
        piv = max(range(col, k), key=lambda r: abs(complex(aug[r, col, 0])))
        if abs(complex(aug[piv, col, 0])) == 0:
            raise SingularSeriesError("matrix of jets has singular constant term")
        aug[[col, piv]] = aug[[piv, col]]
        aug[col] = mul(aug[col], inverse(aug[col, col], n), n)
        rows = [r for r in range(k) if r != col and aug[r, col].any()]
        if rows:
            aug[rows] -= mul(aug[rows, col, None], aug[col], n)
    return aug[:, k:].copy()
