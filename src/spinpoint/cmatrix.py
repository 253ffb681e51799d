"""Dense complex-matrix kernel.

``CMatrix`` is an immutable dense complex matrix (double precision);
every operation returns a fresh value, so instances can be freely shared
between threads. Scalars are Python ``complex``. All construction paths
reject non-finite entries, which is how operations that would overflow
surface as errors instead of silently propagating NaN/Inf.

The heavy solvers follow fixed algorithm choices: eigenvalues and the
Schur form come from Householder Hessenberg reduction plus implicit
single-shift QR iteration (:mod:`spinpoint._schur`), numerical rank from
Gaussian elimination with full pivoting, the characteristic polynomial
from the Faddeev-LeVerrier recursion, and the exponential from scaling
and squaring around a degree-13 Taylor core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._schur import _binary_exponent, _ldexp, schur_decompose
from .errors import DimensionError, NonFiniteError

__all__ = [
    "Tolerance", "CMatrix", "SchurForm",
    "add", "sub", "mul", "scale", "adjoint", "commutator",
    "kron", "direct_sum", "frobenius_norm", "trace", "det",
    "rank", "nullspace", "eigenvalues", "schur",
    "matrix_exp", "matrix_power", "char_poly",
]

_EXP_TAYLOR_DEGREE = 13
_EXP_TARGET_NORM = 0.5

# Entries of largest modulus in this range square and sum, for any
# dimension this package targets, without overflow or harmful underflow.
_SQUARE_SAFE_MIN = 2.0 ** -500
_SQUARE_SAFE_MAX = 2.0 ** 500


def _frobenius(x: np.ndarray) -> float:
    """Frobenius norm of an ndarray, free of the overflow and underflow of
    squaring its entries: only when its largest entry is outside the
    square-safe range are the entries scaled by an exact power of two,
    and the norm scaled back."""
    big = np.abs(x).max()
    if _SQUARE_SAFE_MIN <= big <= _SQUARE_SAFE_MAX or big == 0.0:
        return float(np.linalg.norm(x))
    e = _binary_exponent(x)
    return float(np.ldexp(np.linalg.norm(_ldexp(x, -e)), e))


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair.

    The effective threshold for an n x n matrix A is
    ``absolute + relative * n * ||A||_F``.
    """

    absolute: float = 1e-12
    relative: float = 1e-12

    def __post_init__(self):
        if not (np.isfinite(self.absolute) and np.isfinite(self.relative)):
            raise ValueError("tolerances must be finite")
        if self.absolute < 0.0 or self.relative < 0.0:
            raise ValueError("tolerances must be nonnegative")

    def effective(self, a: "CMatrix | np.ndarray") -> float:
        data = a.data if isinstance(a, CMatrix) else np.asarray(a)
        n = max(data.shape)
        return self.absolute + self.relative * n * _frobenius(data)


DEFAULT_TOLERANCE = Tolerance()


class CMatrix:
    """Immutable dense complex matrix, row-major.

    Parameters
    ----------
    entries : array_like
        Anything ``np.asarray`` accepts with two dimensions; values are
        converted to complex128 and copied.

    Raises
    ------
    ValueError
        If the shape is not two-dimensional with positive extents.
    NonFiniteError
        If any entry is NaN or infinite.
    """

    __slots__ = ("_data",)

    def __init__(self, entries):
        data = np.array(entries, dtype=complex, copy=True)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError(f"expected a 2-d matrix, got shape {data.shape}")
        if not np.all(np.isfinite(data.real)) or not np.all(np.isfinite(data.imag)):
            raise NonFiniteError("matrix entries must be finite")
        data.setflags(write=False)
        object.__setattr__(self, "_data", data)

    def __setattr__(self, name, value):
        raise AttributeError("CMatrix is immutable")

    @property
    def data(self) -> np.ndarray:
        """Read-only ndarray view of the entries."""
        return self._data

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "CMatrix":
        return cls(np.zeros((rows, cols if cols is not None else rows), dtype=complex))

    @classmethod
    def identity(cls, n: int) -> "CMatrix":
        return cls(np.eye(n, dtype=complex))

    @classmethod
    def diagonal(cls, values) -> "CMatrix":
        return cls(np.diag(np.asarray(values, dtype=complex)))

    def require_square(self, what: str) -> None:
        if not self.is_square:
            raise DimensionError(f"{what} requires a square matrix, got "
                                 f"{self.rows}x{self.cols}")

    def __repr__(self):
        return f"CMatrix({self._data!r})"

    def __eq__(self, other):
        if not isinstance(other, CMatrix):
            return NotImplemented
        return self._data.shape == other._data.shape and \
            np.array_equal(self._data, other._data)

    __hash__ = None

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __neg__(self):
        return CMatrix(-self._data)

    def __matmul__(self, other):
        return mul(self, other)

    def __mul__(self, c):
        return scale(c, self)

    __rmul__ = __mul__

    @property
    def h(self) -> "CMatrix":
        """Conjugate transpose."""
        return adjoint(self)


@dataclass(frozen=True, eq=False)
class SchurForm:
    """Unitary factor, upper-triangular factor, and the reconstruction
    residual ``||A - U T U*||_F`` recorded at construction."""

    u: CMatrix
    t: CMatrix
    residual: float


def _same_shape(a: CMatrix, b: CMatrix, what: str) -> None:
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionError(f"{what}: shape {a.rows}x{a.cols} vs "
                             f"{b.rows}x{b.cols}")


def add(a: CMatrix, b: CMatrix) -> CMatrix:
    _same_shape(a, b, "add")
    return CMatrix(a.data + b.data)


def sub(a: CMatrix, b: CMatrix) -> CMatrix:
    _same_shape(a, b, "sub")
    return CMatrix(a.data - b.data)


def mul(a: CMatrix, b: CMatrix) -> CMatrix:
    if a.cols != b.rows:
        raise DimensionError(f"mul: inner dimensions {a.cols} vs {b.rows}")
    return CMatrix(a.data @ b.data)


def scale(c: complex, a: CMatrix) -> CMatrix:
    return CMatrix(complex(c) * a.data)


def adjoint(a: CMatrix) -> CMatrix:
    """Conjugate transpose."""
    return CMatrix(a.data.conj().T)


def commutator(a: CMatrix, b: CMatrix) -> CMatrix:
    """AB - BA for square matrices of equal size."""
    a.require_square("commutator")
    b.require_square("commutator")
    _same_shape(a, b, "commutator")
    return CMatrix(a.data @ b.data - b.data @ a.data)


def kron(a: CMatrix, b: CMatrix) -> CMatrix:
    """Kronecker product: block (j, k) equals a_jk * B."""
    return CMatrix(np.kron(a.data, b.data))


def direct_sum(a: CMatrix, b: CMatrix) -> CMatrix:
    """Block-diagonal direct sum."""
    out = np.zeros((a.rows + b.rows, a.cols + b.cols), dtype=complex)
    out[:a.rows, :a.cols] = a.data
    out[a.rows:, a.cols:] = b.data
    return CMatrix(out)


def frobenius_norm(a: CMatrix) -> float:
    """||A||_F, without the overflow and underflow of squaring entries."""
    return _frobenius(a.data)


def trace(a: CMatrix) -> complex:
    a.require_square("trace")
    return complex(np.trace(a.data))


def det(a: CMatrix) -> complex:
    """Determinant via LU elimination with partial pivoting."""
    a.require_square("det")
    return _det_lu(a.data)


def _det_lu(mat: np.ndarray) -> complex:
    m = np.array(mat, dtype=complex)
    n = m.shape[0]
    out = 1.0 + 0.0j
    for k in range(n):
        p = int(np.abs(m[k:, k]).argmax()) + k
        if m[p, k] == 0.0:
            return 0.0 + 0.0j
        if p != k:
            m[[k, p]] = m[[p, k]]
            out = -out
        out *= m[k, k]
        m[k + 1:, k:] -= np.outer(m[k + 1:, k] / m[k, k], m[k, k:])
    return complex(out)


def _full_pivot_eliminate(a: CMatrix, tol: Tolerance
                          ) -> tuple[np.ndarray, int, np.ndarray]:
    """Gaussian elimination with full pivoting, stopped at the first pivot
    at or below ``tol.effective(a)``.

    Returns the reduced matrix (upper triangular in its leading r x r
    block), the rank r and the column permutation applied to reach it.
    """
    threshold = tol.effective(a)
    m = np.array(a.data, dtype=complex)
    rows, cols = m.shape
    colperm = np.arange(cols)
    r = 0
    while r < min(rows, cols):
        sub_abs = np.abs(m[r:, r:])
        i, j = np.unravel_index(int(sub_abs.argmax()), sub_abs.shape)
        if sub_abs[i, j] <= threshold:
            break
        m[[r, r + i]] = m[[r + i, r]]
        m[:, [r, r + j]] = m[:, [r + j, r]]
        colperm[[r, r + j]] = colperm[[r + j, r]]
        m[r + 1:, r:] -= np.outer(m[r + 1:, r] / m[r, r], m[r, r:])
        r += 1
    return m, r, colperm


def rank(a: CMatrix, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    """Numerical rank via Gaussian elimination with full pivoting.

    Pivots at or below the effective threshold
    ``tol.absolute + tol.relative * n * ||A||_F`` count as zero.
    """
    return _full_pivot_eliminate(a, tol)[1]


def nullspace(a: CMatrix, tol: Tolerance = DEFAULT_TOLERANCE) -> list[np.ndarray]:
    """Orthonormal-ish basis of the numerical null space.

    Full-pivot elimination with column tracking; one normalized vector
    per free column. The basis spans the null space but is not
    orthogonalized (callers needing projections should orthonormalize).
    """
    m, r, colperm = _full_pivot_eliminate(a, tol)
    cols = a.cols
    basis = []
    for free in range(r, cols):
        x = np.zeros(cols, dtype=complex)
        x[free] = 1.0
        for i in range(r - 1, -1, -1):
            x[i] = -(m[i, i + 1:] @ x[i + 1:]) / m[i, i]
        y = np.zeros(cols, dtype=complex)
        y[colperm] = x
        basis.append(y / np.linalg.norm(y))
    return basis


def eigenvalues(a: CMatrix) -> np.ndarray:
    """All eigenvalues (with multiplicity) of a square matrix.

    Hessenberg reduction followed by shifted QR iteration with
    deflation, without forming the Schur vectors. The computed values
    are sorted by descending modulus, ties broken by descending real
    part, then descending imaginary part. Eigenvalues of equal modulus
    in exact arithmetic, such as a pair +/- lambda, usually differ in
    their computed moduli by rounding, so their order is not a
    contract; compare spectra as multisets.

    Raises
    ------
    ConvergenceError
        After 40 n QR steps without full deflation; carries the
        unconverged block index.
    """
    a.require_square("eigenvalues")
    t, _ = schur_decompose(a.data, want_q=False)
    return _sort_eigenvalues(np.diag(t))


def _sort_eigenvalues(vals: np.ndarray) -> np.ndarray:
    """``eigenvalues`` order along the last axis, so a stack of spectra
    is sorted row by row."""
    vals = np.asarray(vals, dtype=complex)
    order = np.lexsort((-vals.imag, -vals.real, -np.abs(vals)), axis=-1)
    return np.take_along_axis(vals, order, axis=-1)


def schur(a: CMatrix) -> SchurForm:
    """Complex Schur form A = U T U*.

    Only the invariant content is contractual: reconstruction,
    unitarity of U, triangularity of T, and the eigenvalue multiset on
    T's diagonal. U itself is not unique.
    """
    a.require_square("schur")
    t, u = schur_decompose(a.data)
    residual = _frobenius(a.data - u @ t @ u.conj().T)
    return SchurForm(u=CMatrix(u), t=CMatrix(t), residual=residual)


def matrix_power(a: CMatrix, k: int) -> CMatrix:
    """A**k for integer k >= 0 by repeated squaring."""
    a.require_square("matrix_power")
    if k < 0:
        raise ValueError("matrix_power requires k >= 0")
    result = np.eye(a.rows, dtype=complex)
    base = np.array(a.data)
    e = k
    while e > 0:
        if e & 1:
            result = result @ base
        e >>= 1
        if e > 0:
            base = base @ base
    return CMatrix(result)


def matrix_exp(a: CMatrix) -> CMatrix:
    """Matrix exponential by scaling and squaring.

    The input is scaled by a power of two so its Frobenius norm is at
    most 0.5, a degree-13 truncated Taylor series is summed by Horner's
    rule, and the result is squared back up. For exactly nilpotent
    inputs the finite series is reproduced to roundoff.
    """
    a.require_square("matrix_exp")
    n = a.rows
    norm = _frobenius(a.data)
    squarings = 0
    if norm > _EXP_TARGET_NORM:
        squarings = int(np.ceil(np.log2(norm / _EXP_TARGET_NORM)))
    scaled = a.data / (2.0 ** squarings)
    result = np.eye(n, dtype=complex) / _factorial(_EXP_TAYLOR_DEGREE)
    for k in range(_EXP_TAYLOR_DEGREE - 1, -1, -1):
        result = scaled @ result + np.eye(n, dtype=complex) / _factorial(k)
    for _ in range(squarings):
        result = result @ result
    return CMatrix(result)


def _factorial(k: int) -> float:
    out = 1.0
    for i in range(2, k + 1):
        out *= i
    return out


def char_poly(a: CMatrix) -> np.ndarray:
    """Coefficients of det(A - E I) ordered from E^0 to E^n.

    Faddeev-LeVerrier recursion; the leading coefficient is (-1)^n.
    """
    a.require_square("char_poly")
    n = a.rows
    mat = a.data
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = 1.0
    aux = np.zeros_like(mat)
    eye = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        aux = mat @ aux + coeffs[n - k + 1] * eye
        coeffs[n - k] = -np.trace(mat @ aux) / k
    return coeffs * (-1.0) ** n
