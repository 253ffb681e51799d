"""Dense complex-matrix kernel.

``CMatrix`` is an immutable dense complex matrix (double precision);
every operation returns a fresh value, so instances can be freely shared
between threads. Scalars are Python ``complex``. All construction paths
reject non-finite entries, which is how operations that would overflow
surface as errors instead of silently propagating NaN/Inf.

The heavy solvers follow fixed algorithm choices: eigenvalues and the
Schur form come from Householder Hessenberg reduction plus implicit
single-shift QR iteration (:mod:`spinpoint._schur`), numerical rank and
null spaces from one Gaussian elimination with full pivoting, the
determinant from LU elimination with partial pivoting, the
characteristic polynomial from the Faddeev-LeVerrier recursion, and the
exponential from scaling and squaring around a degree-13 Taylor core.

The two eliminations and the recursion each run a stack of matrices in
lockstep, each matrix getting the arithmetic it would get alone, bit for
bit:

- The full-pivot elimination stops a matrix, scaled to unit entries, at
  its first pivot at or below the tolerance for it. ``rank`` and
  ``nullspace`` pass a stack of one, and callers that need many ranks at
  once (the rank chain of ``nilpotency_report``, the geometric
  multiplicities of the EP locator) pass them all in one call.
- The partially pivoted LU behind ``det`` drops a matrix from the
  working stack at its first exactly zero pivot column (det 0). Each
  determinant is the product of its pivots formed on scalars, in
  elimination order.
- The Faddeev-LeVerrier recursion behind ``char_poly``.

``det`` and ``char_poly`` pass a stack of one; the EP locator passes the
matrices at all its discriminant sample nodes in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._schur import _norms, _unit_scale, schur_decompose
from .errors import DimensionError, NonFiniteError

__all__ = [
    "Tolerance", "DEFAULT_TOLERANCE", "CMatrix", "SchurForm",
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
    e, scaled = _unit_scale(x)
    return float(np.ldexp(np.linalg.norm(scaled), e))


@dataclass(frozen=True, kw_only=True)
class Tolerance:
    """One tolerance for every rank and normality verdict, each taken on
    B = 2**-e A scaled to unit entries (``_unit_scale``): the threshold
    for an n x n matrix is ``value + value * n * ||B||_F``. The field is
    keyword-only, so ``Tolerance(1e-10)`` raises ``TypeError``."""

    value: float = 1e-12

    def __post_init__(self):
        if not np.isfinite(self.value) or self.value < 0.0:
            raise ValueError(f"tolerance must be finite and nonnegative, "
                             f"got {self.value}")

    def effective(self, b: "CMatrix | np.ndarray", floors=0.0):
        """``max(value, floor) + value * n * ||b||_F``, n the larger
        extent: a float for one matrix b, an array for an ``(N, rows,
        cols)`` stack, with one floor each or one for all. The norm is
        that of ``_norms``, unguarded against overflow: b is meant to be
        scaled to unit entries."""
        b = b.data if isinstance(b, CMatrix) else np.asarray(b)
        rows, cols = b.shape[-2:]
        norms = _norms(b.reshape(b.shape[:-2] + (rows * cols,)))[..., 0]
        limit = (np.maximum(self.value, floors)
                 + self.value * max(rows, cols) * norms)
        return limit if b.ndim > 2 else float(limit)


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
        if not np.isfinite(data).all():
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
    """Determinant via LU elimination with partial pivoting, the lockstep
    LU run on a stack of one."""
    a.require_square("det")
    return complex(_det_lu(a.data[None])[0])


def _det_lu(a: np.ndarray) -> np.ndarray:
    """Determinants of an ``(N, m, m)`` stack by LU elimination with
    partial pivoting, run in lockstep.

    A step takes the first entry of largest modulus in each matrix's
    pivot column, swaps its row into place and subtracts the broadcast
    product of the multipliers and the pivot row from the rows below, so
    each matrix gets the arithmetic it would get alone. A matrix whose
    pivot column is exactly zero has det 0 and leaves the working stack
    before its pivot divides anything. The product of each matrix's
    pivots, negated at each row swap, is formed on numpy scalars in
    elimination order: a vectorised complex multiply can round it
    differently in the last bit.
    """
    count, m = a.shape[0], a.shape[-1]
    pivots = np.empty((count, m), dtype=complex)
    swapped = np.zeros((count, m), dtype=bool)
    # live: the stack index of each working matrix; every: 0..len(live)-1.
    live = every = np.arange(count)
    work = np.array(a, dtype=complex)
    for k in range(m):
        column = np.abs(work[:, k:, k])
        p = column.argmax(axis=1)
        zero = column[every, p] == 0.0
        if np.count_nonzero(zero):
            keep = ~zero
            live, work, p = live[keep], work[keep], p[keep]
            every = every[:len(live)]
            if not len(live):
                break
        p += k
        swapped[live, k] = p != k
        row = work[every, p, k:]
        work[every, p, k:] = work[:, k, k:]
        work[:, k, k:] = row
        pivots[live, k] = row[:, 0]
        factor = work[:, k + 1:, k] / row[:, :1]
        work[:, k + 1:, k:] -= factor[:, :, None] * row[:, None, :]
    out = np.zeros(count, dtype=complex)
    for i in live.tolist():
        product = 1.0 + 0.0j
        for pivot, flip in zip(pivots[i], swapped[i].tolist()):
            if flip:
                product = -product
            product *= pivot
        out[i] = product
    return out


def _full_pivot_eliminate(a: np.ndarray, tol: Tolerance, floors=0.0
                          ) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Gaussian elimination with full pivoting of an ``(N, rows, cols)``
    stack, run in lockstep.

    Each matrix A is eliminated as B = 2**-e A of ``_unit_scale``, and
    stops at its first pivot at or below ``tol.effective(B, 2**-e floor)``;
    ``floors``, in the units of A, is one per matrix or one for all. A
    step takes the first entry of largest modulus of each trailing block,
    in row-major order, swaps its row and column into place and subtracts
    the broadcast product of the pivot row and the multipliers from the
    rows below, so each matrix gets the arithmetic it would get alone.

    Returns the reduced matrices B (each upper triangular in its leading
    r x r block), the ranks r and the column permutations applied to
    reach them.
    """
    count, rows, cols = a.shape
    e, scaled = _unit_scale(a)
    limit = tol.effective(scaled, np.ldexp(floors, -e))
    # Row `rows` carries the column labels, so column swaps move them.
    out = np.empty((count, rows + 1, cols), dtype=complex)
    out[:, :rows] = scaled
    out[:, rows] = np.arange(cols)
    ranks = [min(rows, cols)] * count
    # live: the stack index of each working matrix; every: 0..len(live)-1.
    live = every = np.arange(count)
    work = out
    for r in range(min(rows, cols)):
        block = np.abs(work[:, r:rows, r:]).reshape(len(live),
                                                    (rows - r) * (cols - r))
        flat = block.argmax(axis=1)
        small = block[every, flat] <= limit
        if np.count_nonzero(small):
            stopped = live[small]
            for k in stopped.tolist():
                ranks[k] = r
            if len(stopped) == len(live):
                break
            out[stopped] = work[small]
            keep = ~small
            live, work, limit = live[keep], work[keep], limit[keep]
            flat, every = flat[keep], every[:len(live)]
        i, j = np.divmod(flat, cols - r)
        tail = work[:, r:rows]
        tail[every, i], tail[:, 0] = tail[:, 0], tail[every, i]
        right = work[:, :, r:]
        right[every, :, j], right[:, :, 0] = right[:, :, 0], right[every, :, j]
        pivot = work[:, r, r:]
        factor = work[:, r + 1:rows, r] / pivot[:, :1]
        work[:, r + 1:rows, r:] -= factor[:, :, None] * pivot[:, None, :]
    if work is not out:
        out[live] = work
    return out[:, :rows], ranks, out[:, rows].real.astype(np.intp)


def rank(a: CMatrix, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    """Numerical rank via Gaussian elimination with full pivoting, the
    lockstep elimination run on a stack of one.

    Pivots at or below ``tol.effective`` of A scaled to unit entries
    count as zero, so ``2**k A`` has the rank of A.
    """
    return _full_pivot_eliminate(a.data[None], tol)[1][0]


def nullspace(a: CMatrix, tol: Tolerance = DEFAULT_TOLERANCE) -> list[np.ndarray]:
    """Orthonormal-ish basis of the numerical null space.

    The lockstep full-pivot elimination on a stack of one, with the
    column permutation it returns; one normalized vector per free
    column; ``2**k A`` gets the vectors of A, bit for bit. The basis
    spans the null space but is not orthogonalized (callers needing
    projections should orthonormalize).
    """
    reduced, ranks, colperms = _full_pivot_eliminate(a.data[None], tol)
    m, r, colperm = reduced[0], ranks[0], colperms[0]
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
    vals = np.diag(schur_decompose(a.data, want_q=False)[0])
    return vals[np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))]


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

    Faddeev-LeVerrier recursion, the lockstep recursion run on a stack
    of one; the leading coefficient is (-1)^n.
    """
    a.require_square("char_poly")
    return _char_poly(a.data[None])[0]


def _char_poly(a: np.ndarray) -> np.ndarray:
    """``char_poly`` of each matrix of an ``(N, n, n)`` stack, one row of
    coefficients per matrix, by the Faddeev-LeVerrier recursion run in
    lockstep. Each row is the one its matrix gets alone."""
    count, n = a.shape[0], a.shape[-1]
    coeffs = np.zeros((count, n + 1), dtype=complex)
    coeffs[:, n] = 1.0
    aux = np.zeros_like(a, dtype=complex)
    eye = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        aux = a @ aux + coeffs[:, n - k + 1, None, None] * eye
        coeffs[:, n - k] = -np.trace(a @ aux, axis1=-2, axis2=-1) / k
    return coeffs * (-1.0) ** n
