"""Complex Schur decomposition by Householder Hessenberg reduction and
shifted QR iteration.

Internal engine operating on raw ndarrays; the public wrappers live in
:mod:`spinpoint.cmatrix`. The QR step is the implicit single-shift
bulge chase (Golub and Van Loan, *Matrix Computations*, section 7.5),
which applies each Givens rotation once; a single shift is ample for the
dimensions this package targets (n up to a few dozen).

Two loops run that chase. ``schur_decompose`` takes one matrix and
chases on its rows as lists of Python ``complex``: at these sizes a
rotation is a few scalar multiply-adds per entry, which numpy's per-call
overhead would dominate. Rotations touch only the active block. With
``want_q`` false that is all (LAPACK ``zlahqr`` with ``wantt = wantz =
false``): no Q, and only T's diagonal is meaningful. With ``want_q``,
each QR step's rotations are multiplied out into one unitary Z, and one
matrix product per step brings Q and the entries of T outside the block
up to date. ``_eigenvalues_stack`` takes an ``(N, n, n)`` stack and
returns eigenvalues only: every matrix keeps its own active block, shift
and step counts, and one sweep chases all of them in lockstep, so the
interpreter overhead of a rotation is paid once per stack, not once per
matrix. Both share the Hessenberg reduction and the deflation test.

Both loops first scale each matrix by the power of two that brings its
largest real or imaginary entry into [0.5, 1), and scale the result
back. That is exact: it changes no result that stays clear of overflow
and underflow, and squared norms neither overflow nor underflow for
entries anywhere in the floating-point range.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ConvergenceError

_EPS = float(np.finfo(float).eps)

# QR steps allowed per matrix dimension before giving up.
SWEEP_BUDGET_PER_DIM = 40

# After this many steps without a deflation, take an ad hoc shift to
# break potential cycles.
_STALL_LIMIT = 12


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, shape ``(..., 1)``, each summed
    as ``np.linalg.norm`` sums one vector: real and imaginary dot
    products, so that one matrix rounds alike alone and in a stack."""
    re, im = x.real[..., None, :], x.imag[..., None, :]
    return np.sqrt(re @ np.swapaxes(re, -1, -2)
                   + im @ np.swapaxes(im, -1, -2))[..., 0]


def _binary_exponent(a: np.ndarray) -> np.ndarray:
    """Per matrix of ``a`` (shape ``(..., n, n)``), the exponent e with its
    largest ``|re|`` or ``|im|`` entry in [2**(e - 1), 2**e); 0 for a zero
    matrix."""
    # The float view interleaves each entry's real and imaginary parts.
    big = abs(np.ascontiguousarray(a).view(float)).max(axis=(-2, -1))
    return np.frexp(big)[1]


def _ldexp(x: np.ndarray, e) -> np.ndarray:
    """``x * 2**e`` for complex ``x``, exact unless it over- or underflows."""
    out = np.empty(np.shape(x), dtype=complex)
    out.real = np.ldexp(x.real, e)
    out.imag = np.ldexp(x.imag, e)
    return out


def hessenberg(a: np.ndarray, want_q: bool = True
               ) -> tuple[np.ndarray, np.ndarray | None]:
    """Reduce ``a`` (one matrix or a stack ``(..., n, n)``) to upper
    Hessenberg form H = Q* A Q.

    Returns ``(H, Q)`` with Q unitary (accumulated Householder
    reflections), or None when ``want_q`` is false, and H zero below the
    first subdiagonal.
    """
    n = a.shape[-1]
    h = np.array(a, dtype=complex)
    q = None
    if want_q:
        q = np.zeros_like(h)
        q[..., range(n), range(n)] = 1.0
    for k in range(n - 2):
        # Reflect x onto the phase of its pivot (onto 1 for a zero pivot).
        # A zero x leaves v = 0, and the reflection is the identity.
        x = h[..., k + 1:, k]
        pivot = x[..., :1]
        size = np.hypot(pivot.real, pivot.imag)
        flat = size == 0.0
        v = x.copy()
        v[..., :1] += (pivot + flat) / (size + flat) * _norms(x)
        norm_v = _norms(v)
        v /= norm_v + (norm_v == 0.0)
        col, row = v[..., :, None], v.conj()[..., None, :]
        # Similarity by P = I - 2 v v* on the trailing block.
        h[..., k + 1:, k:] -= 2.0 * (col * (row @ h[..., k + 1:, k:]))
        h[..., :, k + 1:] -= 2.0 * ((h[..., :, k + 1:] @ col) * row)
        if q is not None:
            q[..., :, k + 1:] -= 2.0 * ((q[..., :, k + 1:] @ col) * row)
        h[..., k + 2:, k] = 0.0
    return h, q


def _wilkinson_shift(a, b, c, d):
    """Eigenvalue of [[a, b], [c, d]] closest to d, elementwise."""
    half_gap = (a - d) / 2.0
    disc = np.sqrt(half_gap * half_gap + b * c)
    mid = (a + d) / 2.0
    lam1 = mid + disc
    lam2 = mid - disc
    return np.where(abs(lam1 - d) <= abs(lam2 - d), lam1, lam2)


def _negligible(sub, diag_above, diag_below, floor):
    """Whether subdiagonal entries are negligible: at most eps times the
    sum of their diagonal neighbours, or at most ``floor`` when both
    neighbours are zero. Python scalars or arrays."""
    thresh = _EPS * (abs(diag_above) + abs(diag_below))
    size = abs(sub)
    return (size <= thresh) | ((size <= floor) & (thresh == 0.0))


def _budget_error(budget: int, hi: int) -> ConvergenceError:
    return ConvergenceError(
        f"QR iteration did not converge within {budget} steps "
        f"(active block ending at index {hi})",
        block_index=hi,
    )


def schur_decompose(a: np.ndarray, want_q: bool = True
                    ) -> tuple[np.ndarray, np.ndarray | None]:
    """Compute A = Q T Q* with Q unitary and T upper triangular.

    Returns ``(T, Q)``. With ``want_q`` false, Q is None and only T's
    diagonal, the eigenvalues, is meaningful: neither Q nor the entries
    of T outside the active blocks are updated.

    Raises
    ------
    ConvergenceError
        If the trailing active block has not deflated after
        ``SWEEP_BUDGET_PER_DIM * n`` QR steps. The error carries the
        block index.
    """
    n = a.shape[0]
    e = _binary_exponent(a)
    h, q = hessenberg(_ldexp(a, -e), want_q)
    floor = _EPS * float(np.linalg.norm(h))
    rows = h.tolist()
    _chase(rows, q, floor)
    # Enforce the triangular structure the iteration produced.
    for i in range(1, n):
        rows[i][:i] = [0j] * i
    return _ldexp(np.array(rows, dtype=complex), e), q


def _chase(h: list, q: np.ndarray | None, floor: float) -> None:
    """The QR iteration of ``schur_decompose`` on the Hessenberg matrix
    ``h`` (rows of Python ``complex``), in place.

    Each rotation is applied as scalar multiply-adds to the active block
    only: row updates stop at its last column and column updates start
    at its first row. With ``q``, the step's rotations are also
    multiplied out into one unitary Z, which ``_update_outside`` applies
    to the rest of ``h`` and to ``q``.
    """
    n = len(h)
    budget = SWEEP_BUDGET_PER_DIM * n
    hypot = math.hypot
    steps = 0
    stall = 0
    hi = n - 1
    while hi > 0:
        # Active block [lo..hi]: walk up to the nearest negligible
        # subdiagonal entry.
        lo = hi
        while lo > 0:
            if _negligible(h[lo][lo - 1], h[lo - 1][lo - 1], h[lo][lo], floor):
                h[lo][lo - 1] = 0j
                break
            lo -= 1
        if lo == hi:
            hi -= 1
            stall = 0
            continue

        if steps >= budget:
            raise _budget_error(budget, hi)
        steps += 1
        stall += 1

        a, d = h[hi - 1][hi - 1], h[hi][hi]
        if stall % _STALL_LIMIT == 0:
            mu = d + 0.75 * abs(h[hi][hi - 1])
        else:
            # _wilkinson_shift on Python scalars: that one on numpy
            # scalars, with a numpy floor, makes n = 26 about 1.4x slower.
            half_gap = (a - d) / 2.0
            disc = cmath.sqrt(half_gap * half_gap + h[hi - 1][hi] * h[hi][hi - 1])
            mid = (a + d) / 2.0
            lam1, lam2 = mid + disc, mid - disc
            mu = lam1 if abs(lam1 - d) <= abs(lam2 - d) else lam2

        # Column j of the step's rotation product Z is final once rotation
        # j is applied; ``tail`` is column j + 1 until then.
        z_cols, tail = [], [1.0]
        # Implicit single-shift step: the first rotation is that of the
        # shifted QR factorisation, the rest chase the bulge it leaves at
        # (k + 1, k - 1) down and off the active block.
        x, y = h[lo][lo] - mu, h[lo + 1][lo]
        first = lo
        for k in range(lo, hi):
            upper, lower = h[k], h[k + 1]
            if k > lo:
                first = k - 1
                x, y = upper[first], lower[first]
            r = hypot(abs(x), abs(y))
            c, s = (x / r, y / r) if r > 0.0 else (1.0, 0.0)
            cc, sc = c.conjugate(), s.conjugate()
            # Rows k, k + 1 times G = [[c*, s*], [-s, c]] ...
            for j in range(first, hi + 1):
                u, v = upper[j], lower[j]
                upper[j] = cc * u + sc * v
                lower[j] = c * v - s * u
            if k > lo:
                lower[first] = 0j
            # ... then columns k, k + 1 times G*.
            for row in h[lo:k + 3 if k + 3 <= hi else hi + 1]:
                u, v = row[k], row[k + 1]
                row[k] = u * c + v * s
                row[k + 1] = v * cc - u * sc
            if q is not None:
                z_cols.append([u * c for u in tail] + [s])
                tail = [-u * sc for u in tail] + [cc]
        if q is not None:
            z_cols.append(tail)
            m = hi - lo + 1
            z = np.array([col + [0j] * (m - len(col)) for col in z_cols]).T
            _update_outside(h, q, z, lo, hi)


def _update_outside(h: list, q: np.ndarray, z: np.ndarray,
                    lo: int, hi: int) -> None:
    """Apply a QR step on the active block ``[lo..hi]``, its rotations
    multiplied out as Z, where ``_chase`` does not: to Q, and to the rows
    of ``h`` above the block and its columns right of the block. The
    step reads none of these entries, so one product per step gives the
    same similarity as one rotation at a time."""
    block = slice(lo, hi + 1)
    q[:, block] = q[:, block] @ z
    if lo > 0:
        above = np.array([row[block] for row in h[:lo]]) @ z
        for row, new in zip(h[:lo], above.tolist()):
            row[block] = new
    if hi + 1 < len(h):
        right = z.conj().T @ np.array([row[hi + 1:] for row in h[block]])
        for row, new in zip(h[block], right.tolist()):
            row[hi + 1:] = new


def _eigenvalues_stack(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of each matrix of an ``(N, n, n)`` stack, as ``(N, n)``.

    The single-matrix loop of ``schur_decompose`` run in lockstep, Q-free.
    Each matrix keeps its own scale, active block ``[lo..hi]``, shift,
    step count and stall count. A sweep chases ``k`` over the union of
    the active blocks; outside a matrix's own block its rotation is the
    identity, so a matrix's eigenvalues do not depend on the stack it
    sits in. Row and column updates are trimmed to that union: for
    eigenvalues alone, no entry outside the diagonal blocks is ever read.

    Raises
    ------
    ConvergenceError
        If a matrix's trailing active block has not deflated after
        ``SWEEP_BUDGET_PER_DIM * n`` of its QR steps; carries that
        block's index.
    """
    count, n = a.shape[0], a.shape[-1]
    e = _binary_exponent(a)
    h, _ = hessenberg(_ldexp(a, -e[:, None, None]), want_q=False)
    floor = _EPS * _norms(h.reshape(count, n * n))
    budget = SWEEP_BUDGET_PER_DIM * n
    every = np.arange(count)
    steps = np.zeros(count, dtype=int)
    stall = np.zeros(count, dtype=int)
    hi = np.full(count, n - 1)
    index = np.arange(n)
    while True:
        # Zero every negligible subdiagonal entry. Entry l stops the upward
        # walk from hi at lo = l, and l = 0 always stops it.
        diag = np.diagonal(h, 0, 1, 2)
        sub = np.diagonal(h, -1, 1, 2)
        neg = _negligible(sub, diag[:, :-1], diag[:, 1:], floor)
        h[:, index[1:], index[:-1]] = np.where(neg, 0.0, sub)
        stops = np.concatenate([np.ones((count, 1), dtype=bool), neg], axis=1)
        # Deflate until every unfinished matrix has a block to chase.
        while True:
            lo = np.where(stops & (index <= hi[:, None]), index, 0).max(axis=1)
            deflating = (lo == hi) & (hi > 0)
            if not deflating.any():
                break
            hi[deflating] -= 1
            stall[deflating] = 0
        active = hi > 0
        if not active.any():
            return _ldexp(np.diagonal(h, 0, 1, 2), e[:, None])
        late = active & (steps >= budget)
        if late.any():
            raise _budget_error(budget, int(hi[late.argmax()]))
        steps += active
        stall += active

        last = np.maximum(hi, 1)
        mu = np.where(
            stall % _STALL_LIMIT == 0,
            h[every, last, last] + 0.75 * abs(h[every, last, last - 1]),
            _wilkinson_shift(h[every, last - 1, last - 1],
                             h[every, last - 1, last],
                             h[every, last, last - 1], h[every, last, last]))

        first, stop = int(lo[active].min()), int(hi[active].max())
        # Row k - first: the matrices that rotate at k, and those whose
        # block starts at k (their rotation is that of the shifted QR
        # factorisation; the others chase their bulge).
        ks = np.arange(first, stop)[:, None]
        rotating = active & (lo <= ks) & (ks < hi)
        starting = lo == ks
        for k in range(first, stop):
            starts = starting[k - first]
            # At k = 0 every rotating matrix starts; column -1 is unread.
            x = np.where(starts, h[:, k, k] - mu, h[:, k, k - 1])
            y = np.where(starts, h[:, k + 1, k], h[:, k + 1, k - 1])
            r = np.hypot(abs(x), abs(y))
            turn = rotating[k - first] & (r > 0.0)
            r = np.where(turn, r, 1.0)
            c = np.where(turn, x / r, 1.0)[:, None]
            s = np.where(turn, y / r, 0.0)[:, None]
            # Rows k, k + 1 times G = [[c*, s*], [-s, c]], then columns
            # k, k + 1 times G*.
            cols = slice(max(k - 1, first), stop + 1)
            top, bottom = h[:, k, cols], h[:, k + 1, cols]
            h[:, k, cols], h[:, k + 1, cols] = (
                c.conj() * top + s.conj() * bottom, c * bottom - s * top)
            if k > first:
                # The chased bulge; the entry is already 0 in every matrix
                # that does not chase one through k.
                h[:, k + 1, k - 1] = 0.0
            rows = slice(first, min(k + 3, stop + 1))
            left, right = h[:, rows, k], h[:, rows, k + 1]
            h[:, rows, k], h[:, rows, k + 1] = (
                left * c + right * s, right * c.conj() - left * s.conj())
