"""Complex Schur decomposition by Householder Hessenberg reduction and
shifted QR iteration.

Internal engine operating on raw ndarrays; the public wrappers live in
:mod:`spinpoint.cmatrix`. The QR step is the implicit single-shift
bulge chase (Golub and Van Loan, *Matrix Computations*, section 7.5),
which applies each Givens rotation once; a single shift is ample for the
dimensions this package targets (n up to a few dozen).

Two loops run that chase. ``_schur_stack`` scales and reduces an
``(N, n, n)`` stack in one call each, then chases each matrix on its
rows as lists of Python ``complex``: at these sizes a rotation is a few
scalar multiply-adds per entry, which numpy's per-call overhead would
dominate. ``schur_decompose`` is its stack of one. With ``want_q`` each
rotation is applied to all of T that it changes and to Q; without it, to
the active block only (LAPACK ``zlahqr`` with ``wantt = wantz =
false``): no Q, and only T's diagonal is meaningful.
``_eigenvalues_stack`` returns eigenvalues only: every matrix keeps its
own active block, shift and stall count, and one sweep chases all of
them in lockstep, so the interpreter overhead of a rotation is paid once
per stack, not once per matrix. It chases the stack transposed to
``(n, n, N)``, matrix index last, so each rotation updates contiguous
blocks in place, with ``np.where`` masks only where the matrices differ.
Both share the Hessenberg reduction, which skips a stack that is
already upper Hessenberg, and the deflation test, its floors taken by
one ``_norms`` call on the reduced stack.

Both first scale each matrix by ``_unit_scale``, as every verdict is
taken, so no squared norm leaves the float range, and scale the result
back by ``_ldexp``: exact, but inf with no warning past that range.
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


def _ldexp(x: np.ndarray, e) -> np.ndarray:
    """``x * 2**e`` for complex ``x`` (``e`` of extent 1 on its last axis),
    exact unless it underflows, inf with no warning past the float range."""
    # The float view interleaves each entry's real and imaginary parts.
    parts = np.ascontiguousarray(x, dtype=complex).view(float)
    with np.errstate(over="ignore"):
        return np.ldexp(parts, e).view(complex)


def _unit_scale(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(e, _ldexp(a, -e))`` per matrix of ``a`` (shape ``(..., rows,
    cols)``), e putting the largest ``|re|`` or ``|im|`` entry of
    ``2**-e a`` in [0.5, 1); 0 for a zero matrix."""
    a = np.ascontiguousarray(a, dtype=complex)
    e = np.frexp(abs(a.view(float)).max(axis=(-2, -1)))[1]
    return e, _ldexp(a, -e[..., None, None])


def hessenberg(a: np.ndarray, want_q: bool = True
               ) -> tuple[np.ndarray, np.ndarray | None]:
    """Reduce ``a`` (one matrix or a stack ``(..., n, n)``) to upper
    Hessenberg form H = Q* A Q.

    Returns ``(H, Q)`` with Q unitary (accumulated Householder
    reflections), or None when ``want_q`` is false, and H zero below the
    first subdiagonal. A stack already zero there (companion matrices,
    the tridiagonal spin pencils) comes back as it is, with Q = I.
    """
    n = a.shape[-1]
    h = np.array(a, dtype=complex)
    q = None
    if want_q:
        q = np.empty_like(h)
        q[...] = np.eye(n, dtype=complex)
    # Column by column, so that a full matrix fails at its first column.
    if n > 2 and not any(h[..., k + 2:, k].any() for k in range(n - 2)):
        return h, q
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
    of T outside the active blocks are updated. The diagonal is the same
    in both modes, bit for bit.

    Raises
    ------
    ConvergenceError
        If the trailing active block has not deflated after
        ``SWEEP_BUDGET_PER_DIM * n`` QR steps. The error carries the
        block index.
    """
    t, q = _schur_stack(a[None], want_q)
    return t[0], None if q is None else q[0]


def _schur_stack(a: np.ndarray, want_q: bool
                 ) -> tuple[np.ndarray, np.ndarray | None]:
    """``schur_decompose`` of each matrix of an ``(N, n, n)`` stack, as
    stacks of T and Q. Each matrix is chased alone, in stack order, so it
    gets its own result, and the first to exceed its budget raises."""
    count, n = a.shape[0], a.shape[-1]
    e, scaled = _unit_scale(a)
    h, q = hessenberg(scaled, want_q)
    floors = (_EPS * _norms(h.reshape(count, n * n))[:, 0]).tolist()
    rows = h.tolist()
    q_rows = [None] * count if q is None else q.tolist()
    for t, u, floor in zip(rows, q_rows, floors):
        _chase(t, u, floor)
        # Enforce the triangular structure the iteration produced.
        for i in range(1, n):
            t[i][:i] = [0j] * i
    return (_ldexp(np.array(rows, dtype=complex), e[:, None, None]),
            None if q is None else np.array(q_rows, dtype=complex))


def _chase(h: list, q: list | None, floor: float) -> None:
    """The QR iteration of ``schur_decompose`` on the Hessenberg matrix
    ``h``, in place; ``h`` and ``q`` are rows of Python ``complex``.

    Each rotation is applied as scalar multiply-adds. Without ``q`` it
    touches the active block only: row updates stop at its last column
    and column updates start at its first row. With ``q`` the row
    updates run to the last column and the column updates start at row
    0, and the rotation is also applied to the columns of ``q``. The
    step reads no entry outside the block, so both modes compute the
    block, and so the eigenvalues, alike.
    """
    n = len(h)
    budget = SWEEP_BUDGET_PER_DIM * n
    hypot = math.hypot
    steps = 0
    stall = 0
    hi = n - 1
    while hi > 0:
        # Active block [lo..hi]: walk up to the nearest negligible
        # subdiagonal entry, at most eps times the sum of its diagonal
        # neighbours, or at most ``floor`` when both are zero.
        lo = hi
        while lo > 0:
            size = abs(h[lo][lo - 1])
            thresh = _EPS * (abs(h[lo - 1][lo - 1]) + abs(h[lo][lo]))
            if size <= thresh or (size <= floor and thresh == 0.0):
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

        # A rotation at k changes columns first..last of rows k, k + 1 and
        # rows top..k + 2 of columns k, k + 1; without Q, only the active
        # block is kept up to date.
        last, top = (hi, lo) if q is None else (n - 1, 0)
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
            for j in range(first, last + 1):
                u, v = upper[j], lower[j]
                upper[j] = cc * u + sc * v
                lower[j] = c * v - s * u
            if k > lo:
                lower[first] = 0j
            # ... then columns k, k + 1 times G*, in h and in q.
            for row in h[top:k + 3 if k + 3 <= hi else hi + 1]:
                u, v = row[k], row[k + 1]
                row[k] = u * c + v * s
                row[k + 1] = v * cc - u * sc
            if q is not None:
                for row in q:
                    u, v = row[k], row[k + 1]
                    row[k] = u * c + v * s
                    row[k + 1] = v * cc - u * sc


def _eigenvalues_stack(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of each matrix of an ``(N, n, n)`` stack, as ``(N, n)``.

    The single-matrix loop of ``schur_decompose`` run in lockstep, Q-free.
    Each matrix keeps its own scale, active block ``[lo..hi]``, shift and
    stall count. A sweep chases ``k`` over the union of the active
    blocks; outside a matrix's own block its rotation is the identity, so
    a matrix's eigenvalues do not depend on the stack it sits in. Row and
    column updates are trimmed to that union: for eigenvalues alone, no
    entry outside the diagonal blocks is ever read.

    After the Hessenberg reduction the stack is chased as one
    ``(n, n, N)`` array, so a rotation's rows and columns are contiguous
    length-N vectors, updated in place. A sweep zeroes the negligible
    subdiagonal entries, deflates every block in one step (to the last
    index at or below its end whose entry is not negligible), returns
    once every block ends at 0, and takes the shifts and the rotations.
    A matrix is active in every sweep until its block ends, so the sweep
    count is its step count. ``np.where`` masks are used only at an index
    where some but not all blocks start, or some matrix does not rotate.

    Raises
    ------
    ConvergenceError
        If a matrix's trailing active block has not deflated after
        ``SWEEP_BUDGET_PER_DIM * n`` of its QR steps; carries that
        block's index.
    """
    count, n = a.shape[0], a.shape[-1]
    e, scaled = _unit_scale(a)
    h, _ = hessenberg(scaled, want_q=False)
    floor = _EPS * _norms(h.reshape(count, n * n))[:, 0]
    # Matrix index last: h[i, j] is entry (i, j) of every matrix.
    h = np.ascontiguousarray(h.transpose(1, 2, 0))
    budget = SWEEP_BUDGET_PER_DIM * n
    sweeps = 0
    stall = np.zeros(count, dtype=int)
    hi = np.full(count, n - 1)
    index = np.arange(1, n)[:, None]
    # Strided views of the diagonal and the subdiagonal, shape (n, N) and
    # (n - 1, N).
    diag = h.reshape(n * n, count)[::n + 1]
    sub = h.reshape(n * n, count)[n::n + 1]
    while True:
        # Zero every negligible subdiagonal entry, by the test of _chase.
        size = abs(diag)
        thresh = _EPS * (size[:-1] + size[1:])
        size = abs(sub)
        neg = size <= thresh
        if not thresh.all():
            neg |= (thresh == 0.0) & (size <= floor)
        sub[neg] = 0.0
        # Deflate in one step: the block now ends at the last index at or
        # below hi whose entry is not negligible (0 if none), and starts
        # at the last index below that whose entry is (0 if none).
        new_hi = (index * (~neg & (index <= hi))).max(axis=0, initial=0)
        if not new_hi.any():
            return _ldexp(diag.T, e[:, None])
        stall[new_hi != hi] = 0
        hi = new_hi
        lo = (index * (neg & (index < hi))).max(axis=0, initial=0)
        active = hi > 0
        if sweeps >= budget:
            raise _budget_error(budget, int(hi[active.argmax()]))
        sweeps += 1
        stall += active

        # The shift of each matrix, from the 2x2 block ending at max(hi, 1).
        stop, hi_min = int(hi.max()), int(hi.min())
        if stop == 1 or hi_min == stop:
            block = h[stop - 1:stop + 1, stop - 1:stop + 1]
        else:
            ends = np.maximum(hi, 1) - np.array([[1], [0]])
            block = h[ends[:, None], ends[None], np.arange(count)]
        mu = _wilkinson_shift(*block[0], *block[1])
        hit = stall == _STALL_LIMIT
        if hit.any():  # an ad hoc shift breaks a potential cycle
            mu = np.where(hit, block[1, 1] + 0.75 * abs(block[1, 0]), mu)
            stall[hit] = 0

        lo_min, lo_max = int(lo.min()), int(lo.max())
        first = lo_min if hi_min else int(lo[active].min())
        for k in range(first, stop):
            # A block starting at k takes the shifted QR rotation; the
            # others chase their bulge. At k = 0 every rotating block starts.
            if k == lo_min == lo_max:
                x, y = h[k, k] - mu, h[k + 1, k]
            elif k > lo_max:
                x, y = h[k:k + 2, k - 1]
            else:
                x, y = np.where(lo == k, [h[k, k] - mu, h[k + 1, k]],
                                h[k:k + 2, k - 1])
            r = np.hypot(abs(x), abs(y))
            if lo_max <= k < hi_min and r.min() > 0.0:
                c, s = x / r, y / r
            else:  # the identity where a matrix does not rotate at k
                turn = (lo <= k) & (k < hi) & (r > 0.0)
                r = np.where(turn, r, 1.0)
                c, s = np.where(turn, [x / r, y / r], [[1.0], [0.0]])
            cc, sc = c.conj(), s.conj()
            # Rows k, k + 1 times G = [[c*, s*], [-s, c]], then columns
            # k, k + 1 times G*.
            cols = slice(max(k - 1, first), stop + 1)
            top, bottom = h[k, cols], h[k + 1, cols]
            upper = cc * top + sc * bottom
            np.multiply(c, bottom, out=bottom)
            bottom -= s * top
            top[...] = upper
            if k > first:
                # The chased bulge; the entry is already 0 in every matrix
                # that does not chase one through k.
                h[k + 1, k - 1] = 0.0
            rows = slice(first, min(k + 3, stop + 1))
            left, right = h[rows, k], h[rows, k + 1]
            column = left * c + right * s
            np.multiply(right, cc, out=right)
            right -= left * sc
            left[...] = column
