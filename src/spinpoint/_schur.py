"""Complex Schur decomposition by Householder Hessenberg reduction and
shifted QR iteration.

Internal engine operating on raw ndarrays; the public wrappers live in
:mod:`spinpoint.cmatrix`. The QR step is the implicit single-shift
bulge chase (Golub and Van Loan, *Matrix Computations*, section 7.5),
which applies each Givens rotation once; a single shift is ample for the
dimensions this package targets (n up to a few dozen).
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

_EPS = np.finfo(float).eps

# QR steps allowed per matrix dimension before giving up.
SWEEP_BUDGET_PER_DIM = 40

# After this many steps without a deflation, take an ad hoc shift to
# break potential cycles.
_STALL_LIMIT = 12


def hessenberg(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce ``a`` to upper Hessenberg form H = Q* A Q.

    Returns ``(H, Q)`` with Q unitary (accumulated Householder
    reflections) and H zero below the first subdiagonal.
    """
    n = a.shape[0]
    h = np.array(a, dtype=complex)
    q = np.eye(n, dtype=complex)
    for k in range(n - 2):
        x = h[k + 1:, k]
        norm_x = np.linalg.norm(x)
        if norm_x == 0.0:
            continue
        v = x.copy()
        pivot = v[0]
        phase = pivot / abs(pivot) if abs(pivot) > 0.0 else 1.0
        v[0] += phase * norm_x
        v /= np.linalg.norm(v)
        # Similarity by P = I - 2 v v* on the trailing block.
        h[k + 1:, k:] -= 2.0 * np.outer(v, v.conj() @ h[k + 1:, k:])
        h[:, k + 1:] -= 2.0 * np.outer(h[:, k + 1:] @ v, v.conj())
        q[:, k + 1:] -= 2.0 * np.outer(q[:, k + 1:] @ v, v.conj())
        h[k + 2:, k] = 0.0
    return h, q


def _wilkinson_shift(a, b, c, d):
    """Eigenvalue of [[a, b], [c, d]] closest to d."""
    half_gap = (a - d) / 2.0
    disc = np.sqrt(half_gap * half_gap + b * c)
    mid = (a + d) / 2.0
    lam1 = mid + disc
    lam2 = mid - disc
    return lam1 if abs(lam1 - d) <= abs(lam2 - d) else lam2


def schur_decompose(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Compute A = Q T Q* with Q unitary and T upper triangular.

    Raises
    ------
    ConvergenceError
        If the trailing active block has not deflated after
        ``SWEEP_BUDGET_PER_DIM * n`` QR steps. The error carries the
        block index.
    """
    n = a.shape[0]
    h, q = hessenberg(a)
    scale = np.linalg.norm(h)
    budget = SWEEP_BUDGET_PER_DIM * n
    steps = 0
    stall = 0
    hi = n - 1
    while hi > 0:
        # Active block [lo..hi]: walk up to the nearest negligible
        # subdiagonal entry.
        lo = hi
        while lo > 0:
            thresh = _EPS * (abs(h[lo - 1, lo - 1]) + abs(h[lo, lo]))
            if thresh == 0.0:
                thresh = _EPS * scale
            if abs(h[lo, lo - 1]) <= thresh:
                h[lo, lo - 1] = 0.0
                break
            lo -= 1
        if lo == hi:
            hi -= 1
            stall = 0
            continue

        if steps >= budget:
            raise ConvergenceError(
                f"QR iteration did not converge within {budget} steps "
                f"(active block ending at index {hi})",
                block_index=hi,
            )
        steps += 1
        stall += 1

        if stall % _STALL_LIMIT == 0:
            mu = h[hi, hi] + 0.75 * abs(h[hi, hi - 1])
        else:
            mu = _wilkinson_shift(h[hi - 1, hi - 1], h[hi - 1, hi],
                                  h[hi, hi - 1], h[hi, hi])

        # Implicit single-shift step: the first rotation is that of the
        # shifted QR factorisation, the rest chase the bulge it leaves at
        # (k + 1, k - 1) down and off the active block.
        x, y = h[lo, lo] - mu, h[lo + 1, lo]
        for k in range(lo, hi):
            if k > lo:
                x, y = h[k, k - 1], h[k + 1, k - 1]
            r = np.hypot(abs(x), abs(y))
            c, s = (x / r, y / r) if r > 0.0 else (1.0, 0.0)
            g = np.array([[np.conj(c), np.conj(s)], [-s, c]])
            g_adj = g.conj().T
            col = max(k - 1, lo)
            h[k:k + 2, col:] = g @ h[k:k + 2, col:]
            if k > lo:
                h[k + 1, k - 1] = 0.0
            row = min(k + 3, hi + 1)
            h[:row, k:k + 2] = h[:row, k:k + 2] @ g_adj
            q[:, k:k + 2] = q[:, k:k + 2] @ g_adj
    # Enforce the triangular structure the iteration produced.
    h[np.tril_indices(n, -1)] = 0.0
    return h, q
