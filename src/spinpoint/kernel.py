"""Closed-form null vector of s3 + i * s_axis by the two-term ladder ratio.

With the last component fixed to 1 the null vector is the binomial
(spin coherent) state v[n-1-j] = c^j sqrt(binom(2s, j)), c = -i for axis
1 and -1 for axis 2. It is formed going up as one cumulative product of
the ratios v[n-2-j] / v[n-1-j] = c sqrt((2s - j) / (j + 1)), so each
component carries one rounding more than the one below it. No ratio
vanishes, which exhibits the uniqueness of the null vector directly; the
top-row equation, evaluated on the raw vector, certifies consistency.
||raw_vector||_2 = 2**s, representable through 2s = 2047.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cmatrix import DEFAULT_TOLERANCE, Tolerance, _frobenius, rank
from .errors import NonFiniteError
from .spins import Spin, _require_axis, nonnormal_hamiltonian

__all__ = ["KernelSolution", "kernel_vector", "verify_uniqueness"]


@dataclass(frozen=True, eq=False)
class KernelSolution:
    """Null vector of s3 + i * s_axis with residual certificates.

    ``vector`` is normalized with the last component real positive;
    ``raw_vector`` has last component exactly 1. ``residual`` is
    ||(s3 + i s_axis) vector||_2; ``consistency`` is the modulus of the
    top-row equation evaluated on the raw vector, divided by
    ||raw_vector||_2 so it is comparable across spins.
    """

    spin: Spin
    axis: int
    vector: np.ndarray
    raw_vector: np.ndarray
    residual: float
    consistency: float


def kernel_vector(s: Spin, axis: int) -> KernelSolution:
    """Solve (s3 + i * s_axis) v = 0 by the ladder ratio, bottom up.

    The raw vector runs unnormalized (its norm is 2**s) and is scaled
    once at the end; the normalized vector's last component is real
    positive by construction. Raises ``NonFiniteError`` for 2s > 2047,
    where 2**s overflows, before any matrix is built.
    """
    _require_axis(axis)
    if s.value >= np.finfo(float).maxexp:
        raise NonFiniteError(f"kernel vector of spin {s} is not representable:"
                             f" its raw norm 2**s overflows (2s <= 2047)")
    j = np.arange(s.twice_spin)
    ratios = (-1j if axis == 1 else -1.0 + 0j) \
        * np.sqrt((s.twice_spin - j) / (j + 1.0))
    raw = np.append(np.cumprod(ratios)[::-1], 1.0)
    raw_norm = _frobenius(raw[None])
    vector = raw / raw_norm
    h = nonnormal_hamiltonian(s, axis, 1j).data
    residual = float(np.linalg.norm(h @ vector))
    return KernelSolution(spin=s, axis=axis, vector=vector, raw_vector=raw,
                          residual=residual,
                          consistency=abs(h[0, :2] @ raw[:2]) / raw_norm)


def verify_uniqueness(s: Spin, axis: int,
                      tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True iff rank(s3 + i * s_axis) = n - 1, i.e. the null vector is
    unique up to scale."""
    h = nonnormal_hamiltonian(s, axis, 1j)
    return rank(h, tol) == s.dimension - 1
