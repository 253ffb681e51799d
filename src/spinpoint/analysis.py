"""Normality, nilpotency, and entanglement diagnostics.

Normality of a hermitian pair (A, B) is decided by the normality test
of A + iB alone; the commutator criterion ||[A, B]|| = 0, equal to it in
exact arithmetic, serves only as an oracle in the tests. The normality
and hermiticity tests, like every rank, run on the matrix scaled by a
power of two to unit entries, so their verdicts do not depend on the
scale. ``sweep_phi`` tabulates the family sigma3 + e^{i phi} sigma1 over
phi in [0, pi/2].

The nilpotency decision intentionally combines two tests: an
eigenvalue-modulus test and a power-decay test. Either alone
misclassifies easy cases (powers of a contraction decay without the
matrix being nilpotent; QR eigenvalues of a defective nilpotent matrix
scatter far from zero). A verdict must also come with a rank chain that
is a Jordan structure, which a small scaled identity, passing both
tests, does not. The powers are formed first, of A scaled by the exact
power of two that brings its largest entry into [0.5, 1), so they
neither overflow nor underflow; the chain comes from one full-pivot
elimination that reduces the whole stack in lockstep, scale-free like
``rank``. The two thresholds below still depend on the scale of A. The
eigenvalue test rarely needs eigenvalues: the same powers prove an upper
bound on the spectral radius, since rho(A) <= ||A^k||_F^(1/k) for every
k (Horn and Johnson, *Matrix Analysis*, 5.6.9), with the rounding of
each computed product bounded as in Higham, *Accuracy and Stability of
Numerical Algorithms*, sections 3.5-3.6. When that bound is under the
threshold the test passes with no QR solve; otherwise the computed
eigenvalues decide. The thresholds below were calibrated on the spin
family up to dimension 26:

* a power ``A^k`` counts as numerically zero once its Frobenius norm
  falls below ``1e-9`` times the largest norm seen along the power
  sequence (the roundoff floor measured on the spin family sits 4-5
  orders below that, the last genuine power 8-9 orders above);
* eigenvalue moduli are compared against
  ``(1 + ||A||_F) * max(1e-6, 4 * eps**(1/n))`` because backward-stable
  eigensolvers scatter the zero eigenvalue of a defective matrix as
  roundoff**(1/n) (measured: 1.6e-4 at n = 4, 2.6 at n = 26). The
  power bound of a spin matrix stays under half of it for 2s = 1..25.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._schur import _unit_scale, schur_decompose
from .cmatrix import (CMatrix, DEFAULT_TOLERANCE, Tolerance, _frobenius,
                      _full_pivot_eliminate, eigenvalues, frobenius_norm)
from .errors import ConvergenceError, DimensionError

__all__ = [
    "NormalityReport", "NilpotencyReport", "PhiFamilyPoint",
    "normality_report", "hermitian_pair_is_normal", "nilpotency_report",
    "phi_family", "two_qubit_tangle",
]

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).smallest_subnormal

# Ratio of a power's norm to the running transient maximum below which
# the power counts as the zero matrix.
POWER_ZERO_RATIO = 1e-9

# Safety factor on the eps**(1/n) eigenvalue scatter model.
SCATTER_FACTOR = 4.0


@dataclass(frozen=True)
class NormalityReport:
    """Normality diagnostics of one square matrix.

    ``defect`` is ||A A* - A* A||_F, inf where that overflows;
    ``is_normal`` and ``is_hermitian`` hold the normality defect and
    ||A - A*||_F of A scaled by a power of two to unit entries to the
    tolerance. ``henrici`` is the departure from normality
    sqrt(||A||_F^2 - sum |lambda_i|^2), evaluated cancellation-free as
    the Frobenius norm of the strict upper triangle of the Schur factor;
    it is None when the eigensolver failed.
    """

    defect: float
    henrici: float | None
    is_normal: bool
    is_hermitian: bool


@dataclass(frozen=True)
class NilpotencyReport:
    """Nilpotency decision with the Jordan-structure rank chain.

    ``index`` is the least k with A^k numerically zero (None when not
    nilpotent); ``rank_chain`` lists rank(A^k) for k = 1..index and is
    empty when not nilpotent.
    """

    is_nilpotent: bool
    index: int | None
    rank_chain: tuple[int, ...]


def _normality(a: CMatrix, tol: Tolerance
               ) -> tuple[float, bool, bool, int, np.ndarray]:
    """The defect ||A A* - A* A||_F, whether it is within tolerance,
    whether ||A - A*||_F is, and the e and B of ``_unit_scale`` they are
    taken from.

    Both verdicts are taken on B = 2**-e A against ``tol.effective(B)``,
    as every verdict is, so neither changes when A is scaled by a power
    of two. The defect, quadratic in A, is that of B scaled back by
    2**(2 e), exactly unless it overflows to inf.
    """
    e, b = _unit_scale(a.data)
    b_h = b.conj().T
    defect = _frobenius(b @ b_h - b_h @ b)
    threshold = tol.effective(b)
    is_hermitian = _frobenius(b - b_h) <= threshold
    with np.errstate(over="ignore"):
        return (float(np.ldexp(defect, 2 * e)), defect <= threshold,
                is_hermitian, e, b)


def normality_report(a: CMatrix,
                     tol: Tolerance = DEFAULT_TOLERANCE) -> NormalityReport:
    """Defect, Henrici departure, and normal/hermitian flags.

    The defect is always computed; an eigensolver failure only blanks
    the Henrici field. Henrici is taken from the Schur factor of the B of
    ``_normality`` and scaled back by 2**e, as the defect is.
    """
    a.require_square("normality_report")
    defect, is_normal, is_hermitian, e, b = _normality(a, tol)
    try:
        t = schur_decompose(b)[0]
        with np.errstate(over="ignore"):
            henrici = float(np.ldexp(_frobenius(np.triu(t, 1)), e))
    except ConvergenceError:
        henrici = None
    return NormalityReport(
        defect=defect,
        henrici=henrici,
        is_normal=is_normal,
        is_hermitian=is_hermitian,
    )


def hermitian_pair_is_normal(a: CMatrix, b: CMatrix,
                             tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Whether A + iB is normal, for hermitian A and B.

    The verdict is ``normality_report(A + iB, tol).is_normal``, decided
    from the defect alone, without the Schur form. In exact arithmetic
    the defect of A + iB equals 2 ||[A, B]||_F, so this is the commutator
    criterion; near the threshold the two roundings can differ, and the
    defect decides.
    """
    a.require_square("hermitian_pair_is_normal")
    b.require_square("hermitian_pair_is_normal")
    if a.rows != b.rows:
        raise DimensionError(f"hermitian_pair_is_normal: {a.rows} vs {b.rows}")
    for name, m in (("a", a), ("b", b)):
        if not _normality(m, tol)[2]:
            raise ValueError(f"matrix {name} is not hermitian")
    return _normality(CMatrix(a.data + 1j * b.data), tol)[1]


def _eigenvalue_scatter_threshold(a: CMatrix) -> float:
    n = a.rows
    scatter = SCATTER_FACTOR * _EPS ** (1.0 / n)
    return (1.0 + frobenius_norm(a)) * max(1e-6, scatter)


def _scaled_powers(a: CMatrix
                   ) -> tuple[int, np.ndarray, list[float], int | None]:
    """Powers of B = 2**-e A of ``_unit_scale``, up to the first that is
    numerically zero.

    Returns e, the stack of computed powers P_k = fl(P_(k-1) B), their
    Frobenius norms and the index k of the zero power (None when none
    of P_1 .. P_n is zero). Since A^k = 2**(e k) B^k exactly, the ratio
    test runs in the scaled domain, with the running maximum scaled by
    2**-e at each step; every result clear of overflow and underflow is
    the one the powers of A would give.
    """
    n = a.rows
    e, b = _unit_scale(a.data)
    powers = np.empty((n, n, n), dtype=complex)
    current = np.eye(n, dtype=complex)
    running_max = 0.0
    norms = []
    # A running maximum that overflows is infinite: every later power
    # counts as zero, as the powers of A would underflow to zero.
    with np.errstate(over="ignore"):
        for k in range(1, n + 1):
            current = np.matmul(current, b, out=powers[k - 1])
            nrm = _frobenius(current)
            norms.append(nrm)
            running_max = max(float(np.ldexp(running_max, -e)), nrm)
            if nrm <= POWER_ZERO_RATIO * running_max:
                return e, powers, norms, k
    return e, powers, norms, None


def _radius_bound(e: int, norms: list[float], n: int) -> float:
    """A proven upper bound on the spectral radius of A = 2**e B from the
    Frobenius norms of the computed powers P_k of ``_scaled_powers``.

    rho(B) <= ||B^k||_F^(1/k) <= (||P_k||_F + err_k)^(1/k) for every k,
    where err_k bounds ||P_k - B^k||_F: err_1 = 0 and
    err_k = ||B||_F (err_(k-1) + gamma ||P_(k-1)||_F), with
    gamma = 2 (n + 2) eps covering a complex matrix product. Each computed
    norm is raised by a bound on its own rounding, and each product, the
    scaling to B included, adds an absolute term for gradual underflow.
    """
    gamma = 2 * (n + 2) * _EPS
    up = 1.0 + 2 * n * n * _EPS
    under = 8 * n * n * _TINY
    size = norms[0] * up + under
    err, previous, best = under, norms[0] * up, size
    for k, nrm in enumerate(norms[1:], 2):
        err = size * (err + gamma * previous) + under * (1.0 + previous)
        previous = nrm * up
        best = min(best, (previous + err) ** (1.0 / k))
    # Slack for the rounding of 1/k and of the root.
    return float(np.ldexp(best * (1.0 + 1024 * _EPS), e))


def nilpotency_report(a: CMatrix,
                      tol: Tolerance = DEFAULT_TOLERANCE) -> NilpotencyReport:
    """Decide nilpotency and report the rank chain of the powers.

    Nilpotent iff some power k <= n is numerically zero relative to the
    power-sequence transient, the rank chain is a Jordan structure, and
    every eigenvalue modulus lies below the defective-scatter threshold.
    The powers are those of ``_scaled_powers``; a matrix none of whose
    powers vanishes is rejected before any eigen-solve. The genuine
    powers B^1 .. B^(index-1) are ranked by one lockstep full-pivot
    elimination, which scales each to unit entries as ``rank`` does: the
    ranks ``rank`` would give the powers of A. The terminal zero power
    contributes rank 0. With r_0 = n, its Weyr characteristic
    r_{k-1} - r_k (the number of Jordan blocks of size >= k) must be
    >= 1 and nonincreasing; a scaled identity, whose powers decay
    without vanishing, fails that. The eigenvalue test passes without a
    QR solve when ``_radius_bound``, a proof that rho(A) lies below it,
    is under the threshold; only otherwise are the computed eigenvalues
    compared against it.
    """
    a.require_square("nilpotency_report")
    n = a.rows
    not_nilpotent = NilpotencyReport(is_nilpotent=False, index=None,
                                     rank_chain=())
    e, powers, norms, index = _scaled_powers(a)
    if index is None:
        return not_nilpotent
    chain = _full_pivot_eliminate(powers[:index - 1], tol)[1] + [0]
    weyr = -np.diff([n] + chain)
    if weyr.min() < 1 or (np.diff(weyr) > 0).any():
        return not_nilpotent
    threshold = _eigenvalue_scatter_threshold(a)
    if (_radius_bound(e, norms, n) > threshold
            and np.abs(eigenvalues(a)).max() > threshold):
        return not_nilpotent
    return NilpotencyReport(is_nilpotent=True, index=index,
                            rank_chain=tuple(chain))


@dataclass(frozen=True, eq=False)
class PhiFamilyPoint:
    """One member of the hermitian-to-nonnormal interpolation family
    sigma3 + e^{i phi} sigma1."""

    phi: float
    matrix: CMatrix
    eigenvalues: tuple[complex, complex]
    eigenvectors_raw: tuple[np.ndarray, np.ndarray]
    eigenvectors_unit: tuple[np.ndarray, np.ndarray]
    defect: float
    in_range: bool


def phi_family(phi: float) -> PhiFamilyPoint:
    """Closed-form spectral data of sigma3 + e^{i phi} sigma1.

    Eigenvalues are +/- sqrt(1 + e^{2 i phi}) on the principal branch,
    eigenvectors (e^{i phi}, -1 + lambda) unnormalized plus normalized
    copies. ``in_range`` flags phi outside [0, pi/2]; the formulas
    remain valid there.
    """
    if isinstance(phi, (bool, np.bool_)):
        raise ValueError(f"phi must be a number, not {phi!r}")
    if not np.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    phase = np.exp(1j * phi)
    matrix = CMatrix([[1.0, phase], [phase, -1.0]])
    lam = np.sqrt(1.0 + np.exp(2j * phi))
    lam_pair = (complex(lam), complex(-lam))
    raw = tuple(np.array([phase, -1.0 + lv], dtype=complex)
                for lv in lam_pair)
    unit = tuple(v / np.linalg.norm(v) for v in raw)
    defect = _normality(matrix, DEFAULT_TOLERANCE)[0]
    in_range = 0.0 <= phi <= np.pi / 2.0
    return PhiFamilyPoint(phi=float(phi), matrix=matrix,
                          eigenvalues=lam_pair, eigenvectors_raw=raw,
                          eigenvectors_unit=unit, defect=defect,
                          in_range=in_range)


def sweep_phi(steps: int) -> list[dict]:
    """Rows (phi, closed-form eigenvalue pair, defect, henrici) on the
    uniform grid phi = k (pi/2) / (steps - 1)."""
    if steps < 2:
        raise ValueError("steps must be at least 2")
    rows = []
    for k in range(steps):
        phi = k * (np.pi / 2.0) / (steps - 1)
        point = phi_family(phi)
        report = normality_report(point.matrix)
        rows.append({
            "phi": float(phi),
            "lam_plus": point.eigenvalues[0],
            "lam_minus": point.eigenvalues[1],
            "defect": report.defect,
            "henrici": report.henrici,
        })
    return rows


def two_qubit_tangle(v: np.ndarray) -> float:
    """Tangle (squared concurrence) of a normalized two-qubit pure state.

    Components are in the lexicographic product basis; the value is
    |2 (v0 v3 - v1 v2)|^2, zero exactly for Kronecker products.
    """
    v = np.asarray(v, dtype=complex).ravel()
    if v.shape != (4,):
        raise DimensionError(f"two_qubit_tangle expects length 4, got {v.shape}")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"vector must be normalized, got ||v|| = {norm}")
    return float(abs(2.0 * (v[0] * v[3] - v[1] * v[2])) ** 2)
