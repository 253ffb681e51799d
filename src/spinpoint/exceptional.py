"""Exceptional points of matrix pencils H(z) = A + z B.

The discriminant D(z) -- the resultant in E of the characteristic
polynomial and its E-derivative -- is sampled on a circle via Sylvester
determinants, its coefficients recovered by the discrete Fourier
relations, and its roots taken as companion-matrix eigenvalues. The
roots are split into one group per EP by the eigenvalue gap of H(z). A
multiple root of D scatters its companion roots on a circle, but their
centroid is well conditioned (Kravanja and Van Barel, LNM 1727), so a
group reports its centroid; a single root is polished by Newton
iteration on D, with D(z) taken from the eigenvalues of H(z). Every
candidate is certified by the eigenvalue gap at the reported parameter.
Monomial coefficients of D lose dynamic range as n grows: the locator
holds for random pencils up to n = 4 and spin pencils up to 2s = 5, at
unit scale (README states the envelope).

Sheet structure around a point is probed by walking eigenvalues along a
closed loop, continuing each sheet to its nearest new eigenvalue, and
bisecting any step on which two sheets claim the same value or a sheet
jumps by more than half the sheet gap; the loop returns the permutation
it induces. The step back from the last node to the start is held to
the same test in one pass; that test is the only way a loop is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from ._schur import _eigenvalues_stack
from .cmatrix import (CMatrix, DEFAULT_TOLERANCE, Tolerance, _char_poly,
                      _det_lu, _full_pivot_eliminate, _spectra, eigenvalues,
                      frobenius_norm)
from .errors import (DimensionError, NonFiniteError, SheetTrackingError,
                     ZeroDiscriminantError)

__all__ = ["PencilFamily", "EPCandidate", "PathSpec", "MonodromyResult",
           "find_exceptional_points", "trace_sheets"]

# |D(z_j)| below this fraction of the Sylvester Hadamard bound counts as
# an exact zero of the determinant.
_DET_ZERO_RATIO = 1e-10

# Trailing discriminant coefficients below this fraction of the largest
# are truncated.
_COEFF_TRUNCATION = 1e-8

_NEWTON_STEP_TOL = 1e-13
_GAP_CERTIFICATION = 1e-6
_MAX_BISECTIONS = 8


@dataclass(frozen=True, eq=False)
class PencilFamily:
    """Pair (A, B) representing H(z) = A + z B over complex z."""

    a: CMatrix
    b: CMatrix

    def __post_init__(self):
        self.a.require_square("PencilFamily")
        self.b.require_square("PencilFamily")
        if self.a.rows != self.b.rows:
            raise DimensionError(f"pencil blocks differ: {self.a.rows} vs "
                                 f"{self.b.rows}")
        if frobenius_norm(self.b) == 0.0:
            raise ValueError("pencil requires b != 0")

    @property
    def size(self) -> int:
        return self.a.rows

    def at(self, z: complex) -> CMatrix:
        return CMatrix(self._stack(z))

    def _stack(self, zs) -> np.ndarray:
        """H(z) for a scalar z, or one matrix per z of an array: every
        H(z) that the package forms. Raises ``NonFiniteError``, with no
        overflow warning, when any entry overflows."""
        zs = np.asarray(zs, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            stack = self.a.data + zs[..., None, None] * self.b.data
        if not np.isfinite(stack).all():
            raise NonFiniteError("matrix entries must be finite")
        return stack


@dataclass(frozen=True, eq=False)
class EPCandidate:
    """A located degeneracy of the pencil.

    ``gap`` is the smallest pairwise eigenvalue distance of H(z);
    ``discriminant_residual`` is |D(z)| normalized by the largest sample
    of |D| on the interpolation circle; ``newton_converged`` is True for
    a simple root whose Newton polish converged and False for a cluster
    centroid, which is not polished; ``geometric_multiplicity`` of
    the degenerate eigenvalue distinguishes defective points (1) from
    diagonalizable crossings (>= 2). ``accepted`` certifies the gap and
    discriminant bounds calibrated for two-fold defective points;
    higher-order points legitimately carry larger computed gaps.
    """

    z: complex
    degenerate_eigenvalue: complex
    gap: float
    discriminant_residual: float
    newton_converged: bool
    geometric_multiplicity: int
    accepted: bool


@dataclass(frozen=True)
class PathSpec:
    """Circular loop center + radius * exp(2 pi i * turns * t), t in [0, 1],
    sampled at steps+1 points. Negative turns reverse orientation.

    Raises ``ValueError`` when center, radius, |Re center| + radius or
    |Im center| + radius is not finite, for a center or radius that is a
    bool, a radius that is not positive, ``steps`` or ``turns`` that is
    not an integer (Python or numpy, not a bool), zero turns, or fewer
    than 16 steps."""

    center: complex
    radius: float
    steps: int
    turns: int = 1

    def __post_init__(self):
        for name in ("center", "radius"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, not a bool")
        # Python floats overflow to inf with no warning; + 0 refuses a str.
        c, r = complex(self.center + 0j), float(self.radius + 0.0)
        if not all(math.isfinite(abs(x) + r) for x in (c.real, c.imag)):
            raise ValueError("center, radius, |Re center| + radius and "
                             "|Im center| + radius must be finite")
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        for name in ("steps", "turns"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer")
        if self.turns == 0:
            raise ValueError("turns must be nonzero")
        if self.steps < 16:
            raise ValueError("steps must be at least 16")

    def point(self, t: float | np.ndarray) -> complex | np.ndarray:
        """The loop at ``t``, elementwise for an array of ``t``."""
        return self.center + self.radius * np.exp(2j * np.pi * self.turns * t)


@dataclass(frozen=True, eq=False)
class MonodromyResult:
    """Sheet permutation induced by a closed loop.

    ``permutation[k]`` is the index (0-based) of the starting sheet at
    which the sheet that began at index k arrives after the loop.
    ``trajectories[j]`` holds the per-sheet eigenvalues at requested
    step j; ``closure_error`` is the largest matched distance between
    the continued final values and the initial ones.
    """

    permutation: tuple[int, ...]
    trajectories: tuple[tuple[complex, ...], ...]
    closure_error: float


# ---------------------------------------------------------------------------
# Discriminant machinery


def _sylvester(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Sylvester matrices of polynomials p, q given low-to-high, one per
    row of the stacks ``p`` and ``q``."""
    m, l = p.shape[-1] - 1, q.shape[-1] - 1
    s = np.zeros(p.shape[:-1] + (m + l, m + l), dtype=complex)
    for i in range(l):
        s[..., i, i:i + m + 1] = p[..., ::-1]
    for i in range(m):
        s[..., l + i, i:i + l + 1] = q[..., ::-1]
    return s


def _discriminant(pencil: PencilFamily) -> tuple[np.ndarray, float]:
    """Coefficients (low to high in z) of the discriminant
    Res_E(char(H(z)), d char/dE), trailing near-zero ones truncated, and
    the largest |D| sample on the circle.

    D has degree at most n(n-1), so it is sampled at n(n-1)+1 nodes of
    the circle |z| = 1 + ||A||_F / ||B||_F and recovered by the discrete
    Fourier relations. The samples are built in one pass over the stack
    of H at the nodes: its characteristic polynomials, their Sylvester
    matrices and the determinants of those, each as one lockstep call.
    Raises ``ZeroDiscriminantError`` when D vanishes identically and
    ``NonFiniteError``, with no warning, when radius ** n(n-1), H at a
    node, a sample or their Hadamard bound overflows.
    """
    n = pencil.size
    count = n * (n - 1) + 1
    radius = 1.0 + frobenius_norm(pencil.a) / frobenius_norm(pencil.b)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = radius ** np.arange(count)
        if not np.isfinite(powers[-1]):
            raise NonFiniteError("sample circle radius ** n(n-1) overflows")
        nodes = radius * np.exp(2j * np.pi * np.arange(count) / count)
        coeffs = _char_poly(pencil._stack(nodes))
        sylvester = _sylvester(coeffs, coeffs[:, 1:] * np.arange(1, n + 1))
        disc = _det_lu(sylvester)
        hadamard = np.prod(np.linalg.norm(sylvester, axis=-1), axis=-1)
    if not np.isfinite(disc).all():
        raise NonFiniteError("discriminant samples overflow")
    if not np.isfinite(hadamard).all():
        raise NonFiniteError("Hadamard bound of the samples overflows")
    # hypot rounds like abs() of one complex; numpy's vectorised complex
    # abs can differ in the last bit, and the gate compares it to a bound.
    if np.all(np.hypot(disc.real, disc.imag) <= _DET_ZERO_RATIO * hadamard):
        raise ZeroDiscriminantError(
            "discriminant vanishes identically: every parameter value "
            "is degenerate")
    coeffs = np.fft.fft(disc) / count / powers
    peak = np.abs(coeffs).max()
    degree = count - 1
    while degree > 0 and abs(coeffs[degree]) < _COEFF_TRUNCATION * peak:
        degree -= 1
    return coeffs[:degree + 1], float(np.abs(disc).max())


# ---------------------------------------------------------------------------
# Root finding and refinement


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of a polynomial of degree >= 1 (low-to-high coefficients) via
    the companion matrix of its monic normalization."""
    degree = len(coeffs) - 1
    monic = coeffs / coeffs[degree]
    comp = np.eye(degree, k=-1, dtype=complex)
    comp[:, -1] = -monic[:degree]
    return np.asarray(eigenvalues(CMatrix(comp)))


def _pair_distances(values: np.ndarray) -> np.ndarray:
    """|v_i - v_j| for all i, j along the last axis, with inf on the
    diagonal."""
    # hypot rounds like abs() of one complex; numpy's vectorised complex
    # abs can differ in the last bit, and the gap is a reported figure.
    with np.errstate(over="ignore"):
        diff = values[..., :, None] - values[..., None, :]
        dist = np.hypot(diff.real, diff.imag)
    diagonal = np.arange(values.shape[-1])
    dist[..., diagonal, diagonal] = np.inf
    return dist


def _min_gap(values: np.ndarray) -> np.ndarray:
    """Smallest pairwise distance of each row (inf for a single value)."""
    return _pair_distances(values).min(axis=(-2, -1))


def _spectral_disc(eigs: np.ndarray, pairs: tuple) -> complex:
    """D(z) from the eigenvalues of H(z); ``pairs`` is
    ``np.triu_indices(n, 1)``.

    With char_poly's leading coefficient (-1)^n and the Sylvester layout
    above, D = (-1)^(n(n+1)/2) prod_{i<j} (l_i - l_j)^2. Unlike the
    recovered coefficients, this stays accurate at a root of D that lies
    close to another root.
    """
    n = len(eigs)
    i, j = pairs
    sign = (-1) ** (n * (n + 1) // 2)
    return sign * complex(np.prod((eigs[i] - eigs[j]) ** 2))


def _polish(pencil: PencilFamily, slope: np.ndarray, pairs: tuple,
            z: complex, eigs: np.ndarray) -> tuple[complex, np.ndarray, bool]:
    """Newton on D from the simple root z, whose eigenvalues are ``eigs``:
    D from the spectrum, D' from ``slope`` (the recovered coefficients,
    high to low), each iterate solved as a stack of one. Returns the
    last point, its eigenvalues and True once the next step is below the
    tolerance; a step that fails to halve the previous one ends with
    False.
    """
    previous = np.inf
    while True:
        step = _spectral_disc(eigs, pairs) / complex(np.polyval(slope, z))
        if abs(step) <= _NEWTON_STEP_TOL * (1.0 + abs(z)):
            return z, eigs, True
        if not abs(step) <= 0.5 * previous:
            return z, eigs, False
        z -= step
        eigs = _spectra(pencil._stack([z]))[0]
        previous = abs(step)


def _locate(pencil: PencilFamily, coeffs: np.ndarray,
            roots: np.ndarray) -> list[tuple[complex, np.ndarray, bool]]:
    """One (z, eigenvalues of H(z), newton_converged) per EP.

    All roots start as one group. A group is one EP when H at its
    centroid has an eigenvalue gap no larger than H has at any member,
    and no member is more than twice as far from the centroid as
    another: the copies of a multiple root scatter on a circle around
    it, and their centroid is well conditioned and lands on the
    degeneracy. The centroid of distinct EPs falls between them, where
    the eigenvalues separate, or, when it falls on a further degeneracy,
    lies much closer to that degeneracy's own roots than to the rest.
    Any other group splits into the components of the graph joining its
    roots closer than the radius, halved until there are two or more:
    the classes below the radius of the bottleneck distance, the least
    longest step of a path (Gower and Ross, Appl. Statist. 18 (1969)
    54), whose one table per call, by Floyd's loop over (min, max),
    gives every split. A group reports its centroid; a single root is
    polished. All the roots' spectra come from one stacked solve.
    """
    spectra = _spectra(pencil._stack(roots))
    gaps = _min_gap(spectra)
    slope = np.polyder(coeffs[::-1])
    pairs = np.triu_indices(pencil.size, 1)
    far = _pair_distances(roots)
    np.fill_diagonal(far, 0.0)
    for k in range(len(roots)):
        far = np.minimum(far, np.maximum(far[:, k, None], far[k]))
    found = []
    pending = [(np.arange(len(roots)),
                float(np.ptp(roots.real) + np.ptp(roots.imag)))]
    while pending:
        members, radius = pending.pop()
        if len(members) == 1:
            i = members[0]
            found.append(_polish(pencil, slope, pairs, complex(roots[i]),
                                 spectra[i]))
            continue
        centroid = complex(roots[members].mean())
        offsets = np.abs(roots[members] - centroid)
        if offsets.max() <= 2.0 * offsets.min():
            eigs = np.asarray(eigenvalues(pencil.at(centroid)))
            if _min_gap(eigs) <= gaps[members].min():
                found.append((centroid, eigs, False))
                continue
        near = far[np.ix_(members, members)]
        radius /= 2.0
        while (near < radius).all():
            radius /= 2.0
        linked = (near < radius) | np.eye(len(members), dtype=bool)
        pending += [(members[row], radius)
                    for i, row in enumerate(linked) if row.argmax() == i]
    return found


def find_exceptional_points(pencil: PencilFamily,
                            tol: Tolerance = DEFAULT_TOLERANCE
                            ) -> list[EPCandidate]:
    """Locate the roots of the pencil discriminant and certify them.

    Companion-matrix roots of the recovered discriminant are split into
    one group per EP by the eigenvalue gap of H(z) at each group's
    centroid and the spread of the members around it. A multiple root
    contributes one candidate at its group's centroid, a simple root is
    polished by Newton iteration on D. Every candidate is certified by the
    eigenvalue gap of H(z), all in one array pass, and sorted by modulus
    then argument. A 1x1 pencil, or one whose discriminant is a nonzero
    constant, has no degenerate eigenvalue and gives no candidate.
    """
    n = pencil.size
    if n < 2:
        return []
    coeffs, disc_scale = _discriminant(pencil)
    if len(coeffs) < 2:
        return []
    roots = _companion_roots(coeffs)
    zs, eigs, converged = zip(*_locate(pencil, coeffs, roots))
    zs, eigs = np.array(zs), np.array(eigs)
    # The degenerate eigenvalue is the mean of the closest pair. Moduli
    # come from hypot, which rounds like abs() of one complex.
    dist = _pair_distances(eigs)
    gaps = dist.min(axis=(-2, -1))
    line = np.arange(len(zs))
    i, j = np.divmod(dist.reshape(len(zs), -1).argmin(axis=-1), n)
    mean = (eigs[line, i] + eigs[line, j]) / 2.0
    disc = np.polyval(coeffs[::-1], zs)
    residuals = np.hypot(disc.real, disc.imag) / disc_scale
    scales = 1.0 + frobenius_norm(pencil.a) \
        + np.hypot(zs.real, zs.imag) * frobenius_norm(pencil.b)
    accepted = (gaps <= _GAP_CERTIFICATION * scales) \
        & (residuals <= _GAP_CERTIFICATION)
    # The geometric ranks of H(z) - E, pivots up to 10 gap counting as
    # zero, all candidates in one elimination.
    shifted = pencil._stack(zs) - mean[:, None, None] * np.eye(n)
    ranks = _full_pivot_eliminate(shifted, tol, 10.0 * gaps)[1]
    candidates = [EPCandidate(*fields) for fields in zip(
        zs.tolist(), mean.tolist(), gaps.tolist(), residuals.tolist(),
        converged, [n - r for r in ranks], accepted.tolist())]
    candidates.sort(key=lambda c: (abs(c.z), np.angle(c.z)))
    return candidates


# ---------------------------------------------------------------------------
# Sheet tracing


def _step_test(rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """Test each step from row i to row i + 1 of a stack of spectra.

    Returns, per step, ``nearest``, the index in row i + 1 nearest to each
    value of row i; ``clash``, whether two values pick the same index;
    ``far``, whether the largest matched jump exceeds half the smaller of
    the two rows' sheet gaps; and that jump and gap. A step passes when it
    neither clashes nor jumps far, and then each sheet's nearest new value
    is unique. Every result is invariant under permuting row i. A
    distance beyond the float range is inf, and an inf jump is far.
    """
    previous, new_values = rows[:-1], rows[1:]
    with np.errstate(over="ignore"):
        nearest = np.abs(previous[:, :, None]
                         - new_values[:, None, :]).argmin(axis=-1)
        line = np.arange(len(nearest))[:, None]
        jump = np.abs(new_values[line, nearest] - previous).max(axis=-1)
    picked = np.sort(nearest, axis=-1)
    clash = (picked[:, 1:] == picked[:, :-1]).any(axis=-1)
    gaps = _min_gap(rows)
    gap = np.minimum(gaps[:-1], gaps[1:])
    far = ~(jump <= 0.5 * gap) | np.isinf(jump)
    return nearest, clash, far, jump, gap


def _failure(clash: np.ndarray, jump: np.ndarray, gap: np.ndarray,
             i: int) -> str:
    """Why step i of a ``_step_test`` failed."""
    if clash[i]:
        return "two sheets continue to the same eigenvalue"
    return f"jump {jump[i]:.3e} exceeds half the sheet gap {gap[i]:.3e}"


def trace_sheets(pencil: PencilFamily, path: PathSpec) -> MonodromyResult:
    """Continue the eigenvalues of H(z) around the loop and read off the
    sheet permutation.

    The start is ``eigenvalues(H(path.point(0)))``, which fixes the sheet
    order; the other ``steps`` path nodes are solved as one stack, closed
    by the start. One pass tests every step of the stack from the last
    accepted node on and accepts the leading run that passes. A step
    whose sheets clash or whose matched jump exceeds half the minimal
    sheet gap gets its midpoint solved and inserted, which makes both
    halves one bisection deeper, and the pass resumes. Every node is
    solved once.

    This step test is the only refusal: a loop is traced however close it
    passes to an exceptional point, as long as every step resolves. A
    step still failing after 8 bisections raises ``SheetTrackingError``
    with the index of the requested step; that is how a loop through an
    exceptional point, or one too close to it for double precision, is
    refused. The closing step is tested in the same pass and never
    bisected: when it fails, its ``SheetTrackingError`` carries the index
    ``steps``. A node where H overflows raises ``NonFiniteError``.
    """
    # The start fixes the sheet labels, so it comes from eigenvalues()
    # itself: a stack row may differ from it in the last bit, and that can
    # swap two sheets of equal modulus. The other nodes are only matched.
    steps = path.steps
    start = np.asarray(eigenvalues(pencil.at(path.point(0.0))))
    t = (np.arange(steps + 1) / steps).tolist()
    nodes = path.point(np.array(t[1:]))
    # Row i of values is the spectrum at t[i], in sheet order up to row
    # done. level[i] is 0 at a requested node and d at a midpoint inserted
    # by the d-th bisection, so a step is as deep as its deeper end.
    values = np.vstack([start, _eigenvalues_stack(pencil._stack(nodes)),
                        start])
    level = [0] * (steps + 2)
    done = 0
    while True:
        nearest, clash, far, jump, gap = _step_test(values[done:])
        failed = np.flatnonzero(clash | far)
        accepted = failed[0] if len(failed) else len(nearest)
        # The sheet order of row done + i + 1 is nearest[i] indexed by that
        # of row done + i. Composing by doubling spans makes orders[i] the
        # product of nearest[0..i], one gather per doubling; the rows are
        # then reordered at once.
        orders = nearest[:accepted]
        line = np.arange(accepted)[:, None]
        span = 1
        while span < accepted:
            orders[span:] = orders[span:][line[:-span], orders[:-span]]
            span *= 2
        rows = values[done + 1:done + accepted + 1]
        rows[:] = rows[line, orders]
        done += accepted
        if not len(failed):
            break
        if done + 2 == len(values):
            raise SheetTrackingError(
                f"loop failed to close: {_failure(clash, jump, gap, accepted)}",
                step_index=steps)
        depth = max(level[done], level[done + 1])
        if depth >= _MAX_BISECTIONS:
            step_index = level[:done + 1].count(0)
            raise SheetTrackingError(
                f"eigenvalue continuation failed at step {step_index}: "
                f"{_failure(clash, jump, gap, accepted)} after "
                f"{_MAX_BISECTIONS} bisections", step_index=step_index)
        t_mid = 0.5 * (t[done] + t[done + 1])
        mid = np.asarray(eigenvalues(pencil.at(path.point(t_mid))))
        values = np.insert(values, done + 1, mid, axis=0)
        t.insert(done + 1, t_mid)
        level.insert(done + 1, depth + 1)
    if len(values) > steps + 2:
        values = values[np.array(level) == 0]
    # The last row, the start again, closes the loop: its sheet order is
    # the permutation, and its step's jump the closure error.
    return MonodromyResult(permutation=tuple(orders[-1].tolist()),
                           trajectories=tuple(map(tuple, values[:-1].tolist())),
                           closure_error=float(jump[-1]))
