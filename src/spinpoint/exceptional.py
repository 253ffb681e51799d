"""Exceptional points of matrix pencils H(z) = A + z B.

The discriminant D(z) -- the resultant in E of the characteristic
polynomial and its E-derivative -- is sampled on a circle via Sylvester
determinants, its coefficients recovered by the discrete Fourier
relations, and its roots taken as companion-matrix eigenvalues. Each
root is refined by Newton iteration on the simultaneous system
(p(E, z) = 0, dp/dE(E, z) = 0) with the analytic Jacobian from the
recovered bivariate coefficients, then certified by recomputing the
eigenvalue gap at the refined parameter.

Sheet structure around a point is probed by walking eigenvalues along a
closed loop, continuing each sheet to its nearest new eigenvalue, and
bisecting any step on which two sheets claim the same value or a sheet
jumps by more than half the sheet gap; the loop returns the permutation
it induces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cmatrix import (CMatrix, DEFAULT_TOLERANCE, Tolerance, _det_lu,
                      char_poly, eigenvalues, frobenius_norm, rank)
from .errors import (DimensionError, SheetTrackingError, SpinpointError,
                     ZeroDiscriminantError)

__all__ = ["PencilFamily", "EPCandidate", "PathSpec", "MonodromyResult",
           "discriminant_poly", "find_exceptional_points", "trace_sheets"]

# |D(z_j)| below this fraction of the Sylvester Hadamard bound counts as
# an exact zero of the determinant.
_DET_ZERO_RATIO = 1e-10

# Trailing discriminant coefficients below this fraction of the largest
# are truncated.
_COEFF_TRUNCATION = 1e-8

_NEWTON_MAX_ITER = 60
_NEWTON_STEP_TOL = 1e-13
_DEDUP_RADIUS = 1e-8
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
        return CMatrix(self.a.data + complex(z) * self.b.data)


@dataclass(frozen=True, eq=False)
class EPCandidate:
    """A located degeneracy of the pencil.

    ``gap`` is the smallest pairwise eigenvalue distance of H(z);
    ``discriminant_residual`` is |D(z)| normalized by the largest sample
    of |D| on the interpolation circle; ``geometric_multiplicity`` of
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
    sampled at steps+1 points. Negative turns reverse orientation."""

    center: complex
    radius: float
    steps: int
    turns: int = 1

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        if self.steps < 16:
            raise ValueError("steps must be at least 16")

    def point(self, t: float) -> complex:
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
    """Sylvester matrix of polynomials p, q given low-to-high."""
    m, l = len(p) - 1, len(q) - 1
    s = np.zeros((m + l, m + l), dtype=complex)
    for i in range(l):
        s[i, i:i + m + 1] = p[::-1]
    for i in range(m):
        s[l + i, i:i + l + 1] = q[::-1]
    return s


class _PencilData:
    """Shared sampling products: circle, per-sample char-poly rows,
    discriminant samples, and the recovered polynomials."""

    def __init__(self, pencil: PencilFamily, samples: int | None):
        n = pencil.size
        if n < 2:
            raise DimensionError("discriminant requires a pencil of size >= 2")
        degree_bound = n * (n - 1)
        count = samples if samples is not None else degree_bound + 1
        if count < degree_bound + 1:
            raise ValueError(f"need at least {degree_bound + 1} samples")
        radius = 1.0 + frobenius_norm(pencil.a) / frobenius_norm(pencil.b)
        nodes = radius * np.exp(2j * np.pi * np.arange(count) / count)
        char_rows = np.empty((count, n + 1), dtype=complex)
        disc = np.empty(count, dtype=complex)
        zero_like = 0
        for j, z in enumerate(nodes):
            coeffs = char_poly(pencil.at(z))
            char_rows[j] = coeffs
            dcoeffs = coeffs[1:] * np.arange(1, n + 1)
            sylvester = _sylvester(coeffs, dcoeffs)
            value = _det_lu(sylvester)
            disc[j] = value
            hadamard = float(np.prod(np.linalg.norm(sylvester, axis=1)))
            if abs(value) <= _DET_ZERO_RATIO * hadamard:
                zero_like += 1
        if zero_like == count:
            raise ZeroDiscriminantError(
                "discriminant vanishes identically: every parameter value "
                "is degenerate")
        self.pencil = pencil
        self.radius = radius
        self.nodes = nodes
        self.disc_samples = disc
        self.disc_scale = float(np.abs(disc).max())
        # E^k coefficient of char(H(z)) as a polynomial in z, one row per k.
        self.char_z = np.vstack([
            self._circle_coeffs(char_rows[:, k]) for k in range(n + 1)
        ])
        self.disc_coeffs = self._truncate(self._circle_coeffs(disc))

    def _circle_coeffs(self, values: np.ndarray) -> np.ndarray:
        count = len(values)
        c = np.fft.fft(values) / count
        return c / self.radius ** np.arange(count)

    @staticmethod
    def _truncate(coeffs: np.ndarray) -> np.ndarray:
        peak = np.abs(coeffs).max()
        degree = len(coeffs) - 1
        while degree > 0 and abs(coeffs[degree]) < _COEFF_TRUNCATION * peak:
            degree -= 1
        return coeffs[:degree + 1]

    def disc_at(self, z: complex) -> complex:
        return complex(np.polyval(self.disc_coeffs[::-1], z))


def discriminant_poly(pencil: PencilFamily,
                      samples: int | None = None) -> np.ndarray:
    """Coefficients (low to high in z) of the pencil's discriminant
    Res_E(char(H(z)), d char/dE).

    Sampled on the circle |z| = 1 + ||A||_F / ||B||_F at
    n(n-1)+1 points (more with ``samples``), recovered by the discrete
    Fourier relations, trailing near-zero coefficients truncated.

    Raises
    ------
    ZeroDiscriminantError
        If the discriminant vanishes identically.
    """
    return _PencilData(pencil, samples).disc_coeffs


# ---------------------------------------------------------------------------
# Root finding and refinement


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of a polynomial (low-to-high coefficients) via the companion
    matrix of its monic normalization."""
    degree = len(coeffs) - 1
    if degree < 1:
        return np.empty(0, dtype=complex)
    monic = coeffs / coeffs[degree]
    comp = np.zeros((degree, degree), dtype=complex)
    if degree > 1:
        comp[1:, :-1] = np.eye(degree - 1)
    comp[:, -1] = -monic[:degree]
    return np.asarray(eigenvalues(CMatrix(comp)))


class _Bivariate:
    """p(E, z) = sum_k sum_l C[k, l] E^k z^l and its partials."""

    def __init__(self, c: np.ndarray):
        self.c = c
        k = np.arange(1, c.shape[0])[:, None]
        l = np.arange(1, c.shape[1])[None, :]
        self.c_e = c[1:, :] * k
        self.c_z = c[:, 1:] * l
        self.c_ee = self.c_e[1:, :] * np.arange(1, self.c_e.shape[0])[:, None]
        self.c_ez = self.c_e[:, 1:] * np.arange(1, c.shape[1])[None, :]

    @staticmethod
    def _eval(table: np.ndarray, e: complex, z: complex) -> complex:
        zp = z ** np.arange(table.shape[1])
        return complex(np.polyval((table @ zp)[::-1], e))

    def value(self, e, z):
        return self._eval(self.c, e, z)

    def d_e(self, e, z):
        return self._eval(self.c_e, e, z)

    def d_z(self, e, z):
        return self._eval(self.c_z, e, z)

    def d_ee(self, e, z):
        return self._eval(self.c_ee, e, z)

    def d_ez(self, e, z):
        return self._eval(self.c_ez, e, z)


def _solve_2x2(j: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    det_j = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
    scale = max(abs(j).max(), 1e-300)
    if abs(det_j) > 1e-14 * scale * scale:
        return np.array([
            (rhs[0] * j[1, 1] - rhs[1] * j[0, 1]) / det_j,
            (j[0, 0] * rhs[1] - j[1, 0] * rhs[0]) / det_j,
        ])
    # Least-squares step through the ridge-regularized normal equations;
    # keeps Newton moving at higher-order points where J is singular.
    jh = j.conj().T
    g = jh @ j + (1e-14 * scale) ** 2 * np.eye(2)
    b = jh @ rhs
    det_g = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if det_g == 0.0:
        return None
    return np.array([
        (b[0] * g[1, 1] - b[1] * g[0, 1]) / det_g,
        (g[0, 0] * b[1] - g[1, 0] * b[0]) / det_g,
    ])


def _newton_refine(poly: _Bivariate, e0: complex, z0: complex
                   ) -> tuple[complex, complex, bool]:
    """Newton on (p, dp/dE) = 0 with the analytic Jacobian; falls back to
    finite differences if the analytic entries are not finite."""
    e, z = complex(e0), complex(z0)
    converged = False
    for _ in range(_NEWTON_MAX_ITER):
        f = np.array([poly.value(e, z), poly.d_e(e, z)])
        jac = np.array([[poly.d_e(e, z), poly.d_z(e, z)],
                        [poly.d_ee(e, z), poly.d_ez(e, z)]])
        if not np.all(np.isfinite(jac.view(float))):
            h = 1e-7 * (1.0 + abs(z))
            he = 1e-7 * (1.0 + abs(e))
            jac = np.array([
                [(poly.value(e + he, z) - poly.value(e - he, z)) / (2 * he),
                 (poly.value(e, z + h) - poly.value(e, z - h)) / (2 * h)],
                [(poly.d_e(e + he, z) - poly.d_e(e - he, z)) / (2 * he),
                 (poly.d_e(e, z + h) - poly.d_e(e, z - h)) / (2 * h)],
            ])
        step = _solve_2x2(jac, -f)
        if step is None:
            break
        e += step[0]
        z += step[1]
        if abs(step[0]) + abs(step[1]) <= _NEWTON_STEP_TOL * (1.0 + abs(e) + abs(z)):
            converged = True
            break
    return e, z, converged


def _pair_distances(values: np.ndarray) -> np.ndarray:
    """|v_i - v_j| for all i, j, with inf on the diagonal."""
    # hypot rounds like abs() of one complex; numpy's vectorised complex
    # abs can differ in the last bit, and the gap is a reported figure.
    diff = values[:, None] - values
    dist = np.hypot(diff.real, diff.imag)
    dist.flat[::len(values) + 1] = np.inf
    return dist


def _closest_pair_mean(values: np.ndarray) -> complex:
    i, j = divmod(int(_pair_distances(values).argmin()), len(values))
    return complex((values[i] + values[j]) / 2.0)


def _min_gap(values: np.ndarray) -> float:
    return float(_pair_distances(values).min())


def _cluster(points: list[complex], factor: float = 1.0) -> list[list[int]]:
    """Union-find clustering with the scaled dedup radius."""
    count = len(points)
    parent = list(range(count))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(count):
        for j in range(i + 1, count):
            radius = factor * _DEDUP_RADIUS * \
                (1.0 + max(abs(points[i]), abs(points[j])))
            if abs(points[i] - points[j]) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(count):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _dedup_groups(points: list[complex]) -> list[list[int]]:
    """Two-pass dedup: chain points at the base radius, then merge the
    resulting centroids at ten times the radius. A multiple root whose
    Newton iterates stall on opposite sides of the true value still
    collapses to a single group."""
    first = _cluster(points)
    centroids = [complex(np.mean([points[i] for i in group]))
                 for group in first]
    merged = _cluster(centroids, factor=10.0)
    return [[idx for c in group for idx in first[c]] for group in merged]


def find_exceptional_points(pencil: PencilFamily,
                            samples: int | None = None,
                            tol: Tolerance = DEFAULT_TOLERANCE
                            ) -> list[EPCandidate]:
    """Locate the roots of the pencil discriminant and certify them.

    Companion-matrix roots of the recovered discriminant are refined by
    Newton iteration on (p, dp/dE) and clustered within the scaled dedup
    radius; a multiple root contributes one candidate at the cluster
    centroid. Every candidate is certified by recomputing the eigenvalue
    gap of H(z) and sorted by modulus then argument.
    """
    data = _PencilData(pencil, samples)
    poly = _Bivariate(data.char_z)
    roots = _companion_roots(data.disc_coeffs)
    if len(roots) == 0:
        return []

    refined = []
    for root in roots:
        eigs = eigenvalues(pencil.at(root))
        e0 = _closest_pair_mean(eigs)
        e, z, ok = _newton_refine(poly, e0, complex(root))
        refined.append((z, e, ok))

    candidates = []
    n = pencil.size
    norm_a = frobenius_norm(pencil.a)
    norm_b = frobenius_norm(pencil.b)
    for group in _dedup_groups([z for z, _, _ in refined]):
        converged = all(refined[i][2] for i in group)
        if len(group) == 1:
            z, e = refined[group[0]][0], refined[group[0]][1]
            eigs = eigenvalues(pencil.at(z))
        else:
            # Centroid of the refined copies of a multiple root is
            # first-order accurate; re-running Newton would scatter it
            # again across the flat basin.
            z = complex(np.mean([refined[i][0] for i in group]))
            eigs = eigenvalues(pencil.at(z))
            e = _closest_pair_mean(eigs)
        gap = _min_gap(eigs)
        disc_residual = abs(data.disc_at(z)) / data.disc_scale
        scale = 1.0 + norm_a + abs(z) * norm_b
        shifted = CMatrix(pencil.at(z).data - e * np.eye(n))
        geo_rank = rank(shifted, Tolerance(
            absolute=max(tol.absolute, 10.0 * gap), relative=tol.relative))
        accepted = gap <= _GAP_CERTIFICATION * scale and \
            disc_residual <= _GAP_CERTIFICATION
        candidates.append(EPCandidate(
            z=z, degenerate_eigenvalue=e, gap=gap,
            discriminant_residual=disc_residual, newton_converged=converged,
            geometric_multiplicity=n - geo_rank, accepted=accepted))
    candidates.sort(key=lambda c: (abs(c.z), np.angle(c.z)))
    return candidates


# ---------------------------------------------------------------------------
# Sheet tracing


def _match_indices(previous: np.ndarray,
                   new_values: np.ndarray) -> np.ndarray | None:
    """Pairing p with p[k] = index in ``new_values`` nearest to sheet k,
    or None when two sheets claim the same value.

    A step is accepted only when every matched jump is at most half the
    sheet gap, and under that condition each sheet's nearest new value
    is unique; a clash therefore always means the step must be bisected.
    """
    pairing = np.abs(previous[:, None] - new_values).argmin(axis=1)
    if len(set(pairing.tolist())) < len(pairing):
        return None
    return pairing


def _continue_segment(pencil: PencilFamily, path: PathSpec,
                      current: np.ndarray, t_from: float, t_to: float,
                      depth: int, step_index: int) -> np.ndarray:
    new_values = np.asarray(eigenvalues(pencil.at(path.point(t_to))))
    pairing = _match_indices(current, new_values)
    if pairing is None:
        failure = "two sheets continue to the same eigenvalue"
    else:
        new_values = new_values[pairing]
        jump = float(np.abs(new_values - current).max())
        gap = min(_min_gap(current), _min_gap(new_values))
        if len(current) == 1 or jump <= 0.5 * gap:
            return new_values
        failure = f"jump {jump:.3e} exceeds half the sheet gap {gap:.3e}"
    if depth >= _MAX_BISECTIONS:
        raise SheetTrackingError(
            f"eigenvalue continuation failed at step {step_index}: "
            f"{failure} after {_MAX_BISECTIONS} bisections",
            step_index=step_index)
    t_mid = 0.5 * (t_from + t_to)
    half = _continue_segment(pencil, path, current, t_from, t_mid,
                             depth + 1, step_index)
    return _continue_segment(pencil, path, half, t_mid, t_to,
                             depth + 1, step_index)


def trace_sheets(pencil: PencilFamily, path: PathSpec) -> MonodromyResult:
    """Continue the eigenvalues of H(z) around the loop and read off the
    sheet permutation.

    The loop must stay farther than 1e-3 * radius from every exceptional
    point (checked against find_exceptional_points when that succeeds,
    otherwise unchecked). Steps whose matched jump exceeds half the
    minimal sheet gap are bisected up to 8 times before failing.
    """
    try:
        eps = find_exceptional_points(pencil)
    except SpinpointError:
        eps = []
    for cand in eps:
        distance = abs(abs(cand.z - path.center) - path.radius)
        if distance < 1e-3 * path.radius:
            raise ValueError(
                f"path passes within {distance:.3e} of the exceptional "
                f"point at z = {cand.z:.6g}")

    start = np.asarray(eigenvalues(pencil.at(path.point(0.0))))
    trajectories = [tuple(complex(v) for v in start)]
    current = start
    for j in range(1, path.steps + 1):
        t_prev = (j - 1) / path.steps
        t_next = j / path.steps
        current = _continue_segment(pencil, path, current, t_prev, t_next,
                                    0, j)
        trajectories.append(tuple(complex(v) for v in current))

    pairing = _match_indices(current, start)
    if pairing is None:
        raise SheetTrackingError(
            "loop failed to close: two sheets end at the same starting "
            "eigenvalue", step_index=path.steps)
    closure_error = float(np.abs(start[pairing] - current).max())
    limit = 1e-6 * frobenius_norm(pencil.at(path.center))
    if closure_error > limit:
        raise SheetTrackingError(
            f"loop failed to close: matched end-start distance "
            f"{closure_error:.3e} exceeds {limit:.3e}", step_index=path.steps)
    return MonodromyResult(permutation=tuple(int(j) for j in pairing),
                           trajectories=tuple(trajectories),
                           closure_error=closure_error)
