"""Discriminant recovery, exceptional-point location, and monodromy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinpoint as sp
from spinpoint import (CMatrix, PathSpec, PencilFamily, Spin,
                       find_exceptional_points, trace_sheets)
from spinpoint.errors import (NonFiniteError, SheetTrackingError,
                             ZeroDiscriminantError)
import spinpoint.exceptional as exceptional
from spinpoint.exceptional import _spectral_disc, _step_test

from conftest import (SIGMA1, SIGMA3, bit_pattern, char_poly_reference,
                      det_lu_reference, eigenvalues_stack_reference,
                      find_exceptional_points_reference, locate_reference,
                      paired_spectra, random_cmatrix, random_complex,
                      random_unitary)


def hermitian_example():
    """diag(0, 1) + eps * sigma1 -- EPs at +/- i/2."""
    return PencilFamily(a=CMatrix(np.diag([0.0, 1.0])), b=CMatrix(SIGMA1))


def pauli_example():
    """sigma3 + z * sigma1 -- EPs at +/- i."""
    return PencilFamily(a=CMatrix(SIGMA3), b=CMatrix(SIGMA1))


def spin_pencil(twice):
    mats = sp.spin_matrices(Spin(twice))
    return PencilFamily(a=mats.s3, b=mats.s1)


def rotated_example(seed):
    """hermitian_example under a seeded unitary similarity."""
    q = random_unitary(np.random.default_rng(seed), 2).data
    return PencilFamily(a=CMatrix(q @ np.diag([0.0, 1.0]) @ q.conj().T),
                        b=CMatrix(q @ SIGMA1 @ q.conj().T))


def stepwise_step(previous, new_values):
    """Nearest new index of each previous value, or None when two values
    pick one index or the largest jump exceeds half the smaller sheet
    gap: the matching rule, one step at a time."""
    dist = np.abs(previous[:, None] - new_values[None, :])
    nearest = dist.argmin(axis=1)
    jump = dist[np.arange(len(previous)), nearest].max()
    gap = min(min(abs(complex(u - v)) for i, u in enumerate(row)
                  for v in row[i + 1:]) for row in (previous, new_values))
    if len(set(nearest.tolist())) < len(nearest) or not jump <= 0.5 * gap:
        return None
    return nearest


def stepwise_trace(pencil, path):
    """(permutation, trajectories, closure_error) from a loop that
    continues one requested step at a time and bisects a failing step
    recursively, with one scalar solve per midpoint and the known values
    at both ends; the closing step is held to the same rule."""
    steps = path.steps

    def continued(current, t_from, t_to, new_values, depth):
        nearest = stepwise_step(current, new_values)
        if nearest is not None:
            return new_values[nearest]
        assert depth < exceptional._MAX_BISECTIONS
        t_mid = 0.5 * (t_from + t_to)
        mid = np.asarray(exceptional.eigenvalues(pencil.at(path.point(t_mid))))
        half = continued(current, t_from, t_mid, mid, depth + 1)
        return continued(half, t_mid, t_to, new_values, depth + 1)

    start = np.asarray(exceptional.eigenvalues(pencil.at(path.point(0.0))))
    spectra = eigenvalues_stack_reference(np.array([
        pencil.a.data + complex(path.point(j / steps)) * pencil.b.data
        for j in range(1, steps + 1)]))
    trajectories = [tuple(complex(v) for v in start)]
    current = start
    for j in range(1, steps + 1):
        current = continued(current, (j - 1) / steps, j / steps,
                            spectra[j - 1], 0)
        trajectories.append(tuple(complex(v) for v in current))
    pairing = stepwise_step(current, start)
    assert pairing is not None
    closure_error = float(np.abs(start[pairing] - current).max())
    return tuple(int(k) for k in pairing), tuple(trajectories), closure_error


def numpy_gap(h):
    """Smallest pairwise distance of numpy's eigenvalues of h."""
    eigs = np.linalg.eigvals(h)
    dist = np.abs(eigs[:, None] - eigs[None, :])
    return dist[np.triu_indices(len(eigs), 1)].min()


def permutation_sign(permutation):
    """(-1)^(n - number of cycles) of a permutation given by its images."""
    cycles, seen = 0, set()
    for first in range(len(permutation)):
        if first not in seen:
            cycles += 1
            k = first
            while k not in seen:
                seen.add(k)
                k = permutation[k]
    return (-1) ** (len(permutation) - cycles)


def winding(result):
    """Winding number of the discriminant prod_{i<j} (l_i - l_j)^2 around
    a traced loop, read from its sheets.

    Sums 2 arg(w[k+1] / w[k]) over every pair, w = l_i - l_j, along the
    trajectories plus the closing step back to the permuted start. Every
    per-step angle must be at most pi/2, so that the arguments unwrap
    without ambiguity."""
    rows = np.array(result.trajectories)
    rows = np.vstack([rows, rows[0][list(result.permutation)]])
    i, j = np.triu_indices(rows.shape[1], 1)
    w = rows[:, i] - rows[:, j]
    angles = np.angle(w[1:] / w[:-1])
    assert np.abs(angles).max() <= np.pi / 2
    turns = angles.sum() / np.pi
    assert abs(turns - round(turns)) <= 1e-9
    return round(turns)


def sample_pencils():
    """The locator's benchmark mix in miniature: seeded complex Gaussian
    pencils at n = 2, 3 and 4, and the spin pencils 2s = 2 and 3."""
    pencils = []
    for seed in (1, 7, 11):
        rng = np.random.default_rng([seed, 0])
        pencils += [PencilFamily(a=random_cmatrix(rng, n),
                                 b=random_cmatrix(rng, n))
                    for n in (2, 3, 3, 4)]
    return pencils + [spin_pencil(2), spin_pencil(3), hermitian_example()]


def sylvester_reference(p, q):
    """Reference: the Sylvester matrix of one pair of polynomials given
    low-to-high."""
    m, l = len(p) - 1, len(q) - 1
    s = np.zeros((m + l, m + l), dtype=complex)
    for i in range(l):
        s[i, i:i + m + 1] = p[::-1]
    for i in range(m):
        s[l + i, i:i + l + 1] = q[::-1]
    return s


def one_node_discriminant(pencil, count):
    """Reference: the discriminant recovered from samples built one
    circle node at a time with the one-matrix loops, which the stacked
    sample pass must reproduce bit for bit."""
    n = pencil.size
    radius = 1.0 + sp.frobenius_norm(pencil.a) / sp.frobenius_norm(pencil.b)
    nodes = radius * np.exp(2j * np.pi * np.arange(count) / count)
    disc = np.empty(count, dtype=complex)
    zero_like = 0
    for j, z in enumerate(nodes):
        coeffs = char_poly_reference(pencil.at(z).data)
        sylvester = sylvester_reference(coeffs,
                                        coeffs[1:] * np.arange(1, n + 1))
        disc[j] = det_lu_reference(sylvester)
        hadamard = float(np.prod(np.linalg.norm(sylvester, axis=1)))
        zero_like += abs(disc[j]) <= exceptional._DET_ZERO_RATIO * hadamard
    assert zero_like < count
    coeffs = np.fft.fft(disc) / count / radius ** np.arange(count)
    peak = np.abs(coeffs).max()
    degree = count - 1
    while degree > 0 and abs(coeffs[degree]) < \
            exceptional._COEFF_TRUNCATION * peak:
        degree -= 1
    return coeffs[:degree + 1], float(np.abs(disc).max())


def doubled_count_discriminant(pencil):
    """Reference: the discriminant recovered from twice the locator's
    n(n-1)+1 samples, built one node at a time."""
    n = pencil.size
    return one_node_discriminant(pencil, 2 * (n * (n - 1) + 1))[0]


def normalized(coeffs):
    coeffs = np.asarray(coeffs)
    return coeffs / coeffs[np.abs(coeffs).argmax()]


class TestPencilFamily:
    def test_rejects_zero_b(self):
        with pytest.raises(ValueError):
            PencilFamily(a=CMatrix.identity(2), b=CMatrix.zeros(2))

    def test_rejects_mismatched_sizes(self):
        with pytest.raises(Exception):
            PencilFamily(a=CMatrix.identity(2), b=CMatrix.identity(3))


class TestDiscriminant:
    def test_avoided_crossing_oracle(self):
        # discriminant of E^2 - E - eps^2 is 1 + 4 eps^2
        coeffs = exceptional._discriminant(hermitian_example())[0]
        assert len(coeffs) == 3
        got = normalized(coeffs)
        expected = normalized([1.0, 0.0, 4.0])
        assert np.abs(got - expected).max() < 1e-10

    def test_pauli_oracle(self):
        # eigenvalues +/- sqrt(1 + z^2): discriminant proportional to 1 + z^2
        coeffs = exceptional._discriminant(pauli_example())[0]
        assert len(coeffs) == 3
        got = normalized(coeffs)
        expected = normalized([1.0, 0.0, 1.0])
        assert np.abs(got - expected).max() < 1e-10

    def test_spin_one_sixth_degree(self):
        # eigenvalues m * sqrt(1 + z^2) collide only at z^2 = -1; the
        # discriminant is proportional to (1 + z^2)^3
        coeffs = exceptional._discriminant(spin_pencil(2))[0]
        assert len(coeffs) == 7
        expected = normalized(np.polynomial.polynomial.polypow([1.0, 0.0, 1.0], 3))
        assert np.abs(normalized(coeffs) - expected).max() < 1e-8

    def test_identically_zero_signal(self):
        pencil = PencilFamily(a=CMatrix.identity(2), b=CMatrix.identity(2))
        with pytest.raises(ZeroDiscriminantError):
            exceptional._discriminant(pencil)[0]

    def test_spectrum_gives_the_same_discriminant(self, rng):
        # The root polish evaluates D from eigenvalues; its sign and scale
        # must match the recovered resultant.
        for n in (2, 3, 4):
            a, b = random_complex(rng, n), random_complex(rng, n)
            coeffs = exceptional._discriminant(
                PencilFamily(a=CMatrix(a), b=CMatrix(b)))[0]
            for z in (0.3 + 0.2j, -1.1 + 0.5j):
                expected = np.polyval(coeffs[::-1], z)
                got = _spectral_disc(np.linalg.eigvals(a + z * b),
                                     np.triu_indices(n, 1))
                assert abs(got - expected) <= 1e-8 * abs(expected)

    def test_sample_stacks_match_one_matrix_loops(self):
        from spinpoint.cmatrix import _char_poly, _det_lu
        for pencil in sample_pencils():
            n = pencil.size
            count = n * (n - 1) + 1
            nodes = np.exp(2j * np.pi * np.arange(count) / count)
            stack = np.array([pencil.at(z).data for z in nodes])
            coeffs = _char_poly(stack)
            for got, h in zip(coeffs, stack):
                assert np.array_equal(bit_pattern(got),
                                      bit_pattern(char_poly_reference(h)))
            sylvester = exceptional._sylvester(
                coeffs, coeffs[:, 1:] * np.arange(1, n + 1))
            for s, c in zip(sylvester, coeffs):
                assert np.array_equal(
                    s, sylvester_reference(c, c[1:] * np.arange(1, n + 1)))
            dets = _det_lu(sylvester)
            want = np.array([det_lu_reference(s) for s in sylvester])
            assert np.array_equal(bit_pattern(dets), bit_pattern(want))

    def test_stacked_samples_match_one_node_at_a_time(self):
        for pencil in sample_pencils():
            n = pencil.size
            coeffs, scale = exceptional._discriminant(pencil)
            want, want_scale = one_node_discriminant(pencil, n * (n - 1) + 1)
            assert np.array_equal(bit_pattern(coeffs), bit_pattern(want))
            assert bit_pattern(np.float64(scale)) == \
                bit_pattern(np.float64(want_scale))

    def test_non_finite_node_matrices_are_refused(self):
        pencil = PencilFamily(a=CMatrix(1e308 * SIGMA3),
                              b=CMatrix(1e308 * SIGMA1))
        with pytest.raises(NonFiniteError):
            exceptional._discriminant(pencil)[0]

    @pytest.mark.parametrize("a_scale, b_scale", [
        (1e300, 1e-300), (1e200, 1.0), (1.0, 1e-200)])
    def test_overflowing_circle_radius_is_refused(self, a_scale, b_scale):
        # The sample circle's radius 1 + ||A|| / ||B|| is inf or 7.1e199,
        # and the coefficients are divided by its n(n-1)-th power. The
        # EPs of the last pencil, +/- 0.5e200 i, are finite, but D cannot
        # be recovered on that circle.
        pencil = PencilFamily(a=CMatrix(a_scale * np.diag([0.0, 1.0])),
                              b=CMatrix(b_scale * SIGMA1))
        with pytest.raises(NonFiniteError, match=r"radius \*\* n\(n-1\)"):
            find_exceptional_points(pencil)

    @pytest.mark.parametrize("twice", [14, 15, 16])
    def test_overflowing_hadamard_bound_is_refused(self, twice):
        # The samples are finite, but the bound the zero gate compares
        # them with is not; that is no evidence that D vanishes.
        with pytest.raises(NonFiniteError, match="^Hadamard bound"):
            find_exceptional_points(spin_pencil(twice))

    @pytest.mark.parametrize("twice", range(17, 26))
    def test_overflowing_samples_are_refused(self, twice):
        with pytest.raises(NonFiniteError,
                           match="^discriminant samples overflow$"):
            find_exceptional_points(spin_pencil(twice))

    def test_sample_count_invariance(self):
        # Twice the samples recover the same coefficients.
        base = exceptional._discriminant(hermitian_example())[0]
        doubled = doubled_count_discriminant(hermitian_example())
        assert np.abs(normalized(base) - normalized(doubled[:len(base)])).max() < 1e-10


class TestFindExceptionalPoints:
    def test_avoided_crossing(self):
        candidates = find_exceptional_points(hermitian_example())
        assert len(candidates) == 2
        zs = sorted((c.z for c in candidates), key=lambda z: z.imag)
        assert abs(zs[0] + 0.5j) <= 1e-10
        assert abs(zs[1] - 0.5j) <= 1e-10
        for c in candidates:
            assert c.newton_converged
            assert c.accepted
            assert c.geometric_multiplicity == 1
            assert abs(c.degenerate_eigenvalue - 0.5) <= 1e-8

    def test_pauli_pencil(self):
        candidates = find_exceptional_points(pauli_example())
        zs = sorted((c.z for c in candidates), key=lambda z: z.imag)
        assert len(zs) == 2
        assert abs(zs[0] + 1j) <= 1e-10
        assert abs(zs[1] - 1j) <= 1e-10

    @pytest.mark.parametrize("twice", [1, 2, 3, 4, 5])
    def test_spin_pencils_collapse_to_two(self, twice):
        # +/- i are roots of D of order n(n-1)/2; the centroid of their
        # scattered companion roots is accurate to roundoff for 2s <= 3.
        candidates = find_exceptional_points(spin_pencil(twice))
        assert len(candidates) == 2
        zs = sorted((c.z for c in candidates), key=lambda z: z.imag)
        tolerance = 1e-12 if twice <= 3 else 1e-6
        assert abs(zs[0] + 1j) <= tolerance
        assert abs(zs[1] - 1j) <= tolerance
        for c in candidates:
            # single Jordan chain at the degeneracy: defective point
            assert c.geometric_multiplicity == 1

    def test_conjugate_symmetry_for_real_pencils(self, rng):
        for _ in range(5):
            a = CMatrix(rng.standard_normal((3, 3)))
            b = CMatrix(rng.standard_normal((3, 3)))
            candidates = find_exceptional_points(PencilFamily(a=a, b=b))
            zs = np.array([c.z for c in candidates])
            for z in zs:
                if abs(z.imag) > 1e-8:
                    assert np.abs(zs - np.conj(z)).min() <= 1e-9 * (1 + abs(z))

    def test_close_pair_splits(self):
        # [[0, z - d], [z + d, 0]]: eigenvalues +/- sqrt(z^2 - d^2), two
        # EPs 2d apart whose centroid z = 0 has the wide gap 2d.
        d = 1e-6
        pencil = PencilFamily(a=CMatrix([[0.0, -d], [d, 0.0]]),
                              b=CMatrix(SIGMA1))
        candidates = find_exceptional_points(pencil)
        assert len(candidates) == 2
        zs = sorted((c.z for c in candidates), key=lambda z: z.real)
        assert abs(zs[0] + d) <= 1e-3 * d
        assert abs(zs[1] - d) <= 1e-3 * d
        assert all(c.accepted for c in candidates)

    def test_random_four_by_four_pencils(self, rng):
        for _ in range(12):
            a, b = random_complex(rng, 4), random_complex(rng, 4)
            candidates = find_exceptional_points(
                PencilFamily(a=CMatrix(a), b=CMatrix(b)))
            assert len(candidates) == 12
            for c in candidates:
                gap = numpy_gap(a + c.z * b)
                bound = 1e-3 * (1.0 + np.linalg.norm(a)
                                + abs(c.z) * np.linalg.norm(b))
                assert gap <= bound

    def test_semisimple_crossing_flagged(self):
        # H(z) = diag(1 + z, -1 - z): eigenvalues cross at z = -1 with a
        # full eigenspace; reported with geometric multiplicity 2
        pencil = PencilFamily(a=CMatrix(np.diag([1.0, -1.0])),
                              b=CMatrix(np.diag([1.0, -1.0])))
        candidates = find_exceptional_points(pencil)
        assert len(candidates) == 1
        assert abs(candidates[0].z + 1.0) <= 1e-8
        assert candidates[0].geometric_multiplicity == 2

    @pytest.mark.parametrize("a, b, expected", [
        # diag(z, -z, 1): D = 4 z^2 (z^2 - 1)^2, semisimple crossings at
        # 0 and +/- 1.
        (np.diag([0.0, 0.0, 1.0]), np.diag([1.0, -1.0, 0.0]),
         [(-1.0, 2), (0.0, 2), (1.0, 2)]),
        # [[0, z - 1], [z + 1, 0]] (+) diag(5 + z, 5 - z): EPs at +/- 1,
        # semisimple crossings at 0 and +/- 2.6.
        (np.block([[SIGMA1 @ SIGMA3, np.zeros((2, 2))],
                   [np.zeros((2, 2)), 5.0 * np.eye(2)]]),
         np.block([[SIGMA1, np.zeros((2, 2))],
                   [np.zeros((2, 2)), SIGMA3]]),
         [(-2.6, 2), (-1.0, 1), (0.0, 2), (1.0, 1), (2.6, 2)]),
    ])
    def test_degeneracies_around_a_crossing_stay_apart(self, a, b, expected):
        # The centroid of all the companion roots lands on the crossing
        # at 0, where the gap is smaller than at any root.
        candidates = find_exceptional_points(
            PencilFamily(a=CMatrix(a), b=CMatrix(b)))
        candidates.sort(key=lambda c: c.z.real)
        assert len(candidates) == len(expected)
        for c, (z, multiplicity) in zip(candidates, expected):
            assert abs(c.z - z) <= 1e-10
            assert c.geometric_multiplicity == multiplicity

    def test_discriminant_residual_small_at_roots(self):
        for c in find_exceptional_points(hermitian_example()):
            assert c.discriminant_residual <= 1e-6

    def test_root_refinement_beats_sampling_noise(self):
        # The roots of the discriminant recovered from twice the samples,
        # found by numpy, lie within 1e-8 of the candidates.
        base = find_exceptional_points(hermitian_example())
        dense = np.polynomial.polynomial.polyroots(
            doubled_count_discriminant(hermitian_example()))
        assert len(base) == len(dense)
        for cb in base:
            assert np.abs(cb.z - dense).min() <= 1e-8

    @pytest.mark.parametrize("a, b", [(2.0, 1.0), (1e300, 1e-300)])
    def test_one_by_one_pencil_has_no_candidates(self, a, b, monkeypatch):
        # A single eigenvalue is never degenerate: no sample is taken, so
        # a pencil whose sample circle would overflow gives [] as well.
        monkeypatch.setattr(exceptional, "_discriminant", None)
        pencil = PencilFamily(a=CMatrix([[a]]), b=CMatrix([[b]]))
        assert find_exceptional_points(pencil) == []

    @pytest.mark.parametrize("a, b", [
        (np.diag([0.0, 1.0]), [[0.0, 1.0], [0.0, 0.0]]),
        (np.diag([0.0, 1.0, 2.0]), np.triu(np.ones((3, 3)), 1)),
    ])
    def test_constant_discriminant_has_no_candidates(self, a, b):
        # H(z) is triangular with the fixed diagonal of A, so D is a
        # nonzero constant and has no root.
        pencil = PencilFamily(a=CMatrix(a), b=CMatrix(b))
        assert len(exceptional._discriminant(pencil)[0]) == 1
        assert find_exceptional_points(pencil) == []


EP_FIELDS = ("z", "degenerate_eigenvalue", "gap", "discriminant_residual",
             "newton_converged", "geometric_multiplicity", "accepted")


def stacked_locator_cases():
    """Seeded complex Gaussian pencils at n = 2, 3, 4 and the spin pencils
    s3 + z s1 and s3 + z s2 at 2s = 2..5, whose groups report centroids."""
    cases = []
    rng = np.random.default_rng(2929)
    for n in (2, 3, 4):
        cases += [(f"random-n{n}-{k}", random_complex(rng, n),
                   random_complex(rng, n)) for k in range(6)]
    for twice in range(2, 6):
        mats = sp.spin_matrices(Spin(twice))
        cases += [(f"spin{twice}-s1", mats.s3.data, mats.s1.data),
                  (f"spin{twice}-s2", mats.s3.data, mats.s2.data)]
    return cases


def fields_of(result):
    """repr and type of every field of every candidate, or the type and
    message of the error raised."""
    try:
        candidates = result()
    except Exception as exc:  # compared, not hidden
        return type(exc), str(exc)
    return [[(repr(getattr(c, f)), type(getattr(c, f))) for f in EP_FIELDS]
            for c in candidates]


class TestStackedLocator:
    """The locator solves the spectra at all roots in one stacked call,
    then each Newton step of each simple root as a stack of one, and
    certifies every candidate in one array pass. Each candidate equals,
    field for field, that of the one-root-at-a-time stage
    (``find_exceptional_points_reference``)."""

    @pytest.mark.parametrize("name, a, b", stacked_locator_cases(),
                             ids=[c[0] for c in stacked_locator_cases()])
    def test_candidates_match_one_root_at_a_time(self, name, a, b):
        pencil = PencilFamily(a=CMatrix(a), b=CMatrix(b))
        got = fields_of(lambda: find_exceptional_points(pencil))
        want = fields_of(lambda: find_exceptional_points_reference(pencil))
        assert got == want
        if name.startswith("spin"):
            # Every EP of a spin pencil is a multiple root of D, reported
            # at its group's centroid.
            assert len(got) == 2
            assert all(row[4][0] == "False" for row in got)

    def test_one_solve_for_all_roots_and_one_per_newton_round(
            self, rng, monkeypatch):
        sizes, evaluations = [], []
        solve, disc = exceptional._spectra, exceptional._spectral_disc

        def counted(stack):
            sizes.append(len(stack))
            return solve(stack)

        def evaluated(eigs, pairs):
            evaluations.append(len(sizes))
            return disc(eigs, pairs)

        monkeypatch.setattr(exceptional, "_spectra", counted)
        monkeypatch.setattr(exceptional, "_spectral_disc", evaluated)
        pencil = PencilFamily(a=CMatrix(random_complex(rng, 4)),
                              b=CMatrix(random_complex(rng, 4)))
        candidates = find_exceptional_points(pencil)
        assert len(candidates) == 12
        assert all(c.newton_converged for c in candidates)
        # The twelve roots at once, then one row per Newton step: every
        # evaluation of D but each root's last takes a step.
        assert sizes[0] == 12
        assert sizes[1:] == [1] * (len(evaluations) - 12)
        assert evaluations[0] == 1

    def test_polish_gives_up_when_a_step_grows(self):
        # On diag(0, 1) + z sigma1, D(z) = -(1 + 4 z^2); with the slope 1
        # in place of D' the step from 0.05 + 0.5i is D itself, |D| = 0.2,
        # and the next one is about 1, which fails to halve it.
        pencil = PencilFamily(a=CMatrix(np.diag([0.0, 1.0])),
                              b=CMatrix(SIGMA1))
        pairs = np.triu_indices(2, 1)
        z0 = 0.05 + 0.5j
        eigs0 = sp.eigenvalues(pencil.at(z0))
        z1 = z0 - _spectral_disc(eigs0, pairs)
        z, eigs, converged = exceptional._polish(
            pencil, np.array([1.0]), pairs, z0, eigs0)
        assert z == z1
        assert np.array_equal(eigs, sp.eigenvalues(pencil.at(z1)))
        assert converged is False


def crafted_roots():
    """Root sets for ``_locate`` on H(z) = [[0, 1], [z - 3/10, 0]], whose
    one EP is z = 3/10, each with the number of results it gives."""
    ring = 1e-3 * np.exp(2j * np.pi * np.arange(6) / 6)
    return {
        # Columns 3 apart, rows 5 apart: the radius halves from 24 to 3,
        # where the columns' distance 3 must not link the rows.
        "lattice": ((3.0 * np.arange(4)[:, None]
                     + 5j * np.arange(4)).ravel(), 16),
        # The centroid of three copies of 0.15 rounds away from the EP, to
        # a larger gap, so the copies halve down to radius 0 and split
        # into singletons.
        "duplicates": (np.array([0.15, 0.15, 0.15, 2.5], dtype=complex), 4),
        # About the EP, the scatter of a multiple root, reported at its
        # centroid; away from it, six simple roots.
        "ring-at-ep": (0.3 + ring, 1),
        "ring-off-ep": (1.0 + ring, 6),
        "single": (np.array([0.5 + 0.25j]), 1),
    }


class TestLocateSplits:
    """``_locate`` reads every split off one bottleneck table; the
    reference relinks each group at every halved radius."""

    @pytest.mark.parametrize("name", list(crafted_roots()))
    def test_matches_reference(self, name):
        roots, count = crafted_roots()[name]
        pencil = PencilFamily(a=CMatrix([[0.0, 1.0], [-0.3, 0.0]]),
                              b=CMatrix([[0.0, 0.0], [1.0, 0.0]]))
        coeffs = exceptional._discriminant(pencil)[0]

        def fields(found):
            return [(repr(z), repr(np.asarray(eigs).tolist()),
                     repr(converged)) for z, eigs, converged in found]

        got = fields(exceptional._locate(pencil, coeffs, roots))
        assert got == fields(locate_reference(pencil, coeffs, roots))
        assert len(got) == count


def located(a, b):
    """The EPs that ``find_exceptional_points`` returns for (A, B)."""
    pencil = PencilFamily(a=CMatrix(a), b=CMatrix(b))
    return np.array([c.z for c in find_exceptional_points(pencil)])


def similar(rng, a, b):
    u = random_unitary(rng, len(a)).data
    return u @ a @ u.conj().T, u @ b @ u.conj().T, lambda z: z


def shifted(rng, a, b):
    c = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    return a + c * b, b, lambda z: z - c


# Each relation maps a pencil (A, B), with a seeded rng, to a pencil and
# the map that takes each EP of (A, B) to one of the new pencil. Scaling
# (aA, bB), z -> (a/b) z, is left out: the locator fails it (ROADMAP
# item 2).
METAMORPHIC_RELATIONS = {
    "similarity": similar,
    "shift": shifted,
    "reciprocal": lambda rng, a, b: (b, a, lambda z: 1.0 / z),
    "transpose": lambda rng, a, b: (a.T, b.T, lambda z: z),
    "conjugate": lambda rng, a, b: (a.conj(), b.conj(), np.conj),
}


class TestMetamorphicRelations:
    """Exact invariances of the EPs, at n = 2..4 on seeded complex
    Gaussian pencils: each relation's image of the located EPs must be
    the EPs located for the related pencil, to 1e-10 relative."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("relation", list(METAMORPHIC_RELATIONS))
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_locator_relation(self, relation, n, seed):
        rng = np.random.default_rng(seed)
        a, b = random_complex(rng, n), random_complex(rng, n)
        a2, b2, image = METAMORPHIC_RELATIONS[relation](rng, a, b)
        want = image(located(a, b))
        got = located(a2, b2)
        assert len(got) == len(want) == n * (n - 1)
        want, got = paired_spectra(want, got)
        assert (np.abs(got - want) <= 1e-10 * np.abs(want)).all()

    @pytest.mark.parametrize("n", [2, 3, 4])
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_similarity_keeps_the_monodromy(self, n, seed):
        # A loop around the smallest EP, a third of the way to the next:
        # a similarity keeps the permutation and the trajectories, once
        # the sheets are paired at the start.
        rng = np.random.default_rng(seed)
        a, b = random_complex(rng, n), random_complex(rng, n)
        a2, b2, _ = similar(rng, a, b)
        eps = located(a, b)
        path = PathSpec(center=eps[0], radius=np.abs(eps[1:] - eps[0]).min()
                        / 3.0, steps=64)
        result = trace_sheets(PencilFamily(a=CMatrix(a), b=CMatrix(b)), path)
        other = trace_sheets(PencilFamily(a=CMatrix(a2), b=CMatrix(b2)),
                             path)
        first, second = map(np.array, (result.trajectories,
                                       other.trajectories))
        pairing = np.abs(first[0][:, None] - second[0][None, :]).argmin(axis=1)
        assert sorted(pairing.tolist()) == list(range(n))
        assert [pairing[k] for k in result.permutation] == \
            [other.permutation[k] for k in pairing]
        scale = np.abs(first).max()
        assert np.abs(second[:, pairing] - first).max() <= 1e-10 * scale


def analytic_sheet_swap_oracle(path):
    """Continue w(t) = sqrt(1 + 4 z(t)^2) along the loop by nearest-sign
    selection; a sign flip at closure means the sheets swapped."""
    w = np.sqrt(1.0 + 4.0 * path.point(0.0) ** 2)
    first = w
    for j in range(1, path.steps + 1):
        candidate = np.sqrt(1.0 + 4.0 * path.point(j / path.steps) ** 2)
        w = candidate if abs(candidate - w) <= abs(-candidate - w) else -candidate
    return bool(abs(w + first) < abs(w - first))


def paired_steps(previous, new_values):
    """``_step_test`` of the steps from each row of ``previous`` to the
    same row of ``new_values``, from one stack that interleaves them."""
    rows = np.empty((2 * len(previous), previous.shape[1]), dtype=complex)
    rows[0::2], rows[1::2] = previous, new_values
    return tuple(result[0::2] for result in _step_test(rows))


class TestMatching:
    def test_nearest_value_equals_optimal_assignment(self, rng):
        # Within half the sheet gap the nearest-value pairing is the
        # minimal-cost assignment. The cases are stacked by size and each
        # stack is tested in one call.
        from scipy.optimize import linear_sum_assignment
        cases = {}
        for _ in range(200):
            n = int(rng.integers(2, 8))
            previous = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            gap = np.abs(previous[:, None] - previous[None, :])[
                np.triu_indices(n, 1)].min()
            moved = previous + 0.499 * gap * rng.random(n) * \
                np.exp(2j * np.pi * rng.random(n))
            cases.setdefault(n, []).append((previous,
                                            moved[rng.permutation(n)]))
        for rows in cases.values():
            previous, new_values = map(np.array, zip(*rows))
            nearest, clash, _, _, _ = paired_steps(previous, new_values)
            assert not clash.any()
            for k in range(len(rows)):
                assign, cols = linear_sum_assignment(
                    np.abs(previous[k][:, None] - new_values[k][None, :]))
                assert np.array_equal(nearest[k], cols[np.argsort(assign)])

    def test_clash_returns_no_pairing(self):
        previous = np.array([[0.0, 1.0, 3.0 + 1j], [0.0, 1.0, 3.0 + 1j],
                             [0.0, 1.0, 3.0 + 1j]])
        new_values = np.array([[3.0 + 1j, 1.1, 0.0], [0.4, 5.0, 3.0 + 1j],
                               [0.1, 1.0, 3.0 + 1j]])
        _, clash, _, _, _ = paired_steps(previous, new_values)
        assert clash.tolist() == [False, True, False]

    def test_jump_is_held_to_the_smaller_gap(self):
        # Both rows jump by 0.3; the first row's new values are 0.4 apart,
        # so its gap falls from 1 to 0.4 and the step is too far.
        previous = np.array([[0.0, 1.0], [0.0, 1.0]])
        new_values = np.array([[0.3, 0.7], [0.3, 1.3]])
        nearest, clash, far, jump, gap = paired_steps(previous, new_values)
        assert nearest.tolist() == [[0, 1], [0, 1]]
        assert not clash.any()
        assert far.tolist() == [True, False]
        assert np.allclose(jump, 0.3) and np.allclose(gap, [0.4, 1.0])


BULK_CASES = (
    [(f"rotated{seed}-{center}-x{turns}", rotated_example(seed),
      PathSpec(center=center, radius=0.1, steps=256, turns=turns))
     for seed in (1, 2, 3) for center, turns in ((0.5j, 1), (0.5j, 2),
                                                 (0.0, 1))]
    + [(f"spin{twice}-{center}", spin_pencil(twice),
        PathSpec(center=center, radius=0.1, steps=256))
       for twice in (2, 3, 6) for center in (1j, 1.0)]
    + [("bisecting", hermitian_example(),
        PathSpec(center=0.5j, radius=0.99, steps=16)),
       # Five bisection levels at step 12.
       ("bisecting-deep", hermitian_example(),
        PathSpec(center=0.5j, radius=0.995, steps=16))])


class TestBulkPass:
    @pytest.mark.parametrize("pencil, path", [case[1:] for case in BULK_CASES],
                             ids=[case[0] for case in BULK_CASES])
    def test_equals_the_stepwise_loop(self, pencil, path):
        result = trace_sheets(pencil, path)
        assert (result.permutation, result.trajectories,
                result.closure_error) == stepwise_trace(pencil, path)


# The winding of D around each BULK_CASES loop: the number of roots of D
# inside it. Each EP of the 2x2 pencil is a simple root; +/- i are roots
# of order n(n-1)/2 of the spin pencils' D.
BULK_WINDINGS = {
    **{f"rotated{seed}-{center}-x{turns}": count
       for seed in (1, 2, 3)
       for center, turns, count in ((0.5j, 1, 1), (0.5j, 2, 2),
                                    (0.0, 1, 0))},
    "spin2-1j": 3, "spin3-1j": 6, "spin6-1j": 21,
    "spin2-1.0": 0, "spin3-1.0": 0, "spin6-1.0": 0,
    "bisecting": 1, "bisecting-deep": 1}


class TestWindingCertificate:
    @pytest.mark.parametrize("name, pencil, path", BULK_CASES,
                             ids=[case[0] for case in BULK_CASES])
    def test_parity_matches_the_permutation(self, name, pencil, path):
        result = trace_sheets(pencil, path)
        count = winding(result)
        assert count == BULK_WINDINGS[name]
        assert (-1) ** count == permutation_sign(result.permutation)


class TestTraceSheets:
    def test_loop_around_branch_point_swaps(self):
        path = PathSpec(center=0.5j, radius=0.1, steps=64)
        result = trace_sheets(hermitian_example(), path)
        assert result.permutation == (1, 0)
        assert result.closure_error <= 1e-8
        assert analytic_sheet_swap_oracle(path)

    def test_loop_away_from_branch_points_is_identity(self):
        path = PathSpec(center=0.0, radius=0.1, steps=64)
        result = trace_sheets(hermitian_example(), path)
        assert result.permutation == (0, 1)

    def test_double_turn_squares_the_swap(self):
        path = PathSpec(center=0.5j, radius=0.1, steps=128, turns=2)
        result = trace_sheets(hermitian_example(), path)
        assert result.permutation == (0, 1)

    def test_reversal_gives_inverse(self):
        forward = trace_sheets(pauli_example(),
                               PathSpec(center=1j, radius=0.2, steps=64))
        backward = trace_sheets(pauli_example(),
                                PathSpec(center=1j, radius=0.2, steps=64,
                                         turns=-1))
        perm = list(forward.permutation)
        inv = [0] * len(perm)
        for i, j in enumerate(perm):
            inv[j] = i
        assert list(backward.permutation) == inv

    def test_pauli_swap(self):
        result = trace_sheets(pauli_example(),
                              PathSpec(center=1j, radius=0.15, steps=64))
        assert result.permutation == (1, 0)

    def test_trajectories_cover_requested_steps(self):
        path = PathSpec(center=0.0, radius=0.1, steps=32)
        result = trace_sheets(hermitian_example(), path)
        assert len(result.trajectories) == 33
        assert all(len(row) == 2 for row in result.trajectories)

    def test_start_is_the_sorted_spectrum(self):
        pencil, path = spin_pencil(3), PathSpec(center=1j, radius=0.1, steps=32)
        start = sp.eigenvalues(pencil.at(path.point(0.0)))
        assert trace_sheets(pencil, path).trajectories[0] == tuple(start)

    def test_coarse_step_bisects_and_keeps_the_swap(self, monkeypatch):
        # The loop encloses i/2 only and passes 0.01 from -i/2, where the
        # 16 coarse steps jump by more than half the sheet gap.
        pencil = hermitian_example()
        path = PathSpec(center=0.5j, radius=0.99, steps=16)
        solved = []

        def recording(a):
            solved.append(a.data)
            return eigenvalues(a)

        eigenvalues = exceptional.eigenvalues
        monkeypatch.setattr(exceptional, "eigenvalues", recording)
        result = trace_sheets(pencil, path)
        assert result.permutation == (1, 0)
        midpoints = [pencil.at(path.point(0.5 * ((j - 1) / path.steps
                                                 + j / path.steps))).data
                     for j in range(1, path.steps + 1)]
        bisections = sum(any(np.array_equal(m, mid) for mid in midpoints)
                         for m in solved)
        assert bisections >= 1
        # The same scalar solves, in the same order, as the step-at-a-time
        # loop: no bisection skipped or repeated.
        traced = solved[:]
        solved.clear()
        stepwise_trace(pencil, path)
        assert len(traced) == len(solved)
        assert all(map(np.array_equal, traced, solved))

    def test_no_matrix_is_solved_twice(self, monkeypatch):
        # Steps 12 and 13 of this loop are bisected four levels deep. The
        # start, the 16 stacked nodes and the 8 midpoints are each solved
        # once; a bisected step's ends keep the values already known.
        solved = []

        def recording(a):
            solved.append(a.data)
            return eigenvalues(a)

        def recording_stack(stack):
            solved.extend(stack)
            return eigenvalues_stack(stack)

        eigenvalues = exceptional.eigenvalues
        eigenvalues_stack = exceptional._eigenvalues_stack
        monkeypatch.setattr(exceptional, "eigenvalues", recording)
        monkeypatch.setattr(exceptional, "_eigenvalues_stack",
                            recording_stack)
        trace_sheets(hermitian_example(),
                     PathSpec(center=0.5j, radius=0.99, steps=16))
        assert len(solved) == 1 + 16 + 8
        distinct = {m.tobytes() for m in solved}
        assert len(distinct) == len(solved)

    def test_bisection_limit_names_the_requested_step(self, monkeypatch):
        # The radius-0.99 loop needs four bisection levels at step 12.
        monkeypatch.setattr(exceptional, "_MAX_BISECTIONS", 3)
        with pytest.raises(SheetTrackingError) as info:
            trace_sheets(hermitian_example(),
                         PathSpec(center=0.5j, radius=0.99, steps=16))
        assert info.value.step_index == 12
        assert str(info.value) == (
            "eigenvalue continuation failed at step 12: jump 1.549e-01 "
            "exceeds half the sheet gap 1.990e-01 after 3 bisections")

    def test_unresolvable_step_raises_with_its_index(self):
        # Two sheets equal at every z: every step clashes, and after 8
        # bisections the first step fails.
        pencil = PencilFamily(a=CMatrix.zeros(2), b=CMatrix.identity(2))
        with pytest.raises(SheetTrackingError) as info:
            trace_sheets(pencil, PathSpec(center=0.0, radius=1.0, steps=16))
        assert info.value.step_index == 1
        assert "after 8 bisections" in str(info.value)

    def test_rejects_path_through_exceptional_point(self):
        # Node 16 of 64 is z = i/2, where the two sheets meet: the step
        # into it cannot be resolved by bisection.
        with pytest.raises(SheetTrackingError) as info:
            trace_sheets(hermitian_example(),
                         PathSpec(center=0.0, radius=0.5, steps=64))
        assert info.value.step_index == 16
        assert "after 8 bisections" in str(info.value)

    @pytest.mark.parametrize("center, radius, permutation", [
        # About 0, the EPs +/- i/2 lie 1e-4 inside, then 1e-4 outside the
        # loop; about i/2, the EP at -i/2 lies 1e-4 outside it.
        (0.0, 0.5 + 1e-4, (0, 1)),
        (0.0, 0.5 - 1e-4, (0, 1)),
        (0.5j, 0.9999, (1, 0)),
    ], ids=["0.5001-about-0", "0.4999-about-0", "0.9999-about-0.5j"])
    def test_loop_passing_close_to_an_ep(self, center, radius, permutation):
        result = trace_sheets(hermitian_example(),
                              PathSpec(center=center, radius=radius,
                                       steps=256))
        assert result.permutation == permutation

    @pytest.mark.parametrize("pencil, path", [
        # Closing misses the start by the rounding of exp(2 pi i) times the
        # radius, 2.4e-6 at radius 1e10; the sheets are 1e10 apart.
        (hermitian_example(), PathSpec(center=0.0, radius=1e8, steps=64)),
        (hermitian_example(), PathSpec(center=0.0, radius=1e10, steps=64)),
        # H(center) = 0, about it and beside it.
        (PencilFamily(a=CMatrix.zeros(2), b=CMatrix.diagonal([1.0, 2.0])),
         PathSpec(center=0.0, radius=0.5, steps=64)),
        (PencilFamily(a=CMatrix.zeros(2), b=CMatrix.diagonal([1.0, 2.0])),
         PathSpec(center=1e-3, radius=0.5, steps=64)),
    ], ids=["radius-1e8", "radius-1e10", "zero-center", "beside-zero"])
    def test_closing_step_is_held_to_the_step_test(self, pencil, path):
        result = trace_sheets(pencil, path)
        assert result.permutation == (0, 1)
        jump = np.abs(np.array(result.trajectories[-1])
                      - np.array(result.trajectories[0])).max()
        assert result.closure_error == jump

    def test_loop_that_does_not_close_is_refused(self):
        # The path spirals out from z = 0.3 to 0.6, where the eigenvalues
        # z and 1 of this pencil are 0.4 apart: the end is 0.3 from the
        # start, more than half the gap, and no two sheets clash.
        class Spiral(PathSpec):
            def point(self, t):
                return self.radius * (1.0 + t) * np.exp(2j * np.pi * t)

        pencil = PencilFamily(a=CMatrix.diagonal([0.0, 1.0]),
                              b=CMatrix.diagonal([1.0, 0.0]))
        with pytest.raises(SheetTrackingError) as info:
            trace_sheets(pencil, Spiral(center=0.0, radius=0.3, steps=64))
        assert info.value.step_index == 64
        assert str(info.value) == ("loop failed to close: jump 3.000e-01 "
                                   "exceeds half the sheet gap 4.000e-01")

    def test_failed_closing_step_is_not_bisected(self, monkeypatch):
        # Only the closing step of the spiral fails: it is tested in the
        # pass over the node stack, refused with the index steps, and no
        # midpoint is solved, so eigenvalues() solves the start alone.
        class Spiral(PathSpec):
            def point(self, t):
                return self.radius * (1.0 + t) * np.exp(2j * np.pi * t)

        solved = []

        def recording(a):
            solved.append(a.data)
            return eigenvalues(a)

        eigenvalues = exceptional.eigenvalues
        monkeypatch.setattr(exceptional, "eigenvalues", recording)
        pencil = PencilFamily(a=CMatrix.diagonal([0.0, 1.0]),
                              b=CMatrix.diagonal([1.0, 0.0]))
        with pytest.raises(SheetTrackingError) as info:
            trace_sheets(pencil, Spiral(center=0.0, radius=0.3, steps=64))
        assert info.value.step_index == 64
        assert str(info.value).startswith("loop failed to close: ")
        assert len(solved) == 1

    def test_bisected_last_step_then_closes(self, monkeypatch):
        # The loop passes 0.005 inside the EP at -i/2 in the middle of its
        # last requested step, which is bisected; the closing step, from
        # the last node back to the start, then passes.
        pencil = hermitian_example()
        path = PathSpec(center=-0.48 - 0.405j, radius=0.5, steps=16)
        solved = []

        def recording(a):
            solved.append(a.data)
            return eigenvalues(a)

        eigenvalues = exceptional.eigenvalues
        monkeypatch.setattr(exceptional, "eigenvalues", recording)
        result = trace_sheets(pencil, path)
        turns = [np.angle((m[0, 1] - path.center) / path.radius) / (2 * np.pi)
                 % 1.0 for m in solved[1:]]
        assert turns and all(15 / 16 < t < 1.0 for t in turns)
        assert (result.permutation, result.trajectories,
                result.closure_error) == stepwise_trace(pencil, path)
        assert result.permutation == (1, 0)
        assert result.closure_error == 1.6782945342419286e-16

    def test_overflowing_nodes_raise_non_finite(self):
        # The start is finite; the nodes far from it overflow. Neither
        # call may warn first (pytest turns a warning into an error).
        pencil = PencilFamily(a=CMatrix(np.diag([0.0, 1.0])),
                              b=CMatrix(1e10 * SIGMA1))
        path = PathSpec(center=-0.99e298, radius=1e298, steps=64)
        pencil.at(path.point(0.0))
        with pytest.raises(NonFiniteError):
            trace_sheets(pencil, path)
        with pytest.raises(NonFiniteError):
            pencil.at(2e298)

    def test_sheet_gaps_beyond_the_float_range(self):
        # The eigenvalues near +/- 1.5e308 (1 + i) are finite, but their
        # differences are not: a distance beyond the float range compares
        # as inf, with no warning, and the loop encloses no EP.
        path = PathSpec(center=1.5e308 + 1.5e308j, radius=1.0, steps=16)
        result = trace_sheets(hermitian_example(), path)
        assert result.permutation == (0, 1)
        assert np.isfinite(np.array(result.trajectories)).all()
        assert result.closure_error <= 1e-8 * 1.5e308

    def test_infinite_jump_is_far(self):
        # Every distance within each row is beyond the float range, and so
        # is every distance from the first value to the next row: its
        # nearest index is arbitrary, though no two values clash, and the
        # step must not pass.
        big = 1.5e308
        rows = np.array([[big, -big, big * 1j], [-big * 1j, -big, big * 1j]])
        nearest, clash, far, jump, gap = _step_test(rows)
        assert nearest[0].tolist() == [0, 1, 2]
        assert not clash[0] and far[0]
        assert jump[0] == gap[0] == np.inf

    def test_never_runs_the_locator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("trace_sheets ran the EP locator")

        monkeypatch.setattr(exceptional, "find_exceptional_points", refuse)
        result = trace_sheets(spin_pencil(6),
                              PathSpec(center=1j, radius=0.1, steps=256))
        assert result.permutation == (1, 0, 3, 2, 5, 4, 6)

    def test_near_ep_sweep_traces_or_refuses(self):
        # Loops that pass 1e-6 r to 3e-3 r from a located EP, inside or
        # outside it, on random n = 2, 3 pencils. Each generic EP is a
        # square-root branch point, so a traced loop's permutation has
        # the sign (-1)^(EPs enclosed); an unresolvable step is refused
        # with SheetTrackingError, and no other error may surface.
        rng = np.random.default_rng(11)
        outcomes = {"traced": 0, "refused": 0}
        while sum(outcomes.values()) < 40:
            n = int(rng.integers(2, 4))
            a, b = random_complex(rng, n), random_complex(rng, n)
            pencil = PencilFamily(a=CMatrix(a), b=CMatrix(b))
            eps = np.array([c.z for c in find_exceptional_points(pencil)])
            assert len(eps) == n * (n - 1)
            k = int(rng.integers(len(eps)))
            radius = rng.uniform(0.05, 0.3)
            miss = 10 ** rng.uniform(-6, -2.5) * radius
            side = rng.choice([-1.0, 1.0])
            center = eps[k] + (radius + side * miss) * np.exp(
                2j * np.pi * rng.random())
            assert numpy_gap(a + eps[k] * b) <= 1e-6 * (
                1.0 + np.linalg.norm(a) + abs(eps[k]) * np.linalg.norm(b))
            others = np.delete(eps, k)
            if (np.abs(np.abs(others - center) - radius)
                    < 1e-2 * radius).any():
                continue
            enclosed = int((np.abs(eps - center) < radius).sum())
            try:
                result = trace_sheets(pencil, PathSpec(
                    center=complex(center), radius=radius, steps=256))
            except SheetTrackingError:
                outcomes["refused"] += 1
                continue
            assert permutation_sign(result.permutation) == (-1) ** enclosed
            outcomes["traced"] += 1
        assert outcomes["traced"] and outcomes["refused"]

    def test_no_enclosure_identity_on_random_pencils(self, rng):
        done = 0
        while done < 10:
            n = int(rng.integers(2, 4))
            pencil = PencilFamily(a=random_cmatrix(rng, n),
                                  b=random_cmatrix(rng, n))
            candidates = find_exceptional_points(pencil)
            moduli = [abs(c.z) for c in candidates]
            center = 2.0 * max(moduli + [1.0]) + 1.0
            path = PathSpec(center=center, radius=0.05, steps=16)
            result = trace_sheets(pencil, path)
            assert result.permutation == tuple(range(n))
            done += 1

    @pytest.mark.parametrize("turns", [1, 2, -3])
    @pytest.mark.parametrize("steps", [16, 256, 1000])
    def test_point_of_an_array_is_elementwise(self, turns, steps):
        path = PathSpec(center=0.3 - 0.2j, radius=0.7, steps=steps,
                        turns=turns)
        nodes = path.point(np.arange(1, steps + 1) / steps)
        assert nodes.tolist() == [complex(path.point(j / steps))
                                  for j in range(1, steps + 1)]

    @pytest.mark.parametrize("field,message", [
        ("turns", "turns must be an integer"),
        ("steps", "steps must be an integer"),
        ("radius", "radius must be a number"),
        ("center", "center must be a number")])
    def test_path_refuses_a_bool(self, field, message):
        # A bool is an Integral and adds as a number: turns=True would
        # trace one turn, steps=True would fail only its lower bound.
        fields = dict(center=0.0, radius=1.0, steps=64, turns=1)
        for flag in (True, np.True_):
            with pytest.raises(ValueError, match=message):
                PathSpec(**{**fields, field: flag})

    def test_path_validation(self):
        with pytest.raises(ValueError):
            PathSpec(center=0.0, radius=0.0, steps=64)
        with pytest.raises(ValueError):
            PathSpec(center=0.0, radius=1.0, steps=8)
        # The extent is added in Python floats: a numpy scalar's overflow
        # would warn, and pytest turns the warning into an error.
        for center, radius in ((0.0, np.nan), (0.0, np.inf),
                               (complex(np.nan, 0.0), 1.0),
                               (complex(0.0, np.inf), 1.0),
                               (1.5e308, 1e308), (1.5e308j, 1e308),
                               (-1.5e308j, 1e308),
                               (np.complex128(1.5e308), np.float64(1e308))):
            with pytest.raises(ValueError, match="finite"):
                PathSpec(center=center, radius=radius, steps=64)
        PathSpec(center=1.5e308 + 1.5e308j, radius=1e307, steps=64)
        for center, radius in (("1", 1.0), (0.0, "1")):
            with pytest.raises(TypeError):
                PathSpec(center=center, radius=radius, steps=64)
        with pytest.raises(ValueError, match="turns"):
            PathSpec(center=0.0, radius=1.0, steps=64, turns=0)
        with pytest.raises(ValueError, match="steps must be an integer"):
            PathSpec(center=0.0, radius=1.0, steps=16.5)
        with pytest.raises(ValueError, match="turns must be an integer"):
            PathSpec(center=0.0, radius=1.0, steps=64, turns=0.5)
        path = PathSpec(center=0.0, radius=1.0, steps=np.int64(64),
                        turns=np.int32(-2))
        assert path.steps == 64 and path.turns == -2
