"""The ladder-ratio null vector against the printed vectors, the
structural invariants of the whole hierarchy, numpy's SVD null vector as
an independent oracle, and the edge of its representable range."""

import numpy as np
import pytest

import spinpoint as sp
from spinpoint import Spin, kernel_vector, verify_uniqueness

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)
SQRT6 = np.sqrt(6.0)

PRINTED_VECTORS = {
    1: np.array([-1j, 1.0]) / SQRT2,
    2: np.array([-1.0, -1j * SQRT2, 1.0]) / 2.0,
    3: np.array([1j, -SQRT3, -1j * SQRT3, 1.0]) / np.sqrt(8.0),
    4: np.array([1.0, 2j, -SQRT6, -2j, 1.0]) / 4.0,
}


def phase_aligned_distance(u, v):
    """Max component deviation after quotienting one global phase."""
    overlap = np.vdot(v, u)
    phase = overlap / abs(overlap)
    return np.abs(u - phase * v).max()


class TestPrintedVectors:
    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_matches_up_to_phase(self, twice):
        got = kernel_vector(Spin(twice), 1).vector
        assert phase_aligned_distance(got, PRINTED_VECTORS[twice]) <= 1e-12

    def test_raw_vector_rescales_last_entry(self):
        solution = kernel_vector(Spin(4), 1)
        assert solution.raw_vector[-1] == 1.0
        assert solution.vector[-1].real > 0.0
        assert solution.vector[-1].imag == 0.0

    def test_first_recurrence_step(self):
        # the first ladder ratio, -i sqrt(2s / 1), is the v_{-s+1} that
        # the bottom row forces: -i 2s / sqrt(2s)
        for twice in (1, 2, 3, 4, 9):
            s = twice / 2.0
            solution = kernel_vector(Spin(twice), 1)
            expected = -1j * 2.0 * s / np.sqrt(2.0 * s)
            assert solution.raw_vector[-2] == pytest.approx(expected, abs=1e-14)


class TestHierarchyInvariants:
    @pytest.mark.parametrize("twice", list(range(1, 26)))
    @pytest.mark.parametrize("axis", [1, 2])
    def test_residuals(self, twice, axis):
        n = twice + 1
        solution = kernel_vector(Spin(twice), axis)
        assert solution.residual <= 1e-10 * n
        assert solution.consistency <= 1e-10 * n
        assert np.abs(solution.vector).min() > 1e-10
        assert np.linalg.norm(solution.vector) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("twice", list(range(1, 26)))
    def test_alternation_structure(self, twice):
        # under the chosen phase convention the components alternate
        # between real and purely imaginary, counted from the bottom
        v = kernel_vector(Spin(twice), 1).vector
        n = twice + 1
        for offset, comp in enumerate(v[::-1]):
            if offset % 2 == 0:
                assert abs(comp.imag) <= 1e-10
            else:
                assert abs(comp.real) <= 1e-10

    @pytest.mark.parametrize("twice", [1, 2, 3, 4, 9, 16, 25])
    @pytest.mark.parametrize("axis", [1, 2])
    def test_cross_validation_against_nullspace(self, twice, axis):
        h = sp.nonnormal_hamiltonian(Spin(twice), axis, 1j)
        basis = sp.nullspace(h)
        assert len(basis) == 1
        v = kernel_vector(Spin(twice), axis).vector
        assert abs(np.vdot(v, basis[0])) >= 1.0 - 1e-10

    @pytest.mark.parametrize("twice", list(range(1, 101)))
    @pytest.mark.parametrize("axis", [1, 2])
    def test_residuals_through_100(self, twice, axis):
        n = twice + 1
        solution = kernel_vector(Spin(twice), axis)
        assert solution.residual <= 1e-10 * n
        assert solution.consistency <= 1e-10 * n
        assert solution.raw_vector[-1] == 1.0
        assert verify_uniqueness(Spin(twice), axis)

    @pytest.mark.parametrize("twice", [26, 47, 48, 60, 100, 150, 200])
    @pytest.mark.parametrize("axis", [1, 2])
    def test_matches_svd_null_vector(self, twice, axis):
        h = sp.nonnormal_hamiltonian(Spin(twice), axis, 1j).data
        _, singular, vh = np.linalg.svd(h)
        assert singular[-1] <= 1e-10 * (twice + 1) < 0.5 <= singular[-2]
        v = kernel_vector(Spin(twice), axis).vector
        assert phase_aligned_distance(v, vh[-1].conj()) <= 1e-12


def test_bool_axis_is_refused():
    for check in (kernel_vector, verify_uniqueness):
        with pytest.raises(ValueError, match="axis"):
            check(Spin(2), True)


@pytest.mark.parametrize("axis", [1.0, np.float64(2.0)],
                         ids=["1.0", "float64"])
def test_non_integer_axis_is_refused(axis):
    # An integral float is refused too: KernelSolution.axis stores the
    # integer it was given.
    for check in (kernel_vector, verify_uniqueness):
        with pytest.raises(ValueError, match="axis"):
            check(Spin(2), axis)


class TestRepresentableRange:
    # ||raw_vector||_2 = 2**s: np.linalg.norm of the raw vector overflows
    # from 2s = 1025, 2**s itself from 2s = 2048, and a component from
    # 2s = 2054.
    @pytest.mark.parametrize("twice", [571, 572, 1000, 1025, 2047])
    def test_large_spins(self, twice):
        n = twice + 1
        solution = kernel_vector(Spin(twice), 1)
        assert solution.residual <= 1e-10 * n
        assert solution.consistency <= 1e-10 * n
        assert solution.raw_vector[-1] == 1.0
        assert np.isfinite(solution.raw_vector).all()
        assert np.linalg.norm(solution.vector) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("twice", [2048, 2054])
    @pytest.mark.parametrize("axis", [1, 2])
    def test_overflow_raises_before_building_the_matrix(self, twice, axis,
                                                        monkeypatch):
        def refuse(*args):
            raise AssertionError("matrix built for a non-representable spin")
        monkeypatch.setattr(sp.kernel, "nonnormal_hamiltonian", refuse)
        with pytest.raises(sp.NonFiniteError, match="2s <= 2047"):
            kernel_vector(Spin(twice), axis)


class TestUniqueness:
    @pytest.mark.parametrize("twice,expected_rank", [(1, 1), (3, 3), (4, 4)])
    def test_low_spins(self, twice, expected_rank):
        assert verify_uniqueness(Spin(twice), 1)
        h = sp.nonnormal_hamiltonian(Spin(twice), 1, 1j)
        assert sp.rank(h) == expected_rank

    @pytest.mark.parametrize("axis", [1, 2])
    def test_all_spins(self, axis):
        for twice in range(1, 26):
            assert verify_uniqueness(Spin(twice), axis)

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            kernel_vector(Spin(1), 0)
