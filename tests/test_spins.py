"""Spin-operator construction against the printed low-spin matrices and
the general algebra."""

import math

import numpy as np
import pytest

import spinpoint as sp
from spinpoint import CMatrix, Spin, parse_spin

from conftest import SIGMA1, SIGMA2, SIGMA3, bit_pattern

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)
SQRT6 = np.sqrt(6.0)

BUILDER_SPINS = list(range(1, 51))
BUILDER_COUPLINGS = [1j, 0.3 - 2j, 1e5 + 1e-3j, 0]


def ladder_plus_reference(twice):
    """Reference: the raising operator filled entry by entry, each
    coefficient sqrt((s-m)(s+m+1)) formed on scalars for m = s - p."""
    n = twice + 1
    s = twice / 2.0
    mat = np.zeros((n, n), dtype=complex)
    for p in range(1, n):
        m = s - p
        mat[p - 1, p] = math.sqrt((s - m) * (s + m + 1.0))
    return mat


class TestSpinType:
    def test_dimension(self):
        assert Spin(1).dimension == 2
        assert Spin(25).dimension == 26

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            Spin(0)
        with pytest.raises(ValueError):
            Spin(-2)
        for value in (True, False, 3.0, "3", None):
            with pytest.raises(ValueError):
                Spin(value)

    def test_numpy_integer_is_a_python_int(self):
        spin = Spin(np.int64(3))
        assert spin == Spin(3)
        assert hash(spin) == hash(Spin(3))
        assert type(spin.twice_spin) is int
        assert str(spin) == "3/2"

    @pytest.mark.parametrize("text,twice", [
        ("1/2", 1), ("0.5", 1), ("1", 2), ("3/2", 3), ("1.5", 3),
        ("2", 4), ("25/2", 25), ("12.5", 25),
    ])
    def test_parse(self, text, twice):
        assert parse_spin(text).twice_spin == twice

    @pytest.mark.parametrize("text", ["0", "-1/2", "0.3", "1/3", "x", ""])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_spin(text)


class TestLadder:
    def test_spin_half(self):
        assert sp.ladder_plus(Spin(1)) == CMatrix([[0.0, 1.0], [0.0, 0.0]])

    def test_spin_one_superdiagonal(self):
        got = sp.ladder_plus(Spin(2)).data
        assert got[0, 1] == got[1, 2] == SQRT2
        assert np.count_nonzero(got) == 2

    def test_spin_three_half_superdiagonal(self):
        got = sp.ladder_plus(Spin(3)).data
        assert np.allclose(np.diag(got, 1), [SQRT3, 2.0, SQRT3])

    @pytest.mark.parametrize("twice", BUILDER_SPINS)
    def test_matches_entrywise_reference(self, twice):
        got = sp.ladder_plus(Spin(twice)).data
        assert np.array_equal(bit_pattern(got),
                              bit_pattern(ladder_plus_reference(twice)))

    def test_first_entry_is_sqrt_twice_spin(self):
        for twice in (1, 2, 5, 11):
            got = sp.ladder_plus(Spin(twice)).data
            assert got[0, 1] == pytest.approx(np.sqrt(twice))


class TestPrintedMatrices:
    def test_spin_half_is_half_pauli(self):
        mats = sp.spin_matrices(Spin(1))
        assert np.array_equal(mats.s1.data, SIGMA1 / 2)
        assert np.array_equal(mats.s2.data, SIGMA2 / 2)
        assert np.array_equal(mats.s3.data, SIGMA3 / 2)

    def test_spin_one(self):
        mats = sp.spin_matrices(Spin(2))
        s1 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / SQRT2
        s2 = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / SQRT2
        s3 = np.diag([1.0, 0.0, -1.0])
        assert np.allclose(mats.s1.data, s1, atol=1e-15)
        assert np.allclose(mats.s2.data, s2, atol=1e-15)
        assert np.array_equal(mats.s3.data, s3)

    def test_spin_three_half(self):
        mats = sp.spin_matrices(Spin(3))
        s1 = 0.5 * np.array([[0, SQRT3, 0, 0],
                             [SQRT3, 0, 2, 0],
                             [0, 2, 0, SQRT3],
                             [0, 0, SQRT3, 0]])
        s3 = np.diag([1.5, 0.5, -0.5, -1.5])
        assert np.allclose(mats.s1.data, s1, atol=1e-15)
        assert np.array_equal(mats.s3.data, s3)

    def test_spin_two_s1(self):
        mats = sp.spin_matrices(Spin(4))
        s1 = np.array([[0, 1, 0, 0, 0],
                       [1, 0, SQRT6 / 2, 0, 0],
                       [0, SQRT6 / 2, 0, SQRT6 / 2, 0],
                       [0, 0, SQRT6 / 2, 0, 1],
                       [0, 0, 0, 1, 0]])
        assert np.allclose(mats.s1.data, s1, atol=1e-15)

    def test_spin_two_s2_follows_general_formula(self):
        # the printed spin-2 s2 has a stray entry at (2, 5) inconsistent
        # with hermiticity; the constructed matrix keeps the formula
        mats = sp.spin_matrices(Spin(4))
        assert mats.s2.data[1, 4] == 0.0
        assert np.array_equal(mats.s2.data, mats.s2.data.conj().T)


class TestAlgebraInvariants:
    @pytest.mark.parametrize("twice", list(range(1, 26)))
    def test_commutation_and_casimir(self, twice):
        mats = sp.spin_matrices(Spin(twice))
        n = twice + 1
        s = twice / 2.0
        pairs = ((mats.s1, mats.s2, mats.s3), (mats.s2, mats.s3, mats.s1),
                 (mats.s3, mats.s1, mats.s2))
        for a, b, c in pairs:
            defect = sp.frobenius_norm(
                sp.sub(sp.commutator(a, b), sp.scale(1j, c)))
            assert defect <= 1e-12 * n
        casimir = (mats.s1.data @ mats.s1.data + mats.s2.data @ mats.s2.data
                   + mats.s3.data @ mats.s3.data)
        target = s * (s + 1.0) * np.eye(n)
        assert np.linalg.norm(casimir - target) <= 1e-11 * n

    @pytest.mark.parametrize("twice", list(range(1, 26)))
    def test_exact_structure(self, twice):
        mats = sp.spin_matrices(Spin(twice))
        assert mats.s_minus == sp.adjoint(mats.s_plus)
        for m in (mats.s1, mats.s2, mats.s3):
            assert np.array_equal(m.data, m.data.conj().T)
        h = sp.nonnormal_hamiltonian(Spin(twice), 1, 1j)
        assert sp.trace(h) == 0.0


class TestBuilderBits:
    """Every operator keeps the bits of its defining expression on the
    entrywise raising operator, signed zeros included."""

    @pytest.mark.parametrize("twice", BUILDER_SPINS)
    def test_spin_matrices(self, twice):
        plus = ladder_plus_reference(twice)
        minus = plus.conj().T
        magnetic = twice / 2.0 - np.arange(twice + 1)
        expected = (plus, minus, (plus + minus) / 2.0,
                    -0.5j * (plus - minus),
                    np.diag(magnetic.astype(complex)))
        mats = sp.spin_matrices(Spin(twice))
        assert mats.spin == Spin(twice)
        got = (mats.s_plus, mats.s_minus, mats.s1, mats.s2, mats.s3)
        for g, e in zip(got, expected):
            assert np.array_equal(bit_pattern(g.data), bit_pattern(e))

    @pytest.mark.parametrize("twice", BUILDER_SPINS)
    def test_nonnormal_hamiltonian(self, twice):
        mats = sp.spin_matrices(Spin(twice))
        for axis, transverse in ((1, mats.s1), (2, mats.s2)):
            for z in BUILDER_COUPLINGS:
                got = sp.nonnormal_hamiltonian(Spin(twice), axis, z).data
                expected = mats.s3.data + complex(z) * transverse.data
                assert np.array_equal(bit_pattern(got),
                                      bit_pattern(expected)), (axis, z)


class TestNonnormalFamily:
    def test_spin_one_printed(self):
        h = sp.nonnormal_hamiltonian(Spin(2), 1, 1j)
        expected = np.array([[1, 1j / SQRT2, 0],
                             [1j / SQRT2, 0, 1j / SQRT2],
                             [0, 1j / SQRT2, -1]])
        assert np.allclose(h.data, expected, atol=1e-15)

    def test_spin_three_half_printed(self):
        h = sp.nonnormal_hamiltonian(Spin(3), 1, 1j)
        expected = np.array([[1.5, 1j * SQRT3 / 2, 0, 0],
                             [1j * SQRT3 / 2, 0.5, 1j, 0],
                             [0, 1j, -0.5, 1j * SQRT3 / 2],
                             [0, 0, 1j * SQRT3 / 2, -1.5]])
        assert np.allclose(h.data, expected, atol=1e-15)

    def test_zero_coupling_reduces_to_s3(self):
        h = sp.nonnormal_hamiltonian(Spin(1), 1, 0.0)
        assert np.array_equal(h.data, SIGMA3 / 2)

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            sp.nonnormal_hamiltonian(Spin(1), 3, 1j)

    def test_bool_axis(self):
        with pytest.raises(ValueError, match="axis"):
            sp.nonnormal_hamiltonian(Spin(1), True, 1j)

    @pytest.mark.parametrize("axis", [1.0, np.float64(2.0), 1.5],
                             ids=["1.0", "float64", "1.5"])
    def test_non_integer_axis(self, axis):
        with pytest.raises(ValueError, match="axis"):
            sp.nonnormal_hamiltonian(Spin(1), axis, 1j)
