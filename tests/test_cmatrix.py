"""Core dense-kernel tests: arithmetic, structure maps, rank, spectra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinpoint as sp
from spinpoint import CMatrix, Tolerance
from spinpoint.errors import DimensionError, NonFiniteError

from conftest import (SIGMA1, SIGMA3, paired_spectra, random_complex,
                      random_cmatrix, random_hermitian, random_unitary)


class TestConstruction:
    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            CMatrix([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(NonFiniteError):
            CMatrix([[0.0, complex(0, np.nan)], [0.0, 1.0]])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            CMatrix([1.0, 2.0])
        with pytest.raises(ValueError):
            CMatrix(np.zeros((0, 3)))

    def test_immutable(self):
        m = CMatrix.identity(2)
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0
        with pytest.raises(AttributeError):
            m.data = None

    def test_equality_is_bit_exact(self):
        a = CMatrix([[1.0, 2.0], [3.0, 4.0]])
        b = CMatrix([[1.0, 2.0], [3.0, 4.0]])
        c = CMatrix([[1.0, 2.0], [3.0, 4.0 + 1e-15]])
        assert a == b
        assert a != c

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_operation_errors(self):
        big = CMatrix([[1e308]])
        with pytest.raises(NonFiniteError):
            sp.mul(big, big)
        with pytest.raises(NonFiniteError):
            sp.scale(1e308, big)

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            Tolerance(absolute=-1.0)
        with pytest.raises(ValueError):
            Tolerance(relative=np.inf)
        assert Tolerance().effective(CMatrix.identity(2)) == pytest.approx(
            1e-12 + 1e-12 * 2 * np.sqrt(2))

    def test_operator_sugar(self, rng):
        a = random_cmatrix(rng, 3)
        b = random_cmatrix(rng, 3)
        assert a + b == sp.add(a, b)
        assert a - b == sp.sub(a, b)
        assert (a @ b) == sp.mul(a, b)
        assert 2j * a == sp.scale(2j, a)
        assert (-a) == sp.scale(-1.0, a)
        assert a.h == sp.adjoint(a)


class TestArithmetic:
    def test_add_zero(self, rng):
        a = random_cmatrix(rng, 3)
        assert sp.add(a, CMatrix.zeros(3)) == a

    def test_pauli_involution(self, pauli):
        s1, _, _ = pauli
        assert sp.mul(s1, s1) == CMatrix.identity(2)

    def test_adjoint_of_ladder_is_lowering(self):
        # adjoint(s+) = s- for any spin; exercised here on spin 3/2
        from spinpoint import Spin, spin_matrices
        mats = spin_matrices(Spin(3))
        assert sp.adjoint(mats.s_plus) == mats.s_minus

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            sp.add(random_cmatrix(rng, 2), random_cmatrix(rng, 3))
        with pytest.raises(DimensionError):
            sp.mul(random_cmatrix(rng, 2, 3), random_cmatrix(rng, 2, 3))

    def test_commutator_pauli(self, pauli):
        s1, s2, s3 = pauli
        expected = sp.scale(2j, s2)
        assert np.allclose(sp.commutator(s3, s1).data, expected.data)

    def test_commutator_self_is_zero(self, rng):
        a = random_cmatrix(rng, 4)
        assert np.all(sp.commutator(a, a).data == 0.0)

    def test_phi_commutator_at_half_pi(self, pauli):
        s1, s2, s3 = pauli
        phase = np.exp(1j * np.pi / 2)
        left = CMatrix(s3.data + s1.data)
        right = CMatrix(s3.data + phase * s1.data)
        expected = 2j * s2.data * (phase - 1.0)
        assert np.allclose(sp.commutator(left, right).data, expected)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 2 ** 31 - 1))
    def test_adjoint_involution(self, n, seed):
        a = random_cmatrix(np.random.default_rng(seed), n)
        assert sp.adjoint(sp.adjoint(a)) == a

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 31 - 1))
    def test_direct_sum_norm_additive(self, n, m, seed):
        rng = np.random.default_rng(seed)
        a, b = random_cmatrix(rng, n), random_cmatrix(rng, m)
        total = sp.frobenius_norm(sp.direct_sum(a, b)) ** 2
        parts = sp.frobenius_norm(a) ** 2 + sp.frobenius_norm(b) ** 2
        assert total == pytest.approx(parts, rel=1e-12)


class TestKronecker:
    def test_matches_printed_four_by_four(self, pauli):
        s1, _, s3 = pauli
        got = sp.add(sp.kron(s3, s3), sp.scale(1j, sp.kron(s1, s1)))
        printed = CMatrix([[1, 0, 0, 1j],
                           [0, -1, 1j, 0],
                           [0, 1j, -1, 0],
                           [1j, 0, 0, 1]])
        assert got == printed

    def test_kron_identity_block_diagonal(self, rng):
        b = random_cmatrix(rng, 2)
        got = sp.kron(CMatrix.identity(2), b)
        assert got == sp.direct_sum(b, b)

    def test_kron_all_ones(self):
        ones = CMatrix(np.ones((2, 2)))
        assert sp.kron(ones, ones) == CMatrix(np.ones((4, 4)))

    def test_normal_kronecker_combination_spectrum(self, pauli):
        # decouples into [[1, i], [i, 1]] and [[-1, i], [i, -1]] blocks,
        # so the spectrum is {1+i, 1-i, -1+i, -1-i} (printed lists that
        # repeat -1+i are typos)
        s1, _, s3 = pauli
        m = sp.add(sp.kron(s3, s3), sp.scale(1j, sp.kron(s1, s1)))
        got, expected = paired_spectra(sp.eigenvalues(m),
                                       [1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
        assert np.abs(got - expected).max() < 1e-12

    def test_kron_eigenvalue_products(self, rng):
        # multiset {lambda_i mu_j} for diagonalizable factors
        for _ in range(5):
            n, m = rng.integers(2, 5), rng.integers(2, 5)
            a, b = random_cmatrix(rng, n), random_cmatrix(rng, m)
            la = np.asarray(sp.eigenvalues(a))
            lb = np.asarray(sp.eigenvalues(b))
            expected, got = paired_spectra(np.outer(la, lb).ravel(),
                                           sp.eigenvalues(sp.kron(a, b)))
            assert np.abs(np.sort(np.abs(expected)) - np.sort(np.abs(got))).max() < 1e-8
            assert np.abs(expected - got).max() < 1e-8


class TestNorms:
    def test_identity_norm(self):
        assert sp.frobenius_norm(CMatrix.identity(2)) == pytest.approx(np.sqrt(2))

    def test_nonnormal_two_by_two(self):
        a = CMatrix(SIGMA3 + 1j * SIGMA1)
        assert sp.frobenius_norm(a) == pytest.approx(2.0)

    def test_zero(self):
        assert sp.frobenius_norm(CMatrix.zeros(5)) == 0.0

    @pytest.mark.parametrize("k", [600, -600])
    def test_exact_multiple_beyond_squaring_range(self, rng, k):
        a = CMatrix(random_complex(rng, 4))
        assert sp.frobenius_norm(sp.scale(2.0 ** k, a)) == \
            2.0 ** k * sp.frobenius_norm(a)

    def test_huge_entries_keep_rank(self, rng):
        # Squaring 1e200 overflows; the tolerance must stay finite.
        a = CMatrix(1e200 * random_complex(rng, 4))
        assert sp.rank(a) == 4
        assert sp.nullspace(a) == []
        report = sp.nilpotency_report(a)
        assert not report.is_nilpotent
        assert report.index is None and report.rank_chain == ()


class TestRank:
    def test_zero_matrix(self):
        assert sp.rank(CMatrix.zeros(4)) == 0

    def test_spin_family_corank_one(self):
        from spinpoint import Spin, nonnormal_hamiltonian
        for twice, expected in ((3, 3), (4, 4)):
            h = nonnormal_hamiltonian(Spin(twice), 1, 1j)
            assert sp.rank(h) == expected

    def test_rank_invariant_under_unitaries(self, rng):
        from spinpoint import Spin, nonnormal_hamiltonian
        for twice in (1, 2, 3, 4, 7):
            h = nonnormal_hamiltonian(Spin(twice), 1, 1j)
            n = twice + 1
            u, v = random_unitary(rng, n), random_unitary(rng, n)
            rotated = sp.mul(sp.mul(u, h), v)
            assert sp.rank(rotated) == n - 1

    def test_rank_threshold_scaling(self):
        # pivots below absolute + relative * n * ||A|| count as zero
        m = CMatrix(np.diag([1.0, 1e-9]))
        assert sp.rank(m, Tolerance(absolute=1e-6, relative=0.0)) == 1
        assert sp.rank(m, Tolerance(absolute=1e-12, relative=0.0)) == 2


class TestNullspace:
    def test_matches_kernel_dimension(self, rng):
        a = random_cmatrix(rng, 4, 2)
        wide = CMatrix(np.hstack([a.data, a.data @ random_cmatrix(rng, 2, 3).data]))
        basis = sp.nullspace(wide)
        assert len(basis) == 3
        for v in basis:
            assert np.linalg.norm(wide.data @ v) < 1e-12 * np.linalg.norm(wide.data)
        # rank + nullity = cols on wide, tall and square rank-deficient inputs
        tall = CMatrix(random_complex(rng, 6, 2) @ random_complex(rng, 2, 3))
        square = CMatrix(random_complex(rng, 5, 3) @ random_complex(rng, 3, 5))
        for m, r in ((wide, 2), (tall, 2), (square, 3)):
            assert sp.rank(m) == r
            assert sp.rank(m) + len(sp.nullspace(m)) == m.cols


class TestCharPoly:
    def test_avoided_crossing_family(self):
        for eps in (0.3, 1.0, 2.5):
            h = CMatrix(np.diag([0.0, 1.0]) + eps * SIGMA1)
            coeffs = sp.char_poly(h)
            assert np.allclose(coeffs, [-eps ** 2, -1.0, 1.0], atol=1e-14)

    def test_nilpotent_two_by_two(self):
        coeffs = sp.char_poly(CMatrix(SIGMA3 + 1j * SIGMA1))
        assert np.allclose(coeffs, [0.0, 0.0, 1.0], atol=1e-15)

    def test_identity(self):
        coeffs = sp.char_poly(CMatrix.identity(2))
        assert np.allclose(coeffs, [1.0, -2.0, 1.0])

    def test_roots_are_eigenvalues(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            a = random_cmatrix(rng, n)
            coeffs = sp.char_poly(a)
            norm = sp.frobenius_norm(a)
            for lam in sp.eigenvalues(a):
                value = np.polyval(coeffs[::-1], lam)
                assert abs(value) <= 1e-8 * (1.0 + norm) ** n


class TestPower:
    def test_zeroth_power(self, rng):
        a = random_cmatrix(rng, 3)
        assert sp.matrix_power(a, 0) == CMatrix.identity(3)

    @pytest.mark.parametrize("twice,k", [(2, 3), (4, 5)])
    def test_spin_nilpotency(self, twice, k):
        from spinpoint import Spin, nonnormal_hamiltonian
        h = nonnormal_hamiltonian(Spin(twice), 1, 1j)
        powered = sp.matrix_power(h, k)
        assert sp.frobenius_norm(powered) < 1e-13 * sp.frobenius_norm(h) ** k

    def test_matches_repeated_multiplication(self, rng):
        a = random_cmatrix(rng, 3)
        direct = a.data @ a.data @ a.data @ a.data @ a.data
        assert np.allclose(sp.matrix_power(a, 5).data, direct, rtol=1e-12)


class TestExp:
    def test_nilpotent_truncates(self):
        a = CMatrix(SIGMA3 + 1j * SIGMA1)
        expected = CMatrix(np.eye(2) + a.data)
        assert sp.frobenius_norm(sp.sub(sp.matrix_exp(a), expected)) <= 1e-13

    @pytest.mark.parametrize("b", [1.0, 10.0])
    def test_normal_output_from_nonnormal_input(self, b):
        a = CMatrix([[1j * np.pi, b], [0.0, -1j * np.pi]])
        result = sp.matrix_exp(a)
        assert sp.frobenius_norm(sp.add(result, CMatrix.identity(2))) <= 1e-9

    @pytest.mark.parametrize("c", [1e160, 1e200, 1e300])
    def test_huge_nilpotent_truncates_exactly(self, c):
        # The norm of c J_2 overflows when its entries are squared; the
        # scaling by a power of two and the squarings are exact here.
        a = CMatrix([[0.0, c], [0.0, 0.0]])
        assert sp.matrix_exp(a) == CMatrix([[1.0, c], [0.0, 1.0]])

    def test_exp_of_zero(self):
        assert sp.matrix_exp(CMatrix.zeros(3)) == CMatrix.identity(3)

    def test_exp_inverse_pairing(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 6))
            a = random_cmatrix(rng, n)
            a = sp.scale(5.0 / max(sp.frobenius_norm(a), 5.0), a)
            prod = sp.mul(sp.matrix_exp(a), sp.matrix_exp(sp.scale(-1.0, a)))
            defect = sp.frobenius_norm(sp.sub(prod, CMatrix.identity(n)))
            assert defect <= 1e-10 * n

    def test_agrees_with_series_on_small_norm(self, rng):
        a = sp.scale(0.01, random_cmatrix(rng, 4))
        series = np.eye(4, dtype=complex)
        term = np.eye(4, dtype=complex)
        for k in range(1, 20):
            term = term @ a.data / k
            series += term
        assert np.allclose(sp.matrix_exp(a).data, series, atol=1e-15)


class TestEigenvaluesAndSchur:
    def test_diagonal_matrix(self):
        d = CMatrix.diagonal([3.0, -1.0, 2.0j])
        got = sp.eigenvalues(d)
        assert np.allclose(*paired_spectra(got, [3.0, -1.0, 2.0j]))

    def test_ordering_contract(self, rng):
        vals = sp.eigenvalues(random_cmatrix(rng, 6))
        mods = np.abs(vals)
        assert np.all(mods[:-1] >= mods[1:] - 1e-15)

    def test_ordering_tie_breaks(self):
        # equal moduli: descending real part, then descending imaginary
        d = CMatrix.diagonal([-1 - 1j, 1 - 1j, -1 + 1j, 1 + 1j])
        got = sp.eigenvalues(d)
        expected = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
        assert np.array_equal(got, expected)

    def test_phi_family_closed_form(self):
        for phi in (0.0, np.pi / 4, 0.9):
            h = CMatrix(SIGMA3 + np.exp(1j * phi) * SIGMA1)
            lam = np.sqrt(1.0 + np.exp(2j * phi))
            got, expected = paired_spectra(sp.eigenvalues(h), [lam, -lam])
            assert np.abs(got - expected).max() < 1e-12

    def test_double_zero_eigenvalue(self):
        got = sp.eigenvalues(CMatrix(SIGMA3 + 1j * SIGMA1))
        assert np.abs(np.asarray(got)).max() < 1e-12

    def test_schur_of_nonnormal_pair(self):
        form = sp.schur(CMatrix(SIGMA3 + 1j * SIGMA1))
        diag = np.diag(form.t.data)
        assert np.abs(diag).max() < 1e-10
        assert abs(abs(form.t.data[0, 1]) - 2.0) < 1e-10

    def test_schur_residuals_random(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 9))
            a = random_cmatrix(rng, n)
            form = sp.schur(a)
            scale = n * sp.frobenius_norm(a)
            assert form.residual <= 1e-12 * scale
            uni = np.linalg.norm(form.u.data.conj().T @ form.u.data - np.eye(n))
            assert uni <= 1e-12 * n
            strict_lower = np.abs(np.tril(form.t.data, -1))
            assert strict_lower.max() <= 1e-12 * scale

    def test_hermitian_schur_is_diagonal(self, rng):
        a = random_hermitian(rng, 5)
        form = sp.schur(a)
        off = form.t.data - np.diag(np.diag(form.t.data))
        assert np.abs(off).max() < 1e-13 * sp.frobenius_norm(a)

    def test_triangular_input_reconstructs(self, rng):
        t0 = CMatrix(np.triu(random_cmatrix(rng, 5).data))
        form = sp.schur(t0)
        assert form.residual <= 1e-12 * 5 * sp.frobenius_norm(t0)

    def test_eigenvalues_match_schur_diagonal(self, rng):
        a = random_cmatrix(rng, 6)
        vals, diag = paired_spectra(sp.eigenvalues(a), np.diag(sp.schur(a).t.data))
        assert np.abs(vals - diag).max() <= 1e-10 * sp.frobenius_norm(a)

    def test_cyclic_shift_and_one_by_one(self):
        # Every eigenvalue of the cyclic shift has modulus 1, so Wilkinson
        # shifts alone cycle; the exceptional shift is what converges here.
        for n in range(3, 13):
            shift = CMatrix(np.roll(np.eye(n), 1, axis=0))
            got, roots = paired_spectra(sp.eigenvalues(shift),
                                        np.exp(2j * np.pi * np.arange(n) / n))
            assert np.abs(got - roots).max() <= 1e-12, f"n={n}"
        one = CMatrix([[2.5 - 1.0j]])
        assert np.array_equal(sp.eigenvalues(one), [2.5 - 1.0j])
        form = sp.schur(one)
        assert form.u == CMatrix([[1.0]])
        assert form.residual == 0.0

    def test_trace_and_det_consistency(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            a = random_cmatrix(rng, n)
            vals = np.asarray(sp.eigenvalues(a))
            norm = sp.frobenius_norm(a)
            assert abs(vals.sum() - sp.trace(a)) <= 1e-11 * n * norm
            assert abs(vals.prod() - sp.det(a)) <= 1e-8 * abs(sp.det(a)) + 1e-12

    def test_requires_square(self, rng):
        with pytest.raises(DimensionError):
            sp.eigenvalues(random_cmatrix(rng, 2, 3))

    def test_convergence_error_carries_block_index(self, rng, monkeypatch):
        import spinpoint._schur as engine
        monkeypatch.setattr(engine, "SWEEP_BUDGET_PER_DIM", 0)
        from spinpoint.errors import ConvergenceError
        with pytest.raises(ConvergenceError) as info:
            sp.eigenvalues(random_cmatrix(rng, 5))
        assert info.value.block_index is not None
        assert 0 < info.value.block_index <= 4

    def test_schur_convergence_error_carries_block_index(self, rng,
                                                         monkeypatch):
        import spinpoint._schur as engine
        monkeypatch.setattr(engine, "SWEEP_BUDGET_PER_DIM", 0)
        from spinpoint.errors import ConvergenceError
        n = 5
        with pytest.raises(ConvergenceError) as info:
            sp.schur(random_cmatrix(rng, n))
        assert info.value.block_index is not None
        assert 0 < info.value.block_index <= n - 1


class TestQFreeChase:
    """``schur_decompose(a, want_q=False)``: no Q, only the active blocks
    updated, so only T's diagonal is meaningful, and it is the diagonal
    of the full form bit for bit."""

    @staticmethod
    def kinds(rng, n):
        # Block upper triangular: the Hessenberg form splits at n // 2, and
        # the QR steps on the trailing block leave rows above it to update.
        split = random_complex(rng, n)
        split[n // 2:, :n // 2] = 0.0
        return [random_complex(rng, n),
                rng.standard_normal((n, n)),
                random_hermitian(rng, n).data,
                np.triu(random_complex(rng, n)),
                split,
                np.zeros((n, n)),
                np.eye(n, k=1),
                np.roll(np.eye(n), 1, axis=0)]

    def test_diagonal_matches_full_schur(self, rng):
        from spinpoint._schur import schur_decompose
        for n in range(1, 27):
            for a in self.kinds(rng, n):
                t, q = schur_decompose(a, want_q=False)
                assert q is None
                full, _ = schur_decompose(a)
                assert np.array_equal(np.diag(t), np.diag(full)), f"n={n}"

    def test_full_form_reconstructs(self, rng):
        from spinpoint._schur import schur_decompose
        for n in range(1, 27):
            for a in self.kinds(rng, n):
                t, q = schur_decompose(a)
                scale = n * np.linalg.norm(a)
                assert np.linalg.norm(a - q @ t @ q.conj().T) <= 1e-12 * scale
                assert np.linalg.norm(q.conj().T @ q - np.eye(n)) <= 1e-12 * n
                assert not np.tril(t, -1).any()


class TestPowerOfTwoScaling:
    """Both QR loops scale by a power of two before squaring any entry, so
    results far outside 1e+/-154 are right, and exact multiples of the
    unscaled ones."""

    @pytest.mark.parametrize("k", [500, -500, 600, -600, 1000, -1000])
    def test_exact_multiples(self, rng, k):
        from spinpoint._schur import _eigenvalues_stack
        a = random_complex(rng, 4)
        scaled = 2.0 ** k * a
        assert np.array_equal(sp.eigenvalues(CMatrix(scaled)),
                              2.0 ** k * sp.eigenvalues(CMatrix(a)))
        assert np.array_equal(sp.schur(CMatrix(scaled)).t.data,
                              2.0 ** k * sp.schur(CMatrix(a)).t.data)
        rows = _eigenvalues_stack(np.array([a, scaled]))
        assert np.array_equal(rows[1], 2.0 ** k * rows[0])

    @pytest.mark.parametrize("c", [1e200, 1e-200, 1e160, 1e-160])
    def test_extreme_magnitudes(self, rng, c):
        a = random_complex(rng, 4)
        ref = sp.eigenvalues(CMatrix(a))
        scale = np.abs(ref).max()
        got = sp.eigenvalues(CMatrix(c * a))
        assert np.abs(got / c - ref).max() <= 1e-13 * scale
        form = sp.schur(CMatrix(c * a))
        assert 0.0 < form.residual <= 1e-13 * c * np.linalg.norm(a)


class TestEigenvalueStack:
    """The lockstep QR loop over an (N, n, n) stack."""

    @staticmethod
    def mixed_stack(rng, n):
        kinds = [random_complex(rng, n),
                 rng.standard_normal((n, n)),
                 random_hermitian(rng, n).data,
                 np.triu(random_complex(rng, n)),
                 np.diag(rng.choice([-1.0, 0.5j, 2.0], size=n)),
                 np.zeros((n, n)),
                 1e-3 * random_complex(rng, n),
                 random_complex(rng, n) @ np.diag(np.arange(n) + 1.0)]
        return np.array(kinds + [random_complex(rng, n) for _ in range(4)],
                        dtype=complex)

    def test_rows_match_scalar_eigenvalues(self, rng):
        from spinpoint._schur import _eigenvalues_stack
        for n in range(1, 9):
            stack = self.mixed_stack(rng, n)
            got = _eigenvalues_stack(stack)
            assert got.shape == (len(stack), n)
            for a, row in zip(stack, got):
                ref, vals = paired_spectra(sp.eigenvalues(CMatrix(a)), row)
                assert np.abs(ref - vals).max() <= 1e-13 * np.linalg.norm(a), \
                    f"n={n}"

    def test_neighbours_do_not_change_a_matrix(self, rng):
        # The cyclic shift needs exceptional shifts, so it keeps its active
        # block long after the random matrices beside it have deflated.
        from spinpoint._schur import _eigenvalues_stack
        for n in range(2, 9):
            a = random_complex(rng, n)
            shift = np.roll(np.eye(n), 1, axis=0)
            alone = _eigenvalues_stack(a[None])[0]
            stacked = _eigenvalues_stack(np.array([shift, a, shift, a]))
            assert np.array_equal(stacked[1], alone), f"n={n}"
            assert np.array_equal(stacked[3], alone), f"n={n}"
            assert np.array_equal(stacked[0], _eigenvalues_stack(shift[None])[0])

    def test_budget_error_carries_block_index(self, rng, monkeypatch):
        import spinpoint._schur as engine
        from spinpoint.errors import ConvergenceError
        monkeypatch.setattr(engine, "SWEEP_BUDGET_PER_DIM", 0)
        n = 5
        stack = np.array([random_complex(rng, n) for _ in range(3)])
        with pytest.raises(ConvergenceError) as info:
            engine._eigenvalues_stack(stack)
        assert info.value.block_index is not None
        assert 0 < info.value.block_index <= n - 1
