"""Core dense-kernel tests: arithmetic, structure maps, rank, spectra."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import spinpoint as sp
from spinpoint import CMatrix, Tolerance
from spinpoint.errors import DimensionError, NonFiniteError

from conftest import (SIGMA1, SIGMA3, bit_pattern, char_poly_reference,
                      det_lu_reference, eigenvalues_stack_reference,
                      paired_spectra, random_complex, random_cmatrix,
                      random_hermitian, random_unitary)


class TestConstruction:
    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            CMatrix([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(NonFiniteError):
            CMatrix([[0.0, complex(0, np.nan)], [0.0, 1.0]])
        for entry in (complex(0.0, -np.inf), complex(np.nan, 0.0),
                      complex(np.inf, np.nan)):
            with pytest.raises(NonFiniteError):
                CMatrix([[1.0, 0.0], [0.0, entry]])

    @pytest.mark.parametrize("entry", [
        1.7e308, -1.7e308, complex(0.0, 1.7e308), complex(-1.7e308, -1.7e308),
        5e-324, complex(0.0, -5e-324),
    ])
    def test_accepts_extreme_finite(self, entry):
        assert CMatrix([[1.0, 0.0], [0.0, entry]]).data[1, 1] == entry

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
            Tolerance(value=-1.0)
        with pytest.raises(ValueError):
            Tolerance(value=np.inf)
        assert Tolerance().effective(CMatrix.identity(2)) == pytest.approx(
            1e-12 + 1e-12 * 2 * np.sqrt(2))

    def test_tolerance_has_one_keyword_only_value(self):
        # The spellings of the former absolute/relative pair fail loudly
        # instead of taking a new meaning.
        with pytest.raises(TypeError):
            Tolerance(1e-10)
        with pytest.raises(TypeError):
            Tolerance(absolute=1e-10, relative=1e-10)
        assert Tolerance(value=1e-10).value == 1e-10
        assert sp.DEFAULT_TOLERANCE == Tolerance(value=1e-12)

    def test_effective_threshold_of_one_matrix_and_of_a_stack(self, rng):
        tol = Tolerance(value=1e-6)
        stack = np.array([random_complex(rng, 2, 5) for _ in range(3)])
        floors = np.array([0.0, 1e-7, 1e-3])
        got = tol.effective(stack, floors)
        assert got.shape == (3,)
        for threshold, b, floor in zip(got, stack, floors):
            assert threshold == pytest.approx(
                max(1e-6, floor) + 1e-6 * 5 * np.linalg.norm(b), rel=1e-15)
        # One matrix gets a Python float, its entry of the stack.
        one = tol.effective(stack[0])
        assert type(one) is float and one == got[0]

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

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(2, 4), st.integers(0, 2 ** 31 - 1))
    def test_adjoint_involution(self, n, seed):
        a = random_cmatrix(np.random.default_rng(seed), n)
        assert sp.adjoint(sp.adjoint(a)) == a

    @settings(max_examples=25, deadline=None, derandomize=True)
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
        # Pivots below value + value * n * ||B||_F count as zero,
        # where B is A scaled to unit entries, so 2**k A has the rank of A.
        for k in (0, -60, 60):
            m = CMatrix(2.0 ** k * np.diag([1.0, 1e-9]))
            assert sp.rank(m, Tolerance(value=1e-6)) == 1
            assert sp.rank(m, Tolerance(value=1e-12)) == 2


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


def matrix_of_rank(rng, kind, n, r):
    """An n x n matrix of rank r: a product of random factors, that
    product made hermitian, or a normal matrix with n - r zero
    eigenvalues."""
    if kind == "product":
        return random_complex(rng, n, r) @ random_complex(rng, r, n)
    if kind == "hermitian":
        m = random_complex(rng, n, r) @ random_complex(rng, r, n)
        return (m + m.conj().T) / 2.0
    u = random_unitary(rng, n).data
    d = np.zeros(n, dtype=complex)
    d[:r] = random_complex(rng, 1, r)[0]
    return u @ np.diag(d) @ u.conj().T


class TestScaleInvariance:
    """Every rank and normality verdict is taken on the matrix scaled by a
    power of two to unit entries, so ``2**k A`` gets the verdicts of A."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 6), st.integers(0, 6),
           st.sampled_from(["product", "hermitian", "normal"]),
           st.integers(-1000, 1000), st.integers(0, 2 ** 31 - 1))
    def test_verdicts_invariant_under_power_of_two_scaling(self, n, r, kind,
                                                           k, seed):
        a = matrix_of_rank(np.random.default_rng(seed), kind, n, min(r, n))
        big = np.empty_like(a)
        with np.errstate(over="ignore", under="ignore"):
            big.real, big.imag = np.ldexp(a.real, k), np.ldexp(a.imag, k)
        # Only where every nonzero entry stays normal and finite is the
        # scaling exact both ways.
        parts, scaled_parts = a.view(float), big.view(float)
        assume(np.isfinite(scaled_parts).all())
        assume((abs(scaled_parts[parts != 0.0])
                >= np.finfo(float).tiny).all())
        m, scaled = CMatrix(a), CMatrix(big)
        assert sp.rank(scaled) == sp.rank(m)
        got, want = sp.nullspace(scaled), sp.nullspace(m)
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert np.array_equal(bit_pattern(x), bit_pattern(y))
        before, after = sp.normality_report(m), sp.normality_report(scaled)
        assert after.is_normal == before.is_normal
        assert after.is_hermitian == before.is_hermitian


def unit_scaled(a):
    """Reference: (e, 2**-e a), e putting the largest ``|re|`` or ``|im|``
    entry of ``2**-e a`` in [0.5, 1); e = 0 for a zero matrix."""
    a = np.asarray(a, dtype=complex)
    e = int(np.frexp(max(abs(a.real).max(), abs(a.imag).max()))[1])
    b = np.empty_like(a)
    b.real, b.imag = np.ldexp(a.real, -e), np.ldexp(a.imag, -e)
    return e, b


def one_matrix_elimination(a, threshold):
    """Reference: full-pivot elimination of one matrix, stopped at the
    first pivot at or below ``threshold``; the loop the lockstep routine
    must reproduce bit for bit."""
    m = np.array(a, dtype=complex)
    rows, cols = m.shape
    colperm = np.arange(cols)
    r = 0
    while r < min(rows, cols):
        sub_abs = np.abs(m[r:, r:])
        i, j = np.unravel_index(int(sub_abs.argmax()), sub_abs.shape)
        if sub_abs[i, j] <= threshold:
            break
        m[[r, r + i]] = m[[r + i, r]]
        m[:, [r, r + j]] = m[:, [r + j, r]]
        colperm[[r, r + j]] = colperm[[r + j, r]]
        m[r + 1:, r:] -= np.outer(m[r + 1:, r] / m[r, r], m[r, r:])
        r += 1
    return m, r, colperm


class TestFullPivotStack:
    """The lockstep full-pivot elimination against the one-matrix loop
    run on each matrix scaled to unit entries."""

    @staticmethod
    def assert_matches_reference(stack, tol=sp.DEFAULT_TOLERANCE,
                                 floors=None):
        from spinpoint.cmatrix import _full_pivot_eliminate
        if floors is None:
            reduced, ranks, colperms = _full_pivot_eliminate(stack, tol)
            floors = [0.0] * len(stack)
        else:
            reduced, ranks, colperms = _full_pivot_eliminate(stack, tol,
                                                             floors)
        assert reduced.shape == stack.shape
        assert len(ranks) == len(colperms) == len(stack)
        for k, (a, floor) in enumerate(zip(stack, floors)):
            e, b = unit_scaled(a)
            threshold = (max(tol.value, np.ldexp(floor, -e))
                         + tol.value * max(b.shape) * np.linalg.norm(b))
            m, r, colperm = one_matrix_elimination(b, threshold)
            assert ranks[k] == r, f"matrix {k}"
            assert np.array_equal(bit_pattern(reduced[k]), bit_pattern(m)), \
                f"matrix {k}"
            assert np.array_equal(colperms[k], colperm), f"matrix {k}"
        return ranks

    @pytest.mark.parametrize("axis", [1, 2])
    def test_spin_power_stacks(self, axis):
        from spinpoint import Spin, nonnormal_hamiltonian
        for twice in range(1, 26):
            h = nonnormal_hamiltonian(Spin(twice), axis, 1j).data
            n = twice + 1
            powers = [h]
            for _ in range(n - 2):
                powers.append(powers[-1] @ h)
            ranks = self.assert_matches_reference(np.array(powers))
            assert ranks == list(range(n - 1, 0, -1)), f"2s={twice}"

    @pytest.mark.parametrize("rows,cols", [(1, 1), (4, 4), (6, 3), (3, 6),
                                           (7, 5), (2, 8)])
    def test_random_stacks_of_mixed_rank(self, rng, rows, cols):
        made = [r for r in range(min(rows, cols) + 1) for _ in range(2)]
        stack = np.array([random_complex(rng, rows, r)
                          @ random_complex(rng, r, cols) for r in made])
        # Two full-rank matrices far from unit scale keep their rank.
        stack[-2] *= 1e-300
        stack[-1] *= 1e-9
        ranks = self.assert_matches_reference(stack)
        assert ranks == made

    def test_thresholds_stop_matrices_at_different_steps(self, rng):
        # One matrix with singular values 1 .. 1e-9, once per threshold: each
        # copy stops at its own step, and the copies that stop early must
        # not be reduced further while the others go on.
        u, v = random_unitary(rng, 5).data, random_unitary(rng, 5).data
        a = u @ np.diag([1.0, 1e-2, 1e-4, 1e-6, 1e-9]) @ v
        thresholds = [1e-12, 1e-8, 1e-5, 1e-3, 1e-1, 10.0]
        stack = np.array([a] * len(thresholds))
        exact = Tolerance(value=0.0)
        ranks = self.assert_matches_reference(stack, exact, thresholds)
        assert ranks == [5, 4, 3, 2, 1, 0]
        ranks = self.assert_matches_reference(stack[::-1].copy(), exact,
                                              thresholds[::-1])
        assert ranks == [0, 1, 2, 3, 4, 5]

    def test_stack_of_one(self, rng):
        for a in (np.zeros((1, 1)), np.ones((1, 1)), np.eye(3, k=1),
                  random_complex(rng, 2, 5), random_complex(rng, 5, 2),
                  random_complex(rng, 4, 2) @ random_complex(rng, 2, 4)):
            [r] = self.assert_matches_reference(
                np.array(a, dtype=complex)[None])
            assert sp.rank(CMatrix(a)) == r
            assert len(sp.nullspace(CMatrix(a))) == a.shape[1] - r

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 5),
           st.integers(0, 2 ** 31 - 1))
    def test_low_rank_products(self, rows, cols, count, seed):
        rng = np.random.default_rng(seed)
        made = rng.integers(0, min(rows, cols) + 1, size=count)
        stack = np.array([random_complex(rng, rows, r)
                          @ random_complex(rng, r, cols) for r in made])
        scales = 10.0 ** rng.uniform(-12, 1, size=count)
        floors = [s * np.linalg.norm(a) for s, a in zip(scales, stack)]
        self.assert_matches_reference(stack, Tolerance(value=0.0), floors)

    def test_empty_stack(self):
        # The rank chain of a matrix whose first power vanishes, such as
        # the zero matrix, ranks no power at all.
        from spinpoint.cmatrix import _full_pivot_eliminate
        reduced, ranks, colperms = _full_pivot_eliminate(
            np.zeros((0, 3, 3), dtype=complex), sp.DEFAULT_TOLERANCE)
        assert reduced.shape == (0, 3, 3) and colperms.shape == (0, 3)
        assert ranks == []


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


def zero_pivot_matrices(rng, m):
    """m x m matrices whose partially pivoted LU meets an exactly zero
    pivot column, one per step k: row-shuffled upper triangles with a
    zero k-th diagonal entry. Every multiplier is exactly zero, so column
    k is still exactly zero from row k down at step k."""
    out = []
    for k in range(m):
        a = np.triu(random_complex(rng, m))
        a[k, k] = 0.0
        out.append(a[rng.permutation(m)])
    return out


class TestLockstepStacks:
    """The lockstep LU determinant and Faddeev-LeVerrier recursion against
    the one-matrix loops, bit for bit."""

    @staticmethod
    def assert_det_matches(stack):
        from spinpoint.cmatrix import _det_lu
        got = _det_lu(stack)
        assert got.shape == (len(stack),)
        want = np.array([det_lu_reference(a) for a in stack], dtype=complex)
        assert np.array_equal(bit_pattern(got), bit_pattern(want))
        return got

    @staticmethod
    def assert_char_poly_matches(stack):
        from spinpoint.cmatrix import _char_poly
        got = _char_poly(stack)
        assert got.shape == (len(stack), stack.shape[-1] + 1)
        want = np.array([char_poly_reference(a) for a in stack])
        assert np.array_equal(bit_pattern(got), bit_pattern(want))

    def test_zero_pivot_columns_among_live_matrices(self, rng):
        # A dead matrix leaves the stack before its zero pivot divides, so
        # no warning is raised.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in (2, 3, 5, 7):
                dead = zero_pivot_matrices(rng, m)
                live = [random_complex(rng, m) for _ in dead]
                stack = np.array([a for pair in zip(dead, live) for a in pair])
                got = self.assert_det_matches(stack)
                assert np.array_equal(got[::2], np.zeros(m)), f"m={m}"
                assert np.all(got[1::2] != 0.0), f"m={m}"
                # A stack of dead matrices only ends the elimination early.
                assert not self.assert_det_matches(np.array(dead)).any()

    def test_one_by_one_and_stack_of_one(self, rng):
        ones = np.array([[[2.0 - 1.0j]], [[0.0]], [[-0.0 + 3.0j]]])
        self.assert_det_matches(ones)
        self.assert_char_poly_matches(ones)
        for a in (ones[0], np.zeros((3, 3)), np.eye(4), SIGMA3 + 1j * SIGMA1,
                  random_complex(rng, 6), zero_pivot_matrices(rng, 4)[2]):
            self.assert_det_matches(np.array(a, dtype=complex)[None])
            self.assert_char_poly_matches(np.array(a, dtype=complex)[None])
            m = CMatrix(a)
            assert sp.det(m) == det_lu_reference(a)
            assert np.array_equal(bit_pattern(sp.char_poly(m)),
                                  bit_pattern(char_poly_reference(m.data)))

    def test_char_poly_of_mixed_stacks(self, rng):
        for n in (1, 2, 3, 5, 8, 12):
            stack = np.array([random_complex(rng, n), np.zeros((n, n)),
                              np.triu(random_complex(rng, n)),
                              1e-3 * random_complex(rng, n)], dtype=complex)
            self.assert_char_poly_matches(stack)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 7), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
    def test_random_stacks(self, m, count, seed):
        rng = np.random.default_rng(seed)
        stack = np.array([random_complex(rng, m) for _ in range(count)])
        # Exact zero pivot columns in some matrices, integer entries in
        # others, so row swaps and early exits vary across the stack.
        for k in rng.integers(0, m, size=count // 2):
            i = int(rng.integers(count))
            stack[i] = zero_pivot_matrices(rng, m)[k]
        if count > 2:
            stack[-1] = rng.integers(-2, 3, size=(m, m))
        self.assert_det_matches(stack)
        self.assert_char_poly_matches(stack)


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

    def test_rejects_negative_exponent(self, rng):
        with pytest.raises(ValueError, match="k >= 0"):
            sp.matrix_power(random_cmatrix(rng, 3), -1)


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
        for n in [*range(1, 9), 12, 16, 26]:
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
        for n in [*range(2, 9), 12, 16, 26]:
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


def sheet_trace_node_stacks():
    """The node stacks of the benchmark's sheet-tracing loops: the 2x2
    pencil diag(0, 1) + z sigma1 under three seeded unitary similarities
    (radius 0.1 about i/2, twice about i/2, and about 0), and the spin
    pencils s3 + z s1 at 2s = 2, 3, 6 about i and about 1, 256 steps."""
    loops = []
    for seed in (1, 2, 3):
        q = random_unitary(np.random.default_rng(seed), 2).data
        a, b = q @ np.diag([0.0, 1.0]) @ q.conj().T, q @ SIGMA1 @ q.conj().T
        loops += [(f"2x2-{seed}-{center}-x{turns}", a, b, center, turns)
                  for center, turns in ((0.5j, 1), (0.5j, 2), (0.0, 1))]
    for twice in (2, 3, 6):
        mats = sp.spin_matrices(sp.Spin(twice))
        loops += [(f"spin{twice}-{center}", mats.s3.data, mats.s1.data,
                   center, 1) for center in (1j, 1.0)]
    stacks = []
    for name, a, b, center, turns in loops:
        path = sp.PathSpec(center=center, radius=0.1, steps=256, turns=turns)
        nodes = path.point(np.arange(1, 257) / 256)
        stacks.append((name, a + nodes[:, None, None] * b))
    return stacks


class TestStackMatchesReference:
    """Each row of the lockstep QR loop equals, bit for bit, the row of
    the reference loop with masks at every index and every bookkeeping
    step taken in full (``eigenvalues_stack_reference``)."""

    @staticmethod
    def assert_matches(stack):
        from spinpoint._schur import _eigenvalues_stack
        got = _eigenvalues_stack(stack)
        want = eigenvalues_stack_reference(stack)
        assert got.shape == want.shape == (stack.shape[0], stack.shape[-1])
        assert np.array_equal(bit_pattern(got), bit_pattern(want))

    @pytest.mark.parametrize("name, stack", sheet_trace_node_stacks(),
                             ids=[c[0] for c in sheet_trace_node_stacks()])
    def test_sheet_trace_node_stacks(self, name, stack):
        self.assert_matches(stack)

    def test_mixed_stacks_deflate_and_split_at_different_sweeps(self, rng):
        for n in [*range(1, 9), 12, 16]:
            split = random_complex(rng, n)
            split[n // 2:, :n // 2] = 0.0
            stack = TestEigenvalueStack.mixed_stack(rng, n)
            self.assert_matches(np.concatenate([stack, split[None]]))
            # The same matrices in another order, and halves of the stack.
            self.assert_matches(stack[::-1])
            self.assert_matches(stack[:len(stack) // 2])

    def test_cyclic_shift_takes_ad_hoc_shifts(self, rng):
        for n in [*range(2, 9), 12, 16]:
            shift = np.roll(np.eye(n), 1, axis=0)
            a = random_complex(rng, n)
            self.assert_matches(np.array([shift, a, shift, a]))
            self.assert_matches(np.array([shift, 2.0 * shift]))
        # This block goes 30 steps without deflating, so it takes a second
        # ad hoc shift at step 24.
        stalling = np.array([[-1, -1, -1, 1], [0, 0, 0, 1], [0, 1, 1, -1],
                             [-1, 0, 0, 1]], dtype=complex)
        self.assert_matches(stalling[None])
        self.assert_matches(np.array([stalling, random_complex(rng, 4)]))

    def test_rotations_stay_inside_the_union_of_blocks(self):
        # The first matrix deflates at once; the second splits at (1, 0),
        # so the union of the active blocks starts at 1. An identity
        # rotation at k = 0 would turn the first matrix's -0.0 into +0.0.
        stack = np.array([np.diag([-0.0, 1.0, 2.0]),
                          [[1, 2, 3], [0, 4, 5], [0, 6, 7]]], dtype=complex)
        self.assert_matches(stack)

    def test_zero_and_tiny_matrices_take_the_floor(self, rng):
        # Zero diagonals make the relative threshold exactly 0, so only the
        # floor decides: a 1e-20 subdiagonal below a unit superdiagonal
        # deflates on it, a unit one does not.
        for n in range(1, 9):
            floor_case = np.eye(n, k=1) + 1e-20 * np.eye(n, k=-1)
            stack = np.array([np.zeros((n, n)), 1e-300 * random_complex(rng, n),
                              floor_case, np.eye(n, k=1) + np.eye(n, k=-1),
                              random_complex(rng, n),
                              5e-324 * np.eye(n, k=-1)], dtype=complex)
            self.assert_matches(stack)
            self.assert_matches(stack[:2])

    def test_single_matrices_and_empty_stacks(self, rng):
        for n in range(1, 9):
            self.assert_matches(random_complex(rng, n)[None])
            self.assert_matches(np.zeros((0, n, n), dtype=complex))
        self.assert_matches(random_complex(rng, 1)[None].repeat(3, axis=0))

    @pytest.mark.parametrize("per_dim", [0, 1, 2])
    def test_budget_errors_match(self, rng, monkeypatch, per_dim):
        import spinpoint._schur as engine
        from spinpoint.errors import ConvergenceError
        monkeypatch.setattr(engine, "SWEEP_BUDGET_PER_DIM", per_dim)
        n = 6
        stack = np.array([np.diag(np.arange(n) + 1.0), random_complex(rng, n),
                          np.roll(np.eye(n), 1, axis=0)], dtype=complex)
        with pytest.raises(ConvergenceError) as info:
            engine._eigenvalues_stack(stack)
        with pytest.raises(ConvergenceError) as want:
            eigenvalues_stack_reference(stack)
        assert str(info.value) == str(want.value)
        assert info.value.block_index == want.value.block_index

