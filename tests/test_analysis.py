"""Normality and nilpotency diagnostics, the phi family, and the tangle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinpoint as sp
from spinpoint import CMatrix, Spin
from spinpoint.analysis import (POWER_ZERO_RATIO, _eigenvalue_scatter_threshold,
                                _radius_bound, _scaled_powers)
from spinpoint.cmatrix import _frobenius, _full_pivot_eliminate

from conftest import SIGMA1, SIGMA3, paired_spectra, random_cmatrix, \
    random_complex, random_hermitian, random_unitary


def spin_hamiltonian(twice, axis=1):
    return sp.nonnormal_hamiltonian(Spin(twice), axis, 1j)


def commutator_oracle(a, b):
    """Independent check: A + iB (A, B hermitian) is normal iff [A, B] = 0,
    since its normality defect equals 2 ||[A, B]||_F."""
    threshold = sp.DEFAULT_TOLERANCE.effective(CMatrix(a.data + 1j * b.data))
    return 2.0 * sp.frobenius_norm(sp.commutator(a, b)) <= threshold


class TestNormalityReport:
    def test_nonnormal_two_by_two(self):
        report = sp.normality_report(CMatrix(SIGMA3 + 1j * SIGMA1))
        assert not report.is_normal
        assert report.henrici == pytest.approx(2.0, abs=1e-12)

    def test_normal_non_hermitian_kronecker(self, pauli):
        s1, _, s3 = pauli
        m = sp.add(sp.kron(s3, s3), sp.scale(1j, sp.kron(s1, s1)))
        report = sp.normality_report(m)
        assert report.is_normal
        assert not report.is_hermitian

    def test_eigensolver_failure_blanks_only_henrici(self, monkeypatch):
        def failing_schur(a):
            raise sp.ConvergenceError("no deflation", block_index=1)

        a = CMatrix(SIGMA3 + 1j * SIGMA1)
        expected = sp.normality_report(a)
        monkeypatch.setattr("spinpoint.analysis.schur_decompose", failing_schur)
        report = sp.normality_report(a)
        assert report.henrici is None
        assert report.defect == expected.defect > 0.0
        assert (report.is_normal, report.is_hermitian) == (False, False)

    def test_finite_normal_matrix_whose_spectrum_overflows(self):
        # The eigenvalues of 1e308 * ones(2, 2) are 0 and 2e308; the report
        # needs no entry of A past the float range, and prints no warning.
        report = sp.normality_report(CMatrix(1e308 * np.ones((2, 2))))
        assert (report.is_normal, report.is_hermitian) == (True, True)
        assert report.defect == 0.0
        assert np.isfinite(report.henrici)

    def test_hermitian_input(self, rng):
        report = sp.normality_report(random_hermitian(rng, 4))
        assert report.defect == 0.0
        assert report.is_normal
        assert report.is_hermitian

    def test_henrici_matches_definition(self, rng):
        a = random_cmatrix(rng, 5)
        report = sp.normality_report(a)
        direct = np.sqrt(max(
            sp.frobenius_norm(a) ** 2
            - np.sum(np.abs(np.asarray(sp.eigenvalues(a))) ** 2), 0.0))
        assert report.henrici == pytest.approx(direct, rel=1e-6, abs=1e-7)

    def test_henrici_zero_iff_normal(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            u = random_unitary(rng, n)
            d = CMatrix.diagonal(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            normal = sp.mul(sp.mul(u, d), sp.adjoint(u))
            report = sp.normality_report(normal)
            assert report.henrici <= 1e-10
            assert report.defect <= 1e-10 * n
            messy = random_cmatrix(rng, n)
            messy_report = sp.normality_report(messy)
            if messy_report.defect > 1e-6:
                assert messy_report.henrici > 1e-10

    @pytest.mark.parametrize("k", [-45, -27, -23, -10, 0, 13, 20, 100, 300,
                                   498])
    def test_verdict_is_scale_free(self, k):
        # The defect is quadratic in the matrix and the threshold has a
        # constant term, so both verdicts are taken on the matrix scaled to
        # unit entries: 2**k A keeps the verdicts of A; its defect is 4**k
        # and its Henrici departure 2**k those of A.
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 3).data
        pair = (h @ h + 2.0 * h, h @ h @ h - h)
        c = 2.0 ** k
        assert sp.hermitian_pair_is_normal(*(CMatrix(c * m)
                                             for m in pair)) is True
        u = random_unitary(rng, 4).data
        normal = u @ np.diag(random_complex(rng, 4, 1)[:, 0]) @ u.conj().T
        jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
        for m, is_normal, is_hermitian in ((pair[0], True, True),
                                           (normal, True, False),
                                           (jordan, False, False)):
            base = sp.normality_report(CMatrix(m))
            scaled = sp.normality_report(CMatrix(c * m))
            assert base.is_normal is scaled.is_normal is is_normal
            assert base.is_hermitian is scaled.is_hermitian is is_hermitian
            assert scaled.defect == c * c * base.defect
            assert scaled.henrici == c * base.henrici
        with pytest.raises(ValueError, match="matrix a is not hermitian"):
            sp.hermitian_pair_is_normal(CMatrix(c * jordan), CMatrix.zeros(2))

    def test_tiny_jordan_block_is_not_hermitian(self):
        # 1e-13 J_2 is within 1e-12 of its adjoint in the units of A, but
        # it is no more hermitian than J_2.
        jordan = CMatrix(1e-13 * np.array([[0.0, 1.0], [0.0, 0.0]]))
        report = sp.normality_report(jordan)
        assert report.is_hermitian is False and report.is_normal is False
        with pytest.raises(ValueError, match="matrix a is not hermitian"):
            sp.hermitian_pair_is_normal(jordan, CMatrix.zeros(2))


class TestHermitianPair:
    def test_pauli_pair_not_normal(self, pauli):
        s1, _, s3 = pauli
        assert sp.hermitian_pair_is_normal(s3, s1) is False

    def test_same_matrix_is_normal(self, rng):
        a = random_hermitian(rng, 3)
        assert sp.hermitian_pair_is_normal(a, a) is True

    def test_diagonal_pair(self):
        a = CMatrix.diagonal([1.0, 2.0])
        b = CMatrix.diagonal([3.0, 4.0])
        assert sp.hermitian_pair_is_normal(a, b) is True

    def test_rejects_non_hermitian(self, rng):
        a = random_cmatrix(rng, 3)
        with pytest.raises(ValueError):
            sp.hermitian_pair_is_normal(a, random_hermitian(rng, 3))

    def test_rejects_blocks_of_different_sizes(self, rng):
        with pytest.raises(sp.DimensionError, match="3 vs 2"):
            sp.hermitian_pair_is_normal(random_hermitian(rng, 3),
                                        random_hermitian(rng, 2))

    def test_polynomials_of_common_matrix_commute(self, rng):
        for _ in range(20):
            c = random_hermitian(rng, 4)
            a = CMatrix(c.data @ c.data + 2.0 * c.data)
            b = CMatrix(c.data @ c.data @ c.data - c.data)
            assert sp.hermitian_pair_is_normal(a, b) is True
            assert commutator_oracle(a, b)

    def test_generic_pairs_do_not(self, rng):
        count = 0
        for _ in range(20):
            a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
            if sp.frobenius_norm(sp.commutator(a, b)) > 1e-3:
                count += 1
                assert sp.hermitian_pair_is_normal(a, b) is False
                assert not commutator_oracle(a, b)
        assert count == 20

    def test_near_threshold_pair_follows_defect(self):
        # The defect of A + iB and 2 ||[A, B]|| round to opposite sides of
        # the threshold here; the verdict is the defect test's.
        rng = np.random.default_rng(1)
        a = random_hermitian(rng, 3)
        b = CMatrix(6.544801980564299e-13 * random_hermitian(rng, 3).data)
        verdict = sp.hermitian_pair_is_normal(a, b)
        assert isinstance(verdict, bool)
        assert verdict == sp.normality_report(
            CMatrix(a.data + 1j * b.data)).is_normal

    def test_pair_and_phi_family_skip_schur(self, rng, monkeypatch):
        # Both answers need only the defect, never a Schur form.
        pairs = [(random_hermitian(rng, 4), random_hermitian(rng, 4))
                 for _ in range(3)]
        pairs += [(a, a) for a, _ in pairs]
        verdicts = [
            sp.normality_report(CMatrix(a.data + 1j * b.data)).is_normal
            for a, b in pairs]
        phis = (0.0, 0.7, np.pi / 2)
        defects = [sp.normality_report(sp.phi_family(phi).matrix).defect
                   for phi in phis]

        def no_schur(*args, **kwargs):
            raise AssertionError("schur called")

        monkeypatch.setattr("spinpoint.analysis.schur_decompose", no_schur)
        got = [sp.hermitian_pair_is_normal(a, b) for a, b in pairs]
        assert got == verdicts
        assert verdicts == [False] * 3 + [True] * 3
        assert [sp.phi_family(phi).defect for phi in phis] == defects


class TestNilpotency:
    @pytest.mark.parametrize("twice,axis", [(2, 1), (3, 1), (2, 2)])
    def test_low_spin_reports(self, twice, axis):
        report = sp.nilpotency_report(spin_hamiltonian(twice, axis))
        n = twice + 1
        assert report.is_nilpotent
        assert report.index == n
        assert report.rank_chain == tuple(range(n - 1, -1, -1))

    def test_identity_not_nilpotent(self):
        for n in (1, 4, 26):
            report = sp.nilpotency_report(CMatrix.identity(n))
            assert not report.is_nilpotent
            assert report.index is None
            assert report.rank_chain == ()

    def test_contraction_not_nilpotent(self):
        report = sp.nilpotency_report(sp.scale(0.5, CMatrix.identity(26)))
        assert not report.is_nilpotent

    def test_random_matrix_not_nilpotent(self, rng):
        report = sp.nilpotency_report(random_cmatrix(rng, 5))
        assert not report.is_nilpotent

    def test_strict_jordan_block(self):
        j = CMatrix(np.eye(6, k=1))
        report = sp.nilpotency_report(j)
        assert report.is_nilpotent
        assert report.index == 6
        assert report.rank_chain == (5, 4, 3, 2, 1, 0)

    def test_zero_matrix(self):
        report = sp.nilpotency_report(CMatrix.zeros(3))
        assert report.is_nilpotent
        assert report.index == 1
        assert report.rank_chain == (0,)

    @pytest.mark.parametrize("n,c", [(8, 0.05), (12, 0.1), (26, 0.3)])
    def test_scaled_identity_not_nilpotent(self, n, c):
        # The powers fall below the zero ratio within n steps and every
        # eigenvalue sits under the scatter threshold, but the rank chain
        # (n, ..., n, 0) is no Jordan structure.
        report = sp.nilpotency_report(sp.scale(c, CMatrix.identity(n)))
        assert not report.is_nilpotent
        assert report.index is None
        assert report.rank_chain == ()

    def test_shifted_jordan_block_not_nilpotent(self):
        for n, c in ((5, 0.05), (12, 0.1)):
            shifted = CMatrix(np.eye(n, k=1) + c * np.eye(n))
            assert not sp.nilpotency_report(shifted).is_nilpotent

    @pytest.mark.parametrize("sizes,chain", [((3, 2), (3, 1, 0)),
                                             ((4, 1), (3, 2, 1, 0))])
    def test_jordan_direct_sums(self, sizes, chain):
        # The spin chains for 2s = 1..25 are pinned by acceptance
        # criterion 02; these have more than one Jordan block.
        blocks = [CMatrix(np.eye(k, k=1)) for k in sizes]
        report = sp.nilpotency_report(sp.direct_sum(*blocks))
        assert report.is_nilpotent
        assert report.index == max(sizes)
        assert report.rank_chain == chain

    @staticmethod
    def perturbed_jordan(d):
        # J_4 + d e_4 e_1^T: eigenvalues d^(1/4) times the fourth roots of 1.
        a = np.eye(4, k=1)
        a[3, 0] = d
        return CMatrix(a)

    def test_eigenvalue_gate_decides(self, monkeypatch):
        # d = 5e-12: the powers vanish at k = 4 and the chain (3, 2, 1, 0)
        # is a Jordan structure; only max |lambda| = 1.50e-3 over the
        # scatter threshold 1.33e-3 says "not nilpotent".
        a = self.perturbed_jordan(5e-12)
        assert abs(np.abs(sp.eigenvalues(a)).max() - 1.50e-3) < 1e-5
        assert not sp.nilpotency_report(a).is_nilpotent
        monkeypatch.setattr(sp.analysis, "_eigenvalue_scatter_threshold",
                            lambda m: np.inf)
        ungated = sp.nilpotency_report(a)
        assert ungated.is_nilpotent
        assert ungated.index == 4
        assert ungated.rank_chain == (3, 2, 1, 0)

    def test_eigenvalue_gate_admits_smaller_perturbation(self):
        # d = 1e-12: max |lambda| = 1.0e-3 is under the threshold.
        report = sp.nilpotency_report(self.perturbed_jordan(1e-12))
        assert report.is_nilpotent
        assert report.index == 4
        assert report.rank_chain == (3, 2, 1, 0)


def gate_first_oracle(a, tol=sp.DEFAULT_TOLERANCE):
    """Independent check: the nilpotency decision made the way it was
    before the power bound. The computed eigenvalues gate first, then the
    powers of A itself, unscaled, each ranked by the full-pivot
    elimination, which applies tol to the power scaled to unit entries.
    Returns (is_nilpotent, index, rank_chain)."""
    n = a.rows
    if np.abs(sp.eigenvalues(a)).max() > _eigenvalue_scatter_threshold(a):
        return False, None, ()
    powers = np.empty((n, n, n), dtype=complex)
    current = np.eye(n, dtype=complex)
    running_max = sp.frobenius_norm(a)
    for k in range(1, n + 1):
        current = np.matmul(current, a.data, out=powers[k - 1])
        nrm = _frobenius(current)
        running_max = max(running_max, nrm)
        if nrm <= POWER_ZERO_RATIO * running_max:
            genuine = powers[:k - 1]
            chain = _full_pivot_eliminate(genuine, tol)[1] + [0]
            weyr = -np.diff([n] + chain)
            if weyr.min() < 1 or (np.diff(weyr) > 0).any():
                return False, None, ()
            return True, k, tuple(chain)
    return False, None, ()


def oracle_cases():
    """Seeded inputs on both sides of every stage of the decision."""
    cases = [spin_hamiltonian(twice, axis).data
             for axis in (1, 2) for twice in range(1, 26)]
    for n in (1, 2, 3, 4, 6, 8):
        for c in [*10.0 ** np.arange(-7, 4), 1e-300, 1e-320]:
            cases += [c * np.eye(n, k=1), c * np.eye(n)]
    for d in np.logspace(-14, -6, 17):
        a = np.eye(4, k=1)
        a[3, 0] = d
        cases.append(a)
    for n in (2, 4, 5, 8, 12):
        for c in (1e-9, 1e-6, 1e-3, 0.05, 0.1, 1.0):
            cases.append(np.eye(n, k=1) + c * np.eye(n))
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        # Jordan blocks split where the superdiagonal is cut.
        j = np.eye(n, k=1)
        cuts = rng.choice(np.arange(1, n), rng.integers(0, n - 1),
                          replace=False)
        j[cuts - 1, cuts] = 0.0
        s = random_unitary(rng, n).data
        u = random_complex(rng, n) + 3.0 * np.eye(n)
        for delta in (0.0, 1e-12, 1e-9, 1e-6):
            noise = delta * random_complex(rng, n)
            cases.append(s @ j @ s.conj().T + noise)
            cases.append(u @ j @ np.linalg.inv(u) + noise)
    return [CMatrix(a) for a in cases]


def rank_one_nilpotent(rng, n):
    """x y^T with y^T x = 0 up to rounding."""
    x, z = random_complex(rng, 2, n)
    return np.outer(x, z - x * ((x @ z) / (x @ x)))


class TestScaleFreeVerdicts:
    """The verdicts that changed when every rank came to be taken on the
    matrix scaled to unit entries. Each was wrong while the threshold's
    constant term was applied in the units of A."""

    @pytest.mark.parametrize("n,c", [(2, 1e-300), (2, 1e-320), (3, 1e-7),
                                     (3, 1e-6), (4, 1e-4)])
    def test_small_jordan_block_is_nilpotent(self, n, c):
        report = sp.nilpotency_report(CMatrix(c * np.eye(n, k=1)))
        assert report.is_nilpotent
        assert report.index == n
        assert report.rank_chain == tuple(range(n - 1, -1, -1))

    def test_noisy_similar_jordan_block_is_nilpotent(self):
        # Oracle case 648: u J_6 u^-1 plus 1e-12 noise, u non-unitary.
        report = sp.nilpotency_report(oracle_cases()[648])
        assert report.is_nilpotent
        assert report.index == 6
        assert report.rank_chain == (5, 4, 3, 2, 1, 0)

    @pytest.mark.parametrize("c", [1e-300, 1e-320])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
    def test_tiny_identity_and_jordan_ranks(self, n, c):
        assert sp.rank(CMatrix(c * np.eye(n))) == n
        assert sp.rank(CMatrix(c * np.eye(n, k=1))) == n - 1

    def test_noisy_three_by_three_has_full_rank(self):
        # Oracle case 328: a 3x3 plus 1e-12 noise; its smallest pivot
        # clears the threshold once its constant term is in the binade of
        # its largest entry.
        assert sp.rank(oracle_cases()[328]) == 3

    def test_tiny_jordan_powers_keep_their_ranks(self):
        # The powers of 1e-5 J_4 have entries far below the tolerance
        # value and keep their ranks. The verdict stays "not
        # nilpotent": the running-maximum power test counts A^3 as zero
        # (ROADMAP item 9).
        a = CMatrix(1e-5 * np.eye(4, k=1))
        assert [sp.rank(sp.matrix_power(a, k)) for k in (1, 2, 3)] == \
            [3, 2, 1]


class TestNilpotencyCertificate:
    def test_same_decision_as_gate_first_oracle(self):
        cases = oracle_cases()
        got = [sp.nilpotency_report(a) for a in cases]
        got = [(r.is_nilpotent, r.index, r.rank_chain) for r in got]
        assert got == [gate_first_oracle(a) for a in cases]
        # Both verdicts occur.
        assert 0 < sum(verdict for verdict, _, _ in got) < len(got)

    @pytest.mark.parametrize("c", [1e100, 1e200, 1e300])
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_huge_jordan_block(self, n, c):
        # The powers are formed of A scaled to entries below 1, so none
        # overflows (pytest turns a RuntimeWarning into an error).
        report = sp.nilpotency_report(CMatrix(c * np.eye(n, k=1)))
        assert report.is_nilpotent
        assert report.index == n
        assert report.rank_chain == tuple(range(n - 1, -1, -1))

    def test_spin_family_needs_no_eigenvalues(self, rng, monkeypatch):
        def no_eigenvalues(*args, **kwargs):
            raise AssertionError("eigenvalues called")

        monkeypatch.setattr("spinpoint.analysis.eigenvalues", no_eigenvalues)
        for axis in (1, 2):
            for twice in range(1, 26):
                report = sp.nilpotency_report(spin_hamiltonian(twice, axis))
                n = twice + 1
                assert report.is_nilpotent
                assert report.index == n
                assert report.rank_chain == tuple(range(n - 1, -1, -1))
        # No power of a random matrix vanishes: rejected before the gate.
        assert not sp.nilpotency_report(random_cmatrix(rng, 5)).is_nilpotent

    def test_bound_covers_rounding_of_rank_one_squares(self):
        # The computed square of x y^T is often far below the true one,
        # so only the rounding term of the bound covers rho(A).
        rng = np.random.default_rng(11)
        for n in range(2, 7):
            for _ in range(40):
                a = rank_one_nilpotent(rng, n)
                e, _, norms, _ = _scaled_powers(CMatrix(a))
                assert (_radius_bound(e, norms, n)
                        >= np.abs(np.linalg.eigvals(a)).max())

    def test_bound_covers_entries_lost_to_scaling(self):
        # The scaled matrix [[0, 1/2], [0, 0]] loses the subnormal entry
        # and is nilpotent; A is not: rho(A) = 2**-537.
        a = np.array([[0.0, 1.0], [2.0 ** -1074, 0.0]])
        e, _, norms, index = _scaled_powers(CMatrix(a))
        assert index == 2 and norms[1] == 0.0
        assert _radius_bound(e, norms, 2) >= 2.0 ** -537

    def test_bound_over_threshold_falls_back(self, monkeypatch):
        # J_4 + d e_4 e_1^T at d = 5e-12: the bound, 1.78e-3, is over the
        # threshold, 1.33e-3, so the computed eigenvalues decide.
        a = TestNilpotency.perturbed_jordan(5e-12)
        e, _, norms, _ = _scaled_powers(a)
        assert _radius_bound(e, norms, 4) > _eigenvalue_scatter_threshold(a)
        calls = []

        def counted(m):
            calls.append(m)
            return sp.eigenvalues(m)

        monkeypatch.setattr("spinpoint.analysis.eigenvalues", counted)
        assert not sp.nilpotency_report(a).is_nilpotent
        assert calls == [a]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 8), st.sampled_from(["random", "similar", "rank_one"]),
           st.one_of(st.just(0), st.integers(-150, 150)),
           st.integers(0, 2 ** 31 - 1))
    def test_bound_is_above_spectral_radius(self, n, kind, exponent, seed):
        rng = np.random.default_rng(seed)
        if kind == "random":
            a = random_complex(rng, n)
        elif kind == "similar":
            # A perturbed Jordan block under a non-unitary similarity.
            u = random_complex(rng, n) + 3.0 * np.eye(n)
            a = u @ np.eye(n, k=1) @ np.linalg.inv(u)
            a = a + 10.0 ** rng.uniform(-16, -2) * random_complex(rng, n)
        else:
            a = rank_one_nilpotent(rng, n)
        a = 10.0 ** exponent * a
        e, _, norms, _ = _scaled_powers(CMatrix(a))
        assert _radius_bound(e, norms, n) >= np.abs(np.linalg.eigvals(a)).max()


class TestClosureProperties:
    def test_kron_and_direct_sum_preserve_nonnormality(self, rng):
        trials = 0
        while trials < 10:
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            a, b = random_cmatrix(rng, n), random_cmatrix(rng, m)
            if sp.normality_report(a).defect <= 1e-6 or \
                    sp.normality_report(b).defect <= 1e-6:
                continue
            trials += 1
            assert sp.normality_report(sp.kron(a, b)).defect > 1e-8
            assert sp.normality_report(sp.direct_sum(a, b)).defect > 1e-8

    def test_nonnormal_nilpotent_exponential_is_nonnormal(self):
        for twice in range(1, 26):
            h = spin_hamiltonian(twice)
            defect = sp.normality_report(sp.matrix_exp(h)).defect
            assert defect > 1e-6

    def test_normal_exponential_stays_normal(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            u = random_unitary(rng, n)
            d = CMatrix.diagonal(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            normal = sp.mul(sp.mul(u, d), sp.adjoint(u))
            defect = sp.normality_report(sp.matrix_exp(normal)).defect
            assert defect <= 1e-10 * n

    def test_single_jordan_block_structure(self):
        for twice in (1, 5, 10, 25):
            h = spin_hamiltonian(twice)
            n = twice + 1
            assert sp.rank(h) == n - 1
            report = sp.nilpotency_report(h)
            assert report.rank_chain == tuple(n - k for k in range(1, n + 1))


class TestPhiFamily:
    def test_hermitian_endpoint(self):
        point = sp.phi_family(0.0)
        assert point.defect == 0.0
        lam = sorted([point.eigenvalues[0].real, point.eigenvalues[1].real])
        assert lam == pytest.approx([-np.sqrt(2), np.sqrt(2)])

    def test_defective_endpoint(self):
        point = sp.phi_family(np.pi / 2)
        assert abs(point.eigenvalues[0]) < 1e-7
        assert abs(point.eigenvalues[1]) < 1e-7
        assert point.defect > 1.0

    def test_closed_form_matches_qr(self):
        for phi in np.linspace(0.05, np.pi / 2 - 0.05, 9):
            point = sp.phi_family(phi)
            got, expected = paired_spectra(sp.eigenvalues(point.matrix),
                                           point.eigenvalues)
            assert np.abs(got - expected).max() < 1e-12

    def test_eigenvectors_satisfy_equation(self):
        for phi in (0.3, 1.2):
            point = sp.phi_family(phi)
            for lam, vec in zip(point.eigenvalues, point.eigenvectors_raw):
                resid = np.linalg.norm(point.matrix.data @ vec - lam * vec)
                assert resid < 1e-13

    def test_bool_phi_is_refused(self):
        with pytest.raises(ValueError, match="phi"):
            sp.phi_family(True)

    @pytest.mark.parametrize("phi", [np.inf, -np.inf, np.nan])
    def test_non_finite_phi_is_refused(self, phi):
        with pytest.raises(ValueError, match="phi must be finite"):
            sp.phi_family(phi)

    def test_out_of_range_flag(self):
        assert sp.phi_family(0.7).in_range
        assert not sp.phi_family(2.0).in_range
        assert not sp.phi_family(-0.1).in_range


def product_state_tangle_oracle(v, grid=24):
    """Independent check: tangle from the closest product state.

    Scans unit product states a (x) b on a phase/angle grid; the best
    squared overlap w gives the tangle as 4 w (1 - w) for unit vectors.
    """
    angles = np.linspace(0.0, np.pi / 2, grid)
    phases = np.linspace(0.0, 2 * np.pi, 2 * grid, endpoint=False)
    alpha, beta = np.meshgrid(angles, phases, indexing="ij")
    states = np.stack([np.cos(alpha).ravel(),
                       (np.exp(1j * beta) * np.sin(alpha)).ravel()], axis=1)
    m = np.asarray(v).reshape(2, 2)
    overlaps = np.abs(states.conj() @ m @ states.T.conj()) ** 2
    best = overlaps.max()
    return 4.0 * best * (1.0 - best)


class TestTangle:
    def test_spin_three_half_kernel_vector(self):
        v = np.array([1j, -np.sqrt(3), -1j * np.sqrt(3), 1.0]) / np.sqrt(8)
        assert sp.two_qubit_tangle(v) == pytest.approx(0.25, abs=1e-12)
        # independent oracle (grid-limited accuracy) before trusting the
        # frozen value
        assert product_state_tangle_oracle(v, grid=40) == pytest.approx(0.25, abs=5e-3)

    def test_product_state(self):
        assert sp.two_qubit_tangle(np.array([1.0, 0, 0, 0])) == 0.0

    def test_bell_state(self):
        v = np.array([1.0, 0, 0, 1.0]) / np.sqrt(2)
        assert sp.two_qubit_tangle(v) == pytest.approx(1.0, abs=1e-14)

    def test_zero_iff_product(self, rng):
        for _ in range(20):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            assert sp.two_qubit_tangle(v) <= 1e-12

    def test_rejects_bad_input(self, rng):
        with pytest.raises(Exception):
            sp.two_qubit_tangle(np.ones(3))
        with pytest.raises(ValueError):
            sp.two_qubit_tangle(np.array([1.0, 0, 0, 1.0]))
