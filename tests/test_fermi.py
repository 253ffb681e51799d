"""Quadratic Fermi-operator representation: block rule, Fock brute force,
and spectra."""

import numpy as np
import pytest

import spinpoint as sp
from spinpoint import CMatrix, quadratic_fermi_rep, rep_eigen_analysis
from spinpoint.errors import DimensionError

from conftest import paired_spectra, random_cmatrix

# Occupation (n1, n2) of each Fock basis ket, in basis order.
FOCK_BASIS = ((0, 0), (1, 0), (0, 1), (1, 1))


def annihilate(mode, occ):
    """Apply c_mode to an occupation ket; returns (sign, occ) with sign 0
    when the mode is empty. The sign is (-1)^(operators to jump over)."""
    n1, n2 = occ
    if mode == 1:
        return (1, (0, n2)) if n1 == 1 else (0, occ)
    if n2 == 1:
        return ((-1) ** n1, (n1, 0))
    return (0, occ)


def create(mode, occ):
    n1, n2 = occ
    if mode == 1:
        return (1, (1, n2)) if n1 == 0 else (0, occ)
    if n2 == 0:
        return ((-1) ** n1, (n1, 1))
    return (0, occ)


def brute_force_rep(m):
    """Independent check: sum m_jk c_j^dag c_k applied to each basis ket
    through the anticommutation relations."""
    rep = np.zeros((4, 4), dtype=complex)
    for col, occ in enumerate(FOCK_BASIS):
        for j in (1, 2):
            for k in (1, 2):
                sign_a, occ_a = annihilate(k, occ)
                if sign_a == 0:
                    continue
                sign_c, occ_c = create(j, occ_a)
                if sign_c == 0:
                    continue
                rep[FOCK_BASIS.index(occ_c), col] += \
                    m[j - 1, k - 1] * sign_a * sign_c
    return rep


def printed_example():
    return quadratic_fermi_rep(CMatrix([[1.0, 1j], [1j, -1.0]]))


class TestConstruction:
    def test_printed_matrix(self):
        rep = printed_example().rep
        expected = CMatrix([[0, 0, 0, 0],
                            [0, 1, 1j, 0],
                            [0, 1j, -1, 0],
                            [0, 0, 0, 0]])
        assert rep == expected

    def test_number_operator(self):
        rep = quadratic_fermi_rep(CMatrix.identity(2)).rep
        assert rep == CMatrix(np.diag([0.0, 1.0, 1.0, 2.0]))

    def test_corner_is_trace(self, rng):
        m = random_cmatrix(rng, 2)
        rep = quadratic_fermi_rep(m).rep
        assert rep.data[3, 3] == m.data[0, 0] + m.data[1, 1]
        assert rep.data[0, 0] == 0.0

    def test_block_rule_equals_brute_force(self, rng):
        for _ in range(100):
            m = random_cmatrix(rng, 2)
            assert np.array_equal(quadratic_fermi_rep(m).rep.data,
                                  brute_force_rep(m.data))

    def test_linearity_exact(self, rng):
        # exact except the trace corner, where float addition
        # reassociates by one rounding
        m1, m2 = random_cmatrix(rng, 2), random_cmatrix(rng, 2)
        alpha = 0.75 - 0.25j
        r1 = quadratic_fermi_rep(m1).rep.data
        r2 = quadratic_fermi_rep(m2).rep.data
        r_sum = quadratic_fermi_rep(sp.add(m1, m2)).rep.data
        r_scaled = quadratic_fermi_rep(sp.scale(alpha, m1)).rep.data
        assert np.array_equal(r_sum[:3, :3], (r1 + r2)[:3, :3])
        assert np.array_equal(r_scaled[:3, :3], (alpha * r1)[:3, :3])
        assert r_sum[3, 3] == pytest.approx((r1 + r2)[3, 3], rel=4e-16)
        assert r_scaled[3, 3] == pytest.approx(alpha * r1[3, 3], rel=4e-16)

    def test_rejects_wrong_size(self, rng):
        with pytest.raises(DimensionError):
            quadratic_fermi_rep(random_cmatrix(rng, 3))


class TestSpectra:
    def test_printed_example_fourfold_zero(self):
        analysis = rep_eigen_analysis(printed_example())
        assert np.abs(np.asarray(analysis.eigenvalues)).max() <= 1e-8
        assert analysis.geometric_multiplicity_of_zero == 3

    def test_printed_null_vectors_span(self):
        rep = printed_example().rep
        basis = sp.nullspace(rep)
        assert len(basis) == 3
        printed = [np.array([1.0, 0, 0, 0]),
                   np.array([0, 1.0, 1j, 0]) / np.sqrt(2),
                   np.array([0, 0, 0, 1.0])]
        q, _ = np.linalg.qr(np.column_stack(basis))
        for v in printed:
            residual = np.linalg.norm(v - q @ (q.conj().T @ v))
            assert residual <= 1e-10

    def test_rep_is_nonnormal(self):
        assert not sp.normality_report(printed_example().rep).is_normal

    def test_zero_coefficients(self):
        analysis = rep_eigen_analysis(quadratic_fermi_rep(CMatrix.zeros(2)))
        assert analysis.geometric_multiplicity_of_zero == 4

    def test_pauli_z_coefficients(self, pauli):
        _, _, s3 = pauli
        analysis = rep_eigen_analysis(quadratic_fermi_rep(s3))
        got = np.sort(np.asarray(analysis.eigenvalues).real)
        assert np.allclose(got, [-1.0, 0.0, 0.0, 1.0], atol=1e-12)
        assert analysis.geometric_multiplicity_of_zero == 2

    def test_random_eigenvalue_oracle(self, rng):
        # eigenvalues of the representation are {0, eig(m), trace(m)}
        for _ in range(20):
            m = random_cmatrix(rng, 2)
            analysis = rep_eigen_analysis(quadratic_fermi_rep(m))
            expected = np.concatenate([[0.0], np.asarray(sp.eigenvalues(m)),
                                       [sp.trace(m)]])
            got = np.asarray(analysis.eigenvalues)
            expected, got = paired_spectra(expected, got)
            dist = np.abs(expected - got)
            assert dist.max() <= 1e-10 * (1.0 + sp.frobenius_norm(m))

    def test_normality_transfers(self, rng):
        for _ in range(10):
            m = random_cmatrix(rng, 2)
            hermitian = CMatrix((m.data + m.data.conj().T) / 2)
            assert sp.normality_report(
                quadratic_fermi_rep(hermitian).rep).defect <= 1e-10
            if sp.normality_report(m).defect > 1e-6:
                assert sp.normality_report(
                    quadratic_fermi_rep(m).rep).defect > 1e-10
