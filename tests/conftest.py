"""Shared fixtures and reference constructions."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from spinpoint import CMatrix

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def pauli():
    return CMatrix(SIGMA1), CMatrix(SIGMA2), CMatrix(SIGMA3)


def paired_spectra(a, b):
    """Return ``a`` and ``b`` as arrays, with ``b`` reordered to pair with ``a``.

    The pairing is the optimal assignment on |a_i - b_j|, so comparing the
    result elementwise compares the two eigenvalue multisets whatever
    order they come in. Sorting both with ``np.sort_complex`` instead
    mispairs them when a real part of 0.9999999999999999 meets 1.0.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert a.shape == b.shape
    rows, cols = linear_sum_assignment(np.abs(a[:, None] - b[None, :]))
    return a[rows], b[cols]


def random_complex(rng, rows, cols=None):
    cols = rows if cols is None else cols
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_cmatrix(rng, rows, cols=None):
    return CMatrix(random_complex(rng, rows, cols))


def random_hermitian(rng, n):
    m = random_complex(rng, n)
    return CMatrix((m + m.conj().T) / 2.0)


def random_unitary(rng, n):
    m = random_complex(rng, n)
    q, r = np.linalg.qr(m)
    return CMatrix(q * (np.diag(r) / np.abs(np.diag(r))))


def bit_pattern(x):
    """Entries as uint64 words, so that signed zeros and NaN payloads
    count."""
    return np.ascontiguousarray(x).view(np.uint64)


def det_lu_reference(mat):
    """Reference: the determinant of one matrix by LU elimination with
    partial pivoting, the loop the lockstep LU must reproduce bit for
    bit."""
    m = np.array(mat, dtype=complex)
    n = m.shape[0]
    out = 1.0 + 0.0j
    for k in range(n):
        p = int(np.abs(m[k:, k]).argmax()) + k
        if m[p, k] == 0.0:
            return 0.0 + 0.0j
        if p != k:
            m[[k, p]] = m[[p, k]]
            out = -out
        out *= m[k, k]
        m[k + 1:, k:] -= np.outer(m[k + 1:, k] / m[k, k], m[k, k:])
    return complex(out)


def char_poly_reference(mat):
    """Reference: the Faddeev-LeVerrier recursion on one matrix, the loop
    the lockstep recursion must reproduce bit for bit."""
    n = mat.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = 1.0
    aux = np.zeros_like(mat, dtype=complex)
    eye = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        aux = mat @ aux + coeffs[n - k + 1] * eye
        coeffs[n - k] = -np.trace(mat @ aux) / k
    return coeffs * (-1.0) ** n
