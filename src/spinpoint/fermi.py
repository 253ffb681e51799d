"""Matrix representation of quadratic two-mode Fermi operators.

The operator sum_{jk} m_jk c_j^dag c_k acts on the four-dimensional Fock
space with basis |0>, c1^dag|0>, c2^dag|0>, c1^dag c2^dag|0> (doubly
occupied ket in that creation order). In this basis the representation
has a closed block form: zero on the vacuum, the coefficient matrix m on
the singly-occupied block, trace(m) on the doubly-occupied corner. The
constructor uses that block rule alone; the tests compare it entry by
entry against a direct application of the anticommutation relations on
the four kets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cmatrix import (CMatrix, DEFAULT_TOLERANCE, Tolerance, eigenvalues,
                      rank)
from .errors import DimensionError

__all__ = ["FermiQuadratic", "RepEigenAnalysis", "quadratic_fermi_rep",
           "rep_eigen_analysis"]

@dataclass(frozen=True, eq=False)
class FermiQuadratic:
    """Coefficient matrix and its 4x4 Fock-space representation."""

    m: CMatrix
    rep: CMatrix


@dataclass(frozen=True, eq=False)
class RepEigenAnalysis:
    """Eigenvalues of the representation and the geometric multiplicity
    of the zero eigenvalue (4 - rank(rep))."""

    eigenvalues: np.ndarray
    geometric_multiplicity_of_zero: int


def quadratic_fermi_rep(m: CMatrix) -> FermiQuadratic:
    """Build the 4x4 Fock representation of sum m_jk c_j^dag c_k by the
    closed block rule. Raises ``NonFiniteError``, with no overflow
    warning, when trace(m) overflows."""
    if m.rows != 2 or m.cols != 2:
        raise DimensionError(f"coefficient matrix must be 2x2, got "
                             f"{m.rows}x{m.cols}")
    rep = np.zeros((4, 4), dtype=complex)
    rep[1:3, 1:3] = m.data
    with np.errstate(over="ignore", invalid="ignore"):
        rep[3, 3] = m.data[0, 0] + m.data[1, 1]
    return FermiQuadratic(m=m, rep=CMatrix(rep))


def rep_eigen_analysis(f: FermiQuadratic,
                       tol: Tolerance = DEFAULT_TOLERANCE) -> RepEigenAnalysis:
    """Eigenvalues of the representation and the dimension of its null
    space."""
    return RepEigenAnalysis(
        eigenvalues=eigenvalues(f.rep),
        geometric_multiplicity_of_zero=4 - rank(f.rep, tol),
    )
