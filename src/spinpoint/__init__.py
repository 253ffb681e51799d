"""spinpoint: spin-matrix hierarchies, nonnormality diagnostics, and
exceptional points of matrix pencils, all on an in-house dense complex
kernel (Hessenberg + shifted-QR Schur, full-pivot rank, scaling-and-
squaring exponential, Faddeev-LeVerrier characteristic polynomials)."""

from .cmatrix import (CMatrix, SchurForm, Tolerance, DEFAULT_TOLERANCE,
                      add, sub, mul, scale, adjoint, commutator, kron,
                      direct_sum, frobenius_norm, trace, det, rank,
                      nullspace, eigenvalues, schur, matrix_exp,
                      matrix_power, char_poly)
from .spins import (Spin, SpinMatrices, parse_spin, ladder_plus,
                    spin_matrices, nonnormal_hamiltonian)
from .analysis import (NormalityReport, NilpotencyReport, PhiFamilyPoint,
                       normality_report, hermitian_pair_is_normal,
                       nilpotency_report, phi_family, two_qubit_tangle)
from .kernel import KernelSolution, kernel_vector, verify_uniqueness
from .exceptional import (PencilFamily, EPCandidate, PathSpec,
                          MonodromyResult, find_exceptional_points,
                          trace_sheets)
from .fermi import (FermiQuadratic, RepEigenAnalysis, quadratic_fermi_rep,
                    rep_eigen_analysis)
from .errors import (SpinpointError, DimensionError, NonFiniteError,
                     ConvergenceError, ZeroDiscriminantError,
                     SheetTrackingError)

__version__ = "0.1.0"

__all__ = [
    "CMatrix", "SchurForm", "Tolerance", "DEFAULT_TOLERANCE",
    "add", "sub", "mul", "scale", "adjoint", "commutator", "kron",
    "direct_sum", "frobenius_norm", "trace", "det", "rank", "nullspace",
    "eigenvalues", "schur", "matrix_exp", "matrix_power", "char_poly",
    "Spin", "SpinMatrices", "parse_spin", "ladder_plus", "spin_matrices",
    "nonnormal_hamiltonian",
    "NormalityReport", "NilpotencyReport", "PhiFamilyPoint",
    "normality_report", "hermitian_pair_is_normal", "nilpotency_report",
    "phi_family", "two_qubit_tangle",
    "KernelSolution", "kernel_vector", "verify_uniqueness",
    "PencilFamily", "EPCandidate", "PathSpec", "MonodromyResult",
    "find_exceptional_points", "trace_sheets",
    "FermiQuadratic", "RepEigenAnalysis", "quadratic_fermi_rep",
    "rep_eigen_analysis",
    "SpinpointError", "DimensionError", "NonFiniteError",
    "ConvergenceError", "ZeroDiscriminantError", "SheetTrackingError",
]
