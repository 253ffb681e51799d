"""spinpoint: spin-matrix hierarchies, nonnormality diagnostics, and
exceptional points of matrix pencils, all on an in-house dense complex
kernel (Hessenberg + shifted-QR Schur, full-pivot rank, scaling-and-
squaring exponential, Faddeev-LeVerrier characteristic polynomials)."""

from . import analysis, cmatrix, errors, exceptional, fermi, kernel, spins
from .analysis import *
from .cmatrix import *
from .errors import *
from .exceptional import *
from .fermi import *
from .kernel import *
from .spins import *

__version__ = "0.1.0"

__all__ = [name for module in (analysis, cmatrix, errors, exceptional, fermi,
                               kernel, spins) for name in module.__all__]
