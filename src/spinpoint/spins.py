"""Spin-s operator matrices and the nonnormal family s3 + z * s_axis.

The spin quantum number is stored exactly as the integer 2s, fixing the
dimension n = 2s + 1. Basis ordering is magnetic-quantum-number
descending (the m = s basis vector comes first), so s3 is the diagonal
matrix diag(s, s-1, ..., -s) and the raising operator has its nonzero
entries on the superdiagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

import numpy as np

from .cmatrix import CMatrix

__all__ = ["Spin", "SpinMatrices", "parse_spin", "ladder_plus",
           "spin_matrices", "nonnormal_hamiltonian"]


@dataclass(frozen=True)
class Spin:
    """Half-integer spin stored as twice its value (1 for spin-1/2)."""

    twice_spin: int

    def __post_init__(self):
        twice = self.twice_spin
        if (isinstance(twice, bool) or not isinstance(twice, Integral)
                or twice < 1):
            raise ValueError(f"invalid spin: twice_spin must be a positive "
                             f"integer, got {twice!r}")
        object.__setattr__(self, "twice_spin", int(twice))

    @property
    def value(self) -> float:
        return self.twice_spin / 2.0

    @property
    def dimension(self) -> int:
        return self.twice_spin + 1

    def magnetic_numbers(self) -> np.ndarray:
        """m values s, s-1, ..., -s (exact multiples of one half)."""
        return self.value - np.arange(self.dimension)

    def __str__(self):
        if self.twice_spin % 2 == 0:
            return str(self.twice_spin // 2)
        return f"{self.twice_spin}/2"


def parse_spin(text: str) -> Spin:
    """Parse '3/2', '1.5', or '2' into a Spin.

    Decimal input must be exactly representable as k/2.
    """
    text = text.strip()
    try:
        frac = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid spin {text!r}") from exc
    twice = frac * 2
    if twice.denominator != 1:
        raise ValueError(f"invalid spin {text!r}: must be a multiple of 1/2")
    if twice.numerator < 1:
        raise ValueError(f"invalid spin {text!r}: must be at least 1/2")
    return Spin(int(twice))


@dataclass(frozen=True, eq=False)
class SpinMatrices:
    """The five operator matrices of one spin representation."""

    spin: Spin
    s_plus: CMatrix
    s_minus: CMatrix
    s1: CMatrix
    s2: CMatrix
    s3: CMatrix


def ladder_coefficients(s: Spin) -> np.ndarray:
    """Raising coefficients sqrt((s-m)(s+m+1)) for m = s-1, ..., -s.

    Entry p is the coupling between basis positions p and p+1, i.e. the
    superdiagonal of the raising operator read top to bottom (the first
    one is sqrt(2s)).
    """
    m = s.magnetic_numbers()[1:]
    return np.sqrt((s.value - m) * (s.value + m + 1.0))


def _operators(s: Spin) -> tuple:
    """Raw s_plus, s_minus, s1, s2, s3 arrays of one spin.

    s_minus is the exact adjoint of s_plus; s1 and s2 are hermitian with
    exactly equal stored values across the diagonal; s3 is diagonal with
    entries s, s-1, ..., -s.
    """
    sp = np.diag(ladder_coefficients(s), 1).astype(complex)
    sm = sp.conj().T
    return (sp, sm, (sp + sm) / 2.0, -0.5j * (sp - sm),
            np.diag(s.magnetic_numbers().astype(complex)))


def ladder_plus(s: Spin) -> CMatrix:
    """Raising operator: superdiagonal sqrt((s-m)(s+m+1)) in the
    m-descending basis."""
    return CMatrix(_operators(s)[0])


def spin_matrices(s: Spin) -> SpinMatrices:
    """Construct s_plus, s_minus, s1, s2, s3 for the given spin."""
    return SpinMatrices(s, *map(CMatrix, _operators(s)))


def _require_axis(axis) -> None:
    """Refuse an axis other than the integer 1 or 2, a bool included."""
    if isinstance(axis, bool) or not isinstance(axis, Integral) \
            or axis not in (1, 2):
        raise ValueError(f"invalid axis {axis!r}: must be the integer 1 or 2")


def nonnormal_hamiltonian(s: Spin, axis: int, z: complex) -> CMatrix:
    """s3 + z * s_axis for axis 1 or 2.

    z = 1j gives the nilpotent family with a single Jordan block. Raises
    ``NonFiniteError``, with no overflow warning, when an entry overflows.
    """
    _require_axis(axis)
    _, _, s1, s2, s3 = _operators(s)
    with np.errstate(over="ignore", invalid="ignore"):
        h = s3 + complex(z) * (s1 if axis == 1 else s2)
    return CMatrix(h)
