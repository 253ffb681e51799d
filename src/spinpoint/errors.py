"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` string and an
``exit_status``, both class attributes: the CLI prints the code on
stderr and exits with the status, 1 for validation errors and 2 for the
numerical failures (``ConvergenceError``, ``ZeroDiscriminantError``,
``SheetTrackingError``).
"""


class SpinpointError(Exception):
    """Base class for all package-specific errors."""

    code = "error"
    exit_status = 1


class DimensionError(SpinpointError, ValueError):
    """Operands have incompatible shapes."""

    code = "dimension-mismatch"


class NonFiniteError(SpinpointError, ValueError):
    """A matrix would contain NaN or Inf entries."""

    code = "non-finite"


class ConvergenceError(SpinpointError, RuntimeError):
    """QR iteration exhausted its sweep budget.

    ``block_index`` is the trailing index of the active block that failed
    to deflate.
    """

    code = "no-convergence"
    exit_status = 2

    def __init__(self, message, block_index=None):
        super().__init__(message)
        self.block_index = block_index


class ZeroDiscriminantError(SpinpointError, ArithmeticError):
    """The pencil's discriminant vanishes identically: every parameter
    value is degenerate, so there is no finite root list to report."""

    code = "zero-discriminant"
    exit_status = 2


class SheetTrackingError(SpinpointError, RuntimeError):
    """Eigenvalue continuation could not resolve a step even after the
    maximum number of bisections (path too close to an exceptional point).

    ``step_index`` is the index of the requested step that failed.
    """

    code = "sheet-tracking"
    exit_status = 2

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index
