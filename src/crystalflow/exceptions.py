"""Exception hierarchy shared across the package."""


class CrystalflowError(Exception):
    """Base class for all package errors."""


class UnsupportedDimensionError(CrystalflowError):
    """Raised when an operator is asked for a space dimension it cannot handle."""


class InvalidExponentError(CrystalflowError):
    """Raised for p-Laplacian exponents outside the supported range p >= 2."""


class InvalidCoefficientError(CrystalflowError):
    """Raised when a diffusion weight violates its lower bound."""


class SolverFailure(CrystalflowError):
    """Linear solver did not reach its residual target.

    Attributes:
        residual: final infinity-norm residual
        iterations: iterations performed
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class StepFailure(CrystalflowError):
    """Nonlinear time step did not converge.

    Attributes:
        residual: last residual sup-norm
        residual_history: residual per iteration, when available
        step_index: trajectory step index, set by the time loop
    """

    def __init__(self, message, residual=None, residual_history=None, step_index=None):
        super().__init__(message)
        self.residual = residual
        self.residual_history = residual_history or []
        self.step_index = step_index


class OverflowCapError(CrystalflowError):
    """A hyperbolic-function argument exceeded the overflow cap.

    Exceeding the cap is a hard error rather than a silent clamp: clamping
    would corrupt the energy functionals this package exists to verify.

    Attributes:
        max_abs: largest offending |argument|
        cap: the configured cap
        step_index: trajectory step index, when raised inside the time loop
    """

    def __init__(self, message, max_abs=None, cap=None, step_index=None):
        super().__init__(message)
        self.max_abs = max_abs
        self.cap = cap
        self.step_index = step_index


class SnapshotFormatError(CrystalflowError, ValueError):
    """A field snapshot file cannot be read as a snapshot: it is missing,
    unreadable, or does not follow the snapshot format."""


class ConfigError(CrystalflowError):
    """Experiment configuration is invalid.

    Carries the full list of violations, each as "line N: message" when a
    source line is known.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(self.violations))


class InvalidInputError(CrystalflowError):
    """An analysis routine received a trajectory it does not apply to."""
