"""Exception hierarchy shared across the package."""


class CrystalflowError(Exception):
    """Base class for all package errors; step_index is the trajectory step a
    failure belongs to, set by stepper._at_step."""

    step_index = None


class UnsupportedDimensionError(CrystalflowError):
    """Raised when an operator is asked for a space dimension it cannot handle."""


class InvalidExponentError(CrystalflowError):
    """Raised for p-Laplacian exponents outside the supported range p >= 2."""


class SolverFailure(CrystalflowError):
    """A step's linear solve failed: SuperLU rejected a factor
    (elliptic.lu_factor) or a PCG Newton direction was not finite."""


class StepFailure(CrystalflowError):
    """Nonlinear time step did not converge.

    Attributes:
        residual: last residual sup-norm
        residual_history: residual per iteration, when available
    """

    def __init__(self, message, residual=None, residual_history=None):
        super().__init__(message)
        self.residual = residual
        self.residual_history = residual_history or []


class OverflowCapError(CrystalflowError):
    """The nonlinearity's argument exceeded its overflow bound.

    Exceeding the bound is a hard error rather than a silent clamp: clamping
    would corrupt the energy functionals this package exists to verify.

    Attributes:
        max_abs: largest offending |argument|
        cap: the bound exceeded: nonlinearity.EXP_ARG_BOUND, or linear's
            sqrt(max double)
    """

    def __init__(self, message, max_abs=None, cap=None):
        super().__init__(message)
        self.max_abs = max_abs
        self.cap = cap


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


class ArgumentError(CrystalflowError, ValueError):
    """A value handed to a sweep, a comparison or the command line cannot be
    run: an unknown name, a bad number, or an unreadable config path."""


class InvalidInputError(CrystalflowError):
    """An analysis routine received a trajectory it does not apply to."""
