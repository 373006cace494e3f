"""Exception types shared across the package."""


class GleError(Exception):
    """Base class for all errors raised by this package."""


class KernelDomainError(GleError):
    """Kernel evaluated outside its domain (e.g. a power-law kernel at t = 0)."""


class NoBernsteinRepresentation(GleError):
    """Kernel has no implemented Laplace-measure representation."""


class TransformDomainError(GleError):
    """Transform requested where it is not defined (origin, wrong half-plane)."""


class QuadratureError(GleError):
    """Base class for quadrature failures; carries the best estimate so far."""

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


class ToleranceNotMet(QuadratureError):
    pass


class DivergentTail(QuadratureError):
    pass


class OscillationPreconditionError(QuadratureError):
    pass


class UnrepresentableError(GleError):
    """Result overflows double precision with no cancellation rescue."""


class SdeError(GleError):
    """Invalid or unstable linear-SDE construction."""


class PronyAccuracyError(GleError):
    def __init__(self, message, achieved):
        super().__init__(message)
        self.achieved = achieved


class FitRejectedError(GleError):
    pass


class ConfigError(GleError):
    """Invalid run configuration; message carries the offending field path."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
