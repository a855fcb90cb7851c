"""Exception types shared across the package."""


class CapabilityError(NotImplementedError):
    """Requested a combination the library deliberately does not support."""


class ContractError(ValueError):
    """A documented precondition (step-size range, parameter bound, ...) is violated."""


class NumericsError(RuntimeError):
    """The power iteration of spectral_norm_estimate failed to converge within its cap."""


class DivergenceError(RuntimeError):
    """A run produced non-finite or unbounded iterates."""

    def __init__(self, message, outer_step=None, inner_step=None):
        super().__init__(message)
        self.outer_step = outer_step
        self.inner_step = inner_step


class FormatError(ValueError):
    """A serialized artifact (instance container, config file) is malformed."""
