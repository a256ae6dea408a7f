"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Inputs cannot form a valid discrete problem (grid too coarse, shape mismatch...)."""


class RegularityError(RuntimeError):
    """A curve lost the regular-parametrization property |f'| > 0."""

    def __init__(self, message, curve=None, node=None, time=None):
        super().__init__(message)
        self.curve = curve
        self.node = node
        self.time = time


class NonCollinearError(RuntimeError):
    """The junction tangents span less than two dimensions."""


class StepError(RuntimeError):
    """A time step could not be completed."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class DiffeoBreakdownError(RuntimeError):
    """A recovered tangential diffeomorphism lost monotonicity."""

    def __init__(self, message, time=None, curve=None):
        super().__init__(message)
        self.time = time
        self.curve = curve
