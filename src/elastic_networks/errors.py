"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Inputs cannot form a valid discrete problem (grid too coarse, shape mismatch...)."""


class RegularityError(RuntimeError):
    """A curve lost the regular-parametrization property |f'| > 0."""

    time = None  # set by evolve to the time of the failing step

    def __init__(self, message, curve=None, node=None):
        super().__init__(message)
        self.curve = curve
        self.node = node


class NonCollinearError(RuntimeError):
    """The junction tangents span less than two dimensions."""

    time = None  # set by evolve to the time of the failing step


class StepError(RuntimeError):
    """A time step could not be completed."""

    time = None  # set by evolve to the time of the failing step


class DiffeoBreakdownError(RuntimeError):
    """A recovered tangential diffeomorphism lost monotonicity."""

    def __init__(self, message, time=None, curve=None):
        super().__init__(message)
        self.time = time
        self.curve = curve
