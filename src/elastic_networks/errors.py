"""Exception types: a ConfigurationError rejects input, a BreakdownError stops a run."""


class ConfigurationError(ValueError):
    """Inputs cannot form a valid discrete problem (grid too coarse, shape mismatch...)."""


class BreakdownError(RuntimeError):
    """A run broke down; evolve sets .time (of the failing step) and .trajectory."""

    time = None


class RegularityError(BreakdownError):
    """A curve lost the regular-parametrization property |f'| > 0."""

    def __init__(self, message, curve=None, node=None):
        super().__init__(message)
        self.curve = curve
        self.node = node


class NonCollinearError(BreakdownError):
    """The junction tangents span less than two dimensions."""


class StepError(BreakdownError):
    """A time step could not be completed."""


class DiffeoBreakdownError(BreakdownError):
    """A recovered tangential diffeomorphism lost monotonicity."""

    def __init__(self, message, time=None, curve=None):
        super().__init__(message)
        self.time = time
        self.curve = curve
