"""Exception types shared across the package."""


class FlipflowError(Exception):
    """Base class for all flipflow errors."""


class UnsupportedOrderError(FlipflowError, ValueError):
    """Graph order k outside the supported range [2, 6]."""


class InvalidTupleError(FlipflowError, ValueError):
    """Vertex tuple with duplicates or out-of-range entries, or a bad cell (i, j) of part indices or sample count."""


class NonStochasticRowError(FlipflowError, ValueError):
    """A rule row does not form a probability distribution.

    Carries the worst offending row index and its residual |sum - 1|.
    """

    def __init__(self, row: int, residual: float, detail: str = ""):
        self.row = row
        self.residual = residual
        msg = f"rule row {row} is not stochastic (residual {residual:.3e})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NonFiniteValueError(FlipflowError, ValueError):
    """A part mass, step-function value, time or tolerance is NaN or infinite."""


class MassMismatchError(FlipflowError, ValueError):
    """Two step functions do not share the same part masses."""


class GuardExceededError(FlipflowError, RuntimeError):
    """An enumeration feasibility guard was exceeded.

    The message names the guard and, where one exists, the fallback the
    caller should use instead (e.g. the randomized cut-norm lower bound).
    """


class IntegrationFaultError(FlipflowError, RuntimeError):
    """The ODE integrator failed: value band violated or step underflow."""


class ConfigError(FlipflowError, ValueError):
    """Invalid experiment configuration; collects all problems at once."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
