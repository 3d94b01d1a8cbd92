"""Error taxonomy mapped onto distinct CLI exit codes."""


class InvalidInputError(ValueError):
    """The caller handed the engine something malformed (exit code 2)."""


class BudgetExceeded(RuntimeError):
    """A computational budget ran out before an answer was certified (exit code 3).

    A resource limit, not a bug: the p-adic lift tree, the rational point
    search, the parameter disk-radius certificate and the quadrature
    tolerance each raise it (the last as ToleranceNotMet).
    """


class ToleranceNotMet(BudgetExceeded):
    """Adaptive integration ran out of budget (exit code 3).

    Carries the best estimate reached and the error bound achieved.
    """

    def __init__(self, message: str, estimate: float, error: float):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


class EngineError(AssertionError):
    """An internal cross-check failed; a bug, not bad input (exit code 4)."""
