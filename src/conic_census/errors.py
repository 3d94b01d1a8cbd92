"""Error taxonomy mapped onto distinct CLI exit codes."""


class InvalidInputError(ValueError):
    """The caller handed the engine something malformed (exit code 2)."""


class BudgetExceeded(RuntimeError):
    """A computational budget ran out before an answer was certified (exit code 3).

    A resource limit, not a bug: the rational point search, the row cap of
    the parametrized scan and the p-adic lift tree of count_points_mod
    each raise it.
    """


class EngineError(AssertionError):
    """An internal cross-check failed; a bug, not bad input (exit code 4)."""
