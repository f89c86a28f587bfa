"""Exception types and default search budgets shared across the package.

The budgets live here, beside ``BudgetExceeded``, because this module imports
nothing: the command line builds its parser from them without loading a
kernel module.
"""

#: Default bound on both exponents of the commuting-powers search, for the
#: census screen, the obstruction table and the command line alike.
DEFAULT_BOUND = 8

#: Default cap on the height j, the orbit length of h^n (in vertical periods).
DEFAULT_I_MAX = 10**6

#: Default cap on the columns of each orbit sweep (in periods of the
#: horizontal word).
DEFAULT_K_MAX = 10**4


class CscwallsError(Exception):
    """Base class for all package errors."""


class ParseError(CscwallsError):
    """Malformed presentation file."""

    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class DuplicateLabel(ParseError):
    """An edge label was declared twice."""


class ClassError(ParseError):
    """A horizontal letter appeared in a vertical slot or vice versa."""


class WordError(CscwallsError):
    """A word violates its invariants (mixed classes, not reduced, proper power)."""


class NotCSCError(CscwallsError):
    """Operation requires a complete square complex but validation failed."""


class UnsupportedComplexError(CscwallsError):
    """The complex is valid but outside what this operation handles (e.g. multi-vertex)."""


class DevelopmentError(CscwallsError):
    """No square fits a requested corner (only possible on multi-vertex input)."""


class BudgetExceeded(CscwallsError):
    """A bounded search ran out of budget before reaching a verdict."""

    def __init__(self, message, diagnostic=None):
        self.diagnostic = diagnostic
        super().__init__(message if diagnostic is None else f"{message} ({diagnostic})")


class CommutingPowersFound(CscwallsError):
    """A torus relation was found where an aperiodic flat was required."""

    def __init__(self, k, j):
        self.k = k
        self.j = j
        super().__init__(f"powers ({k}, {j}) commute: the flat is periodic, no obstruction exists")


class InvalidParams(CscwallsError):
    """Staircase parameters violate their invariants."""


class UnknownWall(CscwallsError):
    """A wall id was not found in the contact graph."""
