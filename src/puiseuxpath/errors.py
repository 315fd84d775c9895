"""Exception hierarchy shared across the package.

Two families matter to callers (and to the command line tool, which maps
them to exit codes): errors caused by bad input, and errors raised when a
computation cannot be completed within its configured limits.
"""


class PuiseuxPathError(Exception):
    """Base class for all package errors."""

    #: short name of the component raising the error, used in CLI messages
    component = "core"


class InputError(PuiseuxPathError):
    """Malformed input: unparsable polynomial, bad instance file, bad flags."""

    component = "input"


class ComputationError(PuiseuxPathError):
    """A computation failed or exceeded a configured resource limit."""

    component = "core"


class ParseError(InputError):
    component = "parser"


class DegenerateInputError(InputError):
    """Input outside the supported shape (e.g. a monomial curve)."""

    component = "polygon"


class PrecisionExhaustedError(ComputationError):
    """Interval refinement hit its round cap without certifying an answer."""

    component = "algebraic"


class ExpansionError(ComputationError):
    """The Puiseux expansion lost an invariant it relies on."""

    component = "expansion"


class IterationGuardError(ExpansionError):
    """The expansion loop exceeded its iteration cap."""


class AmbiguousMatchError(ComputationError):
    """A branch center could not be certified inside or outside a tolerance."""

    component = "matching"


class NoMatchError(ComputationError):
    """No branch center matched the observed limit."""

    component = "matching"


class EliminationBlowUpError(ComputationError):
    """Exact coordinate elimination exceeded its degree/size caps."""

    component = "elimination"


class ExtraneousVanishingError(ComputationError):
    """No elimination candidate survived validation against traced samples."""

    component = "elimination"


class SolveFailureError(ComputationError):
    """Newton corrector failed to converge to a central point."""

    component = "tracer"


class InfeasibleInstanceError(ComputationError):
    """No strictly feasible point was found from the default start."""

    component = "tracer"


class InsufficientSamplesError(ComputationError):
    """Not enough usable samples for an estimate on the requested window."""

    component = "estimation"


class ConstantCoordinateError(ComputationError):
    """The coordinate never moves, so a decay exponent is undefined."""

    component = "estimation"
