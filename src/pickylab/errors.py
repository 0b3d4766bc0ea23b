"""Shared exception types.

The CLI maps these onto exit codes: bad input (parse / invalid argument)
and scale overruns of a subcommand exit 2, an engine defect exits 4.
Inside a check, a scale overrun turns the check into a "skipped" report.
"""


class PickylabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(PickylabError, ValueError):
    """A precondition on an operation's arguments was violated."""


class ParseError(PickylabError, ValueError):
    """Malformed permutation, group source, or catalog file."""


class ScaleExceeded(PickylabError, RuntimeError):
    """The input is larger than the scale bound for this operation."""


class EngineDefect(PickylabError, AssertionError):
    """An internal cross-check failed: a proved theorem came out false,
    or two independent computation paths disagreed.  The engine never
    catches it; the CLI reports it and exits 4."""
