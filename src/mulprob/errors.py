"""Exception hierarchy for the mulprob library."""

import os

DEFAULT_MAX_CELLS = 5_000_000

_MAX_CELLS_ENV = "MULPROB_MAX_CELLS"


class MulprobError(Exception):
    """Base class for all mulprob errors."""


class DomainError(MulprobError, ValueError):
    """A precondition on an operation's input was violated."""


class ParseError(MulprobError, ValueError):
    """Ket-notation input could not be parsed or validated.

    Carries the character offset of the offending token when known.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ResourceLimitError(MulprobError):
    """An enumeration would exceed the configured cell budget.

    Raised by ``check_cells``, it names the enumeration (``op``), the
    cells it needs (``needed``) and the budget (``limit``); all three are
    ``None`` when the budget itself is invalid.
    """

    def __init__(self, message: str, op: str | None = None, needed: int | None = None,
                 limit: int | None = None):
        super().__init__(message)
        self.op = op
        self.needed = needed
        self.limit = limit


def max_cells() -> int:
    """Current enumeration budget, from MULPROB_MAX_CELLS when set."""
    raw = os.environ.get(_MAX_CELLS_ENV)
    if raw is None:
        return DEFAULT_MAX_CELLS
    try:
        return int(raw)
    except ValueError:
        raise ResourceLimitError(f"invalid {_MAX_CELLS_ENV} value: {raw!r}") from None


def check_cells(count: int, what: str) -> None:
    """Abort with a resource error when an enumeration is too large."""
    cap = max_cells()
    if count > cap:
        raise ResourceLimitError(
            f"{what} needs {count} cells, exceeding the limit of {cap} "
            f"(set {_MAX_CELLS_ENV} to raise it)",
            op=what, needed=count, limit=cap,
        )
