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


# ``os.environ`` and ``os.environb`` keep the variables in one dict of
# encoded names and values, which every write through either of them
# updates.  The budget is read there on each check, without the encoding
# and decoding of an ``os.environ`` lookup, and parsed only when it changed.
_ENVIRON = os.environ._data
_ENV_KEY = os.environ.encodekey(_MAX_CELLS_ENV)

# The raw value parsed last (``None`` when unset) and the limit it gave.
_limit = (None, DEFAULT_MAX_CELLS)


def max_cells() -> int:
    """Current enumeration budget, from MULPROB_MAX_CELLS when set."""
    global _limit
    raw = _ENVIRON.get(_ENV_KEY)
    if raw != _limit[0]:
        _limit = (raw, _parse_limit(raw))
    return _limit[1]


def _parse_limit(raw) -> int:
    """The budget that the raw value names: a count written in ASCII
    digits, as the ket grammar writes numerals.  ``int`` alone would also
    take a sign, spaces, underscores and other scripts' digits."""
    if raw is None:
        return DEFAULT_MAX_CELLS
    text = os.environ.decodevalue(raw)
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than the interpreter converts
            pass
    raise ResourceLimitError(f"invalid {_MAX_CELLS_ENV} value: {text!r}")


def _check_size(k, what: str) -> int:
    """``k`` when it is a size: an ``int``, not of a subclass such as
    ``bool``, and not negative.  ``what`` names it in the ``DomainError``
    otherwise.  The name is private, so a tracer that wraps the public
    functions of this module adds no span per size checked."""
    if type(k) is not int:
        raise DomainError(f"{what} must be an integer: {k!r}")
    if k >= 0:
        return k
    raise DomainError(f"{what} must be nonnegative: {k}")


def check_cells(count: int, what: str) -> None:
    """Abort with a resource error when an enumeration is too large."""
    cap = max_cells()
    if count > cap:
        raise ResourceLimitError(
            f"{what} needs {count} cells, exceeding the limit of {cap} "
            f"(set {_MAX_CELLS_ENV} to raise it)",
            op=what, needed=count, limit=cap,
        )
