"""Exception types shared across the simulator, and :func:`check_bound`, which checks every
numeric bound: it raises ``InvariantViolation`` when the owner names an entity, else ``ValueError``.
"""

import math
import re
from itertools import accumulate


class SimulatorError(Exception):
    """Base class for every error raised by this package."""


class DuplicateIdError(SimulatorError):
    """An identifier appears more than once within a topology or scenario."""


class DanglingReferenceError(SimulatorError):
    """An entity refers to an id that does not exist."""


class InvariantViolation(SimulatorError):
    """A domain invariant does not hold for a specific entity."""

    def __init__(self, entity: str, detail: str):
        super().__init__(f"{entity}: {detail}")
        self.entity = entity
        self.detail = detail


class NoPathError(SimulatorError):
    """Two hosts are not connected by any sequence of links."""


class SchedulingInPastError(SimulatorError):
    """An event was scheduled before the current virtual clock."""


class StrategyInapplicableError(SimulatorError):
    """A migration strategy does not apply to the given function instance."""


class InvalidCombinationError(SimulatorError):
    """A (function kind, statefulness) combination that cannot occur."""


class ScenarioParseError(SimulatorError):
    """The scenario file is malformed; the message names the offending key."""


class ScenarioValidationError(SimulatorError):
    """The scenario parsed but violates a domain rule."""


# One character or one escape of the text ``repr`` writes for a string.
_REPR_PIECE = re.compile(r"\\(?:x..|u.{4}|U.{8}|.)|.", re.DOTALL)


def shown(value: object) -> str:
    """``value`` for a message; an integer past 20 digits is shown by sign and size only, and a
    string past 60 characters or 70 bytes of ``repr`` by the ``repr`` of its first 40 characters,
    cut to 40 bytes at a whole character or escape, and its length: at most 70 bytes in all.
    """
    if isinstance(value, str):
        text = repr(value[:60])
        if len(value) <= 60 and len(text.encode()) <= 70:
            return text
        text = repr(value[:40])
        pieces = _REPR_PIECE.findall(text, 1, len(text) - 1)
        sizes = accumulate(len(piece.encode()) for piece in pieces)
        kept = "".join(piece for piece, size in zip(pieces, sizes) if size <= 40)
        return f"{text[0]}{kept}...{text[0]} ({len(value)} characters)"
    if isinstance(value, int) and not -(10**20) < value < 10**20:
        digits = int(abs(value).bit_length() * math.log10(2))  # the count, or one short
        digits += abs(value) >= 10**digits
        return f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"
    return repr(value)


def os_error_text(exc: OSError) -> str:
    """``str(exc)`` with each path it names through :func:`shown`, so a long path is cut."""
    if exc.filename is None:
        return str(exc)
    names = " -> ".join(shown(name) for name in (exc.filename, exc.filename2) if name is not None)
    return f"[Errno {exc.errno}] {exc.strerror}: {names}"


def check_bound(
    name: str, value, low=None, high=None, *, above=None, integer=False, number=False, entity=None
):
    """Raise unless ``value`` is >= ``low`` (or > ``above``), an ``int`` (with ``integer``) or an
    ``int`` or ``float`` (with ``number``) but not a ``bool``, and <= ``high``, tested in that
    order.  A ``high`` of ``math.inf`` asks the low side for a finite value too.  NaN fails every
    comparison.  The message is built only when a test fails.
    """
    holds = (low is None or value >= low) if above is None else value > above
    if high == math.inf:
        holds = holds and value < high
    wrong_type = (integer or number) and (
        isinstance(value, bool) or not isinstance(value, int if integer else (int, float))
    )
    if holds and not wrong_type and (high is None or value <= high):
        return
    side = f">= {low}" if above is None else "positive" if above == 0 else f"> {above}"
    if high == math.inf:
        side = f"finite and {side}"
    kind = "an integer" if integer else "an int or float"
    rule = side if not holds else kind if wrong_type else f"<= {high}"
    detail = f"{name} must be {rule}, got {shown(value)}"
    raise ValueError(detail) if entity is None else InvariantViolation(entity, detail)
