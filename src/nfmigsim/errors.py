"""Exception types shared across the simulator."""


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
