"""Discrete-event simulator for live migration of virtualized 5G core
functions across edge hosts: driver-level latency model, dirty-page memory
transfer strategies, per-function migration policy, and scenario execution
with reproducible metrics."""

from types import ModuleType as _ModuleType

from .errors import (
    DanglingReferenceError,
    DuplicateIdError,
    InvalidCombinationError,
    InvariantViolation,
    NoPathError,
    ScenarioParseError,
    ScenarioValidationError,
    SchedulingInPastError,
    SimulatorError,
    StrategyInapplicableError,
)
from .memory import (
    BatchFilter,
    BernoulliDirty,
    ConstantRateDirty,
    MemoryImage,
    PageState,
    advance_dirty,
)
from .migration import (
    MigrationParams,
    MigrationReport,
    PreCopyEstimate,
    ReplicaHandle,
    Strategy,
    analytic_pre_copy,
    migrate_inter_copy,
    migrate_parallel,
    migrate_post_copy,
    migrate_pre_copy,
    redeploy_stateless,
    start_replica_sync,
    transfer_time_us,
)
from .model import (
    BUILTIN_DRIVER_PROFILES,
    Channel,
    DriverKind,
    HostNode,
    IsolationLevel,
    Link,
    NetworkDriverProfile,
    NfInstance,
    NfKind,
    STATEFUL_VARIANTS,
    PduSession,
    SessionType,
    ValidatedTopology,
    validate_topology,
)

__version__ = "0.1.0"

# The control plane (the event engine, placement policy, scenario documents
# and the runner) loads on first use, so a caller of the strategy API above
# imports only the data plane.  Each lazy name is listed once, under the
# module that defines it.
_LAZY = {
    "engine": ("Event", "Simulator", "rng_stream"),
    "policy": (
        "HostLoad",
        "PlacementViolation",
        "StrategyDecision",
        "ViolationKind",
        "check_placement",
        "policy_table_text",
        "required_isolation",
        "select_strategy",
    ),
    "runner": ("MetricsBundle", "RecordedMigration", "export_metrics", "run_scenario"),
    "scenario": (
        "MigrationTrigger",
        "Objective",
        "Scenario",
        "UeSpec",
        "build_scenario",
        "bundled_scenario_path",
        "load_scenario",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted(
    [
        name
        for name, value in globals().items()
        if not name.startswith("_") and not isinstance(value, _ModuleType)
    ]
    + list(_HOME),
    key=str.lower,
)


def __getattr__(name: str) -> object:
    from importlib import import_module

    if name in _LAZY:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_HOME})
