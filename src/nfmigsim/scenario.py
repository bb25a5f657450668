"""Scenario files: topology, deployment, mobility triggers, run parameters.

A scenario is a single JSON document (conventionally ``*.scenario``).  Every
omitted parameter has a documented default:

* host ``cpu_capacity`` 4.0; link ``extra_latency_us`` 0
* topology ``intra_host_latency_us`` 25, ``l2_overlay_enabled`` false
* function ``stateful`` per kind (UDM defaults stateless), ``cpu_demand`` 1.0
* memory ``num_pages`` 256, ``page_size`` 4096, ``working_set_fraction`` 0.2,
  ``dirty_model`` constant-rate at 50 pages/s
* ``migration_params`` see :class:`~nfmigsim.migration.MigrationParams`
* ``objective`` "downtime", ``seed`` 0, ``rtt_sample_interval_us`` 100000
* trigger ``affected_kinds`` ["smf", "amf"]

The parser checks types, key names and that every number is finite (JSON
as read by Python may hold ``NaN`` and ``Infinity``); it makes no range
comparison.  Each numeric bound belongs to the constructor of the object
that stores the value, and :meth:`_Reader.build` reports a rejected value
as ``'<dotted path of the object>': <field> ...`` (top-level keys have no
path).  Validation errors name the offending entity; ``validate_topology``
owns ``intra_host_latency_us``, so that bound is one of them.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Mapping

from .errors import (
    InvariantViolation,
    NoPathError,
    ScenarioParseError,
    ScenarioValidationError,
    SimulatorError,
)
from .memory import BernoulliDirty, ConstantRateDirty, DirtyProcess, MemoryImage
from .migration import MigrationParams
from .model import (
    DriverKind,
    HostNode,
    IsolationLevel,
    Link,
    NetworkDriverProfile,
    NfInstance,
    NfKind,
    PduSession,
    SessionType,
    ValidatedTopology,
    validate_topology,
)
from .policy import Objective

DEFAULT_CPU_CAPACITY = 4.0
DEFAULT_MEMORY = {
    "num_pages": 256,
    "page_size": 4096,
    "working_set_fraction": 0.2,
    "dirty_model": {"kind": "constant-rate", "rate_pages_per_s": 50},
}
DEFAULT_RTT_SAMPLE_INTERVAL_US = 100_000
DEFAULT_AFFECTED_KINDS = (NfKind.SMF, NfKind.AMF)


@dataclass(frozen=True)
class UeSpec:
    id: str
    zone: str


@dataclass(frozen=True)
class DirtyModelSpec:
    model: str
    rate_pages_per_s: float = 0.0
    p_per_page_per_ms: float = 0.0

    def build(self, rng) -> DirtyProcess:
        if self.model == "constant-rate":
            return ConstantRateDirty(self.rate_pages_per_s)
        return BernoulliDirty(self.p_per_page_per_ms, rng)


@dataclass(frozen=True)
class MigrationTrigger:
    time_us: int
    ue_id: str
    new_zone: str
    affected_kinds: tuple[NfKind, ...] = DEFAULT_AFFECTED_KINDS
    objective: Objective | None = None  # overrides the scenario objective

    def __post_init__(self):
        if self.time_us < 0:
            raise ValueError(f"time_us must be >= 0, got {self.time_us}")


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    duration_us: int
    objective: Objective
    rtt_sample_interval_us: int
    topology: ValidatedTopology
    ue: UeSpec | None
    migration_params: MigrationParams
    triggers: tuple[MigrationTrigger, ...]
    dirty_specs: Mapping[str, DirtyModelSpec]
    raw: dict

    def __post_init__(self):
        if self.duration_us < 0:
            raise ValueError(f"duration_us must be >= 0, got {self.duration_us}")
        if self.rtt_sample_interval_us <= 0:
            raise ValueError(
                f"rtt_sample_interval_us must be > 0, got {self.rtt_sample_interval_us}"
            )


class _Reader:
    """Mapping access with dotted-path error messages and typo detection."""

    def __init__(self, data: Mapping[str, Any], path: str):
        if not isinstance(data, Mapping):
            raise ScenarioParseError(f"'{path}' must be an object")
        self.data = data
        self.path = path

    def _full(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def require(self, key: str, kinds: type | tuple) -> Any:
        if key not in self.data:
            raise ScenarioParseError(f"missing required key '{self._full(key)}'")
        return self._typed(key, kinds)

    def optional(self, key: str, kinds: type | tuple, default: Any) -> Any:
        if key not in self.data:
            return default
        return self._typed(key, kinds)

    def _typed(self, key: str, kinds: type | tuple) -> Any:
        value = self.data[key]
        if kinds is float:
            kinds = (int, float)
        if not isinstance(value, kinds) or isinstance(value, bool) and kinds != bool:
            raise ScenarioParseError(
                f"'{self._full(key)}' has wrong type {type(value).__name__}"
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise ScenarioParseError(f"'{self._full(key)}' must be finite, got {value}")
        return value

    def reject_unknown(self, allowed: set[str]) -> None:
        for key in self.data:
            if key not in allowed:
                raise ScenarioParseError(f"unknown key '{self._full(key)}'")

    def sub(self, key: str) -> "_Reader":
        return _Reader(self.data[key], self._full(key))

    def build(self, constructor: Callable, *args, **kwargs) -> Any:
        """Call ``constructor``; a bound it rejects is reported at this object's path.

        The domain types own their numeric bounds: their ``ValueError`` or
        :class:`InvariantViolation` names the field, and the parser adds where
        in the document the object is.
        """
        try:
            return constructor(*args, **kwargs)
        except InvariantViolation as exc:
            detail = exc.detail
        except ValueError as exc:
            detail = str(exc)
        raise ScenarioParseError(f"'{self.path}': {detail}" if self.path else detail)


def _enum_value(enum_cls, raw: str, path: str):
    try:
        return enum_cls(raw)
    except ValueError:
        valid = ", ".join(e.value for e in enum_cls)
        raise ScenarioParseError(f"'{path}' must be one of: {valid} (got '{raw}')") from None


def _parse_driver_overrides(reader: _Reader) -> dict[DriverKind, NetworkDriverProfile]:
    overrides = {}
    for raw_kind, raw_profile in reader.data.items():
        kind = _enum_value(DriverKind, raw_kind, f"{reader.path}.{raw_kind}")
        sub = _Reader(raw_profile, f"{reader.path}.{raw_kind}")
        sub.reject_unknown({"rtt_inter_host_us", "carries_l2", "isolation"})
        rtt = sub.require("rtt_inter_host_us", int)
        carries_l2 = sub.require("carries_l2", bool)
        raw_isolation = sub.require("isolation", str)
        try:
            isolation = IsolationLevel[raw_isolation.upper()]
        except KeyError:
            valid = ", ".join(level.name.lower() for level in IsolationLevel)
            raise ScenarioParseError(
                f"'{sub.path}.isolation' must be one of: {valid} (got '{raw_isolation}')"
            ) from None
        overrides[kind] = sub.build(NetworkDriverProfile, kind, rtt, carries_l2, isolation)
    return overrides


def _parse_memory(reader: _Reader) -> tuple[MemoryImage, DirtyModelSpec]:
    reader.reject_unknown(
        {"num_pages", "page_size", "working_set_fraction", "working_set", "dirty_model"}
    )
    image = reader.build(
        MemoryImage,
        reader.optional("num_pages", int, DEFAULT_MEMORY["num_pages"]),
        reader.optional("page_size", int, DEFAULT_MEMORY["page_size"]),
        working_set=reader.optional("working_set", list, None),
        working_set_fraction=reader.optional(
            "working_set_fraction", float, DEFAULT_MEMORY["working_set_fraction"]
        ),
    )
    raw_model = reader.optional("dirty_model", dict, DEFAULT_MEMORY["dirty_model"])
    model_reader = _Reader(raw_model, f"{reader.path}.dirty_model")
    model_reader.reject_unknown({"kind", "rate_pages_per_s", "p_per_page_per_ms"})
    model_kind = model_reader.require("kind", str)
    if model_kind == "constant-rate":
        rate = model_reader.optional(
            "rate_pages_per_s", float, DEFAULT_MEMORY["dirty_model"]["rate_pages_per_s"]
        )
        spec = DirtyModelSpec("constant-rate", rate_pages_per_s=rate)
    elif model_kind == "bernoulli":
        p = model_reader.require("p_per_page_per_ms", float)
        spec = DirtyModelSpec("bernoulli", p_per_page_per_ms=p)
    else:
        raise ScenarioParseError(
            f"'{model_reader.path}.kind' must be 'constant-rate' or 'bernoulli' "
            f"(got '{model_kind}')"
        )
    # Built once so the model checks its numbers; the runner builds the seeded one.
    model_reader.build(spec.build, None)
    return image, spec


def build_scenario(data: Mapping[str, Any], source: str = "<dict>") -> Scenario:
    """Construct and validate a scenario from an already-parsed document."""
    top = _Reader(data, "")
    top.reject_unknown(
        {
            "name",
            "seed",
            "duration_us",
            "objective",
            "rtt_sample_interval_us",
            "topology",
            "ue",
            "nfs",
            "sessions",
            "migration_params",
            "triggers",
        }
    )
    name = top.optional("name", str, Path(source).stem if source != "<dict>" else "scenario")
    seed = top.optional("seed", int, 0)
    duration_us = top.require("duration_us", int)
    objective = _enum_value(
        Objective, top.optional("objective", str, Objective.MINIMIZE_DOWNTIME.value),
        "objective",
    )
    interval = top.optional("rtt_sample_interval_us", int, DEFAULT_RTT_SAMPLE_INTERVAL_US)

    top.require("topology", dict)
    topo_reader = top.sub("topology")
    topo_reader.reject_unknown(
        {"intra_host_latency_us", "l2_overlay_enabled", "driver_overrides", "hosts", "links"}
    )
    intra = topo_reader.optional("intra_host_latency_us", float, 25)
    l2_overlay = topo_reader.optional("l2_overlay_enabled", bool, False)
    overrides = {}
    if "driver_overrides" in topo_reader.data:
        topo_reader.require("driver_overrides", dict)
        overrides = _parse_driver_overrides(topo_reader.sub("driver_overrides"))

    hosts = []
    for i, raw_host in enumerate(topo_reader.require("hosts", list)):
        reader = _Reader(raw_host, f"topology.hosts[{i}]")
        reader.reject_unknown({"id", "hall", "cpu_capacity", "driver"})
        hosts.append(
            reader.build(
                HostNode,
                id=reader.require("id", str),
                hall=reader.require("hall", str),
                cpu_capacity=reader.optional("cpu_capacity", float, DEFAULT_CPU_CAPACITY),
                attached_driver=_enum_value(
                    DriverKind, reader.require("driver", str), f"{reader.path}.driver"
                ),
            )
        )

    links = []
    for i, raw_link in enumerate(topo_reader.optional("links", list, [])):
        reader = _Reader(raw_link, f"topology.links[{i}]")
        reader.reject_unknown({"a", "b", "bandwidth_bps", "extra_latency_us"})
        links.append(
            reader.build(
                Link,
                a=reader.require("a", str),
                b=reader.require("b", str),
                bandwidth_bps=reader.require("bandwidth_bps", int),
                extra_latency_us=reader.optional("extra_latency_us", int, 0),
            )
        )

    ue = None
    if "ue" in data:
        reader = top.sub("ue")
        reader.reject_unknown({"id", "zone"})
        ue = UeSpec(reader.require("id", str), reader.require("zone", str))

    nfs = []
    dirty_specs: dict[str, DirtyModelSpec] = {}
    for i, raw_nf in enumerate(top.optional("nfs", list, [])):
        reader = _Reader(raw_nf, f"nfs[{i}]")
        reader.reject_unknown(
            {"id", "kind", "host", "stateful", "cpu_demand", "memory"}
        )
        nf_id = reader.require("id", str)
        kind = _enum_value(NfKind, reader.require("kind", str), f"{reader.path}.kind")
        stateful = reader.optional("stateful", bool, None)
        demand = reader.optional("cpu_demand", float, 1.0)
        nf = NfInstance(
            id=nf_id,
            kind=kind,
            host=reader.require("host", str),
            stateful=stateful,
            cpu_demand=demand,
        )
        if nf.stateful:
            raw_memory = reader.optional("memory", dict, DEFAULT_MEMORY)
            image, spec = _parse_memory(_Reader(raw_memory, f"{reader.path}.memory"))
            nf.memory = image
            dirty_specs[nf_id] = spec
        elif "memory" in reader.data:
            raise ScenarioParseError(
                f"'{reader.path}.memory' given for a stateless instance"
            )
        nfs.append(nf)

    sessions = []
    for i, raw_session in enumerate(top.optional("sessions", list, [])):
        reader = _Reader(raw_session, f"sessions[{i}]")
        reader.reject_unknown({"id", "type", "ue_id", "anchor_upf"})
        sessions.append(
            PduSession(
                id=reader.require("id", str),
                session_type=_enum_value(
                    SessionType, reader.require("type", str), f"{reader.path}.type"
                ),
                ue_id=reader.require("ue_id", str),
                anchor_upf=reader.require("anchor_upf", str),
            )
        )

    params_reader = _Reader(top.optional("migration_params", dict, {}), "migration_params")
    params_reader.reject_unknown({field.name for field in fields(MigrationParams)})
    migration_params = params_reader.build(
        MigrationParams, **{key: params_reader.require(key, int) for key in params_reader.data}
    )

    triggers = []
    for i, raw_trigger in enumerate(top.optional("triggers", list, [])):
        reader = _Reader(raw_trigger, f"triggers[{i}]")
        reader.reject_unknown({"time_us", "ue_id", "new_zone", "affected_kinds", "objective"})
        time_us = reader.require("time_us", int)
        kinds = tuple(
            _enum_value(NfKind, raw, f"{reader.path}.affected_kinds[{j}]")
            for j, raw in enumerate(
                reader.optional(
                    "affected_kinds", list, [k.value for k in DEFAULT_AFFECTED_KINDS]
                )
            )
        )
        trigger_objective = None
        if "objective" in reader.data:
            trigger_objective = _enum_value(
                Objective, reader.require("objective", str), f"{reader.path}.objective"
            )
        triggers.append(
            reader.build(
                MigrationTrigger,
                time_us=time_us,
                ue_id=reader.require("ue_id", str),
                new_zone=reader.require("new_zone", str),
                affected_kinds=kinds,
                objective=trigger_objective,
            )
        )
    triggers.sort(key=lambda t: t.time_us)

    try:
        topology = validate_topology(
            hosts,
            links,
            nfs,
            sessions=sessions,
            drivers=overrides or None,
            intra_host_latency_us=intra,
            l2_overlay_enabled=l2_overlay,
        )
    except SimulatorError as exc:
        raise ScenarioValidationError(str(exc)) from exc
    scenario = top.build(
        Scenario,
        name=name,
        seed=seed,
        duration_us=duration_us,
        objective=objective,
        rtt_sample_interval_us=interval,
        topology=topology,
        ue=ue,
        migration_params=migration_params,
        triggers=tuple(triggers),
        dirty_specs=dirty_specs,
        raw=copy.deepcopy(dict(data)),
    )

    for i, trigger in enumerate(triggers):
        if trigger.time_us > duration_us:
            raise ScenarioValidationError(
                f"triggers[{i}].time_us={trigger.time_us} exceeds duration_us={duration_us}"
            )
        if ue is not None and trigger.ue_id != ue.id:
            raise ScenarioValidationError(
                f"triggers[{i}] references unknown UE '{trigger.ue_id}'"
            )
    zones = [(f"triggers[{i}].new_zone", t.new_zone) for i, t in enumerate(triggers)]
    if ue is not None:
        zones.append(("ue.zone", ue.zone))
    halls = {host.hall for host in hosts}
    # Functions only ever run on hosts reachable from where they started.
    origin = min((nf.host for nf in nfs), default=None)
    for where, zone in zones:
        if zone not in halls:
            raise ScenarioValidationError(f"{where} '{zone}' matches no host hall")
        for host in hosts:
            if origin is None or host.hall != zone:
                continue
            try:
                topology.path_between(origin, host.id)
            except NoPathError:
                raise ScenarioValidationError(
                    f"{where} '{zone}': host '{host.id}' cannot be reached from the "
                    "hosts that run functions"
                ) from None
    for i, session in enumerate(sessions):
        if ue is not None and session.ue_id != ue.id:
            raise ScenarioValidationError(
                f"sessions[{i}] references unknown UE '{session.ue_id}'"
            )

    return scenario


def load_scenario(path: str | Path) -> Scenario:
    """Parse, default-fill and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioParseError(f"cannot read '{path}': {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"'{path}' is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioParseError(f"'{path}' must contain a JSON object")
    return build_scenario(data, source=str(path))


def bundled_scenario_path(name: str = "drone") -> Path:
    """Filesystem path of a scenario shipped with the package."""
    return Path(resources.files("nfmigsim") / "scenarios" / f"{name}.scenario")
