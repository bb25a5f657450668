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

Parse errors name the offending key; validation errors name the offending
entity.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

from .errors import (
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
        return value

    def reject_unknown(self, allowed: set[str]) -> None:
        for key in self.data:
            if key not in allowed:
                raise ScenarioParseError(f"unknown key '{self._full(key)}'")

    def sub(self, key: str) -> "_Reader":
        return _Reader(self.data[key], self._full(key))


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
        if rtt <= 0:
            raise ScenarioParseError(
                f"'{sub.path}.rtt_inter_host_us' must be positive, got {rtt}"
            )
        carries_l2 = sub.require("carries_l2", bool)
        raw_isolation = sub.require("isolation", str)
        try:
            isolation = IsolationLevel[raw_isolation.upper()]
        except KeyError:
            valid = ", ".join(level.name.lower() for level in IsolationLevel)
            raise ScenarioParseError(
                f"'{sub.path}.isolation' must be one of: {valid} (got '{raw_isolation}')"
            ) from None
        overrides[kind] = NetworkDriverProfile(kind, rtt, carries_l2, isolation)
    return overrides


def _parse_memory(reader: _Reader) -> tuple[MemoryImage, DirtyModelSpec]:
    reader.reject_unknown(
        {"num_pages", "page_size", "working_set_fraction", "working_set", "dirty_model"}
    )
    num_pages = reader.optional("num_pages", int, DEFAULT_MEMORY["num_pages"])
    page_size = reader.optional("page_size", int, DEFAULT_MEMORY["page_size"])
    if num_pages < 0:
        raise ScenarioParseError(f"'{reader.path}.num_pages' must be >= 0, got {num_pages}")
    if page_size <= 0:
        raise ScenarioParseError(f"'{reader.path}.page_size' must be > 0, got {page_size}")
    working_set = None
    if "working_set" in reader.data:
        working_set = reader.require("working_set", list)
    fraction = reader.optional(
        "working_set_fraction", float, DEFAULT_MEMORY["working_set_fraction"]
    )
    raw_model = reader.optional("dirty_model", dict, DEFAULT_MEMORY["dirty_model"])
    model_reader = _Reader(raw_model, f"{reader.path}.dirty_model")
    model_reader.reject_unknown({"kind", "rate_pages_per_s", "p_per_page_per_ms"})
    model_kind = model_reader.require("kind", str)
    if model_kind == "constant-rate":
        rate = model_reader.optional(
            "rate_pages_per_s", float, DEFAULT_MEMORY["dirty_model"]["rate_pages_per_s"]
        )
        if rate < 0:
            raise ScenarioParseError(
                f"'{model_reader.path}.rate_pages_per_s' must be >= 0, got {rate}"
            )
        spec = DirtyModelSpec("constant-rate", rate_pages_per_s=rate)
    elif model_kind == "bernoulli":
        p = model_reader.require("p_per_page_per_ms", float)
        if not 0.0 <= p <= 1.0:
            raise ScenarioParseError(
                f"'{model_reader.path}.p_per_page_per_ms' must be in [0, 1], got {p}"
            )
        spec = DirtyModelSpec("bernoulli", p_per_page_per_ms=p)
    else:
        raise ScenarioParseError(
            f"'{model_reader.path}.kind' must be 'constant-rate' or 'bernoulli' "
            f"(got '{model_kind}')"
        )
    try:
        image = MemoryImage(
            num_pages,
            page_size,
            working_set=working_set,
            working_set_fraction=fraction,
        )
    except ValueError as exc:
        raise ScenarioParseError(f"'{reader.path}': {exc}") from None
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
    if duration_us < 0:
        raise ScenarioParseError(f"'duration_us' must be >= 0, got {duration_us}")
    objective = _enum_value(
        Objective, top.optional("objective", str, Objective.MINIMIZE_DOWNTIME.value),
        "objective",
    )
    interval = top.optional("rtt_sample_interval_us", int, DEFAULT_RTT_SAMPLE_INTERVAL_US)
    if interval <= 0:
        raise ScenarioParseError(f"'rtt_sample_interval_us' must be > 0, got {interval}")

    top.require("topology", dict)
    topo_reader = top.sub("topology")
    topo_reader.reject_unknown(
        {"intra_host_latency_us", "l2_overlay_enabled", "driver_overrides", "hosts", "links"}
    )
    intra = topo_reader.optional("intra_host_latency_us", float, 25)
    if intra < 0:
        raise ScenarioParseError(
            f"'topology.intra_host_latency_us' must be >= 0, got {intra}"
        )
    l2_overlay = topo_reader.optional("l2_overlay_enabled", bool, False)
    overrides = {}
    if "driver_overrides" in topo_reader.data:
        topo_reader.require("driver_overrides", dict)
        overrides = _parse_driver_overrides(topo_reader.sub("driver_overrides"))

    hosts = []
    for i, raw_host in enumerate(topo_reader.require("hosts", list)):
        reader = _Reader(raw_host, f"topology.hosts[{i}]")
        reader.reject_unknown({"id", "hall", "cpu_capacity", "driver"})
        capacity = reader.optional("cpu_capacity", float, DEFAULT_CPU_CAPACITY)
        if capacity < 0:
            raise ScenarioParseError(
                f"'{reader.path}.cpu_capacity' must be >= 0, got {capacity}"
            )
        hosts.append(
            HostNode(
                id=reader.require("id", str),
                hall=reader.require("hall", str),
                cpu_capacity=capacity,
                attached_driver=_enum_value(
                    DriverKind, reader.require("driver", str), f"{reader.path}.driver"
                ),
            )
        )

    links = []
    for i, raw_link in enumerate(topo_reader.optional("links", list, [])):
        reader = _Reader(raw_link, f"topology.links[{i}]")
        reader.reject_unknown({"a", "b", "bandwidth_bps", "extra_latency_us"})
        bandwidth = reader.require("bandwidth_bps", int)
        if bandwidth <= 0:
            raise ScenarioParseError(
                f"'{reader.path}.bandwidth_bps' must be positive, got {bandwidth}"
            )
        extra = reader.optional("extra_latency_us", int, 0)
        if extra < 0:
            raise ScenarioParseError(
                f"'{reader.path}.extra_latency_us' must be >= 0, got {extra}"
            )
        links.append(
            Link(
                a=reader.require("a", str),
                b=reader.require("b", str),
                bandwidth_bps=bandwidth,
                extra_latency_us=extra,
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

    raw_params = top.optional("migration_params", dict, {})
    params_reader = _Reader(raw_params, "migration_params")
    param_fields = {
        "freeze_overhead_us",
        "restart_overhead_us",
        "activation_overhead_us",
        "precopy_stop_threshold",
        "precopy_max_rounds",
        "postcopy_fault_deadline_us",
        "ppm_sync_interval_us",
        "handover_signal_roundtrips",
    }
    params_reader.reject_unknown(param_fields)
    kwargs = {
        key: params_reader.require(key, int) for key in param_fields if key in raw_params
    }
    try:
        migration_params = MigrationParams(**kwargs)
    except ValueError as exc:
        raise ScenarioParseError(f"'migration_params': {exc}") from None

    triggers = []
    for i, raw_trigger in enumerate(top.optional("triggers", list, [])):
        reader = _Reader(raw_trigger, f"triggers[{i}]")
        reader.reject_unknown({"time_us", "ue_id", "new_zone", "affected_kinds", "objective"})
        time_us = reader.require("time_us", int)
        if time_us < 0:
            raise ScenarioParseError(f"'{reader.path}.time_us' must be >= 0, got {time_us}")
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
            MigrationTrigger(
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

    return Scenario(
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
