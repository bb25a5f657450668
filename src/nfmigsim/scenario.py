"""Scenario files: topology, deployment, mobility triggers, run parameters.

A scenario is a single JSON document (conventionally ``*.scenario``).  Each
object's keys, with each key's type and the default of an omitted key, are
declared once, in the ``_*_KEYS`` and ``_DIRTY_MODELS`` tables below.

The parser checks types, key names and that every number is finite (JSON
as read by Python may hold ``NaN`` and ``Infinity``, and a float key may be
given an integer no float can hold).  Every dotted path an error names,
such as ``nfs[1].memory``, comes from :class:`_Reader`.  Each numeric bound
belongs to the constructor of the object that stores the value, and
:meth:`_Reader.build` reports a rejected value as ``'<path of the object>':
<field> ...`` (top-level keys have no path).  The one range comparison the
parser makes is ``MAX_PAGES_PER_SCENARIO``, a sum over objects that must be
checked before each image is allocated.  Validation errors name the
offending entity: ``validate_topology`` owns the topology's rules, among
them ``intra_host_latency_us``, and :class:`Scenario` owns the rules that
tie its objects together, so a scenario made in code is checked like a file.
"""

from __future__ import annotations

import json
import re
import sys
from collections.abc import Callable, Mapping
from enum import Enum, EnumMeta
from functools import wraps
from pathlib import Path
from types import GenericAlias
from typing import Any, NamedTuple, get_args

from .errors import (
    InvariantViolation,
    ScenarioParseError,
    ScenarioValidationError,
    SimulatorError,
    check_bound,
    checked,
    os_error_text,
    shown,
)
from .memory import (
    DEFAULT_WORKING_SET_FRACTION,
    BernoulliDirty,
    ConstantRateDirty,
    DirtyProcess,
    MemoryImage,
)
from .migration import MigrationParams
from .model import (
    DEFAULT_INTRA_HOST_LATENCY_US,
    STATEFUL_VARIANTS,
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

#: The most RTT samples a run may take, past the one at time 0.
MAX_RTT_SAMPLES = 10**6
#: The most pages a scenario's images may hold together (one state byte each).
MAX_PAGES_PER_SCENARIO = 10**7
#: The largest seed magnitude a run takes: a seed is formatted into every stream's label.
MAX_SEED = 2**63 - 1
DEFAULT_AFFECTED_KINDS = (NfKind.SMF, NfKind.AMF)


class Objective(str, Enum):
    MINIMIZE_DOWNTIME = "downtime"
    MINIMIZE_MIGRATION_TIME = "migration-time"
    MINIMIZE_BYTES = "bytes"


class UeSpec(NamedTuple):
    id: str
    zone: str


class DirtyModelSpec(NamedTuple):
    model: str
    value: float  # the model's one number: rate_pages_per_s or p_per_page_per_ms

    def build(self, rng) -> DirtyProcess:
        if self.model == "constant-rate":
            return ConstantRateDirty(self.value)
        return BernoulliDirty(self.value, rng)


@checked
class MigrationTrigger(NamedTuple):
    time_us: int
    ue_id: str
    new_zone: str
    affected_kinds: tuple[NfKind, ...] = DEFAULT_AFFECTED_KINDS
    objective: Objective | None = None  # overrides the scenario objective

    def _check(self):
        check_bound("time_us", self.time_us, 0, integer=True)


class _ScenarioFields(NamedTuple):
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


# A wrong argument count raises from this function, so its TypeError names the public class.
_ScenarioFields.__new__.__qualname__ = "Scenario.__new__"


class Scenario(_ScenarioFields):
    """A checked scenario; its triggers, given in any order, are kept in time order.

    The constructor and ``_make``, and so ``_replace``, check its bounds and
    the rules that tie its objects together, then sort the triggers.  A
    ``typing.NamedTuple`` class body cannot define ``__new__`` or ``_make``,
    so the fields are declared in a base class.
    """

    __slots__ = ()

    @wraps(_ScenarioFields.__new__)
    def __new__(cls, *args, **kwargs):
        return cls._make(_ScenarioFields(*args, **kwargs))

    @classmethod
    def _make(cls, values) -> Scenario:
        fields = _ScenarioFields._make(values)
        seed, duration_us, interval = fields.seed, fields.duration_us, fields.rtt_sample_interval_us
        ue, topology, triggers = fields.ue, fields.topology, fields.triggers
        check_bound("seed", seed, -MAX_SEED, MAX_SEED, integer=True)
        check_bound("duration_us", duration_us, 0, integer=True)
        check_bound("rtt_sample_interval_us", interval, above=0, integer=True)
        samples = duration_us // interval
        check_bound("duration_us // rtt_sample_interval_us", samples, high=MAX_RTT_SAMPLES)
        # Checked in the order given, so an error names the trigger's index there.
        for i, t in enumerate(triggers):
            if t.time_us > duration_us:
                raise ScenarioValidationError(
                    f"triggers[{i}].time_us={shown(t.time_us)} exceeds"
                    f" duration_us={shown(duration_us)}"
                )
            if ue is not None and t.ue_id != ue.id:
                raise ScenarioValidationError(
                    f"triggers[{i}] references unknown UE {shown(t.ue_id)}"
                )
        zones = [(f"triggers[{i}].new_zone", t.new_zone) for i, t in enumerate(triggers)]
        if ue is not None:
            zones.append(("ue.zone", ue.zone))
        # Functions only ever run on hosts reachable from where they started.
        origin = min((nf.host for nf in topology.nfs.values()), default=None)
        reachable = topology.routes_from(origin) if origin is not None else topology.hosts
        for where, zone in zones:
            in_zone = topology.hosts_in_hall(zone)
            if not in_zone:
                raise ScenarioValidationError(f"{where} {shown(zone)} matches no host hall")
            for host in in_zone:
                if host.id not in reachable:
                    raise ScenarioValidationError(
                        f"{where}: host {shown(host.id)} cannot be reached from the hosts that"
                        " run functions"
                    )
        for i, s in enumerate(topology.sessions):
            if ue is not None and s.ue_id != ue.id:
                raise ScenarioValidationError(
                    f"sessions[{i}] references unknown UE {shown(s.ue_id)}"
                )
        by_time = tuple(sorted(triggers, key=lambda t: t.time_us))
        return tuple.__new__(cls, fields._replace(triggers=by_time))


class _Reader:
    """Mapping access with dotted-path error messages and typo detection."""

    def __init__(self, data: Mapping[str, Any], path: str):
        if not isinstance(data, Mapping):
            raise ScenarioParseError(f"'{path}' must be an object")
        self.data = data
        self.path = path

    def path_of(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def fields(self, table: Mapping[str, tuple]) -> list:
        """Reject any key ``table`` does not name, then read its keys in its order."""
        for key in self.data:
            if key not in table:
                raise ScenarioParseError(f"unknown key {shown(self.path_of(key))}")
        read = self.read
        return [read(key, spec) for key, spec in table.items()]

    def read(self, key: str, spec: tuple) -> Any:
        """The value at ``key`` checked against ``spec``: ``(kind,)`` or ``(kind, default)``.

        ``kind`` is a JSON type (``float`` takes integers too), an enum read
        from a string, ``_Reader`` for an object, or ``list[kind]`` for a
        list of enums or objects.  A list of objects is read lazily, one
        child reader per item as it is reached.  An absent key reads as the
        default, which for an object is read as if given; without a
        default, it is an error.
        """
        kind = spec[0]
        if key in self.data:
            value = self.data[key]
        elif len(spec) == 1:
            raise ScenarioParseError(f"missing required key '{self.path_of(key)}'")
        elif kind is _Reader and spec[1] is not None:
            value = spec[1]
        else:
            return spec[1]
        if kind is _Reader:
            return _Reader(value, self.path_of(key))
        plain = _JSON_TYPES.get(kind)  # None for an enum or a list
        checked = plain or (list if isinstance(kind, GenericAlias) else str)
        if not isinstance(value, checked) or isinstance(value, bool) and kind is not bool:
            raise ScenarioParseError(f"'{self.path_of(key)}' has wrong type {type(value).__name__}")
        # NaN fails too, and so does an integer too large to read as a float.
        if kind is float and not abs(value) <= sys.float_info.max:
            raise ScenarioParseError(f"'{self.path_of(key)}' must be finite, got {shown(value)}")
        if plain is str and not value.isascii() and _SURROGATE.search(value):
            path = self.path_of(key)
            raise ScenarioParseError(f"'{path}' must be valid UTF-8, got {shown(value)}")
        if plain:
            return value
        if checked is list:
            (member,) = get_args(kind)
            items = (self.member(member, raw, f"{key}[{j}]") for j, raw in enumerate(value))
            return items if member is _Reader else tuple(items)
        return self.member(kind, value, key)

    def member(self, kind: EnumMeta | type[_Reader], raw: Any, key: str) -> Any:
        """The member of ``kind`` (an enum, or ``_Reader``) for ``raw``, found at ``key``."""
        if kind is _Reader:
            return _Reader(raw, self.path_of(key))
        try:
            return kind(raw)
        except ValueError:
            valid = ", ".join(m.value for m in kind)
            raise ScenarioParseError(
                f"{shown(self.path_of(key))} must be one of: {valid} (got {shown(raw)})"
            ) from None

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


#: A lone surrogate, which JSON writes as "\ud800" and no UTF-8 output file can hold.
_SURROGATE = re.compile("[\ud800-\udfff]")

#: The types a value of each plain JSON kind may have.
_JSON_TYPES = {str: str, int: int, float: (int, float), bool: bool, list: list}

# Each object's keys in reading order, which is also the order its values
# are unpacked in: key -> (kind,) when required, or (kind, default).  A
# default of None means "absent", which the code that reads the table resolves.
_TOP_KEYS = {
    "name": (str, None),  # the file's stem
    "seed": (int, 0),
    "duration_us": (int,),
    "objective": (Objective, Objective.MINIMIZE_DOWNTIME),
    "rtt_sample_interval_us": (int, 100_000),
    "topology": (_Reader,),
    "ue": (_Reader, None),
    "nfs": (list[_Reader], ()),
    "sessions": (list[_Reader], ()),
    "migration_params": (_Reader, {}),
    "triggers": (list[_Reader], ()),
}
_TOPOLOGY_KEYS = {
    "intra_host_latency_us": (float, DEFAULT_INTRA_HOST_LATENCY_US),
    "driver_overrides": (_Reader, {}),
    "hosts": (list[_Reader],),
    "links": (list[_Reader], ()),
}
_DRIVER_KEYS = {"rtt_inter_host_us": (int,), "carries_l2": (bool,), "isolation": (IsolationLevel,)}
_HOST_KEYS = {
    "id": (str,),
    "hall": (str,),
    "cpu_capacity": (float, 4.0),
    "driver": (DriverKind,),
}
_LINK_KEYS = {
    "a": (str,),
    "b": (str,),
    "bandwidth_bps": (int,),
    "extra_latency_us": (int, Link._field_defaults["extra_latency_us"]),
}
_UE_KEYS = {"id": (str,), "zone": (str,)}
_NF_KEYS = {
    "id": (str,),
    "kind": (NfKind,),
    "stateful": (bool, None),  # the kind's default variant
    "cpu_demand": (float, NfInstance._field_defaults["cpu_demand"]),
    "host": (str,),
    "memory": (_Reader, {}),
}
_MEMORY_KEYS = {
    "num_pages": (int, 256),
    "page_size": (int, 4096),
    "working_set": (list, None),
    "working_set_fraction": (float, DEFAULT_WORKING_SET_FRACTION),
    "dirty_model": (_Reader, {"kind": "constant-rate"}),
}
#: One table per dirty-model kind, so a model holding another kind's number is rejected.
_DIRTY_MODELS = {
    "constant-rate": {"kind": (str,), "rate_pages_per_s": (float, 50)},
    "bernoulli": {"kind": (str,), "p_per_page_per_ms": (float,)},
}
_SESSION_KEYS = {
    "id": (str,),
    "type": (SessionType,),
    "ue_id": (str,),
    "anchor_upf": (str,),
}
_MIGRATION_PARAMS_KEYS = {
    name: (int, default) for name, default in MigrationParams._field_defaults.items()
}
_TRIGGER_KEYS = {
    "time_us": (int,),
    "affected_kinds": (list[NfKind], MigrationTrigger._field_defaults["affected_kinds"]),
    "objective": (Objective, MigrationTrigger._field_defaults["objective"]),  # None: the scenario's
    "ue_id": (str,),
    "new_zone": (str,),
}


def _parse_memory(reader: _Reader, pages_before: int) -> tuple[MemoryImage, DirtyModelSpec]:
    """The image and dirty model at ``reader``; ``pages_before`` earlier images' pages."""
    num_pages, page_size, working_set, fraction, model_reader = reader.fields(_MEMORY_KEYS)
    # Checked before the image allocates its state bytes.
    room = MAX_PAGES_PER_SCENARIO - pages_before
    if num_pages > room:
        raise ScenarioParseError(
            f"'{reader.path}': num_pages must be <= {room} (a scenario's {MAX_PAGES_PER_SCENARIO}"
            f" pages less {pages_before} in earlier images), got {shown(num_pages)}"
        )
    image = reader.build(MemoryImage, num_pages, page_size, working_set, fraction)
    model = model_reader.read("kind", (str,))
    table = _DIRTY_MODELS.get(model)
    if table is None:
        raise ScenarioParseError(
            f"'{model_reader.path_of('kind')}' must be 'constant-rate' or 'bernoulli'"
            f" (got {shown(model)})"
        )
    _, value = model_reader.fields(table)
    spec = DirtyModelSpec(model, value)
    # Built once so the model checks its number; the runner builds the seeded one.
    model_reader.build(spec.build, None)
    return image, spec


def build_scenario(data: Mapping[str, Any], source: str = "<dict>") -> Scenario:
    """Construct and validate a scenario from an already-parsed document."""
    top = _Reader(data, "")
    name, seed, duration_us, objective, interval, *readers = top.fields(_TOP_KEYS)
    topo_reader, ue_reader, nf_readers, session_readers, params_reader, trigger_readers = readers
    if name is None:
        name = Path(source).stem if source != "<dict>" else "scenario"

    intra, drivers, host_readers, link_readers = topo_reader.fields(_TOPOLOGY_KEYS)
    overrides = {}
    for raw_kind in drivers.data:
        kind = topo_reader.member(DriverKind, raw_kind, "driver_overrides")
        reader = drivers.read(raw_kind, (_Reader,))
        overrides[kind] = reader.build(NetworkDriverProfile, kind, *reader.fields(_DRIVER_KEYS))
    hosts = [reader.build(HostNode, *reader.fields(_HOST_KEYS)) for reader in host_readers]
    links = [reader.build(Link, *reader.fields(_LINK_KEYS)) for reader in link_readers]
    ue = UeSpec(*ue_reader.fields(_UE_KEYS)) if ue_reader is not None else None

    nfs = []
    dirty_specs: dict[str, DirtyModelSpec] = {}
    pages = 0
    for reader in nf_readers:
        nf_id, kind, stateful, demand, host, memory_reader = reader.fields(_NF_KEYS)
        if stateful is None:
            stateful = STATEFUL_VARIANTS[kind][0]
        memory = None
        if stateful:
            memory, dirty_specs[nf_id] = _parse_memory(memory_reader, pages)
            pages += memory.num_pages
        elif "memory" in reader.data:
            raise ScenarioParseError(f"'{memory_reader.path}' given for a stateless instance")
        nfs.append(reader.build(NfInstance, nf_id, kind, host, memory, demand))

    sessions = [PduSession(*reader.fields(_SESSION_KEYS)) for reader in session_readers]
    migration_params = params_reader.build(
        MigrationParams, *params_reader.fields(_MIGRATION_PARAMS_KEYS)
    )
    triggers = []
    for reader in trigger_readers:
        time_us, kinds, own_objective, ue_id, zone = reader.fields(_TRIGGER_KEYS)
        triggers.append(reader.build(MigrationTrigger, time_us, ue_id, zone, kinds, own_objective))

    try:
        topology = validate_topology(
            hosts,
            links,
            nfs,
            sessions=sessions,
            drivers=overrides,
            intra_host_latency_us=intra,
        )
    except SimulatorError as exc:
        raise ScenarioValidationError(str(exc)) from exc
    # Scenario checks the rules that tie its objects together; it raises
    # ScenarioValidationError, which ``build`` lets through.
    return top.build(
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
    )


def read_document(path: str | Path) -> dict:
    """The JSON object a scenario file holds, not yet validated."""
    path = Path(path)
    name = shown(str(path))
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:  # its text names the path
        raise ScenarioParseError(f"cannot read the scenario: {os_error_text(exc)}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"cannot read {name}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{name} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer past Python's digit limit
        limit = sys.get_int_max_str_digits()
        raise ScenarioParseError(f"{name} holds an integer of more than {limit} digits") from exc
    except RecursionError as exc:
        raise ScenarioParseError(f"{name} nests JSON too deeply") from exc
    if not isinstance(data, dict):
        raise ScenarioParseError(f"{name} must contain a JSON object")
    return data


def load_scenario(path: str | Path) -> Scenario:
    """Parse, default-fill and validate a scenario file."""
    return build_scenario(read_document(path), source=str(path))


def bundled_scenario_path(name: str = "drone") -> Path:
    """Filesystem path of a scenario shipped with the package."""
    return Path(__file__).parent / "scenarios" / f"{name}.scenario"
