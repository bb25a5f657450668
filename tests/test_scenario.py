"""Scenario loading, end-to-end runs, metric export and the CLI."""

import copy
import errno
import gc
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfmigsim import (
    DriverKind,
    MetricsBundle,
    NoPathError,
    ScenarioParseError,
    ScenarioValidationError,
    Strategy,
    build_scenario,
    bundled_scenario_path,
    export_metrics,
    load_scenario,
    run_scenario,
)
from nfmigsim import scenario as scenario_module
from nfmigsim.cli import main
from nfmigsim.errors import shown
from nfmigsim.runner import MIGRATIONS_CSV_HEADER, TRACE_KINDS
from nfmigsim.scenario import MigrationTrigger, Scenario, UeSpec, read_document

MINIMAL = {
    "duration_us": 500_000,
    "topology": {
        "hosts": [
            {"id": "h1", "hall": "hall-A", "driver": "macvlan"},
            {"id": "h2", "hall": "hall-B", "driver": "macvlan"},
        ],
        "links": [{"a": "h1", "b": "h2", "bandwidth_bps": 100000000}],
    },
    "nfs": [{"id": "upf-1", "kind": "upf", "host": "h1"}],
}


def write(tmp_path, data, name="case.scenario"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def drone_onto_full_edge_a1():
    """The drone document where edge-a1 is exactly full and the trigger goes to hall-A.

    edge-a1 holds upf-1, smf-1 and amf-1 and is the closest feasible host in
    hall-A for each of them, so none of them moves.
    """
    data = read_document(bundled_scenario_path())
    data["topology"]["hosts"][0]["cpu_capacity"] = 3
    data["triggers"][0]["new_zone"] = "hall-A"
    return data


def drone_turning_back_document():
    """The drone document plus a trigger back to hall-A 1 ms after the first."""
    data = read_document(bundled_scenario_path())
    data["triggers"].append({**data["triggers"][0], "time_us": 1_001_000, "new_zone": "hall-A"})
    return data


def data_of(event):
    """The event's ``data`` as the trace writes it: its kind's keys paired with its values."""
    return dict(zip(TRACE_KINDS[event.kind], event.values))


def ethernet_anchor_to_overlay(**topology):
    """MINIMAL with hall-B's host on overlay and a trigger moving the UPF there.

    The UPF anchors the UE's Ethernet session; ``topology`` adds topology keys.
    """
    data = copy.deepcopy(MINIMAL)
    data["topology"]["hosts"][1]["driver"] = "overlay"
    data["topology"].update(topology)
    data["ue"] = {"id": "ue-1", "zone": "hall-A"}
    data["sessions"] = [
        {"id": "pdu-1", "type": "ethernet", "ue_id": "ue-1", "anchor_upf": "upf-1"}
    ]
    data["triggers"] = [
        {"time_us": 100, "ue_id": "ue-1", "new_zone": "hall-B", "affected_kinds": ["upf"]}
    ]
    return data


class TestLoadScenario:
    def test_bundled_drone_scenario(self):
        scenario = load_scenario(bundled_scenario_path())
        assert scenario.name == "drone-hall-transition"
        assert scenario.seed == 42
        halls = {h.hall for h in scenario.topology.hosts.values()}
        assert halls == {"hall-A", "hall-B"}
        assert len(scenario.topology.hosts) == 4
        assert len(scenario.triggers) == 1

    def test_defaults_filled(self, tmp_path):
        scenario = load_scenario(write(tmp_path, MINIMAL))
        assert scenario.seed == 0
        assert scenario.objective.value == "downtime"
        assert scenario.rtt_sample_interval_us == 100_000
        assert scenario.migration_params.precopy_max_rounds == 10
        assert scenario.topology.hosts["h1"].cpu_capacity == 4.0

    def test_stateful_memory_defaults(self, tmp_path):
        data = copy.deepcopy(MINIMAL)
        data["nfs"].append({"id": "smf-1", "kind": "smf", "host": "h1"})
        scenario = load_scenario(write(tmp_path, data))
        image = scenario.topology.nfs["smf-1"].memory
        assert image.num_pages == 256
        assert image.page_size == 4096
        assert scenario.dirty_specs["smf-1"].model == "constant-rate"

    def test_stateful_upf_is_validation_error(self, tmp_path):
        data = copy.deepcopy(MINIMAL)
        data["nfs"] = [{"id": "upf-1", "kind": "upf", "host": "h1", "stateful": True}]
        with pytest.raises(ScenarioValidationError, match="stateless"):
            load_scenario(write(tmp_path, data))

    def test_negative_bandwidth_is_parse_error(self, tmp_path):
        data = copy.deepcopy(MINIMAL)
        data["topology"]["links"][0]["bandwidth_bps"] = -1
        with pytest.raises(ScenarioParseError, match="bandwidth_bps"):
            load_scenario(write(tmp_path, data))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioParseError, match="cannot read"):
            load_scenario(tmp_path / "nope.scenario")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.scenario"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioParseError, match="not valid JSON"):
            load_scenario(path)

    def test_unknown_key_named(self, tmp_path):
        data = copy.deepcopy(MINIMAL)
        data["topology"]["hosts"][0]["driverr"] = "macvlan"
        with pytest.raises(ScenarioParseError, match="driverr"):
            load_scenario(write(tmp_path, data))

    def test_availability_is_unknown_key(self, tmp_path):
        data = copy.deepcopy(MINIMAL)
        data["nfs"][0]["availability"] = "critical"
        with pytest.raises(ScenarioParseError, match=r"unknown key 'nfs\[0\]\.availability'"):
            load_scenario(write(tmp_path, data))

    def test_unknown_driver_named(self, tmp_path):
        data = copy.deepcopy(MINIMAL)
        data["topology"]["hosts"][0]["driver"] = "vxlan"
        with pytest.raises(ScenarioParseError, match="vxlan"):
            load_scenario(write(tmp_path, data))

    def test_trigger_beyond_duration_rejected(self, tmp_path):
        data = copy.deepcopy(MINIMAL)
        data["triggers"] = [{"time_us": 10**9, "ue_id": "ue-1", "new_zone": "hall-B"}]
        with pytest.raises(ScenarioValidationError, match="duration"):
            load_scenario(write(tmp_path, data))

    def test_trigger_zone_must_exist(self, tmp_path):
        data = copy.deepcopy(MINIMAL)
        data["triggers"] = [{"time_us": 10, "ue_id": "ue-1", "new_zone": "hall-Z"}]
        with pytest.raises(ScenarioValidationError, match="hall-Z"):
            load_scenario(write(tmp_path, data))

    def test_driver_override_applies(self, tmp_path):
        data = copy.deepcopy(MINIMAL)
        data["topology"]["driver_overrides"] = {
            "macvlan": {"rtt_inter_host_us": 700, "carries_l2": True, "isolation": "medium"}
        }
        scenario = load_scenario(write(tmp_path, data))
        assert 2 * scenario.topology.one_way_latency_us("h1", "h2") == 700

    def test_isolation_is_read_by_value(self, tmp_path, capsys):
        data = copy.deepcopy(MINIMAL)
        data["topology"]["driver_overrides"] = {
            "macvlan": {"rtt_inter_host_us": 700, "carries_l2": True, "isolation": "HIGH"}
        }
        scenario_file = write(tmp_path, data)
        assert main(["simulate", str(scenario_file), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: 'topology.driver_overrides.macvlan.isolation' must be one of: "
            "none, medium, high (got 'HIGH')\n"
        )

    @pytest.mark.parametrize(
        "model, key",
        [
            ({"kind": "constant-rate", "rate_pages_per_s": 50, "p_per_page_per_ms": 0.001},
             "p_per_page_per_ms"),
            ({"kind": "bernoulli", "rate_pages_per_s": 50}, "rate_pages_per_s"),
            ({"kind": "bernoulli", "p_per_page_per_ms": 0.001, "rate_pages_per_s": 1e9},
             "rate_pages_per_s"),
        ],
    )
    def test_dirty_model_keys_follow_kind(self, tmp_path, capsys, model, key):
        data = read_document(bundled_scenario_path())
        data["nfs"][1]["memory"]["dirty_model"] = model
        scenario_file = write(tmp_path, data)
        assert main(["simulate", str(scenario_file), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: unknown key 'nfs[1].memory.dirty_model.{key}'\n"

    @pytest.mark.parametrize(
        "late, message",
        [
            ({"new_zone": "hall-Z"}, "triggers[0].new_zone 'hall-Z' matches no host hall"),
            ({"ue_id": "drone-9"}, "triggers[0] references unknown UE 'drone-9'"),
        ],
    )
    def test_trigger_errors_name_the_document_index(self, late, message):
        data = read_document(bundled_scenario_path())
        first = data["triggers"][0]
        data["triggers"] = [{**first, "time_us": 1_500_000}, {**first, "time_us": 500_000}]
        assert [t.time_us for t in build_scenario(data).triggers] == [500_000, 1_500_000]
        data["triggers"][0].update(late)
        with pytest.raises(ScenarioValidationError) as info:
            build_scenario(data)
        assert str(info.value) == message


def _at(data, path):
    """The object at a dotted path such as ``nfs[1].memory``; ``""`` is the document."""
    node = data
    for part in filter(None, path.split(".")):
        name, _, index = part.partition("[")
        node = node[name]
        if index:
            node = node[int(index[:-1])]
    return node


def _error_surface_document():
    """The drone scenario plus a driver override and a Bernoulli model to reach."""
    data = json.loads(bundled_scenario_path().read_text(encoding="utf-8"))
    data["topology"]["driver_overrides"] = {
        "macvlan": {"rtt_inter_host_us": 520, "carries_l2": True, "isolation": "medium"}
    }
    data["nfs"][3]["memory"]["dirty_model"] = {"kind": "bernoulli", "p_per_page_per_ms": 0.001}
    return data


# (object path, key, bad value, error); every message names the object by its path.
_BOUNDS = [
    ("", "duration_us", -1, ScenarioParseError),
    ("", "rtt_sample_interval_us", 0, ScenarioParseError),
    ("", "duration_us", 10**30, ScenarioParseError),  # 10**26 RTT samples
    ("", "rtt_sample_interval_us", 1, ScenarioParseError),  # 2 * 10**6 samples
    ("topology", "intra_host_latency_us", -1, ScenarioValidationError),
    ("topology.driver_overrides.macvlan", "rtt_inter_host_us", 0, ScenarioParseError),
    ("topology.hosts[0]", "cpu_capacity", -1, ScenarioParseError),
    ("topology.links[0]", "bandwidth_bps", 0, ScenarioParseError),
    ("topology.links[0]", "extra_latency_us", -1, ScenarioParseError),
    ("nfs[1]", "cpu_demand", -1, ScenarioParseError),
    ("nfs[1].memory", "num_pages", -1, ScenarioParseError),
    ("nfs[1].memory", "num_pages", 2**63, ScenarioParseError),
    ("nfs[1].memory", "num_pages", 10**11, ScenarioParseError),
    ("nfs[1].memory", "page_size", 0, ScenarioParseError),
    ("nfs[1].memory", "working_set_fraction", 1.5, ScenarioParseError),
    ("nfs[1].memory", "working_set", [0, 128], ScenarioParseError),
    ("nfs[1].memory.dirty_model", "rate_pages_per_s", -1, ScenarioParseError),
    ("nfs[3].memory.dirty_model", "p_per_page_per_ms", 1.5, ScenarioParseError),
    ("triggers[0]", "time_us", -1, ScenarioParseError),
    ("migration_params", "precopy_max_rounds", 10**9, ScenarioParseError),
] + [
    ("migration_params", key, 0 if key == "precopy_max_rounds" else -1, ScenarioParseError)
    for key in (
        "freeze_overhead_us",
        "restart_overhead_us",
        "activation_overhead_us",
        "precopy_stop_threshold",
        "precopy_max_rounds",
        "postcopy_fault_deadline_us",
        "ppm_sync_interval_us",
        "handover_signal_roundtrips",
    )
]
_FLOAT_KEYS = [
    ("topology", "intra_host_latency_us"),
    ("topology.hosts[0]", "cpu_capacity"),
    ("nfs[1]", "cpu_demand"),
    ("nfs[1].memory", "working_set_fraction"),
    ("nfs[1].memory.dirty_model", "rate_pages_per_s"),
    ("nfs[3].memory.dirty_model", "p_per_page_per_ms"),
]
_NOT_FINITE = [
    (path, key, value, ScenarioParseError)
    for path, key in _FLOAT_KEYS
    for value in (float("nan"), float("inf"), float("-inf"))
]
_WORKING_SET_ENTRIES = [
    ("nfs[1].memory", "working_set", ids, ScenarioParseError)
    for ids in (["a"], [1.5], [True], [[1]])
]


class TestErrorSurface:
    def test_base_document_is_valid(self):
        build_scenario(_error_surface_document())

    @pytest.mark.parametrize("path, key", _FLOAT_KEYS)
    def test_float_key_rejects_an_integer_no_float_can_hold(self, path, key):
        data = _error_surface_document()
        _at(data, path)[key] = 10**400
        with pytest.raises(ScenarioParseError) as info:
            build_scenario(data)
        assert str(info.value) == f"'{path}.{key}' must be finite, got an integer of 401 digits"

    def test_float_key_reads_an_integer_a_float_can_hold(self):
        data = _error_surface_document()
        data["topology"]["hosts"][0]["cpu_capacity"] = 10**308
        assert build_scenario(data).topology.hosts["edge-a1"].cpu_capacity == 10**308

    def test_a_negative_capacity_reads_like_a_negative_demand(self):
        data = _error_surface_document()
        data["topology"]["hosts"][0]["cpu_capacity"] = -1
        with pytest.raises(ScenarioParseError) as info:
            build_scenario(data)
        message = "'topology.hosts[0]': cpu_capacity must be finite and >= 0, got -1"
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "path, key, value, error",
        [
            pytest.param(*row, id=f"{row[0]}.{row[1]}={row[2]!r}".lstrip("."))
            for row in _BOUNDS + _NOT_FINITE + _WORKING_SET_ENTRIES
        ],
    )
    def test_bad_value_names_object_and_field_and_exits_2(
        self, tmp_path, capsys, path, key, value, error
    ):
        data = _error_surface_document()
        _at(data, path)[key] = value
        scenario_file = write(tmp_path, data)
        with pytest.raises(error) as info:
            load_scenario(scenario_file)
        assert path in str(info.value)
        assert key in str(info.value)
        assert main(["simulate", str(scenario_file), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


def test_images_over_the_scenario_page_bound_exit_2_before_allocation(tmp_path, capsys):
    data = read_document(bundled_scenario_path())
    data["nfs"][1]["memory"]["num_pages"] = 6 * 10**6
    data["nfs"][2]["memory"]["num_pages"] = 6 * 10**6
    message = (
        "'nfs[2].memory': num_pages must be <= 4000000 (a scenario's 10000000 pages "
        "less 6000000 in earlier images), got 6000000"
    )
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioParseError) as info:
            build_scenario(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == message
    assert peak < 7 * 10**6  # one image's state bytes; the second is never allocated
    scenario_file = write(tmp_path, data)
    assert main(["simulate", str(scenario_file), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _node_paths(node, path=()):
    """The key and index path of every node in a JSON document, in document order."""
    yield path
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _node_paths(child, path + (key,))


def _at_path(data, path):
    for key in path:
        data = data[key]
    return data


# Mistyped values (a string, null, a bool, a list, a float where an int
# belongs), then zero, negative and huge numbers.
_FUZZ_VALUES = ["x", None, True, [], 0.5, 0, -1, 2**63, 10**30]
_DOCUMENT = _error_surface_document()
_ALL_PATHS = list(_node_paths(_DOCUMENT))
_LEAVES = [path for path in _ALL_PATHS if not isinstance(_at_path(_DOCUMENT, path), (dict, list))]
_KEYS = [path for path in _ALL_PATHS if path and isinstance(path[-1], str)]
_OBJECTS = [path for path in _ALL_PATHS if isinstance(_at_path(_DOCUMENT, path), dict)]


@settings(max_examples=400, deadline=None)
@given(
    fault=st.one_of(
        st.tuples(st.just("set"), st.sampled_from(_LEAVES), st.sampled_from(_FUZZ_VALUES)),
        st.tuples(st.just("delete"), st.sampled_from(_KEYS), st.none()),
        st.tuples(st.just("add"), st.sampled_from(_OBJECTS), st.none()),
    )
)
def test_one_bad_leaf_runs_or_raises_a_scenario_error(fault):
    operation, path, value = fault
    data = _error_surface_document()
    if operation == "set":
        _at_path(data, path[:-1])[path[-1]] = value
    elif operation == "delete":
        del _at_path(data, path[:-1])[path[-1]]
    else:
        _at_path(data, path)["unknown_key"] = 1
    try:
        scenario = build_scenario(data)
    except (ScenarioParseError, ScenarioValidationError):
        return
    run_scenario(scenario)


def _drone_with_an_isolated_hall():
    """The drone document plus host edge-c1 in hall-C, linked to no other host."""
    data = read_document(bundled_scenario_path())
    data["topology"]["hosts"].append({"id": "edge-c1", "hall": "hall-C", "driver": "macvlan"})
    return data


def _moved_trigger(scenario, **changes):
    """The ``_replace`` changes that edit the scenario's one trigger."""
    (trigger,) = scenario.triggers
    return {"triggers": (trigger._replace(**changes),)}


_UNREACHED = "host 'edge-c1' cannot be reached from the hosts that run functions"
# Each rule that ties a scenario's objects together: a document edit, the same
# fault made in code with ``_replace``, and the message both raise.
_CROSS_OBJECT_FAULTS = {
    "trigger-after-the-run": (
        lambda d: d["triggers"][0].update(time_us=5_000_000),
        lambda s: _moved_trigger(s, time_us=5_000_000),
        "triggers[0].time_us=5000000 exceeds duration_us=2000000",
    ),
    "trigger-of-another-ue": (
        lambda d: d["triggers"][0].update(ue_id="drone-9"),
        lambda s: _moved_trigger(s, ue_id="drone-9"),
        "triggers[0] references unknown UE 'drone-9'",
    ),
    "trigger-into-no-hall": (
        lambda d: d["triggers"][0].update(new_zone="hall-Z"),
        lambda s: _moved_trigger(s, new_zone="hall-Z"),
        "triggers[0].new_zone 'hall-Z' matches no host hall",
    ),
    "trigger-into-an-unreachable-hall": (
        lambda d: d["triggers"][0].update(new_zone="hall-C"),
        lambda s: _moved_trigger(s, new_zone="hall-C"),
        f"triggers[0].new_zone: {_UNREACHED}",
    ),
    "ue-in-no-hall": (
        lambda d: d["ue"].update(zone="hall-Z"),
        lambda s: {"ue": UeSpec("drone-1", "hall-Z")},
        "ue.zone 'hall-Z' matches no host hall",
    ),
    "ue-in-an-unreachable-hall": (
        lambda d: d["ue"].update(zone="hall-C"),
        lambda s: {"ue": UeSpec("drone-1", "hall-C")},
        f"ue.zone: {_UNREACHED}",
    ),
    # A string a document echoes is shown by its start and length past 60 characters.
    "trigger-into-a-long-hall-name": (
        lambda d: d["triggers"][0].update(new_zone="x" * 1000),
        lambda s: _moved_trigger(s, new_zone="x" * 1000),
        f"triggers[0].new_zone '{'x' * 40}...' (1000 characters) matches no host hall",
    ),
    "trigger-of-a-long-ue-id": (
        lambda d: d["triggers"][0].update(ue_id="u" * 1000),
        lambda s: _moved_trigger(s, ue_id="u" * 1000),
        f"triggers[0] references unknown UE '{'u' * 40}...' (1000 characters)",
    ),
    "session-of-another-ue": (
        lambda d: (d["ue"].update(id="drone-9"), d["triggers"][0].update(ue_id="drone-9")),
        lambda s: {"ue": UeSpec("drone-9", "hall-A"), **_moved_trigger(s, ue_id="drone-9")},
        "sessions[0] references unknown UE 'drone-1'",
    ),
}


@pytest.mark.parametrize("fault", list(_CROSS_OBJECT_FAULTS))
def test_a_cross_object_fault_fails_alike_in_a_document_and_in_code(fault):
    edit, changes, message = _CROSS_OBJECT_FAULTS[fault]
    data = _drone_with_an_isolated_hall()
    scenario = build_scenario(copy.deepcopy(data))
    edit(data)
    with pytest.raises(ScenarioValidationError) as from_document:
        build_scenario(data)
    with pytest.raises(ScenarioValidationError) as from_code:
        scenario._replace(**changes(scenario))
    assert str(from_document.value) == str(from_code.value) == message


def test_a_scenario_made_in_code_keeps_its_triggers_in_time_order():
    scenario = load_scenario(bundled_scenario_path())
    (trigger,) = scenario.triggers
    late, early = (trigger._replace(time_us=t) for t in (1_500_000, 500_000))
    moved = scenario._replace(triggers=(late, early))
    assert moved.triggers == (early, late)
    # The index an error names is the one given, not the one in time order.
    with pytest.raises(ScenarioValidationError) as info:
        scenario._replace(triggers=(late, early._replace(new_zone="x")))
    assert str(info.value) == "triggers[1].new_zone 'x' matches no host hall"


@pytest.mark.parametrize("fault", list(_CROSS_OBJECT_FAULTS))
def test_a_scenario_copy_raises_the_constructors_message(fault):
    _, changes, message = _CROSS_OBJECT_FAULTS[fault]
    scenario = build_scenario(_drone_with_an_isolated_hall())
    fields = {**scenario._asdict(), **changes(scenario)}
    with pytest.raises(ScenarioValidationError) as built:
        Scenario(**fields)
    with pytest.raises(ScenarioValidationError) as made:
        Scenario._make(fields.values())
    with pytest.raises(ScenarioValidationError) as copied:
        scenario._replace(**changes(scenario))
    assert str(built.value) == str(made.value) == str(copied.value) == message


def test_every_way_to_build_a_scenario_sorts_its_triggers():
    scenario = load_scenario(bundled_scenario_path())
    (trigger,) = scenario.triggers
    late, early = (trigger._replace(time_us=t) for t in (1_500_000, 500_000))
    fields = {**scenario._asdict(), "triggers": (late, early)}
    for built in (
        Scenario(**fields),
        Scenario(*fields.values()),
        Scenario._make(fields.values()),
        scenario._replace(triggers=(late, early)),
    ):
        assert type(built) is Scenario
        assert built == (*scenario[:8], (early, late), scenario.dirty_specs)
    # A deep copy is rebuilt through the constructor.
    copied = copy.deepcopy(built)
    assert type(copied) is Scenario and copied.triggers == (early, late)


def test_a_wrong_argument_count_names_scenario():
    with pytest.raises(TypeError) as info:
        Scenario("drone")
    assert str(info.value).startswith("Scenario.__new__() missing 9 required positional")


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"duration_us": math.nan}, "duration_us must be >= 0, got nan"),
        ({"rtt_sample_interval_us": math.nan}, "rtt_sample_interval_us must be positive, got nan"),
        # An endless run once gave a NaN sample count, which no longer passed the cap.
        ({"duration_us": math.inf}, "duration_us must be an integer, got inf"),
    ],
)
def test_a_scenario_bound_made_in_code_rejects_nan(changes, message):
    drone = load_scenario(bundled_scenario_path())
    with pytest.raises(ValueError) as info:
        drone._replace(**changes)
    assert str(info.value) == message


def test_a_trigger_time_rejects_nan():
    with pytest.raises(ValueError) as info:
        MigrationTrigger(math.nan, "drone-1", "hall-B")
    assert str(info.value) == "time_us must be >= 0, got nan"


def test_a_fractional_trigger_time_is_rejected_not_truncated():
    # It was once recorded at 1000000 us.
    with pytest.raises(ValueError) as info:
        MigrationTrigger(1000000.7, "drone-1", "hall-B")
    assert str(info.value) == "time_us must be an integer, got 1000000.7"


def test_a_fractional_duration_made_in_code_is_rejected():
    drone = load_scenario(bundled_scenario_path())
    with pytest.raises(ValueError) as info:
        drone._replace(duration_us=2000000.5)
    assert str(info.value) == "duration_us must be an integer, got 2000000.5"


def test_a_fractional_sample_interval_fails_instead_of_running_on():
    # In a child process with a timeout: this scenario's run once never
    # returned, its trace growing without bound, and must fail this test
    # rather than hang the suite.
    code = (
        "from nfmigsim import *; "
        "drone = load_scenario(bundled_scenario_path()); "
        "run_scenario(drone._replace("
        "triggers=(), duration_us=100, rtt_sample_interval_us=0.5))"
    )
    src = str(Path(scenario_module.__file__).parents[1])
    child = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert child.returncode == 1
    last = child.stderr.splitlines()[-1]
    assert last == "ValueError: rtt_sample_interval_us must be an integer, got 0.5"


@pytest.mark.parametrize(
    "path, dotted",
    [
        (("topology",), "topology"),
        (("topology", "driver_overrides"), "topology.driver_overrides"),
        (("nfs", 1, "memory"), "nfs[1].memory"),
        (("nfs", 1, "memory", "dirty_model"), "nfs[1].memory.dirty_model"),
        (("migration_params",), "migration_params"),
    ],
)
def test_a_nested_key_that_is_not_an_object_names_its_path(path, dotted):
    data = _error_surface_document()
    _at_path(data, path[:-1])[path[-1]] = [1]
    with pytest.raises(ScenarioParseError) as info:
        build_scenario(data)
    assert str(info.value) == f"'{dotted}' must be an object"


# Two faults in one document, and the one that is reported: the reader meets
# objects in document order, and list items only when it reaches them.
_TWO_FAULTS = [
    ((("nfs", 0), 5), (("topology", "hosts", 0), 5), "'topology.hosts[0]' must be an object"),
    ((("triggers", 0), 5), (("sessions", 0), 5), "'sessions[0]' must be an object"),
    ((("triggers", 0), 5), (("topology", "links", 1), 5), "'topology.links[1]' must be an object"),
    ((("triggers", 0, "time_us"), 10**9), (("nfs", 2), 5), "'nfs[2]' must be an object"),
]


@pytest.mark.parametrize("first, second, message", _TWO_FAULTS)
def test_the_first_of_two_faults_is_the_one_reported(first, second, message):
    data = _error_surface_document()
    for path, value in (first, second):
        _at_path(data, path[:-1])[path[-1]] = value
    with pytest.raises(ScenarioParseError) as info:
        build_scenario(data)
    assert str(info.value) == message


def test_readme_names_every_scenario_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    # The words of every backticked span, such as `topology.hosts[]` or `{"kind": ...}`.
    spans = re.findall(r"`([^`]*)`", section)
    named = {word for span in spans for word in re.findall(r"\w+", span)}
    tables = [value for name, value in vars(scenario_module).items() if name.endswith("_KEYS")]
    tables += scenario_module._DIRTY_MODELS.values()
    assert len(tables) == 13
    assert {key for table in tables for key in table} - named == set()


class TestRunScenario:
    def test_deterministic_bundles(self):
        scenario = load_scenario(bundled_scenario_path())
        first = run_scenario(scenario, seed=42)
        second = run_scenario(scenario, seed=42)
        assert first == second

    def test_zero_triggers_flat_rtt(self, tmp_path):
        data = copy.deepcopy(MINIMAL)
        data["ue"] = {"id": "ue-1", "zone": "hall-A"}
        data["sessions"] = [
            {"id": "pdu-1", "type": "ip", "ue_id": "ue-1", "anchor_upf": "upf-1"}
        ]
        bundle = run_scenario(load_scenario(write(tmp_path, data)))
        assert bundle.reports == ()
        assert len(bundle.rtt_series) == 6  # samples at 0..500ms every 100ms
        assert len({rtt for _, rtt in bundle.rtt_series}) == 1

    def test_drone_reports(self):
        bundle = run_scenario(load_scenario(bundled_scenario_path()))
        by_nf = {rec.nf_id: rec for rec in bundle.reports}
        assert by_nf["upf-1"].report.strategy is Strategy.NO_MIGRATION_REDEPLOY
        assert by_nf["amf-1"].report.strategy is Strategy.PARALLEL
        assert by_nf["smf-1"].report.strategy is Strategy.PARALLEL
        assert all(rec.report.succeeded for rec in bundle.reports)
        assert all(rec.target_host == "edge-b1" for rec in bundle.reports)

    def test_seed_override_wins(self):
        scenario = load_scenario(bundled_scenario_path())
        bundle = run_scenario(scenario, seed=7)
        assert bundle.seed == 7

    def test_seed_flag_past_the_bound_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        seed = str(-(2**63))
        argv = ["simulate", str(bundled_scenario_path()), "--seed", seed, "--out", str(out)]
        code, err = _exit_code_and_error(argv, capsys)
        assert code == 2 and err == (
            "error: scenario 'drone-hall-transition': seed must be >= -9223372036854775807,"
            " got -9223372036854775808\n"
        )
        assert not out.exists()

    def test_infeasible_target_recorded_not_raised(self, tmp_path):
        # hall-B's host cannot carry L2, but the UPF anchors an Ethernet session.
        bundle = run_scenario(load_scenario(write(tmp_path, ethernet_anchor_to_overlay())))
        assert len(bundle.reports) == 1
        report = bundle.reports[0].report
        assert not report.succeeded
        assert "no feasible host" in report.failure_reason

    def test_l2_overlay_override_admits_an_ethernet_anchor(self, tmp_path):
        l2_overlay = {"rtt_inter_host_us": 656, "carries_l2": True, "isolation": "high"}
        data = ethernet_anchor_to_overlay(driver_overrides={"overlay": l2_overlay})
        scenario = load_scenario(write(tmp_path, data))
        overlay = scenario.topology.drivers[DriverKind.OVERLAY]
        assert (overlay.rtt_inter_host_us, overlay.carries_l2, overlay.isolation.name) == (
            656,
            True,
            "HIGH",
        )
        bundle = run_scenario(scenario)
        assert [(rec.target_host, rec.report.succeeded) for rec in bundle.reports] == [("h2", True)]

    def test_trigger_objective_overrides_scenario(self, tmp_path):
        data = read_document(bundled_scenario_path())
        data["triggers"][0]["objective"] = "migration-time"
        bundle = run_scenario(build_scenario(data))
        by_nf = {rec.nf_id: rec for rec in bundle.reports}
        assert by_nf["smf-1"].report.strategy is Strategy.PRE_COPY

    def test_move_onto_current_host_is_skipped(self):
        data = drone_onto_full_edge_a1()
        bundle = run_scenario(build_scenario(data))
        assert bundle.reports == ()
        assert [data_of(ev) for ev in bundle.trace if ev.kind.startswith("migration")] == [
            {"nf": nf, "host": "edge-a1", "reason": "already-on-target"}
            for nf in ("amf-1", "smf-1", "upf-1")
        ]
        data["triggers"] = []
        assert bundle.rtt_series == run_scenario(build_scenario(data)).rtt_series

    def test_placement_soundness(self):
        scenario = load_scenario(bundled_scenario_path())
        bundle = run_scenario(scenario)
        from nfmigsim import HostLoad, check_placement

        for rec in bundle.reports:
            if not rec.report.succeeded or rec.target_host is None:
                continue
            nf = scenario.topology.nfs[rec.nf_id]
            host = scenario.topology.hosts[rec.target_host]
            load = HostLoad(scenario.topology)
            load.move(rec.nf_id, rec.target_host)
            violations = check_placement(
                nf, host, scenario.topology.sessions, scenario.topology, load
            )
            assert violations == []


class TestExportMetrics:
    def test_empty_bundle_headers_only(self, tmp_path):
        bundle = MetricsBundle("empty", 0, 0, (), ())
        paths = export_metrics(bundle, tmp_path / "out")
        assert paths["migrations"].read_text() == MIGRATIONS_CSV_HEADER + "\n"
        assert paths["rtt"].read_text() == "time_us,rtt_us\n"
        assert paths["trace"].read_text() == ""

    def test_inter_copy_row_has_equal_times(self, tmp_path):
        data = read_document(bundled_scenario_path())
        data["objective"] = "migration-time"
        data["triggers"][0]["affected_kinds"] = ["udr"]
        data["triggers"][0]["new_zone"] = "hall-B"
        bundle = run_scenario(build_scenario(data))
        paths = export_metrics(bundle, tmp_path / "out")
        rows = paths["migrations"].read_text().splitlines()
        assert len(rows) == 2
        fields = rows[1].split(",")
        header = rows[0].split(",")
        assert fields[header.index("strategy")] == "inter-copy"
        assert fields[header.index("downtime_us")] == fields[header.index("migration_time_us")]

    def test_reexport_is_byte_identical(self, tmp_path):
        bundle = run_scenario(load_scenario(bundled_scenario_path()))
        first = export_metrics(bundle, tmp_path / "one")
        second = export_metrics(bundle, tmp_path / "two")
        for name in first:
            assert first[name].read_bytes() == second[name].read_bytes()

    def test_summary_totals_match_csv_columns(self, tmp_path):
        bundle = run_scenario(load_scenario(bundled_scenario_path()))
        totals = bundle.totals_by_kind()
        csv_downtime = sum(rec.report.downtime_us for rec in bundle.reports)
        csv_bytes = sum(rec.report.bytes_transferred for rec in bundle.reports)
        assert sum(t["downtime_us"] for t in totals.values()) == csv_downtime
        assert sum(t["bytes"] for t in totals.values()) == csv_bytes

    def test_summary_totals_equal_per_report_sums(self, tmp_path):
        renamed = read_document(bundled_scenario_path())
        for nf in renamed["nfs"]:
            if nf["id"] == "amf-1":
                nf["id"] = "x-amf"  # its report now comes last, after smf and upf
        for scenario in (
            load_scenario(bundled_scenario_path()),
            build_scenario(renamed),
            load_scenario(write(tmp_path, ethernet_anchor_to_overlay())),  # one failed migration
        ):
            bundle = run_scenario(scenario)
            expected = {}
            for rec in bundle.reports:
                report = rec.report
                row = expected.setdefault(rec.kind.value, {})
                for name, value in (
                    ("migrations", 1),
                    ("failed", 0 if report.succeeded else 1),
                    ("bytes", report.bytes_transferred),
                    ("sync_bytes", report.sync_bytes),
                    ("downtime_us", report.downtime_us),
                    ("stall_us", report.stall_time_us),
                ):
                    row[name] = row.get(name, 0) + value
            assert list(bundle.totals_by_kind().items()) == sorted(expected.items())


class TestCli:
    def test_simulate(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                str(bundled_scenario_path()),
                "--seed",
                "42",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "migrations: 3" in out
        assert (tmp_path / "out" / "migrations.csv").exists()
        assert (tmp_path / "out" / "rtt.csv").exists()
        assert (tmp_path / "out" / "trace.jsonl").exists()
        assert (tmp_path / "out" / "summary.txt").exists()

    @pytest.mark.parametrize(
        "name, printed",
        [
            ("drone-x", "drone-x"),
            ("it's a drone", "it's a drone"),
            ("a\nb", "a\\nb"),
            ("a\u2028b\x00c", "a\\u2028b\\x00c"),
        ],
        ids=["plain", "apostrophe", "newline", "line-separator-and-nul"],
    )
    def test_simulate_prints_the_name_on_one_line(self, tmp_path, capsys, name, printed):
        # A raw newline in the name once split the first line in two.
        data = read_document(bundled_scenario_path())
        data["name"] = name
        out_dir = tmp_path / "out"
        argv = ["simulate", str(write(tmp_path, data)), "--seed", "42", "--out", str(out_dir)]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [f"scenario '{printed}' seed=42", "migrations: 3, rtt samples: 201"]
        files = ("migrations.csv", "rtt.csv", "trace.jsonl", "summary.txt")
        assert lines[2:] == [f"wrote {out_dir / file}" for file in files]

    def test_simulate_objective_override(self, tmp_path):
        code = main(
            [
                "simulate",
                str(bundled_scenario_path()),
                "--objective",
                "migration-time",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        rows = (tmp_path / "out" / "migrations.csv").read_text().splitlines()
        strategies = {row.split(",")[3] for row in rows[1:]}
        assert "pre-copy" in strategies  # smf switches under migration-time

    @pytest.mark.parametrize("objective", ["downtime", "migration-time", "bytes"])
    def test_objective_flag_matches_the_edited_document(self, tmp_path, objective):
        data = read_document(bundled_scenario_path())
        data["objective"] = objective
        edited = write(tmp_path, data)
        flag = ["--objective", objective, "--out", str(tmp_path / "flag")]
        assert main(["simulate", str(bundled_scenario_path()), *flag]) == 0
        assert main(["simulate", str(edited), "--out", str(tmp_path / "doc")]) == 0
        for name in ("migrations.csv", "rtt.csv", "trace.jsonl", "summary.txt"):
            assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "doc" / name).read_bytes()

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text("{", encoding="utf-8")
        assert main(["simulate", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["trigger", "ue"])
    def test_unreachable_hall_exit_code(self, tmp_path, capsys, where):
        data = copy.deepcopy(MINIMAL)
        data["topology"]["hosts"].append({"id": "h3", "hall": "hall-C", "driver": "macvlan"})
        if where == "ue":
            data["ue"] = {"id": "ue-1", "zone": "hall-C"}
        else:
            data["triggers"] = [{"time_us": 10, "ue_id": "ue-1", "new_zone": "hall-C"}]
        assert main(["simulate", str(write(tmp_path, data)), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        prefix = "ue.zone" if where == "ue" else "triggers[0].new_zone"
        assert err.startswith(f"error: {prefix}: host 'h3' cannot be reached")
        assert "Traceback" not in err

    def test_simulator_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def unreachable(scenario, seed=None):
            raise NoPathError("hosts 'h1' and 'h3' are not connected")

        monkeypatch.setattr("nfmigsim.cli.run_scenario", unreachable)
        assert main(["simulate", str(write(tmp_path, MINIMAL))]) == 2
        err = capsys.readouterr().err
        assert err == "error: hosts 'h1' and 'h3' are not connected\n"

    def test_policy_table_prints_grid(self, capsys):
        assert main(["policy-table"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 26  # header + rule + 24 rows
        golden = Path(__file__).parent / "data" / "policy_table.golden"
        assert out == golden.read_text(encoding="utf-8")

    def test_sweep_prints_each_label_on_one_line(self, tmp_path, capsys):
        # A raw newline in a label once split its row of the table in two.
        argv = ["sweep", str(bundled_scenario_path()), "--param", 'name="a\\nb",drone-x']
        assert main([*argv, "--out", str(tmp_path / "sweep")]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split()[0] for row in rows] == ["variant", "name=a\\nb", "name=drone-x"]
        assert rows[2] == f"{'name=drone-x':<56}{3:>11}{81040:>13}{1572864:>14}"
        assert (tmp_path / "sweep" / "name=a\nb" / "summary.txt").exists()

    def test_sweep_runs_variants(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                str(bundled_scenario_path()),
                "--param",
                "migration_params.restart_overhead_us=0,50000",
                "--out",
                str(tmp_path / "sweep"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "restart_overhead_us=0" in out
        for variant in ("restart_overhead_us=0", "restart_overhead_us=50000"):
            assert (tmp_path / "sweep" / variant / "migrations.csv").exists()
            assert (tmp_path / "sweep" / variant / "trace.jsonl").stat().st_size > 0


def _exit_code_and_error(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def _link(data, a, b):
    data["topology"]["links"].append({"a": a, "b": b, "bandwidth_bps": 1})


_LONG_ID = "h" * 1000
_LONG_HALL = "g" * 1000
_LONG_SHOWN = f"'{'h' * 40}...' (1000 characters)"


def _long_host_in_a_long_hall(data):
    """Add a host with a 1,000-character id, and no link, in a 1,000-character hall."""
    hosts = data["topology"]["hosts"]
    hosts.append({**hosts[0], "id": _LONG_ID, "hall": _LONG_HALL})


# Each edit of the drone document, and the one error line it must end in.
_DOCUMENT_FAULTS = {
    "topology-a-list": (
        lambda d: d.update(topology=[d["topology"]]),
        "error: 'topology' must be an object",
    ),
    "host-not-an-object": (
        lambda d: d["topology"].update(hosts=[5]),
        "error: 'topology.hosts[0]' must be an object",
    ),
    "memory-on-a-stateless-function": (
        lambda d: d["nfs"][0].update(memory={"num_pages": 8, "page_size": 4096}),
        "error: 'nfs[0].memory' given for a stateless instance",
    ),
    "session-of-an-unknown-ue": (
        lambda d: d["sessions"][0].update(ue_id="ghost"),
        "error: sessions[0] references unknown UE 'ghost'",
    ),
    "link-of-zero-bandwidth": (
        lambda d: d["topology"]["links"][0].update(bandwidth_bps=0),
        "error: 'topology.links[0]': bandwidth_bps must be positive, got 0",
    ),
    "self-link": (
        lambda d: _link(d, "edge-a1", "edge-a1"),
        "error: link ('edge-a1', 'edge-a1'): endpoints must be distinct",
    ),
    "duplicate-link": (
        lambda d: _link(d, "edge-b1", "edge-a1"),
        "error: link ('edge-b1', 'edge-a1'): duplicate link between the same host pair",
    ),
    "duplicate-function-id": (
        lambda d: d["nfs"].append(dict(d["nfs"][0])),
        "error: function id 'upf-1' appears more than once",
    ),
    "duplicate-session-id": (
        lambda d: d["sessions"].append(dict(d["sessions"][0])),
        "error: session id 'pdu-1' appears more than once",
    ),
    # Numbers no float can hold: each used to end in an OverflowError traceback.
    "cpu-demand-past-the-largest-float": (
        lambda d: d["nfs"][0].update(cpu_demand=10**400),
        "error: 'nfs[0].cpu_demand' must be finite, got an integer of 401 digits",
    ),
    "intra-host-latency-past-the-largest-float": (
        lambda d: d["topology"].update(intra_host_latency_us=10**400),
        "error: 'topology.intra_host_latency_us' must be finite, got an integer of 401 digits",
    ),
    "link-latency-over-the-cap": (
        lambda d: d["topology"]["links"][1].update(extra_latency_us=10**400),
        "error: 'topology.links[1]': extra_latency_us must be <= 1000000000000,"
        " got an integer of 401 digits",
    ),
    "duration-past-the-largest-float": (
        lambda d: d.update(duration_us=10**400),
        "error: duration_us // rtt_sample_interval_us must be <= 1000000, got an integer of 397"
        " digits",
    ),
    "long-unknown-top-level-key": (
        lambda d: d.update({"k" * 1000: 1}),
        f"error: unknown key '{'k' * 40}...' (1000 characters)",
    ),
    "long-unknown-nested-key": (
        lambda d: d["nfs"][1]["memory"]["dirty_model"].update({"k" * 1000: 1}),
        f"error: unknown key 'nfs[1].memory.dirty_model.{'k' * 14}...' (1026 characters)",
    ),
    # A 1,000-character id that the topology check echoes, shown by its start and length.
    "long-duplicate-host-id": (
        lambda d: d["topology"]["hosts"].extend(
            2 * [{**d["topology"]["hosts"][0], "id": _LONG_ID}]
        ),
        f"error: host id {_LONG_SHOWN} appears more than once",
    ),
    "function-on-a-long-unknown-host": (
        lambda d: d["nfs"][0].update(host=_LONG_ID),
        f"error: function 'upf-1' placed on unknown host {_LONG_SHOWN}",
    ),
    "link-to-a-long-unknown-host": (
        lambda d: d["topology"]["links"][0].update(a=_LONG_ID),
        f"error: link from 'edge-a2' to unknown host {_LONG_SHOWN}",
    ),
    "trigger-into-a-long-hall-that-matches-none": (
        lambda d: d["triggers"][0].update(new_zone="x" * 1000),
        f"error: triggers[0].new_zone '{'x' * 40}...' (1000 characters) matches no host hall",
    ),
    # Cut by its bytes: each control character is a four-byte escape.
    "trigger-into-a-long-control-character-hall": (
        lambda d: d["triggers"][0].update(new_zone="\x01" * 1000),
        "error: triggers[0].new_zone '" + "\\x01" * 10 + "...' (1000 characters) matches no"
        " host hall",
    ),
    "long-host-id-in-a-reachable-hall-with-no-link": (
        lambda d: d["topology"]["hosts"].append(
            {**d["topology"]["hosts"][0], "id": _LONG_ID, "hall": "hall-B"}
        ),
        f"error: triggers[0].new_zone: host {_LONG_SHOWN} cannot be reached from the hosts that"
        " run functions",
    ),
    # The zone is not echoed: 1,000 characters of it once took the line past 200 bytes.
    "trigger-into-a-long-hall-whose-long-host-has-no-link": (
        lambda d: (_long_host_in_a_long_hall(d), d["triggers"][0].update(new_zone=_LONG_HALL)),
        f"error: triggers[0].new_zone: host {_LONG_SHOWN} cannot be reached from the hosts that"
        " run functions",
    ),
    "ue-in-a-long-hall-whose-long-host-has-no-link": (
        lambda d: (_long_host_in_a_long_hall(d), d["ue"].update(zone=_LONG_HALL)),
        f"error: ue.zone: host {_LONG_SHOWN} cannot be reached from the hosts that run functions",
    ),
    # A former shortcut: an L2-capable overlay is a ``driver_overrides.overlay`` entry.
    "removed-l2-overlay-enabled-key": (
        lambda d: d["topology"].update(l2_overlay_enabled=True),
        "error: unknown key 'topology.l2_overlay_enabled'",
    ),
    "session-anchored-to-a-long-unknown-function": (
        lambda d: d["sessions"][0].update(anchor_upf=_LONG_ID),
        f"error: session 'pdu-1' anchors to unknown function {_LONG_SHOWN}",
    ),
    # A long id in an entity label: a link's endpoints, a function's or a session's id.
    "self-link-on-a-long-host-id": (
        lambda d: (
            d["topology"]["hosts"].append({**d["topology"]["hosts"][0], "id": _LONG_ID}),
            _link(d, _LONG_ID, _LONG_ID),
        ),
        f"error: link ({_LONG_SHOWN}, {_LONG_SHOWN}): endpoints must be distinct",
    ),
    "stateful-upf-with-a-long-id": (
        lambda d: d["nfs"][0].update(
            id=_LONG_ID, stateful=True, memory={"num_pages": 8, "page_size": 4096}
        ),
        f"error: {_LONG_SHOWN}: UPF instances are stateless",
    ),
    "long-session-id-anchored-to-an-smf": (
        lambda d: d["sessions"][0].update(id=_LONG_ID, anchor_upf="smf-1"),
        f"error: {_LONG_SHOWN}: anchor 'smf-1' is a SMF, not a UPF",
    ),
    "long-dirty-model-kind": (
        lambda d: d["nfs"][1]["memory"]["dirty_model"].update(kind="k" * 300),
        "error: 'nfs[1].memory.dirty_model.kind' must be 'constant-rate' or 'bernoulli'"
        f" (got '{'k' * 40}...' (300 characters))",
    ),
    "constant-rate-model-with-a-bernoulli-key": (
        lambda d: d["nfs"][1]["memory"]["dirty_model"].update(p_per_page_per_ms=0.001),
        "error: unknown key 'nfs[1].memory.dirty_model.p_per_page_per_ms'",
    ),
    "long-unknown-driver-override": (
        lambda d: d["topology"].update(driver_overrides={_LONG_ID: {}}),
        "error: 'topology.driver_overrides' must be one of: host, bridge, macvlan, ipvlan-l2,"
        f" ipvlan-l3, overlay (got {_LONG_SHOWN})",
    ),
    "seed-past-the-bound": (
        lambda d: d.update(seed=2**63),
        "error: seed must be <= 9223372036854775807, got 9223372036854775808",
    ),
    "driver-rtt-over-the-cap": (
        lambda d: d["topology"].update(
            driver_overrides={
                "macvlan": {"rtt_inter_host_us": 10**400, "carries_l2": True, "isolation": "none"}
            }
        ),
        "error: 'topology.driver_overrides.macvlan': rtt_inter_host_us must be <= 1000000000000,"
        " got an integer of 401 digits",
    ),
    # A string no UTF-8 output file can hold once ended in a UnicodeEncodeError traceback.
    "lone-surrogate-in-the-name": (
        lambda d: d.update(name="drone-\ud800"),
        "error: 'name' must be valid UTF-8, got 'drone-\\ud800'",
    ),
    "lone-surrogate-in-a-host-id": (
        lambda d: d["topology"]["hosts"][0].update(id="edge-\udc80"),
        "error: 'topology.hosts[0].id' must be valid UTF-8, got 'edge-\\udc80'",
    ),
    # Twice this latency, the RTT of a co-located pair, once overflowed to inf in a traceback.
    "intra-host-latency-over-the-cap": (
        lambda d: d["topology"].update(intra_host_latency_us=1e308),
        "error: topology: intra_host_latency_us must be <= 1000000000000, got 1e+308",
    ),
}


@pytest.mark.parametrize("fault", list(_DOCUMENT_FAULTS))
def test_document_fault_exits_2_with_one_error_line(tmp_path, capsys, fault):
    edit, message = _DOCUMENT_FAULTS[fault]
    data = read_document(bundled_scenario_path())
    edit(data)
    argv = ["simulate", str(write(tmp_path, data)), "--out", str(tmp_path / "out")]
    assert _exit_code_and_error(argv, capsys) == (2, message + "\n")
    assert len(message.encode()) < 200  # with its newline, at most 200 bytes
    assert not (tmp_path / "out").exists()


class TestUnreadableDocument:
    def simulate(self, path, capsys):
        argv = ["simulate", str(path), "--out", str(path.parent / "out")]
        code, err = _exit_code_and_error(argv, capsys)
        assert len(err.encode()) <= 200  # one error line of at most 200 bytes, whatever the path
        return code, err

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.scenario"
        path.write_bytes(b'\xff\xfe{"duration_us": 1}')
        with pytest.raises(ScenarioParseError, match="cannot read .*'utf-8' codec can't decode"):
            read_document(path)
        code, err = self.simulate(path, capsys)
        assert code == 2 and err.startswith("error: cannot read ") and err.count("\n") == 1

    def test_nested_too_deeply(self, tmp_path, capsys):
        path = tmp_path / "deep.scenario"
        path.write_text("[" * 200_000, encoding="utf-8")
        message = f"error: {shown(str(path))} nests JSON too deeply\n"
        assert self.simulate(path, capsys) == (2, message)

    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        # Python's int-digit limit makes json.loads raise a plain ValueError.
        path = tmp_path / "digits.scenario"
        document = '{"duration_us": ' + "9" * 5000 + ', "topology": {"hosts": []}}'
        path.write_text(document, encoding="utf-8")
        message = f"{shown(str(path))} holds an integer of more than 4300 digits"
        with pytest.raises(ScenarioParseError) as info:
            read_document(path)
        assert str(info.value) == message
        assert self.simulate(path, capsys) == (2, f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_not_an_object(self, tmp_path, capsys):
        path = write(tmp_path, [])
        message = f"error: {shown(str(path))} must contain a JSON object\n"
        assert self.simulate(path, capsys) == (2, message)

    @staticmethod
    def missing(path):
        reason = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}"
        return f"error: cannot read the scenario: {reason}: {shown(str(path))}\n"

    def test_a_long_missing_path_is_cut(self, tmp_path, capsys):
        # The path once went into the line raw, and twice: 585 bytes for 250 characters.
        path = tmp_path / ("p" * (250 - len(str(tmp_path)) - 1))
        assert len(str(path)) == 250
        assert self.simulate(path, capsys) == (2, self.missing(path))

    def test_a_missing_path_under_a_long_directory_is_cut(self, tmp_path, capsys):
        path = tmp_path / ("p" * 200) / "missing.scenario"
        assert self.simulate(path, capsys) == (2, self.missing(path))


class TestSweepParams:
    def sweep(self, tmp_path, capsys, *params):
        flags = [arg for param in params for arg in ("--param", param)]
        argv = ["sweep", str(bundled_scenario_path()), *flags, "--out", str(tmp_path / "sweep")]
        return _exit_code_and_error(argv, capsys)

    def test_param_without_values(self, tmp_path, capsys):
        message = "error: --param expects KEY=V1,V2,... (got 'seed')\n"
        assert self.sweep(tmp_path, capsys, "seed") == (2, message)

    def test_long_param_without_values(self, tmp_path, capsys):
        # The spec once went into the line raw: 346 bytes for 300 characters.
        message = f"error: --param expects KEY=V1,V2,... (got {shown('s' * 300)})\n"
        assert self.sweep(tmp_path, capsys, "s" * 300) == (2, message)
        assert len(message.encode()) <= 200

    def test_param_through_a_list(self, tmp_path, capsys):
        message = "error: cannot override through non-object key 'hosts'\n"
        assert self.sweep(tmp_path, capsys, "topology.hosts.x=1") == (2, message)

    def test_non_json_value_is_kept_as_a_string(self, tmp_path, capsys):
        assert self.sweep(tmp_path, capsys, "name=drone-x") == (0, "")
        summary = (tmp_path / "sweep" / "name=drone-x" / "summary.txt").read_text(encoding="utf-8")
        assert summary.startswith("scenario: drone-x\n")

    def test_value_nested_too_deeply_is_kept_as_a_string(self, tmp_path, capsys):
        code, err = self.sweep(tmp_path, capsys, "seed=" + "[" * 10**5)
        assert (code, err) == (2, "error: 'seed' has wrong type str\n")

    def test_value_past_the_digit_limit_is_kept_as_a_string(self, tmp_path, capsys):
        code, err = self.sweep(tmp_path, capsys, "seed=" + "9" * 5000)
        assert (code, err) == (2, "error: 'seed' has wrong type str\n")
        assert not (tmp_path / "sweep").exists()

    def test_two_variants_with_one_directory_run_no_variant(self, tmp_path, capsys):
        # Directory names replace '/' with '_', so both would write out/name=a_b.
        argv = ["sweep", str(bundled_scenario_path()), "--param", "name=a/b,a_b"]
        code = main([*argv, "--out", str(tmp_path / "sweep")])
        captured = capsys.readouterr()
        message = "error: variants 'name=a/b' and 'name=a_b' would write the same directory\n"
        assert (code, captured.err) == (2, message)
        assert captured.out == ""
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize(
        "param, shown_label",
        [
            ('name=a,"a\\u0000b"', "'name=a\\x00b'"),
            (
                "migration_params.restart_overhead_us=1,1" + "0" * 300,
                f"'restart_overhead_us=1{'0' * 19}...' (321 characters)",
            ),
        ],
        ids=["nul", "over-255-bytes"],
    )
    def test_a_variant_no_directory_can_be_named_for_runs_no_variant(
        self, tmp_path, capsys, param, shown_label
    ):
        # Each once ran the earlier variant first: a NUL then ended in a ValueError traceback,
        # and a name past 255 bytes in exit 3.
        code, err = self.sweep(tmp_path, capsys, param)
        assert (code, err) == (2, f"error: variant {shown_label} cannot name a directory\n")
        assert not (tmp_path / "sweep").exists()

    def test_a_bad_later_variant_runs_no_variant(self, tmp_path, capsys):
        argv = ["sweep", str(bundled_scenario_path()), "--param", "seed=1,x"]
        code = main([*argv, "--out", str(tmp_path / "sweep")])
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, "error: 'seed' has wrong type str\n")
        assert captured.out == ""
        assert not (tmp_path / "sweep").exists()


def test_out_naming_an_existing_file_exits_3(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")
    argv = ["simulate", str(bundled_scenario_path()), "--out", str(out)]
    code, err = _exit_code_and_error(argv, capsys)
    assert code == 3 and err.startswith("i/o error: ") and err.count("\n") == 1


def test_a_long_path_in_an_i_o_error_is_cut(tmp_path, capsys):
    # The whole path once went into the line: 519 bytes for a path of this shape.
    directory = tmp_path / ("d" * 200)
    directory.mkdir()
    out = directory / ("o" * 250)
    out.write_text("", encoding="utf-8")
    argv = ["simulate", str(bundled_scenario_path()), "--out", str(out)]
    code, err = _exit_code_and_error(argv, capsys)
    path = str(out)
    shown_path = f"'{path[:40]}...' ({len(path)} characters)"
    reason = f"[Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}"
    assert (code, err) == (3, f"i/o error: {reason}: {shown_path}\n")
    assert len(err.encode()) <= 200


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The cyclic collector switched on or off for the test; its state is put back after."""
    before = gc.isenabled()
    gc.enable() if request.param else gc.disable()
    yield request.param
    gc.enable() if before else gc.disable()


class TestCollectorPause:
    """``cli.main`` pauses the cyclic collector for its command and puts back what it found."""

    def argv(self, tmp_path, case):
        drone = str(bundled_scenario_path())
        out = str(tmp_path / "out")
        if case == "document-fault":
            data = read_document(bundled_scenario_path())
            data["nfs"][0]["cpu_demand"] = -1
            return ["simulate", str(write(tmp_path, data)), "--out", out]
        if case == "out-is-a-file":
            (tmp_path / "taken").write_text("", encoding="utf-8")
            return ["simulate", drone, "--out", str(tmp_path / "taken")]
        return {
            "simulate": ["simulate", drone, "--out", out],
            "sweep": ["sweep", drone, "--param", "seed=1,2", "--out", out],
            "policy-table": ["policy-table"],
        }[case]

    @pytest.mark.parametrize(
        "case, code",
        [
            ("simulate", 0),
            ("sweep", 0),
            ("policy-table", 0),
            ("document-fault", 2),
            ("out-is-a-file", 3),
        ],
    )
    def test_each_exit_puts_the_collector_back(self, tmp_path, collector, case, code):
        assert main(self.argv(tmp_path, case)) == code
        assert gc.isenabled() is collector

    def test_an_escaping_exception_puts_the_collector_back(self, tmp_path, monkeypatch, collector):
        def fails(scenario, seed=None):
            raise RuntimeError("run failed")

        monkeypatch.setattr("nfmigsim.cli.run_scenario", fails)
        with pytest.raises(RuntimeError, match="run failed"):
            main(self.argv(tmp_path, "simulate"))
        assert gc.isenabled() is collector

    def test_the_run_sees_the_collector_paused(self, tmp_path, monkeypatch, collector):
        seen = []

        def wrapped(scenario, seed=None):
            seen.append(gc.isenabled())
            return run_scenario(scenario, seed=seed)

        monkeypatch.setattr("nfmigsim.cli.run_scenario", wrapped)
        assert main(self.argv(tmp_path, "simulate")) == 0
        assert seen == [False] and gc.isenabled() is collector


def generated_document(seed):
    """A small scenario from the benchmark's deterministic generator."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "scenario_gen.py"
    spec = importlib.util.spec_from_file_location("scenario_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate(seed, halls=2, hosts_per_hall=5, nfs_per_kind=2, triggers=4)


class TestTraceSchema:
    def kinds_checked(self, data):
        bundle = run_scenario(build_scenario(data))
        for event in bundle.trace:
            declared = TRACE_KINDS[event.kind]
            assert len(event.values) == len(declared), event
            for value, typ in zip(event.values, declared.values()):
                assert type(value) in ((int, float) if typ is float else (typ,)), event
        return {event.kind for event in bundle.trace}

    def test_drone_events_carry_their_documented_keys(self):
        kinds = self.kinds_checked(read_document(bundled_scenario_path()))
        assert kinds == set(TRACE_KINDS) - {
            "migration-skipped",
            "migration-infeasible",
            "migration-queued",
        }

    def test_generated_events_carry_their_documented_keys(self):
        assert "migration-complete" in self.kinds_checked(generated_document(301))

    def test_skipped_and_infeasible_events_carry_their_documented_keys(self):
        assert "migration-skipped" in self.kinds_checked(drone_onto_full_edge_a1())
        assert "migration-infeasible" in self.kinds_checked(ethernet_anchor_to_overlay())

    def test_queued_events_carry_their_documented_keys(self):
        assert "migration-queued" in self.kinds_checked(drone_turning_back_document())

    def test_readme_trace_table_is_the_runner_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| kind | `data` keys, in value order | notes |\n", 1)[1]
        documented = {}
        for row in table.split("\n\n", 1)[0].splitlines()[1:]:  # after the rule
            kind, keys, _ = (cell.strip() for cell in row.strip("|").split("|"))
            documented[kind.strip("`")] = tuple(key.strip(" `") for key in keys.split(","))
        assert documented == {kind: tuple(keys) for kind, keys in TRACE_KINDS.items()}


# SHA-256 of ``trace.jsonl`` for the three documents that hold the kinds the
# drone and generated digests never write: ``migration-queued`` (turn-back),
# ``migration-skipped`` and ``migration-infeasible``.
GOLDEN_EDGE_KIND_TRACES = Path(__file__).parent / "data" / "edge_kind_traces.sha256"


def test_edge_kind_traces_match_the_committed_digests(tmp_path):
    documents = {
        "turn-back": drone_turning_back_document(),
        "skipped": drone_onto_full_edge_a1(),
        "infeasible": ethernet_anchor_to_overlay(),
    }
    digests = {}
    for name, data in documents.items():
        trace = export_metrics(run_scenario(build_scenario(data)), tmp_path / name)["trace"]
        digests[f"{name}/trace.jsonl"] = hashlib.sha256(trace.read_bytes()).hexdigest()
    lines = GOLDEN_EDGE_KIND_TRACES.read_text(encoding="utf-8").splitlines()
    assert digests == {name: digest for digest, name in (line.split("  ") for line in lines)}
