"""Scenario loading, end-to-end runs, metric export and the CLI."""

import copy
import json

import pytest

from nfmigsim import (
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
from nfmigsim.cli import main
from nfmigsim.runner import MIGRATIONS_CSV_HEADER

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


# (object path, key, bad value, error, what the message names the object by when
# not by its path: a validation error names the entity).
_BOUNDS = [
    ("", "duration_us", -1, ScenarioParseError, None),
    ("", "rtt_sample_interval_us", 0, ScenarioParseError, None),
    ("topology", "intra_host_latency_us", -1, ScenarioValidationError, None),
    ("topology.driver_overrides.macvlan", "rtt_inter_host_us", 0, ScenarioParseError, None),
    ("topology.hosts[0]", "cpu_capacity", -1, ScenarioParseError, None),
    ("topology.links[0]", "bandwidth_bps", 0, ScenarioParseError, None),
    ("topology.links[0]", "extra_latency_us", -1, ScenarioParseError, None),
    ("nfs[1]", "cpu_demand", -1, ScenarioValidationError, "smf-1"),
    ("nfs[1].memory", "num_pages", -1, ScenarioParseError, None),
    ("nfs[1].memory", "page_size", 0, ScenarioParseError, None),
    ("nfs[1].memory", "working_set_fraction", 1.5, ScenarioParseError, None),
    ("nfs[1].memory", "working_set", [0, 128], ScenarioParseError, None),
    ("nfs[1].memory.dirty_model", "rate_pages_per_s", -1, ScenarioParseError, None),
    ("nfs[3].memory.dirty_model", "p_per_page_per_ms", 1.5, ScenarioParseError, None),
    ("triggers[0]", "time_us", -1, ScenarioParseError, None),
] + [
    ("migration_params", key, 0 if key == "precopy_max_rounds" else -1, ScenarioParseError, None)
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
    (path, key, value, ScenarioParseError, None)
    for path, key in _FLOAT_KEYS
    for value in (float("nan"), float("inf"), float("-inf"))
]
_WORKING_SET_ENTRIES = [
    ("nfs[1].memory", "working_set", ids, ScenarioParseError, None)
    for ids in (["a"], [1.5], [True], [[1]])
]


class TestErrorSurface:
    def test_base_document_is_valid(self):
        build_scenario(_error_surface_document())

    @pytest.mark.parametrize(
        "path, key, value, error, named",
        [
            pytest.param(*row, id=f"{row[0]}.{row[1]}={row[2]!r}".lstrip("."))
            for row in _BOUNDS + _NOT_FINITE + _WORKING_SET_ENTRIES
        ],
    )
    def test_bad_value_names_object_and_field_and_exits_2(
        self, tmp_path, capsys, path, key, value, error, named
    ):
        data = _error_surface_document()
        _at(data, path)[key] = value
        scenario_file = write(tmp_path, data)
        with pytest.raises(error) as info:
            load_scenario(scenario_file)
        assert (path if named is None else named) in str(info.value)
        assert key in str(info.value)
        assert main(["simulate", str(scenario_file), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


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

    def test_infeasible_target_recorded_not_raised(self, tmp_path):
        data = copy.deepcopy(MINIMAL)
        # hall-B host cannot carry L2, but the UPF anchors an Ethernet session.
        data["topology"]["hosts"][1]["driver"] = "overlay"
        data["ue"] = {"id": "ue-1", "zone": "hall-A"}
        data["sessions"] = [
            {"id": "pdu-1", "type": "ethernet", "ue_id": "ue-1", "anchor_upf": "upf-1"}
        ]
        data["triggers"] = [
            {"time_us": 100, "ue_id": "ue-1", "new_zone": "hall-B", "affected_kinds": ["upf"]}
        ]
        bundle = run_scenario(load_scenario(write(tmp_path, data)))
        assert len(bundle.reports) == 1
        report = bundle.reports[0].report
        assert not report.succeeded
        assert "no feasible host" in report.failure_reason

    def test_trigger_objective_overrides_scenario(self, tmp_path):
        scenario = load_scenario(bundled_scenario_path())
        data = copy.deepcopy(scenario.raw)
        data["triggers"][0]["objective"] = "migration-time"
        bundle = run_scenario(build_scenario(data))
        by_nf = {rec.nf_id: rec for rec in bundle.reports}
        assert by_nf["smf-1"].report.strategy is Strategy.PRE_COPY

    def test_move_onto_full_current_host_completes(self):
        # edge-a1 is exactly full with upf-1, smf-1 and amf-1, and is the
        # closest feasible host in hall-A for each of them.
        data = copy.deepcopy(load_scenario(bundled_scenario_path()).raw)
        data["topology"]["hosts"][0]["cpu_capacity"] = 3
        data["triggers"][0]["new_zone"] = "hall-A"
        bundle = run_scenario(build_scenario(data))
        assert len(bundle.reports) == 3
        assert all(rec.report.succeeded for rec in bundle.reports)
        assert all(rec.target_host == "edge-a1" for rec in bundle.reports)

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
        bundle = MetricsBundle("empty", 0, 0, (), (), ())
        paths = export_metrics(bundle, tmp_path / "out")
        assert paths["migrations"].read_text() == MIGRATIONS_CSV_HEADER + "\n"
        assert paths["rtt"].read_text() == "time_us,rtt_us\n"
        assert paths["trace"].read_text() == ""

    def test_inter_copy_row_has_equal_times(self, tmp_path):
        scenario = load_scenario(bundled_scenario_path())
        data = copy.deepcopy(scenario.raw)
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
        assert err.startswith(f"error: {prefix} 'hall-C': host 'h3' cannot be reached")
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
        assert "inter-copy" in out
        assert out.count("\n") == 26  # header + rule + 24 rows

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
        assert (tmp_path / "sweep" / "restart_overhead_us=0" / "migrations.csv").exists()
        assert (tmp_path / "sweep" / "restart_overhead_us=50000" / "migrations.csv").exists()
