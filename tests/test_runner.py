"""Target selection, overlapping triggers and trace export in the scenario runner."""

import copy
import gc
import hashlib
import importlib.util
import json
import math
import re
import tempfile
from enum import Enum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfmigsim import (
    Channel,
    DriverKind,
    HostLoad,
    HostNode,
    Link,
    MemoryImage,
    NfInstance,
    NfKind,
    PduSession,
    SessionType,
    build_scenario,
    bundled_scenario_path,
    check_placement,
    export_metrics,
    load_scenario,
    run_scenario,
    validate_topology,
)
from nfmigsim import cli, runner
from nfmigsim.engine import Event
from nfmigsim.scenario import read_document
from test_model import expected_route


def data_of(event):
    """The event's ``data`` as the trace writes it: its kind's keys paired with its values."""
    return dict(zip(runner.TRACE_KINDS[event.kind], event.values))


def hall_scenario(hall_b, links_b, nfs, *trigger_kinds, objective="downtime"):
    """One source host in hall-A and the given hall-B hosts behind it.

    ``hall_b`` lists (id, driver, cpu_capacity); ``links_b`` lists
    (a, b, extra_latency_us).  Hall-B's representative is its lowest id.
    Each of ``trigger_kinds`` is one trigger into hall-B, the first at 1 s
    and the rest 250 ms apart, moving the kinds it lists.  ``objective`` is
    the scenario's objective.
    """
    hosts = [{"id": "a0", "hall": "hall-A", "cpu_capacity": 100, "driver": "overlay"}]
    hosts += [
        {"id": host_id, "hall": "hall-B", "cpu_capacity": cap, "driver": driver}
        for host_id, driver, cap in hall_b
    ]
    links = [{"a": "a0", "b": "b0", "bandwidth_bps": 10**8}]
    links += [
        {"a": a, "b": b, "bandwidth_bps": 10**8, "extra_latency_us": extra}
        for a, b, extra in links_b
    ]
    return build_scenario(
        {
            "duration_us": 2_000_000,
            "objective": objective,
            "topology": {"hosts": hosts, "links": links},
            "ue": {"id": "ue-1", "zone": "hall-A"},
            "nfs": nfs,
            "triggers": [
                {
                    "time_us": 1_000_000 + 250_000 * k,
                    "ue_id": "ue-1",
                    "new_zone": "hall-B",
                    "affected_kinds": kinds,
                }
                for k, kinds in enumerate(trigger_kinds)
            ],
        }
    )


def ausf(nf_id="ausf-1"):
    return {"id": nf_id, "kind": "ausf", "host": "a0", "memory": {"num_pages": 8, "page_size": 4096}}


def targets(bundle):
    return {rec.nf_id: rec.target_host for rec in bundle.reports}


def test_full_and_low_isolation_hosts_are_skipped():
    # By latency to b0: b0 (intra-host), b2 (macvlan, extra 0), b3 (extra
    # 100), b1 (extra 300).  b0 is full and b2 cannot isolate an AUSF, so
    # the third-nearest host wins although b1 has the lower id.
    scenario = hall_scenario(
        [("b0", "overlay", 1), ("b1", "overlay", 4), ("b2", "macvlan", 4), ("b3", "overlay", 4)],
        [("b0", "b1", 300), ("b0", "b2", 0), ("b0", "b3", 100)],
        [ausf(), {"id": "udm-1", "kind": "udm", "host": "b0", "stateful": False}],
        ["ausf"],
    )
    assert targets(run_scenario(scenario)) == {"ausf-1": "b3"}


def test_latency_tie_goes_to_lower_host_id():
    scenario = hall_scenario(
        [("b0", "overlay", 0), ("b2", "overlay", 4), ("b1", "overlay", 4)],
        [("b0", "b2", 50), ("b0", "b1", 50)],
        [ausf()],
        ["ausf"],
    )
    assert targets(run_scenario(scenario)) == {"ausf-1": "b1"}


def test_walk_stops_at_the_nearest_feasible_host(monkeypatch):
    checked = []
    original = runner.check_placement

    def counting(nf, host, *args):
        checked.append((nf.id, host.id))
        return original(nf, host, *args)

    monkeypatch.setattr(runner, "check_placement", counting)
    scenario = hall_scenario(
        [(f"b{k}", "overlay", 100) for k in range(5)],
        [("b0", f"b{k}", 10 * k) for k in range(1, 5)],
        [ausf("ausf-1"), ausf("ausf-2"), {"id": "udm-1", "kind": "udm", "host": "a0", "stateful": False}],
        ["ausf", "udm"],
    )
    bundle = run_scenario(scenario)
    assert targets(bundle) == {"ausf-1": "b0", "ausf-2": "b0", "udm-1": "b0"}
    assert checked == [("ausf-1", "b0"), ("ausf-2", "b0"), ("udm-1", "b0")]


@pytest.mark.parametrize(
    "objective, smf_call, smf_strategy",
    [("downtime", "migrate_parallel", "parallel"), ("bytes", "migrate_pre_copy", "pre-copy")],
)
def test_each_strategy_calls_its_function_on_the_runner_module(
    monkeypatch, objective, smf_call, smf_strategy
):
    # Wrappers installed after import must see every call, as tracing needs.
    calls = []
    for name in ("redeploy_stateless", "migrate_inter_copy", "migrate_pre_copy", "migrate_parallel"):

        def counting(*args, _name=name, _original=getattr(runner, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(runner, name, counting)
    scenario = hall_scenario(
        [("b0", "overlay", 100)],
        [],
        [
            ausf(),
            {"id": "smf-1", "kind": "smf", "host": "a0", "memory": {"num_pages": 8, "page_size": 4096}},
            {"id": "udm-1", "kind": "udm", "host": "a0", "stateful": False},
        ],
        ["ausf", "smf", "udm"],
        objective=objective,
    )
    bundle = run_scenario(scenario)
    assert calls == ["migrate_inter_copy", smf_call, "redeploy_stateless"]
    strategies = [rec.report.strategy.value for rec in bundle.reports]
    assert strategies == ["inter-copy", smf_strategy, "redeploy"]


def test_one_check_per_placement_while_the_nearest_hosts_fill(monkeypatch):
    # By latency to b0: b0, b1 (macvlan: no AUSF), b2, b3, b4.  The AUSFs
    # fill b0, b2 and b3; the UDMs then pass the full b0; the AUSFs' second
    # trip lands each on the host it is assigned to, whose load counts it.
    checked = []
    original = runner.check_placement

    def counting(nf, host, *args):
        checked.append((nf.id, host.id))
        return original(nf, host, *args)

    monkeypatch.setattr(runner, "check_placement", counting)
    scenario = hall_scenario(
        [
            ("b0", "overlay", 1),
            ("b1", "macvlan", 4),
            ("b2", "overlay", 1),
            ("b3", "overlay", 2),
            ("b4", "overlay", 4),
        ],
        [("b0", "b1", 0), ("b0", "b2", 10), ("b0", "b3", 20), ("b0", "b4", 30)],
        [ausf(f"ausf-{k}") for k in range(1, 5)]
        + [{"id": f"udm-{k}", "kind": "udm", "host": "a0", "stateful": False} for k in (1, 2)],
        ["ausf"],
        ["udm"],
        ["ausf"],
    )
    bundle = run_scenario(scenario)
    assert checked == [
        ("ausf-1", "b0"),
        ("ausf-2", "b2"),
        ("ausf-3", "b3"),
        ("ausf-4", "b3"),
        ("udm-1", "b1"),
        ("udm-2", "b1"),
        ("ausf-1", "b0"),
        ("ausf-2", "b2"),
        ("ausf-3", "b3"),
        ("ausf-4", "b3"),
    ]
    assert len(bundle.reports) == 6
    assert sum(event.kind == "migration-skipped" for event in bundle.trace) == 4


def reference_walk(nf, hall, topology, load):
    """The hall's hosts by (latency to its lowest-id host, id), each checked in turn."""
    rep = topology.hosts_in_hall(hall)[0].id
    ranked = sorted(
        topology.hosts_in_hall(hall),
        key=lambda host: (topology.one_way_latency_us(host.id, rep), host.id),
    )
    for host in ranked:
        if not check_placement(nf, host, topology.sessions, topology, load):
            return host
    return None


WALK_KINDS = (NfKind.UPF, NfKind.AUSF, NfKind.SMF, NfKind.UDM)


@st.composite
def walk_cases(draw):
    n_b = draw(st.integers(1, 6))
    hosts = [HostNode("a0", "hall-A", 100, DriverKind.OVERLAY)]
    hosts += [
        HostNode(
            f"b{k}",
            "hall-B",
            draw(st.sampled_from([0, 0.5, 1, 1.5, 2, 3])),
            draw(st.sampled_from(list(DriverKind))),
        )
        for k in range(n_b)
    ]
    links = [Link("a0", "b0", 10**8)]
    links += [
        Link("b0", f"b{k}", 10**8, draw(st.sampled_from([0, 10, 20]))) for k in range(1, n_b)
    ]
    nfs, sessions = [], []
    demands = st.sampled_from([0, 0.1, 0.2, 0.25, 0.7, 1, 1.5])
    for i, kind in enumerate(draw(st.lists(st.sampled_from(WALK_KINDS), min_size=1, max_size=7))):
        nf_id = f"{kind.value}-{i}"
        stateful = kind in (NfKind.AUSF, NfKind.SMF)
        nfs.append(
            NfInstance(
                nf_id,
                kind,
                draw(st.sampled_from(hosts)).id,
                memory=MemoryImage(8, 4096) if stateful else None,
                cpu_demand=draw(demands),
            )
        )
        if kind is NfKind.UPF:
            for session_type in draw(st.lists(st.sampled_from(list(SessionType)), max_size=2)):
                sessions.append(PduSession(f"pdu-{len(sessions)}", session_type, "ue-1", nf_id))
    topology = validate_topology(hosts, links, nfs, sessions=sessions)
    host_ids = st.sampled_from([host.id for host in hosts])
    nf_index = st.integers(0, len(nfs) - 1)
    moves = draw(st.lists(st.tuples(nf_index, host_ids), max_size=12))
    # Each step moves one function, possibly first onto a hall-B host.
    hall_b = st.sampled_from([f"b{k}" for k in range(n_b)])
    steps = draw(st.lists(st.tuples(nf_index, st.none() | hall_b), min_size=1, max_size=8))
    return topology, moves, steps


@settings(max_examples=300, deadline=None)
@given(case=walk_cases())
def test_pruned_walk_picks_what_a_full_walk_picks(case):
    topology, moves, steps = case
    nfs = list(topology.nfs.values())
    load = HostLoad(topology)
    for index, host_id in moves:
        load.move(nfs[index].id, host_id)
    selector = runner.TargetSelector(topology, load)
    for index, sitting_on in steps:
        nf = nfs[index]
        if sitting_on is not None:
            load.move(nf.id, sitting_on)
        chosen = selector.choose(nf, "hall-B")
        assert chosen == reference_walk(nf, "hall-B", topology, load)
        if chosen is not None:
            load.move(nf.id, chosen.id)


def test_upfs_anchoring_ethernet_share_one_ranking_per_hall(monkeypatch):
    # Keyed on the anchored session ids, each of the 15 UPFs ranked each hall for itself:
    # 1,700 static checks against 300.
    calls = []
    original = runner.static_violations

    def counting(nf, host, *args):
        calls.append((nf.id, host.id))
        return original(nf, host, *args)

    monkeypatch.setattr(runner, "static_violations", counting)
    data = SCENARIO_GEN.generate(1)
    upfs = [nf["id"] for nf in data["nfs"] if nf["kind"] == "upf"]
    data["sessions"] = [
        {"id": f"pdu-{i}", "type": "ethernet", "ue_id": "ue-1", "anchor_upf": upf}
        for i, upf in enumerate(upfs)
    ]
    bundle = run_scenario(build_scenario(data))
    assert len(upfs) == 15
    assert len(bundle.reports) == SCENARIO_GEN.expected_migrations(data)
    assert len(calls) <= 300


def test_trace_lines_are_sorted_key_json_of_each_event(tmp_path):
    bundle = run_scenario(load_scenario(bundled_scenario_path()), seed=42)
    lines = export_metrics(bundle, tmp_path)["trace"].read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(bundle.trace)
    for line, event in zip(lines, bundle.trace):
        expected = {"time_us": event.time_us, "seq": event.seq, "kind": event.kind, "data": data_of(event)}
        assert line == json.dumps(expected, sort_keys=True)
    assert sum('"rtt_us"' in line for line in lines) == len(bundle.rtt_series)


# SHA-256 of the drone exports at seeds 42 and 7, in ``sha256sum`` format
# relative to an output directory holding ``seed-42/`` and ``seed-7/``.
GOLDEN_DRONE_EXPORTS = Path(__file__).parent / "data" / "drone_exports.sha256"
# The same for ``perfbench/scenario_gen.generate(301)`` run at seed 301.
GOLDEN_GENERATED_EXPORTS = Path(__file__).parent / "data" / "generated_exports.sha256"
# The same for the drone document with every dirty model Bernoulli, at seeds 42 and 7.
GOLDEN_BERNOULLI_EXPORTS = Path(__file__).parent / "data" / "bernoulli_exports.sha256"


def export_digests(scenario, seeds, out_dir):
    """``{"seed-<s>/<file>": sha256}`` of the four exports of ``scenario`` at each seed."""
    digests = {}
    for seed in seeds:
        paths = export_metrics(run_scenario(scenario, seed=seed), out_dir / f"seed-{seed}")
        for path in paths.values():
            digests[f"seed-{seed}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def golden_digests(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split("  ") for line in lines)}


def test_drone_exports_match_the_committed_digests(tmp_path):
    scenario = load_scenario(bundled_scenario_path())
    assert export_digests(scenario, (42, 7), tmp_path) == golden_digests(GOLDEN_DRONE_EXPORTS)


def bernoulli_drone_document():
    """The drone document with every dirty model Bernoulli."""
    data = read_document(bundled_scenario_path())
    for nf in data["nfs"]:
        if "memory" in nf:
            nf["memory"]["dirty_model"] = {"kind": "bernoulli", "p_per_page_per_ms": 0.002}
    return data


def bernoulli_drone():
    """The drone scenario with every dirty model Bernoulli."""
    return build_scenario(bernoulli_drone_document())


def test_bernoulli_drone_exports_match_the_committed_digests(tmp_path):
    scenario = bernoulli_drone()
    assert export_digests(scenario, (42, 7), tmp_path) == golden_digests(GOLDEN_BERNOULLI_EXPORTS)


class Tone(str, Enum):
    LOUD = "lo\"ud%"


TRACE_TEXT = st.text(
    alphabet=st.characters() | st.sampled_from(['"', "\\", "%", "\x00", "\x1f", "\u2028", "é", "€"]),
    max_size=6,
)
TRACE_VALUES = (
    TRACE_TEXT
    | st.integers()
    | st.sampled_from([2**64, -(2**70), -1])
    | st.floats()
    | st.sampled_from([-0.0, 1e-7, 1e22, math.nan, math.inf, -math.inf])
    | st.booleans()
    | st.none()
    | st.just(Tone.LOUD)
    | st.lists(st.integers(), max_size=3)
)


def events_of(kind):
    """Events of ``kind`` with any values in every slot, up to one per declared key."""
    return st.builds(
        Event,
        time_us=st.integers(),
        seq=st.integers(),
        kind=st.just(kind),
        values=st.lists(TRACE_VALUES, max_size=len(runner.TRACE_KINDS[kind])).map(tuple),
    )


# Kinds recur, so each template is reused across value types.
TRACE_EVENTS = st.lists(st.sampled_from(sorted(runner.TRACE_KINDS)).flatmap(events_of), max_size=10)


@settings(max_examples=200, deadline=None)
@given(events=TRACE_EVENTS)
def test_trace_lines_match_json_dumps(events):
    expected = [
        json.dumps(
            {"time_us": ev.time_us, "seq": ev.seq, "kind": ev.kind, "data": data_of(ev)},
            sort_keys=True,
        )
        + "\n"
        for ev in events
    ]
    assert list(runner.trace_lines(events)) == expected


def test_trace_kinds_declare_plain_names_and_sorted_keys():
    # The line templates write kinds and keys unescaped, and a % would end a field.
    for kind, keys in runner.TRACE_KINDS.items():
        for name in (kind, *keys):
            assert re.fullmatch(r"[a-z][a-z0-9_-]*", name), name
        assert list(keys) == sorted(keys), kind
        assert set(keys.values()) <= {int, float, str}, kind


def test_rtt_samples_without_a_ue_have_empty_data(tmp_path):
    data = {
        "duration_us": 250_000,
        "rtt_sample_interval_us": 100_000,
        "topology": {"hosts": [{"id": "h1", "hall": "hall-A", "driver": "macvlan"}]},
        "nfs": [{"id": "upf-1", "kind": "upf", "host": "h1"}],
    }
    bundle = run_scenario(build_scenario(data))
    assert bundle.rtt_series == ()
    lines = export_metrics(bundle, tmp_path)["trace"].read_text(encoding="utf-8").splitlines()
    assert lines == [
        f'{{"data": {{}}, "kind": "rtt-sample", "seq": {seq}, "time_us": {seq * 100_000}}}'
        for seq in range(3)
    ]


def load_scenario_gen():
    """The benchmark's deterministic scenario generator, as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "scenario_gen.py"
    spec = importlib.util.spec_from_file_location("scenario_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCENARIO_GEN = load_scenario_gen()

# Documents a run reads through load_scenario, by name.
GC_DOCUMENTS = {
    "drone": lambda: read_document(bundled_scenario_path()),
    "bernoulli-drone": bernoulli_drone_document,
    "generate-301": lambda: SCENARIO_GEN.generate(301),
}


@pytest.mark.parametrize("name", ["drone", "generate-301"])
def test_each_host_pair_shares_one_channel(name):
    data = read_document(bundled_scenario_path()) if name == "drone" else SCENARIO_GEN.generate(301)
    topology = build_scenario(data).topology
    links = [Link(**link) for link in data["topology"]["links"]]
    hosts = sorted(topology.hosts)
    for a in hosts:
        for b in hosts:
            latency, bandwidth = expected_route(topology, links, a, b)
            channel = topology.channel(a, b)
            assert channel == Channel(bandwidth, latency)
            assert topology.one_way_latency_us(a, b) == channel.latency_us
            assert topology.channel(b, a) is channel


def test_generated_exports_match_the_committed_digests(tmp_path):
    scenario = build_scenario(SCENARIO_GEN.generate(301))
    assert export_digests(scenario, (301,), tmp_path) == golden_digests(GOLDEN_GENERATED_EXPORTS)


def drone_turning_back():
    """The drone scenario plus a trigger back to hall-A 1 ms after the first."""
    data = read_document(bundled_scenario_path())
    data["triggers"].append({**data["triggers"][0], "time_us": 1_001_000, "new_zone": "hall-A"})
    return build_scenario(data)


@pytest.mark.parametrize(
    "scenario, seed",
    [
        (load_scenario(bundled_scenario_path()), 42),
        (load_scenario(bundled_scenario_path()), 7),
        (drone_turning_back(), None),
        (build_scenario({**read_document(bundled_scenario_path()), "objective": "bytes"}), 42),
        (bernoulli_drone(), 42),
        (build_scenario(SCENARIO_GEN.generate(301)), 301),
    ],
    ids=["drone-42", "drone-7", "turn-back", "drone-bytes", "bernoulli-42", "generate-301"],
)
def test_phase_events_tile_each_migration(scenario, seed):
    """Each migration's phases run back to back from its start to its completion.

    The first phase starts at ``migration-started`` and each later one where
    the previous one ended, whatever the strategy, so the migration time,
    the sum of the spans, is the time from the start to the completion.
    The downtime is the sum of every span but the pre-copy rounds, the
    replica's sync and the background stream, which run while the function
    serves.  ``drone-bytes`` runs pre-copy.
    """
    bundle = run_scenario(scenario, seed=seed)
    reports = {}
    for rec in bundle.reports:
        reports.setdefault(rec.nf_id, []).append(rec.report)
    started, clock, spans, completed = {}, {}, {}, []
    for event in bundle.trace:
        data = data_of(event)
        nf = data.get("nf")
        if event.kind == "migration-started":
            started[nf] = clock[nf] = event.time_us
            spans[nf] = []
        elif event.kind == "migration-phase":
            assert event.time_us == clock[nf]
            spans[nf].append((data["phase"], data["end_us"] - event.time_us))
            clock[nf] = data["end_us"]
        elif event.kind == "migration-complete":
            assert event.time_us == clock[nf]
            report = reports[nf].pop(0)
            phases = spans.pop(nf)
            assert phases == [(name, span) for name, span, _ in report.phases]
            live = ("copy-round-", "sync-", "background-stream")
            down = [span for name, span in phases if not name.startswith(live)]
            assert data["downtime_us"] == sum(down)
            assert event.time_us - started.pop(nf) == report.migration_time_us
            completed.append(nf)
    assert len(completed) == len(bundle.reports) and not spans


def test_rtt_csv_holds_a_fractional_rtt_exactly(tmp_path):
    data = read_document(bundled_scenario_path())
    data["topology"]["intra_host_latency_us"] = 0.3
    bundle = run_scenario(build_scenario(data))
    rows = export_metrics(bundle, tmp_path)["rtt"].read_text().splitlines()
    assert rows[:2] == ["time_us,rtt_us", "0,0.6"]
    # Samples taken while the UPF migrates read the detour through the source.
    assert {row.split(",")[1] for row in rows[1:]} == {"0.6", "520"}
    assert len(rows) - 1 == len(bundle.rtt_series)


def test_rtt_series_is_read_from_the_trace_once():
    bundle = run_scenario(load_scenario(bundled_scenario_path()))
    assert bundle.rtt_series is bundle.rtt_series
    samples = [e for e in bundle.trace if e.kind == "rtt-sample"]
    assert bundle.rtt_series == tuple((e.time_us, e.values[0]) for e in samples)


@pytest.mark.parametrize("queued", [False, True])
def test_a_migration_started_at_the_horizon_is_reported_but_not_traced_past_it(tmp_path, queued):
    data = read_document(bundled_scenario_path())
    data["triggers"][0]["time_us"] = data["duration_us"]
    if queued:
        data["triggers"].append({**data["triggers"][0], "new_zone": "hall-A"})
    paths = export_metrics(run_scenario(build_scenario(data)), tmp_path)
    rows = [row.split(",") for row in paths["migrations"].read_text().splitlines()[1:]]
    assert [(row[0], row[-1]) for row in rows] == [("0", "success")] * 3
    events = [json.loads(line) for line in paths["trace"].read_text().splitlines()]
    kinds = [event["kind"] for event in events]
    assert kinds.count("migration-started") == 3
    assert "migration-complete" not in kinds
    # A trigger queued behind a migration that is still running is never placed.
    assert kinds.count("migration-queued") == (3 if queued else 0)
    assert max(event["time_us"] for event in events) == data["duration_us"]


class TestOverlappingTriggers:
    def test_a_trigger_during_a_migration_is_queued_and_placed_at_completion(self, tmp_path):
        bundle = run_scenario(drone_turning_back())
        queued = [(e.time_us, data_of(e)["nf"]) for e in bundle.trace if e.kind == "migration-queued"]
        assert queued == [(1_001_000, "amf-1"), (1_001_000, "smf-1"), (1_001_000, "upf-1")]
        rows = export_metrics(bundle, tmp_path)["migrations"].read_text().splitlines()[1:]
        assert len(rows) == 6
        assert [row.split(",")[0] for row in rows] == ["0"] * 3 + ["1"] * 3
        assert [(rec.trigger_index, rec.source_host, rec.target_host) for rec in bundle.reports[3:]] == [
            (1, "edge-b1", "edge-a1")
        ] * 3
        last_complete = {
            data_of(e)["nf"]: (data_of(e)["target"], e.time_us)
            for e in bundle.trace
            if e.kind == "migration-complete"
        }
        assert last_complete == {
            "smf-1": ("edge-a1", 1_042_046),
            "amf-1": ("edge-a1", 1_052_833),
            "upf-1": ("edge-a1", 1_100_000),
        }
        assert not any(e.kind == "migration-skipped" for e in bundle.trace)
        assert export_bytes(run_scenario(drone_turning_back())) == export_bytes(bundle)

    def test_rtt_reads_the_source_until_the_return_completes(self):
        bundle = run_scenario(drone_turning_back())
        rtt = dict(bundle.rtt_series)
        # The UPF is on edge-b1 from 1,050,000 to 1,100,000 us while the UE is
        # back in hall-A: the 1.06 s and 1.09 s samples show the detour.
        assert rtt[1_060_000] == rtt[1_090_000] > rtt[1_100_000] == rtt[0]

    def test_no_bundled_or_generated_run_overlaps(self):
        for scenario in (
            load_scenario(bundled_scenario_path()),
            build_scenario(SCENARIO_GEN.generate(301)),
        ):
            kinds = {e.kind for e in run_scenario(scenario).trace}
            assert "migration-queued" not in kinds

    # The CLI pauses the cyclic collector for a command (cli.main): these two tests are why
    # the pause defers nothing, so no command can grow memory by it.
    @pytest.mark.parametrize("name", list(GC_DOCUMENTS))
    def test_a_finished_run_leaves_no_cyclic_garbage(self, tmp_path, name):
        path = tmp_path / "case.scenario"
        path.write_text(json.dumps(GC_DOCUMENTS[name]()), encoding="utf-8")
        gc.collect()
        gc.disable()
        try:
            bundle = run_scenario(load_scenario(path))
            export_metrics(bundle, tmp_path / "out")
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("command", ["simulate", "sweep", "document-fault"])
    def test_a_command_leaves_no_cyclic_garbage_but_its_parser(self, tmp_path, command):
        drone = str(bundled_scenario_path())
        bad = tmp_path / "bad.scenario"
        bad.write_text("{", encoding="utf-8")
        argv, code = {
            "simulate": (["simulate", drone, "--out", str(tmp_path / "out")], 0),
            "sweep": (["sweep", drone, "--param", "seed=1,2", "--out", str(tmp_path / "sw")], 0),
            "document-fault": (["simulate", str(bad), "--out", str(tmp_path / "out")], 2),
        }[command]
        gc.collect()
        gc.disable()
        try:
            cli._parser()
            parser_only = gc.collect()
            assert cli.main(argv) == code
            assert gc.collect() == parser_only
        finally:
            gc.enable()


@st.composite
def dense_trigger_documents(draw):
    """A small generated scenario whose triggers all fall within 400 ms."""
    halls = draw(st.integers(2, 3))
    data = SCENARIO_GEN.generate(
        draw(st.integers(0, 10**6)),
        halls=halls,
        hosts_per_hall=5,
        nfs_per_kind=draw(st.integers(1, 2)),
        triggers=0,
        num_pages=draw(st.sampled_from([8, 64])),
    )
    for nf in data["nfs"]:
        nf["cpu_demand"] = draw(st.sampled_from([0.1, 0.2, 0.7, 1, 1.5]))
    kinds = st.lists(st.sampled_from(SCENARIO_GEN.KINDS), min_size=1, max_size=3, unique=True)
    data["triggers"] = [
        {
            "time_us": draw(st.integers(0, 400_000)),
            "ue_id": "ue-1",
            "new_zone": f"hall-{draw(st.integers(0, halls - 1))}",
            "affected_kinds": draw(kinds),
            "objective": draw(st.sampled_from(SCENARIO_GEN.OBJECTIVES)),
        }
        for _ in range(draw(st.integers(1, 6)))
    ]
    data["duration_us"] = 5_000_000  # every chain of queued moves settles well before
    return data


def export_bytes(bundle):
    with tempfile.TemporaryDirectory() as out:
        return {name: path.read_bytes() for name, path in export_metrics(bundle, out).items()}


@settings(max_examples=60, deadline=None)
@given(data=dense_trigger_documents())
def test_overlapping_triggers_keep_one_consistent_lifecycle_per_function(data):
    scenario = build_scenario(data)
    topology = scenario.topology
    loads = []

    class RecountedLoad(HostLoad):
        """Checks every host against a recount of the assigned hosts after each move."""

        def __init__(self, topology_):
            super().__init__(topology_)
            loads.append(self)
            self.recount()

        def move(self, nf_id, host_id):
            super().move(nf_id, host_id)
            self.recount()

        def recount(self):
            for host_id in topology.hosts:
                expected = sum(
                    Fraction(repr(nf.cpu_demand))
                    for nf in topology.nfs.values()
                    if self.host(nf.id) == host_id
                )
                # No function has the empty id, so this is the host's whole load.
                assert self.used_by_others(host_id, "") == expected

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "HostLoad", RecountedLoad)
        bundle = run_scenario(scenario)
    (load,) = loads

    for nf in topology.nfs.values():
        events = [e for e in bundle.trace if data_of(e).get("nf") == nf.id]
        lifecycle = [e for e in events if e.kind in ("migration-started", "migration-complete")]
        assert [e.kind for e in lifecycle] == ["migration-started", "migration-complete"] * (
            len(lifecycle) // 2
        )
        host = nf.host
        for started, complete in zip(lifecycle[::2], lifecycle[1::2]):
            assert data_of(started)["source"] == host
            host = data_of(started)["target"]
            assert data_of(complete)["target"] == host
        assert load.host(nf.id) == host

        affecting = [t for t in scenario.triggers if nf.kind in t.affected_kinds]
        decisions = [
            e.kind
            for e in events
            if e.kind in ("migration-started", "migration-skipped", "migration-infeasible")
        ]
        if affecting and decisions[-1] != "migration-infeasible":
            assert topology.hosts[host].hall == affecting[-1].new_zone

    for rec in bundle.reports:
        assert rec.report.downtime_us <= rec.report.migration_time_us
    assert export_bytes(bundle) == export_bytes(run_scenario(scenario))


def drone_beside_small_functions(demands):
    """The drone with ``upf-1`` at demand 0.1 and ``edge-b1``, its only hall-B host with L2,
    at capacity 0.7 and running one stateless UDM of each of ``demands``, in that order.
    """
    data = read_document(bundled_scenario_path())
    (edge_b1,) = [host for host in data["topology"]["hosts"] if host["id"] == "edge-b1"]
    edge_b1["cpu_capacity"] = 0.7
    data["nfs"][0]["cpu_demand"] = 0.1
    data["nfs"] += [
        {"id": f"udm-{demand}", "kind": "udm", "host": "edge-b1", "stateful": False,
         "cpu_demand": demand}
        for demand in demands
    ]
    return build_scenario(data)


def test_placement_does_not_depend_on_the_order_of_the_functions():
    # As floats, 0.1 + 0.2 + 0.3 + 0.1 exceeds 0.7, while 0.3 + 0.2 + 0.1 + 0.1 does not.
    exports = []
    for demands in ((0.1, 0.2, 0.3), (0.3, 0.2, 0.1)):
        bundle = run_scenario(drone_beside_small_functions(demands))
        assert targets(bundle)["upf-1"] == "edge-b1"
        exports.append(export_bytes(bundle))
    assert exports[0] == exports[1]


@pytest.mark.parametrize("capacity", [1e308, 10**308], ids=["1e308", "10**308"])
def test_loads_stay_exact_at_the_parsers_extremes(capacity):
    # One unit serves a demand of 5e-324 and a capacity near the largest float.
    data = read_document(bundled_scenario_path())
    (edge_b1,) = [host for host in data["topology"]["hosts"] if host["id"] == "edge-b1"]
    edge_b1["cpu_capacity"] = capacity
    data["nfs"][0]["cpu_demand"] = 5e-324
    bundle = run_scenario(build_scenario(data))
    assert targets(bundle)["upf-1"] == "edge-b1"
    scenario = build_scenario(data)
    load = HostLoad(scenario.topology)
    load.move("upf-1", "edge-b1")
    assert load.used_by_others("edge-b1", "") == Fraction("5e-324")
    assert load.used_by_others("edge-b1", "upf-1") == 0
    assert load.used_by_others("edge-a1", "") == 2
    assert load.fits(scenario.topology.nfs["udr-1"], "edge-b1")


@st.composite
def near_capacity_documents(draw):
    """UPFs in hall-A that a trigger moves into hall-B, whose hosts run stateless UDMs.

    Demands are tenths, and each hall-B host's capacity is its UDMs' demand
    plus one UPF's: summed as floats in some orders, these demands land just
    past the capacity, while their decimal sum does not.
    """
    upf_tenths = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=3))
    hosts = [{"id": "a0", "hall": "hall-A", "cpu_capacity": 100, "driver": "macvlan"}]
    nfs = []
    for k in range(draw(st.integers(1, 3))):
        udm_tenths = draw(st.lists(st.sampled_from([1, 2, 3, 7]), min_size=3, max_size=6))
        hosts.append(
            {
                "id": f"b{k}",
                "hall": "hall-B",
                "cpu_capacity": (sum(udm_tenths) + draw(st.sampled_from(upf_tenths))) / 10,
                "driver": draw(st.sampled_from(["macvlan", "overlay"])),
            }
        )
        nfs += [
            {"id": f"udm-{k}-{i}", "kind": "udm", "host": f"b{k}", "stateful": False,
             "cpu_demand": t / 10}
            for i, t in enumerate(udm_tenths)
        ]
    nfs += [
        {"id": f"upf-{i}", "kind": "upf", "host": "a0", "cpu_demand": t / 10}
        for i, t in enumerate(upf_tenths)
    ]
    links = [
        {"a": "a0", "b": host["id"], "bandwidth_bps": 10**8, "extra_latency_us": 10 * k}
        for k, host in enumerate(hosts[1:])
    ]
    sessions = [
        {"id": f"pdu-{i}", "type": draw(st.sampled_from(["ip", "ethernet"])), "ue_id": "ue-1",
         "anchor_upf": f"upf-{i}"}
        for i in range(len(upf_tenths))
    ]
    kinds = draw(st.sampled_from([["upf"], ["upf", "udm"]]))
    return {
        "duration_us": 2_000_000,
        "topology": {"hosts": hosts, "links": links},
        "ue": {"id": "ue-1", "zone": "hall-A"},
        "nfs": nfs,
        "sessions": sessions,
        "triggers": [
            {"time_us": 1_000_000, "ue_id": "ue-1", "new_zone": "hall-B", "affected_kinds": kinds}
        ],
    }


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=near_capacity_documents(), order=st.randoms(use_true_random=False))
def test_exports_do_not_depend_on_document_order(data, order):
    shuffled = copy.deepcopy(data)
    topology = shuffled["topology"]
    for items in (topology["hosts"], topology["links"], shuffled["nfs"], shuffled["sessions"]):
        order.shuffle(items)
    expected = export_bytes(run_scenario(build_scenario(data)))
    assert export_bytes(run_scenario(build_scenario(shuffled))) == expected
