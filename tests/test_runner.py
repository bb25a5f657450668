"""Target selection and trace export in the scenario runner."""

import hashlib
import json
from pathlib import Path

from nfmigsim import (
    build_scenario,
    bundled_scenario_path,
    export_metrics,
    load_scenario,
    run_scenario,
)
from nfmigsim import runner


def hall_scenario(hall_b, links_b, nfs, kinds):
    """One source host in hall-A and the given hall-B hosts behind it.

    ``hall_b`` lists (id, driver, cpu_capacity); ``links_b`` lists
    (a, b, extra_latency_us).  Hall-B's representative is its lowest id.
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
            "topology": {"hosts": hosts, "links": links},
            "ue": {"id": "ue-1", "zone": "hall-A"},
            "nfs": nfs,
            "triggers": [
                {
                    "time_us": 1_000_000,
                    "ue_id": "ue-1",
                    "new_zone": "hall-B",
                    "affected_kinds": kinds,
                }
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


def test_trace_lines_are_sorted_key_json_of_each_event(tmp_path):
    bundle = run_scenario(load_scenario(bundled_scenario_path()), seed=42)
    lines = export_metrics(bundle, tmp_path)["trace"].read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(bundle.trace)
    for line, event in zip(lines, bundle.trace):
        expected = {"time_us": event.time_us, "seq": event.seq, "kind": event.kind, "data": event.data}
        assert line == json.dumps(expected, sort_keys=True)
    assert sum('"rtt_us"' in line for line in lines) == len(bundle.rtt_series)


# SHA-256 of the drone exports at seeds 42 and 7, in ``sha256sum`` format
# relative to an output directory holding ``seed-42/`` and ``seed-7/``.
GOLDEN_DRONE_EXPORTS = Path(__file__).parent / "data" / "drone_exports.sha256"


def test_drone_exports_match_the_committed_digests(tmp_path):
    scenario = load_scenario(bundled_scenario_path())
    actual = {}
    for seed in (42, 7):
        paths = export_metrics(run_scenario(scenario, seed=seed), tmp_path / f"seed-{seed}")
        for path in paths.values():
            actual[f"seed-{seed}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    lines = GOLDEN_DRONE_EXPORTS.read_text(encoding="utf-8").splitlines()
    assert actual == {name: digest for digest, name in (line.split("  ") for line in lines)}
