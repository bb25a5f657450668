"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import random
import time
from contextlib import contextmanager
from pathlib import Path

from nfmigsim import (
    BUILTIN_DRIVER_PROFILES,
    Channel,
    ConstantRateDirty,
    DriverKind,
    HostNode,
    Link,
    MemoryImage,
    MigrationParams,
    NfInstance,
    NfKind,
    PduSession,
    SessionType,
    Strategy,
    ViolationKind,
    analytic_pre_copy,
    bundled_scenario_path,
    check_placement,
    export_metrics,
    load_scenario,
    migrate_inter_copy,
    migrate_parallel,
    migrate_post_copy,
    migrate_pre_copy,
    policy_table_text,
    run_scenario,
    start_replica_sync,
    validate_topology,
)

GOLDEN_POLICY_TABLE = Path(__file__).parent / "data" / "policy_table.golden"

TABLE_RTTS = {
    DriverKind.HOST: 522,
    DriverKind.BRIDGE: 600,
    DriverKind.MACVLAN: 520,
    DriverKind.IPVLAN_L2: 520,
    DriverKind.IPVLAN_L3: 539,
    DriverKind.OVERLAY: 656,
}

ZERO_OVERHEADS = dict(
    freeze_overhead_us=0,
    restart_overhead_us=0,
    activation_overhead_us=0,
    handover_signal_roundtrips=0,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number} ({description}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({description}): PASS")


def stateful_nf(num_pages, page_size=1, working_set=(), kind=NfKind.SMF):
    image = MemoryImage(num_pages, page_size, working_set=working_set)
    return NfInstance(f"{kind.value}-acc", kind, "h1", memory=image)


def test_criterion_1_driver_table_fidelity():
    with criterion(1, "driver-table RTT fidelity"):
        started = time.perf_counter()
        for kind, expected_rtt in TABLE_RTTS.items():
            hosts = [HostNode("h1", "z1", 4, kind), HostNode("h2", "z2", 4, kind)]
            topo = validate_topology(hosts, [Link("h1", "h2", 10**8, 0)], [])
            rtt = 2 * topo.one_way_latency_us("h1", "h2")
            assert rtt == expected_rtt, f"{kind.value}: {rtt} != {expected_rtt}"
        assert time.perf_counter() - started < 1.0


def test_criterion_2_inter_copy_identity():
    with criterion(2, "bulk-copy identity over 1000 random tuples"):
        started = time.perf_counter()
        rng = random.Random(2024)
        for _ in range(1000):
            pages = rng.randrange(0, 100_001)
            page_size = rng.choice([1, 64, 4096])
            bandwidth = rng.randrange(1, 10**9)
            params = MigrationParams(
                freeze_overhead_us=rng.randrange(0, 10**6),
                restart_overhead_us=rng.randrange(0, 10**6),
            )
            latency = rng.choice([0, 25, 260, 269.5, 328, 10_000])
            nf = stateful_nf(pages, page_size)
            report = migrate_inter_copy(nf, Channel(bandwidth, latency), params)
            assert report.downtime_us == report.migration_time_us
            assert report.bytes_transferred == pages * page_size
        assert time.perf_counter() - started < 10.0


def test_criterion_3_pre_copy_oracle_equivalence():
    with criterion(3, "pre-copy matches the closed-form oracle"):
        report = migrate_pre_copy(
            stateful_nf(100),
            Channel(100, 0),
            MigrationParams(precopy_stop_threshold=2, precopy_max_rounds=10, **ZERO_OVERHEADS),
            ConstantRateDirty(10),
        )
        assert report.downtime_us == 10_000
        assert report.migration_time_us == 1_110_000
        assert report.bytes_transferred == 111

        rng = random.Random(303)
        for _ in range(200):
            pages = rng.randrange(1, 2000)
            bandwidth = rng.randrange(2, 5000)
            rate = rng.randrange(0, bandwidth)
            threshold = rng.randrange(0, max(1, pages // 2))
            max_rounds = rng.randrange(1, 15)
            est = analytic_pre_copy(pages, bandwidth, rate, threshold, max_rounds)
            params = MigrationParams(
                precopy_stop_threshold=threshold,
                precopy_max_rounds=max_rounds,
                **ZERO_OVERHEADS,
            )
            sim = migrate_pre_copy(
                stateful_nf(pages), Channel(bandwidth, 0), params, ConstantRateDirty(rate)
            )
            assert sim.rounds == est.rounds
            assert sim.bytes_transferred == est.bytes_pages
            assert abs(sim.downtime_us - est.downtime_us) <= est.rounds
            assert abs(sim.migration_time_us - est.migration_time_us) <= est.rounds


def test_criterion_4_strategy_ordering():
    with criterion(4, "strategy downtime/byte ordering on shared workload"):
        started = time.perf_counter()
        channel = Channel(100, 0)
        params = MigrationParams(
            precopy_stop_threshold=2,
            precopy_max_rounds=10,
            ppm_sync_interval_us=100_000,
            **ZERO_OVERHEADS,
        )
        inter = migrate_inter_copy(stateful_nf(100), channel, params)
        pre = migrate_pre_copy(stateful_nf(100), channel, params, ConstantRateDirty(10))
        replica = start_replica_sync(
            stateful_nf(100), channel, params, ConstantRateDirty(10)
        )
        parallel = migrate_parallel(replica, params, at_time_us=replica.run_until_ticks(1))
        assert parallel.downtime_us <= pre.downtime_us < inter.downtime_us
        assert inter.bytes_transferred == 100 <= pre.bytes_transferred
        assert time.perf_counter() - started < 1.0


def test_criterion_5_post_copy_properties():
    with criterion(5, "post-copy byte exactness, stalls and failure"):
        started = time.perf_counter()
        rng = random.Random(505)
        baseline_downtime = {}
        for _ in range(100):
            pages = rng.randrange(10, 400)
            page_size = rng.choice([1, 4096])
            ws_size = rng.randrange(0, pages + 1)
            trace = [
                (rng.randrange(0, 2 * 10**6), rng.randrange(pages))
                for _ in range(rng.randrange(0, 60))
            ]
            params = MigrationParams(
                freeze_overhead_us=rng.randrange(0, 2000),
                restart_overhead_us=rng.randrange(0, 2000),
                postcopy_fault_deadline_us=10**9,
            )
            nf = stateful_nf(pages, page_size, working_set=range(ws_size))
            report = migrate_post_copy(nf, Channel(1000, 50), params, trace)
            assert report.succeeded
            assert report.bytes_transferred == pages * page_size
            key = (
                pages,
                page_size,
                ws_size,
                params.freeze_overhead_us,
                params.restart_overhead_us,
            )
            previous = baseline_downtime.setdefault(key, report.downtime_us)
            assert previous == report.downtime_us

        # A fetch whose two signal trips alone exceed the deadline fails.
        nf = stateful_nf(100, working_set=range(10))
        report = migrate_post_copy(
            nf,
            Channel(100, 50_000),
            MigrationParams(postcopy_fault_deadline_us=1000, **ZERO_OVERHEADS),
            [(0, 99)],
        )
        assert not report.succeeded
        assert report.failure_reason == "fault deadline exceeded"
        assert time.perf_counter() - started < 5.0


def test_criterion_6_policy_golden_table():
    with criterion(6, "policy grid matches the checked-in golden table"):
        golden = GOLDEN_POLICY_TABLE.read_text(encoding="utf-8")
        assert policy_table_text() == golden


def test_criterion_7_placement_rules_exhaustive():
    with criterion(7, "placement rules across all drivers"):
        for driver in DriverKind:
            profile = BUILTIN_DRIVER_PROFILES[driver]
            hosts = [
                HostNode("src", "hall-A", 16, DriverKind.MACVLAN),
                HostNode("dst", "hall-B", 16, driver),
            ]
            links = [Link("src", "dst", 10**8)]
            upf = NfInstance("upf-1", NfKind.UPF, "src")
            eth = PduSession("pdu-eth", SessionType.ETHERNET, "ue-1", "upf-1")
            ip = PduSession("pdu-ip", SessionType.IP, "ue-1", "upf-1")
            topo = validate_topology(hosts, links, [upf], sessions=[eth, ip])
            dst = topo.hosts["dst"]

            eth_violations = check_placement(upf, dst, [eth], topo)
            if profile.carries_l2:
                assert eth_violations == [], driver
            else:
                assert [v.kind for v in eth_violations] == [
                    ViolationKind.ETHERNET_PDU_REQUIRES_L2
                ], driver

            assert check_placement(upf, dst, [ip], topo) == [], driver

            ausf = NfInstance(
                "ausf-1", NfKind.AUSF, "src", memory=MemoryImage(8, 4096)
            )
            ausf_violations = check_placement(ausf, dst, [], topo)
            if profile.isolation.name == "HIGH":
                assert ausf_violations == [], driver
            else:
                assert [v.kind for v in ausf_violations] == [
                    ViolationKind.ISOLATION_TOO_LOW
                ], driver


def test_criterion_8_end_to_end_determinism(tmp_path):
    with criterion(8, "drone scenario byte-identical across reruns"):
        started = time.perf_counter()
        scenario = load_scenario(bundled_scenario_path())
        first = export_metrics(run_scenario(scenario, seed=42), tmp_path / "run1")
        second = export_metrics(run_scenario(scenario, seed=42), tmp_path / "run2")
        for name in ("migrations", "rtt", "trace"):
            assert first[name].read_bytes() == second[name].read_bytes(), name
        assert time.perf_counter() - started < 5.0


def test_criterion_9_drone_scenario_behavior():
    with criterion(9, "drone scenario RTT recovery and replica handover win"):
        scenario = load_scenario(bundled_scenario_path())
        bundle = run_scenario(scenario, seed=42)
        trigger_time = scenario.triggers[0].time_us
        by_nf = {rec.nf_id: rec for rec in bundle.reports}

        def fresh_copy(image):
            return MemoryImage(image.num_pages, image.page_size, working_set=image.working_set)

        amf = by_nf["amf-1"]
        assert amf.report.strategy is Strategy.PARALLEL
        twin = NfInstance(
            "amf-twin",
            NfKind.AMF,
            amf.source_host,
            memory=fresh_copy(scenario.topology.nfs["amf-1"].memory),
        )
        channel = scenario.topology.channel(amf.source_host, amf.target_host)
        inter = migrate_inter_copy(twin, channel, scenario.migration_params)
        assert amf.report.downtime_us < inter.downtime_us

        smf = by_nf["smf-1"]
        smf_twin = NfInstance(
            "smf-twin",
            NfKind.SMF,
            smf.source_host,
            memory=fresh_copy(scenario.topology.nfs["smf-1"].memory),
        )
        smf_channel = scenario.topology.channel(smf.source_host, smf.target_host)
        smf_inter = migrate_inter_copy(smf_twin, smf_channel, scenario.migration_params)
        assert smf.report.downtime_us < smf_inter.downtime_us

        upf = by_nf["upf-1"]
        redeploy_done = trigger_time + upf.report.migration_time_us
        detour = [
            rtt for t, rtt in bundle.rtt_series if trigger_time <= t < redeploy_done
        ]
        settled = [rtt for t, rtt in bundle.rtt_series if t >= redeploy_done]
        assert detour and settled
        # While the old anchor serves from the old hall the RTT spikes; the
        # redeployed anchor brings it back below the detour level.
        assert max(settled) <= min(detour)
        assert settled[-1] < min(detour)
