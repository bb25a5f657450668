"""Strategy selection table and placement feasibility rules."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nfmigsim import (
    DriverKind,
    HostLoad,
    HostNode,
    InvalidCombinationError,
    IsolationLevel,
    Link,
    MemoryImage,
    NetworkDriverProfile,
    NfInstance,
    NfKind,
    Objective,
    PduSession,
    STATEFUL_VARIANTS,
    SessionType,
    Strategy,
    ViolationKind,
    check_placement,
    required_isolation,
    select_strategy,
    validate_topology,
)
from nfmigsim import policy
from nfmigsim.policy import POLICY_TABLE, policy_grid, static_key, static_violations

# Chosen strategy per (kind, stateful, objective), transcribed from the
# per-function analysis.
EXPECTED_CHOICE = {
    (NfKind.UPF, False): {
        Objective.MINIMIZE_DOWNTIME: Strategy.NO_MIGRATION_REDEPLOY,
        Objective.MINIMIZE_MIGRATION_TIME: Strategy.NO_MIGRATION_REDEPLOY,
        Objective.MINIMIZE_BYTES: Strategy.NO_MIGRATION_REDEPLOY,
    },
    (NfKind.SMF, True): {
        Objective.MINIMIZE_DOWNTIME: Strategy.PARALLEL,
        Objective.MINIMIZE_MIGRATION_TIME: Strategy.PRE_COPY,
        Objective.MINIMIZE_BYTES: Strategy.PRE_COPY,
    },
    (NfKind.AMF, True): {
        Objective.MINIMIZE_DOWNTIME: Strategy.PARALLEL,
        Objective.MINIMIZE_MIGRATION_TIME: Strategy.PARALLEL,
        Objective.MINIMIZE_BYTES: Strategy.PRE_COPY,
    },
    (NfKind.AUSF, True): {
        Objective.MINIMIZE_DOWNTIME: Strategy.INTER_COPY,
        Objective.MINIMIZE_MIGRATION_TIME: Strategy.INTER_COPY,
        Objective.MINIMIZE_BYTES: Strategy.INTER_COPY,
    },
    (NfKind.UDM, True): {
        Objective.MINIMIZE_DOWNTIME: Strategy.INTER_COPY,
        Objective.MINIMIZE_MIGRATION_TIME: Strategy.INTER_COPY,
        Objective.MINIMIZE_BYTES: Strategy.INTER_COPY,
    },
    (NfKind.UDM, False): {
        Objective.MINIMIZE_DOWNTIME: Strategy.NO_MIGRATION_REDEPLOY,
        Objective.MINIMIZE_MIGRATION_TIME: Strategy.NO_MIGRATION_REDEPLOY,
        Objective.MINIMIZE_BYTES: Strategy.NO_MIGRATION_REDEPLOY,
    },
    (NfKind.UDR, True): {
        Objective.MINIMIZE_DOWNTIME: Strategy.INTER_COPY,
        Objective.MINIMIZE_MIGRATION_TIME: Strategy.INTER_COPY,
        Objective.MINIMIZE_BYTES: Strategy.INTER_COPY,
    },
    (NfKind.NRF, True): {
        Objective.MINIMIZE_DOWNTIME: Strategy.PARALLEL,
        Objective.MINIMIZE_MIGRATION_TIME: Strategy.INTER_COPY,
        Objective.MINIMIZE_BYTES: Strategy.PRE_COPY,
    },
}

COPY_STRATEGIES = {Strategy.INTER_COPY, Strategy.PRE_COPY, Strategy.POST_COPY, Strategy.PARALLEL}


class TestSelectStrategy:
    def test_amf_downtime_prefers_replica(self):
        decision = select_strategy(NfKind.AMF, True, Objective.MINIMIZE_DOWNTIME)
        assert decision.chosen is Strategy.PARALLEL

    def test_nrf_migration_time_prefers_bulk_copy(self):
        decision = select_strategy(NfKind.NRF, True, Objective.MINIMIZE_MIGRATION_TIME)
        assert decision.chosen is Strategy.INTER_COPY

    def test_upf_never_migrates(self):
        decision = select_strategy(NfKind.UPF, False, Objective.MINIMIZE_BYTES)
        assert decision.chosen is Strategy.NO_MIGRATION_REDEPLOY

    def test_full_grid(self):
        for (kind, stateful), per_objective in EXPECTED_CHOICE.items():
            for objective, expected in per_objective.items():
                decision = select_strategy(kind, stateful, objective)
                assert decision.chosen is expected, (kind, stateful, objective)

    def test_chosen_leads_candidates(self):
        for _, _, _, decision in policy_grid():
            assert decision.candidates[0] is decision.chosen
            assert decision.candidates

    def test_stateless_never_gets_copy_strategy(self):
        for kind, stateful, _, decision in policy_grid():
            if not stateful:
                assert decision.chosen not in COPY_STRATEGIES

    def test_invalid_combinations_rejected(self):
        with pytest.raises(InvalidCombinationError):
            select_strategy(NfKind.UPF, True, Objective.MINIMIZE_DOWNTIME)
        for kind in (NfKind.SMF, NfKind.AMF, NfKind.AUSF, NfKind.UDR, NfKind.NRF):
            with pytest.raises(InvalidCombinationError):
                select_strategy(kind, False, Objective.MINIMIZE_DOWNTIME)

    @pytest.mark.parametrize("kind, stateful", [(NfKind.SMF, True), (NfKind.UPF, False)])
    def test_an_unknown_objective_is_named_before_the_variant(self, kind, stateful):
        message = "objective must be one of: downtime, migration-time, bytes (got 'latency')"
        with pytest.raises(ValueError) as info:
            select_strategy(kind, stateful, "latency")
        assert str(info.value) == message

    def test_an_objective_may_be_given_by_its_value(self):
        expected = select_strategy(NfKind.SMF, True, Objective.MINIMIZE_BYTES)
        assert select_strategy(NfKind.SMF, True, "bytes") is expected

    def test_grid_has_one_row_set_per_valid_variant(self):
        pairs = [(kind, stateful) for kind, stateful, _, _ in policy_grid()]
        assert sorted(set(pairs)) == sorted(
            (kind, stateful) for kind, variants in STATEFUL_VARIANTS.items() for stateful in variants
        )
        assert len(pairs) == len(set(pairs)) * len(Objective)

    def test_table_keys_are_exactly_the_valid_variants(self):
        variants = [
            (kind, stateful) for kind, states in STATEFUL_VARIANTS.items() for stateful in states
        ]
        assert sorted(POLICY_TABLE) == sorted(variants)
        for rationale, orders in POLICY_TABLE.values():
            assert rationale and len(orders) == len(Objective)

    def test_a_variant_without_a_row_fails_the_build(self, monkeypatch):
        monkeypatch.delitem(POLICY_TABLE, (NfKind.UDM, False))
        with pytest.raises(KeyError):
            policy._build_decisions()

    def test_select_strategy_returns_the_prebuilt_decision(self):
        for kind, stateful, objective, decision in policy_grid():
            assert select_strategy(kind, stateful, objective) is decision
            assert select_strategy(kind, stateful, objective) is decision

    def test_rationale_tags_present(self):
        for _, _, _, decision in policy_grid():
            assert decision.rationale


class TestRequiredIsolation:
    def test_ausf_needs_high_isolation(self):
        assert required_isolation(NfKind.AUSF) is IsolationLevel.HIGH

    def test_others_unconstrained(self):
        for kind in NfKind:
            if kind is not NfKind.AUSF:
                assert required_isolation(kind) is None


def placement_fixture(driver):
    hosts = [
        HostNode("src", "hall-A", 8, DriverKind.MACVLAN),
        HostNode("dst", "hall-B", 8, driver),
    ]
    links = [Link("src", "dst", 10**8)]
    upf = NfInstance("upf-1", NfKind.UPF, "src")
    sessions = [
        PduSession("pdu-eth", SessionType.ETHERNET, "ue-1", "upf-1"),
        PduSession("pdu-ip", SessionType.IP, "ue-1", "upf-1"),
    ]
    topo = validate_topology(hosts, links, [upf], sessions=sessions)
    return topo


class TestCheckPlacement:
    def test_ethernet_session_needs_l2(self):
        topo = placement_fixture(DriverKind.OVERLAY)
        upf = topo.nfs["upf-1"]
        violations = check_placement(upf, topo.hosts["dst"], topo.sessions, topo)
        assert [v.kind for v in violations] == [ViolationKind.ETHERNET_PDU_REQUIRES_L2]

    def test_ip_only_upf_fine_on_overlay(self):
        topo = placement_fixture(DriverKind.OVERLAY)
        upf = topo.nfs["upf-1"]
        ip_sessions = [s for s in topo.sessions if s.session_type is SessionType.IP]
        assert check_placement(upf, topo.hosts["dst"], ip_sessions, topo) == []

    def test_ausf_accepted_on_overlay(self):
        topo = placement_fixture(DriverKind.OVERLAY)
        ausf = NfInstance("ausf-1", NfKind.AUSF, "src", memory=MemoryImage(8, 4096))
        assert check_placement(ausf, topo.hosts["dst"], topo.sessions, topo) == []

    def test_ausf_rejected_on_bridge(self):
        topo = placement_fixture(DriverKind.BRIDGE)
        ausf = NfInstance("ausf-1", NfKind.AUSF, "src", memory=MemoryImage(8, 4096))
        violations = check_placement(ausf, topo.hosts["dst"], topo.sessions, topo)
        assert [v.kind for v in violations] == [ViolationKind.ISOLATION_TOO_LOW]

    def test_capacity_exceeded(self):
        hosts = [
            HostNode("src", "hall-A", 8, DriverKind.MACVLAN),
            HostNode("dst", "hall-B", 1, DriverKind.MACVLAN),
        ]
        links = [Link("src", "dst", 10**8)]
        occupant = NfInstance("upf-0", NfKind.UPF, "dst")
        mover = NfInstance("upf-1", NfKind.UPF, "src")
        topo = validate_topology(hosts, links, [occupant, mover])
        violations = check_placement(mover, topo.hosts["dst"], (), topo)
        assert [v.kind for v in violations] == [ViolationKind.CAPACITY_EXCEEDED]

    def test_an_integer_past_the_digit_limit_is_read_exactly(self):
        # Read through repr, a capacity of 5,001 digits raised ValueError from inside a run.
        big = 10**5000
        hosts = [
            HostNode("src", "hall-A", big, DriverKind.MACVLAN),
            HostNode("dst", "hall-B", 8, DriverKind.MACVLAN),
        ]
        links = [Link("src", "dst", 10**8)]
        occupant = NfInstance("upf-0", NfKind.UPF, "src", cpu_demand=big - 1)
        fits = NfInstance("upf-1", NfKind.UPF, "dst", cpu_demand=1)
        too_big = NfInstance("upf-2", NfKind.UPF, "dst", cpu_demand=2)
        topo = validate_topology(hosts, links, [occupant, fits, too_big])
        load = HostLoad(topo)
        assert load.used_by_others("src", "upf-1") == big - 1
        assert check_placement(fits, topo.hosts["src"], (), topo, load) == []
        [violation] = check_placement(too_big, topo.hosts["src"], (), topo, load)
        assert violation.detail == (
            "'src' has an integer of 5001 digits units,"
            " 1.000000000000000000000000000E+5000 in use; 'upf-2' needs 2"
        )

    def test_capacity_respects_current_placements(self):
        hosts = [
            HostNode("src", "hall-A", 8, DriverKind.MACVLAN),
            HostNode("dst", "hall-B", 1, DriverKind.MACVLAN),
        ]
        links = [Link("src", "dst", 10**8)]
        occupant = NfInstance("upf-0", NfKind.UPF, "dst")
        mover = NfInstance("upf-1", NfKind.UPF, "src")
        topo = validate_topology(hosts, links, [occupant, mover])
        load = HostLoad(topo)
        load.move("upf-0", "src")
        assert check_placement(mover, topo.hosts["dst"], (), topo, load) == []

    def test_adding_sessions_never_removes_violations(self):
        topo = placement_fixture(DriverKind.OVERLAY)
        upf = topo.nfs["upf-1"]
        host = topo.hosts["dst"]
        base_sessions = list(topo.sessions)
        base = {v.kind for v in check_placement(upf, host, base_sessions, topo)}
        extended = base_sessions + [
            PduSession("pdu-extra", SessionType.ETHERNET, "ue-2", "upf-1")
        ]
        extended_kinds = {v.kind for v in check_placement(upf, host, extended, topo)}
        assert base <= extended_kinds

    def test_details_show_long_ids_like_every_model_message(self):
        long_nf, long_host = "u" * 1000, "h" * 1000
        hosts = [
            HostNode("src", "hall-A", 8, DriverKind.MACVLAN),
            HostNode(long_host, "hall-B", 0, DriverKind.OVERLAY),
        ]
        upf = NfInstance(long_nf, NfKind.UPF, "src")
        sessions = [PduSession("pdu-eth", SessionType.ETHERNET, "ue-1", long_nf)]
        topo = validate_topology(hosts, [Link("src", long_host, 10**8)], [upf], sessions)
        ausf = NfInstance(long_nf, NfKind.AUSF, "src", memory=MemoryImage(8, 4096))
        host = topo.hosts[long_host]
        shown_nf = f"'{'u' * 40}...' (1000 characters)"
        shown_host = f"'{'h' * 40}...' (1000 characters)"
        assert [v.detail for v in check_placement(upf, host, sessions, topo)] == [
            f"{shown_nf} anchors Ethernet session(s) ['pdu-eth'] but driver 'overlay' on"
            f" {shown_host} cannot carry L2",
            f"{shown_host} has 0 units, 0 in use; {shown_nf} needs 1.0",
        ]
        [violation] = static_violations(ausf, topo.hosts["src"], sessions, topo)
        assert violation.detail == (
            f"{shown_nf} requires HIGH isolation; driver 'macvlan' on 'src' provides MEDIUM"
        )


@given(
    kinds=st.lists(st.sampled_from(NfKind), min_size=2, max_size=5),
    sessions=st.lists(st.tuples(st.sampled_from(SessionType), st.integers(0, 4)), max_size=6),
    overrides=st.dictionaries(
        st.sampled_from(DriverKind),
        st.tuples(st.booleans(), st.sampled_from(IsolationLevel)),
        max_size=3,
    ),
)
def test_equal_static_keys_pass_the_static_rules_on_the_same_hosts(kinds, sessions, overrides):
    # TargetSelector ranks a hall's hosts once per (hall, whether static_key names an Ethernet
    # session, its isolation): this is its premise.  It implies the same for equal static keys.
    hosts = [HostNode(driver.value, "hall-A", 8, driver) for driver in DriverKind]
    nfs = [
        NfInstance(
            f"nf-{i}", kind, "host", MemoryImage(8, 4096) if STATEFUL_VARIANTS[kind][0] else None
        )
        for i, kind in enumerate(kinds)
    ]
    # Any anchor, a UPF or not: the rules read the sessions they are given.
    sessions = [
        PduSession(f"pdu-{j}", session_type, "ue-1", f"nf-{anchor % len(nfs)}")
        for j, (session_type, anchor) in enumerate(sessions)
    ]
    drivers = {
        kind: NetworkDriverProfile(kind, 500, carries_l2, isolation)
        for kind, (carries_l2, isolation) in overrides.items()
    }
    topo = validate_topology(hosts, [], nfs, drivers=drivers)
    passes = {}
    for nf in nfs:
        key = static_key(nf, sessions)
        ethernet = [
            s.id
            for s in sessions
            if nf.kind is NfKind.UPF
            and s.anchor_upf == nf.id
            and s.session_type is SessionType.ETHERNET
        ]
        assert key == (tuple(ethernet), required_isolation(nf.kind))
        emptiness = []
        for host in hosts:
            violations = static_violations(nf, host, sessions, topo)
            emptiness.append(not violations)
            l2 = [v.detail for v in violations if v.kind is ViolationKind.ETHERNET_PDU_REQUIRES_L2]
            assert l2 == (
                [
                    f"'{nf.id}' anchors Ethernet session(s) {ethernet} but driver"
                    f" '{host.id}' on '{host.id}' cannot carry L2"
                ]
                if ethernet and not topo.drivers[host.attached_driver].carries_l2
                else []
            )
        assert passes.setdefault((bool(key[0]), key[1]), emptiness) == emptiness


def recount(topo, assignment, host_id, skip):
    """Load of ``host_id`` without ``skip``: the exact sum of the decimals its demands print as."""
    return sum(
        Fraction(repr(nf.cpu_demand))
        for nf in topo.nfs.values()
        if nf.id != skip and assignment[nf.id] == host_id
    )


class TestHostLoad:
    HOSTS = ("h0", "h1", "h2")

    @given(
        deployment=st.lists(
            st.tuples(st.sampled_from([0.1, 0.3, 0.7, 1.0]), st.sampled_from(HOSTS)),
            min_size=1,
            max_size=8,
        ),
        moves=st.lists(st.tuples(st.integers(0, 7), st.sampled_from(HOSTS)), max_size=30),
    )
    def test_loads_equal_recount_after_any_moves(self, deployment, moves):
        hosts = [HostNode(h, "hall-A", 8, DriverKind.MACVLAN) for h in self.HOSTS]
        links = [Link("h0", "h1", 10**8), Link("h1", "h2", 10**8)]
        nfs = [
            NfInstance(f"upf-{i}", NfKind.UPF, host, cpu_demand=demand)
            for i, (demand, host) in enumerate(deployment)
        ]
        topo = validate_topology(hosts, links, nfs)
        load = HostLoad(topo)
        assignment = {nf.id: nf.host for nf in nfs}

        def loads():
            return {(h, nf.id): load.used_by_others(h, nf.id) for h in self.HOSTS for nf in nfs}

        deployed = loads()
        for index, host_id in moves:
            nf_id = nfs[index % len(nfs)].id
            load.move(nf_id, host_id)
            assignment[nf_id] = host_id
            assert loads() == {
                (h, nf_id): recount(topo, assignment, h, nf_id) for h, nf_id in deployed
            }
        for nf in nfs:
            load.move(nf.id, nf.host)
        assert loads() == deployed
