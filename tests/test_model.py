"""Driver profiles, latency lookup, L2 capability and topology validation."""

import random

import pytest

from nfmigsim import (
    BUILTIN_DRIVER_PROFILES,
    DanglingReferenceError,
    DriverKind,
    DuplicateIdError,
    HostNode,
    InvariantViolation,
    IsolationLevel,
    Link,
    MemoryImage,
    NetworkDriverProfile,
    NfInstance,
    NfKind,
    NoPathError,
    PduSession,
    Plane,
    SessionType,
    driver_table,
    validate_topology,
)

# Measured RTT, L2 capability and isolation per driver.
DRIVER_TABLE_EXPECTED = {
    DriverKind.HOST: (522, True, IsolationLevel.NONE),
    DriverKind.BRIDGE: (600, True, IsolationLevel.MEDIUM),
    DriverKind.MACVLAN: (520, True, IsolationLevel.MEDIUM),
    DriverKind.IPVLAN_L2: (520, False, IsolationLevel.MEDIUM),
    DriverKind.IPVLAN_L3: (539, False, IsolationLevel.MEDIUM),
    DriverKind.OVERLAY: (656, False, IsolationLevel.HIGH),
}


def two_host_topology(driver_a, driver_b, extra_latency=0, **kwargs):
    hosts = [
        HostNode("h1", "zone-1", 4, driver_a),
        HostNode("h2", "zone-2", 4, driver_b),
    ]
    links = [Link("h1", "h2", 10**8, extra_latency)]
    return validate_topology(hosts, links, [], **kwargs)


class TestDriverProfiles:
    def test_builtin_table_matches_measurements(self):
        for kind, (rtt, l2, isolation) in DRIVER_TABLE_EXPECTED.items():
            profile = BUILTIN_DRIVER_PROFILES[kind]
            assert profile.rtt_inter_host_us == rtt
            assert profile.carries_l2 is l2
            assert profile.isolation is isolation

    def test_table_is_exhaustive(self):
        assert set(BUILTIN_DRIVER_PROFILES) == set(DriverKind)

    def test_nonpositive_rtt_rejected(self):
        with pytest.raises(InvariantViolation):
            NetworkDriverProfile(DriverKind.HOST, 0, True, IsolationLevel.NONE)

    def test_l2_overlay_flag_flips_capability(self):
        assert driver_table()[DriverKind.OVERLAY].carries_l2 is False
        assert driver_table(l2_overlay_enabled=True)[DriverKind.OVERLAY].carries_l2 is True


class TestOneWayLatency:
    @pytest.mark.parametrize("kind", list(DriverKind))
    def test_homogeneous_pair_reproduces_measured_rtt(self, kind):
        topo = two_host_topology(kind, kind)
        rtt = 2 * topo.one_way_latency_us("h1", "h2")
        assert rtt == DRIVER_TABLE_EXPECTED[kind][0]

    def test_macvlan_pair(self):
        topo = two_host_topology(DriverKind.MACVLAN, DriverKind.MACVLAN)
        assert topo.one_way_latency_us("h1", "h2") == 260

    def test_same_host_uses_intra_host_default(self):
        topo = two_host_topology(DriverKind.MACVLAN, DriverKind.MACVLAN)
        assert topo.one_way_latency_us("h1", "h1") == 25

    def test_intra_host_latency_configurable(self):
        topo = two_host_topology(
            DriverKind.MACVLAN, DriverKind.MACVLAN, intra_host_latency_us=3
        )
        assert topo.one_way_latency_us("h2", "h2") == 3

    def test_mixed_pair_uses_more_restrictive_driver(self):
        topo = two_host_topology(DriverKind.BRIDGE, DriverKind.OVERLAY)
        assert topo.one_way_latency_us("h1", "h2") == 328

    def test_extra_latency_added(self):
        topo = two_host_topology(DriverKind.MACVLAN, DriverKind.MACVLAN, extra_latency=40)
        assert topo.one_way_latency_us("h1", "h2") == 300

    def test_symmetry_over_all_driver_pairs(self):
        hosts = [
            HostNode(f"h{i}", "z", 4, kind) for i, kind in enumerate(DriverKind)
        ]
        rng = random.Random(7)
        links = []
        for i in range(len(hosts)):
            for j in range(i + 1, len(hosts)):
                links.append(Link(hosts[i].id, hosts[j].id, 10**8, rng.randrange(500)))
        topo = validate_topology(hosts, links, [])
        for a in topo.hosts:
            for b in topo.hosts:
                assert topo.one_way_latency_us(a, b) == topo.one_way_latency_us(b, a)

    def test_multi_hop_path_sums_extra_latency(self):
        hosts = [
            HostNode("h1", "z", 4, DriverKind.MACVLAN),
            HostNode("h2", "z", 4, DriverKind.MACVLAN),
            HostNode("h3", "z", 4, DriverKind.MACVLAN),
        ]
        links = [Link("h1", "h2", 10**8, 10), Link("h2", "h3", 10**8, 15)]
        topo = validate_topology(hosts, links, [])
        assert topo.one_way_latency_us("h1", "h3") == 260 + 25

    def test_no_path_raises(self):
        hosts = [
            HostNode("h1", "z", 4, DriverKind.MACVLAN),
            HostNode("h2", "z", 4, DriverKind.MACVLAN),
        ]
        topo = validate_topology(hosts, [], [])
        with pytest.raises(NoPathError):
            topo.one_way_latency_us("h1", "h2")


class TestCarriesL2Path:
    def test_both_l2_capable(self):
        topo = two_host_topology(DriverKind.HOST, DriverKind.MACVLAN)
        assert topo.carries_l2_path("h1", "h2") is True

    def test_overlay_endpoint_blocks_l2(self):
        topo = two_host_topology(DriverKind.HOST, DriverKind.OVERLAY)
        assert topo.carries_l2_path("h1", "h2") is False

    def test_same_host_always_true(self):
        topo = two_host_topology(DriverKind.OVERLAY, DriverKind.OVERLAY)
        assert topo.carries_l2_path("h1", "h1") is True

    def test_l2_overlay_flag(self):
        topo = two_host_topology(
            DriverKind.OVERLAY, DriverKind.OVERLAY, l2_overlay_enabled=True
        )
        assert topo.carries_l2_path("h1", "h2") is True

    def test_downgrading_endpoint_never_enables_l2(self):
        # Monotone: swapping an L2-capable endpoint for a non-L2 one can only
        # turn the path capability off.
        l2_kinds = [k for k in DriverKind if BUILTIN_DRIVER_PROFILES[k].carries_l2]
        non_l2_kinds = [k for k in DriverKind if not BUILTIN_DRIVER_PROFILES[k].carries_l2]
        for before in l2_kinds:
            for after in non_l2_kinds:
                for other in DriverKind:
                    upgraded = two_host_topology(before, other)
                    downgraded = two_host_topology(after, other)
                    if not upgraded.carries_l2_path("h1", "h2"):
                        assert not downgraded.carries_l2_path("h1", "h2")


class TestValidateTopology:
    def test_minimal_topology_valid(self):
        hosts = [
            HostNode("h1", "z", 4, DriverKind.MACVLAN),
            HostNode("h2", "z", 4, DriverKind.MACVLAN),
        ]
        nfs = [NfInstance("upf-1", NfKind.UPF, "h1")]
        topo = validate_topology(hosts, [Link("h1", "h2", 10**6)], nfs)
        assert set(topo.hosts) == {"h1", "h2"}
        assert topo.nfs["upf-1"].plane is Plane.USER

    def test_duplicate_host_id(self):
        hosts = [
            HostNode("h1", "z", 4, DriverKind.MACVLAN),
            HostNode("h1", "z", 4, DriverKind.BRIDGE),
        ]
        with pytest.raises(DuplicateIdError, match="h1"):
            validate_topology(hosts, [], [])

    def test_link_to_unknown_host(self):
        hosts = [HostNode("h1", "z", 4, DriverKind.MACVLAN)]
        with pytest.raises(DanglingReferenceError, match="ghost"):
            validate_topology(hosts, [Link("h1", "ghost", 10**6)], [])

    def test_stateful_upf_rejected(self):
        hosts = [HostNode("h1", "z", 4, DriverKind.MACVLAN)]
        nfs = [
            NfInstance(
                "upf-1", NfKind.UPF, "h1", stateful=True, memory=MemoryImage(8, 4096)
            )
        ]
        with pytest.raises(InvariantViolation, match="stateless"):
            validate_topology(hosts, [], nfs)

    def test_stateless_smf_rejected(self):
        hosts = [HostNode("h1", "z", 4, DriverKind.MACVLAN)]
        nfs = [NfInstance("smf-1", NfKind.SMF, "h1", stateful=False)]
        with pytest.raises(InvariantViolation, match="smf-1"):
            validate_topology(hosts, [], nfs)

    def test_stateful_requires_memory(self):
        hosts = [HostNode("h1", "z", 4, DriverKind.MACVLAN)]
        nfs = [NfInstance("smf-1", NfKind.SMF, "h1", stateful=True)]
        with pytest.raises(InvariantViolation, match="memory"):
            validate_topology(hosts, [], nfs)

    def test_stateless_must_not_carry_memory(self):
        hosts = [HostNode("h1", "z", 4, DriverKind.MACVLAN)]
        nfs = [NfInstance("upf-1", NfKind.UPF, "h1", memory=MemoryImage(8, 4096))]
        with pytest.raises(InvariantViolation, match="upf-1"):
            validate_topology(hosts, [], nfs)

    def test_udm_may_be_stateful_or_stateless(self):
        hosts = [HostNode("h1", "z", 4, DriverKind.MACVLAN)]
        validate_topology(
            hosts,
            [],
            [NfInstance("udm-1", NfKind.UDM, "h1", stateful=True, memory=MemoryImage(8, 4096))],
        )
        validate_topology(hosts, [], [NfInstance("udm-1", NfKind.UDM, "h1", stateful=False)])

    def test_disconnected_function_hosts_rejected(self):
        hosts = [
            HostNode("h1", "z", 4, DriverKind.MACVLAN),
            HostNode("h2", "z", 4, DriverKind.MACVLAN),
        ]
        nfs = [
            NfInstance("upf-1", NfKind.UPF, "h1"),
            NfInstance("upf-2", NfKind.UPF, "h2"),
        ]
        with pytest.raises(InvariantViolation, match="not connected"):
            validate_topology(hosts, [], nfs)

    def test_session_anchor_must_be_upf(self):
        hosts = [HostNode("h1", "z", 4, DriverKind.MACVLAN)]
        nfs = [NfInstance("smf-1", NfKind.SMF, "h1", memory=MemoryImage(8, 4096))]
        sessions = [PduSession("pdu-1", SessionType.IP, "ue-1", "smf-1")]
        with pytest.raises(InvariantViolation, match="not a UPF"):
            validate_topology(hosts, [], nfs, sessions=sessions)

    def test_negative_bandwidth_rejected(self):
        hosts = [
            HostNode("h1", "z", 4, DriverKind.MACVLAN),
            HostNode("h2", "z", 4, DriverKind.MACVLAN),
        ]
        with pytest.raises(InvariantViolation, match="bandwidth"):
            validate_topology(hosts, [Link("h1", "h2", -5)], [])

    def test_negative_intra_host_latency_rejected(self):
        # A negative latency gives an inter-copy over the intra-host channel
        # a negative downtime.
        with pytest.raises(InvariantViolation, match="intra_host_latency_us"):
            two_host_topology(
                DriverKind.MACVLAN, DriverKind.MACVLAN, intra_host_latency_us=-500
            )

    def test_negative_capacity_rejected_at_construction(self):
        with pytest.raises(InvariantViolation, match="h1: cpu_capacity must be >= 0"):
            HostNode("h1", "z", -1, DriverKind.MACVLAN)
