"""Driver profiles, latency lookup, derived function state and topology validation."""

import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfmigsim import (
    BUILTIN_DRIVER_PROFILES,
    Channel,
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
    STATEFUL_VARIANTS,
    PduSession,
    SessionType,
    validate_topology,
)
from nfmigsim.model import MAX_LATENCY_US

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

    def test_override_flips_l2_capability(self):
        overlay = BUILTIN_DRIVER_PROFILES[DriverKind.OVERLAY]
        l2_overlay = overlay._replace(carries_l2=True)
        default = two_host_topology(DriverKind.HOST, DriverKind.OVERLAY)
        assert default.drivers[DriverKind.OVERLAY].carries_l2 is False
        overrides = {DriverKind.OVERLAY: l2_overlay}
        topo = two_host_topology(DriverKind.HOST, DriverKind.OVERLAY, drivers=overrides)
        assert topo.drivers == {**BUILTIN_DRIVER_PROFILES, DriverKind.OVERLAY: l2_overlay}


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


def early_exit_bfs(links, a, b):
    """Fewest-hop hosts a..b, neighbours scanned in id order, stopping at b; None if cut off."""
    neighbors = {}
    for link in links:
        neighbors.setdefault(link.a, []).append(link.b)
        neighbors.setdefault(link.b, []).append(link.a)
    parent = {a: a}
    frontier = deque([a])
    while frontier:
        node = frontier.popleft()
        if node == b:
            break
        for neighbor in sorted(neighbors.get(node, ())):
            if neighbor not in parent:
                parent[neighbor] = node
                frontier.append(neighbor)
    if b not in parent:
        return None
    hops = [b]
    while hops[-1] != a:
        hops.append(parent[hops[-1]])
    return tuple(reversed(hops))


@st.composite
def link_graphs(draw, latencies=st.integers(0, 500)):
    """Up to 12 hosts (ids "h0".."h11", so id order is not numeric order) and random links,
    each with an extra latency drawn from ``latencies``.

    A drawn spanning chain makes about half the graphs connected; the rest
    are usually cut into several components.
    """
    n = draw(st.integers(1, 12))
    ids = [f"h{i}" for i in range(n)]
    drawn = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=20))
    pairs = {tuple(sorted(pair)) for pair in drawn if pair[0] != pair[1]}
    if draw(st.booleans()):
        order = draw(st.permutations(ids))
        pairs |= {tuple(sorted(pair)) for pair in zip(order, order[1:])}
    links = [
        Link(a, b, draw(st.integers(1, 10**9)), draw(latencies))
        for a, b in sorted(pairs)
    ]
    return ids, links


def route_links(links, a, b):
    """The links of the early-exit BFS route from the lower id; None if cut off."""
    hops = early_exit_bfs(links, min(a, b), max(a, b))
    if hops is None:
        return None
    by_pair = {frozenset((link.a, link.b)): link for link in links}
    return [by_pair[frozenset(step)] for step in zip(hops, hops[1:])]


def pair_rtt(topo, a, b):
    """The RTT of the more restrictive of the two hosts' drivers."""
    return max(topo.drivers[topo.hosts[h].attached_driver].rtt_inter_host_us for h in (a, b))


def expected_route(topo, links, a, b):
    """(latency, channel bandwidth) from an early-exit BFS run from the lower id; None if cut off."""
    if a == b:
        return topo.intra_host_latency_us, None
    used = route_links(links, a, b)
    if used is None:
        return None
    rtt = pair_rtt(topo, a, b)
    extra = sum(link.extra_latency_us for link in used)
    return rtt / 2 + extra, min(link.bandwidth_bps for link in used)


def assert_routes_match_bfs_and_are_symmetric(topo, links):
    for a in topo.hosts:
        for b in topo.hosts:
            expected = expected_route(topo, links, a, b)
            if expected is None:
                with pytest.raises(NoPathError):
                    topo.channel(a, b)
                with pytest.raises(NoPathError):
                    topo.one_way_latency_us(a, b)
                continue
            latency, bandwidth = expected
            assert topo.one_way_latency_us(a, b) == latency
            assert topo.channel(a, b) == Channel(bandwidth, latency)
            assert topo.one_way_latency_us(a, b) == topo.one_way_latency_us(b, a)
            assert topo.channel(a, b) == topo.channel(b, a)


@settings(max_examples=200, deadline=None)
@given(graph=link_graphs())
def test_routes_equal_an_early_exit_bfs_from_the_lower_id_both_ways(graph):
    ids, links = graph
    topo = validate_topology([HostNode(i, "z", 4, DriverKind.MACVLAN) for i in ids], links, [])
    assert_routes_match_bfs_and_are_symmetric(topo, links)


@settings(max_examples=200, deadline=None)
@given(
    graph=link_graphs(st.integers(0, MAX_LATENCY_US)),
    kinds=st.lists(st.sampled_from(DriverKind), min_size=12, max_size=12),
    rtts=st.lists(
        st.integers(0, MAX_LATENCY_US // 2 - 1).map(lambda k: 2 * k + 1),
        min_size=len(DriverKind),
        max_size=len(DriverKind),
    ),
)
def test_inter_host_latencies_are_exact_half_integers(graph, kinds, rtts):
    # Integer link and driver latencies make every route sum exact, so no
    # order of adding a route's links can change a latency by a last bit.
    ids, links = graph
    drivers = {
        kind: BUILTIN_DRIVER_PROFILES[kind]._replace(rtt_inter_host_us=rtt)
        for kind, rtt in zip(DriverKind, rtts)
    }
    hosts = [HostNode(i, "z", 4, kind) for i, kind in zip(ids, kinds)]
    topo = validate_topology(hosts, links, [], drivers=drivers)
    for a in ids:
        for b in ids:
            used = route_links(links, a, b)
            if a == b or used is None:
                continue
            twice = 2 * topo.channel(a, b).latency_us
            assert twice.is_integer()
            extra = 0
            for link in reversed(used):
                extra += link.extra_latency_us
            assert twice == pair_rtt(topo, a, b) + 2 * extra


def test_ring_with_two_shortest_paths_is_read_from_the_lower_id():
    # h0 and h5 are three hops apart both ways round; BFS from h0 goes via
    # h1 and h4 (extra 44 + 19 + 35), BFS from h5 via h3 and h2 (36 + 39 + 0).
    ring = ["h0", "h1", "h4", "h5", "h3", "h2"]
    extras = [44, 19, 35, 36, 39, 0]
    links = [Link(ring[i], ring[(i + 1) % 6], (i + 1) * 10**8, extras[i]) for i in range(6)]
    topo = validate_topology([HostNode(h, "z", 4, DriverKind.MACVLAN) for h in ring], links, [])
    assert topo.one_way_latency_us("h0", "h5") == topo.one_way_latency_us("h5", "h0") == 358.0
    assert topo.channel("h0", "h5") == topo.channel("h5", "h0") == Channel(10**8, 358.0)
    assert_routes_match_bfs_and_are_symmetric(topo, links)


def test_a_failed_channel_lookup_raises_on_every_call():
    hosts = [HostNode(h, "z", 4, DriverKind.MACVLAN) for h in ("h1", "h2", "h3")]
    topo = validate_topology(hosts, [Link("h1", "h2", 10**8)], [])
    for _ in range(2):
        with pytest.raises(DanglingReferenceError, match="unknown host 'h9'"):
            topo.channel("h1", "h9")
        with pytest.raises(DanglingReferenceError, match="unknown host 'h9'"):
            topo.channel("h9", "h9")
        with pytest.raises(NoPathError):
            topo.channel("h3", "h1")
        with pytest.raises(NoPathError):
            topo.channel("h1", "h3")
    assert topo.channel("h2", "h1") is topo.channel("h1", "h2") == Channel(10**8, 260.0)


class TestValidateTopology:
    def test_minimal_topology_valid(self):
        hosts = [
            HostNode("h1", "z", 4, DriverKind.MACVLAN),
            HostNode("h2", "z", 4, DriverKind.MACVLAN),
        ]
        nfs = [NfInstance("upf-1", NfKind.UPF, "h1")]
        topo = validate_topology(hosts, [Link("h1", "h2", 10**6)], nfs)
        assert set(topo.hosts) == {"h1", "h2"}

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

    @pytest.mark.parametrize("a, b", [("h1", "ghost"), ("ghost", "h1"), ("ghost", "ghost")])
    def test_latency_to_an_unknown_host(self, a, b):
        topo = two_host_topology(DriverKind.MACVLAN, DriverKind.MACVLAN)
        with pytest.raises(DanglingReferenceError, match="unknown host 'ghost'"):
            topo.one_way_latency_us(a, b)

    def test_self_link_rejected(self):
        hosts = [HostNode("h1", "z", 4, DriverKind.MACVLAN)]
        with pytest.raises(InvariantViolation, match="endpoints must be distinct"):
            validate_topology(hosts, [Link("h1", "h1", 10**6)], [])

    def test_duplicate_link_rejected_either_way_round(self):
        hosts = [
            HostNode("h1", "z", 4, DriverKind.MACVLAN),
            HostNode("h2", "z", 4, DriverKind.MACVLAN),
        ]
        links = [Link("h1", "h2", 10**6), Link("h2", "h1", 10**7)]
        with pytest.raises(InvariantViolation, match="duplicate link between the same host pair"):
            validate_topology(hosts, links, [])

    def test_duplicate_function_id(self):
        hosts = [HostNode("h1", "z", 4, DriverKind.MACVLAN)]
        nfs = [NfInstance("upf-1", NfKind.UPF, "h1"), NfInstance("upf-1", NfKind.UPF, "h1")]
        with pytest.raises(DuplicateIdError, match="function id 'upf-1' appears more than once"):
            validate_topology(hosts, [], nfs)

    def test_duplicate_session_id(self):
        hosts = [HostNode("h1", "z", 4, DriverKind.MACVLAN)]
        nfs = [NfInstance("upf-1", NfKind.UPF, "h1")]
        session = PduSession("pdu-1", SessionType.IP, "ue-1", "upf-1")
        with pytest.raises(DuplicateIdError, match="session id 'pdu-1' appears more than once"):
            validate_topology(hosts, [], nfs, sessions=[session, session])

    @pytest.mark.parametrize(
        "hosts, links, nfs, sessions",
        [
            ([("a" * 1000)] * 2, [], [], []),
            (["h1"], [("a" * 1000, "b" * 1000)], [], []),
            (["h1"], [], [("u" * 1000, "a" * 1000)], []),
            (["h1"], [], [("u" * 1000, "h1")] * 2, []),
            (["h1"], [], [("u" * 1000, "h1")], [("s" * 1000, "u" * 1000)] * 2),
            (["h1"], [], [("u" * 1000, "h1")], [("s" * 1000, "a" * 1000)]),
        ],
    )
    def test_long_ids_are_echoed_by_start_and_length(self, hosts, links, nfs, sessions):
        # Every id an error names goes through ``errors.shown``, so even two
        # 1,000-character ids keep the message short.
        with pytest.raises((DuplicateIdError, DanglingReferenceError)) as info:
            validate_topology(
                [HostNode(host, "z", 4, DriverKind.MACVLAN) for host in hosts],
                [Link(a, b, 10**6) for a, b in links],
                [NfInstance(nf, NfKind.UPF, host) for nf, host in nfs],
                sessions=[PduSession(s, SessionType.IP, "ue-1", upf) for s, upf in sessions],
            )
        assert "(1000 characters)" in str(info.value)
        assert len(str(info.value)) <= 180

    def test_stateful_upf_rejected(self):
        hosts = [HostNode("h1", "z", 4, DriverKind.MACVLAN)]
        nfs = [NfInstance("upf-1", NfKind.UPF, "h1", memory=MemoryImage(8, 4096))]
        with pytest.raises(InvariantViolation, match="UPF instances are stateless"):
            validate_topology(hosts, [], nfs)

    def test_stateless_smf_rejected(self):
        hosts = [HostNode("h1", "z", 4, DriverKind.MACVLAN)]
        nfs = [NfInstance("smf-1", NfKind.SMF, "h1")]
        with pytest.raises(InvariantViolation, match="smf-1"):
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
            [NfInstance("udm-1", NfKind.UDM, "h1", memory=MemoryImage(8, 4096))],
        )
        validate_topology(hosts, [], [NfInstance("udm-1", NfKind.UDM, "h1")])

    @pytest.mark.parametrize("kind", list(NfKind))
    def test_variant_table_decides_each_kind(self, kind):
        hosts = [HostNode("h1", "z", 4, DriverKind.MACVLAN)]
        variants = STATEFUL_VARIANTS[kind]
        for stateful in (False, True):
            nf = NfInstance("nf-1", kind, "h1", memory=MemoryImage(8, 4096) if stateful else None)
            if stateful in variants:
                validate_topology(hosts, [], [nf])
                continue
            state = "stateful" if variants[0] else "stateless"
            with pytest.raises(InvariantViolation) as info:
                validate_topology(hosts, [], [nf])
            assert str(info.value) == f"'nf-1': {kind.value.upper()} instances are {state}"


class TestChannel:
    @pytest.mark.parametrize("bandwidth", [None, 1, 10**8])
    def test_positive_or_no_bandwidth_accepted(self, bandwidth):
        assert Channel(bandwidth, 0).bandwidth_bps == bandwidth

    @pytest.mark.parametrize("bandwidth", [0, -10, float("nan")])
    def test_bandwidth_must_be_none_or_positive(self, bandwidth):
        with pytest.raises(ValueError) as info:
            Channel(bandwidth, 0)
        assert str(info.value) == f"bandwidth_bps must be positive, got {bandwidth}"

    @pytest.mark.parametrize("latency", [-50, -0.5, float("nan"), float("inf")])
    def test_latency_must_be_non_negative(self, latency):
        with pytest.raises(ValueError, match=f"latency_us must be finite and >= 0, got {latency}"):
            Channel(100, latency)


@pytest.mark.parametrize(
    "value", [7.5, 1e8, True], ids=["fraction", "integral-float", "bool"]
)
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda v: Link("h1", "h2", v), "link ('h1', 'h2'): bandwidth_bps"),
        (lambda v: Link("h1", "h2", 10**8, v), "link ('h1', 'h2'): extra_latency_us"),
        (
            lambda v: NetworkDriverProfile(DriverKind.HOST, v, True, IsolationLevel.NONE),
            "driver 'host': rtt_inter_host_us",
        ),
        (lambda v: Channel(v, 0), "bandwidth_bps"),
    ],
    ids=["link-bandwidth", "link-latency", "driver-rtt", "channel-bandwidth"],
)
def test_link_driver_and_channel_numbers_must_be_integers(build, message, value):
    # A document holds each of these as an int; a float is not one even when integral.
    with pytest.raises((InvariantViolation, ValueError)) as info:
        build(value)
    assert str(info.value) == f"{message} must be an integer, got {value!r}"


class TestDerivedState:
    def test_state_follows_memory(self):
        smf = NfInstance("smf-1", NfKind.SMF, "h1", memory=MemoryImage(8, 4096))
        udm = NfInstance("udm-1", NfKind.UDM, "h1")
        assert (smf.stateful, udm.stateful) == (True, False)
        stateful_udm = NfInstance("udm-1", NfKind.UDM, "h1", memory=MemoryImage(8, 4096))
        assert stateful_udm.stateful is True

    def test_state_cannot_be_set(self):
        nf = NfInstance("upf-1", NfKind.UPF, "h1")
        with pytest.raises(AttributeError):
            nf.stateful = True
        with pytest.raises(TypeError):
            NfInstance("upf-1", NfKind.UPF, "h1", stateful=True)

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
        with pytest.raises(
            InvariantViolation, match="'h1': cpu_capacity must be finite and >= 0, got -1"
        ):
            HostNode("h1", "z", -1, DriverKind.MACVLAN)

    def test_nan_capacity_rejected_at_construction(self):
        # NaN fails every comparison, so a `< 0` check would let it through
        # and no demand would ever exceed the host's capacity.
        with pytest.raises(
            InvariantViolation, match="'h1': cpu_capacity must be finite and >= 0, got nan"
        ):
            HostNode("h1", "z", float("nan"), DriverKind.MACVLAN)

    def test_nan_cpu_demand_rejected(self):
        with pytest.raises(
            InvariantViolation, match="'upf-1': cpu_demand must be finite and >= 0, got nan"
        ):
            NfInstance("upf-1", NfKind.UPF, "h1", cpu_demand=float("nan"))

    def test_nan_cpu_demand_assignment_rejected(self):
        nf = NfInstance("upf-1", NfKind.UPF, "h1", cpu_demand=2.0)
        for value in (float("nan"), -1, 0.5, float("inf"), True):
            with pytest.raises(AttributeError):
                nf.cpu_demand = value
        assert nf.cpu_demand == 2.0
        with pytest.raises(
            InvariantViolation, match="'upf-1': cpu_demand must be finite and >= 0, got -1"
        ):
            NfInstance("upf-1", NfKind.UPF, "h1", cpu_demand=-1)

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: NfInstance("upf-1", NfKind.UPF, "h1", cpu_demand=float("inf")),
                "'upf-1': cpu_demand must be finite and >= 0, got inf",
            ),
            (
                lambda: NfInstance("upf-1", NfKind.UPF, "h1", cpu_demand=True),
                "'upf-1': cpu_demand must be an int or float, got True",
            ),
            (
                lambda: HostNode("h1", "z", True, DriverKind.MACVLAN),
                "'h1': cpu_capacity must be an int or float, got True",
            ),
        ],
        ids=["infinite-demand", "bool-demand", "bool-capacity"],
    )
    def test_a_value_host_load_cannot_read_is_rejected_at_construction(self, build, message):
        # Each used to build, and a run then died in HostLoad on Fraction('inf') or Fraction('True').
        with pytest.raises(InvariantViolation) as info:
            build()
        assert str(info.value) == message

    def test_an_infinite_capacity_is_rejected_at_construction(self):
        # A capacity is finite, like every capacity a document can hold, so HostLoad
        # keeps each one as an exact int count.
        with pytest.raises(InvariantViolation) as info:
            HostNode("h1", "z", math.inf, DriverKind.MACVLAN)
        assert str(info.value) == "'h1': cpu_capacity must be finite and >= 0, got inf"

    @pytest.mark.parametrize(
        "build",
        [
            lambda long_id: HostNode(long_id, "z", -1, DriverKind.MACVLAN),
            lambda long_id: NfInstance(long_id, NfKind.UPF, "h1", cpu_demand=-1),
        ],
        ids=["host", "function"],
    )
    def test_a_1000_character_id_gives_a_short_bound_error(self, build):
        # The id was once echoed whole: a 1,035-character message for a host.
        with pytest.raises(InvariantViolation) as info:
            build("h" * 1000)
        message = str(info.value)
        assert len(message) < 200
        assert "(1000 characters)" in message

    def test_nan_intra_host_latency_rejected(self):
        with pytest.raises(InvariantViolation) as info:
            two_host_topology(
                DriverKind.MACVLAN, DriverKind.MACVLAN, intra_host_latency_us=float("nan")
            )
        assert str(info.value) == "topology: intra_host_latency_us must be >= 0, got nan"

    def test_nan_link_bandwidth_rejected(self):
        with pytest.raises(
            InvariantViolation, match=r"link \('h1', 'h2'\): bandwidth_bps must be positive, got nan"
        ):
            Link("h1", "h2", float("nan"))

    def test_nan_link_extra_latency_rejected(self):
        with pytest.raises(
            InvariantViolation, match=r"link \('h1', 'h2'\): extra_latency_us must be >= 0, got nan"
        ):
            Link("h1", "h2", 10**8, float("nan"))

    def test_infinite_latency_rejected_where_it_is_validated(self):
        # Either once validated, and the first channel over it raised.
        with pytest.raises(InvariantViolation) as info:
            Link("h1", "h2", 10**8, float("inf"))
        message = "link ('h1', 'h2'): extra_latency_us must be an integer, got inf"
        assert str(info.value) == message
        with pytest.raises(InvariantViolation) as info:
            two_host_topology(
                DriverKind.MACVLAN, DriverKind.MACVLAN, intra_host_latency_us=float("inf")
            )
        message = "topology: intra_host_latency_us must be <= 1000000000000, got inf"
        assert str(info.value) == message

    def test_latency_over_the_cap_rejected(self):
        assert Link("h1", "h2", 10**8, MAX_LATENCY_US).extra_latency_us == MAX_LATENCY_US
        with pytest.raises(
            InvariantViolation,
            match=rf"link \('h1', 'h2'\): extra_latency_us must be <= {MAX_LATENCY_US}, "
            rf"got {MAX_LATENCY_US + 1}$",
        ):
            Link("h1", "h2", 10**8, MAX_LATENCY_US + 1)
        NetworkDriverProfile(DriverKind.HOST, MAX_LATENCY_US, True, IsolationLevel.NONE)
        with pytest.raises(
            InvariantViolation,
            match=f"driver 'host': rtt_inter_host_us must be <= {MAX_LATENCY_US}, got an "
            "integer of 301 digits$",
        ):
            NetworkDriverProfile(DriverKind.HOST, 10**300, True, IsolationLevel.NONE)

    def test_a_route_of_links_at_the_cap_has_a_finite_latency(self):
        # Without the cap, two links of 1e308 each would sum past the largest float.
        hosts = [HostNode(f"h{i}", "zone", 4, DriverKind.HOST) for i in range(10)]
        links = [Link(f"h{i}", f"h{i + 1}", 10**8, MAX_LATENCY_US) for i in range(9)]
        slow = NetworkDriverProfile(DriverKind.HOST, MAX_LATENCY_US, True, IsolationLevel.NONE)
        topology = validate_topology(hosts, links, [], drivers={DriverKind.HOST: slow})
        assert topology.one_way_latency_us("h0", "h9") == MAX_LATENCY_US / 2 + 9 * MAX_LATENCY_US
        assert topology.channel("h9", "h0").latency_us == topology.one_way_latency_us("h0", "h9")

    def test_nan_driver_rtt_rejected(self):
        with pytest.raises(
            InvariantViolation, match="driver 'host': rtt_inter_host_us must be positive, got nan"
        ):
            NetworkDriverProfile(DriverKind.HOST, float("nan"), True, IsolationLevel.NONE)
