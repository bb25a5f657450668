"""Domain model: edge hosts, links, container network drivers, 5G core functions.

The six driver profiles reproduce round-trip times measured between
containers on two different hosts, together with each driver's ability to
carry raw Ethernet frames (L2) and its network isolation level.  Ipvlan and
overlay attachments cannot exchange L2 frames, which matters for Ethernet
PDU sessions; the overlay driver is the only one with high isolation.

Latency between two containers is driven by the endpoints' drivers: the
more restrictive (higher-RTT) driver bounds the pair, and any per-link
extra latency on the route is added on top.  Co-located containers talk
through shared memory and use a configurable intra-host latency instead.
"""

from __future__ import annotations

import math
from collections import deque
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

from .errors import (
    DanglingReferenceError,
    DuplicateIdError,
    InvariantViolation,
    NoPathError,
    check_bound,
    checked,
    shown,
)
from .memory import MemoryImage

DEFAULT_INTRA_HOST_LATENCY_US = 25
#: The most latency, in µs, one link, driver or intra-host hop may add (about
#: 11.6 days).  Link and driver latencies are integers, so twice an inter-host
#: latency is an exact integer while it stays below 2^53 (over 4,500 links).
MAX_LATENCY_US = 10**12


class DriverKind(str, Enum):
    HOST = "host"
    BRIDGE = "bridge"
    MACVLAN = "macvlan"
    IPVLAN_L2 = "ipvlan-l2"
    IPVLAN_L3 = "ipvlan-l3"
    OVERLAY = "overlay"


class IsolationLevel(str, Enum):
    NONE = "none"
    MEDIUM = "medium"
    HIGH = "high"


@checked
class NetworkDriverProfile(NamedTuple):
    kind: DriverKind
    rtt_inter_host_us: int
    carries_l2: bool
    isolation: IsolationLevel

    def _check(self):
        entity, rtt = f"driver '{self.kind.value}'", self.rtt_inter_host_us
        check_bound(
            "rtt_inter_host_us", rtt, high=MAX_LATENCY_US, above=0, integer=True, entity=entity
        )


#: Measured container-to-container RTTs across two hosts, per driver.
BUILTIN_DRIVER_PROFILES: Mapping[DriverKind, NetworkDriverProfile] = {
    DriverKind.HOST: NetworkDriverProfile(DriverKind.HOST, 522, True, IsolationLevel.NONE),
    DriverKind.BRIDGE: NetworkDriverProfile(DriverKind.BRIDGE, 600, True, IsolationLevel.MEDIUM),
    DriverKind.MACVLAN: NetworkDriverProfile(DriverKind.MACVLAN, 520, True, IsolationLevel.MEDIUM),
    DriverKind.IPVLAN_L2: NetworkDriverProfile(
        DriverKind.IPVLAN_L2, 520, False, IsolationLevel.MEDIUM
    ),
    DriverKind.IPVLAN_L3: NetworkDriverProfile(
        DriverKind.IPVLAN_L3, 539, False, IsolationLevel.MEDIUM
    ),
    DriverKind.OVERLAY: NetworkDriverProfile(
        DriverKind.OVERLAY, 656, False, IsolationLevel.HIGH
    ),
}


class NfKind(str, Enum):
    UPF = "upf"
    SMF = "smf"
    AMF = "amf"
    AUSF = "ausf"
    UDM = "udm"
    UDR = "udr"
    NRF = "nrf"


class SessionType(str, Enum):
    IP = "ip"
    ETHERNET = "ethernet"


#: The statefulness each kind may have, its default first.  The UPF holds
#: no session state worth migrating; the UDM may delegate its state to the
#: UDR (the default here) or keep it locally.
STATEFUL_VARIANTS: Mapping[NfKind, tuple[bool, ...]] = {
    NfKind.UPF: (False,),
    NfKind.SMF: (True,),
    NfKind.AMF: (True,),
    NfKind.AUSF: (True,),
    NfKind.UDM: (False, True),
    NfKind.UDR: (True,),
    NfKind.NRF: (True,),
}


@checked
class HostNode(NamedTuple):
    id: str
    hall: str
    cpu_capacity: float
    attached_driver: DriverKind

    def _check(self):
        capacity = self.cpu_capacity
        check_bound("cpu_capacity", capacity, 0, math.inf, number=True, entity=shown(self.id))


@checked
class Link(NamedTuple):
    """A link between two hosts: ``int`` bytes per second (``bandwidth_bps``, despite its
    name) and ``int`` µs of extra latency, as a document holds them, so route sums are exact."""

    a: str
    b: str
    bandwidth_bps: int
    extra_latency_us: int = 0

    def _check(self):
        entity = self.label
        check_bound("bandwidth_bps", self.bandwidth_bps, above=0, integer=True, entity=entity)
        latency = self.extra_latency_us
        check_bound("extra_latency_us", latency, 0, MAX_LATENCY_US, integer=True, entity=entity)

    @property
    def label(self) -> str:  # how messages name the link
        return f"link ({shown(self.a)}, {shown(self.b)})"


class PduSession(NamedTuple):
    id: str
    session_type: SessionType
    ue_id: str
    anchor_upf: str


@checked
class NfInstance(NamedTuple):
    """A running network function.

    An instance is stateful exactly when it carries a memory image.  The
    image's page state mutates during migrations; the instance's fields
    never change after construction.
    """

    id: str
    kind: NfKind
    host: str
    memory: MemoryImage | None = None
    cpu_demand: float = 1.0

    def _check(self):
        demand = self.cpu_demand
        check_bound("cpu_demand", demand, 0, math.inf, number=True, entity=shown(self.id))

    @property
    def stateful(self) -> bool:
        return self.memory is not None


@checked
class Channel(NamedTuple):
    """A transfer conduit between two placements.

    ``bandwidth_bps`` is a positive ``int`` of bytes per second, despite its
    name; ``None`` means co-located endpoints: no serialization delay,
    intra-host latency only.
    """

    bandwidth_bps: int | None
    latency_us: float = 0.0

    def _check(self):
        if self.bandwidth_bps is not None:
            check_bound("bandwidth_bps", self.bandwidth_bps, above=0, integer=True)
        check_bound("latency_us", self.latency_us, 0, math.inf)


class ValidatedTopology:
    """Hosts, links and function instances that passed all invariant checks.

    Construct via :func:`validate_topology`.  Identity data is immutable
    afterwards and safe to share; only memory-image page state mutates.
    """

    def __init__(
        self,
        hosts: dict[str, HostNode],
        links: Sequence[Link],
        nfs: dict[str, NfInstance],
        sessions: tuple[PduSession, ...],
        drivers: dict[DriverKind, NetworkDriverProfile],
        intra_host_latency_us: float,
    ):
        self.hosts = hosts
        self.nfs = nfs
        self.sessions = sessions
        self.drivers = drivers
        self.intra_host_latency_us = intra_host_latency_us
        adjacency: dict[str, dict[str, Link]] = {h: {} for h in hosts}
        for link in links:
            adjacency[link.a][link.b] = link
            adjacency[link.b][link.a] = link
        # Neighbours in id order, sorted once: the BFS tie-break.
        self._neighbors = {h: sorted(adj.items()) for h, adj in adjacency.items()}
        self._routes: dict[str, dict[str, tuple[int, int | None]]] = {}
        self._channels: dict[tuple[str, str], Channel] = {}
        by_hall: dict[str, list[HostNode]] = {}
        for host in sorted(hosts.values(), key=lambda h: h.id):
            by_hall.setdefault(host.hall, []).append(host)
        self._hosts_by_hall = {hall: tuple(members) for hall, members in by_hall.items()}

    def host(self, host_id: str) -> HostNode:
        try:
            return self.hosts[host_id]
        except KeyError:
            raise DanglingReferenceError(f"unknown host '{host_id}'") from None

    def hosts_in_hall(self, hall: str) -> tuple[HostNode, ...]:
        """The hall's hosts in id order; empty for a hall with no host."""
        return self._hosts_by_hall.get(hall, ())

    def routes_from(self, source: str) -> Mapping[str, tuple[int, int | None]]:
        """Each host reachable from ``source`` -> (extra latency, bottleneck bandwidth).

        BFS scans neighbours in id order and fills a host's entry, from its
        parent's entry and the link between them, when it first reaches it:
        the fewest-hop route with an id-ordered tie-break; the extra latency
        is an exact ``int`` sum.  ``source`` maps to ``(0, None)``.  Built once per source.
        """
        table = self._routes.get(source)
        if table is None:
            self.host(source)
            table = self._routes[source] = {source: (0, None)}
            frontier = deque([source])
            while frontier:
                node = frontier.popleft()
                extra, bandwidth = table[node]
                for neighbor, link in self._neighbors[node]:
                    if neighbor not in table:
                        link_bps = link.bandwidth_bps
                        table[neighbor] = (
                            extra + link.extra_latency_us,
                            link_bps if bandwidth is None else min(bandwidth, link_bps),
                        )
                        frontier.append(neighbor)
        return table

    def one_way_latency_us(self, a: str, b: str) -> float:
        """One-way latency between containers on hosts ``a`` and ``b``, read from their ``Channel``.

        Same host: the configured intra-host latency.  Across hosts: half
        the RTT of the more restrictive endpoint driver plus the route's
        extra latency.  The route is read from the lower id's table, so the
        result does not depend on argument order; doubling it reproduces the
        measured RTT exactly when both hosts share a driver and no link on
        the route adds latency.
        """
        return self.channel(a, b).latency_us

    def channel(self, a: str, b: str) -> Channel:
        """Transfer channel between two hosts (bottleneck bandwidth, one-way latency).

        The one place a host pair becomes a latency and a bandwidth.  The
        route is read from the lower id's table, so each unordered pair has
        one shared ``Channel``, built and checked on the first call that
        finds it; a failed lookup caches nothing.
        """
        low, high = key = (a, b) if a < b else (b, a)
        channel = self._channels.get(key)
        if channel is None:
            if a == b:
                self.host(a)
                channel = Channel(None, float(self.intra_host_latency_us))
            else:
                route = self.routes_from(low).get(high)
                if route is None:
                    self.host(high)
                    raise NoPathError(f"hosts '{a}' and '{b}' are not connected")
                extra, bandwidth = route  # both hosts exist once a route is found
                rtt = max(
                    self.drivers[self.hosts[a].attached_driver].rtt_inter_host_us,
                    self.drivers[self.hosts[b].attached_driver].rtt_inter_host_us,
                )
                channel = Channel(bandwidth, rtt / 2 + extra)
            self._channels[key] = channel
        return channel


def _check_nf_invariants(nf: NfInstance) -> None:
    variants = STATEFUL_VARIANTS[nf.kind]
    if nf.stateful not in variants:
        state = "stateful" if variants[0] else "stateless"
        raise InvariantViolation(shown(nf.id), f"{nf.kind.value.upper()} instances are {state}")


def validate_topology(
    hosts: Sequence[HostNode],
    links: Sequence[Link],
    nfs: Sequence[NfInstance],
    sessions: Sequence[PduSession] = (),
    drivers: Mapping[DriverKind, NetworkDriverProfile] | None = None,
    intra_host_latency_us: float = DEFAULT_INTRA_HOST_LATENCY_US,
) -> ValidatedTopology:
    """Check referential integrity and every domain invariant.

    Raises :class:`DuplicateIdError`, :class:`DanglingReferenceError` or
    :class:`InvariantViolation`; the message always names the offending
    entity.  Hosts that run function instances must be mutually reachable
    over the link graph.  ``drivers`` replaces built-in profiles by kind,
    merged over ``BUILTIN_DRIVER_PROFILES`` here: an override is the only
    way to change a driver's L2 capability, e.g. the L2-capable overlay
    attachments some orchestrators offer.
    """
    check_bound(
        "intra_host_latency_us", intra_host_latency_us, 0, MAX_LATENCY_US, entity="topology"
    )
    host_map: dict[str, HostNode] = {}
    for host in hosts:
        if host.id in host_map:
            raise DuplicateIdError(f"host id {shown(host.id)} appears more than once")
        host_map[host.id] = host

    seen_pairs: set[frozenset[str]] = set()
    for link in links:
        for endpoint, other in ((link.a, link.b), (link.b, link.a)):
            if endpoint not in host_map:
                raise DanglingReferenceError(
                    f"link from {shown(other)} to unknown host {shown(endpoint)}"
                )
        if link.a == link.b:
            raise InvariantViolation(link.label, "endpoints must be distinct")
        pair = frozenset((link.a, link.b))
        if pair in seen_pairs:
            raise InvariantViolation(link.label, "duplicate link between the same host pair")
        seen_pairs.add(pair)

    nf_map: dict[str, NfInstance] = {}
    for nf in nfs:
        if nf.id in nf_map:
            raise DuplicateIdError(f"function id {shown(nf.id)} appears more than once")
        if nf.host not in host_map:
            raise DanglingReferenceError(
                f"function {shown(nf.id)} placed on unknown host {shown(nf.host)}"
            )
        _check_nf_invariants(nf)
        nf_map[nf.id] = nf

    session_ids: set[str] = set()
    for session in sessions:
        if session.id in session_ids:
            raise DuplicateIdError(f"session id {shown(session.id)} appears more than once")
        session_ids.add(session.id)
        anchor = nf_map.get(session.anchor_upf)
        if anchor is None:
            raise DanglingReferenceError(
                f"session {shown(session.id)} anchors to unknown function "
                f"{shown(session.anchor_upf)}"
            )
        if anchor.kind is not NfKind.UPF:
            raise InvariantViolation(
                shown(session.id),
                f"anchor {shown(anchor.id)} is a {anchor.kind.value.upper()}, not a UPF",
            )

    topology = ValidatedTopology(
        host_map,
        links,
        nf_map,
        tuple(sessions),
        {**BUILTIN_DRIVER_PROFILES, **(drivers or {})},
        intra_host_latency_us,
    )

    occupied = sorted({nf.host for nf in nf_map.values()})
    if occupied:
        reachable = topology.routes_from(occupied[0])
        for other in occupied[1:]:
            if other not in reachable:
                raise InvariantViolation(
                    "topology",
                    f"hosts {shown(occupied[0])} and {shown(other)} run functions"
                    " but are not connected",
                )
    return topology
