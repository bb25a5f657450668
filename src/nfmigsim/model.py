"""Domain model: edge hosts, links, container network drivers, 5G core functions.

The six driver profiles reproduce round-trip times measured between
containers on two different hosts, together with each driver's ability to
carry raw Ethernet frames (L2) and its network isolation level.  Ipvlan and
overlay attachments cannot exchange L2 frames, which matters for Ethernet
PDU sessions; the overlay driver is the only one with high isolation.

Latency between two containers is driven by the endpoints' drivers: the
more restrictive (higher-RTT) driver bounds the pair, and any per-link
extra latency on the path is added on top.  Co-located containers talk
through shared memory and use a configurable intra-host latency instead.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .errors import (
    DanglingReferenceError,
    DuplicateIdError,
    InvariantViolation,
    NoPathError,
)
from .memory import MemoryImage

DEFAULT_INTRA_HOST_LATENCY_US = 25


class DriverKind(str, Enum):
    HOST = "host"
    BRIDGE = "bridge"
    MACVLAN = "macvlan"
    IPVLAN_L2 = "ipvlan-l2"
    IPVLAN_L3 = "ipvlan-l3"
    OVERLAY = "overlay"


class IsolationLevel(int, Enum):
    NONE = 0
    MEDIUM = 1
    HIGH = 2


@dataclass(frozen=True)
class NetworkDriverProfile:
    kind: DriverKind
    rtt_inter_host_us: int
    carries_l2: bool
    isolation: IsolationLevel

    def __post_init__(self):
        if self.rtt_inter_host_us <= 0:
            raise InvariantViolation(
                f"driver '{self.kind.value}'",
                f"rtt_inter_host_us must be positive, got {self.rtt_inter_host_us}",
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


def driver_table(
    overrides: Mapping[DriverKind, NetworkDriverProfile] | None = None,
    l2_overlay_enabled: bool = False,
) -> dict[DriverKind, NetworkDriverProfile]:
    """The driver profile table, optionally with per-kind overrides.

    ``l2_overlay_enabled`` opts in to L2-capable overlay attachments (a
    special case of some orchestrators); by default overlays cannot carry
    Ethernet frames.
    """
    table = dict(BUILTIN_DRIVER_PROFILES)
    if l2_overlay_enabled:
        base = table[DriverKind.OVERLAY]
        table[DriverKind.OVERLAY] = NetworkDriverProfile(
            base.kind, base.rtt_inter_host_us, True, base.isolation
        )
    if overrides:
        table.update(overrides)
    return table


class NfKind(str, Enum):
    UPF = "upf"
    SMF = "smf"
    AMF = "amf"
    AUSF = "ausf"
    UDM = "udm"
    UDR = "udr"
    NRF = "nrf"


class Plane(str, Enum):
    USER = "user"
    CONTROL = "control"


class SessionType(str, Enum):
    IP = "ip"
    ETHERNET = "ethernet"


def plane_for(kind: NfKind) -> Plane:
    """Only the UPF forwards user traffic; everything else is control plane."""
    return Plane.USER if kind is NfKind.UPF else Plane.CONTROL


# The UPF holds no session state worth migrating; the UDM may delegate its
# state to the UDR (the default here) or keep it locally.
_STATEFUL_BY_KIND = {
    NfKind.UPF: False,
    NfKind.SMF: True,
    NfKind.AMF: True,
    NfKind.AUSF: True,
    NfKind.UDM: False,
    NfKind.UDR: True,
    NfKind.NRF: True,
}

#: Kinds whose statefulness is fixed; only the UDM may go either way.
_STATEFUL_CONFIGURABLE = frozenset({NfKind.UDM})


def default_stateful(kind: NfKind) -> bool:
    return _STATEFUL_BY_KIND[kind]


def stateful_allowed(kind: NfKind, stateful: bool) -> bool:
    if kind in _STATEFUL_CONFIGURABLE:
        return True
    return stateful == _STATEFUL_BY_KIND[kind]


@dataclass(frozen=True)
class HostNode:
    id: str
    hall: str
    cpu_capacity: float
    attached_driver: DriverKind

    def __post_init__(self):
        if self.cpu_capacity < 0:
            raise InvariantViolation(
                self.id, f"cpu_capacity must be >= 0, got {self.cpu_capacity}"
            )


@dataclass(frozen=True)
class Link:
    a: str
    b: str
    bandwidth_bps: int
    extra_latency_us: int = 0

    def __post_init__(self):
        entity = f"link ({self.a}, {self.b})"
        if self.bandwidth_bps <= 0:
            raise InvariantViolation(
                entity, f"bandwidth_bps must be positive, got {self.bandwidth_bps}"
            )
        if self.extra_latency_us < 0:
            raise InvariantViolation(
                entity, f"extra_latency_us must be >= 0, got {self.extra_latency_us}"
            )


@dataclass(frozen=True)
class PduSession:
    id: str
    session_type: SessionType
    ue_id: str
    anchor_upf: str


@dataclass
class NfInstance:
    """A running network function.

    ``stateful`` and ``plane`` default from the kind when omitted.  The
    memory image is present exactly for stateful instances; its page state
    mutates during migrations while the identity fields stay fixed.
    """

    id: str
    kind: NfKind
    host: str
    stateful: bool | None = None
    plane: Plane | None = None
    memory: MemoryImage | None = None
    cpu_demand: float = 1.0

    def __post_init__(self):
        if self.stateful is None:
            self.stateful = default_stateful(self.kind)
        if self.plane is None:
            self.plane = plane_for(self.kind)


@dataclass(frozen=True)
class PathInfo:
    """Effective properties of the (possibly multi-hop) route between two hosts."""

    hops: tuple[str, ...]
    extra_latency_us: int
    bandwidth_bps: int


@dataclass(frozen=True)
class Channel:
    """A transfer conduit between two placements.

    ``bandwidth_bps`` of ``None`` means co-located endpoints: no
    serialization delay, intra-host latency only.
    """

    bandwidth_bps: int | None
    latency_us: float = 0.0


class ValidatedTopology:
    """Hosts, links and function instances that passed all invariant checks.

    Construct via :func:`validate_topology`.  Identity data is immutable
    afterwards and safe to share; only memory-image page state mutates.
    """

    def __init__(
        self,
        hosts: dict[str, HostNode],
        links: tuple[Link, ...],
        nfs: dict[str, NfInstance],
        sessions: tuple[PduSession, ...],
        drivers: Mapping[DriverKind, NetworkDriverProfile],
        intra_host_latency_us: float,
    ):
        self.hosts = hosts
        self.links = links
        self.nfs = nfs
        self.sessions = sessions
        self.drivers = dict(drivers)
        self.intra_host_latency_us = intra_host_latency_us
        self._adjacency: dict[str, dict[str, Link]] = {h: {} for h in hosts}
        for link in links:
            self._adjacency[link.a][link.b] = link
            self._adjacency[link.b][link.a] = link
        self._path_cache: dict[tuple[str, str], PathInfo | None] = {}
        by_hall: dict[str, list[HostNode]] = {}
        for host in sorted(hosts.values(), key=lambda h: h.id):
            by_hall.setdefault(host.hall, []).append(host)
        self._hosts_by_hall = {hall: tuple(members) for hall, members in by_hall.items()}

    def host(self, host_id: str) -> HostNode:
        try:
            return self.hosts[host_id]
        except KeyError:
            raise DanglingReferenceError(f"unknown host '{host_id}'") from None

    def profile(self, host_id: str) -> NetworkDriverProfile:
        return self.drivers[self.host(host_id).attached_driver]

    def hosts_in_hall(self, hall: str) -> tuple[HostNode, ...]:
        """The hall's hosts in id order; empty for a hall with no host."""
        return self._hosts_by_hall.get(hall, ())

    def path_between(self, a: str, b: str) -> PathInfo:
        """Fewest-hop route a->b; deterministic tie-break by host id order."""
        self.host(a)
        self.host(b)
        if a == b:
            return PathInfo((a,), 0, 0)
        key = (a, b)
        if key not in self._path_cache:
            self._path_cache[key] = self._bfs(a, b)
        info = self._path_cache[key]
        if info is None:
            raise NoPathError(f"hosts '{a}' and '{b}' are not connected")
        return info

    def _bfs(self, a: str, b: str) -> PathInfo | None:
        parent: dict[str, str] = {a: a}
        frontier = deque([a])
        while frontier:
            node = frontier.popleft()
            if node == b:
                break
            for neighbor in sorted(self._adjacency[node]):
                if neighbor not in parent:
                    parent[neighbor] = node
                    frontier.append(neighbor)
        if b not in parent:
            return None
        hops = [b]
        while hops[-1] != a:
            hops.append(parent[hops[-1]])
        hops.reverse()
        extra = 0
        bandwidth = None
        for x, y in zip(hops, hops[1:]):
            link = self._adjacency[x][y]
            extra += link.extra_latency_us
            bandwidth = link.bandwidth_bps if bandwidth is None else min(bandwidth, link.bandwidth_bps)
        return PathInfo(tuple(hops), extra, bandwidth)

    def one_way_latency_us(self, a: str, b: str) -> float:
        """One-way latency between containers on hosts ``a`` and ``b``.

        Same host: the configured intra-host latency.  Across hosts: half
        the RTT of the more restrictive endpoint driver plus the path's
        extra latency.  Symmetric by construction; doubling it reproduces
        the measured RTT exactly when both hosts share a driver.
        """
        if a == b:
            self.host(a)
            return float(self.intra_host_latency_us)
        path = self.path_between(a, b)
        rtt = max(self.profile(a).rtt_inter_host_us, self.profile(b).rtt_inter_host_us)
        return rtt / 2 + path.extra_latency_us

    def carries_l2_path(self, a: str, b: str) -> bool:
        """True iff containers on ``a`` and ``b`` can exchange Ethernet frames."""
        if a == b:
            self.host(a)
            return True
        self.path_between(a, b)
        return self.profile(a).carries_l2 and self.profile(b).carries_l2

    def channel(self, a: str, b: str) -> Channel:
        """Transfer channel between two hosts (bottleneck bandwidth, one-way latency)."""
        if a == b:
            return Channel(None, float(self.intra_host_latency_us))
        path = self.path_between(a, b)
        return Channel(path.bandwidth_bps, self.one_way_latency_us(a, b))


def _check_nf_invariants(nf: NfInstance) -> None:
    expected_plane = plane_for(nf.kind)
    if nf.plane is not expected_plane:
        raise InvariantViolation(
            nf.id, f"{nf.kind.value.upper()} runs in the {expected_plane.value} plane"
        )
    if not stateful_allowed(nf.kind, bool(nf.stateful)):
        if nf.kind is NfKind.UPF:
            raise InvariantViolation(nf.id, "UPF instances are stateless")
        raise InvariantViolation(
            nf.id, f"{nf.kind.value.upper()} instances are stateful"
        )
    if nf.stateful and nf.memory is None:
        raise InvariantViolation(nf.id, "stateful instance requires a memory image")
    if not nf.stateful and nf.memory is not None:
        raise InvariantViolation(nf.id, "stateless instance must not carry a memory image")
    if nf.cpu_demand < 0:
        raise InvariantViolation(nf.id, f"cpu_demand must be >= 0, got {nf.cpu_demand}")


def validate_topology(
    hosts: Sequence[HostNode],
    links: Sequence[Link],
    nfs: Sequence[NfInstance],
    sessions: Sequence[PduSession] = (),
    drivers: Mapping[DriverKind, NetworkDriverProfile] | None = None,
    intra_host_latency_us: float = DEFAULT_INTRA_HOST_LATENCY_US,
    l2_overlay_enabled: bool = False,
) -> ValidatedTopology:
    """Check referential integrity and every domain invariant.

    Raises :class:`DuplicateIdError`, :class:`DanglingReferenceError` or
    :class:`InvariantViolation`; the message always names the offending
    entity.  Hosts that run function instances must be mutually reachable
    over the link graph.
    """
    if intra_host_latency_us < 0:
        raise InvariantViolation(
            "topology", f"intra_host_latency_us must be >= 0, got {intra_host_latency_us}"
        )
    host_map: dict[str, HostNode] = {}
    for host in hosts:
        if host.id in host_map:
            raise DuplicateIdError(f"host id '{host.id}' appears more than once")
        host_map[host.id] = host

    seen_pairs: set[frozenset[str]] = set()
    for link in links:
        for endpoint in (link.a, link.b):
            if endpoint not in host_map:
                raise DanglingReferenceError(
                    f"link ({link.a}, {link.b}) references unknown host '{endpoint}'"
                )
        if link.a == link.b:
            raise InvariantViolation(
                f"link ({link.a}, {link.b})", "endpoints must be distinct"
            )
        pair = frozenset((link.a, link.b))
        if pair in seen_pairs:
            raise InvariantViolation(
                f"link ({link.a}, {link.b})", "duplicate link between the same host pair"
            )
        seen_pairs.add(pair)

    nf_map: dict[str, NfInstance] = {}
    for nf in nfs:
        if nf.id in nf_map:
            raise DuplicateIdError(f"function id '{nf.id}' appears more than once")
        if nf.host not in host_map:
            raise DanglingReferenceError(
                f"function '{nf.id}' placed on unknown host '{nf.host}'"
            )
        _check_nf_invariants(nf)
        nf_map[nf.id] = nf

    session_ids: set[str] = set()
    for session in sessions:
        if session.id in session_ids:
            raise DuplicateIdError(f"session id '{session.id}' appears more than once")
        session_ids.add(session.id)
        anchor = nf_map.get(session.anchor_upf)
        if anchor is None:
            raise DanglingReferenceError(
                f"session '{session.id}' anchors to unknown function '{session.anchor_upf}'"
            )
        if anchor.kind is not NfKind.UPF:
            raise InvariantViolation(
                session.id, f"anchor '{anchor.id}' is a {anchor.kind.value.upper()}, not a UPF"
            )

    topology = ValidatedTopology(
        host_map,
        tuple(links),
        nf_map,
        tuple(sessions),
        driver_table(drivers, l2_overlay_enabled),
        intra_host_latency_us,
    )

    occupied = sorted({nf.host for nf in nf_map.values()})
    for other in occupied[1:]:
        try:
            topology.path_between(occupied[0], other)
        except NoPathError:
            raise InvariantViolation(
                "topology",
                f"hosts '{occupied[0]}' and '{other}' run functions but are not connected",
            ) from None
    return topology
