"""Per-function strategy selection and placement feasibility.

``POLICY_TABLE`` holds one row per function variant, (kind, stateful): its
rationale tag and its preference order under each objective.  The UPF, and
a UDM that delegates its state to the UDR, keep no migratable state and are
redeployed cold; session- and mobility-management functions prefer a
synchronized replica when downtime matters and iterative pre-copy when
transfer volume matters; the authentication server and the data-store
functions take the single bulk copy, which minimizes migration time and
sends each byte exactly once; the repository function switches between bulk
copy and the iterative/replica approaches depending on the objective.  Each
decision is built once, at import; :func:`select_strategy` looks it up.
:class:`~nfmigsim.scenario.Objective` is defined with the scenario records,
since a scenario document names it, and imported here.

Placement feasibility is data, not an error: a check returns the list of
violated constraints (Ethernet PDU sessions need an L2-capable attachment,
the authentication server needs high isolation, hosts have finite compute).
:class:`HostLoad` keeps each host's load as an exact ``int`` count of one
unit, so ``fractions`` and ``decimal`` load only to report a capacity
violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .errors import InvalidCombinationError, shown
from .migration import Strategy
from .model import (
    HostNode,
    IsolationLevel,
    NfInstance,
    NfKind,
    PduSession,
    STATEFUL_VARIANTS,
    SessionType,
    ValidatedTopology,
)
from .scenario import Objective


@dataclass(frozen=True)
class StrategyDecision:
    candidates: tuple[Strategy, ...]  # preference order, never empty
    rationale: str

    @property
    def chosen(self) -> Strategy:
        return self.candidates[0]


# Preference orders: one strategy, or a first choice and its fallback.
_REDEPLOY = (Strategy.NO_MIGRATION_REDEPLOY,)
_BULK = (Strategy.INTER_COPY,)
_PARALLEL = (Strategy.PARALLEL, Strategy.PRE_COPY)
_PRECOPY = (Strategy.PRE_COPY, Strategy.PARALLEL)


class _Inferred(tuple):
    """A preference order inferred from the cost model rather than stated: tagged ``+inferred``."""


#: (kind, stateful) -> (rationale tag, preference order under each objective in
#: ``Objective`` order: downtime, migration time, bytes).
POLICY_TABLE: Mapping[tuple[NfKind, bool], tuple[str, tuple[tuple[Strategy, ...], ...]]] = {
    (NfKind.UPF, False): ("stateless-user-plane", (_REDEPLOY, _REDEPLOY, _REDEPLOY)),
    (NfKind.SMF, True): ("stateful-session-management", (_PARALLEL, _PRECOPY, _PRECOPY)),
    # Continuous replica sync duplicates every input, so it maximizes bytes;
    # iterative copy is the fallback when volume matters.
    (NfKind.AMF, True): (
        "signaling-availability-critical",
        (_PARALLEL, _PARALLEL, _Inferred(_PRECOPY)),
    ),
    (NfKind.AUSF, True): ("security-isolation", (_BULK, _BULK, _BULK)),
    (NfKind.UDM, True): ("subscriber-data", (_BULK, _BULK, _BULK)),
    (NfKind.UDM, False): ("delegates-state-to-udr", (_REDEPLOY, _REDEPLOY, _REDEPLOY)),
    (NfKind.UDR, True): ("central-data-store", (_BULK, _BULK, _BULK)),
    (NfKind.NRF, True): ("registry-size-dependent", (_PARALLEL, _BULK, _PRECOPY)),
}


def _build_decisions() -> dict[tuple[NfKind, bool, Objective], StrategyDecision]:
    """Every cell's decision, stateful variants first; a variant with no row raises KeyError."""
    decisions = {}
    for kind, variants in STATEFUL_VARIANTS.items():
        for stateful in sorted(variants, reverse=True):
            rationale, orders = POLICY_TABLE[kind, stateful]
            for objective, order in zip(Objective, orders, strict=True):
                tag = rationale + "+inferred" if isinstance(order, _Inferred) else rationale
                decisions[kind, stateful, objective] = StrategyDecision(tuple(order), tag)
    return decisions


_DECISIONS = _build_decisions()


def select_strategy(kind: NfKind, stateful: bool, objective: Objective) -> StrategyDecision:
    """The migration strategy for a function kind under the given objective.

    ``objective`` may be an :class:`Objective` or its string value.  Raises
    ``ValueError`` for any other objective, and :class:`InvalidCombinationError`
    for (kind, stateful) pairs that cannot occur, e.g. a stateful UPF.
    """
    try:
        return _DECISIONS[kind, stateful, objective]
    except KeyError:
        if objective not in tuple(Objective):  # a str equal to a value is in it
            valid = ", ".join(o.value for o in Objective)
            raise ValueError(f"objective must be one of: {valid} (got {objective!r})") from None
        raise InvalidCombinationError(
            f"{kind.value.upper()} cannot be {'stateful' if stateful else 'stateless'}"
        ) from None


def required_isolation(kind: NfKind) -> IsolationLevel | None:
    """Minimum driver isolation for a kind, or None when unconstrained."""
    if kind is NfKind.AUSF:
        return IsolationLevel.HIGH
    return None


class ViolationKind(str, Enum):
    ETHERNET_PDU_REQUIRES_L2 = "ethernet-pdu-requires-l2"
    ISOLATION_TOO_LOW = "isolation-too-low"
    CAPACITY_EXCEEDED = "capacity-exceeded"


@dataclass(frozen=True)
class PlacementViolation:
    kind: ViolationKind
    detail: str


def _exact(x: float) -> tuple[int, int]:
    """An exact ``(numerator, denominator)`` pair: ``(x, 1)`` for an ``int``, and for a ``float``
    the decimal it prints as, read from ``repr(x)`` in integer arithmetic (``0.1`` is ``1/10``).

    An ``int`` never goes through a string, so one past 4,300 digits, which
    only a host or function made in code can have, is read too.
    """
    if isinstance(x, int):
        return x, 1
    digits, _, exponent = repr(x).partition("e")
    whole, _, decimals = digits.partition(".")
    power = int(exponent or 0) - len(decimals)
    numerator = int(whole + decimals)
    return (numerator * 10**power, 1) if power >= 0 else (numerator, 10**-power)


class HostLoad:
    """The host each function is assigned to, and so the compute in use per host.

    Each demand and capacity is finite, read exactly (:func:`_exact`) and
    kept as an ``int`` count of one unit, the least common multiple of their
    denominators.  So loads are exact, and no order of the functions changes
    them.
    """

    def __init__(self, topology: ValidatedTopology):
        demand = {nf.id: _exact(nf.cpu_demand) for nf in topology.nfs.values()}
        capacity = {h.id: _exact(h.cpu_capacity) for h in topology.hosts.values()}
        unit = self._unit = math.lcm(*(den for _, den in (*demand.values(), *capacity.values())))
        self._demand = {nf_id: num * (unit // den) for nf_id, (num, den) in demand.items()}
        self._capacity = {host_id: num * (unit // den) for host_id, (num, den) in capacity.items()}
        self._host = {nf.id: nf.host for nf in topology.nfs.values()}
        self._used = dict.fromkeys(topology.hosts, 0)
        for nf_id, host_id in self._host.items():
            self._used[host_id] += self._demand[nf_id]

    def used_by_others(self, host_id: str, nf_id: str) -> Fraction:
        """Exact compute in use on ``host_id`` by the functions there other than ``nf_id``."""
        from fractions import Fraction  # loaded on first use, not with the module

        used = self._used[host_id]
        if self._host.get(nf_id) == host_id:
            used -= self._demand[nf_id]
        return Fraction(used, self._unit)

    def fits(self, nf: NfInstance, host_id: str) -> bool:
        """The one capacity rule: ``host_id``'s load with ``nf`` on it is within its capacity."""
        nf_id = nf.id
        used, capacity = self._used[host_id], self._capacity[host_id]
        if self._host.get(nf_id) == host_id:
            return used <= capacity
        demand = self._demand.get(nf_id)
        if demand is None:  # a function outside the topology
            num, den = _exact(nf.cpu_demand)
            return used * den + num * self._unit <= capacity * den
        return used + demand <= capacity

    def host(self, nf_id: str) -> str:
        """The host ``nf_id`` is assigned to."""
        return self._host[nf_id]

    def move(self, nf_id: str, host_id: str) -> None:
        """Assign ``nf_id`` to ``host_id``."""
        demand = self._demand[nf_id]
        self._used[self._host[nf_id]] -= demand
        self._used[host_id] += demand
        self._host[nf_id] = host_id


def static_key(
    nf: NfInstance, sessions: Sequence[PduSession]
) -> tuple[tuple[str, ...], IsolationLevel | None]:
    """What :func:`static_violations` asks of a host on behalf of ``nf``.

    The pair is (the ids of the Ethernet sessions ``nf`` anchors, empty
    unless it is a UPF, the isolation its kind needs).  It is the only
    reading of ``sessions`` for the static rules, so functions with equal
    keys pass them on exactly the same hosts.
    """
    ethernet = ()
    if nf.kind is NfKind.UPF:
        ethernet = tuple(
            s.id
            for s in sessions
            if s.anchor_upf == nf.id and s.session_type is SessionType.ETHERNET
        )
    return ethernet, required_isolation(nf.kind)


def static_violations(
    nf: NfInstance,
    host: HostNode,
    sessions: Sequence[PduSession],
    topology: ValidatedTopology,
) -> list[PlacementViolation]:
    """The rules ``host``'s driver alone decides, read from :func:`static_key`: L2, isolation."""
    ethernet, needed = static_key(nf, sessions)
    profile = topology.drivers[host.attached_driver]
    violations: list[PlacementViolation] = []
    if ethernet and not profile.carries_l2:
        violations.append(
            PlacementViolation(
                ViolationKind.ETHERNET_PDU_REQUIRES_L2,
                f"{shown(nf.id)} anchors Ethernet session(s) {list(ethernet)} but driver "
                f"'{host.attached_driver.value}' on {shown(host.id)} cannot carry L2",
            )
        )
    if needed is not None and profile.isolation is not needed:
        violations.append(
            PlacementViolation(
                ViolationKind.ISOLATION_TOO_LOW,
                f"{shown(nf.id)} requires {needed.name} isolation; driver "
                f"'{host.attached_driver.value}' on {shown(host.id)} provides "
                f"{profile.isolation.name}",
            )
        )
    return violations


def check_placement(
    nf: NfInstance,
    host: HostNode,
    sessions: Sequence[PduSession],
    topology: ValidatedTopology,
    load: HostLoad | None = None,
) -> list[PlacementViolation]:
    """Constraints violated by putting ``nf`` on ``host``; empty means feasible.

    The static violations come first, then capacity (:meth:`HostLoad.fits`).
    ``load`` holds where every function is assigned now (default: as
    deployed); capacity accounting excludes ``nf`` itself.
    """
    violations = static_violations(nf, host, sessions, topology)
    if load is None:
        load = HostLoad(topology)
    if not load.fits(nf, host.id):
        from decimal import Decimal

        used = load.used_by_others(host.id, nf.id)  # printed as 0.6, not 0.6000000000000001
        violations.append(
            PlacementViolation(
                ViolationKind.CAPACITY_EXCEEDED,
                f"{shown(host.id)} has {shown(host.cpu_capacity)} units,"
                f" {Decimal(used.numerator) / used.denominator} in use; "
                f"{shown(nf.id)} needs {shown(nf.cpu_demand)}",
            )
        )
    return violations


def policy_grid() -> list[tuple[NfKind, bool, Objective, StrategyDecision]]:
    """Every (kind, statefulness, objective) cell of the decision table, stateful first."""
    return [(*cell, decision) for cell, decision in _DECISIONS.items()]


def policy_table_text() -> str:
    """The decision grid rendered as a fixed-width text table."""
    header = (
        f"{'kind':<6}{'stateful':<10}{'objective':<16}{'strategy':<12}"
        f"{'candidates':<22}rationale"
    )
    lines = [header, "-" * len(header)]
    for kind, stateful, objective, decision in policy_grid():
        candidates = ",".join(s.value for s in decision.candidates)
        lines.append(
            f"{kind.value:<6}{('yes' if stateful else 'no'):<10}"
            f"{objective.value:<16}{decision.chosen.value:<12}"
            f"{candidates:<22}{decision.rationale}"
        )
    return "\n".join(lines) + "\n"
