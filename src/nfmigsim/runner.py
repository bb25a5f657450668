"""Scenario execution: mobility triggers -> policy -> migration machinery.

Each trigger moves the UE to a new zone and migrates the affected function
instances there, each to the host a :class:`TargetSelector` picks: the
zone's nearest host that passes ``check_placement``, found with one
``check_placement`` call per placement.  Nearness, like each sampled RTT,
is the latency of the host pair's shared ``Channel``.  A function whose chosen host is
the one it runs on stays put and leaves only a ``migration-skipped``
event.  :class:`~nfmigsim.policy.HostLoad` is the one record of where each
function is assigned: a migration moves it there when it starts, while the
sampled user-plane RTT reads the source until the migration completes.  A
trigger that finds a function migrating is queued (``migration-queued``),
and the latest queued trigger is placed when that migration completes.
Every migration is traced as ``migration-started``, its report's phases
back to back from there, and ``migration-complete`` where they end.

Everything is a pure function of (scenario, seed): reruns produce identical
reports, RTT series and event traces, byte for byte.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import attrgetter, countOf
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .engine import Event, Simulator, rng_stream
from .errors import check_bound, shown
from .memory import DirtyProcess
from .migration import (
    MigrationReport,
    Strategy,
    migrate_inter_copy,
    migrate_parallel,
    migrate_pre_copy,
    redeploy_stateless,
    start_replica_sync,
)
from .model import HostNode, NfInstance, NfKind, ValidatedTopology
from .policy import (
    HostLoad,
    check_placement,
    select_strategy,
    static_key,
    static_violations,
)
from .scenario import MAX_SEED, Scenario

MIGRATIONS_CSV_HEADER = (
    "trigger_id,nf_id,kind,strategy,downtime_us,migration_time_us,"
    "bytes,sync_bytes,stall_us,rounds,outcome"
)


def _sum_of(field: str) -> Callable[[Sequence[MigrationReport]], int]:
    value = attrgetter(field)
    return lambda reports: sum(map(value, reports))


def _failed(reports: Sequence[MigrationReport]) -> int:
    return len(reports) - countOf(map(attrgetter("failure_reason"), reports), None)


#: The summary.txt columns after ``kind``: width, and the total over a kind's reports.
SUMMARY_COLUMNS: dict[str, tuple[int, Callable[[Sequence[MigrationReport]], int]]] = {
    "migrations": (11, len),
    "failed": (8, _failed),
    "bytes": (14, _sum_of("bytes_transferred")),
    "sync_bytes": (12, _sum_of("sync_bytes")),
    "downtime_us": (13, _sum_of("downtime_us")),
    "stall_us": (10, _sum_of("stall_time_us")),
}

#: Each trace event kind: its ``data`` keys in sorted order, which is the order
#: of the event's values, with the type of each key's value.  A callback's
#: annotation is appended to the values, and an event whose values stop short
#: of its keys leaves the rest out: an ``rtt-sample`` without a UE has empty
#: ``data``.
TRACE_KINDS: dict[str, dict[str, type]] = {
    "trigger": {"index": int},
    "rtt-sample": {"rtt_us": float},
    "migration-started": {"nf": str, "rationale": str, "source": str, "strategy": str, "target": str},
    "migration-phase": {"end_us": int, "nf": str, "phase": str},
    "migration-complete": {"downtime_us": int, "nf": str, "outcome": str, "target": str},
    "migration-skipped": {"host": str, "nf": str, "reason": str},
    "migration-infeasible": {"hall": str, "nf": str},
    "migration-queued": {"hall": str, "nf": str},
}


class RecordedMigration(NamedTuple):
    """Built by ``tuple.__new__`` in the run, which skips the generated ``__new__``."""

    trigger_index: int
    nf_id: str
    kind: NfKind
    source_host: str
    target_host: str | None
    report: MigrationReport


@dataclass(frozen=True)
class MetricsBundle:
    scenario_name: str
    seed: int
    duration_us: int
    reports: tuple[RecordedMigration, ...]
    trace: tuple[Event, ...]

    @cached_property
    def rtt_series(self) -> tuple[tuple[int, float], ...]:
        """(time, RTT) of each ``rtt-sample`` event that carries a value, read once."""
        samples = (event for event in self.trace if event.kind == "rtt-sample" and event.values)
        return tuple((event.time_us, event.values[0]) for event in samples)

    def totals_by_kind(self) -> dict[str, dict[str, int]]:
        by_kind: dict[NfKind, list[MigrationReport]] = {}
        for _, _, kind, _, _, report in self.reports:
            by_kind.setdefault(kind, []).append(report)
        totals = {
            kind.value: {name: total(reports) for name, (_, total) in SUMMARY_COLUMNS.items()}
            for kind, reports in by_kind.items()
        }
        return dict(sorted(totals.items()))


def zone_representative(topology: ValidatedTopology, hall: str) -> str | None:
    """The hall's lowest-id host, which stands for the hall in latency terms."""
    hosts = topology.hosts_in_hall(hall)
    return hosts[0].id if hosts else None


class TargetSelector:
    """Where a function goes in a hall: the nearest host that passes ``check_placement``.

    The static rules read only a host's driver and two parts of ``static_key``: whether
    it names an Ethernet session, and the isolation.  On the first use of each (hall,
    those two parts) the hall's hosts where ``static_violations`` is empty are ranked
    once, by (latency to the hall's representative, id), each read from the pair's
    shared ``Channel``.  The walk then skips a host where the function does not
    ``load.fits``, and confirms the first host it does not skip with
    ``check_placement``, which asks ``fits`` the same exact question.
    """

    def __init__(self, topology: ValidatedTopology, load: HostLoad):
        self._topology = topology
        self._load = load
        self._candidates: dict[tuple, tuple[tuple[str, HostNode], ...]] = {}
        self._static_keys = {
            nf.id: static_key(nf, topology.sessions) for nf in topology.nfs.values()
        }

    def choose(self, nf: NfInstance, hall: str) -> HostNode | None:
        """The first feasible host in ``hall`` for ``nf``, or None."""
        topology, load = self._topology, self._load
        sessions = topology.sessions
        ethernet, needed = self._static_keys[nf.id]
        key = (hall, bool(ethernet), needed)
        hosts = self._candidates.get(key)
        if hosts is None:
            rep = zone_representative(topology, hall)
            feasible = [
                host
                for host in topology.hosts_in_hall(hall)
                if not static_violations(nf, host, sessions, topology)
            ]
            feasible.sort(key=lambda host: (topology.one_way_latency_us(host.id, rep), host.id))
            hosts = self._candidates[key] = tuple((host.id, host) for host in feasible)
        for host_id, host in hosts:
            if load.fits(nf, host_id) and not check_placement(nf, host, sessions, topology, load):
                return host
        return None


class _Run:
    """One run's state; its methods are the event callbacks.

    ``in_flight`` maps each migrating function to its source and to the
    latest trigger queued behind it.  No field holds the simulator or a
    bound method, so a finished run leaves no reference cycle behind
    (``tests/test_runner.py::test_a_finished_run_leaves_no_cyclic_garbage``;
    the CLI pauses the cyclic collector on it).
    """

    def __init__(self, scenario: Scenario, seed: int):
        self.scenario = scenario
        self.params = scenario.migration_params
        topology = self.topology = scenario.topology
        self.load = HostLoad(topology)
        self.targets = TargetSelector(topology, self.load)
        self.in_flight: dict[str, tuple[str, int | None]] = {}
        self.ue_zone = scenario.ue.zone if scenario.ue else None
        self.dirty_procs: dict[str, DirtyProcess] = {
            nf_id: spec.build(rng_stream(f"dirty:{nf_id}", seed))
            for nf_id, spec in scenario.dirty_specs.items()
        }
        self.reports: list[RecordedMigration] = []
        # With a UE, every session is its own; its anchor is the UPF of the lowest-id one.
        anchor = min(topology.sessions, key=lambda s: s.id, default=None) if scenario.ue else None
        self.anchor_upf = anchor.anchor_upf if anchor else None

    def sample_rtt(self, sim: Simulator, event: Event) -> tuple[float] | None:
        scenario, topology = self.scenario, self.topology
        next_at = sim.now + scenario.rtt_sample_interval_us
        if next_at <= scenario.duration_us:
            sim.schedule(next_at, "rtt-sample", self.sample_rtt)
        if self.anchor_upf is None:
            return None
        rep = zone_representative(topology, self.ue_zone)
        flight = self.in_flight.get(self.anchor_upf)
        anchor = flight[0] if flight else self.load.host(self.anchor_upf)
        rtt = 2 * topology.one_way_latency_us(rep, anchor)
        # The engine appends the measured value to the event's values.
        return (int(rtt) if rtt == int(rtt) else rtt,)

    def on_trigger(self, sim: Simulator, event: Event) -> None:
        (index,) = event.values
        trigger = self.scenario.triggers[index]
        kinds, zone = trigger.affected_kinds, trigger.new_zone
        self.ue_zone = zone  # every trigger moves the scenario's UE
        for nf_id, nf in sorted(self.topology.nfs.items()):
            if nf.kind not in kinds:
                continue
            flight = self.in_flight.get(nf_id)
            if flight is None:
                self.place(sim, nf, index)
            else:
                self.in_flight[nf_id] = (flight[0], index)
                sim.schedule(sim.now, "migration-queued", None, zone, nf_id)

    def complete(self, sim: Simulator, event: Event) -> None:
        _, nf_id, _, _ = event.values
        _, queued = self.in_flight.pop(nf_id)
        if queued is not None:
            self.place(sim, self.topology.nfs[nf_id], queued)

    def place(self, sim: Simulator, nf: NfInstance, index: int) -> None:
        """Move ``nf`` into trigger ``index``'s hall now: migrate, skip or record a failure."""
        _, _, zone, _, objective = self.scenario.triggers[index]
        nf_id, kind = nf.id, nf.kind
        source = self.load.host(nf_id)
        decision = select_strategy(kind, nf.stateful, objective or self.scenario.objective)
        target = self.targets.choose(nf, zone)
        if target is None:
            reason = f"no feasible host in hall '{zone}'"
            report = MigrationReport(decision.chosen, 0, failure_reason=reason)
            record = (index, nf_id, kind, source, None, report)
            self.reports.append(tuple.__new__(RecordedMigration, record))
            sim.schedule(sim.now, "migration-infeasible", None, zone, nf_id)
            return
        target_id = target.id
        if target_id == source:
            sim.schedule(sim.now, "migration-skipped", None, source, nf_id, "already-on-target")
            return

        # Each strategy is called as a module global, so a wrapper installed here sees every call.
        channel = self.topology.channel(source, target_id)
        if decision.chosen is Strategy.PARALLEL:
            replica = start_replica_sync(nf, channel, self.params, self.dirty_procs[nf_id])
            replica.run_until_ticks(1)  # hand over after one tick: a delta at most one interval old
            report = migrate_parallel(replica, self.params)
        elif decision.chosen is Strategy.PRE_COPY:
            report = migrate_pre_copy(nf, channel, self.params, self.dirty_procs[nf_id])
        elif decision.chosen is Strategy.INTER_COPY:
            report = migrate_inter_copy(nf, channel, self.params)
        else:
            report = redeploy_stateless(nf, self.params)
        sim.schedule(
            sim.now,
            "migration-started",
            None,
            nf_id,
            decision.rationale,
            source,
            report.strategy.value,
            target_id,
        )
        at = sim.now  # the strategies count from their own start
        for name, span_us, _ in report.phases:
            sim.schedule(at, "migration-phase", None, at + span_us, nf_id, name)
            at += span_us
        self.load.move(nf_id, target_id)
        self.in_flight[nf_id] = (source, None)
        sim.schedule(
            at,
            "migration-complete",
            self.complete,
            report.downtime_us,
            nf_id,
            report.outcome_label(),
            target_id,
        )
        record = (index, nf_id, kind, source, target_id, report)
        self.reports.append(tuple.__new__(RecordedMigration, record))


def run_scenario(scenario: Scenario, seed: int | None = None) -> MetricsBundle:
    """Execute every trigger and sample the user-plane RTT over the run."""
    if seed is None:
        seed = scenario.seed
    else:
        entity = f"scenario {shown(scenario.name)}"
        check_bound("seed", seed, -MAX_SEED, MAX_SEED, integer=True, entity=entity)
    run = _Run(scenario, seed)
    sim = Simulator()
    for index, trigger in enumerate(scenario.triggers):
        sim.schedule(trigger.time_us, "trigger", run.on_trigger, index)
    sim.schedule(0, "rtt-sample", run.sample_rtt)
    sim.run_until(scenario.duration_us)

    return MetricsBundle(
        scenario_name=scenario.name,
        seed=seed,
        duration_us=scenario.duration_us,
        reports=tuple(run.reports),
        trace=tuple(sim.trace),
    )


def _template_for(kind: str, keys: Sequence[str]) -> str:
    """The %-format of a ``kind`` line with these data keys; names need no escaping."""
    fields = ", ".join(f'"{key}": %s' for key in keys)
    return f'{{"data": {{{fields}}}, "kind": "{kind}", "seq": %s, "time_us": %s}}\n'


#: Per kind, the line template for each number of values.
_LINE_TEMPLATES = {
    kind: [_template_for(kind, list(keys)[:count]) for count in range(len(keys) + 1)]
    for kind, keys in TRACE_KINDS.items()
}


def trace_lines(events: Iterable[Event]) -> Iterator[str]:
    """Each event as one line of ``json.dumps(..., sort_keys=True)`` text.

    The text is byte for byte what ``json.dumps`` writes for ``{"time_us",
    "seq", "kind", "data"}``, where ``data`` pairs the kind's keys in
    ``TRACE_KINDS`` with the event's values, but each line fills its kind's
    template.  Values of exact type ``int``, whose ``%s`` text is their JSON,
    go in as they are; values of exact type ``str`` go in escaped; any other
    value, such as the odd fractional RTT, goes through ``json.dumps``.  The
    engine makes ``time_us`` and ``seq`` exact ``int``s.
    """
    # Trace strings repeat (ids, hosts, phases): escape each one once.
    escaped: dict[str, str] = {}
    for time_us, seq, kind, values in events:
        cells = []
        for value in values:
            if type(value) is str:
                text = escaped.get(value)
                if text is None:
                    text = escaped[value] = encode_basestring_ascii(value)
                value = text
            elif type(value) is not int:
                value = json.dumps(value, sort_keys=True)
            cells.append(value)
        yield _LINE_TEMPLATES[kind][len(values)] % (*cells, seq, time_us)


def _summary_row(label: str, cells: Mapping[str, object]) -> str:
    return f"{label:<6}" + "".join(
        f"{cells[name]:>{width}}" for name, (width, _) in SUMMARY_COLUMNS.items()
    )


def export_metrics(bundle: MetricsBundle, out_dir: str | Path) -> dict[str, Path]:
    """Write migrations.csv, rtt.csv, trace.jsonl and summary.txt.

    Output is deterministic: rerunning the same bundle reproduces every
    file byte for byte.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "migrations": out / "migrations.csv",
        "rtt": out / "rtt.csv",
        "trace": out / "trace.jsonl",
        "summary": out / "summary.txt",
    }

    with paths["migrations"].open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MIGRATIONS_CSV_HEADER.split(","))
        writer.writerows(
            (
                index,
                nf_id,
                kind.value,
                strategy.value,
                report.downtime_us,
                report.migration_time_us,
                nbytes,
                sync_bytes,
                stall_us,
                rounds,
                report.outcome_label(),
            )
            for index, nf_id, kind, _, _, report in bundle.reports
            for strategy, nbytes, sync_bytes, stall_us, rounds, _, _ in (report,)  # one unpack
        )

    with paths["rtt"].open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["time_us", "rtt_us"])
        writer.writerows(bundle.rtt_series)

    with paths["trace"].open("w", encoding="utf-8") as fh:
        fh.writelines(trace_lines(bundle.trace))

    lines = [
        f"scenario: {bundle.scenario_name}",
        f"seed: {bundle.seed}",
        f"duration_us: {bundle.duration_us}",
        f"migrations: {len(bundle.reports)}",
        "",
        _summary_row("kind", {name: name for name in SUMMARY_COLUMNS}),
    ]
    overall = dict.fromkeys(SUMMARY_COLUMNS, 0)
    for kind, agg in bundle.totals_by_kind().items():
        lines.append(_summary_row(kind, agg))
        for name in overall:
            overall[name] += agg[name]
    lines.append(_summary_row("total", overall))
    paths["summary"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return paths
