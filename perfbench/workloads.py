"""The benchmark's workloads: timed operations and the checks on their outputs.

Every operation has a ``run()`` that the worker times and a ``check()`` that
runs after the clock stops.  ``check`` returns the number of migrations the
operation simulated, the problems found (an empty list when every check
holds) and the bytes that stand for its simulated output in the digest.
Workload inputs are a pure function of the seed; the seed only changes
details whose cost is the same for every seed, so runs with different
seeds measure the same amount of work.

fleet
    A generated scenario file run through ``nfmigsim.cli.main(["simulate",
    ...])``, the path users take.  Parse and validate (``scenario``), the
    event heap (``engine``), latency lookups (``model``), placement checks
    (``policy``) and export (``runner``) do the work; ``memory`` and
    ``migration`` take a few percent.  A data-plane change should not move
    it.
bigimage
    Direct calls into the public strategy API on fresh 1e5- to 1e6-page
    images under the constant-rate dirty model, which dirties pages in
    ascending order: inter-copy, pre-copy that converges and pre-copy that
    hits the round cap, post-copy with about one touch per ten pages, and
    replica handover.  ``memory`` and ``migration`` do nearly all the work;
    ``engine``, ``policy`` and ``scenario`` do none.  Post-copy is reachable
    only here, because the policy table never selects it.
hotdirty
    The same API and layers under the Bernoulli dirty model at a high
    per-page probability: random writes over the whole image.  Pre-copy runs
    to the round cap and replica handover follows several sync ticks.  A
    page-state change that speeds one dirty model and slows the other shows
    as a split between ``bigimage`` and ``hotdirty``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
from pathlib import Path
from typing import Callable

import scenario_gen

PAGE_SIZE = 4096
BANDWIDTH_PAGES_PER_S = 25_000
BANDWIDTH_BPS = BANDWIDTH_PAGES_PER_S * PAGE_SIZE
LATENCY_US = 260.0
STOP_THRESHOLD = 8
MAX_ROUNDS = 10
SYNC_TICKS = 3
EXPORT_FILES = ("migrations.csv", "rtt.csv", "trace.jsonl", "summary.txt")
ZERO_OVERHEADS = dict(
    freeze_overhead_us=0,
    restart_overhead_us=0,
    activation_overhead_us=0,
    handover_signal_roundtrips=0,
)

WORKLOADS = ("fleet", "bigimage", "hotdirty")


class Operation:
    """One timed call into nfmigsim plus the checks on what it produced."""

    name: str

    def run(self) -> object:
        raise NotImplementedError

    def check(self, result: object) -> tuple[int, list[str], bytes]:
        raise NotImplementedError


class CliSimulate(Operation):
    """``nfmigsim simulate <file> --seed <n> --out <dir>``, in-process.

    The first execution's export files become the reference; every later
    execution in the same process must reproduce them byte for byte.
    """

    def __init__(self, nfm, name: str, scenario: Path, seed: int | None, out_dir: Path):
        self.nfm = nfm
        self.name = name
        self.argv = ["simulate", str(scenario), "--out", str(out_dir)]
        if seed is not None:
            self.argv += ["--seed", str(seed)]
        self.out_dir = out_dir
        loaded = nfm.load_scenario(scenario)
        nfs = loaded.topology.nfs.values()
        self.image_bytes = {nf.id: nf.memory.total_bytes for nf in nfs if nf.memory is not None}
        self.expected = sum(
            sum(1 for nf in nfs if nf.kind in trigger.affected_kinds)
            for trigger in loaded.triggers
        )
        self.reference: dict[str, bytes] | None = None

    def run(self) -> int:
        return self.nfm.cli.main(self.argv)

    def check(self, exit_code: int) -> tuple[int, list[str], bytes]:
        if exit_code != 0:
            return 0, [f"{self.name}: exit code {exit_code}"], b""
        files = {name: (self.out_dir / name).read_bytes() for name in EXPORT_FILES}
        problems = []
        if self.reference is None:
            self.reference = files
        elif files != self.reference:
            changed = [name for name in EXPORT_FILES if files[name] != self.reference[name]]
            problems.append(f"{self.name}: {changed} differ from the first execution")
        rows = list(csv.DictReader(io.StringIO(files["migrations.csv"].decode())))
        if len(rows) != self.expected:
            problems.append(f"{self.name}: {len(rows)} migrations, expected {self.expected}")
        for row in rows:
            downtime, total = int(row["downtime_us"]), int(row["migration_time_us"])
            strategy, succeeded = row["strategy"], row["outcome"] == "success"
            if downtime > total:
                problems.append(f"{self.name}: {row['nf_id']} downtime {downtime} > {total}")
            if succeeded and strategy in ("inter-copy", "post-copy"):
                if int(row["bytes"]) != self.image_bytes[row["nf_id"]]:
                    problems.append(f"{self.name}: {row['nf_id']} {strategy} moved {row['bytes']} bytes")
            if succeeded and strategy == "inter-copy" and downtime != total:
                problems.append(f"{self.name}: {row['nf_id']} inter-copy downtime {downtime} != {total}")
        digest = b"".join(hashlib.sha256(files[name]).digest() for name in EXPORT_FILES)
        return len(rows), problems[:5], digest


class StrategyCall(Operation):
    """A fresh function instance migrated by one strategy of the public API.

    ``call(nf)`` runs the strategy and returns ``(report, extra)``; ``extra``
    is any further exact count that belongs in the digest.  ``expect``
    checks the report beyond the invariants every migration must keep.
    """

    def __init__(
        self,
        nfm,
        name: str,
        pages: int,
        call: Callable,
        expect: Callable[[object], list[str]] | None = None,
    ):
        self.nfm = nfm
        self.name = name
        self.pages = pages
        self.call = call
        self.expect = expect
        self.reference: tuple | None = None

    def run(self) -> tuple:
        nfm = self.nfm
        nf = nfm.NfInstance(
            self.name, nfm.NfKind.SMF, "src", memory=nfm.MemoryImage(self.pages, PAGE_SIZE)
        )
        report, extra = self.call(nf)
        return nf.memory, report, extra

    def check(self, result: tuple) -> tuple[int, list[str], bytes]:
        image, report, extra = result
        problems = []
        if report.downtime_us > report.migration_time_us:
            problems.append(f"downtime {report.downtime_us} > {report.migration_time_us}")
        if report.succeeded and not image.all_clean:
            problems.append("image not all clean after a successful migration")
        if self.expect is not None:
            problems += self.expect(report)
        record = (
            report.strategy.value,
            report.downtime_us,
            report.migration_time_us,
            report.bytes_transferred,
            report.sync_bytes,
            report.stall_time_us,
            report.rounds,
            report.outcome_label(),
            extra,
        )
        if self.reference is None:
            self.reference = record
        elif record != self.reference:
            problems.append(f"report {record} differs from the first execution {self.reference}")
        return 1, [f"{self.name}: {p}" for p in problems], repr(record).encode()


def _whole_image(pages: int):
    def expect(report) -> list[str]:
        if report.succeeded and report.bytes_transferred != pages * PAGE_SIZE:
            return [f"moved {report.bytes_transferred} bytes of a {pages * PAGE_SIZE}-byte image"]
        return []

    return expect


def _inter_copy(nfm, pages: int) -> StrategyCall:
    channel = nfm.Channel(BANDWIDTH_BPS, LATENCY_US)
    params = nfm.MigrationParams()

    def call(nf):
        return nfm.migration.migrate_inter_copy(nf, channel, params), None

    def expect(report) -> list[str]:
        problems = _whole_image(pages)(report)
        if report.downtime_us != report.migration_time_us:
            problems.append(f"downtime {report.downtime_us} != {report.migration_time_us}")
        return problems

    return StrategyCall(nfm, f"inter-copy-{pages}", pages, call, expect)


def _pre_copy_constant(nfm, name: str, pages: int, rate: int, regime: str) -> StrategyCall:
    """Zero-overhead, zero-latency pre-copy, compared exactly with the oracle."""
    oracle = nfm.analytic_pre_copy(pages, BANDWIDTH_PAGES_PER_S, rate, STOP_THRESHOLD, MAX_ROUNDS)
    if (oracle.rounds == MAX_ROUNDS) != (regime == "cap"):
        raise ValueError(f"{name}: rate {rate} does not give the '{regime}' regime")
    channel = nfm.Channel(BANDWIDTH_BPS, 0.0)
    params = nfm.MigrationParams(
        precopy_stop_threshold=STOP_THRESHOLD, precopy_max_rounds=MAX_ROUNDS, **ZERO_OVERHEADS
    )

    def call(nf):
        return nfm.migration.migrate_pre_copy(nf, channel, params, nfm.ConstantRateDirty(rate)), None

    def expect(report) -> list[str]:
        got = (
            report.rounds,
            report.downtime_us,
            report.migration_time_us,
            report.bytes_transferred // PAGE_SIZE,
        )
        want = (oracle.rounds, oracle.downtime_us, oracle.migration_time_us, oracle.bytes_pages)
        return [] if got == want else [f"pre-copy {got} != oracle {want}"]

    return StrategyCall(nfm, name, pages, call, expect)


def _post_copy(nfm, pages: int, rng: random.Random) -> StrategyCall:
    channel = nfm.Channel(BANDWIDTH_BPS, LATENCY_US)
    params = nfm.MigrationParams()
    stream_us = pages * 10**6 // BANDWIDTH_PAGES_PER_S
    trace = tuple(
        (rng.randrange(stream_us), rng.randrange(pages)) for _ in range(pages // 10)
    )

    def call(nf):
        return nfm.migration.migrate_post_copy(nf, channel, params, trace), None

    return StrategyCall(nfm, f"post-copy-{pages}", pages, call, _whole_image(pages))


def _replica(nfm, name: str, pages: int, make_dirty: Callable[[], object]) -> StrategyCall:
    channel = nfm.Channel(BANDWIDTH_BPS, LATENCY_US)
    params = nfm.MigrationParams()

    def call(nf):
        replica = nfm.migration.start_replica_sync(nf, channel, params, make_dirty())
        handover_at = replica.run_until_ticks(SYNC_TICKS)
        report = nfm.migration.migrate_parallel(replica, params, at_time_us=handover_at)
        return report, replica.ticks_completed

    return StrategyCall(nfm, name, pages, call)


def _pre_copy_bernoulli(nfm, pages: int, p: float, seed: int) -> StrategyCall:
    channel = nfm.Channel(BANDWIDTH_BPS, LATENCY_US)
    params = nfm.MigrationParams(precopy_stop_threshold=STOP_THRESHOLD, precopy_max_rounds=MAX_ROUNDS)

    def call(nf):
        dirty = nfm.BernoulliDirty(p, random.Random(seed))
        return nfm.migration.migrate_pre_copy(nf, channel, params, dirty), None

    return StrategyCall(nfm, f"pre-copy-bernoulli-{pages}", pages, call)


def fleet_scenarios(seed: int, directory: Path) -> list[Path]:
    """Write the fleet workload's generated scenario file; returns its path."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "fleet.scenario"
    path.write_text(scenario_gen.dumps(scenario_gen.generate(seed)), encoding="utf-8")
    return [path]


def build(nfm, workload: str, seed: int, scenarios: list[Path], out_dir: Path) -> list[Operation]:
    """The operations of one pass of ``workload``, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fleet":
        return [
            CliSimulate(nfm, f"simulate-{path.stem}", path, seed, out_dir / path.stem)
            for path in scenarios
        ]
    if workload == "bigimage":
        converge_rate = rng.randrange(4_000, 6_000)
        cap_rate = rng.randrange(20_000, 22_500)
        replica_rate = rng.randrange(2_000, 4_000)
        return [
            _inter_copy(nfm, 10**6),
            _pre_copy_constant(nfm, "pre-copy-converge-1000000", 10**6, converge_rate, "converge"),
            _pre_copy_constant(nfm, "pre-copy-cap-100000", 10**5, cap_rate, "cap"),
            _post_copy(nfm, 10**5, rng),
            _replica(
                nfm, "replica-300000", 3 * 10**5, lambda: nfm.ConstantRateDirty(replica_rate)
            ),
        ]
    if workload == "hotdirty":
        p_pre = rng.randrange(50, 101) / 100_000
        p_replica = rng.randrange(50, 101) / 100_000
        dirty_seed = rng.getrandbits(32)
        return [
            _pre_copy_bernoulli(nfm, 10**5, p_pre, dirty_seed),
            _replica(
                nfm,
                "replica-bernoulli-100000",
                10**5,
                lambda: nfm.BernoulliDirty(p_replica, random.Random(dirty_seed)),
            ),
        ]
    raise ValueError(f"unknown workload '{workload}'")


def drone_gate(nfm, out_dir: Path) -> CliSimulate:
    """The bundled drone scenario, run twice per process as a correctness gate."""
    return CliSimulate(nfm, "simulate-drone", nfm.bundled_scenario_path(), None, out_dir / "drone")
