"""The four memory-transfer strategies as deterministic state machines.

Each strategy consumes a function's memory image plus a transfer channel
and produces a report with downtime, total migration time and byte counts:

* bulk copy: freeze, ship the whole image, restart; downtime and migration
  time coincide by construction because nothing dirties a frozen image.
* iterative pre-copy: ship everything while running, then re-ship whatever
  was dirtied, round by round, until the residual dirty set is small enough
  (or a round cap forces termination); only the residual is sent frozen.
* post-copy: freeze briefly, ship only the working set, restart at the
  target; the rest streams in the background and a touched-but-missing page
  stalls the function for a demand fetch.
* replica handover: a synchronized duplicate runs at the target, fed full
  copies plus periodic dirty deltas; the handover ships only the pages that
  changed since the last completed sync.

A closed-form evaluator for the constant-rate pre-copy case serves as an
independent oracle: it mirrors the per-round geometric shrinkage without
touching the page-level state machine.

All durations are integer microseconds.  Transferring ``k`` pages over a
channel costs ``ceil(k * page_size * 1e6 / bandwidth)`` plus one one-way
latency for the batch; fractional latencies round up when they enter the
clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

from .errors import (
    InvariantViolation,
    ReplicaNotSyncedError,
    StrategyInapplicableError,
)
from .memory import (
    MICROS_PER_SECOND,
    DirtyProcess,
    MemoryImage,
    advance_dirty,
)
from .model import Channel, NfInstance


class Strategy(str, Enum):
    INTER_COPY = "inter-copy"
    PRE_COPY = "pre-copy"
    POST_COPY = "post-copy"
    PARALLEL = "parallel"
    NO_MIGRATION_REDEPLOY = "redeploy"


@dataclass
class MigrationParams:
    """Overheads and knobs shared by the strategy state machines.

    The phase overheads (freeze, restart, replica activation) are design
    parameters, not measured values; defaults are deliberately modest so
    transfer time dominates for non-trivial images.
    """

    freeze_overhead_us: int = 5_000
    restart_overhead_us: int = 50_000
    activation_overhead_us: int = 10_000
    precopy_stop_threshold: int = 8
    precopy_max_rounds: int = 10
    postcopy_fault_deadline_us: int = 500_000
    ppm_sync_interval_us: int = 100_000
    handover_signal_roundtrips: int = 1

    def __post_init__(self):
        for name in (
            "freeze_overhead_us",
            "restart_overhead_us",
            "activation_overhead_us",
            "precopy_stop_threshold",
            "postcopy_fault_deadline_us",
            "ppm_sync_interval_us",
            "handover_signal_roundtrips",
        ):
            if not getattr(self, name) >= 0:  # NaN fails too
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.precopy_max_rounds >= 1:
            raise ValueError(
                f"precopy_max_rounds must be >= 1, got {self.precopy_max_rounds}"
            )


@dataclass(frozen=True)
class Phase:
    """One span of a migration timeline, relative to migration start."""

    name: str
    start_us: int
    end_us: int


@dataclass
class MigrationReport:
    strategy: Strategy
    downtime_us: int
    migration_time_us: int
    bytes_transferred: int
    sync_bytes: int = 0
    stall_time_us: int = 0
    rounds: int = 0
    outcome: str = "success"
    failure_reason: str | None = None
    phases: tuple[Phase, ...] = ()

    @property
    def succeeded(self) -> bool:
        return self.outcome == "success"

    def outcome_label(self) -> str:
        if self.succeeded:
            return "success"
        return f"failed({self.failure_reason})"


def failed_report(strategy: Strategy, reason: str) -> MigrationReport:
    """A zero-cost report for a migration that could not be attempted."""
    return MigrationReport(strategy, 0, 0, 0, outcome="failed", failure_reason=reason)


def _ceil_div_us(numerator: int, bandwidth: int | float) -> int:
    if isinstance(bandwidth, int):
        return -(-numerator // bandwidth)
    return math.ceil(Fraction(numerator) / Fraction(bandwidth))


def serialize_us(nbytes: int, channel: Channel) -> int:
    """Link occupancy for ``nbytes`` at the channel's bandwidth, rounded up."""
    if nbytes <= 0 or channel.bandwidth_bps is None:
        return 0
    return _ceil_div_us(nbytes * MICROS_PER_SECOND, channel.bandwidth_bps)


def latency_ceil_us(channel: Channel) -> int:
    return math.ceil(channel.latency_us)


def transfer_time_us(pages: int, page_size: int, channel: Channel) -> int:
    """Time for a batch of ``pages`` to land at the target; 0 for an empty batch."""
    if pages <= 0:
        return 0
    return serialize_us(pages * page_size, channel) + latency_ceil_us(channel)


def _require_stateful(nf: NfInstance) -> MemoryImage:
    if not nf.stateful or nf.memory is None:
        raise StrategyInapplicableError(
            f"'{nf.id}' ({nf.kind.value.upper()}) is stateless; nothing to transfer"
        )
    return nf.memory


def migrate_inter_copy(
    nf: NfInstance, channel: Channel, params: MigrationParams
) -> MigrationReport:
    """Freeze, bulk-copy the whole image, restart.

    Downtime equals migration time exactly: the function is frozen for the
    entire transfer, so no page dirties in flight and nothing is re-sent.
    Every page crosses the channel exactly once.
    """
    image = _require_stateful(nf)
    image.reset_for_transfer()
    freeze = params.freeze_overhead_us
    restart = params.restart_overhead_us
    image.frozen = True
    copied = image.copy_all()
    copy_us = transfer_time_us(copied, image.page_size, channel)
    image.frozen = False
    total = freeze + copy_us + restart
    phases = (
        Phase("freeze", 0, freeze),
        Phase("copy-image", freeze, freeze + copy_us),
        Phase("restart", freeze + copy_us, total),
    )
    return MigrationReport(
        Strategy.INTER_COPY,
        downtime_us=total,
        migration_time_us=total,
        bytes_transferred=copied * image.page_size,
        phases=phases,
    )


def migrate_pre_copy(
    nf: NfInstance,
    channel: Channel,
    params: MigrationParams,
    dirty_process: DirtyProcess,
) -> MigrationReport:
    """Iterative copy rounds while running, then a short frozen residual copy.

    Round 1 ships the full image; each later round ships the pages dirtied
    during the previous one.  Rounds stop once the dirty set is at most the
    stop threshold, or unconditionally at the round cap, so a workload that
    dirties faster than the channel drains still terminates (with a large
    final frozen batch, as expected).
    """
    image = _require_stateful(nf)
    image.reset_for_transfer()
    page_size = image.page_size
    rounds = 0
    elapsed = 0
    pages_sent = 0
    phases: list[Phase] = []
    while True:
        batch = image.copy_all() if rounds == 0 else image.copy_dirty()
        round_us = transfer_time_us(batch, page_size, channel)
        advance_dirty(image, dirty_process, round_us)
        rounds += 1
        pages_sent += batch
        phases.append(Phase(f"copy-round-{rounds}", elapsed, elapsed + round_us))
        elapsed += round_us
        if image.dirty_count <= params.precopy_stop_threshold:
            break
        if rounds >= params.precopy_max_rounds:
            break
    freeze = params.freeze_overhead_us
    restart = params.restart_overhead_us
    image.frozen = True
    residual = image.copy_dirty()
    residual_us = transfer_time_us(residual, page_size, channel)
    image.frozen = False
    pages_sent += residual
    downtime = freeze + residual_us + restart
    phases.append(Phase("freeze", elapsed, elapsed + freeze))
    phases.append(Phase("copy-residual", elapsed + freeze, elapsed + freeze + residual_us))
    phases.append(Phase("restart", elapsed + freeze + residual_us, elapsed + downtime))
    return MigrationReport(
        Strategy.PRE_COPY,
        downtime_us=downtime,
        migration_time_us=elapsed + downtime,
        bytes_transferred=pages_sent * page_size,
        rounds=rounds,
        phases=tuple(phases),
    )


@dataclass(frozen=True)
class PreCopyEstimate:
    """Closed-form pre-copy outcome for the constant-rate dirty model."""

    rounds: int
    downtime_us: int
    migration_time_us: int
    bytes_pages: int

    @property
    def downtime_s(self) -> float:
        return self.downtime_us / MICROS_PER_SECOND

    @property
    def migration_time_s(self) -> float:
        return self.migration_time_us / MICROS_PER_SECOND


def analytic_pre_copy(
    num_pages: int,
    bandwidth_pages_per_s: float,
    dirty_rate_pages_per_s: float,
    stop_threshold: int,
    max_rounds: int,
) -> PreCopyEstimate:
    """Geometric-series evaluation of pre-copy, independent of the simulator.

    Each round of ``b`` pages takes ``b / B`` seconds during which
    ``rate * b / B`` pages dirty; batches therefore shrink by the factor
    ``rate / B`` per round until the stop rule fires.  Exact for the
    deterministic dirty model with zero overheads: the evaluation applies
    the same whole-microsecond round durations and fractional-page carry,
    without any event or page bookkeeping.
    """
    if bandwidth_pages_per_s <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_pages_per_s}")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    bandwidth = Fraction(bandwidth_pages_per_s)
    rate = Fraction(dirty_rate_pages_per_s)
    carry = Fraction(0)
    batch = num_pages
    dirty = 0
    rounds = 0
    elapsed_us = 0
    pages_sent = 0
    while True:
        round_us = math.ceil(batch * MICROS_PER_SECOND / bandwidth) if batch else 0
        accumulated = rate * Fraction(round_us, MICROS_PER_SECOND) + carry
        raw = math.floor(accumulated)
        carry = accumulated - raw
        dirty = min(raw, num_pages)
        rounds += 1
        pages_sent += batch
        elapsed_us += round_us
        if dirty <= stop_threshold or rounds >= max_rounds:
            break
        batch = dirty
    residual_us = math.ceil(dirty * MICROS_PER_SECOND / bandwidth) if dirty else 0
    pages_sent += dirty
    return PreCopyEstimate(
        rounds=rounds,
        downtime_us=residual_us,
        migration_time_us=elapsed_us + residual_us,
        bytes_pages=pages_sent,
    )


def migrate_post_copy(
    nf: NfInstance,
    channel: Channel,
    params: MigrationParams,
    access_trace: Sequence[tuple[int, int]],
) -> MigrationReport:
    """Restart at the target with only the working set; stream the rest.

    ``access_trace`` lists (offset after restart, page id) touches made by
    the function at the target.  Touching a page that has not arrived stalls
    the function for a demand fetch (request plus page, two latencies plus
    one page of serialization) which preempts the background stream.  A
    stall longer than the fault deadline kills the migration, the
    deterministic rendering of post-copy's failure risk.  Stalls stretch the
    function's timeline but never count as downtime.

    The stream sends the never-copied pages lowest first, one page per
    ``page_us``, after one latency.  Nothing dirties during post-copy, so it
    is kept as a cursor below which every page has arrived, and it is
    brought up to date only when a touch finds its page missing: between
    two fetches the stream clock moves in whole pages, so catching up once
    for several touches streams the same pages as catching up at each.
    The cost grows with touches and runs of pages, not with the image.
    """
    image = _require_stateful(nf)
    image.reset_for_transfer()
    page_size = image.page_size
    for offset, page in access_trace:
        if offset < 0:
            raise ValueError(f"access offset must be >= 0, got {offset}")
        if not 0 <= page < image.num_pages:
            raise ValueError(f"access to page {page} outside image of {image.num_pages}")
    ordered_trace = sorted(access_trace, key=itemgetter(0))

    freeze = params.freeze_overhead_us
    restart = params.restart_overhead_us
    image.frozen = True
    ws_us = transfer_time_us(image.copy_working_set(), page_size, channel)
    image.frozen = False
    downtime = freeze + ws_us + restart

    page_us = serialize_us(page_size, channel)
    latency = latency_ceil_us(channel)
    stream_clock = downtime + latency  # the stream starts one latency after restart
    cursor = 0  # every page below it has arrived
    last_arrival = downtime
    stall_total = 0
    failure: str | None = None
    is_clean = image.is_clean

    for offset, page in ordered_trace:
        if is_clean(page):
            continue
        access_at = downtime + offset + stall_total
        if stream_clock <= access_at:
            limit = int((access_at - stream_clock) // page_us) if page_us else image.num_pages
            streamed, cursor = image.copy_lowest(limit, cursor)
            if streamed:
                stream_clock += streamed * page_us
                last_arrival = stream_clock
            if is_clean(page):
                continue
        stall = 2 * latency + page_us
        stall_total += stall
        image.mark_copied((page,))
        last_arrival = max(last_arrival, access_at + stall)
        stream_clock += stall  # the fetch preempts the stream for its full span
        if stall > params.postcopy_fault_deadline_us:
            failure = "fault deadline exceeded"
            break

    if failure is None:
        streamed, _ = image.copy_lowest(image.never_copied_count, cursor)
        if streamed:
            stream_clock += streamed * page_us
            last_arrival = stream_clock

    migration_time = max(downtime, last_arrival)
    copied_pages = image.num_pages - image.never_copied_count - image.dirty_count
    phases = [
        Phase("freeze", 0, freeze),
        Phase("copy-working-set", freeze, freeze + ws_us),
        Phase("restart", freeze + ws_us, downtime),
    ]
    if migration_time > downtime:
        phases.append(Phase("background-stream", downtime, migration_time))
    return MigrationReport(
        Strategy.POST_COPY,
        downtime_us=downtime,
        migration_time_us=migration_time,
        bytes_transferred=copied_pages * page_size,
        stall_time_us=stall_total,
        outcome="success" if failure is None else "failed",
        failure_reason=failure,
        phases=tuple(phases),
    )


@dataclass(frozen=True)
class SyncTick:
    fired_at_us: int
    pages: int
    done_us: int


class ReplicaHandle:
    """A synchronized duplicate instance being fed the source's memory.

    The full image is shipped once, then periodic sync ticks ship whatever
    dirtied since the previous tick; both are duplication overhead and
    accrue in ``sync_bytes``.  The out-of-sync set at any instant is the
    current dirty set.  Time advances explicitly and monotonically through
    :meth:`advance_to`; the source keeps executing (and dirtying) the whole
    time until handover freezes it.
    """

    def __init__(
        self,
        nf: NfInstance,
        channel: Channel,
        params: MigrationParams,
        dirty_process: DirtyProcess,
        started_at_us: int = 0,
    ):
        self.nf = nf
        self.image = _require_stateful(nf)
        self.channel = channel
        self.params = params
        self.dirty_process = dirty_process
        self.started_at_us = started_at_us
        self.initial_copy_done_us = started_at_us + transfer_time_us(
            self.image.num_pages, self.image.page_size, channel
        )
        self.sync_bytes = 0
        self.ticks_completed = 0
        self.tick_log: list[SyncTick] = []
        self.retired = False
        self._cursor = started_at_us
        self._initial_done = False
        self._next_fire = self.initial_copy_done_us
        self._inflight: tuple[int, int, int] | None = None  # (fired, pages, done)

    @property
    def synced(self) -> bool:
        return self._initial_done

    @property
    def now_us(self) -> int:
        return self._cursor

    def _complete_initial_copy(self) -> None:
        self.sync_bytes += self.image.copy_all() * self.image.page_size
        advance_dirty(
            self.image, self.dirty_process, self.initial_copy_done_us - self._cursor
        )
        self._cursor = self.initial_copy_done_us
        self._initial_done = True
        self._next_fire = self.initial_copy_done_us  # flush tick fires immediately

    def _fire_tick(self) -> None:
        fire = self._next_fire
        if fire > self._cursor:
            advance_dirty(self.image, self.dirty_process, fire - self._cursor)
            self._cursor = fire
        pages = self.image.dirty_count
        done = fire + transfer_time_us(pages, self.image.page_size, self.channel)
        self._inflight = (fire, pages, done)

    def _complete_tick(self) -> None:
        assert self._inflight is not None
        fire, pages, done = self._inflight
        # The tick ships the dirty set as of its firing; nothing dirties while
        # it is in flight (see advance_to), so that set is still the dirty set.
        copied = self.image.copy_dirty()
        if copied != pages:
            raise InvariantViolation(
                self.nf.id, f"sync tick fired with {pages} dirty pages, {copied} at completion"
            )
        advance_dirty(self.image, self.dirty_process, done - fire)
        self._cursor = done
        self.sync_bytes += pages * self.image.page_size
        self.ticks_completed += 1
        self.tick_log.append(SyncTick(fire, pages, done))
        self._inflight = None
        self._next_fire = max(fire + self.params.ppm_sync_interval_us, done)

    def advance_to(self, t_us: int, fire_at_boundary: bool = True) -> None:
        """Process sync activity up to virtual time ``t_us``.

        With ``fire_at_boundary`` false, a tick scheduled exactly at
        ``t_us`` is left unfired (the handover preempts it).
        """
        if self.retired:
            raise InvariantViolation(self.nf.id, "replica already handed over")
        if t_us < self._cursor:
            raise ValueError(f"cannot advance replica backwards to t={t_us} us")
        while True:
            if not self._initial_done:
                if self.initial_copy_done_us <= t_us:
                    self._complete_initial_copy()
                    continue
                return  # nothing observable happens before the copy lands
            if self._inflight is not None:
                if self._inflight[2] <= t_us:
                    self._complete_tick()
                    continue
                return  # mid-flight; dirtying for this span applies at completion
            if self._next_fire < t_us or (self._next_fire == t_us and fire_at_boundary):
                self._fire_tick()
                continue
            break
        if t_us > self._cursor:
            advance_dirty(self.image, self.dirty_process, t_us - self._cursor)
            self._cursor = t_us

    def _step(self) -> None:
        """Process exactly one machine event: copy landing, tick fire or tick landing."""
        if not self._initial_done:
            self._complete_initial_copy()
        elif self._inflight is not None:
            self._complete_tick()
        else:
            self._fire_tick()

    def run_until_ticks(self, n: int) -> int:
        """Advance until ``n`` sync ticks completed; returns that virtual time.

        Stops right at the n-th completion, before any tick due at the same
        instant fires, so a handover issued then preempts it.
        """
        if self.retired:
            raise InvariantViolation(self.nf.id, "replica already handed over")
        while self.ticks_completed < n:
            self._step()
        return self._cursor


def start_replica_sync(
    nf: NfInstance,
    channel: Channel,
    params: MigrationParams,
    dirty_process: DirtyProcess,
    now_us: int = 0,
) -> ReplicaHandle:
    """Instantiate a synchronized duplicate of ``nf`` at the target."""
    image = _require_stateful(nf)
    image.reset_for_transfer()
    return ReplicaHandle(nf, channel, params, dirty_process, started_at_us=now_us)


def migrate_parallel(
    replica: ReplicaHandle,
    params: MigrationParams,
    at_time_us: int | None = None,
) -> MigrationReport:
    """Hand execution over to the replica; ship only the out-of-sync delta.

    The handover freezes the source, transfers the pages dirtied since the
    last completed sync, exchanges the handover signal and activates the
    replica (no cold restart).  The accrued duplication cost travels in
    ``sync_bytes``.  A sync tick in flight at the requested instant
    completes first; one scheduled exactly then is preempted.
    """
    if replica.retired:
        raise InvariantViolation(replica.nf.id, "replica already handed over")
    handover_at = (
        at_time_us
        if at_time_us is not None
        else max(replica.now_us, replica.initial_copy_done_us)
    )
    if handover_at < replica.initial_copy_done_us:
        raise ReplicaNotSyncedError(
            f"initial copy of '{replica.nf.id}' completes at "
            f"t={replica.initial_copy_done_us} us; handover requested at t={handover_at} us"
        )
    replica.advance_to(handover_at, fire_at_boundary=False)
    if replica._inflight is not None:
        handover_at = replica._inflight[2]
        replica.advance_to(handover_at)

    image = replica.image
    channel = replica.channel
    freeze = params.freeze_overhead_us
    activation = params.activation_overhead_us
    image.frozen = True
    delta = image.copy_dirty()
    delta_us = transfer_time_us(delta, image.page_size, channel)
    image.frozen = False
    signaling = params.handover_signal_roundtrips * 2 * latency_ceil_us(channel)
    downtime = freeze + delta_us + signaling + activation
    replica.retired = True
    phases = (
        Phase("freeze", 0, freeze),
        Phase("copy-delta", freeze, freeze + delta_us),
        Phase("handover-signal", freeze + delta_us, freeze + delta_us + signaling),
        Phase("activate-replica", freeze + delta_us + signaling, downtime),
    )
    return MigrationReport(
        Strategy.PARALLEL,
        downtime_us=downtime,
        migration_time_us=downtime,
        bytes_transferred=delta * image.page_size,
        sync_bytes=replica.sync_bytes,
        phases=phases,
    )


def redeploy_stateless(nf: NfInstance, params: MigrationParams) -> MigrationReport:
    """Cold-start a stateless instance at the target; nothing to transfer."""
    if nf.stateful:
        raise StrategyInapplicableError(
            f"'{nf.id}' ({nf.kind.value.upper()}) holds state; redeploying would drop it"
        )
    restart = params.restart_overhead_us
    return MigrationReport(
        Strategy.NO_MIGRATION_REDEPLOY,
        downtime_us=restart,
        migration_time_us=restart,
        bytes_transferred=0,
        phases=(Phase("restart", 0, restart),),
    )
