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
* replica handover: a synchronized duplicate runs at the target, fed a full
  copy plus periodic dirty deltas; the handover ships only the pages that
  changed since the last completed sync.

Pre-copy rounds and replica sync ticks are one loop, ``_copy_rounds``: copy
the dirty set while the function runs.  Pre-copy fires each batch where the
previous one lands, so a replica handed over after one tick is exactly a
two-round pre-copy, its ``sync-copy`` and ``sync-tick-1`` phases the rounds.

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
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from heapq import heappop, heappush
from itertools import islice
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import InvariantViolation, StrategyInapplicableError, check_bound
from .memory import (
    MICROS_PER_SECOND,
    DirtyProcess,
    MemoryImage,
    advance_dirty,
)
from .model import Channel, NfInstance

#: The most pre-copy rounds a migration may run: a run costs time per round.
MAX_PRECOPY_ROUNDS = 1000
#: The ``MigrationParams`` bounds other than ``>= 0``, as (low, high).
_PARAM_BOUNDS = {"precopy_max_rounds": (1, MAX_PRECOPY_ROUNDS)}


class Strategy(str, Enum):
    INTER_COPY = "inter-copy"
    PRE_COPY = "pre-copy"
    POST_COPY = "post-copy"
    PARALLEL = "parallel"
    NO_MIGRATION_REDEPLOY = "redeploy"


@dataclass(frozen=True)
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
        # The clock counts whole microseconds, so every field is an integer.
        for name, value in vars(self).items():
            check_bound(name, value, *_PARAM_BOUNDS.get(name, (0,)), integer=True)


class Phase(NamedTuple):
    """One span of a migration timeline; it starts where the previous phase ends.

    ``down`` says whether the function is unavailable for the span: only
    pre-copy rounds, replica sync and post-copy's stream run while it serves.
    The strategies build phases by ``tuple.__new__``, which skips the
    generated ``__new__``, and so spell ``down`` out.
    """

    name: str
    span_us: int
    down: bool = True


@dataclass(frozen=True, slots=True)
class MigrationReport:
    """A migration's outcome; its phases run back to back from the migration's start.

    ``downtime_us`` is the sum of the down phases' spans, counted once when
    the report is built.
    """

    strategy: Strategy
    bytes_transferred: int
    sync_bytes: int = 0
    stall_time_us: int = 0
    rounds: int = 0
    failure_reason: str | None = None  # None: the migration succeeded
    phases: tuple[Phase, ...] = ()
    downtime_us: int = field(init=False)

    def __post_init__(self):
        downtime = sum([span for _, span, down in self.phases if down])
        object.__setattr__(self, "downtime_us", downtime)

    @property
    def migration_time_us(self) -> int:
        """From the migration's start to the end of its last phase."""
        return sum(phase.span_us for phase in self.phases)

    @property
    def succeeded(self) -> bool:
        return self.failure_reason is None

    def outcome_label(self) -> str:
        if self.succeeded:
            return "success"
        return f"failed({self.failure_reason})"


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
    if nf.memory is None:
        raise StrategyInapplicableError(
            f"'{nf.id}' ({nf.kind.value.upper()}) is stateless; nothing to transfer"
        )
    return nf.memory


def _stop_and_copy(
    image: MemoryImage,
    copy: Callable[[MemoryImage], int],
    name: str,
    channel: Channel,
    params: MigrationParams,
) -> tuple[int, list[Phase]]:
    """Freeze the function, ``copy`` pages of its frozen image and thaw it.

    Returns the pages copied, with the freeze and the copy (named ``name``)
    as phases.  Nothing dirties while the image is frozen.
    """
    image.frozen = True
    pages = copy(image)
    image.frozen = False
    copy_us = transfer_time_us(pages, image.page_size, channel)
    return pages, [
        tuple.__new__(Phase, ("freeze", params.freeze_overhead_us, True)),
        tuple.__new__(Phase, (name, copy_us, True)),
    ]


def migrate_inter_copy(
    nf: NfInstance, channel: Channel, params: MigrationParams
) -> MigrationReport:
    """Freeze, bulk-copy the whole image, restart.

    Downtime equals migration time exactly: the function is frozen for the
    entire transfer, so no page dirties in flight and nothing is re-sent.
    Every page crosses the channel exactly once.
    """
    image = _require_stateful(nf)
    copied, phases = _stop_and_copy(image, MemoryImage.copy_all, "copy-image", channel, params)
    phases.append(tuple.__new__(Phase, ("restart", params.restart_overhead_us, True)))
    return MigrationReport(Strategy.INTER_COPY, copied * image.page_size, phases=tuple(phases))


class SyncTick(NamedTuple):
    """One batch of ``_copy_rounds``, in microseconds from the copy's start."""

    fired_at_us: int
    pages: int
    done_us: int


def _copy_rounds(
    image: MemoryImage, channel: Channel, dirty: DirtyProcess, interval_us: int = 0
) -> Iterator[SyncTick]:
    """Copy the image while its function runs, then its dirty set, batch after batch.

    The whole image ships first, fired at 0.  The next batch fires where it
    lands, and each later one at ``max(previous fire + interval_us, previous
    landing)``.  A batch ships the pages dirty at its firing, so writes made
    while it is in flight wait for the next.  The source dirties through
    every wait and every transfer, and a batch is yielded once it has
    landed, so the caller may stop there and freeze the image.
    """
    fire = due = 0
    pages = image.copy_all()
    while True:
        done = fire + transfer_time_us(pages, image.page_size, channel)
        advance_dirty(image, dirty, done - fire)
        yield tuple.__new__(SyncTick, (fire, pages, done))
        fire = max(due, done)
        advance_dirty(image, dirty, fire - done)
        due = fire + interval_us
        pages = image.copy_dirty()


def migrate_pre_copy(
    nf: NfInstance,
    channel: Channel,
    params: MigrationParams,
    dirty_process: DirtyProcess,
) -> MigrationReport:
    """Copy rounds while running, then a short frozen residual copy.

    The rounds are ``_copy_rounds`` with no interval, each fired where the
    previous one lands.  They stop once the dirty set is at most the stop
    threshold, or unconditionally at the round cap, so a workload that
    dirties faster than the channel drains still terminates (with a large
    final frozen batch, as expected).
    """
    image = _require_stateful(nf)
    pages_sent = 0
    phases: list[Phase] = []
    batches = islice(_copy_rounds(image, channel, dirty_process), params.precopy_max_rounds)
    for rounds, (fire, batch, done) in enumerate(batches, 1):
        pages_sent += batch
        phases.append(tuple.__new__(Phase, (f"copy-round-{rounds}", done - fire, False)))
        if image.dirty_count <= params.precopy_stop_threshold:
            break
    residual, frozen = _stop_and_copy(
        image, MemoryImage.copy_dirty, "copy-residual", channel, params
    )
    phases += frozen
    phases.append(tuple.__new__(Phase, ("restart", params.restart_overhead_us, True)))
    return MigrationReport(
        Strategy.PRE_COPY,
        bytes_transferred=(pages_sent + residual) * image.page_size,
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
    check_bound("num_pages", num_pages, 0, math.inf)
    check_bound("bandwidth", bandwidth_pages_per_s, high=math.inf, above=0)
    check_bound("rate_pages_per_s", dirty_rate_pages_per_s, 0, math.inf)
    check_bound("stop_threshold", stop_threshold, 0)
    check_bound("max_rounds", max_rounds, *_PARAM_BOUNDS["precopy_max_rounds"])
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

    The stream sends the pages outside the working set lowest first, one
    page per ``page_us``, after one latency, and skips the fetched ones.
    Nothing dirties during post-copy, so the touches are walked by stream
    rank (a page's index among the pages outside the working set) with no
    call on the image.  A stall delays the stream and the touch alike, so
    at offset ``t`` the stream has sent ``(t - latency) // page_us`` pages,
    or all of them with no bandwidth limit.  A page has arrived when its
    rank is below the stream head, the first rank the stream has yet to
    pass, or when it was fetched.  The head moves one rank per page sent
    and one more per fetched rank it skips, which a min-heap of the fetched
    ranks at or past it yields in order, so a fetch costs O(log fetches).  The
    image is written once, at the end: all of it on success, and on
    failure, which only the first fetch can meet since every stall is the
    same, the streamed pages and that one fetched page.  The cost grows
    with touches and fetches, not with the image.
    """
    image = _require_stateful(nf)
    num_pages = image.num_pages
    for offset, page in access_trace:
        if not 0 <= offset < math.inf:  # NaN fails too
            raise ValueError(f"access offset must be finite and >= 0, got {offset}")
        if not 0 <= page < num_pages:
            raise ValueError(f"access to page {page} outside image of {num_pages}")
    image.reset_for_transfer()
    page_size = image.page_size
    ordered_trace = sorted(access_trace, key=itemgetter(0))
    ranks = image.stream_ranks(map(itemgetter(1), ordered_trace))

    _, phases = _stop_and_copy(
        image, MemoryImage.copy_working_set, "copy-working-set", channel, params
    )
    phases.append(tuple.__new__(Phase, ("restart", params.restart_overhead_us, True)))
    downtime = sum(span for _, span, _ in phases)

    page_us = serialize_us(page_size, channel)
    latency = latency_ceil_us(channel)
    stall = 2 * latency + page_us
    fails = stall > params.postcopy_fault_deadline_us  # every stall is the same
    start = downtime + latency  # the stream starts one latency after restart
    unsent = image.never_copied_count  # pages the stream has yet to send
    streamed = 0  # pages the stream has sent
    head = 0  # every rank below the head has arrived
    fetched: set[int] = set()  # stream ranks of the fetched pages
    ahead: list[int] = []  # min-heap of the fetched ranks at or past the head
    last_arrival = downtime
    stall_total = 0
    failure: str | None = None

    for (offset, page), rank in zip(ordered_trace, ranks):
        if rank < head or rank in fetched:  # working set (rank < 0), streamed or fetched
            continue
        if offset >= latency:  # stalls delay the stream and the touch alike
            due = int((offset - latency) // page_us) - streamed if page_us else unsent
            if due > 0:
                if due > unsent:
                    due = unsent
                streamed += due
                unsent -= due
                head += due
                while ahead and ahead[0] < head:  # the stream skips the fetched pages
                    heappop(ahead)
                    head += 1
                last_arrival = start + streamed * page_us + stall_total  # the stream clock
                if rank < head:
                    continue
        stall_total += stall
        last_arrival = downtime + offset + stall_total  # no page lands later than the fetch
        if fails:
            failure = "fault deadline exceeded"
            image.copy_lowest(streamed)  # nothing was fetched before this page
            image.mark_copied((page,))
            break
        fetched.add(rank)
        heappush(ahead, rank)
        unsent -= 1

    if failure is None:
        if unsent:
            last_arrival = start + (streamed + unsent) * page_us + stall_total
        image.copy_all()

    if last_arrival > downtime:
        phases.append(
            tuple.__new__(Phase, ("background-stream", last_arrival - downtime, False))
        )
    return MigrationReport(
        Strategy.POST_COPY,
        bytes_transferred=image.clean_count * page_size,
        stall_time_us=stall_total,
        failure_reason=failure,
        phases=tuple(phases),
    )


class ReplicaHandle:
    """A synchronized duplicate instance being fed the source's memory.

    Its sync is ``_copy_rounds`` at ``ppm_sync_interval_us``: the full copy,
    then one sync tick per later batch, accruing in ``sync_bytes`` and, as
    running phases ``sync-copy`` and ``sync-tick-k``, in ``phases``.  Its
    clock ``now_us`` counts from its start, like every strategy's phases,
    and stands where the last batch landed.  It moves only through
    :meth:`run_until_ticks`, one whole tick at a time; the source keeps
    executing (and dirtying) until :func:`migrate_parallel` hands over.
    """

    def __init__(
        self, nf: NfInstance, channel: Channel, params: MigrationParams, dirty_process: DirtyProcess
    ):
        self.nf = nf
        image = self.image = _require_stateful(nf)
        self.channel = channel
        self._batches = _copy_rounds(image, channel, dirty_process, params.ppm_sync_interval_us)
        _, pages, self.now_us = next(self._batches)
        self.sync_bytes = pages * image.page_size
        self.phases = [tuple.__new__(Phase, ("sync-copy", self.now_us, False))]
        self.tick_log: list[SyncTick] = []
        self.retired = False

    @property
    def ticks_completed(self) -> int:
        return len(self.tick_log)

    def run_until_ticks(self, n: int) -> int:
        """Advance until ``n`` sync ticks have landed; returns that virtual time.

        ``run_until_ticks(0)`` returns where the initial copy landed.  The
        clock then stands at the n-th landing, before any tick due at the
        same instant fires.
        """
        if self.retired:
            raise InvariantViolation(self.nf.id, "replica already handed over")
        while len(self.tick_log) < n:
            tick = next(self._batches)
            self.tick_log.append(tick)
            self.sync_bytes += tick.pages * self.image.page_size
            name = f"sync-tick-{len(self.tick_log)}"
            self.phases.append(tuple.__new__(Phase, (name, tick.done_us - self.now_us, False)))
            self.now_us = tick.done_us
        return self.now_us


def start_replica_sync(
    nf: NfInstance,
    channel: Channel,
    params: MigrationParams,
    dirty_process: DirtyProcess,
) -> ReplicaHandle:
    """Instantiate a duplicate of ``nf`` at the target; its clock stands where the image lands."""
    return ReplicaHandle(nf, channel, params, dirty_process)


def migrate_parallel(
    replica: ReplicaHandle,
    params: MigrationParams,
    at_time_us: int | None = None,
) -> MigrationReport:
    """Hand execution over to the replica at its clock; ship the out-of-sync delta.

    The handover happens at ``replica.now_us``, where the initial copy or
    the last :meth:`ReplicaHandle.run_until_ticks` left it; ``at_time_us``,
    if given, must equal that instant.  It freezes the source, transfers the
    pages dirtied since the last sync fired, exchanges the handover signal
    and activates the replica (no cold restart).  The report's phases are
    the replica's sync phases, then that frozen tail.  The accrued
    duplication cost travels in ``sync_bytes``.
    """
    if replica.retired:
        raise InvariantViolation(replica.nf.id, "replica already handed over")
    if at_time_us is not None and at_time_us != replica.now_us:
        raise ValueError(
            f"handover happens at the replica's clock t={replica.now_us} us, "
            f"not t={at_time_us} us"
        )

    image = replica.image
    channel = replica.channel
    delta, frozen = _stop_and_copy(image, MemoryImage.copy_dirty, "copy-delta", channel, params)
    signaling = params.handover_signal_roundtrips * 2 * latency_ceil_us(channel)
    phases = replica.phases + frozen + [
        tuple.__new__(Phase, ("handover-signal", signaling, True)),
        tuple.__new__(Phase, ("activate-replica", params.activation_overhead_us, True)),
    ]
    replica.retired = True
    return MigrationReport(
        Strategy.PARALLEL,
        bytes_transferred=delta * image.page_size,
        sync_bytes=replica.sync_bytes,
        phases=tuple(phases),
    )


def redeploy_stateless(nf: NfInstance, params: MigrationParams) -> MigrationReport:
    """Cold-start a stateless instance at the target; nothing to transfer."""
    if nf.stateful:
        raise StrategyInapplicableError(
            f"'{nf.id}' ({nf.kind.value.upper()}) holds state; redeploying would drop it"
        )
    restart = tuple.__new__(Phase, ("restart", params.restart_overhead_us, True))
    return MigrationReport(Strategy.NO_MIGRATION_REDEPLOY, 0, phases=(restart,))
