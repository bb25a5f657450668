"""Strategy state machines: worked examples, oracle agreement, edge cases."""

import math
import os
import random
import subprocess
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfmigsim import (
    BernoulliDirty,
    Channel,
    ConstantRateDirty,
    InvariantViolation,
    MemoryImage,
    MigrationParams,
    MigrationReport,
    NfInstance,
    NfKind,
    PageState,
    Strategy,
    StrategyInapplicableError,
    advance_dirty,
    analytic_pre_copy,
    migrate_inter_copy,
    migrate_parallel,
    migrate_post_copy,
    migrate_pre_copy,
    redeploy_stateless,
    start_replica_sync,
    transfer_time_us,
)
from nfmigsim.migration import MAX_PRECOPY_ROUNDS, Phase, latency_ceil_us, serialize_us

import post_copy_golden
import replica_bernoulli_golden

ZERO_OVERHEADS = dict(
    freeze_overhead_us=0,
    restart_overhead_us=0,
    activation_overhead_us=0,
    handover_signal_roundtrips=0,
)


def stateful_nf(num_pages, page_size=1, working_set=(), kind=NfKind.SMF):
    image = MemoryImage(num_pages, page_size, working_set=working_set)
    return NfInstance(f"{kind.value}-t", kind, "h1", memory=image)


def stateless_upf():
    return NfInstance("upf-t", NfKind.UPF, "h1")


class TestMigrationParams:
    @pytest.mark.parametrize(
        "name",
        [
            "freeze_overhead_us",
            "restart_overhead_us",
            "activation_overhead_us",
            "precopy_stop_threshold",
            "postcopy_fault_deadline_us",
            "ppm_sync_interval_us",
            "handover_signal_roundtrips",
        ],
    )
    def test_nan_overhead_rejected(self, name):
        # NaN fails every comparison: a `< 0` check let it through, and a NaN
        # fault deadline meant post-copy could never fail.
        with pytest.raises(ValueError, match=f"{name} must be >= 0, got nan"):
            MigrationParams(**{name: float("nan")})

    def test_nan_round_cap_rejected(self):
        with pytest.raises(ValueError, match="precopy_max_rounds must be >= 1, got nan"):
            MigrationParams(precopy_max_rounds=float("nan"))

    @pytest.mark.parametrize("value", [1.5, math.inf, True])
    def test_every_field_is_an_integer(self, value):
        # The clock counts whole microseconds: a 1.5 us freeze once gave a
        # downtime with a fraction, and an infinite one was accepted.
        for name in MigrationParams._fields:
            with pytest.raises(ValueError, match=f"{name} must be an integer, got {value}"):
                MigrationParams(**{name: value})

    def test_round_cap_bounded(self):
        assert MigrationParams(precopy_max_rounds=MAX_PRECOPY_ROUNDS).precopy_max_rounds == 1000
        with pytest.raises(ValueError, match="precopy_max_rounds must be <= 1000, got 1001"):
            MigrationParams(precopy_max_rounds=MAX_PRECOPY_ROUNDS + 1)

    def test_round_cap_cannot_be_assigned_past_its_bound(self):
        params = MigrationParams()
        with pytest.raises(AttributeError):
            params.precopy_max_rounds = 10**9
        assert params.precopy_max_rounds == 10


class TestInterCopy:
    def test_worked_example(self):
        nf = stateful_nf(100)
        report = migrate_inter_copy(nf, Channel(100, 0), MigrationParams(**ZERO_OVERHEADS))
        assert report.downtime_us == 1_000_000
        assert report.migration_time_us == 1_000_000
        assert report.bytes_transferred == 100
        assert report.succeeded

    def test_empty_image(self):
        nf = stateful_nf(0)
        report = migrate_inter_copy(nf, Channel(100, 0), MigrationParams(**ZERO_OVERHEADS))
        assert report.downtime_us == 0
        assert report.bytes_transferred == 0

    def test_overheads_add_to_both_metrics(self):
        nf = stateful_nf(100)
        params = MigrationParams(
            freeze_overhead_us=10_000, restart_overhead_us=20_000
        )
        report = migrate_inter_copy(nf, Channel(100, 0), params)
        assert report.downtime_us == 1_030_000
        assert report.migration_time_us == 1_030_000

    def test_stateless_rejected(self):
        with pytest.raises(StrategyInapplicableError):
            migrate_inter_copy(stateless_upf(), Channel(100, 0), MigrationParams())

    def test_identity_and_exact_bytes_random_params(self):
        rng = random.Random(21)
        for _ in range(100):
            pages = rng.randrange(0, 2000)
            page_size = rng.choice([1, 512, 4096])
            nf = stateful_nf(pages, page_size)
            channel = Channel(rng.randrange(1, 10**9), rng.choice([0, 260, 269.5, 328]))
            params = MigrationParams(
                freeze_overhead_us=rng.randrange(0, 10**6),
                restart_overhead_us=rng.randrange(0, 10**6),
            )
            report = migrate_inter_copy(nf, channel, params)
            assert report.downtime_us == report.migration_time_us
            assert report.bytes_transferred == pages * page_size
            assert nf.memory.all_clean

    def test_image_fully_clean_after_success(self):
        nf = stateful_nf(64, 4096)
        migrate_inter_copy(nf, Channel(10**6, 100), MigrationParams())
        assert nf.memory.all_clean


class TestPreCopy:
    def test_worked_example(self):
        nf = stateful_nf(100)
        params = MigrationParams(
            precopy_stop_threshold=2, precopy_max_rounds=10, **ZERO_OVERHEADS
        )
        report = migrate_pre_copy(nf, Channel(100, 0), params, ConstantRateDirty(10))
        assert report.rounds == 2
        assert report.downtime_us == 10_000
        assert report.migration_time_us == 1_110_000
        assert report.bytes_transferred == 111
        assert nf.memory.all_clean

    def test_zero_dirty_rate_single_round(self):
        nf = stateful_nf(100)
        params = MigrationParams(freeze_overhead_us=500, restart_overhead_us=700)
        report = migrate_pre_copy(nf, Channel(100, 0), params, ConstantRateDirty(0))
        assert report.rounds == 1
        assert report.downtime_us == 500 + 700
        assert report.bytes_transferred == 100

    def test_rate_above_bandwidth_capped_by_round_limit(self):
        nf = stateful_nf(100)
        params = MigrationParams(
            precopy_stop_threshold=2, precopy_max_rounds=3, **ZERO_OVERHEADS
        )
        report = migrate_pre_copy(nf, Channel(100, 0), params, ConstantRateDirty(200))
        assert report.rounds == 3
        # Every round re-dirties the full image, so the frozen residual is
        # the whole image: no better than a single bulk copy.
        residual_transfer = transfer_time_us(100, 1, Channel(100, 0))
        assert report.downtime_us >= residual_transfer
        assert report.bytes_transferred == 400

    def test_dominance_over_inter_copy(self):
        rng = random.Random(17)
        for _ in range(30):
            pages = rng.randrange(1, 500)
            bandwidth = rng.randrange(10, 5000)
            rate = rng.randrange(0, bandwidth)
            params = MigrationParams(
                freeze_overhead_us=rng.randrange(0, 20_000),
                restart_overhead_us=rng.randrange(0, 20_000),
                precopy_stop_threshold=rng.randrange(0, max(1, pages)),
                precopy_max_rounds=rng.randrange(1, 12),
            )
            channel = Channel(bandwidth, 0)
            pre = migrate_pre_copy(
                stateful_nf(pages), channel, params, ConstantRateDirty(rate)
            )
            inter = migrate_inter_copy(stateful_nf(pages), channel, params)
            assert pre.downtime_us <= inter.downtime_us

    def test_round_batches_shrink_when_rate_below_bandwidth(self):
        # Round duration is proportional to batch size at zero latency, so
        # non-increasing durations mean non-increasing batches.
        rng = random.Random(41)
        for _ in range(20):
            bandwidth = rng.randrange(50, 2000)
            rate = rng.randrange(0, bandwidth)
            params = MigrationParams(
                precopy_stop_threshold=0, precopy_max_rounds=12, **ZERO_OVERHEADS
            )
            report = migrate_pre_copy(
                stateful_nf(rng.randrange(100, 800)),
                Channel(bandwidth, 0),
                params,
                ConstantRateDirty(rate),
            )
            durations = [p.span_us for p in report.phases if p.name.startswith("copy-round")]
            assert durations == sorted(durations, reverse=True)

    def test_stateless_rejected(self):
        with pytest.raises(StrategyInapplicableError):
            migrate_pre_copy(
                stateless_upf(), Channel(100, 0), MigrationParams(), ConstantRateDirty(1)
            )


class TestAnalyticPreCopy:
    def test_worked_example(self):
        est = analytic_pre_copy(100, 100, 10, 2, 10)
        assert est.rounds == 2
        assert est.downtime_us == 10_000
        assert est.migration_time_us == 1_110_000
        assert est.bytes_pages == 111

    def test_zero_rate(self):
        est = analytic_pre_copy(100, 100, 0, 2, 10)
        assert (est.rounds, est.downtime_us, est.bytes_pages) == (1, 0, 100)
        assert est.migration_time_us == 1_000_000

    def test_rate_equal_bandwidth(self):
        est = analytic_pre_copy(100, 100, 100, 2, 2)
        assert est.bytes_pages == 300
        assert est.downtime_us == 1_000_000

    @pytest.mark.parametrize(
        "args, message",
        [
            ((-100, 100, 10, 2, 10), "num_pages must be finite and >= 0, got -100"),
            ((100, 0, 10, 2, 10), "bandwidth must be finite and positive, got 0"),
            ((100, 100, -10, 2, 10), "rate_pages_per_s must be finite and >= 0, got -10"),
            ((100, 100, math.nan, 2, 10), "rate_pages_per_s must be finite and >= 0, got nan"),
            ((100, 100, math.inf, 2, 10), "rate_pages_per_s must be finite and >= 0, got inf"),
            ((100, 100, 10, 2, 0), "max_rounds must be >= 1, got 0"),
            ((100, math.nan, 10, 2, 10), "bandwidth must be finite and positive, got nan"),
            ((100, 100, 200, math.nan, 10), "stop_threshold must be >= 0, got nan"),
            ((100, 100, 200, -1, 10), "stop_threshold must be >= 0, got -1"),
        ],
    )
    def test_inputs_that_give_negative_or_no_times_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            analytic_pre_copy(*args)

    @pytest.mark.parametrize(
        "max_rounds, message",
        [
            ("nan", "max_rounds must be >= 1, got nan"),
            ("inf", "max_rounds must be <= 1000, got inf"),
        ],
    )
    def test_a_round_cap_that_never_stops_fails_instead_of_running_on(self, max_rounds, message):
        # In a child process with a timeout: a round cap that lets NaN or
        # infinity through never stops a batch that does not shrink, and must
        # fail this test rather than hang the suite.
        code = (
            "import math; from nfmigsim import analytic_pre_copy; "
            f"analytic_pre_copy(100, 100, 200, 2, math.{max_rounds})"
        )
        src = str(Path(analytic_pre_copy.__code__.co_filename).parents[1])
        child = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=30,
        )
        assert child.returncode == 1
        assert child.stderr.splitlines()[-1] == f"ValueError: {message}"

    @pytest.mark.parametrize("rate, capped", [(5_000, False), (21_000, True)])
    def test_matches_simulation_exactly_at_scale(self, rate, capped):
        pages, bandwidth, threshold, max_rounds = 3 * 10**5, 25_000, 8, 10
        est = analytic_pre_copy(pages, bandwidth, rate, threshold, max_rounds)
        assert (est.rounds == max_rounds) == capped
        params = MigrationParams(
            precopy_stop_threshold=threshold, precopy_max_rounds=max_rounds, **ZERO_OVERHEADS
        )
        nf = stateful_nf(pages)
        report = migrate_pre_copy(nf, Channel(bandwidth, 0), params, ConstantRateDirty(rate))
        assert (
            report.rounds,
            report.downtime_us,
            report.migration_time_us,
            report.bytes_transferred,
        ) == (est.rounds, est.downtime_us, est.migration_time_us, est.bytes_pages)
        assert nf.memory.all_clean

    def test_matches_simulation_exactly(self):
        rng = random.Random(33)
        for _ in range(60):
            pages = rng.randrange(1, 1500)
            bandwidth = rng.randrange(1, 4000)
            rate = rng.randrange(0, bandwidth) if bandwidth > 1 else 0
            threshold = rng.randrange(0, max(1, pages // 3))
            max_rounds = rng.randrange(1, 14)
            est = analytic_pre_copy(pages, bandwidth, rate, threshold, max_rounds)
            params = MigrationParams(
                precopy_stop_threshold=threshold,
                precopy_max_rounds=max_rounds,
                **ZERO_OVERHEADS,
            )
            report = migrate_pre_copy(
                stateful_nf(pages),
                Channel(bandwidth, 0),
                params,
                ConstantRateDirty(rate),
            )
            assert report.rounds == est.rounds
            assert report.bytes_transferred == est.bytes_pages
            assert abs(report.downtime_us - est.downtime_us) <= est.rounds + 1
            assert abs(report.migration_time_us - est.migration_time_us) <= est.rounds + 1


class TestPostCopy:
    def test_worked_example(self):
        nf = stateful_nf(100, working_set=range(20))
        params = MigrationParams(**ZERO_OVERHEADS)
        report = migrate_post_copy(nf, Channel(100, 0), params, [])
        assert report.downtime_us == 200_000
        assert report.migration_time_us == 1_000_000
        assert report.stall_time_us == 0
        assert report.bytes_transferred == 100
        assert nf.memory.all_clean

    def test_access_to_copied_page_never_stalls(self):
        nf = stateful_nf(100, working_set=range(20))
        params = MigrationParams(**ZERO_OVERHEADS)
        report = migrate_post_copy(nf, Channel(100, 0), params, [(0, 5)])
        assert report.stall_time_us == 0
        assert report.succeeded

    def test_demand_fetch_accumulates_stall(self):
        nf = stateful_nf(100, working_set=range(20))
        params = MigrationParams(**ZERO_OVERHEADS)
        # Page 99 streams last; touching it immediately forces a fetch.
        report = migrate_post_copy(nf, Channel(100, 1000), params, [(0, 99)])
        assert report.stall_time_us == 2 * 1000 + 10_000
        assert report.succeeded
        assert report.bytes_transferred == 100

    def test_fault_deadline_exceeded_fails(self):
        nf = stateful_nf(100, working_set=range(20))
        params = MigrationParams(
            postcopy_fault_deadline_us=1000,
            freeze_overhead_us=0,
            restart_overhead_us=0,
        )
        report = migrate_post_copy(nf, Channel(100, 50_000), params, [(0, 99)])
        assert not report.succeeded
        assert report.failure_reason == "fault deadline exceeded"
        assert report.bytes_transferred <= 100
        assert report.downtime_us <= report.migration_time_us

    def test_downtime_depends_only_on_working_set(self):
        params = MigrationParams(**ZERO_OVERHEADS)
        rng = random.Random(9)
        downtimes = set()
        for _ in range(10):
            trace = [(rng.randrange(0, 10**6), rng.randrange(100)) for _ in range(rng.randrange(40))]
            nf = stateful_nf(100, working_set=range(20))
            report = migrate_post_copy(nf, Channel(100, 0), params, trace)
            downtimes.add(report.downtime_us)
            assert report.bytes_transferred == 100
        assert downtimes == {200_000}

    def test_stateless_rejected(self):
        with pytest.raises(StrategyInapplicableError):
            migrate_post_copy(stateless_upf(), Channel(100, 0), MigrationParams(), [])

    @pytest.mark.parametrize("trace", [[(0, 99)], [(-1, 0)]])
    def test_rejected_trace_leaves_the_image_as_it_was(self, trace):
        nf = stateful_nf(8)
        image = nf.memory
        image.copy_all()
        with pytest.raises(ValueError):
            migrate_post_copy(nf, Channel(100, 0), MigrationParams(), trace)
        assert (image.clean_count, image.dirty_count, image.never_copied_count) == (8, 0, 0)

    @pytest.mark.parametrize("offset", [math.nan, math.inf])
    def test_nan_or_infinite_offset_rejected(self, offset):
        nf = stateful_nf(8)
        with pytest.raises(ValueError, match=f"access offset must be finite and >= 0, got {offset}"):
            migrate_post_copy(nf, Channel(100, 0), MigrationParams(), [(offset, 7)])
        assert nf.memory.never_copied_count == 8

    def test_stream_cost_grows_with_fetches_not_pages(self, monkeypatch):
        # The touches are walked by stream rank; the image is read and written
        # a fixed number of times, however many touches and fetches there are.
        calls = []

        def counted(name, method):
            def wrapper(*args):
                calls.append(name)
                return method(*args)

            return wrapper

        for name, member in vars(MemoryImage).items():
            if isinstance(member, property):
                monkeypatch.setattr(MemoryImage, name, property(counted(name, member.fget)))
            elif callable(member) and not name.startswith("__"):
                monkeypatch.setattr(MemoryImage, name, counted(name, member))
        params = MigrationParams(**ZERO_OVERHEADS)
        channel = Channel(10**6, 3)
        stall = 2 * 3 + 1

        def memory_calls(trace):
            image = MemoryImage(10**4, 1)  # default working set: the lowest 20%
            nf = NfInstance("smf-t", NfKind.SMF, "h1", memory=image)
            calls.clear()
            report = migrate_post_copy(nf, channel, params, trace)
            made = list(calls)
            assert report.succeeded and image.all_clean
            return made, report.stall_time_us // stall

        few = [(0, 9_999), (10, 5_000), (20, 100), (30, 9_998), (1_000, 2_500)]
        rng = random.Random(5)
        many = [(rng.randrange(8_000), rng.randrange(10**4)) for _ in range(500)]
        few_calls, few_fetches = memory_calls(few)
        many_calls, many_fetches = memory_calls(many)
        assert few_fetches == 3  # pages 100 and 2,500 had arrived
        assert many_fetches > 100
        assert many_calls == few_calls


def reference_post_copy(image, channel, params, access_trace):
    """The page-by-page stream over a plain list of page states.

    Returns the report and the final state of every page.
    """
    num_pages, page_size = image.num_pages, image.page_size
    states = [PageState.NEVER_COPIED] * num_pages
    trace = sorted(access_trace, key=lambda item: item[0])
    working = sorted(image.working_set)
    ws_us = transfer_time_us(len(working), page_size, channel)
    for page in working:
        states[page] = PageState.CLEAN_AT_TARGET
    freeze, restart = params.freeze_overhead_us, params.restart_overhead_us
    downtime = freeze + ws_us + restart
    page_us = serialize_us(page_size, channel)
    latency = latency_ceil_us(channel)
    background = deque(p for p in range(num_pages) if states[p] is PageState.NEVER_COPIED)
    fetched = set()
    stream_clock = downtime + (latency if background else 0)
    last_arrival = downtime
    stall_total = 0
    failure = None
    for offset, page in trace:
        access_at = downtime + offset + stall_total
        while background:
            head = background[0]
            if head in fetched:
                background.popleft()
                continue
            if stream_clock + page_us > access_at:
                break
            background.popleft()
            stream_clock += page_us
            states[head] = PageState.CLEAN_AT_TARGET
            last_arrival = stream_clock
        if states[page] is PageState.CLEAN_AT_TARGET:
            continue
        stall = 2 * latency + page_us
        stall_total += stall
        states[page] = PageState.CLEAN_AT_TARGET
        fetched.add(page)
        last_arrival = max(last_arrival, access_at + stall)
        stream_clock += stall
        if stall > params.postcopy_fault_deadline_us:
            failure = "fault deadline exceeded"
            break
    if failure is None:
        for head in background:
            if head not in fetched:
                stream_clock += page_us
                states[head] = PageState.CLEAN_AT_TARGET
                last_arrival = stream_clock
    phases = [
        Phase("freeze", freeze),
        Phase("copy-working-set", ws_us),
        Phase("restart", restart),
    ]
    if last_arrival > downtime:
        phases.append(Phase("background-stream", last_arrival - downtime, down=False))
    report = MigrationReport(
        Strategy.POST_COPY,
        bytes_transferred=states.count(PageState.CLEAN_AT_TARGET) * page_size,
        stall_time_us=stall_total,
        failure_reason=failure,
        phases=tuple(phases),
    )
    return report, states


def whole_or_half_us(top):
    """Durations up to ``top``; the half-microsecond ones are floats."""
    return st.one_of(st.integers(0, top), st.integers(0, 2 * top).map(lambda n: n / 2))


@st.composite
def post_copy_cases(draw):
    num_pages = draw(st.integers(0, 60))
    page_size = draw(st.integers(1, 4))
    if draw(st.booleans()):
        image = MemoryImage(
            num_pages, page_size, working_set_fraction=draw(st.sampled_from([0, 0.2, 0.5, 1]))
        )
    else:
        pages = st.integers(0, num_pages - 1) if num_pages else st.nothing()
        image = MemoryImage(num_pages, page_size, working_set=draw(st.sets(pages)))
    bandwidth = draw(st.sampled_from([None, 1, 3, 7, 1_000, 10**6]))
    channel = Channel(bandwidth, draw(st.sampled_from([0, 0.25, 1, 2.5, 40])))
    stall = 2 * latency_ceil_us(channel) + serialize_us(page_size, channel)
    params = MigrationParams(
        freeze_overhead_us=draw(st.integers(0, 30)),
        restart_overhead_us=draw(st.integers(0, 30)),
        postcopy_fault_deadline_us=max(0, stall + draw(st.integers(-2, 2))),
    )
    page_us = serialize_us(page_size, channel)
    horizon = 2 * (num_pages * page_us + 50)
    trace = []
    for _ in range(draw(st.integers(0, 80)) if num_pages else 0):
        if draw(st.booleans()):
            trace.append((draw(whole_or_half_us(horizon)), draw(st.integers(0, num_pages - 1))))
        else:  # about when the k-th streamed page lands, to probe the stream's edge
            k = draw(st.integers(0, num_pages))
            offset = max(0, latency_ceil_us(channel) + k * page_us + draw(st.integers(-1, 1)))
            page = len(image.working_set) + k + draw(st.integers(-1, 0))
            trace.append((offset, min(num_pages - 1, max(0, page))))
    return image, channel, params, trace


@settings(max_examples=200, deadline=None)
@given(case=post_copy_cases())
def test_post_copy_matches_page_by_page_reference(case):
    image, channel, params, trace = case
    expected, states = reference_post_copy(image, channel, params, trace)
    nf = NfInstance("smf-t", NfKind.SMF, "h1", memory=image)
    assert migrate_post_copy(nf, channel, params, trace) == expected
    assert [image.page_state(page) for page in range(image.num_pages)] == states


class TestReplicaSync:
    def params(self, **kwargs):
        merged = dict(ZERO_OVERHEADS, ppm_sync_interval_us=100_000)
        merged.update(kwargs)
        return MigrationParams(**merged)

    def test_zero_rate_ticks_transfer_nothing(self):
        nf = stateful_nf(100)
        replica = start_replica_sync(nf, Channel(100, 0), self.params(), ConstantRateDirty(0))
        replica.run_until_ticks(3)
        assert [tick.pages for tick in replica.tick_log] == [0, 0, 0]
        assert replica.sync_bytes == 100

    def test_steady_state_one_page_per_tick(self):
        nf = stateful_nf(100)
        replica = start_replica_sync(nf, Channel(100, 0), self.params(), ConstantRateDirty(10))
        replica.run_until_ticks(5)
        # The flush tick drains the backlog from the initial copy; after
        # that each 100 ms interval dirties exactly one page.
        assert [tick.pages for tick in replica.tick_log] == [10, 1, 1, 1, 1]

    def test_sync_bytes_accumulate(self):
        nf = stateful_nf(100)
        replica = start_replica_sync(nf, Channel(100, 0), self.params(), ConstantRateDirty(10))
        replica.run_until_ticks(4)
        expected = 100 + sum(tick.pages for tick in replica.tick_log)
        assert replica.sync_bytes == expected

    def test_stateless_rejected(self):
        with pytest.raises(StrategyInapplicableError):
            start_replica_sync(
                stateless_upf(), Channel(100, 0), self.params(), ConstantRateDirty(0)
            )


class TestParallelHandover:
    def params(self, **kwargs):
        merged = dict(ZERO_OVERHEADS, ppm_sync_interval_us=100_000)
        merged.update(kwargs)
        return MigrationParams(**merged)

    def test_worked_example_delta_of_one_page(self):
        nf = stateful_nf(100)
        params = self.params()
        replica = start_replica_sync(nf, Channel(100, 0), params, ConstantRateDirty(10))
        handover_at = replica.run_until_ticks(1)
        report = migrate_parallel(replica, params, at_time_us=handover_at)
        # The 100-page copy takes 1 s, during which 10 pages dirty; the tick
        # fired at 1 s ships them in 100 ms, during which 1 page dirties.
        assert [(name, span) for name, span, _ in report.phases[:2]] == [
            ("sync-copy", 1_000_000),
            ("sync-tick-1", 100_000),
        ]
        assert report.downtime_us == 10_000
        assert report.migration_time_us == 1_000_000 + 100_000 + 10_000
        assert report.bytes_transferred == 1
        assert report.sync_bytes == 110
        assert nf.memory.all_clean

    def test_perfectly_synced_replica_zero_downtime(self):
        nf = stateful_nf(100)
        params = self.params()
        replica = start_replica_sync(nf, Channel(100, 0), params, ConstantRateDirty(0))
        handover_at = replica.run_until_ticks(1)
        report = migrate_parallel(replica, params, at_time_us=handover_at)
        assert report.downtime_us == 0
        assert report.bytes_transferred == 0

    def test_overheads_and_signaling(self):
        nf = stateful_nf(100)
        params = MigrationParams(
            freeze_overhead_us=100,
            activation_overhead_us=200,
            handover_signal_roundtrips=2,
            ppm_sync_interval_us=100_000,
        )
        replica = start_replica_sync(nf, Channel(100, 50), params, ConstantRateDirty(0))
        handover_at = replica.run_until_ticks(1)
        report = migrate_parallel(replica, params, at_time_us=handover_at)
        assert report.downtime_us == 100 + 0 + 2 * 2 * 50 + 200

    def test_handover_before_initial_copy_rejected(self):
        nf = stateful_nf(100)
        params = self.params()
        replica = start_replica_sync(nf, Channel(100, 0), params, ConstantRateDirty(0))
        assert replica.now_us == 1_000_000  # the initial copy has landed
        with pytest.raises(ValueError, match="replica's clock t=1000000 us, not t=999999 us"):
            migrate_parallel(replica, params, at_time_us=replica.now_us - 1)

    def test_replica_cannot_hand_over_twice(self):
        nf = stateful_nf(10)
        params = self.params()
        replica = start_replica_sync(nf, Channel(100, 0), params, ConstantRateDirty(0))
        migrate_parallel(replica, params, at_time_us=replica.run_until_ticks(1))
        with pytest.raises(InvariantViolation):
            migrate_parallel(replica, params)

    def test_replica_cannot_run_after_the_handover(self):
        nf = stateful_nf(10)
        params = self.params()
        replica = start_replica_sync(nf, Channel(100, 0), params, ConstantRateDirty(0))
        migrate_parallel(replica, params, at_time_us=replica.run_until_ticks(1))
        with pytest.raises(InvariantViolation, match="replica already handed over"):
            replica.run_until_ticks(2)

    def test_downtime_monotone_in_delta(self):
        params = self.params()
        downtimes = []
        for rate in (0, 5, 20, 60):
            nf = stateful_nf(100)
            replica = start_replica_sync(nf, Channel(100, 0), params, ConstantRateDirty(rate))
            handover_at = replica.run_until_ticks(1)
            downtimes.append(migrate_parallel(replica, params, at_time_us=handover_at).downtime_us)
        assert downtimes == sorted(downtimes)

    def test_beats_pre_copy_on_shared_workload(self):
        channel = Channel(100, 0)
        pre_params = MigrationParams(
            precopy_stop_threshold=2, precopy_max_rounds=10, **ZERO_OVERHEADS
        )
        pre = migrate_pre_copy(stateful_nf(100), channel, pre_params, ConstantRateDirty(10))
        ppm_params = self.params()
        replica = start_replica_sync(
            stateful_nf(100), channel, ppm_params, ConstantRateDirty(10)
        )
        ppm = migrate_parallel(replica, ppm_params, at_time_us=replica.run_until_ticks(1))
        assert ppm.downtime_us <= pre.downtime_us
        assert ppm.sync_bytes > 0


def landing_us(pages, page_size, channel):
    """Microseconds from a batch's firing to its landing: serialization, then the
    latency rounded up; 0 for an empty batch."""
    if pages == 0:
        return 0
    serialize = 0
    if channel.bandwidth_bps is not None:
        nbytes = Fraction(pages * page_size * 10**6)
        serialize = math.ceil(nbytes / Fraction(channel.bandwidth_bps))
    return serialize + math.ceil(channel.latency_us)


def constant_rate_dirtied(rate, num_pages):
    """``dirtied(span_us)``: the pages ``rate`` dirties over consecutive spans,
    each count capped at the image, the fraction carried to the next span."""
    carry = Fraction(0)

    def dirtied(span_us):
        nonlocal carry
        accumulated = Fraction(rate) * Fraction(span_us, 10**6) + carry
        carry = accumulated - math.floor(accumulated)
        return min(num_pages, math.floor(accumulated))

    return dirtied


def reference_replica(num_pages, page_size, channel, interval, rate, n):
    """Sync ticks and handover delta of a replica under constant-rate dirtying.

    Tick ``k`` fires at ``fire_k`` and ships every page dirtied since
    ``fire_{k-1}`` (the replica's start for the first tick), capped at the
    image; the first tick fires when the initial copy lands and each later
    one at ``max(fire + interval, done)``.  After ``n`` ticks the handover
    ships what dirtied since the last fire.  Returns (ticks, delta).
    """
    dirtied = constant_rate_dirtied(rate, num_pages)
    previous_fire, fire = 0, landing_us(num_pages, page_size, channel)
    ticks = []
    for _ in range(n):
        pages = dirtied(fire - previous_fire)
        done = fire + landing_us(pages, page_size, channel)
        ticks.append((fire, pages, done))
        previous_fire, fire = fire, max(fire + interval, done)
    now = ticks[-1][2] if ticks else landing_us(num_pages, page_size, channel)
    return ticks, dirtied(now - previous_fire)


def reference_pre_copy(num_pages, page_size, channel, rate, threshold, max_rounds):
    """(rounds, downtime, migration time, pages) of a pre-copy with no overheads
    under constant-rate dirtying.

    Each round ships the pages dirtied during the previous one (the whole
    image first) and lasts until it lands, latency included.  Rounds stop
    once the pages dirtied during a round are at most ``threshold``, or at
    ``max_rounds``; those pages then ship frozen, which is the downtime.
    """
    dirtied = constant_rate_dirtied(rate, num_pages)
    batch, rounds, elapsed, pages = num_pages, 0, 0, 0
    while True:
        span = landing_us(batch, page_size, channel)
        residual = dirtied(span)
        rounds, elapsed, pages = rounds + 1, elapsed + span, pages + batch
        if residual <= threshold or rounds == max_rounds:
            break
        batch = residual
    downtime = landing_us(residual, page_size, channel)
    return rounds, downtime, elapsed + downtime, pages + residual


replica_channels = st.builds(
    Channel,
    st.sampled_from([None, 1, 3, 7, 100, 10**4]),
    st.sampled_from([0, 0.25, 1, 2.5, 40]),
)
dirty_rates = st.one_of(st.integers(0, 300), st.sampled_from([0.5, 2.5, 1e-3, 1e4]))


@settings(max_examples=200, deadline=None)
@given(
    num_pages=st.integers(0, 40),
    page_size=st.integers(1, 4),
    channel=replica_channels,
    interval=st.integers(0, 3_000_000),
    rate=dirty_rates,
    n=st.integers(0, 6),
)
def test_replica_matches_constant_rate_recurrence(num_pages, page_size, channel, interval, rate, n):
    ticks, delta = reference_replica(num_pages, page_size, channel, interval, rate, n)
    params = MigrationParams(**ZERO_OVERHEADS, ppm_sync_interval_us=interval)
    replica = start_replica_sync(
        stateful_nf(num_pages, page_size), channel, params, ConstantRateDirty(rate)
    )
    now = replica.run_until_ticks(n)
    assert [(t.fired_at_us, t.pages, t.done_us) for t in replica.tick_log] == ticks
    assert replica.ticks_completed == n
    assert replica.sync_bytes == (num_pages + sum(t[1] for t in ticks)) * page_size
    report = migrate_parallel(replica, params, at_time_us=now)
    assert report.bytes_transferred == delta * page_size
    assert report.migration_time_us == now + report.downtime_us
    assert report.downtime_us == transfer_time_us(delta, page_size, channel)
    # The sync phases run from each landing to the next, from the replica's start.
    landings = [landing_us(num_pages, page_size, channel)] + [t[2] for t in ticks]
    sync = [("sync-copy", landings[0], False)] + [
        (f"sync-tick-{k}", landings[k] - landings[k - 1], False) for k in range(1, n + 1)
    ]
    assert report.phases[: n + 1] == tuple(sync)
    assert report.sync_bytes == replica.sync_bytes


@settings(max_examples=200, deadline=None)
@given(
    num_pages=st.integers(0, 40),
    page_size=st.integers(2, 4),
    channel=replica_channels,
    rate=dirty_rates,
    threshold=st.integers(0, 10),
    max_rounds=st.integers(1, 8),
)
@example(
    num_pages=40, page_size=4, channel=Channel(None, 2.5), rate=300, threshold=0, max_rounds=8
)
@example(
    num_pages=40, page_size=3, channel=Channel(7, 0.25), rate=2.5, threshold=0, max_rounds=4
)
def test_pre_copy_matches_constant_rate_recurrence(
    num_pages, page_size, channel, rate, threshold, max_rounds
):
    # The closed form above covers zero latency and 1-byte pages; this
    # recurrence covers latency, larger pages and no bandwidth limit.
    params = MigrationParams(
        **ZERO_OVERHEADS, precopy_stop_threshold=threshold, precopy_max_rounds=max_rounds
    )
    nf = stateful_nf(num_pages, page_size)
    report = migrate_pre_copy(nf, channel, params, ConstantRateDirty(rate))
    rounds, downtime, migration_time, pages = reference_pre_copy(
        num_pages, page_size, channel, rate, threshold, max_rounds
    )
    assert report.rounds == rounds
    assert report.downtime_us == downtime
    assert report.migration_time_us == migration_time
    assert report.bytes_transferred == pages * page_size
    assert nf.memory.all_clean


def replica_dirty_process(bernoulli, rate, seed):
    if bernoulli:
        return BernoulliDirty(rate / 1000, random.Random(seed))
    return ConstantRateDirty(rate)


def replica_state(replica):
    image = replica.image
    return (
        replica.now_us,
        replica.tick_log,
        replica.sync_bytes,
        [image.page_state(page) for page in range(image.num_pages)],
    )


@settings(max_examples=100, deadline=None)
@given(
    num_pages=st.integers(0, 40),
    channel=replica_channels,
    interval=st.integers(0, 300_000),
    bernoulli=st.booleans(),
    rate=st.integers(0, 300),
    seed=st.integers(0, 2**16),
    a=st.integers(0, 5),
    extra=st.integers(0, 5),
)
def test_run_until_ticks_in_two_calls_equals_one(
    num_pages, channel, interval, bernoulli, rate, seed, a, extra
):
    params = MigrationParams(**ZERO_OVERHEADS, ppm_sync_interval_us=interval)
    split = start_replica_sync(
        stateful_nf(num_pages), channel, params, replica_dirty_process(bernoulli, rate, seed)
    )
    whole = start_replica_sync(
        stateful_nf(num_pages), channel, params, replica_dirty_process(bernoulli, rate, seed)
    )
    split.run_until_ticks(a)
    split.run_until_ticks(a + extra)
    whole.run_until_ticks(a + extra)
    assert replica_state(split) == replica_state(whole)
    assert migrate_parallel(split, params) == migrate_parallel(whole, params)


@settings(max_examples=200, deadline=None)
@given(
    num_pages=st.integers(0, 40),
    page_size=st.integers(1, 4),
    channel=replica_channels,
    bernoulli=st.booleans(),
    rate=st.integers(0, 300),
    seed=st.integers(0, 2**16),
)
def test_a_one_tick_replica_is_a_two_round_pre_copy(
    num_pages, page_size, channel, bernoulli, rate, seed
):
    params = MigrationParams(**ZERO_OVERHEADS, precopy_stop_threshold=0, precopy_max_rounds=2)
    pre_dirty, ppm_dirty = (replica_dirty_process(bernoulli, rate, seed) for _ in range(2))
    pre = migrate_pre_copy(stateful_nf(num_pages, page_size), channel, params, pre_dirty)
    replica = start_replica_sync(stateful_nf(num_pages, page_size), channel, params, ppm_dirty)
    replica.run_until_ticks(1)
    ppm = migrate_parallel(replica, params)
    (tick,) = replica.tick_log
    spans = {name: span for name, span, _ in pre.phases + ppm.phases}
    copy_us = transfer_time_us(num_pages, page_size, channel)
    # Pre-copy stops after one round only when nothing dirtied during it; the
    # tick, fired where the initial copy lands, then ships nothing.
    assert pre.rounds == 2 or tick.pages == 0
    assert tick.fired_at_us == copy_us
    sync = [spans["sync-copy"], spans["sync-tick-1"]]
    assert sync == [copy_us, tick.done_us - tick.fired_at_us]
    assert [spans[f"copy-round-{k}"] for k in range(1, pre.rounds + 1)] == sync[: pre.rounds]
    assert spans["copy-residual"] == spans["copy-delta"]
    assert pre.bytes_transferred == ppm.sync_bytes + ppm.bytes_transferred
    assert pre.migration_time_us == ppm.migration_time_us


@settings(max_examples=50, deadline=None)
@given(n=st.integers(0, 4), offset=st.integers(-10**6, 10**6).filter(bool))
def test_handover_away_from_the_replica_clock_rejected(n, offset):
    params = MigrationParams(**ZERO_OVERHEADS, ppm_sync_interval_us=100_000)
    replica = start_replica_sync(stateful_nf(100), Channel(100, 0), params, ConstantRateDirty(10))
    now = replica.run_until_ticks(n)
    with pytest.raises(ValueError, match="replica's clock"):
        migrate_parallel(replica, params, at_time_us=now + offset)


@settings(max_examples=100, deadline=None)
@given(
    num_pages=st.integers(0, 40),
    channel=replica_channels,
    bernoulli=st.booleans(),
    rate=st.integers(0, 300),
    seed=st.integers(0, 2**16),
)
def test_handover_right_after_the_initial_copy(num_pages, channel, bernoulli, rate, seed):
    params = MigrationParams(**ZERO_OVERHEADS)
    replica = start_replica_sync(
        stateful_nf(num_pages), channel, params, replica_dirty_process(bernoulli, rate, seed)
    )
    copy_us = transfer_time_us(num_pages, 1, channel)
    assert replica.now_us == replica.run_until_ticks(0) == copy_us
    # The same dirty process run alone over the copy's span.
    twin = MemoryImage(num_pages, 1)
    twin.copy_all()
    dirtied = advance_dirty(twin, replica_dirty_process(bernoulli, rate, seed), copy_us)
    report = migrate_parallel(replica, params, at_time_us=copy_us)
    assert replica.tick_log == []
    assert report.bytes_transferred == dirtied == twin.dirty_count
    assert report.sync_bytes == num_pages


class TestRedeploy:
    def test_upf_redeploy_costs_one_restart(self):
        report = redeploy_stateless(
            stateless_upf(), MigrationParams(restart_overhead_us=50_000)
        )
        assert report.strategy is Strategy.NO_MIGRATION_REDEPLOY
        assert report.downtime_us == 50_000
        assert report.migration_time_us == 50_000
        assert report.bytes_transferred == 0

    def test_zero_restart(self):
        report = redeploy_stateless(stateless_upf(), MigrationParams(restart_overhead_us=0))
        assert report.downtime_us == 0

    def test_stateful_rejected(self):
        with pytest.raises(StrategyInapplicableError):
            redeploy_stateless(stateful_nf(10), MigrationParams())


def handed_over(channel, params):
    replica = start_replica_sync(stateful_nf(100), channel, params, ConstantRateDirty(10))
    replica.run_until_ticks(1)
    return migrate_parallel(replica, params)


@pytest.mark.parametrize(
    "migrate, down",
    [
        (
            lambda c, p: migrate_inter_copy(stateful_nf(100), c, p),
            {"freeze": True, "copy-image": True, "restart": True},
        ),
        (
            lambda c, p: migrate_pre_copy(stateful_nf(100), c, p, ConstantRateDirty(10)),
            {
                "copy-round-1": False,
                "copy-round-2": False,
                "freeze": True,
                "copy-residual": True,
                "restart": True,
            },
        ),
        (
            lambda c, p: migrate_post_copy(stateful_nf(100, working_set=range(20)), c, p, []),
            {"freeze": True, "copy-working-set": True, "restart": True, "background-stream": False},
        ),
        (
            handed_over,
            {
                "sync-copy": False,
                "sync-tick-1": False,
                "freeze": True,
                "copy-delta": True,
                "handover-signal": True,
                "activate-replica": True,
            },
        ),
        (lambda c, p: redeploy_stateless(stateless_upf(), p), {"restart": True}),
    ],
    ids=[strategy.value for strategy in Strategy],
)
def test_downtime_sums_the_down_phases(migrate, down):
    report = migrate(Channel(100, 5), MigrationParams(precopy_stop_threshold=2))
    assert {name: is_down for name, _, is_down in report.phases} == down
    # The strategies build phases by ``tuple.__new__``: each is still a whole Phase.
    for phase in report.phases:
        assert type(phase) is Phase and len(phase) == 3 and type(phase.down) is bool
    assert report.downtime_us == sum(span for name, span, _ in report.phases if down[name])
    assert 0 < report.downtime_us <= report.migration_time_us


def test_a_report_is_slotted_and_frozen():
    report = redeploy_stateless(stateless_upf(), MigrationParams())
    assert not hasattr(report, "__dict__")
    with pytest.raises(AttributeError):
        report.rounds = 1
    assert report.rounds == 0
    assert report == report._replace()
    assert repr(report).startswith("MigrationReport(strategy=<Strategy.NO_MIGRATION_REDEPLOY")


class TestCrossStrategyInvariants:
    def test_downtime_never_exceeds_migration_time(self):
        rng = random.Random(55)
        channel = Channel(1000, 13)
        for _ in range(40):
            pages = rng.randrange(0, 300)
            params = MigrationParams(
                freeze_overhead_us=rng.randrange(0, 5000),
                restart_overhead_us=rng.randrange(0, 5000),
                precopy_stop_threshold=rng.randrange(0, 20),
                precopy_max_rounds=rng.randrange(1, 8),
            )
            reports = [
                migrate_inter_copy(stateful_nf(pages), channel, params),
                migrate_pre_copy(
                    stateful_nf(pages), channel, params, ConstantRateDirty(rng.randrange(500))
                ),
                migrate_post_copy(
                    stateful_nf(pages, working_set=range(pages // 4)), channel, params, []
                ),
            ]
            for report in reports:
                assert report.downtime_us <= report.migration_time_us

    def test_stateful_strategies_move_at_least_the_image_once(self):
        channel = Channel(100, 0)
        params = MigrationParams(
            precopy_stop_threshold=2, precopy_max_rounds=10, ppm_sync_interval_us=100_000,
            **ZERO_OVERHEADS,
        )
        inter = migrate_inter_copy(stateful_nf(100), channel, params)
        pre = migrate_pre_copy(stateful_nf(100), channel, params, ConstantRateDirty(10))
        post = migrate_post_copy(stateful_nf(100, working_set=range(20)), channel, params, [])
        replica = start_replica_sync(stateful_nf(100), channel, params, ConstantRateDirty(10))
        ppm = migrate_parallel(replica, params, at_time_us=replica.run_until_ticks(1))
        assert inter.bytes_transferred == 100
        for report in (pre, post, ppm):
            assert report.bytes_transferred + report.sync_bytes >= 100


def scale_trace(rng, num_pages, horizon_us, touches=2_000):
    """Touches with half-microsecond offsets, equal offsets and repeated pages."""
    trace = []
    for _ in range(touches):
        offset = rng.randrange(2 * horizon_us) / 2
        page = rng.randrange(num_pages)
        if trace and rng.random() < 0.2:  # the same instant as an earlier touch
            offset = rng.choice(trace)[0]
        if trace and rng.random() < 0.2:  # a page touched before
            page = rng.choice(trace)[1]
        trace.append((offset, page))
    return trace


@pytest.mark.parametrize(
    "working_set, bandwidth, deadline_us, start_us, reach",
    [
        (None, 10**5, 500_000, 0, 1),  # default working set, 40 us per page
        ("tuple", 10**5, 500_000, 0, 1),
        (None, None, 500_000, 0, 1),  # no bandwidth limit: the stream lands at once
        ("tuple", 10**5, 50, 20_000, 1),  # the first fetch fails, after the stream started
        # Touches in the first tenth of the stream: hundreds fetch ahead of
        # it, and the stream head then skips nearly every fetched rank.
        ("tuple", 10**5, 500_000, 0, 10),
    ],
)
def test_post_copy_matches_page_by_page_reference_at_scale(
    working_set, bandwidth, deadline_us, start_us, reach
):
    """Touches go to the first ``1 / reach`` of the pages, over half the time
    the stream takes to send them."""
    num_pages, page_size = 2 * 10**4, 4
    rng = random.Random(num_pages + start_us)
    if working_set == "tuple":
        working_set = rng.sample(range(num_pages), num_pages // 5)
    image = MemoryImage(num_pages, page_size, working_set=working_set)
    channel = Channel(bandwidth, 40)
    params = MigrationParams(postcopy_fault_deadline_us=deadline_us)
    touched = num_pages // reach
    horizon_us = (touched * serialize_us(page_size, channel) or 200) // 2
    trace = [(start_us + offset, page) for offset, page in scale_trace(rng, touched, horizon_us)]
    expected, states = reference_post_copy(image, channel, params, trace)
    nf = NfInstance("smf-t", NfKind.SMF, "h1", memory=image)
    report = migrate_post_copy(nf, channel, params, trace)
    assert report == expected
    assert [image.page_state(page) for page in range(num_pages)] == states
    assert report.stall_time_us > 0
    if deadline_us < report.stall_time_us:
        assert not report.succeeded
        assert report.bytes_transferred > (num_pages // 5 + 1) * page_size  # some pages streamed


def test_post_copy_reports_match_the_golden_file():
    golden = Path(__file__).parent / "data" / "post_copy_reports.golden"
    assert "".join(post_copy_golden.reports()) == golden.read_text(encoding="utf-8")


def test_replica_bernoulli_reports_match_the_golden_file():
    # Ticks land inside the sync interval, so draws meet clean and dirty images alike.
    golden = Path(__file__).parent / "data" / "replica_bernoulli_reports.golden"
    assert "".join(replica_bernoulli_golden.reports()) == golden.read_text(encoding="utf-8")
