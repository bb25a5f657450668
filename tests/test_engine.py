"""Event ordering, clock semantics and seeded random streams."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfmigsim import Event, SchedulingInPastError, Simulator, rng_stream


def collect(sim, log):
    def handler(sim_, event):
        log.append((event.time_us, event.kind))

    return handler


class TestScheduling:
    def test_events_process_in_time_order(self):
        sim = Simulator()
        log = []
        handler = collect(sim, log)
        sim.schedule(30, "c", handler)
        sim.schedule(10, "a", handler)
        sim.schedule(20, "b", handler)
        sim.run_until(100)
        assert log == [(10, "a"), (20, "b"), (30, "c")]

    def test_equal_times_break_ties_by_schedule_order(self):
        sim = Simulator()
        log = []
        handler = collect(sim, log)
        sim.schedule(100, "first", handler)
        sim.schedule(100, "second", handler)
        sim.run_until(100)
        assert [kind for _, kind in log] == ["first", "second"]

    def test_schedule_at_now_runs_before_later_events(self):
        sim = Simulator()
        log = []
        handler = collect(sim, log)
        sim.schedule(50, "later", handler)
        sim.schedule(0, "now", handler)
        sim.run_until(60)
        assert log[0] == (0, "now")

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, "x")
        sim.run_until(10)
        with pytest.raises(SchedulingInPastError):
            sim.schedule(9, "too-late")

    def test_handler_may_schedule_followups(self):
        sim = Simulator()
        log = []

        def chained(sim_, event):
            log.append(sim_.now)
            if sim_.now < 30:
                sim_.schedule(sim_.now + 10, "tick", chained)

        sim.schedule(0, "tick", chained)
        sim.run_until(100)
        assert log == [0, 10, 20, 30]


class TestRunUntil:
    def test_empty_queue_returns_empty_trace(self):
        sim = Simulator()
        assert sim.run_until(10**6) == []

    def test_run_until_before_the_clock_rejected(self):
        sim = Simulator()
        sim.schedule(10, "e")
        sim.run_until(10)
        with pytest.raises(ValueError, match=r"t_end=9 us is before the current clock \(10 us\)"):
            sim.run_until(9)

    def test_boundary_is_inclusive(self):
        sim = Simulator()
        for t in (5, 10, 15):
            sim.schedule(t, "e")
        trace = sim.run_until(10)
        assert [e.time_us for e in trace] == [5, 10]

    def test_clock_stops_at_last_event_when_queue_drains(self):
        sim = Simulator()
        sim.schedule(8, "e")
        sim.run_until(100)
        assert sim.now == 8

    def test_clock_advances_to_horizon_when_events_remain(self):
        sim = Simulator()
        sim.schedule(8, "e")
        sim.schedule(15, "later")
        sim.run_until(10)
        assert sim.now == 10

    def test_causality(self):
        sim = Simulator()
        for t in (40, 10, 30, 20, 10):
            sim.schedule(t, "e")
        trace = sim.run_until(100)
        times = [e.time_us for e in trace]
        assert times == sorted(times)

    def test_conservation_every_scheduled_event_processed_once(self):
        sim = Simulator()
        scheduled = [sim.schedule(t, f"e{t}") for t in range(0, 200, 7)]
        trace = sim.run_until(150)
        assert trace == [event for event in scheduled if event.time_us <= 150]
        assert sim.run_until(300) == [event for event in scheduled if event.time_us > 150]

    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            sim = Simulator()
            rng = rng_stream("load", 99)
            for _ in range(200):
                sim.schedule(rng.randrange(10**6), "op", None, rng.random())
            return sim.run_until(10**6)

        first = build_and_run()
        second = build_and_run()
        assert first == second

    def test_callback_annotations_merge_into_the_recorded_event(self):
        sim = Simulator()
        seen = []

        def measure(sim_, event):
            seen.append(event.values)
            sim_.schedule(sim_.now, "after")
            return (656,)

        scheduled = sim.schedule(10, "sample", measure, "smf-1")
        sim.schedule(10, "plain", lambda sim_, event: None)
        trace = sim.run_until(100)
        assert seen == [("smf-1",)]  # the callback sees the values as scheduled
        assert [(e.kind, e.values) for e in trace] == [
            ("sample", ("smf-1", 656)),
            ("plain", ()),
            ("after", ()),
        ]
        assert sim.trace == trace
        assert scheduled.values == ("smf-1",)  # the scheduled event is never changed


class HeapOnlySimulator:
    """Every event, annotations included, through one heap: the reference engine."""

    def __init__(self):
        self.now = 0
        self._seq = 0
        self._heap = []
        self.trace = []

    def schedule(self, time_us, kind, callback=None, *values):
        if time_us < self.now:
            raise SchedulingInPastError(f"{time_us} < {self.now}")
        event = Event(time_us, self._seq, kind, values)
        self._seq += 1
        heapq.heappush(self._heap, (time_us, event.seq, event, callback))
        return event

    def run_until(self, t_end_us):
        processed = []
        while self._heap and self._heap[0][0] <= t_end_us:
            _, _, event, callback = heapq.heappop(self._heap)
            self.now = event.time_us
            if callback is not None:
                notes = callback(self, event)
                if notes:
                    event = Event(event.time_us, event.seq, event.kind, event.values + notes)
            processed.append(event)
            self.trace.append(event)
        if self._heap:
            self.now = t_end_us
        return processed


# An event is (delay, None) for an annotation, or (delay, (children, notes)) for
# one whose callback schedules ``children`` relative to its own time and
# returns ``notes``.  Delay 0 is common, so ties at one time are common.
DELAYS = st.sampled_from([0, 0, 0, 1, 5]) | st.integers(0, 40)
NOTES = st.none() | st.lists(st.integers(), max_size=2).map(tuple)
EVENT_SPECS = st.recursive(
    st.tuples(DELAYS, st.none()),
    lambda children: st.tuples(DELAYS, st.tuples(st.lists(children, max_size=3), NOTES)),
    max_leaves=10,
)
# Each step schedules a few events from outside, at now + delay, then runs to
# now + advance.
STEPS = st.lists(
    st.tuples(st.lists(EVENT_SPECS, max_size=4), st.integers(0, 60)), min_size=1, max_size=5
)


def drive(sim, steps):
    """Run ``steps`` on ``sim``; every observation the engine allows, in order."""
    observed = []

    def schedule(time_us, spec):
        if spec is None:
            return sim.schedule(time_us, "note", None, time_us)
        children, notes = spec

        def callback(sim_, event):
            observed.append(("callback", sim_.now, event))
            for delay, child in children:
                schedule(sim_.now + delay, child)
            return notes

        return sim.schedule(time_us, "call", callback, len(children))

    for specs, advance in steps:
        for delay, spec in specs:
            observed.append(("scheduled", schedule(sim.now + delay, spec)))
        processed = sim.run_until(sim.now + advance)
        observed.append(("run", processed, list(sim.trace), sim.now))
    return observed


@settings(max_examples=120, deadline=None)
@given(steps=STEPS)
def test_annotations_off_the_heap_match_a_heap_only_engine(steps):
    sim = Simulator()
    observed = drive(sim, steps)
    assert observed == drive(HeapOnlySimulator(), steps)
    # The engine builds events by ``tuple.__new__``, past Event's own ``__new__``.
    scheduled = [obs[1] for obs in observed if obs[0] == "scheduled"]
    for event in scheduled + sim.trace:
        assert type(event) is Event and len(event) == 4 and type(event.values) is tuple


class TestRngStreams:
    def test_same_label_and_seed_reproduce(self):
        a = rng_stream("alpha", 42)
        b = rng_stream("alpha", 42)
        assert [a.random() for _ in range(1000)] == [b.random() for _ in range(1000)]

    def test_different_labels_diverge(self):
        a = rng_stream("alpha", 42)
        b = rng_stream("beta", 42)
        assert [a.random() for _ in range(1000)] != [b.random() for _ in range(1000)]

    def test_different_seeds_diverge(self):
        a = rng_stream("alpha", 1)
        b = rng_stream("alpha", 2)
        assert [a.random() for _ in range(1000)] != [b.random() for _ in range(1000)]

    def test_uniform_mean(self):
        stream = rng_stream("uniformity", 7)
        draws = [stream.random() for _ in range(100_000)]
        assert abs(sum(draws) / len(draws) - 0.5) < 0.02
