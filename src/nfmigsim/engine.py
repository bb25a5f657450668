"""Deterministic discrete-event core.

The virtual clock is an integer microsecond counter.  Events are processed
in (time, sequence) order, where the sequence number is assigned at
scheduling time, so simultaneous events replay in the order they were
scheduled.  An event without a callback is an annotation: it only records
something in the trace, so it never enters the queue and is merged into
the trace in (time, sequence) order when the clock passes it.  The engine
knows no schema: an event's values are a positional tuple, which the
caller's table of event kinds names.  All
randomness flows through named sub-streams derived from the simulation
seed; adding a consumer of one stream never perturbs another.
"""

from __future__ import annotations

import hashlib
import heapq
from operator import itemgetter
from random import Random
from typing import Callable, NamedTuple

from .errors import SchedulingInPastError


class Event(NamedTuple):
    """Built by ``tuple.__new__`` inside the engine, which skips the generated ``__new__``."""

    time_us: int
    seq: int
    kind: str
    values: tuple


#: A callback may return annotations, which the trace appends to the event's values.
EventCallback = Callable[["Simulator", Event], "tuple | None"]


def rng_stream(label: str, seed: int) -> Random:
    """An independent reproducible random stream for (label, seed).

    The stream state is derived by hashing, so it is stable across runs,
    platforms and process restarts.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return Random(int.from_bytes(digest[:8], "big"))


class Simulator:
    """Single-threaded event loop over a virtual microsecond clock.

    A simulator instance owns all mutable simulation state; separate
    instances share nothing and may run concurrently.
    """

    def __init__(self):
        self._now = 0
        self._seq = 0
        self._heap: list[tuple[int, int, Event, EventCallback]] = []
        # Annotations not yet recorded, in scheduling (seq) order.
        self._notes: list[Event] = []
        self.trace: list[Event] = []

    @property
    def now(self) -> int:
        return self._now

    def schedule(
        self,
        time_us: int,
        kind: str,
        callback: EventCallback | None = None,
        *values: object,
    ) -> Event:
        """Schedule an event with ``values`` at absolute virtual time ``time_us``; returns it.

        An event without a callback is an annotation: it waits in a list,
        not in the queue, until ``run_until`` records it.
        """
        time_us = int(time_us)
        if time_us < self._now:
            raise SchedulingInPastError(
                f"cannot schedule '{kind}' at t={time_us} us; clock is at {self._now} us"
            )
        seq = self._seq
        self._seq = seq + 1
        event = tuple.__new__(Event, (time_us, seq, kind, values))
        if callback is None:
            self._notes.append(event)
        else:
            heapq.heappush(self._heap, (time_us, seq, event, callback))
        return event

    def run_until(self, t_end_us: int) -> list[Event]:
        """Process every pending event with time <= ``t_end_us``.

        Returns the events processed by this call in (time, seq) order, and
        appends them to ``trace``.  Each event is recorded after its
        callback, with the tuple the callback returns, if any, appended to
        its ``values``.  The clock ends at the last processed event when
        nothing remains pending, or at ``t_end_us`` when later events do.
        """
        if t_end_us < self._now:
            raise ValueError(
                f"t_end={t_end_us} us is before the current clock ({self._now} us)"
            )
        heap, pop = self._heap, heapq.heappop
        processed: list[Event] = []
        while heap and heap[0][0] <= t_end_us:
            time_us, seq, event, callback = pop(heap)
            self._now = time_us
            notes = callback(self, event)
            if notes:
                event = tuple.__new__(Event, (time_us, seq, event.kind, event.values + notes))
            processed.append(event)
        # A callback schedules nothing before its own time, so the heap
        # order above is (time, seq) order.  The notes are in seq order, so a
        # stable sort by time puts them in (time, seq) order too, and the one
        # sort of both runs is a merge.
        notes = self._notes
        due = [event for event in notes if event.time_us <= t_end_us]
        if due:
            self._notes = [event for event in notes if event.time_us > t_end_us]
            due.sort(key=itemgetter(0))
            processed += due
            processed.sort()
        self.trace += processed
        if heap or self._notes:
            self._now = t_end_us
        elif processed:
            self._now = processed[-1].time_us
        return processed
