"""Deterministic discrete-event core.

The virtual clock is an integer microsecond counter.  Events are processed
in (time, sequence) order, where the sequence number is assigned at
scheduling time, so simultaneous events replay in the order they were
scheduled.  All randomness flows through named sub-streams derived from the
simulation seed; adding a consumer of one stream never perturbs another.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Mapping

from .errors import SchedulingInPastError


@dataclass(frozen=True)
class Event:
    time_us: int
    seq: int
    kind: str
    data: Mapping[str, object] = field(default_factory=dict)


#: A callback may return annotations, which the trace records in the event's data.
EventCallback = Callable[["Simulator", Event], "Mapping[str, object] | None"]


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
        self._heap: list[tuple[int, int, Event, EventCallback | None]] = []
        self.trace: list[Event] = []

    @property
    def now(self) -> int:
        return self._now

    def schedule(
        self,
        time_us: int,
        kind: str,
        callback: EventCallback | None = None,
        **data: object,
    ) -> Event:
        """Enqueue an event at absolute virtual time ``time_us``; returns it as scheduled."""
        time_us = int(time_us)
        if time_us < self._now:
            raise SchedulingInPastError(
                f"cannot schedule '{kind}' at t={time_us} us; clock is at {self._now} us"
            )
        event = Event(time_us, self._seq, kind, data)
        self._seq += 1
        heapq.heappush(self._heap, (event.time_us, event.seq, event, callback))
        return event

    def run_until(self, t_end_us: int) -> list[Event]:
        """Process every pending event with time <= ``t_end_us``.

        Returns the ordered list of events processed by this call.  Each
        event is recorded after its callback, with the mapping the callback
        returns, if any, merged into its ``data``.  The clock ends at the
        last processed event when the queue drains, or at ``t_end_us`` when
        later events remain pending.
        """
        if t_end_us < self._now:
            raise ValueError(
                f"t_end={t_end_us} us is before the current clock ({self._now} us)"
            )
        processed: list[Event] = []
        while self._heap and self._heap[0][0] <= t_end_us:
            _, _, event, callback = heapq.heappop(self._heap)
            self._now = event.time_us
            if callback is not None:
                notes = callback(self, event)
                if notes:
                    event = Event(event.time_us, event.seq, event.kind, {**event.data, **notes})
            processed.append(event)
            self.trace.append(event)
        if self._heap:
            self._now = t_end_us
        return processed
