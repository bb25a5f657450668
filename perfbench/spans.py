"""In-memory span recording and self-time arithmetic for the traced run.

A span is one call of a wrapped function: its name, start and end on the
host's monotonic clock in nanoseconds, the span that was open when it
started (its parent, or -1), the operation it belongs to, and one work
count taken from the call's result (pages dirtied, events processed, ...).
Spans live in flat arrays until the run ends, so a million of them cost
tens of megabytes, not hundreds.

Self time is a span's duration minus the part of its interval that its
child spans cover.  Children are merged as intervals before subtracting,
so overlapping or out-of-range children are never counted twice or
outside their parent.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Callable, Iterable, Sequence

NO_PARENT = -1


class Tracer:
    """Records spans for wrapped functions; one open-span stack, no threads."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.value = array("q")
        self.counters: dict[str, int] = {}
        self.current_op = 0
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start_ns)

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, counter: str, amount: int) -> None:
        """Add to a named counter that belongs to no single span."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        measure: Callable[[object, tuple], int] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call under ``name``.

        ``measure(result, args)`` gives the span's work count; a call that
        raises records its span with a count of 0 and re-raises.
        """
        nid = self.intern(name)
        names, starts, ends = self.name_id, self.start_ns, self.end_ns
        parents, ops, values, stack = self.parent, self.op, self.value, self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else NO_PARENT)
            ops.append(tracer.current_op)
            values.append(0)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if measure is not None:
                values[sid] = measure(result, args)
            return result

        return traced

    def counting(
        self, counter: str, fn: Callable, measure: Callable[[object, tuple], int]
    ) -> Callable:
        """``fn`` adding ``measure(result, args)`` to ``counter``, without a span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.add(counter, measure(result, args))
            return result

        return counted

    def self_ns(self) -> list[int]:
        return self_times(self.start_ns, self.end_ns, self.parent)

    def write_tsv(self, path) -> None:
        """All spans, one line each: op, span, parent, name, start, end, count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\tcount\n")
            names = self.names
            for sid in range(len(self)):
                fh.write(
                    f"{self.op[sid]}\t{sid}\t{self.parent[sid]}\t{names[self.name_id[sid]]}\t"
                    f"{self.start_ns[sid]}\t{self.end_ns[sid]}\t{self.value[sid]}\n"
                )


def covered_ns(start: int, end: int, children: Iterable[tuple[int, int]]) -> int:
    """Length of the union of ``children`` intervals clipped to ``[start, end]``."""
    total = 0
    reach = start
    for c_start, c_end in sorted(children):
        c_start = max(c_start, reach)
        c_end = min(c_end, end)
        if c_end > c_start:
            total += c_end - c_start
            reach = c_end
    return total


def self_times(
    starts: Sequence[int], ends: Sequence[int], parents: Sequence[int]
) -> list[int]:
    """Each span's duration minus the time its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, parent in enumerate(parents):
        if parent != NO_PARENT:
            children.setdefault(parent, []).append((starts[sid], ends[sid]))
    result = [end - start for start, end in zip(starts, ends)]
    for sid, spans in children.items():
        result[sid] -= covered_ns(starts[sid], ends[sid], spans)
    return result
