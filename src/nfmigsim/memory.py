"""Paged memory image of a stateful network function.

Every page is in one of three states relative to the migration target:
already copied and unchanged since (clean), modified after its last copy
(dirty), or not transferred at all yet.  The dirty-page process models the
workload rewriting memory while the function keeps executing; it is the
quantity that decides how well the iterative strategies converge.

Two dirty models are provided.  The constant-rate model is fully
deterministic and keeps its fractional-page carry as an exact integer, so
the number of dirtied pages over a span of virtual time does not depend on
how that span is sliced into calls.  The Bernoulli model flips
each non-dirty page independently, drawing one byte per page from a seeded
stream for stochastic workloads.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import compress, repeat
from operator import sub
from random import Random
from typing import Iterable, Iterator, Sequence

from .errors import InvariantViolation, check_bound

MICROS_PER_SECOND = 10**6

DEFAULT_WORKING_SET_FRACTION = 0.2

#: The most pages one image may hold (one state byte each: 10 MB at the cap).
MAX_PAGES_PER_IMAGE = 10**7


class PageState(Enum):
    CLEAN_AT_TARGET = "clean-at-target"
    DIRTY_SINCE_COPY = "dirty-since-copy"
    NEVER_COPIED = "never-copied"


class BatchFilter(Enum):
    ALL = "all"
    DIRTY_ONLY = "dirty-only"
    WORKING_SET_ONLY = "working-set-only"
    NEVER_COPIED_ONLY = "never-copied-only"


# One state byte per page.  The bulk transitions below are slice assignments,
# ``bytearray.translate``, ``find``, ``count`` and big-integer bit operations,
# which run in C; Python steps are spent per run of pages or per 16 KiB slice,
# never per page of the image (the Bernoulli model's steps are one per 256
# pages on average).  Bit 0 of a byte means dirty and bit 1 never copied.  So
# ``dirty_slice`` writes a hit mask as the state of an all-clean slice, and
# only a slice with dirty or never-copied pages pays the big-integer pass over
# state and mask.
#
# Every write lands in the one state buffer, in place.  Of the operations that
# set page states, only the constructor and ``reset_for_transfer`` allocate
# image-sized memory: a Bernoulli draw goes 16 KiB at a time, so its
# temporaries fit the holes of a fragmented heap and never grow it.  A fresh
# buffer pays a minor page fault per 4 KiB it touches (456 for 10^6 pages),
# and ``bytearray[a:b] = x`` first copies any ``x`` that is not a
# ``bytearray`` into a temporary of its size.  So a run of clean pages is
# written from ``_ZEROS`` through a ``memoryview`` of the state, which copies
# straight from the source, and so is every ``bytes`` source.  ``_ZEROS`` is
# calloc'd: its pages map the kernel's shared zero page, so reading it, all
# 10 MB of it included, adds nothing resident.
_CLEAN, _DIRTY, _NEVER = 0, 1, 2
_STATES = (PageState.CLEAN_AT_TARGET, PageState.DIRTY_SINCE_COPY, PageState.NEVER_COPIED)
_DIRTY_TO_CLEAN = bytes((_CLEAN, _CLEAN, _NEVER)) + bytes(253)
_ONLY_DIRTY = bytes((0, 1, 0)) + bytes(253)
_ONLY_NEVER = bytes((0, 0, 1)) + bytes(253)
# ``_BELOW[k]`` maps a random byte to 1 if it is below ``k``, else to 0.
_BELOW = tuple(bytes((1,)) * k + bytes(256 - k) for k in range(257))
_ZEROS = memoryview(bytes(MAX_PAGES_PER_IMAGE))
# Masks, random bytes and span translations go 16 KiB at a time.  The size is a
# multiple of 4: ``Random.randbytes`` draws whole 32-bit words, so a run of
# calls of this size yields the bytes of one call for the whole image.
_CHUNK = 1 << 14


class MemoryImage:
    """Per-page transfer bookkeeping for one function instance.

    The image never stores page contents, only transfer state: one byte per
    page plus running dirty and never-copied counts, so every count is O(1).
    ``frozen`` marks spans where the owning function is checkpoint-frozen;
    advancing the dirty process during such a span is a programming error
    and raises.
    """

    def __init__(
        self,
        num_pages: int,
        page_size: int,
        working_set: Iterable[int] | None = None,
        working_set_fraction: float | None = None,
    ):
        check_bound("num_pages", num_pages, 0, MAX_PAGES_PER_IMAGE, integer=True)
        check_bound("page_size", page_size, integer=True)  # first, so "4096" is a ValueError
        check_bound("page_size", page_size, above=0)
        self._num_pages = num_pages
        self._page_size = page_size
        fraction = (
            DEFAULT_WORKING_SET_FRACTION if working_set_fraction is None else working_set_fraction
        )
        check_bound("working_set_fraction", fraction, 0, 1)
        ws: Sequence[int]
        if working_set is not None:
            pages = tuple(working_set)
            for page_id in pages:
                check_bound("working_set page id", page_id, integer=True)
            ws = tuple(sorted(set(pages)))
            for page_id in ws[:1] + ws[-1:]:  # the lowest and the highest
                check_bound("working_set page id", page_id, 0, num_pages - 1)
        else:
            ws = range(int(fraction * num_pages))
        self._working_set = ws  # ascending page ids
        self._state = bytearray((_NEVER,)) * num_pages
        self._dirty = 0
        self._never = num_pages
        self.frozen = False

    @property
    def num_pages(self) -> int:
        return self._num_pages

    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def working_set(self) -> frozenset[int]:
        return frozenset(self._working_set)

    @property
    def total_bytes(self) -> int:
        return self._num_pages * self._page_size

    @property
    def dirty_count(self) -> int:
        return self._dirty

    @property
    def never_copied_count(self) -> int:
        return self._never

    @property
    def clean_count(self) -> int:
        return self._num_pages - self._dirty - self._never

    @property
    def all_clean(self) -> bool:
        return not self._dirty and not self._never

    def page_state(self, page_id: int) -> PageState:
        if not 0 <= page_id < self._num_pages:
            raise ValueError(f"page id {page_id} outside image of {self._num_pages} pages")
        return _STATES[self._state[page_id]]

    def take_transfer_batch(self, batch_filter: BatchFilter) -> list[int]:
        """Matching page ids in ascending order; never mutates state.

        The caller marks pages copied once the simulated transfer finishes.
        """
        if batch_filter is BatchFilter.ALL:
            return list(range(self._num_pages))
        if batch_filter is BatchFilter.DIRTY_ONLY:
            return self._pages_where(_ONLY_DIRTY, self._dirty)
        if batch_filter is BatchFilter.WORKING_SET_ONLY:
            return list(self._working_set)
        if batch_filter is BatchFilter.NEVER_COPIED_ONLY:
            return self._pages_where(_ONLY_NEVER, self._never)
        raise ValueError(f"unknown batch filter {batch_filter!r}")

    def _pages_where(self, selector: bytes, count: int) -> list[int]:
        if not count:
            return []
        return list(compress(range(self._num_pages), self._state.translate(selector)))

    def mark_copied(self, pages: Sequence[int]) -> None:
        """Record that ``pages`` landed at the target in their current state.

        Page ids are assumed unique, as produced by :meth:`take_transfer_batch`.
        """
        state = self._state
        for page_id in pages:
            byte = state[page_id]
            if byte == _DIRTY:
                self._dirty -= 1
            elif byte == _NEVER:
                self._never -= 1
            state[page_id] = _CLEAN

    def mark_dirty(self, pages: Iterable[int]) -> int:
        """Mark ``pages`` dirty, in place; returns how many were not dirty yet."""
        state = self._state
        marked = 0
        for page_id in pages:
            byte = state[page_id]
            if byte != _DIRTY:
                if byte == _NEVER:
                    self._never -= 1
                state[page_id] = _DIRTY
                marked += 1
        self._dirty += marked
        return marked

    def copy_all(self) -> int:
        """Record that the whole image landed at the target; returns its page count.

        Any starting state ends all clean, so a migration needs no reset first.
        """
        if self._dirty or self._never:
            memoryview(self._state)[:] = _ZEROS[: self._num_pages]
            self._dirty = self._never = 0
        return self._num_pages

    def copy_dirty(self) -> int:
        """Record that every dirty page landed at the target; returns how many.

        Only the span from the first to the last dirty page is written, in
        place, so a round costs the dirty span, not the image.  A span that
        holds no never-copied page, as constant-rate dirtying (one run) and
        every Bernoulli draw after a copy leave it, is cleared from the zero
        view with no temporary; any other span is translated 16 KiB at a
        time.
        """
        copied = self._dirty
        if copied:
            state = self._state
            first = state.find(_DIRTY)
            last = state.rfind(_DIRTY) + 1
            if not self._never or last - first == copied:
                memoryview(state)[first:last] = _ZEROS[: last - first]
            else:
                for start in range(first, last, _CHUNK):
                    end = min(last, start + _CHUNK)
                    state[start:end] = state[start:end].translate(_DIRTY_TO_CLEAN)
            self._dirty = 0
        return copied

    def copy_working_set(self) -> int:
        """Record that the working set landed at the target; returns its page count."""
        ws = self._working_set
        if isinstance(ws, range):  # the default, ``range(k)``: one run
            state = self._state
            self._never -= state.count(_NEVER, 0, ws.stop)
            self._dirty -= state.count(_DIRTY, 0, ws.stop)
            memoryview(state)[: ws.stop] = _ZEROS[: ws.stop]
        else:
            self.mark_copied(ws)
        return len(ws)

    def stream_ranks(self, pages: Iterable[int]) -> Iterator[int]:
        """Each page's index among the pages outside the working set; negative inside it.

        After :meth:`copy_working_set`, :meth:`copy_lowest` copies the pages
        outside the working set in this order.  Lazy, so a long trace holds
        no list of ranks: one C-level subtraction per page for the default
        working set, one ``bisect`` per page for an explicit one.
        """
        ws = self._working_set
        if isinstance(ws, range):  # the default, ``range(k)``
            return map(sub, pages, repeat(ws.stop))
        return (
            -1 if below < len(ws) and ws[below] == page else page - below
            for page in pages
            for below in (bisect_left(ws, page),)
        )

    def copy_lowest(self, limit: int) -> int:
        """Copy up to ``limit`` never-copied pages, lowest first; returns how many."""
        view = memoryview(self._state)
        copied = 0
        for start, end in self._lowest_runs((_NEVER,), limit):
            view[start:end] = _ZEROS[: end - start]
            copied += end - start
        self._never -= copied
        return copied

    def reset_for_transfer(self) -> None:
        """Start a new migration: every page needs to reach the new target."""
        if self._never == self._num_pages:
            return
        self._state[:] = bytearray((_NEVER,)) * self._num_pages
        self._dirty = 0
        self._never = self._num_pages

    def dirty_lowest(self, limit: int) -> int:
        """Mark up to ``limit`` non-dirty pages dirty, lowest first; returns how many."""
        state = self._state
        marked = 0
        for start, end in self._lowest_runs((_CLEAN, _NEVER), limit):
            self._never -= state.count(_NEVER, start, end)
            state[start:end] = bytearray((_DIRTY,)) * (end - start)
            marked += end - start
        self._dirty += marked
        return marked

    def _lowest_runs(self, wanted: tuple[int, ...], limit: int) -> Iterator[tuple[int, int]]:
        """The lowest runs of pages whose state byte is in ``wanted``, ``limit`` pages in all.

        Yields each run as ``(start, end)``; the caller may rewrite it before the next is
        sought.  ``find`` locates a run's start, each search stopping at the best start so
        far, and its end, the first other byte; so the walk costs a few ``find`` calls per
        run, never a step per page.
        """
        state = self._state
        n = self._num_pages
        others = [byte for byte in (_CLEAN, _DIRTY, _NEVER) if byte not in wanted]
        cursor = 0
        while limit > 0:
            start = n
            for byte in wanted:
                found = state.find(byte, cursor, start)
                if found >= 0:
                    start = found
            if start == n:
                return
            end = min(n, start + limit)
            for byte in others:
                found = state.find(byte, start, end)
                if found >= 0:
                    end = found
            yield start, end
            limit -= end - start
            cursor = end

    def dirty_slice(self, start: int, hits: bytes) -> int:
        """Mark dirty each page ``start + i`` whose byte ``hits[i]`` is 1 (the others are 0).

        Returns how many of those pages were not dirty yet.  A slice of the
        state with no dirty and no never-copied page (two ``find`` calls
        tell) takes ``hits`` as its state, in place, and counts its hits by
        a popcount.  Otherwise the state slice and ``hits`` are combined as
        two big integers and written back in place: a hit sets a page's
        dirty bit and clears its never-copied bit.  The integers are the
        size of ``hits``, so callers pass 16 KiB at a time.
        """
        end = start + len(hits)
        if not 0 <= start <= end <= self._num_pages:
            raise ValueError(f"slice [{start}, {end}) outside image of {self._num_pages} pages")
        state = self._state
        view = memoryview(state)
        if state.find(_DIRTY, start, end) < 0 and state.find(_NEVER, start, end) < 0:
            view[start:end] = hits
            marked = int.from_bytes(hits, "little").bit_count()
        else:
            hit = int.from_bytes(hits, "little")
            old = int.from_bytes(view[start:end], "little")
            on_never = (hit << 1) & old
            new = (old ^ on_never) | hit
            view[start:end] = new.to_bytes(end - start, "little")
            never_hit = on_never.bit_count()
            self._never -= never_hit
            # Each bit set is one dirty or one never-copied page.
            marked = new.bit_count() - old.bit_count() + never_hit
        self._dirty += marked
        return marked


@dataclass(frozen=True)
class ConstantRateDirty:
    """Deterministic dirtying at a fixed page rate with exact carry.

    Over a span of ``t`` microseconds the raw count is
    ``floor(rate * t / 1e6 + carry)`` and the fractional remainder is carried
    to the next call, so slicing a span into sub-calls yields the same total.
    With the rate as the exact ratio ``num / den``, the carry is an integer
    count of ``1 / (den * 1e6)`` pages, so each draw is one integer ``divmod``.
    The rate is frozen; the carry, in a one-item list, is all a draw changes.
    """

    rate_pages_per_s: float

    def __post_init__(self):
        check_bound("rate_pages_per_s", self.rate_pages_per_s, 0, math.inf)
        num, den = Fraction(self.rate_pages_per_s).as_integer_ratio()
        object.__setattr__(self, "_ratio", (num, den * MICROS_PER_SECOND))
        object.__setattr__(self, "_carry", [0])

    def draw(self, image: MemoryImage, duration_us: int) -> int:
        (num, unit), carry = self._ratio, self._carry
        raw, carry[0] = divmod(num * duration_us + carry[0], unit)
        return image.dirty_lowest(raw)


@dataclass(frozen=True)
class BernoulliDirty:
    """Each non-dirty page flips independently with a per-millisecond probability.

    Over ``t`` microseconds of execution a page flips with probability
    ``q = 1 - (1 - p) ** (t / 1000)``.  A draw takes one random byte per page
    of the image, dirty pages included.  With ``s = 256 q``, ``k = floor(s)``
    and ``f = s - k``, a page is hit when its byte is below ``k``; a page whose
    byte equals ``k`` is hit when ``random() < f``, drawn in ascending page
    order.  So each page is hit with probability ``k / 256 + f / 256 = q``,
    and the random numbers a draw consumes depend only on the image size and
    on the bytes drawn, never on the page states.  Hits on dirty pages change
    nothing.

    The image is drawn 16 KiB of pages at a time: each slice's random bytes
    are thresholded by one ``translate`` and marked through
    :meth:`MemoryImage.dirty_slice`, and its edge pages are collected as
    page ids.  Only after the last slice does each edge draw its
    ``random()``, in page order, and the edge hits are marked by
    :meth:`MemoryImage.mark_dirty`.  The slices draw the bytes of one
    ``randbytes`` call for the whole image, so the stream is the same as a
    one-shot draw's, and a draw allocates nothing image-sized: on 10^6
    pages it peaks under 280 KB, most of it the list of edges.
    """

    p_per_page_per_ms: float
    rng: Random = field(repr=False)

    def __post_init__(self):
        check_bound("p_per_page_per_ms", self.p_per_page_per_ms, 0, 1)

    def draw(self, image: MemoryImage, duration_us: int) -> int:
        q = 1.0 - (1.0 - self.p_per_page_per_ms) ** (duration_us / 1000.0)
        s = 256.0 * q  # exact: a power-of-two scale
        k = math.floor(s)
        f = s - k
        below = _BELOW[k]
        randbytes = self.rng.randbytes
        n = image.num_pages
        marked = 0
        edges = []  # the pages whose byte equals k, ascending
        for start in range(0, n, _CHUNK):
            rand = randbytes(min(_CHUNK, n - start))
            marked += image.dirty_slice(start, rand.translate(below))
            if f:  # k < 256 here; about one page in 256 sits on the edge
                edge = rand.find(k)
                while edge >= 0:
                    edges.append(start + edge)
                    edge = rand.find(k, edge + 1)
        if edges:
            random = self.rng.random
            marked += image.mark_dirty(page for page in edges if random() < f)
        return marked


DirtyProcess = ConstantRateDirty | BernoulliDirty


def advance_dirty(image: MemoryImage, process: DirtyProcess, duration_us: int) -> int:
    """Run the dirty-page process for ``duration_us`` of executing time.

    Returns the number of newly dirtied pages.  Must only be called while
    the owning function executes; frozen images reject it.
    """
    # A fractional duration would make the carry a float.
    check_bound("duration", duration_us, 0, math.inf, integer=True)
    if image.frozen:
        raise InvariantViolation(
            "memory-image", "dirty-page process advanced while the function is frozen"
        )
    if duration_us == 0:
        return 0
    return process.draw(image, duration_us)
