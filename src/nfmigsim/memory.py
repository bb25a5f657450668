"""Paged memory image of a stateful network function.

Every page is in one of three states relative to the migration target:
already copied and unchanged since (clean), modified after its last copy
(dirty), or not transferred at all yet.  The dirty-page process models the
workload rewriting memory while the function keeps executing; it is the
quantity that decides how well the iterative strategies converge.

Two dirty models are provided.  The constant-rate model is fully
deterministic and uses exact rational arithmetic for its fractional-page
carry, so the number of dirtied pages over a span of virtual time does not
depend on how that span is sliced into calls.  The Bernoulli model flips
each non-dirty page independently, drawing from a seeded stream for
stochastic workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import compress
from random import Random
from typing import Iterable, Sequence

from .errors import InvariantViolation

MICROS_PER_SECOND = 10**6

DEFAULT_WORKING_SET_FRACTION = 0.2


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
# which run in C; Python steps are spent per run of pages, never per page of
# the image, except for the Bernoulli model's one random number per page.
# Bit 0 of a byte means dirty and bit 1 never copied; ``dirty_where`` uses that.
_CLEAN, _DIRTY, _NEVER = 0, 1, 2
_STATES = (PageState.CLEAN_AT_TARGET, PageState.DIRTY_SINCE_COPY, PageState.NEVER_COPIED)
_DIRTY_TO_CLEAN = bytes((_CLEAN, _CLEAN, _NEVER)) + bytes(253)
_ONLY_DIRTY = bytes((0, 1, 0)) + bytes(253)
_ONLY_NEVER = bytes((0, 0, 1)) + bytes(253)
_NOT_DIRTY = bytes((1, 0, 1)) + bytes(253)


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
        if num_pages < 0:
            raise ValueError(f"num_pages must be >= 0, got {num_pages}")
        if page_size <= 0:
            raise ValueError(f"page_size must be > 0, got {page_size}")
        self._num_pages = num_pages
        self._page_size = page_size
        fraction = (
            DEFAULT_WORKING_SET_FRACTION if working_set_fraction is None else working_set_fraction
        )
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"working_set_fraction must be in [0, 1], got {fraction}")
        ws: Sequence[int]
        if working_set is not None:
            pages = tuple(working_set)
            for page_id in pages:
                if not isinstance(page_id, int) or isinstance(page_id, bool):
                    raise ValueError(f"working_set page ids must be integers, got {page_id!r}")
            ws = tuple(sorted(set(pages)))
            if ws and (ws[0] < 0 or ws[-1] >= num_pages):
                raise ValueError("working_set contains page ids outside the image")
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
        if len(pages) == self._num_pages:
            # Full-image batches are common (bulk copy, first iterative round).
            self.copy_all()
            return
        state = self._state
        for page_id in pages:
            byte = state[page_id]
            if byte == _DIRTY:
                self._dirty -= 1
            elif byte == _NEVER:
                self._never -= 1
            state[page_id] = _CLEAN

    def copy_all(self) -> int:
        """Record that the whole image landed at the target; returns its page count."""
        if self._dirty or self._never:
            self._state = bytearray(self._num_pages)
            self._dirty = self._never = 0
        return self._num_pages

    def copy_dirty(self) -> int:
        """Record that every dirty page landed at the target; returns how many."""
        copied = self._dirty
        if copied:
            self._state = self._state.translate(_DIRTY_TO_CLEAN)
            self._dirty = 0
        return copied

    def reset_for_transfer(self) -> None:
        """Start a new migration: every page needs to reach the new target."""
        if self._never == self._num_pages:
            return
        self._state[:] = bytes((_NEVER,)) * self._num_pages
        self._dirty = 0
        self._never = self._num_pages

    def clone_fresh(self) -> "MemoryImage":
        """A new image with the same shape and working set, all pages pending."""
        return MemoryImage(self._num_pages, self._page_size, working_set=self._working_set)

    def dirty_lowest(self, limit: int) -> int:
        """Mark up to ``limit`` non-dirty pages dirty, lowest page id first.

        Works run by run: each step finds the next non-dirty page and the end
        of its run, then marks the run with one slice assignment.
        """
        state = self._state
        n = self._num_pages
        marked = 0
        cursor = 0
        while marked < limit:
            clean = state.find(_CLEAN, cursor)
            if clean < 0:
                clean = n
            never = state.find(_NEVER, cursor, clean)
            start = clean if never < 0 else never
            if start == n:
                break
            stop = min(n, start + limit - marked)
            end = state.find(_DIRTY, start, stop)
            if end < 0:
                end = stop
            self._never -= state.count(_NEVER, start, end)
            state[start:end] = bytes((_DIRTY,)) * (end - start)
            marked += end - start
            cursor = end
        self._dirty += marked
        return marked

    def not_dirty_mask(self) -> bytes:
        """One byte per page: 1 where the page is not dirty, else 0."""
        return self._state.translate(_NOT_DIRTY)

    def dirty_where(self, mask: bytes) -> int:
        """Mark dirty every page whose byte in ``mask`` is 1 (the others are 0).

        Returns how many of those pages were not dirty yet.  The state and
        the mask are combined as two big integers, so the whole image is one
        C-level step: a hit sets a page's dirty bit and clears its
        never-copied bit.
        """
        if len(mask) != self._num_pages:
            raise ValueError(f"mask of {len(mask)} bytes for an image of {self._num_pages} pages")
        hit = int.from_bytes(mask, "little")
        state = int.from_bytes(self._state, "little")
        marked = hit.bit_count() - (hit & state).bit_count()
        self._never -= ((hit << 1) & state).bit_count()
        self._dirty += marked
        state = (state & ~(hit << 1)) | hit
        self._state = bytearray(state.to_bytes(self._num_pages, "little"))
        return marked


@dataclass
class ConstantRateDirty:
    """Deterministic dirtying at a fixed page rate with exact carry.

    Over a span of ``t`` microseconds the raw count is
    ``floor(rate * t / 1e6 + carry)`` and the fractional remainder is carried
    to the next call, so slicing a span into sub-calls yields the same total.
    """

    rate_pages_per_s: float
    carry: Fraction = Fraction(0)

    def __post_init__(self):
        if self.rate_pages_per_s < 0:
            raise ValueError(f"rate_pages_per_s must be >= 0, got {self.rate_pages_per_s}")
        self._rate = Fraction(self.rate_pages_per_s)

    def draw(self, image: MemoryImage, duration_us: int) -> int:
        accumulated = self._rate * Fraction(duration_us, MICROS_PER_SECOND) + self.carry
        raw = math.floor(accumulated)
        self.carry = accumulated - raw
        return image.dirty_lowest(raw)


@dataclass
class BernoulliDirty:
    """Each non-dirty page flips independently with a per-millisecond probability."""

    p_per_page_per_ms: float
    rng: Random = field(repr=False, default_factory=Random)

    def __post_init__(self):
        if not 0.0 <= self.p_per_page_per_ms <= 1.0:
            raise ValueError(
                f"p_per_page_per_ms must be in [0, 1], got {self.p_per_page_per_ms}"
            )

    def draw(self, image: MemoryImage, duration_us: int) -> int:
        # One draw per non-dirty page, in ascending page order: the same
        # random-number order as a page-by-page scan, at a cost that does not
        # depend on the probability or the seed.
        q = 1.0 - (1.0 - self.p_per_page_per_ms) ** (duration_us / 1000.0)
        random = self.rng.random
        hits = bytes(eligible and random() < q for eligible in image.not_dirty_mask())
        return image.dirty_where(hits)


DirtyProcess = ConstantRateDirty | BernoulliDirty


def advance_dirty(image: MemoryImage, process: DirtyProcess, duration_us: int) -> int:
    """Run the dirty-page process for ``duration_us`` of executing time.

    Returns the number of newly dirtied pages.  Must only be called while
    the owning function executes; frozen images reject it.
    """
    if duration_us < 0:
        raise ValueError(f"duration must be >= 0, got {duration_us}")
    if image.frozen:
        raise InvariantViolation(
            "memory-image", "dirty-page process advanced while the function is frozen"
        )
    if duration_us == 0:
        return 0
    return process.draw(image, duration_us)
