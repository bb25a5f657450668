"""Dirty-page bookkeeping: batch filters, carry arithmetic, conservation."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfmigsim import (
    BatchFilter,
    BernoulliDirty,
    ConstantRateDirty,
    InvariantViolation,
    MemoryImage,
    PageState,
    advance_dirty,
    rng_stream,
)
from nfmigsim.memory import _CHUNK, MAX_PAGES_PER_IMAGE


def clean_image(num_pages, page_size=1, **kwargs):
    image = MemoryImage(num_pages, page_size, **kwargs)
    image.mark_copied(image.take_transfer_batch(BatchFilter.ALL))
    return image


class TestMemoryImage:
    @pytest.mark.parametrize(
        "num_pages, message",
        [
            (2.5, "num_pages must be an integer, got 2.5"),
            (math.nan, "num_pages must be >= 0, got nan"),
            (True, "num_pages must be an integer, got True"),
        ],
    )
    def test_num_pages_must_be_a_whole_number(self, num_pages, message):
        with pytest.raises(ValueError) as info:
            MemoryImage(num_pages, 4096)
        assert str(info.value) == message

    def test_fresh_image_all_never_copied(self):
        image = MemoryImage(10, 4096)
        assert image.never_copied_count == 10
        assert image.take_transfer_batch(BatchFilter.ALL) == list(range(10))
        assert image.take_transfer_batch(BatchFilter.NEVER_COPIED_ONLY) == list(range(10))

    def test_total_bytes(self):
        assert MemoryImage(12, 4096).total_bytes == 12 * 4096

    def test_dirty_slice_counts_only_newly_dirtied(self):
        image = MemoryImage(6, 1)
        image.mark_copied([0, 1, 2])  # pages 3-5 stay never copied
        assert image.dirty_slice(0, bytes((1, 0, 0, 1, 0, 0))) == 2
        assert image.dirty_slice(0, bytes((1, 1, 0, 1, 1, 0))) == 2  # 0 and 3 already dirty
        dirty, clean = PageState.DIRTY_SINCE_COPY, PageState.CLEAN_AT_TARGET
        states = [image.page_state(p) for p in range(6)]
        assert states == [dirty, dirty, clean, dirty, dirty, PageState.NEVER_COPIED]
        assert (image.dirty_count, image.clean_count, image.never_copied_count) == (4, 1, 1)

    def test_dirty_slice_on_an_all_clean_image_copies_the_mask(self):
        image = clean_image(6)
        mask = bytearray((1, 0, 0, 1, 1, 0))
        assert image.dirty_slice(0, mask) == 3
        mask[:] = bytes((0, 1, 1, 0, 0, 1))
        assert dirty_pages(image) == {0, 3, 4}
        assert (image.dirty_count, image.clean_count, image.never_copied_count) == (3, 3, 0)

    @pytest.mark.parametrize("start, length", [(-1, 2), (9, 2), (11, 0)])
    def test_dirty_slice_outside_the_image_rejected(self, start, length):
        image = clean_image(10)
        with pytest.raises(ValueError, match=r"slice \[.*\) outside image of 10 pages"):
            image.dirty_slice(start, bytes((1,)) * length)
        assert image.all_clean

    def test_default_working_set_fraction(self):
        image = MemoryImage(100, 1)
        assert image.working_set == frozenset(range(20))

    def test_explicit_working_set(self):
        image = MemoryImage(10, 1, working_set={2, 7})
        assert image.take_transfer_batch(BatchFilter.WORKING_SET_ONLY) == [2, 7]

    def test_working_set_outside_image_rejected(self):
        with pytest.raises(ValueError):
            MemoryImage(4, 1, working_set={9})

    def test_fraction_checked_beside_explicit_working_set(self):
        with pytest.raises(ValueError, match="working_set_fraction"):
            MemoryImage(4, 1, working_set={1}, working_set_fraction=7)

    def test_batches_do_not_mutate(self):
        image = MemoryImage(5, 1)
        image.take_transfer_batch(BatchFilter.ALL)
        assert image.never_copied_count == 5

    def test_dirty_only_batch_after_copy(self):
        image = clean_image(100)
        advance_dirty(image, ConstantRateDirty(3), 1_000_000)
        batch = image.take_transfer_batch(BatchFilter.DIRTY_ONLY)
        assert batch == [0, 1, 2]

    def test_page_conservation_under_random_operations(self):
        rng = random.Random(11)
        image = MemoryImage(64, 1)
        process = ConstantRateDirty(37)
        for _ in range(200):
            action = rng.randrange(3)
            if action == 0:
                pages = image.take_transfer_batch(
                    rng.choice([BatchFilter.DIRTY_ONLY, BatchFilter.NEVER_COPIED_ONLY])
                )
                image.mark_copied(pages[: rng.randrange(len(pages) + 1)])
            elif action == 1:
                advance_dirty(image, process, rng.randrange(200_000))
            else:
                image.reset_for_transfer()
            total = image.clean_count + image.dirty_count + image.never_copied_count
            assert total == 64

    def test_frozen_image_rejects_dirtying(self):
        image = clean_image(10)
        image.frozen = True
        with pytest.raises(InvariantViolation, match="frozen"):
            advance_dirty(image, ConstantRateDirty(5), 1000)

    def test_image_above_the_page_bound_rejected(self):
        with pytest.raises(ValueError, match=f"num_pages must be <= {MAX_PAGES_PER_IMAGE}"):
            MemoryImage(MAX_PAGES_PER_IMAGE + 1, 1)

    @pytest.mark.parametrize("page_id", [-1, 3])
    def test_page_state_outside_the_image_rejected(self, page_id):
        with pytest.raises(ValueError, match=f"page id {page_id} outside image of 3 pages"):
            MemoryImage(3, 1).page_state(page_id)

    def test_unknown_batch_filter_rejected(self):
        with pytest.raises(ValueError, match="unknown batch filter 'all'"):
            MemoryImage(3, 1).take_transfer_batch("all")

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration must be finite and >= 0, got -1"):
            advance_dirty(clean_image(3), ConstantRateDirty(5), -1)

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_nan_or_infinite_duration_rejected_and_the_carry_kept(self, duration):
        # Either once left the carry NaN, so every later draw dirtied nothing.
        image = clean_image(100)
        process = ConstantRateDirty(10)
        with pytest.raises(ValueError, match=f"duration must be finite and >= 0, got {duration}"):
            advance_dirty(image, process, duration)
        assert advance_dirty(image, process, 1_000_000) == 10

    @pytest.mark.parametrize("duration", [0.5, 5.0])
    def test_fractional_duration_rejected_and_the_carry_kept(self, duration):
        # A fractional duration once made the carry a float, and the next draw raised.
        image = clean_image(100)
        process = ConstantRateDirty(10)
        with pytest.raises(ValueError) as info:
            advance_dirty(image, process, duration)
        assert str(info.value) == f"duration must be an integer, got {duration}"
        assert advance_dirty(image, process, 1_000_000) == 10

    @pytest.mark.parametrize(
        "page_size, rule",
        [
            (1.5, "an integer"),
            (math.nan, "an integer"),
            (math.inf, "an integer"),
            (True, "an integer"),
            (0, "positive"),
        ],
    )
    def test_page_size_must_be_a_positive_integer(self, page_size, rule):
        with pytest.raises(ValueError) as info:
            MemoryImage(10, page_size)
        assert str(info.value) == f"page_size must be {rule}, got {page_size}"


class TestConstantRate:
    def test_zero_duration_dirties_nothing(self):
        image = clean_image(100)
        assert advance_dirty(image, ConstantRateDirty(10), 0) == 0

    def test_rate_times_duration(self):
        image = clean_image(100)
        assert advance_dirty(image, ConstantRateDirty(10), 1_000_000) == 10

    def test_fractional_carry_accumulates(self):
        image = clean_image(100)
        process = ConstantRateDirty(10)
        assert advance_dirty(image, process, 50_000) == 0  # 0.5 pages carried
        assert advance_dirty(image, process, 50_000) == 1  # carry reaches 1.0

    def test_rate_is_read_only_and_the_carry_survives(self):
        image = clean_image(100)
        process = ConstantRateDirty(10)
        assert advance_dirty(image, process, 50_000) == 0  # 0.5 pages carried
        with pytest.raises(AttributeError):
            process.rate_pages_per_s = -5.0
        assert repr(process) == "ConstantRateDirty(rate_pages_per_s=10)"
        assert advance_dirty(image, process, 50_000) == 1  # the carry was kept
        assert advance_dirty(image, process, 1_000_000) == 10

    @pytest.mark.parametrize("rate", [-1, -math.inf, math.nan, math.inf])
    def test_rate_must_be_finite_and_non_negative(self, rate):
        with pytest.raises(ValueError, match=f"must be finite and >= 0, got {rate}"):
            ConstantRateDirty(rate)

    def test_count_independent_of_slicing(self):
        rng = random.Random(3)
        for _ in range(50):
            rate = rng.choice([0.3, 1.0, 7.5, 33, 125.25])
            total_us = rng.randrange(1, 3_000_000)
            whole = clean_image(10_000)
            sliced = clean_image(10_000)
            one_shot = advance_dirty(whole, ConstantRateDirty(rate), total_us)
            process = ConstantRateDirty(rate)
            remaining = total_us
            accumulated = 0
            while remaining:
                step = min(remaining, rng.randrange(1, 200_000))
                accumulated += advance_dirty(sliced, process, step)
                remaining -= step
            assert accumulated == one_shot

    def test_never_dirties_more_than_available(self):
        image = clean_image(5)
        assert advance_dirty(image, ConstantRateDirty(1000), 1_000_000) == 5
        assert image.dirty_count == 5

    def test_pages_picked_in_ascending_order(self):
        image = clean_image(50)
        advance_dirty(image, ConstantRateDirty(4), 1_000_000)
        assert image.take_transfer_batch(BatchFilter.DIRTY_ONLY) == [0, 1, 2, 3]
        advance_dirty(image, ConstantRateDirty(2), 1_000_000)
        assert image.take_transfer_batch(BatchFilter.DIRTY_ONLY) == [0, 1, 2, 3, 4, 5]


class TestBernoulli:
    def test_deterministic_for_same_stream(self):
        first = clean_image(200)
        second = clean_image(200)
        advance_dirty(first, BernoulliDirty(0.01, rng_stream("w", 5)), 500_000)
        advance_dirty(second, BernoulliDirty(0.01, rng_stream("w", 5)), 500_000)
        assert first.take_transfer_batch(BatchFilter.DIRTY_ONLY) == second.take_transfer_batch(
            BatchFilter.DIRTY_ONLY
        )

    def test_rng_is_required_and_the_probability_is_fixed(self):
        # No default stream: an OS-seeded one would make a run irreproducible.
        with pytest.raises(TypeError):
            BernoulliDirty(0.1)
        dirty = BernoulliDirty(0.1, rng_stream("w", 5))
        with pytest.raises(AttributeError):
            dirty.p_per_page_per_ms = 5.0
        assert dirty.p_per_page_per_ms == 0.1

    def test_zero_probability(self):
        image = clean_image(100)
        assert advance_dirty(image, BernoulliDirty(0.0, rng_stream("w", 5)), 10**6) == 0

    def test_certain_probability_dirties_everything(self):
        image = clean_image(30)
        assert advance_dirty(image, BernoulliDirty(1.0, rng_stream("w", 5)), 1000) == 30

    def test_only_non_dirty_pages_eligible(self):
        image = clean_image(30)
        advance_dirty(image, BernoulliDirty(1.0, rng_stream("w", 5)), 1000)
        assert advance_dirty(image, BernoulliDirty(1.0, rng_stream("w", 6)), 1000) == 0


class TestBernoulliStatistics:
    """The sampler against the per-page Bernoulli law."""

    PAGES = 6000
    P_PER_MS = 0.001

    def mixed_image(self):
        # Every third page dirty, the rest half clean and half never copied.
        image = MemoryImage(self.PAGES, 1)
        image.mark_copied(range(self.PAGES // 2))
        image.dirty_slice(0, bytes((1, 0, 0)) * (self.PAGES // 3))
        return image

    @pytest.mark.parametrize(
        "p, duration_us",
        [
            (P_PER_MS, 3_000),  # q ~ 0.003
            (P_PER_MS, 223_000),  # q ~ 0.2
            (P_PER_MS, 1_609_000),  # q ~ 0.8
            (0.5, 1_000),  # q == 0.5: k == 128 and no edge draws
            (1.0, 1_000),  # q == 1: every byte is below k == 256
        ],
    )
    def test_hit_rate_matches_q_in_both_halves(self, p, duration_us):
        q = 1.0 - (1.0 - p) ** (duration_us / 1000.0)
        half = self.PAGES // 2
        eligible = [0, 0]  # non-dirty pages per half, summed over draws
        hits = [0, 0]
        for seed in range(30):
            image = self.mixed_image()
            before = set(image.take_transfer_batch(BatchFilter.DIRTY_ONLY))
            newly = advance_dirty(image, BernoulliDirty(p, random.Random(seed)), duration_us)
            after = set(image.take_transfer_batch(BatchFilter.DIRTY_ONLY))
            assert before <= after
            assert newly == len(after - before)  # already-dirty pages never count
            for h in (0, 1):
                pages = range(h * half, (h + 1) * half)
                eligible[h] += sum(1 for page in pages if page not in before)
                hits[h] += sum(1 for page in after - before if page in pages)
        if q == 1.0:  # no variance: the bounds below would be 0 < 0
            assert hits == eligible
            return
        total = sum(eligible)
        assert abs(sum(hits) - total * q) < 4 * math.sqrt(total * q * (1 - q))
        rates = [hits[h] / eligible[h] for h in (0, 1)]
        pooled = math.sqrt(q * (1 - q) * (1 / eligible[0] + 1 / eligible[1]))
        assert abs(rates[0] - rates[1]) < 4 * pooled


class ReferenceImage:
    """Set-based page bookkeeping: the representation the byte array replaced."""

    def __init__(self, num_pages):
        self.num_pages = num_pages
        self.dirty = set()
        self.never = set(range(num_pages))
        self.carry = Fraction(0)

    def mark_copied(self, pages):
        self.dirty.difference_update(pages)
        self.never.difference_update(pages)

    def dirty_lowest(self, rate, duration_us):
        accumulated = Fraction(rate) * Fraction(duration_us, 10**6) + self.carry
        raw = math.floor(accumulated)
        self.carry = accumulated - raw
        picked = [p for p in range(self.num_pages) if p not in self.dirty][:raw]
        self.dirty.update(picked)
        self.never.difference_update(picked)
        return picked

    def bernoulli(self, p, rng, duration_us):
        """The byte-threshold law, page by page in ascending order.

        One ``randbytes`` call gives one random byte per page of the image; a
        byte below ``k`` is a hit, and a byte equal to ``k`` is a hit when
        ``random() < f``, drawn only when ``f`` is not 0.  A hit on a dirty
        page changes nothing.
        """
        q = 1.0 - (1.0 - p) ** (duration_us / 1000.0)
        k = math.floor(256 * q)
        f = 256 * q - k
        rand = rng.randbytes(self.num_pages)
        hits = [
            page
            for page in range(self.num_pages)
            if rand[page] < k or (f and rand[page] == k and rng.random() < f)
        ]
        picked = [page for page in hits if page not in self.dirty]
        self.dirty.update(picked)
        self.never.difference_update(picked)
        return picked

    def reset(self):
        self.dirty.clear()
        self.never = set(range(self.num_pages))


OPERATIONS = st.one_of(
    st.tuples(st.just("take-mark"), st.sampled_from(list(BatchFilter)), st.integers(0, 2**16)),
    st.tuples(st.just("constant"), st.integers(0, 400_000)),
    st.tuples(st.just("bernoulli"), st.integers(0, 400_000), st.integers(0, 2**16)),
    st.tuples(st.just("copy-all")),
    st.tuples(st.just("copy-dirty")),
    st.tuples(st.just("reset")),
)


@settings(max_examples=150, deadline=None)
@given(
    num_pages=st.integers(0, 48),
    working_set=st.sets(st.integers(0, 47)),
    rate=st.sampled_from([0, 7.5, 33, 125.25, 1000]),
    p=st.sampled_from([0.0, 0.0004, 0.003, 0.05, 1.0]),
    operations=st.lists(OPERATIONS, max_size=40),
)
def test_page_state_matches_set_reference(num_pages, working_set, rate, p, operations):
    working_set = {page for page in working_set if page < num_pages}
    image = MemoryImage(num_pages, 1, working_set=working_set)
    reference = ReferenceImage(num_pages)
    constant = ConstantRateDirty(rate)
    for operation in operations:
        kind = operation[0]
        if kind == "take-mark":
            batch_filter, seed = operation[1:]
            batch = image.take_transfer_batch(batch_filter)
            expected = {
                BatchFilter.ALL: range(num_pages),
                BatchFilter.DIRTY_ONLY: reference.dirty,
                BatchFilter.WORKING_SET_ONLY: working_set,
                BatchFilter.NEVER_COPIED_ONLY: reference.never,
            }[batch_filter]
            assert batch == sorted(expected)
            part = random.Random(seed).sample(batch, len(batch) // 2)
            image.mark_copied(part)
            reference.mark_copied(part)
        elif kind == "constant":
            before = set(image.take_transfer_batch(BatchFilter.DIRTY_ONLY))
            newly = advance_dirty(image, constant, operation[1])
            picked = reference.dirty_lowest(rate, operation[1])
            assert newly == len(picked)
            assert set(image.take_transfer_batch(BatchFilter.DIRTY_ONLY)) - before == set(picked)
        elif kind == "bernoulli":
            duration_us, seed = operation[1:]
            newly = advance_dirty(image, BernoulliDirty(p, random.Random(seed)), duration_us)
            assert newly == len(reference.bernoulli(p, random.Random(seed), duration_us))
            assert image.take_transfer_batch(BatchFilter.DIRTY_ONLY) == sorted(reference.dirty)
        elif kind == "copy-all":
            assert image.copy_all() == num_pages
            reference.mark_copied(range(num_pages))
        elif kind == "copy-dirty":
            assert image.copy_dirty() == len(reference.dirty)
            reference.mark_copied(set(reference.dirty))
        else:
            image.reset_for_transfer()
            reference.reset()
        states = [image.page_state(page) for page in range(num_pages)]
        assert image.dirty_count == states.count(PageState.DIRTY_SINCE_COPY) == len(reference.dirty)
        assert image.never_copied_count == states.count(PageState.NEVER_COPIED) == len(reference.never)
        assert image.clean_count == states.count(PageState.CLEAN_AT_TARGET)
        assert image.clean_count + image.dirty_count + image.never_copied_count == num_pages
        assert image.all_clean == (image.clean_count == num_pages)


class TestPageState:
    def test_states_transition(self):
        image = MemoryImage(3, 1)
        assert image.page_state(0) is PageState.NEVER_COPIED
        image.mark_copied([0, 1, 2])
        assert image.page_state(0) is PageState.CLEAN_AT_TARGET
        advance_dirty(image, ConstantRateDirty(1), 1_000_000)
        assert image.page_state(0) is PageState.DIRTY_SINCE_COPY

    def test_reset_restores_fresh_state(self):
        image = clean_image(6)
        advance_dirty(image, ConstantRateDirty(2), 1_000_000)
        image.reset_for_transfer()
        assert image.never_copied_count == 6
        assert image.dirty_count == 0


def image_in_states(states, working_set=None, fraction=None):
    """An image whose page ``i`` is in ``states[i]``."""
    image = MemoryImage(len(states), 1, working_set=working_set, working_set_fraction=fraction)
    image.mark_copied([i for i, s in enumerate(states) if s is not PageState.NEVER_COPIED])
    image.dirty_slice(0, bytes(s is PageState.DIRTY_SINCE_COPY for s in states))
    return image


def dirty_pages(image):
    return {page for page in range(image.num_pages) if image.page_state(page) is PageState.DIRTY_SINCE_COPY}


# Runs of equal states, so run boundaries and long runs are both common.
PAGE_STATE_RUNS = st.lists(
    st.tuples(st.sampled_from(list(PageState)), st.integers(1, 12)), max_size=10
).map(lambda runs: [state for state, length in runs for _ in range(length)][:64])
COPY_OPERATIONS = st.one_of(
    st.tuples(st.just("copy-lowest"), st.integers(0, 70)),
    st.tuples(st.just("dirty-lowest"), st.integers(0, 70)),
    st.tuples(st.just("copy-dirty")),
    st.tuples(st.just("copy-working-set")),
    st.tuples(
        st.just("dirty-slice"), st.just(0), st.lists(st.booleans(), min_size=64, max_size=64)
    ),
    st.tuples(st.just("dirty-slice"), st.integers(0, 64), st.lists(st.booleans(), max_size=64)),
    st.tuples(st.just("copy-all")),
    st.tuples(st.just("reset")),
)


THIRDS = [page % 3 == 0 for page in range(64)]
HALVES = [page % 2 == 0 for page in range(64)]


@settings(max_examples=200, deadline=None)
@given(
    states=PAGE_STATE_RUNS,
    working_set=st.one_of(st.sampled_from([0.0, 0.3, 1.0]), st.sets(st.integers(0, 63))),
    operations=st.lists(COPY_OPERATIONS, max_size=12),
)
# All clean: the first draw takes the mask as the state, the second meets dirty pages, and
# ``copy_dirty`` clears the scattered dirty pages from the zero view (no never-copied page).
@example(
    states=[PageState.CLEAN_AT_TARGET] * 64,
    working_set=0.3,
    operations=[
        ("dirty-slice", 0, THIRDS),
        ("dirty-slice", 0, HALVES),
        ("copy-dirty",),
        ("dirty-slice", 0, HALVES),
    ],
)
# All never copied: every draw combines state and mask.
@example(
    states=[PageState.NEVER_COPIED] * 64,
    working_set=0.3,
    operations=[
        ("dirty-slice", 0, THIRDS),
        ("copy-lowest", 20),
        ("dirty-slice", 0, HALVES),
        ("copy-working-set",),
    ],
)
# The dirty span is one run: ``copy_dirty`` clears it from the zero view.
@example(
    states=[PageState.CLEAN_AT_TARGET] * 10
    + [PageState.DIRTY_SINCE_COPY] * 30
    + [PageState.NEVER_COPIED] * 10,
    working_set=0.3,
    operations=[("copy-dirty",), ("dirty-slice", 0, THIRDS), ("copy-all",), ("reset",)],
)
# The dirty span is two runs around one never-copied page: ``copy_dirty`` translates
# it, then meets runs split by clean and never-copied pages.
@example(
    states=[PageState.DIRTY_SINCE_COPY] * 20
    + [PageState.NEVER_COPIED]
    + [PageState.DIRTY_SINCE_COPY] * 20
    + [PageState.CLEAN_AT_TARGET] * 5,
    working_set=0.3,
    operations=[("copy-dirty",), ("dirty-slice", 0, HALVES), ("copy-dirty",), ("copy-all",)],
)
def test_run_copies_match_page_list_reference(states, working_set, operations):
    num_pages = len(states)
    if isinstance(working_set, float):
        image = image_in_states(states, fraction=working_set)
        ws_pages = range(int(working_set * num_pages))
    else:
        ws_pages = sorted(page for page in working_set if page < num_pages)
        image = image_in_states(states, working_set=ws_pages)
    reference = list(states)
    clean, dirty = PageState.CLEAN_AT_TARGET, PageState.DIRTY_SINCE_COPY
    never = PageState.NEVER_COPIED
    for operation in operations:
        kind = operation[0]
        if kind == "copy-lowest":
            picked = [p for p in range(num_pages) if reference[p] is never][: operation[1]]
            assert image.copy_lowest(operation[1]) == len(picked)
            for page in picked:
                reference[page] = clean
        elif kind == "dirty-lowest":
            picked = [p for p in range(num_pages) if reference[p] is not dirty][: operation[1]]
            assert image.dirty_lowest(operation[1]) == len(picked)
            for page in picked:
                reference[page] = dirty
        elif kind == "copy-dirty":
            # The clear is bounded by the dirty span; the reference maps every page.
            assert image.copy_dirty() == reference.count(dirty)
            reference = [clean if s is dirty else s for s in reference]
        elif kind == "copy-working-set":
            assert image.copy_working_set() == len(ws_pages)
            for page in ws_pages:
                reference[page] = clean
        elif kind == "copy-all":
            assert image.copy_all() == num_pages
            reference = [clean] * num_pages
        elif kind == "reset":
            image.reset_for_transfer()
            reference = [never] * num_pages
        else:
            start = min(operation[1], num_pages)
            hits = operation[2][: num_pages - start]
            newly = sum(hit and s is not dirty for hit, s in zip(hits, reference[start:]))
            assert image.dirty_slice(start, bytes(hits)) == newly
            for page, hit in enumerate(hits, start):
                if hit:
                    reference[page] = dirty
        assert [image.page_state(page) for page in range(num_pages)] == reference
        assert image.dirty_count == reference.count(dirty)
        assert image.never_copied_count == reference.count(never)


@pytest.mark.parametrize("n", [0, 1, 3, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 3, 100_003])
@pytest.mark.parametrize("seed", [1, 7, 301])
def test_randbytes_in_chunks_gives_the_bytes_of_one_call(n, seed):
    # What a chunked Bernoulli draw relies on, on every supported Python: randbytes
    # takes whole 32-bit words, so slices of a multiple of 4 bytes tile one call's stream.
    assert _CHUNK % 4 == 0
    whole, chunked = random.Random(seed), random.Random(seed)
    one_call = whole.randbytes(n)
    chunks = b"".join(chunked.randbytes(min(_CHUNK, n - i)) for i in range(0, n, _CHUNK))
    assert chunks == one_call
    assert chunked.random() == whole.random()


@pytest.mark.parametrize("p", [0.00001, 0.0004, 0.003, 0.05, 0.5, 1.0])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "start",
    [
        [PageState.CLEAN_AT_TARGET, PageState.DIRTY_SINCE_COPY] * 4000,
        [PageState.CLEAN_AT_TARGET] * 8000,  # the mask becomes the state
        # Edge hits land on pages in all three states.
        [PageState.CLEAN_AT_TARGET, PageState.DIRTY_SINCE_COPY, PageState.NEVER_COPIED] * 2700,
        # Three 16 KiB slices and 3 pages: the first slice all clean, the rest mixed.
        [PageState.CLEAN_AT_TARGET] * 16_384
        + [PageState.CLEAN_AT_TARGET, PageState.DIRTY_SINCE_COPY, PageState.NEVER_COPIED] * 10_923
        + [PageState.NEVER_COPIED] * 2,
    ],
    ids=["half-dirty", "all-clean", "mixed", "multi-slice"],
)
def test_draw_matches_the_reference_law_on_a_large_image(p, seed, start):
    # Thousands of pages put dozens of pages on the edge byte in each draw.
    image = image_in_states(start)
    reference = ReferenceImage(image.num_pages)
    reference.dirty = dirty_pages(image)
    reference.never = {page for page, s in enumerate(start) if s is PageState.NEVER_COPIED}
    rng, reference_rng = random.Random(seed), random.Random(seed)
    newly = advance_dirty(image, BernoulliDirty(p, rng), 7_000)
    assert newly == len(reference.bernoulli(p, reference_rng, 7_000))
    assert dirty_pages(image) == reference.dirty
    assert image.dirty_count == len(reference.dirty)
    assert image.never_copied_count == len(reference.never)
    # The draw used the stream of one randbytes call for the image, then its edge draws.
    assert rng.random() == reference_rng.random()


@settings(max_examples=200, deadline=None)
@given(
    states=PAGE_STATE_RUNS,
    p=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    duration_us=st.integers(0, 400_000),
    seed=st.integers(0, 2**16),
)
def test_bernoulli_draw_does_not_depend_on_page_states(states, p, duration_us, seed):
    """The same seed hits the same pages whatever state the pages are in."""
    mixed = image_in_states(states)
    clean = clean_image(len(states))
    before = dirty_pages(mixed)
    newly = advance_dirty(mixed, BernoulliDirty(p, random.Random(seed)), duration_us)
    advance_dirty(clean, BernoulliDirty(p, random.Random(seed)), duration_us)
    hits = dirty_pages(clean)
    assert dirty_pages(mixed) - before == hits - before
    assert newly == len(hits - before)


class TestWritesInPlace:
    """Bulk writes on a 10^6-page image allocate nothing image-sized.

    A fresh image-sized buffer costs a minor page fault per 4 KiB, and a
    ``bytes`` source written into a ``bytearray`` slice is first copied.
    Each test also checks the written state against one built without the
    image's methods.
    """

    PAGES = 10**6
    BOUND = 64 * 1024
    DIRTY_TO_CLEAN = bytes((0, 0, 2)) + bytes(253)

    def peak(self, image, write):
        """The peak bytes ``write()`` allocates; the state buffer must stay the same object."""
        state = image._state
        tracemalloc.start()
        try:
            result = write()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert image._state is state
        return peak, result

    def test_copy_all_from_never_copied(self):
        image = MemoryImage(self.PAGES, 1)
        peak, copied = self.peak(image, image.copy_all)
        assert peak <= self.BOUND
        assert copied == self.PAGES and image.all_clean
        assert image._state == bytes(self.PAGES)

    def test_copy_all_from_a_dirtied_image(self):
        image = MemoryImage(self.PAGES, 1)
        image.copy_lowest(self.PAGES // 2)
        image.dirty_lowest(self.PAGES // 4)
        peak, copied = self.peak(image, image.copy_all)
        assert peak <= self.BOUND
        assert copied == self.PAGES and image.all_clean
        assert image._state == bytes(self.PAGES)

    def test_copy_working_set(self):
        image = MemoryImage(self.PAGES, 1)
        peak, copied = self.peak(image, image.copy_working_set)
        assert peak <= self.BOUND
        assert copied == image.clean_count == self.PAGES // 5
        assert image._state == bytes(copied) + bytes((2,)) * (self.PAGES - copied)

    def test_copy_lowest_over_several_runs(self):
        image = MemoryImage(self.PAGES, 1)
        image.mark_copied(range(0, self.PAGES, 100_000))  # ten clean pages split the runs
        peak, copied = self.peak(image, lambda: image.copy_lowest(self.PAGES))
        assert peak <= self.BOUND
        assert copied == self.PAGES - 10 and image.all_clean
        assert image._state == bytes(self.PAGES)

    def test_copy_dirty_on_one_run(self):
        image = MemoryImage(self.PAGES, 1)
        image.copy_lowest(self.PAGES // 2)
        image.mark_dirty(range(300_000, 700_000))  # over clean and never-copied pages
        expected = image._state.translate(self.DIRTY_TO_CLEAN)
        peak, copied = self.peak(image, image.copy_dirty)
        assert peak <= self.BOUND
        assert copied == 400_000 and image.dirty_count == 0
        assert image._state == expected

    def test_copy_dirty_on_many_runs(self):
        image = MemoryImage(self.PAGES, 1)
        image.copy_lowest(self.PAGES // 2)
        image.mark_dirty(range(0, self.PAGES, 3))  # dirty pages among clean and never-copied
        never = image.never_copied_count
        expected = image._state.translate(self.DIRTY_TO_CLEAN)
        peak, copied = self.peak(image, image.copy_dirty)
        assert peak <= self.BOUND
        assert copied == len(range(0, self.PAGES, 3))
        assert (image.dirty_count, image.never_copied_count) == (0, never)
        assert image._state == expected

    def test_copy_dirty_on_scattered_pages_with_none_never_copied(self):
        # Every byte of the span is 0 or 1, so it is cleared from the zero view:
        # translated 16 KiB at a time, it peaked at two 16 KiB temporaries.
        image = MemoryImage(self.PAGES, 1)
        image.copy_all()
        dirtied = range(5, self.PAGES - 5, 3)
        image.mark_dirty(dirtied)
        peak, copied = self.peak(image, image.copy_dirty)
        assert peak <= 4096
        assert copied == len(dirtied) and image.all_clean
        assert image._state == bytes(self.PAGES)

    @staticmethod
    def dirty_in_slices(image, mask):
        """Mark a whole-image mask 16 KiB at a time, as a Bernoulli draw does."""
        hits = memoryview(mask)
        return sum(image.dirty_slice(i, hits[i : i + _CHUNK]) for i in range(0, len(mask), _CHUNK))

    def test_dirty_slices_on_an_all_clean_image(self):
        image = MemoryImage(self.PAGES, 1)
        image.copy_all()
        mask = bytes((1, 0, 0)) * (self.PAGES // 3) + bytes((1,))
        peak, marked = self.peak(image, lambda: self.dirty_in_slices(image, mask))
        assert peak <= self.BOUND
        assert marked == image.dirty_count == self.PAGES // 3 + 1
        assert image._state == mask

    def test_dirty_slices_on_a_mixed_image(self):
        # Over the whole image at once, the big-integer pass peaked at 5.3 MB.
        image = MemoryImage(self.PAGES, 1)
        image.copy_lowest(self.PAGES // 2)
        image.mark_dirty(range(0, self.PAGES, 7))  # dirty pages among clean and never-copied
        mask = bytes((1, 0, 0, 0, 0)) * (self.PAGES // 5)
        expected = bytes(1 if hit else page for page, hit in zip(image._state, mask))
        was_dirty = image.dirty_count
        peak, marked = self.peak(image, lambda: self.dirty_in_slices(image, mask))
        assert peak <= 2 * self.BOUND
        assert image._state == expected
        assert image.dirty_count == expected.count(1) == was_dirty + marked
        assert image.never_copied_count == expected.count(2)

    @staticmethod
    def drawn(state, p, rng, duration_us):
        """The state a draw leaves, from one ``randbytes`` call for the whole image."""
        q = 1.0 - (1.0 - p) ** (duration_us / 1000.0)
        k = math.floor(256 * q)
        f = 256 * q - k
        rand = rng.randbytes(len(state))
        hits = bytearray(rand.translate(bytes((1,)) * k + bytes(256 - k)))
        edge = rand.find(k) if f else -1
        while edge >= 0:
            hits[edge] = rng.random() < f
            edge = rand.find(k, edge + 1)
        return bytes(1 if hit else page for page, hit in zip(state, hits))

    @pytest.mark.parametrize("start", ["all-clean", "mixed"])
    def test_bernoulli_draw(self, start):
        # One randbytes call for the image and its threshold mask peaked at about 2 MB.
        image = MemoryImage(self.PAGES, 1)
        if start == "all-clean":
            image.copy_all()
        else:
            image.copy_lowest(self.PAGES // 2)
            image.mark_dirty(range(0, self.PAGES, 7))  # dirty pages among clean and never-copied
        p, duration_us = 0.003, 7_000  # q about 0.021: k is 5, and about 3,900 pages are edges
        rng, reference_rng = random.Random(5), random.Random(5)
        dirty = BernoulliDirty(p, rng)
        expected = self.drawn(image._state, p, reference_rng, duration_us)
        was_dirty = image.dirty_count
        peak, marked = self.peak(image, lambda: advance_dirty(image, dirty, duration_us))
        assert peak <= 5 * self.BOUND  # 16 KiB slices and the list of edge pages
        assert image._state == expected
        assert image.dirty_count == expected.count(1) == was_dirty + marked
        assert image.never_copied_count == expected.count(2)
        assert rng.random() == reference_rng.random()

    def test_reset_allocates_at_most_one_image(self):
        image = MemoryImage(self.PAGES, 1)
        image.copy_all()
        peak, _ = self.peak(image, image.reset_for_transfer)
        assert peak <= self.PAGES + self.BOUND
        assert image.never_copied_count == self.PAGES
        assert image._state == bytes((2,)) * self.PAGES
