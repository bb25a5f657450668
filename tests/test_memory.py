"""Dirty-page bookkeeping: batch filters, carry arithmetic, conservation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
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


def clean_image(num_pages, page_size=1, **kwargs):
    image = MemoryImage(num_pages, page_size, **kwargs)
    image.mark_copied(image.take_transfer_batch(BatchFilter.ALL))
    return image


class TestMemoryImage:
    def test_fresh_image_all_never_copied(self):
        image = MemoryImage(10, 4096)
        assert image.never_copied_count == 10
        assert image.take_transfer_batch(BatchFilter.ALL) == list(range(10))
        assert image.take_transfer_batch(BatchFilter.NEVER_COPIED_ONLY) == list(range(10))

    def test_total_bytes(self):
        assert MemoryImage(12, 4096).total_bytes == 12 * 4096

    def test_dirty_where_counts_only_newly_dirtied(self):
        image = MemoryImage(6, 1)
        image.mark_copied([0, 1, 2])  # pages 3-5 stay never copied
        assert image.dirty_where(bytes((1, 0, 0, 1, 0, 0))) == 2
        assert image.dirty_where(bytes((1, 1, 0, 1, 1, 0))) == 2  # 0 and 3 already dirty
        dirty, clean = PageState.DIRTY_SINCE_COPY, PageState.CLEAN_AT_TARGET
        states = [image.page_state(p) for p in range(6)]
        assert states == [dirty, dirty, clean, dirty, dirty, PageState.NEVER_COPIED]
        assert (image.dirty_count, image.clean_count, image.never_copied_count) == (4, 1, 1)
        with pytest.raises(ValueError):
            image.dirty_where(bytes(5))

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
        image.dirty_where(bytes((1, 0, 0)) * (self.PAGES // 3))
        return image

    @pytest.mark.parametrize("duration_us", [3_000, 223_000, 1_609_000])  # q ~ 0.003, 0.2, 0.8
    def test_hit_rate_matches_q_in_both_halves(self, duration_us):
        q = 1.0 - (1.0 - self.P_PER_MS) ** (duration_us / 1000.0)
        half = self.PAGES // 2
        eligible = [0, 0]  # non-dirty pages per half, summed over draws
        hits = [0, 0]
        for seed in range(30):
            image = self.mixed_image()
            before = set(image.take_transfer_batch(BatchFilter.DIRTY_ONLY))
            newly = advance_dirty(image, BernoulliDirty(self.P_PER_MS, random.Random(seed)), duration_us)
            after = set(image.take_transfer_batch(BatchFilter.DIRTY_ONLY))
            assert before <= after
            assert newly == len(after - before)  # already-dirty pages never count
            for h in (0, 1):
                pages = range(h * half, (h + 1) * half)
                eligible[h] += sum(1 for page in pages if page not in before)
                hits[h] += sum(1 for page in after - before if page in pages)
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

    def bernoulli(self, p, seed, duration_us):
        """The page-by-page scan: one draw per non-dirty page, ascending."""
        rng = random.Random(seed)
        q = 1.0 - (1.0 - p) ** (duration_us / 1000.0)
        picked = [
            page for page in range(self.num_pages) if page not in self.dirty and rng.random() < q
        ]
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
            assert newly == len(reference.bernoulli(p, seed, duration_us))
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
