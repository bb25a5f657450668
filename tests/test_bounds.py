"""Every numeric bound is one rule: its wording, its exception type and how it shows a value."""

import dataclasses
import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfmigsim import bundled_scenario_path, load_scenario, run_scenario
from nfmigsim.errors import InvariantViolation, check_bound, shown
from nfmigsim.memory import BernoulliDirty, ConstantRateDirty, MemoryImage, advance_dirty
from nfmigsim.migration import MAX_PRECOPY_ROUNDS, MigrationParams, analytic_pre_copy
from nfmigsim.model import (
    MAX_LATENCY_US,
    Channel,
    DriverKind,
    HostNode,
    IsolationLevel,
    Link,
    NetworkDriverProfile,
    NfInstance,
    NfKind,
    validate_topology,
)
from nfmigsim.scenario import MAX_RTT_SAMPLES, MAX_SEED, MigrationTrigger

DRONE = load_scenario(bundled_scenario_path())
INTERVAL = DRONE.rtt_sample_interval_us


@dataclasses.dataclass(frozen=True)
class Bound:
    """One bounded input: how to pass it a value, who raises, and the rule it declares."""

    call: object
    owner: type
    field: str
    low: object = None
    high: object = None
    above: object = None
    integer: bool = False
    number: bool = False

    def rejects(self, value) -> bool:
        kinds = int if self.integer else (int, float)
        if (self.integer or self.number) and (
            isinstance(value, bool) or not isinstance(value, kinds)
        ):
            return True
        if self.high == math.inf and not value < math.inf:
            return True
        return not all(
            (
                self.low is None or value >= self.low,
                self.above is None or value > self.above,
                self.high is None or value <= self.high,
            )
        )

    def edges(self) -> list:
        """A value just past each finite bound, then one on it (just inside, for ``above``)."""
        step = 1 if self.integer else None
        up = (lambda x: x + step) if step else (lambda x: math.nextafter(x, math.inf))
        down = (lambda x: x - step) if step else (lambda x: math.nextafter(x, -math.inf))
        values = []
        if self.low is not None:
            values += [down(self.low), self.low]
        if self.above is not None:
            values += [self.above, up(self.above)]
        if self.high is not None and self.high != math.inf:
            values += [up(self.high), self.high]
        return values


def _params(name):
    return lambda v: MigrationParams(**{name: v})


def _analytic(i):
    args = [100, 100, 200, 2, 10]
    return lambda v: analytic_pre_copy(*args[:i], v, *args[i + 1 :])


_HOST = HostNode("h", "A", 1, DriverKind.HOST)

BOUNDS = {
    "MemoryImage.num_pages": Bound(
        lambda v: MemoryImage(v, 4096), ValueError, "num_pages", 0, 10**7, integer=True
    ),
    "MemoryImage.page_size": Bound(
        lambda v: MemoryImage(10, v), ValueError, "page_size", above=0, integer=True
    ),
    "MemoryImage.working_set_fraction": Bound(
        lambda v: MemoryImage(10, 1, working_set_fraction=v),
        ValueError,
        "working_set_fraction",
        0,
        1,
    ),
    "MemoryImage.working_set": Bound(
        lambda v: MemoryImage(10, 1, working_set=[v]),
        ValueError,
        "working_set page id",
        0,
        9,
        integer=True,
    ),
    "ConstantRateDirty": Bound(ConstantRateDirty, ValueError, "rate_pages_per_s", 0, math.inf),
    "BernoulliDirty": Bound(
        lambda v: BernoulliDirty(v, Random(1)), ValueError, "p_per_page_per_ms", 0, 1
    ),
    "advance_dirty": Bound(
        lambda v: advance_dirty(MemoryImage(10, 1), ConstantRateDirty(1), v),
        ValueError,
        "duration",
        0,
        math.inf,
        integer=True,
    ),
    **{
        f"MigrationParams.{f.name}": Bound(_params(f.name), ValueError, f.name, 0, integer=True)
        for f in dataclasses.fields(MigrationParams)
        if f.name != "precopy_max_rounds"
    },
    "MigrationParams.precopy_max_rounds": Bound(
        _params("precopy_max_rounds"),
        ValueError,
        "precopy_max_rounds",
        1,
        MAX_PRECOPY_ROUNDS,
        integer=True,
    ),
    "analytic_pre_copy.num_pages": Bound(_analytic(0), ValueError, "num_pages", 0, math.inf),
    "analytic_pre_copy.bandwidth": Bound(
        _analytic(1), ValueError, "bandwidth", high=math.inf, above=0
    ),
    "analytic_pre_copy.rate": Bound(_analytic(2), ValueError, "rate_pages_per_s", 0, math.inf),
    "analytic_pre_copy.stop_threshold": Bound(_analytic(3), ValueError, "stop_threshold", 0),
    "analytic_pre_copy.max_rounds": Bound(
        _analytic(4), ValueError, "max_rounds", 1, MAX_PRECOPY_ROUNDS
    ),
    "NetworkDriverProfile": Bound(
        lambda v: NetworkDriverProfile(DriverKind.HOST, v, True, IsolationLevel.NONE),
        InvariantViolation,
        "rtt_inter_host_us",
        high=MAX_LATENCY_US,
        above=0,
    ),
    "HostNode": Bound(
        lambda v: HostNode("h", "A", v, DriverKind.HOST),
        InvariantViolation,
        "cpu_capacity",
        0,
        number=True,
    ),
    "Link.bandwidth_bps": Bound(
        lambda v: Link("a", "b", v), InvariantViolation, "bandwidth_bps", above=0
    ),
    "Link.extra_latency_us": Bound(
        lambda v: Link("a", "b", 10**8, v),
        InvariantViolation,
        "extra_latency_us",
        0,
        MAX_LATENCY_US,
    ),
    "NfInstance": Bound(
        lambda v: NfInstance("n", NfKind.UPF, "h", None, v),
        InvariantViolation,
        "cpu_demand",
        0,
        math.inf,
        number=True,
    ),
    "Channel.bandwidth_bps": Bound(lambda v: Channel(v, 0), ValueError, "bandwidth_bps", above=0),
    "Channel.latency_us": Bound(lambda v: Channel(10, v), ValueError, "latency_us", 0, math.inf),
    "validate_topology": Bound(
        lambda v: validate_topology([_HOST], [], [], intra_host_latency_us=v),
        InvariantViolation,
        "intra_host_latency_us",
        0,
        MAX_LATENCY_US,
    ),
    "MigrationTrigger": Bound(
        lambda v: MigrationTrigger(v, "drone-1", "hall-B"), ValueError, "time_us", 0, integer=True
    ),
    # With the drone's sample interval, the sample cap bounds the duration too.
    "Scenario.duration_us": Bound(
        lambda v: dataclasses.replace(DRONE, triggers=(), duration_us=v),
        ValueError,
        "duration_us",
        0,
        MAX_RTT_SAMPLES * INTERVAL + INTERVAL - 1,
        integer=True,
    ),
    "Scenario.rtt_sample_interval_us": Bound(
        lambda v: dataclasses.replace(
            DRONE, triggers=(), duration_us=100, rtt_sample_interval_us=v
        ),
        ValueError,
        "rtt_sample_interval_us",
        above=0,
        integer=True,
    ),
    "Scenario.seed": Bound(
        lambda v: dataclasses.replace(DRONE, seed=v), ValueError, "seed", -MAX_SEED, MAX_SEED,
        integer=True,
    ),
    # A fresh scenario for each run that goes ahead: a run changes its images' page state.
    "run_scenario.seed": Bound(
        lambda v: run_scenario(load_scenario(bundled_scenario_path()), seed=v),
        InvariantViolation,
        "seed",
        -MAX_SEED,
        MAX_SEED,
        integer=True,
    ),
}

EXTREMES = [math.nan, math.inf, -math.inf, True, 10**400, -(10**400), 10**5000]


def _label(value):
    return shown(value) if isinstance(value, int) else repr(value)


@pytest.mark.parametrize(
    "bound, value",
    [
        pytest.param(bound, value, id=f"{name}={_label(value)}")
        for name, bound in BOUNDS.items()
        for value in EXTREMES + bound.edges()
    ],
)
def test_each_bound_raises_its_owners_type_with_a_short_message(bound, value):
    if not bound.rejects(value):
        bound.call(value)
        return
    with pytest.raises(Exception) as info:
        bound.call(value)
    assert type(info.value) is bound.owner
    message = str(info.value)
    assert len(message) < 120 and bound.field in message


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"low": 0}, "x must be >= 0, got -1"),
        ({"above": 0}, "x must be positive, got -1"),
        ({"high": -2}, "x must be <= -2, got -1"),
        ({"low": 0, "high": math.inf}, "x must be finite and >= 0, got -1"),
        ({"above": 0, "high": math.inf}, "x must be finite and positive, got -1"),
        ({"above": -1}, "x must be > -1, got -1"),
        ({"integer": True, "high": -2}, "x must be <= -2, got -1"),
    ],
)
def test_one_wording_per_rule(kwargs, message):
    with pytest.raises(ValueError) as info:
        check_bound("x", -1, **kwargs)
    assert str(info.value) == message


def test_the_integer_rule_and_the_entity():
    with pytest.raises(ValueError) as info:
        check_bound("x", 1.0, 0, integer=True)
    assert str(info.value) == "x must be an integer, got 1.0"
    for value, shown_value in ((True, "True"), ("1.5", "'1.5'")):
        with pytest.raises(ValueError) as info:
            check_bound("x", value, number=True)
        assert str(info.value) == f"x must be an int or float, got {shown_value}"
    with pytest.raises(InvariantViolation) as info:
        check_bound("x", False, integer=True, entity="e")
    assert (info.value.entity, info.value.detail) == ("e", "x must be an integer, got False")


def test_a_value_inside_every_bound_passes():
    assert check_bound("x", 5, 0, 10, above=4, integer=True) is None
    assert check_bound("x", 0.5, 0, math.inf) is None
    assert check_bound("x", 0.5, 0, math.inf, number=True) is None
    assert check_bound("x", math.inf, 0, number=True) is None


_SHOWN = [
    (10**20 - 1, "99999999999999999999"),
    (-(10**20) + 1, "-99999999999999999999"),
    (10**20, "an integer of 21 digits"),
    (-(10**20), "a negative integer of 21 digits"),
    (10**400, "an integer of 401 digits"),
    (10**400 - 1, "an integer of 400 digits"),
    (-(10**5000), "a negative integer of 5001 digits"),
    (10**10000 + 7, "an integer of 10001 digits"),
    (2**63, "9223372036854775808"),
    (True, "True"),
    (math.nan, "nan"),
    (2.5, "2.5"),
    ("4096", "'4096'"),
    ("x" * 60, repr("x" * 60)),
    ("x" * 61, f"'{'x' * 40}...' (61 characters)"),
    # A quote in the string makes the start a double-quoted repr.
    ("a'b" * 400, repr("a'b" * 13 + "a...") + " (1200 characters)"),
    # Cut to 40 bytes of ``repr`` at a whole escape or character, not to 40 characters.
    ("\x01" * 1000, "'" + "\\x01" * 10 + "...' (1000 characters)"),
    ("界" * 100, f"'{'界' * 13}...' (100 characters)"),
    ("\\" * 60, "'" + "\\\\" * 20 + "...' (60 characters)"),
    ("\ud800" * 3, "'\\ud800\\ud800\\ud800'"),
]


@pytest.mark.parametrize("value, text", [pytest.param(*row, id=row[1]) for row in _SHOWN])
def test_shown_gives_a_huge_integer_by_sign_and_size(value, text):
    # It never meets Python's digit limit: 10**5000 has more than 4300 digits.
    assert shown(value) == text


# Any character, lone surrogates included, and the ones ``repr`` escapes or UTF-8 widens; and
# printable ASCII, whole up to 60 characters and by its first 40 past that.
_ANY_TEXT = st.text(
    st.one_of(st.characters(blacklist_categories=()), st.sampled_from("\x01\n'\"\\界😀\udc80")),
    max_size=200,
) | st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=200)


@settings(max_examples=300, deadline=None)
@given(_ANY_TEXT)
def test_shown_takes_at_most_70_bytes_for_any_string(value):
    text = shown(value)
    assert len(text.encode()) <= 70
    if value.isascii() and value.isprintable() and not set("'\"\\") & set(value):
        cut = f"{value[:40] + '...'!r} ({len(value)} characters)"
        assert text == (repr(value) if len(value) <= 60 else cut)
