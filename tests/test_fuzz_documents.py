"""Random edits of valid documents: each one runs, or exits 2 with one short error line.

The hand-written fault documents in ``test_scenario.py`` pin each message; this fuzzer
checks the rule itself on documents nobody picked.  Edits set one to three values from a
pool that holds one value of each class a fault was ever found in, delete keys, or add
unknown ones.  Examples are derandomized, so the suite stays deterministic.  There is no
deadline: a valid document may legitimately run for seconds (a duration near the RTT
sample cap takes about 7 s on the drone).
"""

import contextlib
import copy
import gc
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from nfmigsim import bundled_scenario_path
from nfmigsim.cli import main
from nfmigsim.scenario import read_document
from test_runner import bernoulli_drone_document
from test_scenario import generated_document

BASES = {
    "drone": read_document(bundled_scenario_path()),
    "bernoulli-drone": bernoulli_drone_document(),
    "generated": generated_document(7),
}

# Negative, zero, fractional, past and at the float limits, NaN, past 64 bits and past
# the largest float, long and unprintable strings, a string no UTF-8 file can hold, and
# each JSON type.
POOL = [
    -1,
    0,
    0.5,
    1e308,
    math.nan,
    math.inf,
    -math.inf,
    10**30,
    2**63,
    10**400,
    "x" * 1000,
    "q'u\"o\\te\n\t\x00\x1b",
    "lone \ud800 surrogate",
    None,
    True,
    False,
    [],
    {},
]

FUZZ = settings(derandomize=True, deadline=None, database=None)


def paths(node, prefix=()):
    """The path of every value below ``node``: dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)) and value:
            yield from paths(value, prefix + (key,))


def at(data, path):
    for key in path:
        data = data[key]
    return data


@st.composite
def edited_documents(draw):
    data = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(paths(data))))
        parent, key = at(data, path[:-1]), path[-1]
        action = draw(st.sampled_from(["set", "set", "delete", "add"]))
        if action == "set":
            parent[key] = copy.deepcopy(draw(st.sampled_from(POOL)))
        elif action == "delete":
            del parent[key]
        else:  # an unknown key, in the value's object or, in a list, at the top
            target = parent if isinstance(parent, dict) else data
            target[draw(st.sampled_from(["extra", "k" * 300]))] = draw(st.sampled_from(POOL))
    return data


def run_cli(argv, collecting):
    """Exit code and stderr of an in-process ``cli.main`` call, with the collector on or off
    before it; the collector must be in that state after it too."""
    before = gc.isenabled()
    gc.enable() if collecting else gc.disable()
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert gc.isenabled() is collecting
    finally:
        gc.enable() if before else gc.disable()
    return code, stderr.getvalue()


def assert_runs_or_one_error_line(code, err):
    if code == 0:
        assert err == ""
        return
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert len(err.encode()) <= 200, err


@settings(FUZZ, max_examples=300)
@given(data=edited_documents(), collecting=st.booleans())
def test_an_edited_document_runs_or_exits_2_with_one_short_line(data, collecting):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.scenario"
        path.write_text(json.dumps(data), encoding="utf-8")
        argv = ["simulate", str(path), "--out", str(Path(tmp) / "out")]
        code, err = run_cli(argv, collecting)
    assert_runs_or_one_error_line(code, err)


def dotted_keys(node, prefix=""):
    """Every dotted key ``sweep --param`` can set: paths through objects only."""
    for key, value in node.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from dotted_keys(value, prefix + key + ".")


SWEEP_KEYS = sorted(set(dotted_keys(BASES["drone"]))) + ["extra", "migration_params.extra"]
SWEEP_VALUES = [json.dumps(value) for value in POOL] + ["word", "1,", ""]


@settings(FUZZ, max_examples=60)
@given(
    key=st.sampled_from(SWEEP_KEYS),
    values=st.lists(st.sampled_from(SWEEP_VALUES), min_size=1, max_size=2),
    collecting=st.booleans(),
)
def test_a_sweep_param_runs_or_exits_2_with_one_short_line(key, values, collecting):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["sweep", str(bundled_scenario_path()), "--param", f"{key}={','.join(values)}"]
        code, err = run_cli([*argv, "--out", str(Path(tmp) / "sweep")], collecting)
    assert_runs_or_one_error_line(code, err)
