"""Tests of the benchmark's own code: generator determinism and span arithmetic.

Run with ``python3 -m pytest perfbench`` from the root of the checkout.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import instrument  # noqa: E402
import scenario_gen  # noqa: E402
from spans import NO_PARENT, Tracer, covered_ns, self_times  # noqa: E402


def test_generator_same_seed_same_bytes():
    assert scenario_gen.dumps(scenario_gen.generate(7)) == scenario_gen.dumps(scenario_gen.generate(7))


def test_generator_seed_changes_document_but_not_its_size():
    first, second = scenario_gen.generate(1), scenario_gen.generate(2)
    assert scenario_gen.dumps(first) != scenario_gen.dumps(second)
    for key in ("hosts", "links"):
        assert len(first["topology"][key]) == len(second["topology"][key])
    assert len(first["nfs"]) == len(second["nfs"]) == 90
    assert scenario_gen.expected_migrations(first) == scenario_gen.expected_migrations(second) == 3600


def test_generator_parameters_shape_the_document():
    doc = scenario_gen.generate(3, halls=2, hosts_per_hall=5, nfs_per_kind=2, triggers=3,
                                num_pages=64, dirty_model="bernoulli")
    assert len(doc["topology"]["hosts"]) == 10
    assert len(doc["triggers"]) == 3
    stateful = [nf for nf in doc["nfs"] if "memory" in nf]
    assert len(stateful) == 2 * 5
    assert all(nf["memory"]["num_pages"] == 64 for nf in stateful)
    assert all(nf["memory"]["dirty_model"]["kind"] == "bernoulli" for nf in stateful)


def test_generated_file_runs_through_the_cli(tmp_path):
    from nfmigsim import cli

    doc = scenario_gen.generate(5, halls=3, hosts_per_hall=5, nfs_per_kind=2, triggers=4)
    path = tmp_path / "small.scenario"
    path.write_text(scenario_gen.dumps(doc), encoding="utf-8")
    assert cli.main(["simulate", str(path), "--seed", "5", "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "migrations.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == scenario_gen.expected_migrations(doc) == 4 * 12
    assert all(row.endswith(",success") for row in rows)


def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert covered_ns(0, 100, []) == 0
    assert covered_ns(0, 100, [(10, 20), (30, 50)]) == 30
    assert covered_ns(0, 100, [(10, 40), (30, 50)]) == 40  # overlap counted once
    assert covered_ns(0, 100, [(30, 50), (10, 40), (35, 45)]) == 40  # order does not matter
    assert covered_ns(10, 60, [(0, 20), (50, 90)]) == 20  # clipped to the parent


def test_self_times_subtract_direct_children_only():
    # 0: [0, 100] -> 1: [10, 60] -> 2: [20, 30];  0 -> 3: [70, 90]
    starts = [0, 10, 20, 70]
    ends = [100, 60, 30, 90]
    parents = [NO_PARENT, 0, 1, 0]
    assert self_times(starts, ends, parents) == [30, 40, 10, 20]


def test_tracer_records_nesting_and_work_counts():
    tracer = Tracer()

    def leaf(n):
        return list(range(n))

    traced_leaf = tracer.wrap("memory.leaf", leaf, lambda result, args: len(result))
    traced_outer = tracer.wrap("migration.outer", lambda: [traced_leaf(3), traced_leaf(4)])
    assert traced_outer() == [[0, 1, 2], [0, 1, 2, 3]]
    assert [tracer.names[i] for i in tracer.name_id] == ["migration.outer", "memory.leaf", "memory.leaf"]
    assert list(tracer.parent) == [NO_PARENT, 0, 0]
    assert list(tracer.value) == [0, 3, 4]
    outer_self = tracer.self_ns()[0]
    duration = tracer.end_ns[0] - tracer.start_ns[0]
    children = sum(tracer.end_ns[i] - tracer.start_ns[i] for i in (1, 2))
    assert outer_self == duration - children


def test_tracer_records_a_span_for_a_call_that_raises():
    tracer = Tracer()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("model.fail", fail)()
    assert len(tracer) == 1 and tracer.end_ns[0] >= tracer.start_ns[0]


def test_install_restores_every_original():
    from nfmigsim import cli, memory, runner

    before = (cli.main, runner.check_placement, memory.MemoryImage.__init__)
    undo = instrument.install(Tracer())
    assert cli.main is not before[0] and runner.check_placement is not before[1]
    undo()
    assert (cli.main, runner.check_placement, memory.MemoryImage.__init__) == before
