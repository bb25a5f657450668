"""Run one workload in a fresh process and write its measurements as JSON.

Started by ``run.py``, one workload per process, so that the process's peak
resident memory belongs to that workload alone.  Usage::

    python3 perfbench/worker.py --workload fleet --seed 1 --seconds 20 \
        --trace 0 --workdir .perfbench_out/fleet [--scenario FILE ...]

The worker repeats the workload's operation sequence (one *pass*) until
``--seconds`` have gone by, checking every operation's output after the
clock stops.  With ``--trace 1`` it spends the first half of the time on
untraced passes and the second half on at most ``MAX_TRACED_PASSES``
traced ones, each after an untraced one, and reports per-layer figures as
medians over the traced passes.  Before and after every pass it times the
calibration loop of ``calibrate.py`` and scales the pass's times by it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate
import instrument
import layers
import workloads
from spans import Tracer

MAX_TRACED_PASSES = 3
MIN_PASSES = 2  # a second execution is what the byte-identity checks compare against
MAX_PROBLEMS = 20


class Tally:
    """Operations attempted and failed, with the first problems found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: MAX_PROBLEMS - len(self.problems)])


def execute(op, tally: Tally, run=None) -> tuple[float, int, bytes]:
    """Time one operation, then check it; returns (seconds, migrations, digest bytes)."""
    run = run or op.run
    started = time.perf_counter()
    try:
        result = run()
    except Exception as exc:  # an operation that raises is a failed operation
        elapsed = time.perf_counter() - started
        tally.record([f"{op.name}: raised {type(exc).__name__}: {exc}"])
        return elapsed, 0, b""
    elapsed = time.perf_counter() - started
    try:
        migrations, problems, digest = op.check(result)
    except Exception as exc:
        migrations, problems, digest = 0, [f"{op.name}: check raised {type(exc).__name__}: {exc}"], b""
    del result
    tally.record(problems)
    return elapsed, migrations, digest


def run_pass(ops, tally: Tally, runners=None) -> dict:
    """One pass of ``ops`` (through ``runners`` when given), with its calibration.

    The pass records its host time and the calibration loop samples taken
    just before and just after it.
    """
    before = calibrate.sample()
    wall = 0.0
    migrations = 0
    digest = hashlib.sha256()
    for index, op in enumerate(ops):
        elapsed, count, op_digest = execute(op, tally, runners[index] if runners else None)
        wall += elapsed
        migrations += count
        digest.update(op_digest)
    calibration = before + calibrate.sample()
    return {
        "wall_s": wall,
        "scaled_s": wall * calibrate.scale(calibration),
        "calibration_s": calibration,
        "migrations": migrations,
        "digest": digest.hexdigest(),
    }


def run_passes(ops, tally: Tally, budget_s: float) -> list[dict]:
    """Repeat the pass until ``budget_s`` is spent, at least ``MIN_PASSES`` times."""
    passes = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < budget_s:
        passes.append(run_pass(ops, tally))
    return passes


def traced_passes(ops, tally: Tally, budget_s: float) -> tuple[dict, Tracer, int]:
    """Untraced and traced passes in turn; returns per-layer medians, the spans
    and the number of traced passes.

    Pairing each traced pass with an untraced one just before it keeps a
    drift in the machine's speed out of the tracing overhead.
    """
    tracer = Tracer()

    def traced_run(op):
        run = tracer.wrap("bench.op", op.run)

        def next_op():
            tracer.current_op += 1  # all spans of one operation share its id
            return run()

        return next_op

    runners = [traced_run(op) for op in ops]
    untraced, traced, bounds = [], [], []
    started = time.perf_counter()
    while len(traced) < MAX_TRACED_PASSES:
        untraced.append(run_pass(ops, tally))
        first_span, counters_before = len(tracer), dict(tracer.counters)
        undo = instrument.install(tracer)
        try:
            traced.append(run_pass(ops, tally, runners))
        finally:
            undo()
        counters = {
            key: value - counters_before.get(key, 0) for key, value in tracer.counters.items()
        }
        bounds.append((first_span, len(tracer), counters))
        if time.perf_counter() - started >= budget_s:
            break
    self_ns = tracer.self_ns()
    per_pass = [
        layers.metrics(
            tracer, self_ns, first, last, counters, record["wall_s"],
            calibrate.scale(record["calibration_s"]),
        )
        for (first, last, counters), record in zip(bounds, traced)
    ]
    figures = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    figures["trace.overhead_s"] = figures["trace.wall_s"] - statistics.median(
        p["scaled_s"] for p in untraced
    )
    figures["trace.calibration_loop_s"] = statistics.median(
        sample for p in traced for sample in p["calibration_s"]
    )
    return figures, tracer, len(traced)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--scenario", type=Path, action="append", default=[])
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.src))
    import nfmigsim
    import nfmigsim.cli  # noqa: F401  (the package does not import its CLI)

    if not Path(nfmigsim.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"imported nfmigsim from {nfmigsim.__file__}, not {args.src}", file=sys.stderr)
        return 2

    out_dir = args.workdir / "out"
    tally = Tally()
    ops = workloads.build(nfmigsim, args.workload, args.seed, args.scenario, out_dir)

    drone = workloads.drone_gate(nfmigsim, out_dir)
    drone_digest = execute(drone, tally)[2]
    execute(drone, tally)  # checked against the first execution

    untraced_budget = args.seconds / 2 if args.trace else args.seconds
    passes = run_passes(ops, tally, untraced_budget)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": [op.name for op in ops],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_scaled_s": [p["scaled_s"] for p in passes],
        "calibration_s": [sample for p in passes for sample in p["calibration_s"]],
        "pass_migrations": [p["migrations"] for p in passes],
        "digest": passes[0]["digest"],
        "drone_digest": hashlib.sha256(drone_digest).hexdigest(),
    }
    if args.trace:
        figures, tracer, result["traced_passes"] = traced_passes(
            ops, tally, args.seconds - untraced_budget
        )
        result["per_layer"] = figures
        spans_path = args.workdir / "spans.tsv"
        tracer.write_tsv(spans_path)
        result["spans_file"] = str(spans_path)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["attempted"] = tally.attempted
    result["failed"] = tally.failed
    result["problems"] = tally.problems
    (args.workdir / "worker.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
