"""nfmigsim benchmark: one workload per run, end-to-end or traced layer by layer.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 20 --trace 0

``--workload all`` runs fleet, bigimage and hotdirty one after another.
Standard library only, one process at a time, no threads; the loop is
closed (each operation starts after the previous one ends).  All timings
are host time, scaled to a reference machine speed by ``calibrate.py``;
the unscaled figures are printed as well.  Simulated statistics are checked
and digested, never reported as metrics.

With ``--trace 0`` the run reports the end-to-end metrics:

setup_s
    Median over ``SETUP_SAMPLES`` fresh interpreters of the scaled seconds
    to ``import nfmigsim`` and load and validate the workload's scenario
    files (the import alone for the direct-API workloads).
wall_s
    Median scaled seconds of one pass, the workload's fixed operation
    sequence, over the passes that fit in ``--seconds``.
migrations_per_s
    Median over passes of the migration reports a pass produced per scaled
    second.
peak_rss_mb
    Peak resident memory of the fresh worker process that ran the workload.

``failed_frac`` (operations that raised or failed a check, over operations
attempted) is printed too; it is 0 on a correct build, so it travels in the
result line's ``attempted`` and ``failed`` rather than as a metric.

With ``--trace 1`` it reports the per-layer figures of ``layers.py``
instead, from a second, traced set of passes, plus the tracing overhead.
The last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 11
DEADLINE_S = 170  # per workload; the caller allows 180

sys.path.insert(0, str(BENCH))
import calibrate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "migrations_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def environment(workload: str, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "workload": workload,
        "seed": seed,
    }


def git_revision() -> str:
    """The checked-out commit, read from ``.git`` in the checkout, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(scenarios: list[Path], deadline: float) -> list[tuple[float, float]]:
    """(host seconds, scale) of each fresh-interpreter set-up sample."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), *map(str, scenarios)],
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
            cwd=ROOT,
        )
        if done.returncode != 0:
            raise BenchError(f"setup probe failed:\n{done.stderr[-2000:]}")
        elapsed, imported, loops = done.stdout.split("\n")[:3]
        if not Path(imported).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"setup probe imported nfmigsim from {imported}, not {SRC}")
        samples.append((float(elapsed), calibrate.scale([float(x) for x in loops.split()])))
    return samples


def run_worker(workload: str, seed: int, seconds: float, trace: int, workdir: Path,
               scenarios: list[Path], deadline: float) -> dict:
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", str(workdir), "--src", str(SRC),
    ]
    for path in scenarios:
        command += ["--scenario", str(path)]
    log = workdir / "worker.log"
    with open(log, "w", encoding="utf-8") as fh:
        try:
            done = subprocess.run(
                command, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker for '{workload}' ran past the deadline") from None
    if done.returncode != 0:
        tail = log.read_text(encoding="utf-8")[-3000:]
        raise BenchError(f"worker for '{workload}' exited with {done.returncode}:\n{tail}")
    return json.loads((workdir / "worker.json").read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; prints its report and returns its result record."""
    deadline = time.monotonic() + DEADLINE_S
    workdir = OUT / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    scenarios = workloads.fleet_scenarios(seed, workdir / "inputs") if workload == "fleet" else []
    setup = measure_setup(scenarios, deadline)
    worker = run_worker(workload, seed, seconds, trace, workdir, scenarios, deadline)

    walls = worker["pass_wall_s"]
    scaled = worker["pass_scaled_s"]
    env = environment(workload, seed)
    env.update(ops_per_pass=len(worker["ops"]), passes=len(walls), operations=worker["attempted"])
    host = {
        "setup_s": statistics.median(elapsed for elapsed, _ in setup),
        "wall_s": statistics.median(walls),
        "calibration_loop_s": statistics.median(worker["calibration_s"]),
    }
    if trace:
        metrics = {name: {"value": worker["per_layer"][name], "unit": unit}
                   for name, unit in layers.UNITS.items()}
    else:
        values = {
            "setup_s": statistics.median(elapsed * factor for elapsed, factor in setup),
            "wall_s": statistics.median(scaled),
            "migrations_per_s": statistics.median(
                m / s for m, s in zip(worker["pass_migrations"], scaled)
            ),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": END_TO_END_UNITS[name]} for name in values}
    record = {
        "environment": env,
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "problems": worker["problems"],
        "digest": worker["digest"],
        "drone_digest": worker["drone_digest"],
        "host": host,
        "setup_samples_s": setup,
        "pass_wall_s": walls,
        "pass_scaled_s": scaled,
        "calibration_s": worker["calibration_s"],
        "metrics": metrics,
    }
    if trace:
        record["traced_passes"] = worker["traced_passes"]
        record["spans_file"] = worker["spans_file"]
    (workdir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    report(record, trace)
    return record


def report(record: dict, trace: int) -> None:
    env = record["environment"]
    print(f"== {env['workload']} seed={env['seed']} trace={trace}")
    print("environment: " + ", ".join(f"{key}={value}" for key, value in env.items()))
    print(f"ops: {record['attempted']} attempted, {record['failed']} failed, "
          f"failed_frac {record['failed'] / record['attempted']:.6g} (ratio)")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    print(f"digest: {record['digest']}")
    print(f"drone digest: {record['drone_digest']}")
    print("host time, unscaled: " + ", ".join(f"{k}={v:.6g}" for k, v in record["host"].items()))
    for name, metric in record["metrics"].items():
        print(f"{name:<36} {metric['value']:>16.6g} {metric['unit']}")
    if trace:
        wall = record["metrics"]["trace.wall_s"]["value"]
        print(f"layer self time as a share of the traced pass ({wall:.4g} s):")
        for name, metric in record["metrics"].items():
            if name.startswith("layer."):
                print(f"  {name[6:-7]:<10} {100 * metric['value'] / wall:6.1f}%")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="nfmigsim benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nfmigsim" / "__init__.py").is_file():
        print(f"error: no nfmigsim sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, r in records.items() for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
