"""Per-layer figures of one traced pass, computed from its spans.

Times are reference seconds (host seconds scaled by ``calibrate.py``),
except ``trace.calibration_loop_s``, the calibration loop's median host
time, which shows how fast the host ran.  The ``_s`` figure of a function
is its self time (its span minus wrapped children) unless noted; ``runner.run_s``,
``runner.export_s`` and ``scenario.build_s`` are inclusive, because the
end-to-end time they stand for includes their children.  Counts are exact
and repeat from pass to pass; a speed-only change must leave them as they
are.
"""

from __future__ import annotations

from typing import Sequence

from instrument import LAYERS
from spans import Tracer

NS = 1e-9

# (metric prefix, span names whose self time is the strategy's cost)
STRATEGIES = (
    ("inter_copy", ("migration.inter_copy",)),
    ("pre_copy", ("migration.pre_copy",)),
    ("post_copy", ("migration.post_copy",)),
    ("parallel", ("migration.parallel", "migration.replica_sync", "migration.replica_ticks")),
    ("redeploy", ("migration.redeploy",)),
)

# metric name -> unit, in the order they are reported
UNITS = {
    "scenario.build_calls": "count",
    "scenario.build_s": "s",
    "engine.events_scheduled": "count",
    "engine.schedule_s": "s",
    "engine.events_processed": "count",
    "engine.events_per_s": "1/s",
    "model.latency_calls": "count",
    "model.latency_s": "s",
    "model.hosts_in_hall_calls": "count",
    "model.hosts_in_hall_s": "s",
    "model.channel_calls": "count",
    "model.channel_s": "s",
    "policy.check_placement_calls": "count",
    "policy.check_placement_s": "s",
    "policy.feasible_ratio": "ratio",
    "policy.select_strategy_calls": "count",
    "policy.select_strategy_s": "s",
    **{
        f"memory.{model}.{field}": unit
        for model in ("constant_rate", "bernoulli")
        for field, unit in (("calls", "count"), ("pages_dirtied", "count"), ("s", "s"), ("ns_per_page", "ns"))
    },
    "memory.take_batch_calls": "count",
    "memory.take_batch_s": "s",
    "memory.mark_copied_calls": "count",
    "memory.mark_copied_s": "s",
    "memory.reset_s": "s",
    "memory.image_init_s": "s",
    **{
        f"migration.{strategy}.{field}": unit
        for strategy, _ in STRATEGIES
        for field, unit in (("calls", "count"), ("s", "s"), ("pages", "count"))
    },
    "migration.pre_copy.rounds": "count",
    "migration.post_copy.stall_us": "us",
    "migration.parallel.sync_ticks": "count",
    "runner.run_s": "s",
    "runner.self_s": "s",
    "runner.export_s": "s",
    "runner.export_bytes": "bytes",
    "runner.migrations": "count",
    "runner.failed_migrations": "count",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS + ("other",)},
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.calibration_loop_s": "s",
}


def aggregate(
    tracer: Tracer, self_ns: Sequence[int], first: int, last: int
) -> dict[str, list[int]]:
    """Span name -> [calls, total ns, self ns, summed work count] over spans first..last-1."""
    totals: dict[str, list[int]] = {name: [0, 0, 0, 0] for name in tracer.names}
    names = tracer.names
    for sid in range(first, last):
        entry = totals[names[tracer.name_id[sid]]]
        entry[0] += 1
        entry[1] += tracer.end_ns[sid] - tracer.start_ns[sid]
        entry[2] += self_ns[sid]
        entry[3] += tracer.value[sid]
    return totals


def metrics(
    tracer: Tracer,
    self_ns: Sequence[int],
    first: int,
    last: int,
    counters: dict[str, int],
    wall_s: float,
    scale: float,
) -> dict[str, float]:
    """Every figure in ``UNITS`` for the pass whose spans are first..last-1.

    ``wall_s`` is the pass's host time; ``scale`` turns host time into the
    reference time of ``calibrate.py``.
    """
    totals = aggregate(tracer, self_ns, first, last)
    empty = [0, 0, 0, 0]
    to_s = NS * scale

    def calls(name: str) -> int:
        return totals.get(name, empty)[0]

    def total_s(name: str) -> float:
        return totals.get(name, empty)[1] * to_s

    def self_s(*names: str) -> float:
        return sum(totals.get(name, empty)[2] for name in names) * to_s

    def work(name: str) -> int:
        return totals.get(name, empty)[3]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    processed = counters.get("engine.events_processed", 0)
    run_s = total_s("runner.run_scenario")
    out = {
        "scenario.build_calls": calls("scenario.build"),
        "scenario.build_s": total_s("scenario.build"),
        "engine.events_scheduled": calls("engine.schedule"),
        "engine.schedule_s": self_s("engine.schedule"),
        "engine.events_processed": processed,
        "engine.events_per_s": ratio(processed, run_s),
        "model.latency_calls": calls("model.one_way_latency_us"),
        "model.latency_s": self_s("model.one_way_latency_us"),
        "model.hosts_in_hall_calls": calls("model.hosts_in_hall"),
        "model.hosts_in_hall_s": self_s("model.hosts_in_hall"),
        "model.channel_calls": calls("model.channel"),
        "model.channel_s": self_s("model.channel"),
        "policy.check_placement_calls": calls("policy.check_placement"),
        "policy.check_placement_s": self_s("policy.check_placement"),
        "policy.feasible_ratio": ratio(work("policy.check_placement"), calls("policy.check_placement")),
        "policy.select_strategy_calls": calls("policy.select_strategy"),
        "policy.select_strategy_s": self_s("policy.select_strategy"),
        "memory.take_batch_calls": calls("memory.take_batch"),
        "memory.take_batch_s": self_s("memory.take_batch"),
        "memory.mark_copied_calls": calls("memory.mark_copied"),
        "memory.mark_copied_s": self_s("memory.mark_copied"),
        "memory.reset_s": self_s("memory.reset"),
        "memory.image_init_s": self_s("memory.image_init"),
        "migration.pre_copy.rounds": counters.get("migration.pre_copy.rounds", 0),
        "migration.post_copy.stall_us": counters.get("migration.post_copy.stall_us", 0),
        "migration.parallel.sync_ticks": counters.get("migration.parallel.sync_ticks", 0),
        "runner.run_s": run_s,
        "runner.self_s": self_s("runner.run_scenario"),
        "runner.export_s": total_s("runner.export_metrics"),
        "runner.export_bytes": work("runner.export_metrics"),
        "runner.migrations": work("runner.run_scenario"),
        "runner.failed_migrations": counters.get("runner.failed_migrations", 0),
        "trace.spans": last - first,
        "trace.wall_s": wall_s * scale,
    }
    for model in ("constant_rate", "bernoulli"):
        span = f"memory.{model}.draw"
        dirtied = work(span)
        out[f"memory.{model}.calls"] = calls(span)
        out[f"memory.{model}.pages_dirtied"] = dirtied
        out[f"memory.{model}.s"] = self_s(span)
        out[f"memory.{model}.ns_per_page"] = ratio(totals.get(span, empty)[2] * scale, dirtied)
    for strategy, spans in STRATEGIES:
        out[f"migration.{strategy}.calls"] = calls(spans[0])
        out[f"migration.{strategy}.s"] = self_s(*spans)
        out[f"migration.{strategy}.pages"] = work(spans[0])
    layer_ns = {layer: 0 for layer in LAYERS + ("other",)}
    for name, (_, _, span_self_ns, _) in totals.items():
        layer = name.split(".", 1)[0]
        layer_ns[layer if layer in layer_ns else "other"] += span_self_ns
    for layer, ns in layer_ns.items():
        out[f"layer.{layer}.self_s"] = ns * to_s
    return {name: out[name] for name in UNITS if name in out}
