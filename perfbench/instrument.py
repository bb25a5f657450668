"""Wrap the public functions of each nfmigsim layer with span recording.

No program file changes: each function is replaced, for the duration of the
traced run, under the name its caller looks it up by.  The runner and the
CLI import functions by name, so those names are patched in the importing
module; methods are patched on their class, which every caller reaches
through an instance.  ``install`` returns a function that puts every
original back.

Span names are ``<layer>.<function>``; the layer is the module under
``src/nfmigsim`` that does the work.  ``cli.*`` and ``bench.*`` spans are
the thin command-line shell and the benchmark's own code.
"""

from __future__ import annotations

from typing import Callable

from spans import Tracer

LAYERS = ("scenario", "engine", "model", "policy", "memory", "migration", "runner")


def _pages(report, args) -> int:
    memory = args[0].memory
    return report.bytes_transferred // memory.page_size if memory is not None else 0


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch every traced entry point of ``nfmigsim``; returns the undo."""
    from nfmigsim import cli, engine, memory, migration, model, runner, scenario

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str, measure=None) -> None:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, measure))

    def count(owner, attr: str, counter: str, measure) -> None:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.counting(counter, original, measure))

    def pre_copy_pages(report, args) -> int:
        tracer.add("migration.pre_copy.rounds", report.rounds)
        return _pages(report, args)

    def post_copy_pages(report, args) -> int:
        tracer.add("migration.post_copy.stall_us", report.stall_time_us)
        return _pages(report, args)

    def parallel_pages(report, args) -> int:
        replica = args[0]
        tracer.add("migration.parallel.sync_ticks", replica.ticks_completed)
        return report.bytes_transferred // replica.image.page_size

    def export_bytes(paths, args) -> int:
        return sum(path.stat().st_size for path in paths.values())

    def migrations(bundle, args) -> int:
        tracer.add(
            "runner.failed_migrations",
            sum(1 for rec in bundle.reports if not rec.report.succeeded),
        )
        return len(bundle.reports)

    patch(cli, "main", "cli.main")
    patch(cli, "load_scenario", "scenario.load")
    patch(scenario, "build_scenario", "scenario.build")
    patch(scenario, "validate_topology", "model.validate_topology")
    patch(cli, "run_scenario", "runner.run_scenario", migrations)
    patch(cli, "export_metrics", "runner.export_metrics", export_bytes)

    patch(engine.Simulator, "schedule", "engine.schedule")
    # The event loop calls back into the runner's handlers, so a span around
    # it would book runner work as engine time: count its events only.
    count(engine.Simulator, "run_until", "engine.events_processed", lambda done, args: len(done))

    patch(model.ValidatedTopology, "one_way_latency_us", "model.one_way_latency_us")
    patch(model.ValidatedTopology, "hosts_in_hall", "model.hosts_in_hall")
    patch(model.ValidatedTopology, "channel", "model.channel")

    patch(runner, "check_placement", "policy.check_placement", lambda found, args: not found)
    patch(runner, "select_strategy", "policy.select_strategy")

    patch(memory.ConstantRateDirty, "draw", "memory.constant_rate.draw", lambda n, args: n)
    patch(memory.BernoulliDirty, "draw", "memory.bernoulli.draw", lambda n, args: n)
    patch(memory.MemoryImage, "__init__", "memory.image_init")
    patch(memory.MemoryImage, "take_transfer_batch", "memory.take_batch", lambda b, args: len(b))
    patch(memory.MemoryImage, "mark_copied", "memory.mark_copied")
    patch(memory.MemoryImage, "reset_for_transfer", "memory.reset")

    for owner in (runner, migration):
        patch(owner, "migrate_inter_copy", "migration.inter_copy", _pages)
        patch(owner, "migrate_pre_copy", "migration.pre_copy", pre_copy_pages)
        patch(owner, "migrate_parallel", "migration.parallel", parallel_pages)
        patch(owner, "start_replica_sync", "migration.replica_sync")
        patch(owner, "redeploy_stateless", "migration.redeploy", _pages)
    patch(migration, "migrate_post_copy", "migration.post_copy", post_copy_pages)
    patch(migration.ReplicaHandle, "run_until_ticks", "migration.replica_ticks")

    def undo() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo
