"""Fixed 10^5-page replicas under Bernoulli dirtying, one report ``repr`` per line.

Each replica's sync ticks land well inside ``ppm_sync_interval_us``, so a
tick after the first fires on an image the previous tick's flight left
dirty: the draws cover both the all-clean and the dirty image.  The script
checks that some draw met a dirty image.  The lines are committed in
``data/replica_bernoulli_reports.golden``; a tier-1 test compares them on
every supported Python.  Run as a script, it prints them for a diff:

    PYTHONPATH=src python tests/replica_bernoulli_golden.py | diff - tests/data/replica_bernoulli_reports.golden
"""

from __future__ import annotations

import random

from nfmigsim import (
    BernoulliDirty,
    Channel,
    MemoryImage,
    MigrationParams,
    NfInstance,
    NfKind,
    migrate_parallel,
    start_replica_sync,
)

PAGES = 10**5
PAGE_SIZE = 4096
CHANNEL = Channel(100_000 * PAGE_SIZE, 260.5)  # 10 us per page


class _CleanBeforeDraw:
    """A dirty process that notes, per draw, whether the image was all clean."""

    def __init__(self, process: BernoulliDirty):
        self.process = process
        self.clean: list[bool] = []

    def draw(self, image: MemoryImage, duration_us: int) -> int:
        self.clean.append(image.all_clean)
        return self.process.draw(image, duration_us)


def reports() -> list[str]:
    """``name: repr`` of each case's report and tick log, in a fixed order."""
    cases = [
        ("p-1e-5-ticks-4", 0.00001, 4, MigrationParams()),
        ("p-1e-4-ticks-3", 0.0001, 3, MigrationParams()),
        ("p-1e-5-interval-30ms-ticks-6", 0.00001, 6, MigrationParams(ppm_sync_interval_us=30_000)),
    ]
    lines = []
    for seed, (name, p, ticks, params) in enumerate(cases, start=21):
        nf = NfInstance(f"smf-{name}", NfKind.SMF, "h1", memory=MemoryImage(PAGES, PAGE_SIZE))
        process = _CleanBeforeDraw(BernoulliDirty(p, random.Random(seed)))
        replica = start_replica_sync(nf, CHANNEL, params, process)
        replica.run_until_ticks(ticks)
        assert not all(process.clean), f"{name}: every draw met an all-clean image"
        report = migrate_parallel(replica, params)
        lines.append(f"{name}: {report!r} ticks={replica.tick_log!r}\n")
    return lines


if __name__ == "__main__":
    print("".join(reports()), end="")
