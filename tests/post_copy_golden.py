"""Three fixed 10^5-page post-copy migrations, one report ``repr`` per line.

The lines are committed in ``data/post_copy_reports.golden``; a tier-1 test
compares them on every supported Python.  Run as a script, it prints them for a diff:

    PYTHONPATH=src python tests/post_copy_golden.py | diff - tests/data/post_copy_reports.golden
"""

from __future__ import annotations

import random

from nfmigsim import Channel, MemoryImage, MigrationParams, NfInstance, NfKind, migrate_post_copy

PAGES = 10**5
PAGE_SIZE = 4096
TOUCHES = 10**4
CHANNEL = Channel(25_000 * PAGE_SIZE, 260.5)  # 40 us per page


def _trace(rng: random.Random, horizon_us: int) -> list[tuple[float, int]]:
    """Touches over ``horizon_us``; every third offset is a half microsecond."""
    trace = []
    for i in range(TOUCHES):
        offset = rng.randrange(2 * horizon_us) / 2 if i % 3 == 0 else rng.randrange(horizon_us)
        trace.append((offset, rng.randrange(PAGES)))
    return trace


def reports() -> list[str]:
    """``name: repr`` of each case's report, in a fixed order."""
    rng = random.Random(20)
    stream_us = PAGES * 40
    cases = [
        ("default-working-set", None, MigrationParams(), _trace(rng, stream_us)),
        (
            "tuple-working-set",
            rng.sample(range(PAGES), PAGES // 5),
            MigrationParams(),
            _trace(rng, stream_us),
        ),
        (
            "deadline-failure",
            None,
            MigrationParams(postcopy_fault_deadline_us=500),
            [(offset + 200_000, page) for offset, page in _trace(rng, stream_us)],
        ),
    ]
    lines = []
    for name, working_set, params, trace in cases:
        image = MemoryImage(PAGES, PAGE_SIZE, working_set=working_set)
        nf = NfInstance(f"smf-{name}", NfKind.SMF, "h1", memory=image)
        lines.append(f"{name}: {migrate_post_copy(nf, CHANNEL, params, trace)!r}\n")
    return lines


if __name__ == "__main__":
    print("".join(reports()), end="")
