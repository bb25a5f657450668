"""Time, in this fresh interpreter, importing nfmigsim and loading scenario files.

Usage: ``python3 perfbench/setup_probe.py SRC_DIR [SCENARIO ...]``.  Prints
three lines: the host seconds from before ``import nfmigsim`` until every
scenario file given is loaded and validated, the path nfmigsim was
imported from, and the calibration loop's samples (see ``calibrate.py``)
taken right after.
"""

import sys
import time

started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import nfmigsim  # noqa: E402

for path in sys.argv[2:]:
    nfmigsim.load_scenario(path)
elapsed = time.perf_counter() - started

import calibrate  # noqa: E402

print(repr(elapsed))
print(nfmigsim.__file__)
print(" ".join(map(repr, calibrate.sample())))
