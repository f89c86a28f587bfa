"""Time one set-up in a fresh interpreter and print it, calibrated, in seconds.

Set-up is importing cscwalls from the given source directory and loading the
shipped complexes with their corner tables (both hands).  Usage:

    python3 perfbench/setup_probe.py src
"""

import sys
from pathlib import Path
from time import perf_counter

from reference import calibrated, reference_loop

ref_before = reference_loop()
t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import cscwalls  # noqa: E402

for name in ("aperiodic22.sqc", "torus.sqc"):
    p = cscwalls.load_complex(str(Path(cscwalls.__file__).parent / "data" / name))
    p.tables
    p.mirrored.tables
elapsed = perf_counter() - t0
print(calibrated(elapsed, ref_before, reference_loop()))
