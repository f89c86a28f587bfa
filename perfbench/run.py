#!/usr/bin/env python3
"""End-to-end benchmark of the cscwalls command line.

Run from the repository root:

    python3 perfbench/run.py --workload overlap --seed 1 --seconds 30 --trace 0

Each workload is one closed-loop client: this process, on one thread, runs
the workload's job list through ``cscwalls.cli.main(argv)`` in-process, one
job after another, pass after pass, until ``--seconds`` are spent.  Every job
writes its artifact into a scratch directory inside the checkout, and the
artifact is checked against values that hold by mathematics.

Times are calibrated for host speed (see reference.py): a fixed reference
loop is timed before and after each job, and each job's time is rescaled to a
host on which that loop takes 10 ms.  Measured pass times are printed too.

``--trace 0`` reports the end-to-end metrics.  Passes run in pairs: pair i
takes point i of a low-discrepancy sequence whose offset is drawn from
``--seed``, and its mirror image.  Every run thus covers the seeded input
ranges evenly and symmetrically, so the median pass time does not hinge on
one draw, although one pass's cost depends strongly on its inputs.

``--trace 1`` runs the inputs of point 0 again and again, alternating an
untraced pass with a traced one (see spans.py), and reports the per-layer
metrics of the traced passes.

The package is imported from ``src/`` of the checkout, as the test suite
imports it; nothing is built and no kernel backend is forced.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import spans
from reference import calibrated, reference_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SHIPPED = str(SRC / "cscwalls" / "data" / "aperiodic22.sqc")
QUERY = ["--complex", SHIPPED, "--w1", "a", "--w2", "x"]

#: End-to-end metrics: name -> unit.
E2E = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}

#: Set-up is timed in this many fresh interpreters per run; the median is reported.
SETUP_SAMPLES = 5

#: Irrational steps of the input sequence, one per input dimension.
STEPS = (0.6180339887498949, 0.41421356237309515, 0.7320508075688772)


def import_package():
    """Import cscwalls from this checkout's src/, or exit without a result."""
    if not (SRC / "cscwalls" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'cscwalls'}")
    sys.path.insert(0, str(SRC))
    import cscwalls
    import cscwalls.cli

    if SRC not in Path(cscwalls.__file__).resolve().parents:
        sys.exit(f"perfbench: imported cscwalls from {cscwalls.__file__}, not from {SRC}")
    return cscwalls


# ---------------------------------------------------------------------------
# Workloads: each maps one input point u in [0, 1)^3 to a job list of
# (argv, check); a check returns None or a description of what is wrong.
# ---------------------------------------------------------------------------


def overlap_jobs(u, cw):
    """Obstruction table, large-n gamma and well-separation on the shipped pair.

    Every n1 in [244, 729] has pigeonhole height j = 2916 and overlap 1458;
    every n2 in [82, 243] has overlap 486.
    """
    n1 = 244 + int(u[0] * 486)
    n2 = 82 + int(u[1] * 162)

    def obstruct(a):
        if len(a["rows"]) != 32 or a["failures"]:
            return f"obstruct: {len(a['rows'])} rows, failures {a['failures']}"

    def gamma(a):
        if (a["j"], a["total_len"]) != (2916, 1458) or a["right_len"] < n1:
            return f"gamma n={n1}: j={a['j']} total_len={a['total_len']} right_len={a['right_len']}"

    def wellsep(a):
        if a["L"] != 486 or a["facing_triple_free"] is not True:
            return f"wellsep n={n2}: L={a['L']} facing_triple_free={a['facing_triple_free']}"

    return [
        (["obstruct", *QUERY, "--nmax", "32"], obstruct),
        (["gamma", *QUERY, "--n", str(n1)], gamma),
        (["wellsep", *QUERY, "--n", str(n2)], wellsep),
    ]


def census_jobs(u, cw):
    """Screened 2+2, 1+3 and 3+1 censuses, then the unscreened 2+2 census.

    The census has no free inputs, so u is unused.  2+3 is left out: one pass
    of it takes minutes.
    """
    shipped = set(cw.load_complex(SHIPPED).squares)

    def count(expected, entry78=False):
        def check(a):
            if a["count"] != expected or len(a["presentations"]) != expected:
                return f"census: {a['count']} classes, expected {expected}"
            if entry78 and set(cw.parse_complex(a["presentations"][78]["text"]).squares) != shipped:
                return "census: screened 2+2 entry 78 is not the shipped aperiodic complex"

        return check

    def enumerate_(h, v, screen):
        return ["enumerate", "--hcount", str(h), "--vcount", str(v)] + (["--screen"] if screen else [])

    return [
        (enumerate_(2, 2, True), count(98, entry78=True)),
        (enumerate_(1, 3, True), count(22)),
        (enumerate_(3, 1, True), count(22)),
        (enumerate_(2, 2, False), count(98)),
    ]


def staircase_jobs(u, cw):
    """A wide certificate (build, walls and contact graph dominate) and a tall
    one (the p+1 breadth-first searches dominate)."""
    lw = 90 + int(u[0] * 21)
    rw = 4 + int(u[1] * 3)
    p = 380 + int(u[2] * 41)

    def certificate(L, r, p):
        m = -(-L // r) + 1

        def check(a):
            if not a["crossing_bound"] == a["max_crossing"] == m:
                return f"certify L={L} r={r}: crossing_bound {a['crossing_bound']}, max {a['max_crossing']}, expected {m}"
            if Fraction(a["bfs_distance"]) < Fraction(p, m):
                return f"certify L={L} r={r}: bfs_distance {a['bfs_distance']} < {p}/{m}"

        return check

    def certify(L, r, steps, p):
        return ["certify", "--L", str(L), "--r", str(r), "--steps", str(steps), "--p", str(p)]

    return [
        (certify(lw, rw, 100, 100), certificate(lw, rw, 100)),
        (certify(3, 2, p, p), certificate(3, 2, p)),
    ]


WORKLOADS = {"overlap": overlap_jobs, "census": census_jobs, "staircase": staircase_jobs}


def input_pairs(seed):
    """Point i of the sequence frac(offset + i * step), offsets drawn from
    seed, together with its mirror image frac(1 - point)."""
    rng = random.Random(seed)
    offsets = [rng.random() for _ in STEPS]
    i = 0
    while True:
        u = tuple((o + i * s) % 1.0 for o, s in zip(offsets, STEPS))
        yield u, tuple((1.0 - x) % 1.0 for x in u)
        i += 1


# ---------------------------------------------------------------------------
# Running passes
# ---------------------------------------------------------------------------


class Client:
    """Runs job lists through cscwalls.cli.main, counting attempts and failures."""

    def __init__(self, main, workdir):
        self.main = main
        self.workdir = Path(workdir)
        self.attempted = 0
        self.failed = 0
        self.references = []

    def run_pass(self, jobs):
        """Run one job list; returns the summed wall time of its jobs, measured
        and calibrated.  Each job starts on a collected heap, as it would in a
        fresh process, and the reference loop is timed between jobs."""
        wall = calib = 0.0
        gc.collect()
        ref = reference_loop()
        self.references.append(ref)
        for k, (argv, check) in enumerate(jobs):
            out = self.workdir / f"job{k}.json"
            out.unlink(missing_ok=True)
            self.attempted += 1
            problem = None
            t0 = perf_counter()
            try:
                rc = self.main([*argv, "--out", str(out)])
            except Exception:
                rc = None
                problem = traceback.format_exc()
            elapsed = perf_counter() - t0
            gc.collect()
            ref_after = reference_loop()
            self.references.append(ref_after)
            wall += elapsed
            calib += calibrated(elapsed, ref, ref_after)
            ref = ref_after
            if problem is None and rc != 0:
                problem = f"exit code {rc}"
            if problem is None:
                try:
                    problem = check(json.loads(out.read_text(encoding="utf-8")))
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    problem = f"unreadable artifact: {exc!r}"
            if problem is not None:
                self.failed += 1
                print(f"perfbench: job {' '.join(argv)} failed: {problem}", file=sys.stderr)
        return wall, calib


def measure_setup():
    """Median over fresh interpreters of the calibrated time to import
    cscwalls and load the shipped complexes with their corner tables."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def run_untraced(client, jobs_for, seed, seconds):
    start = perf_counter()
    walls, calibs = [], []
    for pair in input_pairs(seed):
        t0 = perf_counter()
        for u in pair:
            wall, calib = client.run_pass(jobs_for(u))
            walls.append(wall)
            calibs.append(calib)
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            break
    metrics = {
        "wall_s": statistics.median(calibs),
        "setup_s": measure_setup(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (client.attempted - client.failed) / client.attempted,
    }
    print("pass wall_s measured   " + " ".join(f"{w:.4f}" for w in walls))
    print("pass wall_s calibrated " + " ".join(f"{w:.4f}" for w in calibs))
    return {k: (v, E2E[k]) for k, v in metrics.items()}, len(walls), True


def run_traced(client, jobs_for, seed, seconds):
    u = next(input_pairs(seed))[0]
    start = perf_counter()
    plain, traced, per_pass = [], [], []
    while True:
        t0 = perf_counter()
        plain.append(client.run_pass(jobs_for(u))[1])
        tracer = spans.Tracer()
        with tracer.installed():
            traced.append(client.run_pass(jobs_for(u))[1])
        per_pass.append(spans.layer_metrics(tracer.spans))
        table = spans.span_table(tracer.spans)
        del tracer  # its spans would slow the collector in the next pass
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            break
    for name, calls, total, self_s in table:
        print(f"span {name:<36} calls {calls:>8}  total {total:10.4f} s  self {self_s:10.4f} s")
    metrics = {}
    repeatable = True
    for name, unit in spans.METRICS.items():
        values = [m[name] for m in per_pass]
        if unit in spans.TIMING_UNITS:
            metrics[name] = (statistics.median(values), unit)
        else:
            if len(set(values)) != 1:
                repeatable = False
                print(f"perfbench: work count {name} differs between passes: {values}", file=sys.stderr)
            metrics[name] = (values[0], unit)
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return metrics, len(traced), repeatable


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cw = import_package()
    import numpy

    jobs_for = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as workdir:
        client = Client(cw.cli.main, workdir)
        run = run_traced if args.trace else run_untraced
        metrics, passes, repeatable = run(client, lambda u: jobs_for(u, cw), args.seed, args.seconds)

    labels = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": passes,
        "backend": cw.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "reference_ms": statistics.median(client.references) * 1e3,
    }
    print("labels " + json.dumps(labels, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": client.failed == 0 and repeatable,
                "attempted": client.attempted,
                "failed": client.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
