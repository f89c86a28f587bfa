#!/usr/bin/env python3
"""Time the development kernel on the three shapes the searches run.

Three workloads, all on the shipped 2+2 complex, each reported as the best of
``--reps`` timed runs after one warm-up:
  rect    one large rectangle development
  many    a batch of small rectangles (search-shaped workload)
  stream  a long periodic divergence scan at a tall height

Usage: python benchmarks/bench_develop.py [--reps N]
"""

import argparse
import random
import time
from importlib.resources import files

import cscwalls as cw
from cscwalls.develop import develop_ids, stream_mismatch_ids
from cscwalls.antitorus import AntiTorusQuery, find_periodic_top


def load_inputs():
    p = cw.parse_complex(files("cscwalls.data").joinpath("aperiodic22.sqc").read_text())
    rng = random.Random(42)

    def rand_ids(klass, n):
        pool = p.hedges if klass == cw.HORIZONTAL else p.vedges
        out = []
        for _ in range(n):
            options = [g for g in range(2 * len(pool)) if not out or g != out[-1] ^ 1]
            out.append(rng.choice(options))
        return out

    big_bottom = rand_ids(cw.HORIZONTAL, 1500)
    big_left = rand_ids(cw.VERTICAL, 1500)
    small = [
        (rand_ids(cw.HORIZONTAL, 30), rand_ids(cw.VERTICAL, 30)) for _ in range(400)
    ]
    query = AntiTorusQuery(
        p, cw.PeriodicWord(cw.parse_word(p, "a")), cw.PeriodicWord(cw.parse_word(p, "x"))
    )
    j, _ = find_periodic_top(query, 8)
    tall_side = [p.germ_id(e) for e in query.vword.period.letters] * (j * 40)
    period = [p.germ_id(e) for e in query.hword.period.letters]
    return p, big_bottom, big_left, small, period, tall_side


def run_workloads(tables, big_bottom, big_left, small, period, tall_side):
    def rect():
        develop_ids(tables, big_bottom, big_left)

    def many():
        for b, l in small:
            develop_ids(tables, b, l)

    def stream():
        stream_mismatch_ids(tables, period, tall_side, 5000)

    return {"rect": rect, "many": many, "stream": stream}


def best_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args()

    p, *inputs = load_inputs()
    print(f"{'workload':<10} {'best':>12}")
    for name, fn in run_workloads(p.tables, *inputs).items():
        fn()  # warm up
        print(f"{name:<10} {best_time(fn, args.reps) * 1e3:>10.2f}ms")


if __name__ == "__main__":
    main()
