"""Host-speed calibration for the benchmark's end-to-end times.

On a shared host the same pure-Python job runs up to twice as slowly when a
neighbour loads the core, and that state changes within seconds.  A fixed
reference loop, timed just before and just after each measured step, tracks
that speed; a calibrated time is the measured time rescaled to a host on
which the reference loop takes ``REFERENCE_S``.  The loop is the benchmark's
own code, so a change to the program moves calibrated times exactly as it
moves measured ones.
"""

from time import perf_counter

#: Time of one reference loop at the nominal host speed calibrated times refer to.
REFERENCE_S = 0.010

_TOP = [[(3 * b + 5 * v + 1) % 8 for v in range(8)] for b in range(8)]
_RIGHT = [[(5 * b + 3 * v + 2) % 8 for v in range(8)] for b in range(8)]


def reference_loop():
    """Time a fixed walk over 8×8 tables with tuple hashing, the shape of the
    development kernel and the pigeonhole; returns seconds."""
    t0 = perf_counter()
    side = [j % 8 for j in range(64)]
    seen = {}
    for step in range(2400):
        b = step & 7
        for j in range(64):
            v = side[j]
            side[j] = _RIGHT[b][v]
            b = _TOP[b][v]
        seen[tuple(side)] = step
    return perf_counter() - t0


def calibrated(seconds, ref_before, ref_after):
    """A measured time rescaled by the reference loop timed around it."""
    return seconds * REFERENCE_S / ((ref_before + ref_after) / 2)
