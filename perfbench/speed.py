"""How fast the machine runs at the moment, measured beside the work.

The benchmark runs on a few cores of a shared host, and what the other
tenants do changes the speed of those cores by up to half within
seconds: the same numeric round of 51 operations took from 0.56 s to
1.66 s in one four-minute run.  A run-to-run spread that size hides
the program.  So every timing in an end-to-end metric is bracketed by
a fixed calibration kernel run in the same process, right before and
right after it, and scaled to a reference speed:

    scaled = seconds * REF / (mean seconds per kernel piece, before and after)

REF is the kernel's median time per piece on the reference machine, so
a scaled time reads as the time the work takes there at its usual
speed.  The kernel is the benchmark's own code and calls nothing in
semiheap: a change to the program moves the scaled time exactly as it
moves the raw time, and a change in the machine's speed moves the
kernel too and cancels out (to within about 7 % between the host's
fast and slow states; see README.md).

This module imports nothing but time at load, so that the import probe
can measure the interpreter's speed before numpy is loaded.
"""

import time

SHARE = 0.02        # kernel time as a share of the work it brackets
MIN_PIECES = 2


def python_piece():
    """Pure interpreter work: the part of the kernel every process can run."""
    s = 0
    for i in range(500):
        s += i * i
    return s


def numeric_piece():
    """The full kernel: interpreter work plus small numpy calls."""
    import numpy as np

    m = np.array([[0.9, 0.1, 0.0], [0.2, 0.8, 0.1], [0.0, 0.3, 0.7]])

    def piece():
        python_piece()
        x = m
        for _ in range(10):
            x = x @ m
            x = x / np.linalg.norm(x)
        return x
    return piece


# Median seconds per piece on the reference machine (the 2-core VM of
# README.md, over 20 s of readings).
PYTHON_REF_S = 32e-6
NUMERIC_REF_S = 88e-6


class Gauge:
    """Reads the machine's speed with one calibration kernel."""

    def __init__(self, piece, ref_s):
        self.piece = piece
        self.ref_s = ref_s

    def read(self, work_s):
        """Run the kernel for SHARE of work_s (at least MIN_PIECES); seconds per piece."""
        pieces = 0
        start = time.perf_counter()
        while True:
            self.piece()
            pieces += 1
            elapsed = time.perf_counter() - start
            if pieces >= MIN_PIECES and elapsed >= SHARE * work_s:
                return elapsed / pieces

    def scale(self, seconds, before, after):
        """seconds at the reference speed, given the readings around them."""
        return seconds * self.ref_s / ((before + after) / 2)


def python_gauge():
    return Gauge(python_piece, PYTHON_REF_S)


def numeric_gauge():
    return Gauge(numeric_piece(), NUMERIC_REF_S)
