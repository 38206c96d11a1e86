"""Host-speed calibration for the timed runs.

The shared host the benchmark runs on changes speed by up to 1.7x, for
seconds or for minutes at a time (README, Steadiness), and the program's
pure-Python and numpy work slows with it.  A run therefore times a fixed
calibration task, which shares no code with the program, between its
units of work, in a process of its own, and rescales each time
metric to the reference speed:

    reported = measured x REFERENCE_S / (fastest calibration sample)

A change to the program moves ``measured`` and leaves the calibration
alone, so the rescaled figure still moves with the program, while a slow
spell of the host moves both and cancels.  The raw figures go to
standard error beside the rescaled ones.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
from time import perf_counter

import numpy as np

#: Seconds of one calibration sample at the reference speed: about the
#: fastest sample of a run on a 2-vCPU Xeon VM (2.1 GHz).
REFERENCE_S = 0.025
#: Sizes of the task's large working set: dict items, lookups per
#: sample, and float64 array items (32 MiB).
TABLE_ITEMS = 400_000
LOOKUPS = 20_000
ARRAY_ITEMS = 4_000_000


class Calibration:
    """Times the calibration task in a process of its own, so the
    samples share no heap or allocator state with the program; use it as
    a context manager, which stops that process.  Keeps every sample.

    Read ``getrusage(RUSAGE_CHILDREN)`` before the process stops: once
    it has been waited for, its peak RSS counts among the children's."""

    def __init__(self):
        self.samples: list = []
        self._child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()

    def close(self) -> None:
        """Stop the calibration process and wait until it has ended."""
        child = self._child
        if child.poll() is None:
            child.stdin.close()
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        child.stdout.close()

    def sample(self, repeats: int = 2) -> None:
        """Time the task ``repeats`` times back to back (the first run
        may find the caches cold; the fastest sample counts)."""
        self._child.stdin.write(f"{repeats}\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError("calibration process ended")
        self.samples.extend(float(value) for value in line.split())

    def factor(self) -> float:
        """Multiply a time by this to rescale it to the reference speed
        (divide a rate by it)."""
        return scale_factor(self.samples, REFERENCE_S)


def scale_factor(samples, reference_s: float) -> float:
    """``reference_s`` over the fastest of ``samples``."""
    if not samples:
        raise ValueError("no calibration samples")
    return reference_s / min(samples)


def _state() -> tuple:
    """The calibration task's data, built once per calibration process."""
    rng = np.random.default_rng(0)
    matrix = rng.integers(0, 1 << 20, size=(4000, 25), dtype=np.int32)
    table = {i * 2654435761 % (1 << 31): i for i in range(TABLE_ITEMS)}
    keys = list(table)
    random.Random(0).shuffle(keys)
    values = rng.random(ARRAY_ITEMS)
    picks = rng.integers(0, ARRAY_ITEMS, size=ARRAY_ITEMS // 10)
    return matrix, table, keys[:LOOKUPS], values, picks


def _task(state) -> None:
    matrix, table, keys, values, picks = state
    # Interpreter work on a small working set, like the program's glue:
    # dict updates, tuples, a keyed sort, a comprehension ...
    counts: dict = {}
    for i in range(30_000):
        key = (i * 7919) % 4099
        counts[key] = counts.get(key, 0) + i
    ordered = sorted(counts.items(), key=lambda kv: kv[1])
    sum(a * b for a, b in ordered)
    # ... and array work like its kernels ...
    for _ in range(2):
        np.argsort(matrix, axis=1)
        np.abs(matrix - matrix[::-1]).sum(axis=1)
        np.unique(matrix[:, :5])
    # ... then scattered reads from a dict and an array of tens of MiB,
    # which slow down when other tenants evict them from the shared
    # cache, as the program's data does.
    total = 0
    for key in keys:
        total += table[key]
    for _ in range(2):
        values[picks].sum()


def _serve() -> None:
    """The calibration process: for each line ``n`` on standard input,
    time the task ``n`` times and answer with the seconds on one line;
    end at end of input."""
    state = _state()
    gc.disable()  # collections would add noise, not the host's speed
    for line in sys.stdin:
        times = []
        for _ in range(int(line)):
            start = perf_counter()
            _task(state)
            times.append(perf_counter() - start)
        print(" ".join(repr(t) for t in times), flush=True)


if __name__ == "__main__":
    _serve()
