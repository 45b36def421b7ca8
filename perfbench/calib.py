"""Machine-speed calibration for the benchmark's timings.

The speed of a shared CPU drifts by 20-30% over seconds to minutes.  The
drift is not the same for every kind of code: it hits code that walks a
working set of many megabytes (the layered graphs of ``mdg``) differently
from code that stays in the caches.  Medians of one op over back-to-back
24 s windows spread by 15-25%; the same medians of the op's time over the
time of a calibration slice taken next to it spread by 5-7% when the slice
mixes both kinds of work, and by more when it has only one.

So every timing the benchmark reports is a wall time scaled to a fixed
reference speed: ``wall * REF_S / slice_time``, where ``slice_time`` is
the time of calibration slices taken next to the timed work.  One slice is
pure-Python integer, dict and set work plus a dependent pointer chase over a
16 MB array.  The unit stays seconds: seconds on a machine where one slice
takes ``REF_S``, about the median speed of a shared 2-CPU sandbox.  A
program change moves the scaled time exactly as it moves the wall time,
because the slice does not touch the program.

Timings of fresh interpreters (set-up and CLI runs) track slices poorly:
most of their time is interpreter start and imports.  They are scaled by a
calibration process instead, a fresh interpreter that imports numpy, timed
just before and after; one takes ``PROCESS_REF_S`` at the reference speed.

This module imports nothing of the package under test, and nothing of the
standard library but ``array`` and ``time``, so that it does not speed up a
timed import.
"""

from __future__ import annotations

import time
from array import array

REF_S = 0.022  # seconds of one slice at the reference speed
PROCESS_REF_S = 0.18  # seconds of one calibration process at that speed
_COMPUTE_ITERATIONS = 20_000
_CHASE_ENTRIES = 1 << 22  # int32 entries: 16 MB, past every CPU cache we share
_CHASE_STEPS = 80_000
# i -> (A*i + 1) mod 2**22 is one cycle through every entry (A = 1 mod 4)
_CHASE_A = 2_654_435_761

_chain: array | None = None


def chase_bytes() -> int:
    """Resident bytes the chase array adds to a process that calibrates."""
    return _CHASE_ENTRIES * 4


def prepare() -> None:
    """Build the chase array (about 1 s); slice_s() does it when needed."""
    global _chain
    if _chain is not None:
        return
    mask = _CHASE_ENTRIES - 1
    chain = array("i", [0]) * _CHASE_ENTRIES
    block = 1 << 14
    for start in range(0, _CHASE_ENTRIES, block):
        chain[start:start + block] = array(
            "i", [(_CHASE_A * i + 1) & mask for i in range(start, start + block)])
    _chain = chain


def _compute(iterations: int) -> int:
    """Integer arithmetic, dict and set traffic, like the graph code."""
    table: dict[int, int] = {}
    seen: set[int] = set()
    x = acc = 0
    for i in range(iterations):
        x = (x * 31 + i) % 1_000_003
        key = x & 1023
        if key in seen:
            acc += table[key]
        else:
            seen.add(key)
        table[key] = i
        if len(seen) == 1024:
            seen.clear()
    return acc


def _chase(chain: array, steps: int) -> int:
    i = 0
    for _ in range(steps):
        i = chain[i]
    return i


def slice_s() -> float:
    """Wall seconds of one calibration slice."""
    prepare()
    t0 = time.perf_counter()
    _compute(_COMPUTE_ITERATIONS)
    _chase(_chain, _CHASE_STEPS)
    return time.perf_counter() - t0


def process_s(env: dict) -> float:
    """Wall seconds of one calibration process."""
    import subprocess  # here, so that a timed import does not find it loaded
    import sys

    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True,
                   timeout=30, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


def factor(samples: list[float], ref: float = REF_S) -> float:
    """Scale from wall seconds to reference seconds, from nearby calibration
    samples that take ``ref`` at the reference speed."""
    ordered = sorted(samples)
    mid = len(ordered) // 2
    median = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    return ref / median
