"""A fixed reference routine, timed just before every measured request.

The shared host the figures come from changes speed in phases: for a
minute or more at a time the program runs up to 2.2x slower, even its
shortest requests, and no request size or statistic of raw times
recovers the quiet speed from a run that falls wholly in such a phase.  A
request and a pure-Python routine timed back to back slow down nearly
together, so their ratio depends far less on the phase (README.md,
"Steadiness").

Every reported time is therefore a ratio to the reference routine timed
just before it, converted back to seconds with ``REFERENCE_S``: the
routine's time on that host in a quiet phase.  The routine is the
benchmark's own and shares no code with the program, so a change to the
program cannot change it.
"""

from __future__ import annotations

import gc
from time import perf_counter

# about the fastest time of reference_seconds() on the host of the README figures
REFERENCE_S = 0.00031


_WORDS = tuple(f"w{k % 97}" for k in range(1500))


def reference_seconds() -> float:
    """Time of one pass of the routine: dict updates, string formatting,
    sorting, splitting and number parsing, the interpreter's everyday work.
    The collector is off while it runs, so the program's heap does not
    change its time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        counts = {}
        for k, word in enumerate(_WORDS):
            counts[word] = counts.get(word, 0) + k
        rows = [f"{word},{n},{n / 7:.6f}" for word, n in sorted(counts.items())]
        sum(float(fields[2]) + int(fields[1]) for fields in (row.split(",") for row in rows * 3))
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def timed(fn):
    """Run ``fn()``; returns its output and its time in reference seconds."""
    reference = reference_seconds()
    start = perf_counter()
    out = fn()
    return out, (perf_counter() - start) / reference * REFERENCE_S
