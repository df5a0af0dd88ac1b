"""Host-speed probes: fixed work timed next to every timed set-up and operation.

A shared host runs the same code at different speeds from one minute to the
next (on a 2-vCPU VM, up to 2x; see README.md).  Its neighbours share the
cores, caches and memory bandwidth, so no statistic over one run removes the
drift between runs minutes apart.  The benchmark therefore times a fixed
probe right before and right after each timed piece of work, and scales the
wall time to the probe's reference speed:

    normalised seconds = wall seconds * REFERENCE_S[probe] / probe seconds

A change to the program moves the wall time and not the probe, so it moves
the normalised time by the same share.  Each probe mirrors the work it
normalises: ``gemm`` the grouped float64 GEMMs of ``packed_net``, which take
most of every operation; ``python`` the float formatting and parsing of the
CSV files, which take most of every set-up.  The raw wall and probe times go
into the run record.
"""

from __future__ import annotations

import time

import numpy as np

# Probe seconds at the reference speed: a round figure near each probe's time
# on a 2-vCPU x86-64 VM, OpenBLAS with one thread.  Only the ratio matters.
REFERENCE_S = {"gemm": 0.1, "python": 0.05}

_rng = np.random.default_rng(0)
# PE(8,4,1) and PE(8,8,1) hidden layers at batch 1024: 8 groups of 32 and of 64.
_GEMMS = [
    (_rng.standard_normal((8, 1024, width)), _rng.standard_normal((8, width, width)))
    for width in (32, 64)
]
_FLOATS = _rng.standard_normal(2000).tolist()


def gemm() -> float:
    """Seconds for a fixed number of grouped GEMMs, forward and backward shapes."""
    started = time.perf_counter()
    for _ in range(10):
        for x, w in _GEMMS:
            y = x @ w
            x.transpose(0, 2, 1) @ y
    return time.perf_counter() - started


def python() -> float:
    """Seconds to format a fixed list of floats as CSV text and parse it back."""
    started = time.perf_counter()
    for _ in range(12):
        text = ",".join(repr(v) for v in _FLOATS)
        [float(field) for field in text.split(",")]
    return time.perf_counter() - started


PROBES = {"gemm": gemm, "python": python}


def around(name: str, work):
    """Run ``work()`` between two runs of a probe; returns its result and the mean probe seconds."""
    probe = PROBES[name]
    before = probe()
    result = work()
    return result, (before + probe()) / 2
