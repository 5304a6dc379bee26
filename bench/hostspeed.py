"""Host-speed calibration for the redplan benchmark.

The benchmark runs on a few cores of a shared host, whose speed drifts by a
third or more for minutes at a time. A fixed kernel, independent of
redplan, runs between consecutive jobs; each job's wall time is scaled by
REFERENCE_S over the mean of the kernel times measured just before and just
after it. The result is in reference seconds: the time the job would take
on a host where the kernel takes REFERENCE_S. A change to redplan moves the
job time and leaves the kernel alone, so it shows in full; a host slowdown
moves both, so it cancels.

The kernel mixes what redplan spends its time on: small LAPACK calls (3x2
SVDs, as in the baseline's manipulability cost), small elementwise numpy
calls and plain interpreter arithmetic (as in the per-edge and per-stage
loops), and elementwise passes over arrays of a few MB (as in the planner's
bulk edge checks). A kernel of one kind alone tracked some workloads and
not others.
"""

from __future__ import annotations

import time

import numpy as np

# a round figure near the kernel's time on a 2-vCPU x86-64 VM at its
# quietest (0.17 s; Python 3.11, numpy 2.4, one BLAS thread). Any constant
# would do; this one keeps reference seconds close to wall seconds there.
REFERENCE_S = 0.2

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((200, 3, 2))
_BULK = _rng.standard_normal(400_000)


def _kernel() -> float:
    """About equal parts of four kinds of work; the sum of their results."""
    acc = 0.0
    for i in range(5000):                       # small LAPACK calls
        acc += float(np.linalg.svd(_SMALL[i % 200], compute_uv=False)[0])
    for _ in range(10):                         # passes over a few MB
        acc += float(np.count_nonzero(np.sqrt(_BULK * _BULK + 1.0) > 1.2))
    small = _SMALL[0]
    for _ in range(15000):                      # small elementwise numpy calls
        acc += float((small * 2.0 + 1.0).sum())
    table = {}
    for i in range(360000):                     # interpreter arithmetic
        acc += (i % 7) * 0.5
        table[i & 255] = acc
    return acc


_EXPECTED = _kernel()   # also warms the kernel up


def measure() -> float:
    """Wall seconds of one kernel run."""
    start = time.perf_counter()
    acc = _kernel()
    seconds = time.perf_counter() - start
    if acc != _EXPECTED:
        raise RuntimeError(f"calibration kernel returned {acc!r}, not {_EXPECTED!r}")
    return seconds


def to_reference(wall_s: float, kernel_before_s: float, kernel_after_s: float) -> float:
    """Wall seconds scaled to reference seconds by the kernel times around them."""
    return wall_s * REFERENCE_S / (0.5 * (kernel_before_s + kernel_after_s))
