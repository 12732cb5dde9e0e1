"""Machine-speed probe for normalising the benchmark's times.

The benchmark's host is a few vCPUs of a shared machine whose speed drifts
by up to 2x, both within a second and over tens of minutes (a fixed
pure-Python loop shows the same drift in wall and in CPU time, so it is not
time stolen from the process but slower execution).  Averaging over a run cannot remove a drift
that lasts the whole run, so every measured section is bracketed by runs
of ``probe``, a fixed pure-Python workload that exercises what the package
spends its time on: integer arithmetic, dict and set updates, tuple
allocation, sorting and graph traversal.  It imports nothing from the
package, so a change to the package cannot move it.

A section's time is reported as ``seconds * NOMINAL_S / probe_s``: the
seconds the section would take on a machine where ``probe`` takes
``NOMINAL_S``.  The raw wall time is reported alongside it.
"""
from __future__ import annotations

import gc
import statistics
from time import perf_counter

# Median time of one run of the fixed workload on the 2-vCPU x86 host the
# benchmark was tuned on (Python 3.11.7).  Any constant would do; this one
# keeps the normalised times close to the wall times seen there.
NOMINAL_S = 0.04

# The fixed workload runs this many times on each side of a measured
# section and the median is taken, so one interrupted run does not skew
# the scale.
PROBES = 5


def _workload() -> int:
    x = 12345
    adj: dict[int, set[int]] = {}
    for _ in range(20000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        u, v = x % 1500, (x >> 12) % 1500
        if u != v:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    edges = sorted((u, v) for u, nbrs in adj.items() for v in nbrs if u < v)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(edges) + len(seen)


def probe() -> float:
    """Median wall time of ``PROBES`` runs of the fixed workload.

    The garbage collector is off meanwhile: its passes would walk the
    caller's heap, which differs between workloads and phases of a run.
    """
    times = []
    gc.disable()
    try:
        for _ in range(PROBES):
            t0 = perf_counter()
            _workload()
            times.append(perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def normalise(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes of ``before`` and ``after``
    seconds, scaled to a machine where a probe takes ``NOMINAL_S``."""
    return seconds * NOMINAL_S / ((before + after) / 2)
