"""A fixed reference kernel that tracks how fast the host runs Python now.

On a shared host the same op runs ±20% slower or faster for minutes at
a time, and the drift affects every process alike. It shows in CPU
time as much as in wall time, and in the fastest op of a run as much as
in the median.  The ops process therefore runs :func:`reference_kernel`
between consecutive ops.  It divides each op's wall time by the mean of
the two kernel times around it.  The kernel is the benchmark's own
code, so a change to the program cannot move it.  The quotient moves
only when the program's own cost changes.

Normalized times are reported in milliseconds *at reference speed*:
the quotient times :data:`REFERENCE_MS`, the kernel's median time on
the host where the benchmark was defined (2 vCPUs, Python 3.11).
"""

from __future__ import annotations

import gc
import heapq
import time

#: Median kernel time on the defining host; converts quotients to ms.
REFERENCE_MS = 15.0


def reference_kernel(n_procs: int = 128, steps: int = 80) -> int:
    """Interpreter-bound work shaped like a discrete-event loop.

    Generators resumed from a heap, small dicts, sets and tuples: the
    operations the simulator spends its time on, in fixed amounts.
    """
    heap = []
    events = 0

    def proc(i):
        acc = {}
        for k in range(steps):
            key = (i, k % 7)
            acc[key] = acc.get(key, 0) + k
            yield (k * 7 + i) % 13 + len({i, k, i ^ k})

    for i in range(n_procs):
        heapq.heappush(heap, (0.0, i, proc(i)))
    while heap:
        now, i, p = heapq.heappop(heap)
        try:
            dt = next(p)
        except StopIteration:
            continue
        events += 1
        heapq.heappush(heap, (now + dt, i, p))
    return events


def time_reference() -> float:
    """Wall seconds of one kernel run, with the cyclic GC paused.

    Pausing the collector keeps the program's live heap, which a
    collection would traverse, out of the reference.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
