"""A fixed reference kernel that measures how fast the machine runs now.

On a shared virtual machine the speed of the same pure-Python code
drifts by 30-40% over minutes as other tenants come and go, and whole
runs fall into slow or fast stretches.  No statistic over the passes of
one run removes that.  The benchmark therefore times this kernel, which
never calls ``ttw``, right before every case, and scales each case's
time by ``REFERENCE_S`` over the median kernel time of the cases around
it.  A scaled time reads as the case's time on a machine where the
kernel takes ``REFERENCE_S``; a change to ``ttw`` moves it in full,
while a slow stretch of the machine moves the kernel and the case alike.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

REFERENCE_S = 0.0004   # the kernel's time, uncontended, on a 2-vCPU VM
WINDOW = 3             # kernel samples on either side of a case


def kernel() -> int:
    """Transitive closure of a fixed relation with sets and dicts, the
    kind of work ttw does; about 0.4 ms."""
    n = 24
    rel = {i: {(i * 7 + k) % n for k in (1, 2)} for i in range(n)}
    changed = True
    while changed:
        changed = False
        for a in range(n):
            new = set(rel[a])
            for b in rel[a]:
                new |= rel[b]
            if new != rel[a]:
                rel[a] = new
                changed = True
    return sum(len(v) for v in rel.values())


def sample() -> float:
    """One timing of the kernel, with the cyclic collector held off so
    that the program's garbage is not collected on the kernel's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(samples: list[float], refs: list[float]) -> list[float]:
    """Each sample scaled by REFERENCE_S over the median of the kernel
    times within WINDOW positions of it."""
    return [t * REFERENCE_S / statistics.median(refs[max(0, i - WINDOW):i + WINDOW + 1])
            for i, t in enumerate(samples)]
