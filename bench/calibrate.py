"""A fixed reference kernel that tracks how fast the host runs right now.

On a shared host the same single-threaded work can take 50% longer from
one minute to the next, because the CPU is shared with other tenants
(CPU time and wall time move together, so this is not descheduling).  An
untraced repetition times this kernel before every `hymac run` call, after
the last one, and about once a second in between (`spans.Probe.pause`).
The end-to-end timings are scaled to the speed at which the kernel takes
``REFERENCE_KERNEL_S``.  The kernel does not depend on `hymac`, so a
change to the program moves only the measured time.

The kernel is interpreter work: tuple-keyed dict updates and float
arithmetic.  Timed side by side with the planner, the CSMA and TDMA loops
and the resolving hybrid on a shared 2-core host, it tracked their
slowdowns with a log-log slope of 0.8 to 1.0; a numpy binomial kernel
slowed down less than they did (slope 1.4 to 1.8) and was dropped.  A
kernel timed on the other core at the same moment did not track them.
"""

from __future__ import annotations

_STEPS = 250_000

# About the kernel's fastest time on one core of a 2-core KVM Xeon host
# with Python 3.11 (0.100-0.105 s).  Timings scaled by REFERENCE_KERNEL_S /
# measured kernel time are "reference seconds": what the work would take
# on that host when it runs at full speed.
REFERENCE_KERNEL_S = 0.1


def kernel() -> float:
    table: dict = {}
    acc = 0.0
    for i in range(_STEPS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += table[key] % 7.0
    return acc
