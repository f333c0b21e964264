"""The machine's speed, measured next to every timed operation.

The benchmark runs on shared cores whose speed drifts with the load of other
tenants: a fixed pure-Python loop, timed once a second for 90 s while
nothing else ran in the virtual machine, ranged from 22 to 71 calls per
second, and from 40 to 71 in the seconds the process held the CPU
throughout. Such drift moves every operation alike, and it lasts tens of
seconds, so longer runs do not average it out.

So the benchmark times the fixed loop below before every operation and
scales each operation's wall time by ``REFERENCE_S / t``, with ``t`` the
median loop time around that operation. The scaled times are seconds at the
speed where the loop takes ``REFERENCE_S``, close to the median on the
2-vCPU machine of the README's reference figures (its *Noise on this
machine* has what the scaling removes). The loop runs nothing of vsrobust,
so a change to the program cannot move it, as long as the program leaves no
work running between operations.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.005  # the loop's time at the reference speed
WINDOW = 3           # loop times on each side of an operation in its median


def loop_s() -> float:
    """Wall time of the fixed loop."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    return time.perf_counter() - start


def factors(loops: list[float]) -> list[float]:
    """Speed factor of each operation: loops[i] was timed just before
    operation i, and loops[-1] after the last one."""
    return [REFERENCE_S / statistics.median(loops[max(0, i - WINDOW):
                                                 i + WINDOW + 1])
            for i in range(len(loops) - 1)]


def factor_now(samples: int = 5) -> float:
    """Speed factor of this moment, for work done just before."""
    return REFERENCE_S / statistics.median(loop_s() for _ in range(samples))
