"""How fast the CPU runs right now, measured with a fixed piece of work.

On a shared host the speed of a CPU second drifts by a third or more over
minutes (another tenant on the sibling hyperthread, frequency changes),
and CPU time drifts with it.  ``reference_cpu_s`` times a fixed,
deterministic piece of pure-Python work made of the operations mgbar's
layers spend their time in: ``Fraction`` arithmetic, dictionaries keyed by
tuples, sorting.  It uses nothing of mgbar, so a change to the program
never changes it.  The worker times it between jobs, and ``run.py``
scales each run's CPU times by ``NOMINAL_S`` over the run's median
reference time: the figures are CPU seconds on a CPU that does the
reference work in ``NOMINAL_S``.
"""

from __future__ import annotations

import time
from fractions import Fraction

# A CPU time of the reference work on the 2-vCPU Intel Xeon host the
# recorded baselines come from (Python 3.11), where it ranged from about
# 16 to 32 ms.
NOMINAL_S = 0.02


def reference_work() -> Fraction:
    table: dict[tuple[int, int], Fraction] = {}
    for i in range(1, 4000):
        key = ((i * 7919) % 1009, i % 13)
        table[key] = table.get(key, Fraction(0)) + Fraction(i, key[0] + 1)
    rows = sorted(table.items())
    return sum((value for _, value in rows[::5]), Fraction(0))


def reference_cpu_s() -> float:
    """CPU seconds that one ``reference_work`` takes now."""
    start = time.process_time()
    reference_work()
    return time.process_time() - start
