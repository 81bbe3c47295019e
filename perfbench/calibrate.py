"""Machine-speed reference: a fixed loop that does not use blockmix.

On a shared 2-core Xeon virtual machine, one round of the same commands
took 5.4 s in one run and 7.6 s a few minutes later, a drift wider than
any bound.  End-to-end times are therefore scaled by
REFERENCE_S divided by the median time of this loop, measured in the same
process next to the work, so that they compare programs rather than the
machine's load at the moment.
The loop mixes the kinds of work blockmix does: interpreter arithmetic on
small tuples, many small numpy calls, and dense products.  It allocates
nothing that outlives an iteration, so the state of the process that runs
it does not change its time.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.1  # the loop's typical time on a quiet 2-core Xeon virtual machine


def loop_seconds() -> float:
    start = perf_counter()
    total = 0
    for i in range(200_000):  # interpreter arithmetic on small tuples; no heap growth
        pair = (i % 1009, i & 7)
        total += pair[0] * pair[1]
    x = np.linspace(0.0, 1.0, 256)
    z = np.arange(256) % 4
    for _ in range(5000):
        np.bincount(z, weights=x, minlength=4)
        x = np.where(x > 0.5, x * 0.999, x + 1e-3)
    y = np.linspace(0.0, 1.0, 160_000).reshape(400, 400)
    for _ in range(8):
        y = y @ y / 400.0
    return perf_counter() - start


def scale(seconds: float, loop_s: float) -> float:
    """Seconds as they would read where the loop takes REFERENCE_S."""
    return seconds * REFERENCE_S / loop_s


def scaled_median(rounds: list[dict], key: str) -> float:
    """Median over rounds of one time, scaled by all the rounds' loop times."""
    loop_s = statistics.median(x for r in rounds for x in r["loops"])
    return scale(statistics.median(r.get(key, 0.0) for r in rounds), loop_s)
