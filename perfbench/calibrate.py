"""Host-speed calibration for the wall-clock benchmark.

The shared host the benchmark was tuned on runs the same code up to
about 1.5x slower for seconds to minutes at a time.  ``sample.py`` times this
fixed pure-Python workload, shaped like the join's hot loops (token
counting, sorting, set intersection), right before and right after
each join, and scales its times by ``REFERENCE_S / measured``: a time
as it would read on the host at its reference speed.  Nothing here
depends on the program under test.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

#: what ``measure()`` takes on a 2.1 GHz Xeon VM at its faster speed
REFERENCE_S = 0.26
_ROUNDS = 3

_rng = random.Random(7)
_WORDS = [f"w{_rng.randrange(5000)}" for _ in range(60_000)]
_RECORDS = [" ".join(_WORDS[i : i + 12]) for i in range(0, len(_WORDS), 6)]


def _round() -> int:
    freq: dict[str, int] = {}
    for record in _RECORDS:
        for token in record.split():
            freq[token] = freq.get(token, 0) + 1
    rank = {t: i for i, t in enumerate(sorted(freq, key=lambda t: (freq[t], t)))}
    sets = [sorted({rank[t] for t in record.split()}) for record in _RECORDS]
    return sum(len(set(a).intersection(b)) for a, b in zip(sets, sets[1:]))


def measure() -> float:
    """Seconds the calibration workload takes now; the collector is
    off, so the caller's heap does not change the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(_ROUNDS):
            _round()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
