"""Host wall-clock timing shared by the benchmarks and the bench presets.

Every speedup or overhead the repo records is a ratio of two host
timings.  :func:`best_of_interleaved` is the one discipline they all
use: the arms run in turn within each round, so a load spike on the
host hits every arm alike instead of biasing whichever ran during it,
and each arm keeps its fastest (least disturbed) round.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, List, Optional, Sequence


def best_of_interleaved(fns: Sequence[Callable], reps: int,
                        setups: Optional[Sequence[Callable]] = None
                        ) -> List[float]:
    """Best wall seconds of each of ``fns`` over ``reps`` interleaved
    rounds, with the garbage collector off while timing (as ``timeit``
    does: GC pauses dominate the noise).

    With ``setups``, ``setups[i]()`` runs untimed before every call of
    ``fns[i]`` and its result is passed to it (e.g. build a fresh fleet,
    then time only its run).
    """
    best = [float("inf")] * len(fns)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            for i, fn in enumerate(fns):
                if setups is None:
                    t0 = time.perf_counter()
                    fn()
                else:
                    arg = setups[i]()
                    t0 = time.perf_counter()
                    fn(arg)
                best[i] = min(best[i], time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return best
