"""The timing rule of the ``bench_*`` scripts: process CPU seconds, the
best of a number of passes."""

from __future__ import annotations

import time


def best_time(fn, *args, repeat: int):
    """``(seconds, answer)``: the least process CPU time of ``repeat`` calls
    ``fn(*args)``, and the answer of the last call."""
    best, answer = None, None
    for _ in range(repeat):
        t0 = time.process_time()
        answer = fn(*args)
        spent = time.process_time() - t0
        best = spent if best is None else min(best, spent)
    return best, answer
