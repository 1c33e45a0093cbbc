"""The timing rule of the ``bench_*`` scripts, process CPU seconds, the
best of a number of passes, and their report writer."""

from __future__ import annotations

import json
import os
import platform
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


def write_report(path, report: dict):
    """Add the python version and the machine to ``report``, write it to
    ``path`` as indented JSON, and print it on one line."""
    report["python"] = platform.python_version()
    report["machine"] = f"{platform.system()} {platform.machine()}, {os.cpu_count()} cpus"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report))
