#!/usr/bin/env python3
"""Time the cut index, the walk over every shore against the cycle-space
index, and write the result as JSON.

For each n in 8, 10, ..., 20 it draws ``--graphs`` random connected cubic
graphs (the pairing model, seeded by n) and times the Gray-code walk over
all 2^(n-1) shores that the index replaced (``reference_walk_cuts`` of
``tests/support.py``, which also keeps the least cut size) and the
cycle-space index (``_index_cuts``) on them.  Both must list the same
cuts of at most four edges on every graph, or the script raises
RuntimeError.  Above n = 20, where the walk's time doubles with each
vertex, it times the index alone, at n = 24, 30 and 60.  Times are process
CPU seconds per graph, the best of ``--repeat`` passes over the graphs of
one n.

    python3 scripts/bench_cuts.py [--graphs N] [--repeat N] [--out FILE]

The default output is ``BENCH_cuts.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts"), str(ROOT / "tests")]

from support import reference_walk_cuts
from timing import best_time, write_report

from cubic2ec import Graph, connectivity

WALKED_N = range(8, 21, 2)
INDEXED_N = (24, 30, 60)
OUT = ROOT / "BENCH_cuts.json"


def random_cubic(n: int, rng: random.Random) -> Graph:
    """A uniform random connected simple cubic graph: pair up three points
    per vertex at random, and draw again until the pairing has no loop, no
    parallel edge and one component."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i : i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) < 3 * n // 2 or any(u == v for u, v in edges):
            continue
        g = Graph(n, tuple(sorted(edges)))
        reached = {0}
        stack = [0]
        while stack:
            for w in g.neighbors(stack.pop()):
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) == n:
            return g


def walk_all(graphs) -> list:
    return [reference_walk_cuts(g, 4)[1] for g in graphs]


def index_all(graphs) -> list:
    return [connectivity._index_cuts(g) for g in graphs]


def measure(n: int, count: int, repeat: int, walk: bool) -> dict:
    rng = random.Random(n)
    graphs = [random_cubic(n, rng) for _ in range(count)]
    index_s, indexed = best_time(index_all, graphs, repeat=repeat)
    row = {
        "n": n,
        "graphs": count,
        "cuts": sum(map(len, indexed)),
        "walk_s": None,
        "index_s": round(index_s / count, 7),
        "speedup": None,
    }
    if walk:
        walk_s, walked = best_time(walk_all, graphs, repeat=repeat)
        if walked != indexed:
            raise RuntimeError(f"n={n}: the index and the shore walk list different cuts")
        row["walk_s"] = round(walk_s / count, 7)
        row["speedup"] = round(walk_s / index_s, 1) if index_s else None
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--graphs", type=int, default=3, help="graphs per n")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--out", type=Path, default=OUT)
    args = ap.parse_args(argv)

    rows = [measure(n, args.graphs, args.repeat, True) for n in WALKED_N]
    rows += [measure(n, args.graphs, args.repeat, False) for n in INDEXED_N]
    report = {
        "graphs_per_n": args.graphs,
        "repeat": args.repeat,
        "note": "seconds are process CPU per graph; walk_s is null above n = 20",
        "sizes": rows,
    }
    write_report(args.out, report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
