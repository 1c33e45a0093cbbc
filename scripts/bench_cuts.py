#!/usr/bin/env python3
"""Time the cut index, the walk over every shore against the cycle-space
index, and write the result as JSON.

For each n in 8, 10, ..., 20 it draws ``--graphs`` random connected cubic
graphs (the pairing model, seeded by n) and times the Gray-code walk over
all 2^(n-1) shores that the index replaced (``walk_cuts``, held here) and
the cycle-space index (``_index_cuts``) on them.  Both must list the same
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
import json
import os
import platform
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

from cubic2ec import Graph, connectivity
from timing import best_time

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


def walk_cuts(g: Graph, max_size: int) -> list[tuple[int, int]]:
    """Every cut with |crossing| <= max_size as (shore, crossing), in
    ascending shore order, by one walk over every canonical shore: the
    shore >> 1 code runs through the Gray code i ^ (i >> 1), so step i
    flips vertex (i & -i).bit_length(), never vertex 0, and the crossing
    mask changes by that vertex's incidence mask."""
    inc = [0] * g.n
    for e, (u, v) in enumerate(g.edges):
        inc[u] ^= 1 << e
        inc[v] ^= 1 << e
    found = []
    code = cross = 0
    for i in range(1, 1 << (g.n - 1)):
        low = i & -i
        code ^= low
        cross ^= inc[low.bit_length()]
        if cross.bit_count() <= max_size:
            found.append((code, cross))
    found.sort()
    return [(code << 1, cross) for code, cross in found]


def walk_all(graphs) -> list:
    return [walk_cuts(g, 4) for g in graphs]


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
        "python": platform.python_version(),
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} cpus",
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
