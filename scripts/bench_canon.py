#!/usr/bin/env python3
"""Time the certifier's canonical-form lookups, a full search on every
lookup against the search that stops at a class the Certifier holds, and
write the result as JSON.

Certifies the graphs of each input in order with one fresh ``Certifier``
and records every canonical-form lookup it makes, together with the keys it
held for that n at the time.  Then, over the same lookups, it times a full
search on each (``canonical_lookup`` with no known keys, uncached) and the
Certifier's own lookup (``canonical_lookup`` with the keys it held), and
asserts that both return the same key and perm on every lookup.  Times are
process CPU seconds, the best of ``--repeat`` passes.  A hit is a lookup
whose class the Certifier already held; leaves are the leaves each search
visits.

    python3 scripts/bench_canon.py [--input FILE ...] [--repeat N] [--out FILE]

The default inputs are the benchmark's seed-0 ``cold_e4_n16`` graph (only
read), GP(8,3), GP(9,2) and the 31-graph corpus, each certified with
``max_n=18``; each ``--input`` file replaces them with its own graphs.  The
default output is ``BENCH_canon.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

from cubic2ec import Certifier, Graph, canon, parse_graph6
from make_corpus import generalized_petersen
from timing import best_time, write_report

MAX_N = 18
OUT = ROOT / "BENCH_canon.json"


def read_graphs(path: Path) -> list[Graph]:
    return [parse_graph6(ln.strip()) for ln in path.read_text().splitlines() if ln.strip()]


def default_inputs() -> list[tuple[str, list[Graph]]]:
    cold = "perfbench/inputs_seed0/cold_e4_n16.g6"
    corpus = "data/cubic_3ec_n4_14.g6"
    return [
        (cold, read_graphs(ROOT / cold)),
        ("GP(8,3)", [generalized_petersen(8, 3)]),
        ("GP(9,2)", [generalized_petersen(9, 2)]),
        (corpus, read_graphs(ROOT / corpus)),
    ]


def record_lookups(graphs) -> list:
    """(graph, known) of every lookup while a fresh Certifier certifies
    graphs; known is a copy of the encodings of the keys it held for the
    graph's n."""
    lookups = []
    honest = Certifier._canonical_form

    def recorded(self, g):
        lookups.append((g, set(self._known.get(g.n, ()))))
        return honest(self, g)

    Certifier._canonical_form = recorded
    try:
        certifier = Certifier(max_n=MAX_N)
        for g in graphs:
            certifier.certify(g)
    finally:
        Certifier._canonical_form = honest
    return lookups


def full_searches(lookups) -> list:
    return [canon.canonical_lookup(g, ()) for g, _ in lookups]


def known_searches(lookups) -> list:
    return [canon.canonical_lookup(g, known) for g, known in lookups]


def measure(name: str, graphs, repeat: int) -> dict:
    lookups = record_lookups(graphs)
    full_s, full = best_time(full_searches, lookups, repeat=repeat)
    known_s, found = best_time(known_searches, lookups, repeat=repeat)
    if full != found:
        raise AssertionError(f"{name}: a lookup differs from the full search")
    hits = full_leaves = lookup_leaves = 0
    for g, known in lookups:
        _, enc, leaves = canon._search(g, known)
        hits += enc in known
        lookup_leaves += leaves
        full_leaves += canon._search(g)[2]
    return {
        "input": name,
        "graphs": len(graphs),
        "lookups": len(lookups),
        "classes": len({key for key, _ in full}),
        "hits": hits,
        "full_leaves": full_leaves,
        "lookup_leaves": lookup_leaves,
        "full_s": round(full_s, 6),
        "lookup_s": round(known_s, 6),
        "speedup": round(full_s / known_s, 2) if known_s else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--input", type=Path, action="append", default=[])
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--out", type=Path, default=OUT)
    args = ap.parse_args(argv)

    inputs = [(path.name, read_graphs(path)) for path in args.input] or default_inputs()
    rows = [measure(name, graphs, args.repeat) for name, graphs in inputs]
    report = {
        "max_n": MAX_N,
        "repeat": args.repeat,
        "inputs": rows,
    }
    write_report(args.out, report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
