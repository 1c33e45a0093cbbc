#!/usr/bin/env python3
"""Time the certifier's canonical-form lookups three ways, a full search,
the search that stops at the least leaf of a held class, and the lookup
in the Certifier's index of leaf encodings, and its carried placements
against the lookups they replace, and write the result as JSON.

Certifies the graphs of each input in order with one fresh ``Certifier``
and records every canonical-form lookup it makes, together with its index
for that n at the time.  Then, over the same lookups, it times a full
search on each (``canonical_form`` uncached), the search that stops at
the first leaf whose encoding is the least of a held class
(``reference_stopped_search`` of ``tests/support.py``, the lookup the
index replaced), and the Certifier's own lookup (``canonical_lookup``
with the index it held, each tree's trie of least leaves cleared before
every pass, as a fresh Certifier builds it once).  All three must return
the same key and perm on every lookup, or the script raises RuntimeError.

It also records every child a case-1 node placed from an automorphism of
the node instead of looking it up, with the carried least leaf and the
tree of the child's class, and the index held at the time.  Over those
it times the placement (``canonical_placement``) and the index lookup it
replaced (``canonical_lookup``), tries cleared before each pass; both
must return the full search's key and perm, or the script raises
RuntimeError.

Times are process CPU seconds, the best of ``--repeat`` passes.  A hit is
a lookup whose class the Certifier already held; leaves are the leaves
each search visits, and a carried placement visits none.

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
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts"), str(ROOT / "tests")]

from cubic2ec import Certifier, Graph, canon, parse_graph6
from make_corpus import generalized_petersen
from support import reference_stopped_search
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


def record_lookups(graphs) -> tuple[list, list]:
    """(graph, index) of every lookup while a fresh Certifier certifies
    graphs, and (graph, tree, order, index) of every placement it carried;
    index is a copy of its index for the graph's n."""
    lookups, carried = [], []
    lookup, carry = Certifier._canonical_form, Certifier._carried_form

    def recorded(self, g):
        lookups.append((g, dict(self._index.get(g.n, {}))))
        return lookup(self, g)

    def recorded_carry(self, g, tree, order):
        carried.append((g, tree, order, dict(self._index.get(g.n, {}))))
        return carry(self, g, tree, order)

    Certifier._canonical_form = recorded
    Certifier._carried_form = recorded_carry
    try:
        certifier = Certifier(max_n=MAX_N)
        for g in graphs:
            certifier.certify(g)
    finally:
        Certifier._canonical_form = lookup
        Certifier._carried_form = carry
    return lookups, carried


def held_least(index) -> set[int]:
    """The least leaf encodings of the classes ``index`` holds."""
    return {tree.enc for tree in index.values()}


def full_searches(lookups) -> list:
    return [canon.canonical_form.__wrapped__(g) for g, *_ in lookups]


def stopped_searches(lookups) -> list:
    found = []
    for g, index in lookups:
        order, enc, _ = reference_stopped_search(g, held_least(index))
        found.append(canon._labeling(g.n, order, enc))
    return found


def clear_tries(indexes):
    for index in indexes:
        for tree in index.values():
            tree._least = None


def index_lookups(entries) -> list:
    """``canonical_lookup`` of each entry's graph, its first item, in the
    index that is its last."""
    clear_tries(entry[-1] for entry in entries)
    return [canon.canonical_lookup(entry[0], entry[-1])[:2] for entry in entries]


def placements(carried) -> list:
    clear_tries(index for *_, index in carried)
    return [canon.canonical_placement(g, tree, order) for g, tree, order, _ in carried]


def measure(name: str, graphs, repeat: int) -> dict:
    lookups, carried = record_lookups(graphs)
    full_s, full = best_time(full_searches, lookups, repeat=repeat)
    stopped_s, stopped = best_time(stopped_searches, lookups, repeat=repeat)
    index_s, found = best_time(index_lookups, lookups, repeat=repeat)
    if not full == stopped == found:
        raise RuntimeError(f"{name}: a lookup differs from the full search")
    replaced_s, replaced = best_time(index_lookups, carried, repeat=repeat)
    carried_s, placed = best_time(placements, carried, repeat=repeat)
    if not full_searches(carried) == replaced == placed:
        raise RuntimeError(f"{name}: a carried placement differs from the full search")
    hits = full_leaves = stopped_leaves = index_leaves = 0
    for g, index in lookups:
        hits += canon._search(g, index)[3] is None
        full_leaves += canon._search(g)[2]
        stopped_leaves += reference_stopped_search(g, held_least(index))[2]
        index_leaves += canon._search(g, index)[2]
    return {
        "input": name,
        "graphs": len(graphs),
        "lookups": len(lookups),
        "classes": len({key for key, _ in full}),
        "hits": hits,
        "full_leaves": full_leaves,
        "stopped_leaves": stopped_leaves,
        "index_leaves": index_leaves,
        "full_s": round(full_s, 6),
        "stopped_s": round(stopped_s, 6),
        "index_s": round(index_s, 6),
        "speedup_over_stopped": round(stopped_s / index_s, 2) if index_s else None,
        "carried": len(carried),
        "replaced_lookup_leaves": sum(canon._search(g, index)[2] for g, *_, index in carried),
        "replaced_lookup_s": round(replaced_s, 6),
        "carried_s": round(carried_s, 6),
        "carried_speedup": round(replaced_s / carried_s, 2) if carried_s else None,
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
