#!/usr/bin/env python3
"""Time the certifier's child pulls, the relabeling followed by a lift or a
shore mapping against the one edge-map pass that replaced the two, and
write the result as JSON.

Certifies the graphs of each input in order with one fresh ``Certifier``
and records every child it pulls onto a parent: the child's cached
canonical combination, the reduction and the canonical relabeling.  Then,
over the same pulls, it times the two-step path (``_map_combination``, then
``lift`` for a case-1 child or ``_map_members`` onto the parent for a
case-2 shore) and the one-pass ``_pull_members``, and raises if a one-pass
result, normalized, differs from the two-step one.  A case-1 lift is timed
as the certifier makes it, not normalized: the node's average normalizes
all its lifts at once.  Times are process CPU seconds, the best of
``--repeat`` passes.  Entries mapped counts the canonical entries the
pulls carry; each path's ``_map_members`` calls are counted on one pass.

    python3 scripts/bench_lift.py [--input FILE ...] [--repeat N] [--out FILE]

The default inputs are the benchmark's seed-0 ``cold_e4_n16`` graph (only
read), GP(8,3), GP(9,2) and the 31-graph corpus, each certified with
``max_n=18``; each ``--input`` file replaces them with its own graphs.  The
default output is ``BENCH_lift.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

from bench_canon import MAX_N, default_inputs, read_graphs
from cubic2ec import Certifier, combination, combine, lift
from timing import best_time

OUT = ROOT / "BENCH_lift.json"


def record_pulls(graphs) -> list:
    """(canonical combination, reduction, perm) of every child pull while a
    fresh Certifier certifies graphs."""
    pulls = []
    honest = combine._pull_members

    def recorded(comb_k, red, perm):
        pulls.append((comb_k, red, perm))
        return honest(comb_k, red, perm)

    combine._pull_members = recorded
    try:
        certifier = Certifier(max_n=MAX_N)
        for g in graphs:
            certifier.certify(g)
    finally:
        combine._pull_members = honest
    return pulls


def two_step(pulls) -> list:
    out = []
    for comb_k, red, perm in pulls:
        child = combine._map_combination(comb_k, red.child, perm)
        if red.kind == "case1_removal":
            out.append(lift(child, red))
        else:
            out.append(combine._map_members(child, red.parent, red.edge_provenance))
    return out


def one_pass(pulls) -> list:
    return [combine._pull_members(comb_k, red, perm) for comb_k, red, perm in pulls]


def map_members_calls(path, pulls) -> int:
    """The number of ``_map_members`` calls one run of path makes."""
    calls = 0
    honest = combine._map_members

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return honest(*args, **kwargs)

    combine._map_members = counted
    try:
        path(pulls)
    finally:
        combine._map_members = honest
    return calls


def measure(name: str, graphs, repeat: int) -> dict:
    pulls = record_pulls(graphs)
    two_s, want = best_time(two_step, pulls, repeat=repeat)
    one_s, got = best_time(one_pass, pulls, repeat=repeat)
    for (_, red, _), a, b in zip(pulls, want, got):
        if combination(red.parent, b, check=False) != a:
            raise RuntimeError(f"{name}: a one-pass pull differs from the two-step path")
    case1 = sum(red.kind == "case1_removal" for _, red, _ in pulls)
    return {
        "input": name,
        "graphs": len(graphs),
        "children": len(pulls),
        "case1_children": case1,
        "case2_children": len(pulls) - case1,
        "entries_mapped": sum(len(comb_k.entries) for comb_k, _, _ in pulls),
        "two_step_map_members_calls": map_members_calls(two_step, pulls),
        "one_pass_map_members_calls": map_members_calls(one_pass, pulls),
        "two_step_s": round(two_s, 6),
        "one_pass_s": round(one_s, 6),
        "speedup": round(two_s / one_s, 2) if one_s else None,
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
        "python": platform.python_version(),
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} cpus",
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
