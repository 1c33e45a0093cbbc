#!/usr/bin/env python3
"""Time the certifier's spanning-2EC member checks, one member at a time
against one lane-parallel pass per node, and write the result as JSON.

Certifies every graph of a graph6 file with a fresh ``Certifier`` and
records the member list of each node check (each ``first_non_2ec`` call).
Then, over the same lists, it times the per-member ``is_2ec`` loop that
the certifier ran before (masks already converted to is_2ec's bit order,
outside the timing) and one ``first_non_2ec`` call per list, and asserts
that both name the same first non-2EC member on every list.  Times are
process CPU seconds, the best of ``--repeat`` passes.

    python3 scripts/bench_member_checks.py [--input FILE] [--repeat N] [--out FILE]

The default input is the benchmark's seed-0 ``cold_e4_n16`` graph, which
is only read; the default output is ``BENCH_member_checks.json`` at the
repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

from timing import best_time

from cubic2ec import Certifier, connectivity, parse_graph6

INPUT = ROOT / "perfbench" / "inputs_seed0" / "cold_e4_n16.g6"
OUT = ROOT / "BENCH_member_checks.json"


def record_member_lists(graphs) -> list:
    """(graph, masks) of every node check while a fresh Certifier
    certifies graphs."""
    lists = []
    honest = connectivity.first_non_2ec

    def recorded(g, masks):
        lists.append((g, list(masks)))
        return honest(g, masks)

    connectivity.first_non_2ec = recorded
    try:
        certifier = Certifier(max_n=18)
        for g in graphs:
            certifier.certify(g)
    finally:
        connectivity.first_non_2ec = honest
    return lists


def per_member(lists) -> list:
    """The first member is_2ec rejects in each list, one call per member."""
    return [
        next((k for k, x in enumerate(xs) if not connectivity.is_2ec(g, x)), None)
        for g, xs in lists
    ]


def one_pass(lists) -> list:
    return [connectivity.first_non_2ec(g, masks) for g, masks in lists]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--input", type=Path, default=INPUT)
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--out", type=Path, default=OUT)
    args = ap.parse_args(argv)

    lines = [ln.strip() for ln in args.input.read_text().splitlines() if ln.strip()]
    lists = record_member_lists([parse_graph6(ln) for ln in lines])
    # is_2ec reads edge e at bit e: the certifier's digits reversed
    naturals = [
        (g, [int(f"{x:0{g.m}b}"[::-1], 2) for x in masks]) for g, masks in lists
    ]
    loop_s, loop_answers = best_time(per_member, naturals, repeat=args.repeat)
    pass_s, pass_answers = best_time(one_pass, lists, repeat=args.repeat)
    if loop_answers != pass_answers:
        raise AssertionError(f"is_2ec {loop_answers} != first_non_2ec {pass_answers}")

    try:
        name = str(args.input.resolve().relative_to(ROOT))
    except ValueError:
        name = args.input.name
    report = {
        "input": name,
        "graphs": len(lines),
        "node_checks": len(lists),
        "members": sum(len(masks) for _, masks in lists),
        "largest_node": max((len(masks) for _, masks in lists), default=0),
        "non_2ec_found": sum(k is not None for k in pass_answers),
        "repeat": args.repeat,
        "is_2ec_loop_s": round(loop_s, 6),
        "first_non_2ec_s": round(pass_s, 6),
        "speedup": round(loop_s / pass_s, 2) if pass_s else None,
        "python": platform.python_version(),
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} cpus",
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
