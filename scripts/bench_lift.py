#!/usr/bin/env python3
"""Time the certifier's child pulls and its case-1 pivot loops against the
paths they replaced, and write the result as JSON.

Certifies the graphs of each input in order with one fresh ``Certifier``
and records every child it pulls onto a parent: the child's cached
canonical combination, the canonical relabeling, and the parent, child,
provenance and always-selected edges it is pulled with.  Then, over the
same pulls, it times the two-step path (``_map_combination``, then
``_map_members`` onto the parent) and the one-pass ``_pull_members``, and
raises if a one-pass result, normalized, differs from the two-step one.  A
case-1 lift is timed as the certifier makes it, not normalized: the node's
average normalizes all its lifts at once.  Entries mapped counts the
canonical entries the pulls carry; each path's ``_map_members`` calls are
counted on one pass.

Then, with the same Certifier (every child is a cache hit), it times the
whole pivot loop of every case-1 node it built: ``Certifier._case1``
against the loop it replaced.  That loop decides each pivot's safe pair
on its own, checking the graph again and reading each essential 4-cut
through ``essential_4cut_with_pair``, builds a ``Reduction`` for every
child (``remove_edges_and_smooth``, whose smoothing walk is today's) and
averages by listing every scaled entry and merging the list again in
``_merged``; it looks up every child, while ``_case1`` looks up only the
first child of each orbit of removed pairs under the node's
automorphisms and places the rest from it.  Both make the same pivot,
uniformity and member checks; the replaced average skips the part
checks, which did not change.  It raises if the two give a different
combination, pivot decision or child key.

Times are process CPU seconds, the best of ``--repeat`` passes.

    python3 scripts/bench_lift.py [--input FILE ...] [--repeat N] [--out FILE]

The default inputs are the benchmark's seed-0 ``cold_e4_n16`` graph (only
read), GP(8,3), GP(9,2) and the 31-graph corpus, each certified with
``max_n=18``; each ``--input`` file replaces them with its own graphs.  The
default output is ``BENCH_lift.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

from bench_canon import MAX_N, default_inputs, read_graphs
from cubic2ec import (
    Certifier,
    certificate,
    combine,
    connectivity,
    masked,
    parse_graph6,
    remove_edges_and_smooth,
)
from timing import best_time, write_report

OUT = ROOT / "BENCH_lift.json"


def record_pulls(graphs) -> tuple[Certifier, list]:
    """The fresh Certifier that certified graphs, and the
    ``_pull_members`` arguments of every child pull it made."""
    pulls = []
    honest = combine._pull_members

    def recorded(comb_k, perm, parent, child, provenance, always=(), normalize=True):
        args = (comb_k, perm, parent, child, provenance, always, normalize)
        pulls.append(args)
        return honest(*args)

    combine._pull_members = recorded
    try:
        certifier = Certifier(max_n=MAX_N)
        for g in graphs:
            certifier.certify(g)
    finally:
        combine._pull_members = honest
    return certifier, pulls


def two_step(pulls) -> list:
    out = []
    for comb_k, perm, parent, child, provenance, always, _ in pulls:
        relabeled = combine._map_combination(comb_k, child, perm)
        out.append(combine._map_members(relabeled, parent, provenance, always))
    return out


def one_pass(pulls) -> list:
    return [combine._pull_members(*args) for args in pulls]


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


def listed_average(parts) -> masked._MaskedCombination:
    """The replaced case-1 average: every scaled entry listed, then merged
    and normalized again by ``_merged``."""
    host = parts[0][1].host
    den = math.lcm(*(w.denominator * c.den for w, c in parts))
    raw = []
    for w, c in parts:
        f = den // (w.denominator * c.den) * w.numerator
        raw += [(f * num, x) for num, x in zip(c.nums, c.masks)]
    return masked._merged(host, den, raw)


def replaced_safe_pair(g, uv: int) -> tuple[tuple, int]:
    """The removed pairs and orientation of pivot uv as the replaced loop
    decided them: g checked again, and every essential 4-cut query checked
    and answered by ``essential_4cut_with_pair``."""
    if not g.is_cubic or g.n <= 6 or not connectivity.is_essentially_4ec(g):
        raise ValueError("a safe pair needs a cubic essentially 4EC graph with n > 6")
    u, v = g.endpoints(uv)
    a, b = sorted(w for w in g.neighbors(u) if w != v)
    c, d = sorted(w for w in g.neighbors(v) if w != u)
    au, bu = g.edge_id(a, u), g.edge_id(b, u)
    vc, vd = g.edge_id(v, c), g.edge_id(v, d)

    def blocked(e1, e2):
        return connectivity.essential_4cut_with_pair(g, e1, e2, (u, v))

    if blocked(au, vc) is None and blocked(bu, vd) is None:
        return ((au, vc), (bu, vd)), 1
    if blocked(au, vd) is None and blocked(bu, vc) is None:
        return ((au, vd), (bu, vc)), 2
    raise RuntimeError(f"both removal orientations around edge {uv} are blocked")


def replaced_pivot_loop(certifier: Certifier, K, key: str):
    """The case-1 node of K as the replaced loop built it: the combination
    and each pivot's (removed pairs, orientation, child keys)."""
    weight = Fraction(1, 2 * K.m)
    parts, pivots = [], []
    for uv in range(K.m):
        removed, orientation = replaced_safe_pair(K, uv)
        pulled = []
        for pair in removed:
            red = remove_edges_and_smooth(K, *pair)
            child_key, perm, _ = certifier._canonical_form(red.child)
            comb_k = certifier._cache[child_key][0]
            edge_map = [
                red.edge_provenance[ce]
                for ce in combine._relabeling(comb_k.host, red.child, perm)
            ]
            lifted = combine._map_members(
                comb_k, K, edge_map, red.forced_include, normalize=False
            )
            pulled.append((lifted, child_key))
        (a, key_a), (b, key_b) = pulled
        t, r, want = combine._case1_expectation(K, uv)
        scale = 2 * a.den * b.den
        occurrences = zip(
            masked._occurrence_nums(a), masked._occurrence_nums(b), want
        )
        if any(18 * (x * b.den + y * a.den) != w * scale for x, y, w in occurrences):
            raise RuntimeError(f"pivot {uv}: occurrences deviate from the profile")
        if 2 * t + r != 8:
            raise RuntimeError(f"pivot {uv}: 2t + r = {2 * t + r}, not 8")
        parts += [(weight, a), (weight, b)]
        pivots.append(([list(pair) for pair in removed], orientation, [key_a, key_b]))
    final = listed_average(parts)
    masked._check_uniform(final, certificate.TARGET, "averaged occurrence")
    masked._check_members(final, f"node {key}: member ")
    return final, pivots


def replaced_loops(certifier, nodes) -> list:
    return [replaced_pivot_loop(certifier, K, key) for K, key, _ in nodes]


def kernel_loops(certifier, nodes) -> list:
    out = []
    for K, key, tree in nodes:
        final, record = certifier._case1(K, key, tree)
        pivots = [(p["removed"], p["orientation"], p["children"]) for p in record["pivots"]]
        out.append((final, pivots))
    return out


def measure(name: str, graphs, repeat: int) -> dict:
    certifier, pulls = record_pulls(graphs)
    two_s, want = best_time(two_step, pulls, repeat=repeat)
    one_s, got = best_time(one_pass, pulls, repeat=repeat)
    for args, a, b in zip(pulls, want, got):
        if masked._merged(args[2], b.den, zip(b.nums, b.masks)) != a:
            raise RuntimeError(f"{name}: a one-pass pull differs from the two-step path")
    case1 = sum(not normalize for *_, normalize in pulls)

    nodes = [
        (K, key, certifier._canonical_form(K)[2])  # the held tree of K's class
        for key, (_, record) in certifier._cache.items()
        if record["kind"] == "case1"
        for K in [parse_graph6(key)]
    ]
    old_s, old = best_time(replaced_loops, certifier, nodes, repeat=repeat)
    new_s, new = best_time(kernel_loops, certifier, nodes, repeat=repeat)
    if old != new:
        raise RuntimeError(f"{name}: a case-1 pivot loop differs from the replaced loop")
    return {
        "input": name,
        "graphs": len(graphs),
        "children": len(pulls),
        "case1_children": case1,
        "case2_children": len(pulls) - case1,
        "entries_mapped": sum(len(args[0].masks) for args in pulls),
        "two_step_map_members_calls": map_members_calls(two_step, pulls),
        "one_pass_map_members_calls": map_members_calls(one_pass, pulls),
        "two_step_s": round(two_s, 6),
        "one_pass_s": round(one_s, 6),
        "speedup": round(two_s / one_s, 2) if one_s else None,
        "case1_nodes": len(nodes),
        "pivots": sum(K.m for K, *_ in nodes),
        "replaced_pivot_loop_s": round(old_s, 6),
        "pivot_loop_s": round(new_s, 6),
        "pivot_loop_speedup": round(old_s / new_s, 2) if new_s else None,
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
