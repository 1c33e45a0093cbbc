#!/usr/bin/env python3
"""Time the sweep's two oracles, ``exact_opt`` and ``verify_lemma3``,
against the bodies they replaced, and write the result as JSON.

The replaced ``exact_opt`` asked ``is_2ec`` before every exclusion and
every greedy drop, and counted each node's included edges and deficiency
over every vertex; today's skips the exclusions and drops that would leave
a vertex below two edges, and keeps the counts as running counters.  The
replaced ``verify_lemma3`` answered every configuration through
``essential_4cut_with_pair`` and decided every pivot through
``find_safe_pair``, each checking the graph again; today's checks it and
reads its essential 4-cuts once.  The replaced ``exact_opt`` is
``tests/support.py``'s ``reference_exact_opt``; the replaced
``verify_lemma3`` is held here.

For each input it times both versions of each oracle, over the input's
graphs (``verify_lemma3`` over those with n > 6 that are essentially
4-edge-connected, as the sweep calls it), counts the ``is_2ec`` calls of
one pass of each ``exact_opt``, and raises if the two versions give a
different ``(opt, witness)`` or a different report on any graph.  Times are
process CPU seconds, the best of ``--repeat`` passes; the cut index is
filled before timing, as a sweep row has filled it by then.

    python3 scripts/bench_oracles.py [--input FILE ...] [--repeat N] [--out FILE]

The default inputs are the benchmark's seed-0 ``sweep_corpus`` graphs (only
read) and GP(8,3); each ``--input`` file replaces them with its own
graphs.  The default output is ``BENCH_oracles.json`` at the repository
root.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts"), str(ROOT / "tests")]

from bench_canon import read_graphs
from make_corpus import generalized_petersen
from support import reference_exact_opt as replaced_exact_opt
from timing import best_time, write_report

from cubic2ec import Lemma3Violation, connectivity, oracle
from cubic2ec.connectivity import Lemma3Report

OUT = ROOT / "BENCH_oracles.json"


def replaced_verify_lemma3(g) -> Lemma3Report:
    """``verify_lemma3`` as it was: each configuration and each pivot
    answered by a public query that checks the graph again."""
    connectivity._check_pivot_graph(g, "verify_lemma3")
    configurations = flips = 0
    violations, divergences = [], []
    literal_ok_everywhere = True
    for uv, (x, y) in enumerate(g.edges):
        for u, v in ((x, y), (y, x)):
            c, d = sorted(w for w in g.neighbors(v) if w != u)
            vc, vd = g.edge_id(v, c), g.edge_id(v, d)
            for a in sorted(w for w in g.neighbors(u) if w != v):
                au = g.edge_id(a, u)
                configurations += 1
                s1 = connectivity.essential_4cut_with_pair(g, au, vd, (u, v))
                s2 = connectivity.essential_4cut_with_pair(g, au, vc, (u, v))
                if s1 is not None and s2 is not None:
                    literal_ok_everywhere = False
                    violations.append(
                        {
                            "pivot": uv,
                            "path": (a, u, v),
                            "others": (c, d),
                            "cut_with_vd": s1,
                            "cut_with_vc": s2,
                        }
                    )
        try:
            flips += connectivity.find_safe_pair(g, uv).orientation == 2
        except Lemma3Violation as exc:
            found = divergences if literal_ok_everywhere else violations
            found.append({"pivot": uv, "witnesses": exc.witnesses})
    return Lemma3Report(
        configurations=configurations,
        pivots=g.m,
        violations=tuple(violations),
        orientation_flips=flips,
        divergences=tuple(divergences),
    )


def on_each(fn, graphs) -> list:
    return [fn(g) for g in graphs]


def is_2ec_calls(fn, graphs) -> int:
    """The number of ``is_2ec`` calls one pass of fn over graphs makes."""
    calls = 0
    honest = connectivity.is_2ec

    def counted(g, sub):
        nonlocal calls
        calls += 1
        return honest(g, sub)

    connectivity.is_2ec = counted
    try:
        on_each(fn, graphs)
    finally:
        connectivity.is_2ec = honest
    return calls


def measure(name: str, graphs, repeat: int) -> dict:
    pivot_graphs = [g for g in graphs if g.n > 6 and connectivity.is_essentially_4ec(g)]
    old_opt_s, old_opt = best_time(on_each, replaced_exact_opt, graphs, repeat=repeat)
    opt_s, opt = best_time(on_each, oracle.exact_opt, graphs, repeat=repeat)
    if opt != old_opt:
        raise RuntimeError(f"{name}: exact_opt differs from the replaced search")
    old_l3_s, old_l3 = best_time(
        on_each, replaced_verify_lemma3, pivot_graphs, repeat=repeat
    )
    l3_s, l3 = best_time(on_each, connectivity.verify_lemma3, pivot_graphs, repeat=repeat)
    if l3 != old_l3:
        raise RuntimeError(f"{name}: verify_lemma3 differs from the replaced body")
    return {
        "input": name,
        "graphs": len(graphs),
        "lemma3_graphs": len(pivot_graphs),
        "replaced_exact_opt_is_2ec_calls": is_2ec_calls(replaced_exact_opt, graphs),
        "exact_opt_is_2ec_calls": is_2ec_calls(oracle.exact_opt, graphs),
        "replaced_exact_opt_s": round(old_opt_s, 6),
        "exact_opt_s": round(opt_s, 6),
        "exact_opt_speedup": round(old_opt_s / opt_s, 2) if opt_s else None,
        "replaced_verify_lemma3_s": round(old_l3_s, 6),
        "verify_lemma3_s": round(l3_s, 6),
        "verify_lemma3_speedup": round(old_l3_s / l3_s, 2) if l3_s else None,
    }


def default_inputs() -> list:
    sweep = "perfbench/inputs_seed0/sweep_corpus.g6"
    return [(sweep, read_graphs(ROOT / sweep)), ("GP(8,3)", [generalized_petersen(8, 3)])]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--input", type=Path, action="append", default=[])
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--out", type=Path, default=OUT)
    args = ap.parse_args(argv)

    inputs = [(path.name, read_graphs(path)) for path in args.input] or default_inputs()
    rows = [measure(name, graphs, args.repeat) for name, graphs in inputs]
    report = {
        "repeat": args.repeat,
        "inputs": rows,
    }
    write_report(args.out, report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
