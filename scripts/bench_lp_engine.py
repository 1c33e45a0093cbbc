#!/usr/bin/env python3
"""Time the integer simplex of ``cubic2ec.exact_lp`` against the Fraction
solvers it replaced, and write the result as JSON.

Two kinds of system:

* the least-support system of each graph of a graph6 file with
  n <= 12: one column per valid matching M (G - M spanning 2EC), a row
  per edge at rhs 2/9 and a row of ones at rhs 1, solved by
  ``feasible_basic_solution`` against the dense phase-1 tableau;
* the cut LPs of the non-cubic graphs C5, K5, K6 and two K4 minus an edge
  joined by a 2-edge cut, every cut (listed by the walk over every shore,
  ``reference_walk_cuts``) a column, solved by ``solve_cut_lp`` against
  the revised simplex on a Fraction inverse.

The references (``tests/support.py``) run only on graphs with n <= 10:
the dense tableau took 25-76 s per n = 12 corpus system on a 2-cpu
x86_64 host.  Wherever both
run, the answers must be equal.  Times are process CPU seconds, the best
of ``--repeat`` passes.

    python3 scripts/bench_lp_engine.py [--input FILE] [--repeat N] [--out FILE]

The default input is the corpus ``data/cubic_3ec_n4_14.g6``, which is only
read; the default output is ``BENCH_lp_engine.json`` at the repository
root.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts"), str(ROOT / "tests")]

from support import (
    reference_feasible_basic_solution,
    reference_solve_cut_lp,
    reference_walk_cuts,
    valid_matching_system,
)
from test_oracle import C5, TWO_K4_MINUS_EDGE, complete
from timing import best_time, write_report

from cubic2ec import parse_graph6
from cubic2ec.exact_lp import feasible_basic_solution, solve_cut_lp

INPUT = ROOT / "data" / "cubic_3ec_n4_14.g6"
OUT = ROOT / "BENCH_lp_engine.json"
MAX_N = 12
REFERENCE_MAX_N = 10
CUT_LP_GRAPHS = {
    "C5": C5,
    "K5": complete(5),
    "K6": complete(6),
    "two_K4_minus_edge": TWO_K4_MINUS_EDGE,
}


def compare(row, n, engine, reference, args, repeat):
    """Fill row with the engine's time and, up to REFERENCE_MAX_N, the
    reference's; the two answers must be equal."""
    engine_s, answer = best_time(engine, *args, repeat=repeat)
    row["engine_s"], row["reference_s"] = round(engine_s, 6), None
    if n <= REFERENCE_MAX_N:
        reference_s, expected = best_time(reference, *args, repeat=repeat)
        row["reference_s"] = round(reference_s, 6)
        if answer != expected:
            raise AssertionError(f"engine and reference differ on {row}")
    return row


def totals(rows) -> dict:
    both = [r for r in rows if r["reference_s"] is not None]
    engine = sum(r["engine_s"] for r in both)
    reference = sum(r["reference_s"] for r in both)
    return {
        "systems_both_ran": len(both),
        "engine_s": round(engine, 6),
        "reference_s": round(reference, 6),
        "speedup": round(reference / engine, 2) if engine else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--input", type=Path, default=INPUT)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--out", type=Path, default=OUT)
    args = ap.parse_args(argv)

    lines = [ln.strip() for ln in args.input.read_text().splitlines() if ln.strip()]
    phase1 = []
    for line in lines:
        g = parse_graph6(line)
        if g.n > MAX_N:
            continue
        rows, rhs = valid_matching_system(g)
        row = {"graph6": line, "n": g.n, "columns": len(rows[0])}
        phase1.append(compare(
            row, g.n, feasible_basic_solution, reference_feasible_basic_solution,
            (rows, rhs), args.repeat,
        ))
    cut_lp = []
    for name, g in CUT_LP_GRAPHS.items():
        masks = [cmask for _, cmask in reference_walk_cuts(g, g.m)[1]]
        row = {"graph": name, "n": g.n, "m": g.m, "cuts": len(masks)}
        cut_lp.append(compare(
            row, g.n, solve_cut_lp, reference_solve_cut_lp, (g.m, masks), args.repeat
        ))

    try:
        name = str(args.input.resolve().relative_to(ROOT))
    except ValueError:
        name = args.input.name
    report = {
        "input": name,
        "max_n": MAX_N,
        "reference_max_n": REFERENCE_MAX_N,
        "note": f"the Fraction references run only on graphs with n <= "
        f"{REFERENCE_MAX_N}; above it reference_s is null",
        "repeat": args.repeat,
        "phase1": phase1,
        "phase1_totals": totals(phase1),
        "cut_lp": cut_lp,
        "cut_lp_totals": totals(cut_lp),
    }
    write_report(args.out, report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
