#!/usr/bin/env python3
"""Run the full pipeline over the committed corpus and print the results.

For every graph: exact minimum 2EC, exact cut-LP value, their ratio, the
certificate's smallest member, and the floor(7n/6) bound.  Each row comes
from the per-graph pipeline of ``cubic2ec sweep``, which also checks every
certificate with ``verify_certificate``.  A graph the pipeline rejects
(not cubic, not 3-edge-connected, malformed) is a failing row, with its
error on stderr.  Exits nonzero if any invariant fails.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cubic2ec import Certifier, support_bound
from cubic2ec.cli import _sweep_row

CORPUS = Path(__file__).resolve().parent.parent / "data" / "cubic_3ec_n4_14.g6"


def main() -> int:
    lines = [ln.strip() for ln in CORPUS.read_text().splitlines() if ln.strip()]
    certifier = Certifier()
    print(f"{'graph6':<20}{'n':<4}{'e4ec':<6}{'opt':<5}{'lp':<5}{'gap':<8}"
          f"{'support':<9}{'bound':<7}{'ok'}")
    failures = 0
    t0 = time.time()
    for ln in lines:
        row = _sweep_row(certifier, ln)
        ok = row["bound_ok"] == "true"
        failures += not ok
        bound = "" if row["n"] == "" else support_bound(row["n"])
        print(f"{ln:<20}{row['n']:<4}{row['essentially4ec']:<6}{row['opt']:<5}"
              f"{row['lp']:<5}{row['gap']:<8}{row['cert_min_support']:<9}"
              f"{bound:<7}{'yes' if ok else 'NO'}")
        if row["error"]:
            print(f"{ln}: {row['error']}", file=sys.stderr)
    print(f"\n{len(lines)} graphs in {time.time() - t0:.1f}s; "
          f"{failures} invariant failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
