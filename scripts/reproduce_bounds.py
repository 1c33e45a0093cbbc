#!/usr/bin/env python3
"""Run the full pipeline over the committed corpus and print the results.

For every graph: exact minimum 2EC, exact cut-LP value, their ratio, the
certificate's smallest member, and the floor(7n/6) bound.  Each
certificate is checked by ``verify_certificate``.  Exits nonzero if any
invariant fails.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cubic2ec import (
    Certifier,
    exact_opt,
    is_essentially_4ec,
    lp_bound,
    min_support_subgraph,
    parse_graph6,
    support_bound,
    verify_certificate,
    verify_lemma3,
)

CORPUS = Path(__file__).resolve().parent.parent / "data" / "cubic_3ec_n4_14.g6"


def main() -> int:
    lines = [ln for ln in CORPUS.read_text().splitlines() if ln.strip()]
    certifier = Certifier()
    print(f"{'graph6':<20}{'n':<4}{'e4ec':<6}{'opt':<5}{'lp':<5}{'gap':<8}"
          f"{'support':<9}{'bound':<7}{'ok'}")
    failures = 0
    t0 = time.time()
    for ln in lines:
        g = parse_graph6(ln)
        e4 = is_essentially_4ec(g)
        opt, _ = exact_opt(g)
        lp = lp_bound(g).value
        gap = Fraction(opt) / lp
        cert = certifier.certify(g)
        support = len(min_support_subgraph(cert).edges)
        bound = support_bound(g.n)
        ok = verify_certificate(g, cert).ok and lp <= opt <= support <= bound
        if e4 and g.n > 6:
            ok = ok and not verify_lemma3(g).violations
        failures += not ok
        print(f"{ln:<20}{g.n:<4}{str(e4).lower():<6}{opt:<5}{str(lp):<5}"
              f"{str(gap):<8}{support:<9}{bound:<7}{'yes' if ok else 'NO'}")
    print(f"\n{len(lines)} graphs in {time.time() - t0:.1f}s; "
          f"{failures} invariant failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
