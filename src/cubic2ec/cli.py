"""Batch command-line surface.

Subcommands: certify, verify, opt, lp, gap, sweep, lemma3.  Exit codes:
0 ok, 1 verification failure, 2 bad input, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import sys
import traceback
from fractions import Fraction
from pathlib import Path

from . import combine, connectivity, oracle
from .certificate import (
    certificate_from_json,
    certificate_to_json,
    min_support_subgraph,
    support_bound,
    verify_certificate,
)
from .combine import Certifier
from .errors import GraphFormatError, InvariantViolation
from .graphs import BUILTIN_NAMES, Graph, builtin, parse_edge_list, parse_graph6

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3

log = logging.getLogger("cubic2ec")


def _add_source_flags(p: argparse.ArgumentParser, g6_only: bool = False):
    group = p.add_mutually_exclusive_group(required=True)
    if not g6_only:
        group.add_argument(
            "--graph", choices=BUILTIN_NAMES, help="builtin graph name"
        )
        group.add_argument("--edges", help="edge-list file ('n m' header)")
    group.add_argument("--g6", help="graph6 file")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cubic2ec",
        description=(
            "Exact uniform-7/9 convex-combination certificates and 2EC "
            "oracles for cubic 3-edge-connected graphs."
        ),
    )
    p.add_argument("-v", "--verbose", action="count", default=0)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("certify", help="build a certificate")
    _add_source_flags(sp)
    sp.add_argument("-o", "--output", help="write certificate JSON here")
    sp.add_argument("--max-n", type=int, default=combine.DEFAULT_MAX_N)

    sp = sub.add_parser("verify", help="re-check a certificate file")
    _add_source_flags(sp)
    sp.add_argument("--cert", required=True, help="certificate JSON path")

    for name in ("opt", "lp", "gap"):
        sp = sub.add_parser(name, help=f"exact {name} value")
        _add_source_flags(sp)

    sp = sub.add_parser("sweep", help="run the full pipeline over a corpus")
    _add_source_flags(sp, g6_only=True)
    sp.add_argument("-o", "--output", help="write CSV here (default stdout)")
    sp.add_argument("--max-n", type=int, default=combine.DEFAULT_MAX_N)

    sp = sub.add_parser("lemma3", help="exhaustive safe-pair verification")
    _add_source_flags(sp)

    return p


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.graph:
        return builtin(args.graph)
    if args.g6:
        text = Path(args.g6).read_text()
        for line in text.splitlines():
            if line.strip():
                return parse_graph6(line)
        raise GraphFormatError(f"no graph6 line in {args.g6}")
    if not args.edges:
        raise InvariantViolation("no graph source was given")
    return parse_edge_list(Path(args.edges).read_text())


def cmd_certify(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    certifier = Certifier(max_n=args.max_n)
    cert = certifier.certify(g)
    support = min_support_subgraph(cert)
    if args.output:
        Path(args.output).write_text(certificate_to_json(cert))
    print(
        f"n={g.n} entries={len(cert.combination.entries)} "
        f"min_support={len(support.edges)} bound={support_bound(g.n)}"
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    cert = certificate_from_json(Path(args.cert).read_text())
    report = verify_certificate(g, cert)
    doc = {
        "ok": report.ok,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def cmd_value(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    if args.command == "opt":
        value, _ = oracle.exact_opt(g)
        print(value)
    elif args.command == "lp":
        print(oracle.lp_bound(g).value)
    else:
        print(oracle.integrality_gap(g).gap)
    return EXIT_OK


def cmd_lemma3(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    report = connectivity.verify_lemma3(g)
    doc = {
        "configurations": report.configurations,
        "pivots": report.pivots,
        "violations": len(report.violations),
        "orientation_flips": report.orientation_flips,
        "divergences": len(report.divergences),
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


SWEEP_COLUMNS = (
    "graph6",
    "n",
    "essentially4ec",
    "lemma3_violations",
    "opt",
    "lp",
    "gap",
    "cert_min_support",
    "bound_ok",
    "error",
)


def _sweep_row(certifier: Certifier, line: str) -> dict:
    row = {col: "" for col in SWEEP_COLUMNS}
    row["graph6"] = line
    try:
        g = parse_graph6(line)
        row["n"] = g.n
        if not g.is_cubic:
            raise ValueError("graph is not cubic")
        if connectivity.edge_connectivity(g) < 3:
            raise ValueError("graph is not 3-edge-connected")
        e4 = connectivity.is_essentially_4ec(g)
        row["essentially4ec"] = str(e4).lower()
        if e4 and g.n > 6:
            row["lemma3_violations"] = len(connectivity.verify_lemma3(g).violations)
        opt, _ = oracle.exact_opt(g)
        lp = oracle.lp_bound(g).value
        row["opt"] = opt
        row["lp"] = str(lp)
        row["gap"] = str(Fraction(opt) / lp)
        cert = certifier.certify(g)
        support = len(min_support_subgraph(cert).edges)
        row["cert_min_support"] = support
        ok = (
            lp <= opt <= support <= support_bound(g.n)
            and verify_certificate(g, cert).ok
            and row["lemma3_violations"] in ("", 0)
        )
        row["bound_ok"] = str(ok).lower()
    except ValueError as exc:  # GraphFormatError is a ValueError
        row["error"] = str(exc)
    return row


def cmd_sweep(args: argparse.Namespace) -> int:
    lines = [
        ln.strip()
        for ln in Path(args.g6).read_text().splitlines()
        if ln.strip()
    ]
    certifier = Certifier(max_n=args.max_n)
    rows = [_sweep_row(certifier, ln) for ln in lines]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    text = buf.getvalue()
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    violated = any(r["bound_ok"] == "false" for r in rows) or any(
        r["lemma3_violations"] not in ("", 0) for r in rows
    )
    return EXIT_VERIFY_FAILED if violated else EXIT_OK


_COMMANDS = {
    "certify": cmd_certify,
    "verify": cmd_verify,
    "opt": cmd_value,
    "lp": cmd_value,
    "gap": cmd_value,
    "sweep": cmd_sweep,
    "lemma3": cmd_lemma3,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(name)s: %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # GraphFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except RuntimeError as exc:  # InvariantViolation included
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
