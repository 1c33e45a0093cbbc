"""Certificates, their verifier and their JSON form.

A certificate holds a graph, a ConvexCombination (Fraction weights, sorted
edge-id tuples) that puts exactly 7/9 (``TARGET``) on every edge, and the
trace of its construction.  ``verify_certificate`` re-checks one from
scratch and trusts nothing in it.  This module imports only the graph
layer, so the verifier and the oracles never depend on the certifier.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import connectivity
from .graphs import Graph

TARGET = Fraction(7, 9)


def support_bound(n: int) -> int:
    """The subgraph-size bound floor(7n/6)."""
    return (7 * n) // 6


@dataclass(frozen=True)
class Subgraph:
    """An edge subset of a host graph, read as a spanning subgraph."""

    host: Graph
    edges: tuple[int, ...]


@dataclass(frozen=True)
class ConvexCombination:
    """Weighted 2EC spanning subgraphs with exact weights summing to 1.

    Entries are deduplicated by edge set and kept in ascending edge-tuple
    order, so equal combinations compare equal.
    """

    host: Graph
    entries: tuple[tuple[Fraction, tuple[int, ...]], ...]


@dataclass(frozen=True)
class Certificate:
    """A graph with a uniform-7/9 combination and a replayable trace."""

    graph: Graph
    combination: ConvexCombination
    target: Fraction
    trace: tuple
    declared_min_support: int | None = None


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def _bits(edge_ids, m: int) -> int:
    """The mask of edge ids on an m-edge host."""
    x = 0
    for e in edge_ids:
        x |= 1 << (m - 1 - e)
    return x


def _numerators(weights) -> tuple[list[int], int]:
    """Rational weights as integer numerators over their common denominator.

    Returns ``(nums, den)`` with ``weights[i] == nums[i] / den``, where
    ``den`` is the lcm of the denominators, so sums of weights become sums
    of ints.
    """
    den = math.lcm(*(w.denominator for w in weights))
    return [w.numerator * (den // w.denominator) for w in weights], den


def _occurrences(m: int, entries) -> tuple[Fraction, ...]:
    """Per-edge weight sums of (weight, edge ids) entries over m edges."""
    nums, den = _numerators([w for w, _ in entries])
    occ = [0] * m
    for num, (_, es) in zip(nums, entries):
        for e in es:
            occ[e] += num
    return tuple(Fraction(x, den) for x in occ)


def _smallest(comb: ConvexCombination) -> tuple[int, ...]:
    """The least member by (|S|, edges): the one every compaction keeps
    and every certificate reports."""
    return min((es for _, es in comb.entries), key=lambda es: (len(es), es))


def min_support_subgraph(cert: Certificate) -> Subgraph:
    """The smallest member (ties: lexicographically least edge set)."""
    return Subgraph(cert.graph, _smallest(cert.combination))


def _exact(w) -> Fraction | None:
    """w as an exact Fraction, or None if it is a bool (True is not 1) or
    Fraction() cannot read it."""
    if type(w) is Fraction:
        return w
    try:
        return None if type(w) is bool else Fraction(w)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        return None


def _read_entry(entry) -> tuple[Fraction | None, tuple | None]:
    """An entry as (exact weight, tuple of edge ids), with None for a part
    that cannot be read: both parts of an entry that is not a (weight,
    edges) pair, and the edges of one whose edges are not iterable."""
    try:
        w, es = entry
    except (TypeError, ValueError):
        return None, None
    try:
        es = tuple(es)
    except TypeError:
        es = None
    return _exact(w), es


def verify_certificate(g: Graph, cert: Certificate) -> VerificationReport:
    """Re-check everything from scratch; trusts nothing in the certificate."""
    checks: list[CheckResult] = []

    def add(name, passed, detail=""):
        checks.append(CheckResult(name, bool(passed), detail))

    add(
        "graph_match",
        cert.graph.n == g.n and cert.graph.edges == g.edges,
        "certificate edge list matches the graph",
    )
    # exact rationals from here on, whatever numeric type the entries carry;
    # a part that cannot be read becomes None: a weight fails both weight
    # checks, edges fail entries_well_formed
    entries = tuple(_read_entry(entry) for entry in cert.combination.entries)
    readable = all(w is not None for w, _ in entries)
    add("has_entries", len(entries) > 0, f"{len(entries)} entries")
    add("weights_positive", readable and all(w > 0 for w, _ in entries), "")
    if readable:
        nums, den = _numerators([w for w, _ in entries])
        total = Fraction(sum(nums), den)
        add("weights_sum_to_one", total == 1, f"sum = {total}")
    else:
        add("weights_sum_to_one", False, "a weight is not a number")
    add("target_is_7_9", cert.target == TARGET, f"target = {cert.target}")
    # bool is not an edge id, as in certificate_from_json
    m = g.m
    valid_ids = all(
        es is not None
        and all(type(e) is int and 0 <= e < m for e in es)
        and tuple(sorted(set(es))) == es
        for _, es in entries
    )
    add("entries_well_formed", valid_ids, "sorted unique edge ids in range")
    twoec = (
        valid_ids
        and connectivity.first_non_2ec(g, [_bits(es, m) for _, es in entries]) is None
    )
    add("members_spanning_2ec", twoec, "")
    if valid_ids:
        if readable:
            occ = _occurrences(g.m, entries)
            uniform = all(v == cert.target for v in occ)
            bad = [e for e, v in enumerate(occ) if v != cert.target][:3]
            add(
                "occurrences_uniform",
                uniform,
                "every edge at target" if uniform else f"deviating edges {bad}",
            )
        size = min(len(es) for _, es in entries) if entries else 0
        bound = support_bound(g.n)
        add("support_bound", size <= bound, f"min support {size} <= {bound}")
        if cert.declared_min_support is not None:
            add(
                "declared_min_support",
                cert.declared_min_support == size,
                f"declared {cert.declared_min_support}, actual {size}",
            )
    return VerificationReport(tuple(checks))


# ---------------------------------------------------------------------------
# certificate JSON
# ---------------------------------------------------------------------------


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_frac(s: str) -> Fraction:
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def certificate_to_json(cert: Certificate) -> str:
    doc = {
        "n": cert.graph.n,
        "edges": [[u, v] for u, v in cert.graph.edges],
        "target": _frac_str(cert.target),
        "entries": [
            {"weight": _frac_str(w), "edges": list(es)}
            for w, es in cert.combination.entries
        ],
        "trace": list(cert.trace),
        "min_support_size": len(min_support_subgraph(cert).edges),
    }
    return json.dumps(doc, indent=2) + "\n"


def _field(name: str, parse, value):
    """``parse(value)``, with a malformed value reported as a ValueError
    that names the certificate field."""
    try:
        return parse(value)
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as e:
        raise ValueError(f"certificate field {name!r} is malformed ({e!r})") from None


def _integer(value) -> int:
    """A JSON integer as it is: no float, string or bool is coerced."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def _array(value) -> list:
    """A JSON array as it is: no string or object is read as its items."""
    if type(value) is not list:
        raise TypeError(f"{value!r} is not an array")
    return value


def _edge_pairs(edges) -> tuple[tuple[int, int], ...]:
    return tuple((_integer(u), _integer(v)) for u, v in edges)


def certificate_from_json(text: str) -> Certificate:
    """Parse a certificate without validating it (the verifier does that).

    A document that does not have the certificate's shape raises a
    ValueError naming the bad field.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("certificate must be a JSON object")
    for name in ("n", "edges", "entries"):
        if name not in doc:
            raise ValueError(f"certificate has no {name!r} field")
    n = _field("n", _integer, doc["n"])
    graph = Graph(n, _field("edges", _edge_pairs, doc["edges"]))
    entries = tuple(
        (
            _field(f"entries[{i}].weight", lambda e: _parse_frac(e["weight"]), ent),
            _field(
                f"entries[{i}].edges", lambda e: tuple(map(_integer, e["edges"])), ent
            ),
        )
        for i, ent in enumerate(_field("entries", _array, doc["entries"]))
    )
    comb = ConvexCombination(graph, entries)
    return Certificate(
        graph=graph,
        combination=comb,
        target=_field("target", _parse_frac, doc.get("target", "7/9")),
        trace=tuple(_field("trace", _array, doc.get("trace", []))),
        declared_min_support=(
            _field("min_support_size", _integer, doc["min_support_size"])
            if "min_support_size" in doc
            else None
        ),
    )
