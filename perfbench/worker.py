"""Runs one workload of the benchmark in a process of its own.

Reads a JSON job from stdin (written by ``run.py``), runs the workload's
per-graph pipeline over the given graph6 lines, checks every output, and
writes raw measurements as one JSON object to stdout.  It imports cubic2ec
and the standard library only, so its peak resident memory is the
program's, not the input generator's.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from cubic2ec import canon, combine, connectivity, graphs, oracle
from cubic2ec.combine import Certifier, certificate_to_json, support_bound

from speed import SpeedMeter
from tracing import ENTRIES_OUT, Tracer

# Every functools cache in the package, collected before any tracing
# wrapper replaces a module attribute.  Clearing them all, together with a
# fresh Certifier, is what makes a cold sample start from no earlier state.
_LRU_CACHES = {
    id(obj): obj
    for key, mod in sys.modules.items()
    if key.startswith("cubic2ec")
    for obj in vars(mod).values()
    if callable(getattr(obj, "cache_clear", None))
}.values()
_CANONICAL_FORM = canon.canonical_form


class Violation(Exception):
    """An output of the program failed one of the benchmark's checks."""


def check(cond: bool, what: str):
    if not cond:
        raise Violation(what)


def certify_and_verify(certifier: Certifier, g, rec: dict):
    """Certify and verify ``g``, check the result and record it in ``rec``.

    Returns the certificate and the size of its smallest member.
    """
    t = perf_counter()
    cert = certifier.certify(g)
    rec["certify_s"] = perf_counter() - t
    t = perf_counter()
    report = combine.verify_certificate(g, cert)
    rec["verify_s"] = [perf_counter() - t]
    support = len(combine.min_support_subgraph(cert).edges)
    rec.update(entries=len(cert.combination.entries), support=support, bound=support_bound(g.n))
    check(report.ok, "verify_certificate failed")
    check(support <= support_bound(g.n), "smallest member exceeds floor(7n/6)")
    return cert, support


def sweep_row(certifier: Certifier, line: str, expect: dict, rec: dict):
    """The per-row call sequence of ``cubic2ec sweep``, with its checks."""
    g = graphs.parse_graph6(line)
    check(g.is_cubic, "input is not cubic")
    ec = connectivity.edge_connectivity(g)
    check(ec == expect["ec"], f"edge connectivity {ec}, independent check {expect['ec']}")
    e4 = connectivity.is_essentially_4ec(g)
    check(e4 == expect["e4"], f"essentially 4EC {e4}, independent check {expect['e4']}")
    if e4 and g.n > 6:
        check(connectivity.verify_lemma3(g).ok, "verify_lemma3 reports violations or divergences")
    opt, _ = oracle.exact_opt(g)
    lp = oracle.lp_bound(g).value
    # closed form on this class: x = 2/3 per edge, y = 1/2 per vertex
    check(lp == g.n, f"cut LP {lp} != n = {g.n}")
    cert, support = certify_and_verify(certifier, g, rec)
    check(lp <= opt <= support, "lp <= opt <= smallest member fails")
    return cert


def certify_row(certifier: Certifier, line: str, expect: dict, rec: dict):
    """Certify, verify and extract the smallest member of one graph."""
    cert, support = certify_and_verify(certifier, graphs.parse_graph6(line), rec)
    if "root" in expect:
        root = cert.trace[0]["kind"]
        check(root == expect["root"], f"root node is {root}, expected {expect['root']}")
    if "support" in expect:
        check(support == expect["support"], "cache hit changed the smallest member")
    return cert


class Workload:
    """Inputs and state of one run; a pass runs the pipeline on every item.

    The base class certifies fixed items with one Certifier per pass.
    """

    row = staticmethod(certify_row)
    # extra verify_certificate calls per certificate, timed outside the
    # pipeline, where a run holds too few certificates for a steady median
    verify_repeats = 0

    def __init__(self, job: dict):
        self.job = job
        self.certifier: Certifier | None = None
        self.serial = 0  # tells apart the Certifiers a pass creates
        # samples the machine's speed between items, outside their timings
        self.meter: SpeedMeter | None = None
        # canonical_form hits and misses dropped by earlier cache clears
        self._canon_cleared = (0, 0)

    def reset(self, max_n: int = combine.DEFAULT_MAX_N):
        """Start from no state: empty functools caches and a fresh Certifier."""
        self._canon_cleared = self.canon_counts()
        for fn in _LRU_CACHES:
            fn.cache_clear()
        self.certifier = Certifier(max_n=max_n)
        self.serial += 1

    def canon_counts(self) -> tuple[int, int]:
        """canonical_form (hits, misses) since the worker started."""
        info = _CANONICAL_FORM.cache_info()
        return self._canon_cleared[0] + info.hits, self._canon_cleared[1] + info.misses

    def setup(self) -> float:
        """Seconds of set-up done in this process before measuring."""
        return 0.0

    def passes_available(self) -> int:
        return 1 << 30

    def items(self, p: int) -> list:
        return self.job["items"]

    def before_pass(self):
        self.reset(self.job["max_n"])

    def before_item(self):
        pass

    def run_pass(self, p: int) -> dict:
        digest = hashlib.sha256()
        records = []
        failures = []
        nodes: dict[tuple[int, str], dict] = {}
        t_pass = perf_counter()
        self.before_pass()
        for line, expect in self.items(p):
            self.before_item()
            rec: dict = {}
            t = rec["start"] = perf_counter()
            try:
                cert = self.row(self.certifier, line, expect, rec)
            except Exception as exc:  # counted into the fail ratio, not fatal
                failures.append(f"{line}: {type(exc).__name__}: {exc}")
                cert = None
            rec["pipeline_s"] = perf_counter() - t
            records.append(rec)
            if cert is None:
                continue
            for _ in range(self.verify_repeats):
                g = graphs.parse_graph6(line)
                t = perf_counter()
                ok = combine.verify_certificate(g, cert).ok
                rec["verify_s"].append(perf_counter() - t)
                if not ok:
                    failures.append(f"{line}: a repeated verify_certificate failed")
            rec["end"] = perf_counter()
            digest.update(certificate_to_json(cert).encode())
            for node in cert.trace:
                nodes[self.serial, node["graph6"]] = node
            if self.meter:
                self.meter.pace()
        counts = {"base": 0, "case1": 0, "case2": 0, "pivots": 0}
        for node in nodes.values():
            counts[node["kind"]] += 1
            counts["pivots"] += len(node.get("pivots", ()))
        return {
            "records": records,
            "failures": failures,
            "digest": digest.hexdigest(),
            "wall_s": perf_counter() - t_pass,
            "nodes": counts,
        }


class Sweep(Workload):
    row = staticmethod(sweep_row)


class Cold(Workload):
    """A fresh Certifier and empty caches for every graph."""

    verify_repeats = 4

    def before_pass(self):
        pass

    def before_item(self):
        self.reset(self.job["max_n"])


class Warm(Workload):
    """Requests against a Certifier filled with the corpus in set-up."""

    def setup(self) -> float:
        self.certifier = None
        t = perf_counter()
        self.reset()
        self.fill_support = [
            len(combine.min_support_subgraph(self.certifier.certify(graphs.parse_graph6(ln))).edges)
            for ln in self.job["corpus"]
        ]
        return perf_counter() - t

    def passes_available(self) -> int:
        return len(self.job["requests"])

    def items(self, p: int) -> list:
        return [(line, {"support": self.fill_support[k]}) for line, k in self.job["requests"][p]]

    def before_pass(self):
        pass


WORKLOADS = {
    "sweep_corpus": Sweep,
    "cold_e4_n16": Cold,
    "cold_cut3_n18": Cold,
    "warm_relabel": Warm,
}


def run(job: dict) -> dict:
    work = WORKLOADS[job["workload"]](job)
    out: dict = {}
    if not job["trace"]:
        work.meter = meter = SpeedMeter()
        fills = []
        for _ in range(job["setup_repeats"]):
            t = perf_counter()
            fills.append((work.setup(), t, perf_counter()))
            meter.pace()
        passes = []
        t0 = perf_counter()
        while len(passes) < work.passes_available() and (
            len(passes) < job["min_passes"] or perf_counter() - t0 < job["seconds"]
        ):
            passes.append(work.run_pass(len(passes)))
        out["passes"] = passes
        # every time scaled to nominal speed by the samples around it
        out["fill_s"] = [fill * meter.scale(start, end) for fill, start, end in fills]
        for rec in (r for p in passes for r in p["records"]):
            end = rec.get("end", rec["start"] + rec["pipeline_s"])
            rec["scale"] = meter.scale(rec["start"], end)
        out["reference_s"] = meter.durations
    else:
        work.setup()
        plain = work.run_pass(0)
        work.setup()
        hits0, misses0 = work.canon_counts()
        tracer = Tracer()
        tracer.install()
        try:
            traced = work.run_pass(0)
        finally:
            tracer.uninstall()
        hits, misses = work.canon_counts()
        hits, misses = hits - hits0, misses - misses0
        out["passes"] = [plain, traced]
        out["layers"] = {
            name: {"calls": calls, "self_s": self_s}
            for name, (calls, self_s) in tracer.summary().items()
        }
        out["entries_out"] = {name: tracer.entries_out[name] for name in ENTRIES_OUT}
        out["canon_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        spans = Path(job["span_file"])
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans)
        out["span_count"] = len(tracer.start)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


if __name__ == "__main__":
    json.dump(run(json.load(sys.stdin)), sys.stdout)
    sys.stdout.write("\n")
