"""The tooling under ``scripts/``: the cubic-graph enumeration the corpus
relies on, that the corpus script imports without regenerating, the
bounds report over the committed corpus, the member-check timing
harness, and the LP engine timing harness."""

import importlib.util
import json
import sys
from pathlib import Path

from test_oracle import TWO_K4_MINUS_EDGE

from cubic2ec import Certifier, builtin, connectivity, edge_connectivity, to_graph6

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_enumeration_counts_connected_cubic_graphs(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    enumeration = load("enumeration")
    # OEIS A002851: connected cubic graphs on 4, 6 and 8 vertices
    graphs = {n: enumeration.connected_cubic_graphs(n) for n in (4, 6, 8)}
    assert {n: len(gs) for n, gs in graphs.items()} == {4: 1, 6: 2, 8: 5}
    # the corpus keeps the 3-edge-connected ones: 1, 2 and 4
    assert [
        sum(edge_connectivity(g) >= 3 for g in gs) for gs in graphs.values()
    ] == [1, 2, 4]
    assert enumeration.connected_cubic_graphs(5) == []

    # make_corpus puts scripts/ on sys.path and imports the same file
    monkeypatch.delitem(sys.modules, "enumeration", raising=False)
    out = SCRIPTS.parent / "data" / "cubic_3ec_n4_14.g6"
    before = out.read_bytes()
    corpus = load("make_corpus")
    assert corpus.connected_cubic_graphs.__module__ == "enumeration"
    assert sys.modules["enumeration"].__file__ == str(SCRIPTS / "enumeration.py")
    assert callable(corpus.main)
    assert out.read_bytes() == before  # main did not run


def test_reproduce_bounds_reports_every_corpus_graph(monkeypatch, capsys, corpus_lines):
    monkeypatch.setattr(sys, "path", list(sys.path))
    report = load("reproduce_bounds")
    assert report.main() == 0
    lines = capsys.readouterr().out.splitlines()
    header, *rows, blank, summary = lines
    assert header.split() == [
        "graph6", "n", "e4ec", "opt", "lp", "gap", "support", "bound", "ok"
    ]
    assert [row.split()[0] for row in rows] == corpus_lines
    assert all(row.split()[-1] == "yes" for row in rows)
    assert blank == ""
    assert summary.startswith(f"{len(corpus_lines)} graphs in ")
    assert summary.endswith("; 0 invariant failures")


def test_reproduce_bounds_counts_a_rejected_graph_as_a_failure(
    monkeypatch, capsys, tmp_path
):
    monkeypatch.setattr(sys, "path", list(sys.path))
    report = load("reproduce_bounds")
    line = to_graph6(TWO_K4_MINUS_EDGE)  # cubic, λ = 2
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(line + "\n")
    monkeypatch.setattr(report, "CORPUS", corpus)
    assert report.main() == 1
    out, err = capsys.readouterr()
    header, row, blank, summary = out.splitlines()
    assert row.split() == [line, "8", "9", "NO"]  # n, bound, ok
    assert summary.endswith("; 1 invariant failures")
    assert err == f"{line}: graph is not 3-edge-connected\n"


def test_bench_member_checks_writes_a_report(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    bench = load("bench_member_checks")
    honest = connectivity.first_non_2ec
    graphs = tmp_path / "graphs.g6"
    graphs.write_text(f"{to_graph6(builtin('petersen'))}\n{to_graph6(builtin('k4'))}\n")
    out = tmp_path / "bench.json"
    assert bench.main(["--input", str(graphs), "--repeat", "1", "--out", str(out)]) == 0
    assert connectivity.first_non_2ec is honest
    report = json.loads(out.read_text())
    assert json.loads(capsys.readouterr().out) == report
    assert report["input"] == "graphs.g6"
    assert report["graphs"] == 2
    assert report["node_checks"] >= 2
    assert report["members"] >= report["largest_node"] > 1
    assert report["non_2ec_found"] == 0
    assert report["is_2ec_loop_s"] >= 0 and report["first_non_2ec_s"] >= 0


def test_bench_canon_writes_a_report(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    bench = load("bench_canon")
    honest = Certifier._canonical_form
    graphs = tmp_path / "graphs.g6"
    graphs.write_text(f"{to_graph6(builtin('k4'))}\n{to_graph6(builtin('petersen'))}\n")
    out = tmp_path / "bench.json"
    assert bench.main(["--input", str(graphs), "--repeat", "1", "--out", str(out)]) == 0
    assert Certifier._canonical_form is honest
    report = json.loads(out.read_text())
    assert json.loads(capsys.readouterr().out) == report
    [row] = report["inputs"]
    assert row["input"] == "graphs.g6"
    assert row["graphs"] == 2
    assert row["lookups"] > row["classes"] >= 2
    assert 0 < row["hits"] == row["lookups"] - row["classes"]
    assert row["full_leaves"] > row["lookup_leaves"] >= row["lookups"]
    assert row["full_s"] >= 0 and row["lookup_s"] >= 0


def test_bench_lp_engine_writes_a_report(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    bench = load("bench_lp_engine")
    graphs = tmp_path / "graphs.g6"
    graphs.write_text(f"{to_graph6(builtin('k4'))}\n{to_graph6(builtin('petersen'))}\n")
    out = tmp_path / "bench.json"
    assert bench.main(["--input", str(graphs), "--repeat", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert json.loads(capsys.readouterr().out) == report
    assert report["input"] == "graphs.g6"
    assert report["reference_max_n"] == 10
    assert [(r["n"], r["columns"]) for r in report["phase1"]] == [(4, 10), (10, 296)]
    assert [r["graph"] for r in report["cut_lp"]] == [
        "C5", "K5", "K6", "two_K4_minus_edge"
    ]
    assert report["phase1_totals"]["systems_both_ran"] == 2
    assert report["cut_lp_totals"]["systems_both_ran"] == 4
    for row in report["phase1"] + report["cut_lp"]:
        assert row["engine_s"] >= 0 and row["reference_s"] >= 0
