"""The tooling under ``scripts/``: the corpus script, which imports
without running and regenerates the committed corpus byte for byte, its
edge-insertion generator, the bounds report over the committed
corpus, and the member-check, canonical-form, child-pull, LP engine, cut
index and oracle timing harnesses."""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest
from support import maxflow_edge_connectivity, reference_small_cubic_graphs
from test_oracle import TWO_K4_MINUS_EDGE

from cubic2ec import (
    Certifier,
    builtin,
    canon,
    canonical_form,
    combine,
    connectivity,
    edge_connectivity,
    oracle,
    parse_graph6,
    to_graph6,
)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_edge_insertion_levels_match_independent_methods(monkeypatch, corpus):
    monkeypatch.setattr(sys, "path", list(sys.path))
    make_corpus = load("make_corpus")
    levels = dict(make_corpus.edge_insertion_levels(12))
    assert list(levels) == [4, 6, 8, 10, 12]
    for keys in levels.values():
        assert keys == sorted(set(keys))
    # the committed n <= 10 lines came from a backtracking enumeration of
    # every connected cubic graph, filtered to λ >= 3
    assert [key for n in (4, 6, 8, 10) for key in levels[n]] == [
        to_graph6(g) for g in corpus if g.n <= 10
    ]
    for n in (4, 6):
        assert levels[n] == sorted(
            canonical_form(g)[0]
            for g in reference_small_cubic_graphs(n)
            if edge_connectivity(g) >= 3
        )
    # nothing offline confirms the n = 12 count (57 when measured), so
    # only the named corpus graphs are checked
    named = [to_graph6(g) for g in corpus if g.n == 12]
    assert len(named) == 5 and set(named) <= set(levels[12])
    # the generator checks λ >= 3 once per kept graph; max-flow agrees
    for keys in levels.values():
        assert all(maxflow_edge_connectivity(parse_graph6(k)) >= 3 for k in keys)


def test_edge_insertion_levels_raise_on_a_kept_graph_below_lambda_3(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    make_corpus = load("make_corpus")
    monkeypatch.setattr(make_corpus, "edge_connectivity", lambda g: 2)
    with pytest.raises(ValueError, match="which has λ < 3"):
        dict(make_corpus.edge_insertion_levels(6))


def test_make_corpus_regenerates_the_committed_corpus(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    make_corpus = load("make_corpus")
    assert capsys.readouterr().out == ""  # importing did not run main
    committed = make_corpus.OUT.read_bytes()
    out = tmp_path / "corpus.g6"
    monkeypatch.setattr(make_corpus, "OUT", out)
    make_corpus.main()
    assert out.read_bytes() == committed
    printed = capsys.readouterr().out
    assert "n=10: 14 three-edge-connected" in printed
    assert f"wrote 31 graphs to {out}" in printed


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
    assert row["full_leaves"] > row["stopped_leaves"] >= row["index_leaves"] >= row["lookups"]
    assert row["full_s"] >= 0 and row["stopped_s"] >= 0 and row["index_s"] >= 0
    assert row["carried"] == row["replaced_lookup_leaves"] > 0  # a hit visits one leaf
    assert row["carried_s"] >= 0 and row["replaced_lookup_s"] >= 0


def test_bench_canon_raises_when_a_carried_placement_differs(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    bench = load("bench_canon")
    honest = canon.canonical_placement

    def carried_unmoved(g, tree, order):
        """The carried least leaf itself: a least leaf, but not always the
        first."""
        key, _ = honest(g, tree, order)
        return key, tuple(map(order.index, range(g.n)))

    monkeypatch.setattr(canon, "canonical_placement", carried_unmoved)
    graphs = tmp_path / "graphs.g6"
    graphs.write_text(f"{to_graph6(bench.generalized_petersen(8, 3))}\n")
    with pytest.raises(RuntimeError, match="a carried placement differs from the full search"):
        bench.main(["--input", str(graphs), "--repeat", "1", "--out", str(tmp_path / "b.json")])


def test_bench_canon_raises_when_a_lookup_differs(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    bench = load("bench_canon")

    def first_hit(tree, enc, order):
        """psi^-1 of the searched graph's first least leaf: a least leaf,
        but not always the first."""
        back = dict(zip(tree.seen[enc][0], order))
        return tuple(back[v] for v in tree.seen[tree.enc][0])

    monkeypatch.setattr(canon, "_place", first_hit)
    graphs = tmp_path / "graphs.g6"
    graphs.write_text(f"{to_graph6(bench.generalized_petersen(8, 3))}\n")
    with pytest.raises(RuntimeError, match="a lookup differs from the full search"):
        bench.main(["--input", str(graphs), "--repeat", "1", "--out", str(tmp_path / "b.json")])


def test_bench_lift_writes_a_report(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    bench = load("bench_lift")
    honest = combine._pull_members, combine._map_members
    graphs = tmp_path / "graphs.g6"
    graphs.write_text(f"{to_graph6(builtin('k4'))}\n{to_graph6(builtin('petersen'))}\n")
    out = tmp_path / "bench.json"
    assert bench.main(["--input", str(graphs), "--repeat", "1", "--out", str(out)]) == 0
    assert (combine._pull_members, combine._map_members) == honest
    report = json.loads(out.read_text())
    assert json.loads(capsys.readouterr().out) == report
    [row] = report["inputs"]
    assert row["input"] == "graphs.g6"
    assert row["graphs"] == 2
    assert row["children"] == row["case1_children"] + row["case2_children"]
    assert row["case1_children"] > 0 and row["case2_children"] > 0
    assert row["entries_mapped"] >= row["children"]
    assert row["one_pass_map_members_calls"] == row["children"]
    assert row["two_step_map_members_calls"] == 2 * row["children"]
    assert row["two_step_s"] >= 0 and row["one_pass_s"] >= 0
    assert row["case1_nodes"] == 1  # the Petersen graph; K4 is a base case
    assert row["pivots"] == 15
    assert row["replaced_pivot_loop_s"] >= 0 and row["pivot_loop_s"] >= 0


def test_bench_lift_raises_when_a_pivot_loop_differs(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    bench = load("bench_lift")
    honest = combine.Certifier._case1

    def reordered(self, K, key, tree):
        final, record = honest(self, K, key, tree)
        record["pivots"] = record["pivots"][::-1]
        return final, record

    monkeypatch.setattr(combine.Certifier, "_case1", reordered)
    graphs = tmp_path / "graphs.g6"
    graphs.write_text(f"{to_graph6(builtin('petersen'))}\n")
    with pytest.raises(RuntimeError, match="a case-1 pivot loop differs"):
        bench.main(["--input", str(graphs), "--repeat", "1", "--out", str(tmp_path / "b.json")])


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


def test_bench_cuts_writes_a_report(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    bench = load("bench_cuts")
    out = tmp_path / "bench.json"
    assert bench.main(["--graphs", "1", "--repeat", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert json.loads(capsys.readouterr().out) == report
    rows = report["sizes"]
    assert [r["n"] for r in rows] == [8, 10, 12, 14, 16, 18, 20, 24, 30, 60]
    for row in rows:
        assert row["graphs"] == 1
        assert row["cuts"] >= row["n"]  # each vertex's own 3-cut
        assert row["index_s"] >= 0
        assert (row["walk_s"] is None) == (row["n"] > 20)


def test_bench_cuts_raises_when_the_index_and_the_walk_disagree(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    bench = load("bench_cuts")
    honest = connectivity._index_cuts
    monkeypatch.setattr(connectivity, "_index_cuts", lambda g: honest(g)[1:])
    with pytest.raises(RuntimeError, match="n=8: the index and the shore walk"):
        bench.main(["--graphs", "1", "--repeat", "1", "--out", str(tmp_path / "b.json")])


def test_bench_oracles_writes_a_report(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    bench = load("bench_oracles")
    honest = connectivity.is_2ec
    graphs = tmp_path / "graphs.g6"
    graphs.write_text(f"{to_graph6(builtin('k4'))}\n{to_graph6(builtin('petersen'))}\n")
    out = tmp_path / "bench.json"
    assert bench.main(["--input", str(graphs), "--repeat", "1", "--out", str(out)]) == 0
    assert connectivity.is_2ec is honest
    report = json.loads(out.read_text())
    assert json.loads(capsys.readouterr().out) == report
    [row] = report["inputs"]
    assert row["input"] == "graphs.g6"
    assert row["graphs"] == 2
    assert row["lemma3_graphs"] == 1  # the Petersen graph; K4 has n <= 6
    assert 0 < row["exact_opt_is_2ec_calls"] < row["replaced_exact_opt_is_2ec_calls"]
    for key in ("exact_opt_s", "verify_lemma3_s"):
        assert row[key] >= 0 and row[f"replaced_{key}"] >= 0


@pytest.mark.parametrize(
    "module, name, message",
    [
        (oracle, "exact_opt", "exact_opt differs from the replaced search"),
        (connectivity, "verify_lemma3", "verify_lemma3 differs from the replaced body"),
    ],
)
def test_bench_oracles_raises_when_an_oracle_differs(
    monkeypatch, tmp_path, module, name, message
):
    monkeypatch.setattr(sys, "path", list(sys.path))
    bench = load("bench_oracles")
    honest = getattr(module, name)

    def shifted(g):
        answer = honest(g)
        if name == "exact_opt":
            return answer[0] + 1, answer[1]
        return dataclasses.replace(answer, orientation_flips=answer.orientation_flips + 1)

    monkeypatch.setattr(module, name, shifted)
    graphs = tmp_path / "graphs.g6"
    graphs.write_text(f"{to_graph6(builtin('petersen'))}\n")
    with pytest.raises(RuntimeError, match=message):
        bench.main(["--input", str(graphs), "--repeat", "1", "--out", str(tmp_path / "b.json")])
