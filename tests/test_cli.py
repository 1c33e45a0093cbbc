import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_differential import generalized_petersen
from test_oracle import C5, TWO_K4_MINUS_EDGE, complete

from cubic2ec import to_graph6, builtin
from cubic2ec.cli import SWEEP_COLUMNS, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_certify_petersen_writes_certificate(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code, stdout, _ = run(capsys, "certify", "--graph", "petersen", "-o", str(out))
    assert code == 0
    assert stdout.strip() == f"n=10 entries=13 min_support=11 bound=11"
    doc = json.loads(out.read_text())
    assert doc["n"] == 10 and doc["min_support_size"] <= 11


def test_certify_prism_without_output(capsys):
    code, stdout, _ = run(capsys, "certify", "--graph", "prism")
    assert code == 0
    assert stdout.startswith("n=6 ")


def test_certify_non_cubic_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
    code, _, stderr = run(capsys, "certify", "--edges", str(bad))
    assert code == 2
    assert "cubic" in stderr


def test_verify_roundtrip_and_tamper(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "certify", "--graph", "petersen", "-o", str(cert))
    assert code == 0
    code, stdout, _ = run(capsys, "verify", "--graph", "petersen", "--cert", str(cert))
    assert code == 0
    assert json.loads(stdout)["ok"] is True

    doc = json.loads(cert.read_text())
    doc["entries"][0]["weight"] = "1/2"
    cert.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "verify", "--graph", "petersen", "--cert", str(cert))
    assert code == 1
    report = json.loads(stdout)
    assert report["ok"] is False
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "weights_sum_to_one" in failed


def drop_entries(doc):
    return {k: v for k, v in doc.items() if k != "entries"}


def null_first_weight(doc):
    first = {**doc["entries"][0], "weight": None}
    return {**doc, "entries": [first] + doc["entries"][1:]}


def shift_first_endpoint(doc):
    (u, v), *rest = doc["edges"]
    return {**doc, "edges": [[u + 0.5, v]] + rest}


def shift_first_entry_edge(doc):
    first = doc["entries"][0]
    e, *rest = first["edges"]
    first = {**first, "edges": [e + 0.7] + rest}
    return {**doc, "entries": [first] + doc["entries"][1:]}


# shape -> (mutation of a valid k4 certificate, text the error must name).
# The non-integer numbers truncate to the valid value, so coercing them
# instead of rejecting them would verify the certificate.
MALFORMED = {
    "no_entries": (drop_entries, "'entries'"),
    "edges_is_int": (lambda doc: {**doc, "edges": 5}, "'edges'"),
    "null_weight": (null_first_weight, "'entries[0].weight'"),
    "top_level_list": (lambda doc: [doc], "JSON object"),
    "n_is_fraction": (lambda doc: {**doc, "n": doc["n"] + 0.7}, "'n'"),
    "n_is_string": (lambda doc: {**doc, "n": str(doc["n"])}, "'n'"),
    "endpoint_is_fraction": (shift_first_endpoint, "'edges'"),
    "entry_edge_is_fraction": (shift_first_entry_edge, "'entries[0].edges'"),
    "min_support_is_word": (
        lambda doc: {**doc, "min_support_size": "eleven"},
        "'min_support_size'",
    ),
    "min_support_is_list": (
        lambda doc: {**doc, "min_support_size": [doc["min_support_size"]]},
        "'min_support_size'",
    ),
    "min_support_is_bool": (
        lambda doc: {**doc, "min_support_size": True},
        "'min_support_size'",
    ),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_verify_malformed_certificate_exits_2(tmp_path, capsys, shape):
    mutate, named = MALFORMED[shape]
    cert = tmp_path / "cert.json"
    assert run(capsys, "certify", "--graph", "k4", "-o", str(cert))[0] == 0
    cert.write_text(json.dumps(mutate(json.loads(cert.read_text()))))
    code, _, stderr = run(capsys, "verify", "--graph", "k4", "--cert", str(cert))
    assert code == 2
    assert stderr.startswith("error:")
    assert named in stderr


def test_verify_without_declared_min_support(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert run(capsys, "certify", "--graph", "k4", "-o", str(cert))[0] == 0
    doc = json.loads(cert.read_text())
    del doc["min_support_size"]
    cert.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "verify", "--graph", "k4", "--cert", str(cert))
    assert code == 0
    checks = {c["name"] for c in json.loads(stdout)["checks"]}
    assert "declared_min_support" not in checks


def test_verify_wrong_graph_exits_1(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(capsys, "certify", "--graph", "prism", "-o", str(cert))
    code, stdout, _ = run(capsys, "verify", "--graph", "k33", "--cert", str(cert))
    assert code == 1
    report = json.loads(stdout)
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "graph_match" in failed


def test_opt_lp_gap_values(capsys):
    assert run(capsys, "opt", "--graph", "k4")[1].strip() == "4"
    assert run(capsys, "lp", "--graph", "petersen")[1].strip() == "10"
    assert run(capsys, "gap", "--graph", "petersen")[1].strip() == "11/10"


@pytest.mark.parametrize(
    "g", [C5, complete(5), TWO_K4_MINUS_EDGE], ids=["c5", "k5", "two_k4_minus_edge"]
)
def test_lp_rejects_inputs_outside_the_cubic_3ec_class(tmp_path, capsys, g):
    edges = write_edges(tmp_path / "g.txt", g)
    for name in ("lp", "gap"):
        code, stdout, stderr = run(capsys, name, "--edges", edges)
        assert code == 2 and stdout == ""
        assert stderr == "error: lp_bound requires a cubic 3-edge-connected graph\n"


@pytest.mark.parametrize("k, step", [(12, 5), (15, 2), (30, 7)])
def test_lp_and_lemma3_run_above_the_oracle_cap(tmp_path, capsys, k, step):
    """lp and lemma3 answer at n = 24, 30 and 60; opt keeps its cap."""
    path = tmp_path / "gp.g6"
    path.write_text(to_graph6(generalized_petersen(k, step)) + "\n")
    assert run(capsys, "lp", "--g6", str(path))[:2] == (0, f"{2 * k}\n")
    code, stdout, _ = run(capsys, "lemma3", "--g6", str(path))
    assert code == 0
    assert json.loads(stdout) == {
        "configurations": 12 * k,
        "pivots": 3 * k,
        "violations": 0,
        "orientation_flips": 0,
        "divergences": 0,
    }
    code, _, stderr = run(capsys, "opt", "--g6", str(path))
    assert code == 2
    assert stderr == f"error: oracle limited to n <= 16 (got n={2 * k})\n"


def test_gap_reads_graph6_file(tmp_path, capsys):
    path = tmp_path / "p.g6"
    path.write_text(to_graph6(builtin("petersen")) + "\n")
    code, stdout, _ = run(capsys, "gap", "--g6", str(path))
    assert code == 0 and stdout.strip() == "11/10"


def test_lemma3_subcommand(capsys):
    code, stdout, _ = run(capsys, "lemma3", "--graph", "petersen")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["violations"] == 0 and doc["configurations"] == 60
    code, _, stderr = run(capsys, "lemma3", "--graph", "prism")
    assert code == 2


def test_cut_queries_run_above_the_shore_walk_cap(tmp_path, capsys):
    path = tmp_path / "gp112.g6"  # n = 22
    path.write_text(to_graph6(generalized_petersen(11, 2)) + "\n")
    code, stdout, _ = run(capsys, "lemma3", "--g6", str(path))
    assert code == 0
    assert json.loads(stdout) == {
        "configurations": 132,
        "pivots": 33,
        "violations": 0,
        "orientation_flips": 0,
        "divergences": 0,
    }
    # a sweep row gets past the cut queries and stops at the oracle's cap
    code, stdout, _ = run(capsys, "sweep", "--g6", str(path))
    assert code == 0
    [row] = list(csv.DictReader(io.StringIO(stdout)))
    assert (row["essentially4ec"], row["lemma3_violations"]) == ("true", "0")
    assert row["error"] == "oracle limited to n <= 16 (got n=22)"


def test_sweep_small_corpus(tmp_path, capsys):
    corpus = tmp_path / "small.g6"
    corpus.write_text(
        "\n".join(
            to_graph6(builtin(name)) for name in ("k4", "k33", "prism", "petersen")
        )
        + "\nnot-a-graph6-line!!\n"
    )
    out = tmp_path / "rows.csv"
    code, _, _ = run(capsys, "sweep", "--g6", str(corpus), "-o", str(out))
    assert code == 0  # parse errors are flagged, not fatal
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert out.read_text().splitlines()[0] == ",".join(SWEEP_COLUMNS)
    assert len(rows) == 5
    petersen_row = rows[3]
    assert petersen_row["opt"] == "11"
    assert petersen_row["gap"] == "11/10"
    assert petersen_row["bound_ok"] == "true"
    assert rows[4]["error"] != ""


def test_sweep_empty_file(tmp_path, capsys):
    corpus = tmp_path / "empty.g6"
    corpus.write_text("")
    code, stdout, _ = run(capsys, "sweep", "--g6", str(corpus))
    assert code == 0
    assert stdout.strip() == ",".join(SWEEP_COLUMNS)


def test_sweep_is_byte_stable_across_runs(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    corpus.write_text(
        "\n".join(to_graph6(builtin(n)) for n in ("k4", "prism", "petersen")) + "\n"
    )
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(capsys, "sweep", "--g6", str(corpus), "-o", str(a))[0] == 0
    assert run(capsys, "sweep", "--g6", str(corpus), "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_max_n_zero_is_rejected(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    corpus.write_text(to_graph6(builtin("petersen")) + "\n")
    for argv in (
        ("certify", "--graph", "petersen", "--max-n", "0"),
        ("sweep", "--g6", str(corpus), "--max-n", "0"),
    ):
        code, stdout, stderr = run(capsys, *argv)
        assert code == 2
        assert stdout == ""
        assert stderr.strip() == "error: max_n must be within [4, 18]"


def write_edges(path, g):
    path.write_text(f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
    return str(path)


def test_oracle_commands_are_capped_by_the_oracle(tmp_path, capsys):
    gp92 = write_edges(tmp_path / "gp92.txt", generalized_petersen(9, 2))
    code, stdout, stderr = run(capsys, "opt", "--edges", gp92)
    assert code == 2
    assert stdout == ""
    assert "oracle limited to n <= 16" in stderr
    for name in ("opt", "lp", "gap"):
        with pytest.raises(SystemExit):
            main([name, "--graph", "k4", "--max-n", "16"])  # no such flag


def test_certify_rejects_a_two_edge_cut(tmp_path, capsys):
    edges = write_edges(tmp_path / "two_k4.txt", TWO_K4_MINUS_EDGE)
    code, stdout, stderr = run(capsys, "certify", "--edges", edges)
    assert code == 2
    assert stdout == ""
    assert "3-edge-connected" in stderr


def test_unknown_builtin_is_parse_error(capsys):
    with pytest.raises(SystemExit):
        main(["opt", "--graph", "heawood"])  # argparse rejects the choice


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "cubic2ec.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_verbose_logs_compaction_and_leaves_outputs_unchanged(tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_text(
        "\n".join(to_graph6(builtin(n)) for n in ("k4", "prism", "petersen")) + "\n"
    )
    outputs = {}
    for flags in ((), ("-v",)):
        cert = tmp_path / f"cert{len(flags)}.json"
        rows = tmp_path / f"rows{len(flags)}.csv"
        certified = run_cli(*flags, "certify", "--graph", "petersen", "-o", str(cert))
        swept = run_cli(*flags, "sweep", "--g6", str(corpus), "-o", str(rows))
        assert certified.returncode == swept.returncode == 0, certified.stderr + swept.stderr
        outputs[flags] = (cert.read_bytes(), rows.read_bytes(), certified.stdout)
        # k4 and the prism have 6 entries each, at most m + 1 already
        logged = ["cubic2ec.combine: compacted 132 -> 13 entries (n=10)"] if flags else []
        assert certified.stderr.splitlines() == swept.stderr.splitlines() == logged
    assert outputs[()] == outputs[("-v",)]
