"""The proof's invariant checks under ``python -O``.

``-O`` strips ``assert`` statements, this suite's own included, so each
check runs in a child interpreter started with ``-O``.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cubic2ec import builtin, find_essential_3cut, to_graph6

SRC = Path(__file__).resolve().parent.parent / "src"


def run_optimized(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-O", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_src_has_no_assert_statements():
    """Every check in src/ and scripts/ must survive -O, so none may be an
    assert."""
    paths = sorted((SRC / "cubic2ec").glob("*.py"))
    paths += sorted((SRC.parent / "scripts").glob("*.py"))
    assert len(paths) > 10
    found = [
        f"{path.parent.name}/{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_certify_petersen_under_optimize():
    proc = run_optimized("-m", "cubic2ec.cli", "certify", "--graph", "petersen")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "n=10 entries=13 min_support=11 bound=11"


def test_closed_form_lp_petersen_under_optimize():
    proc = run_optimized("-m", "cubic2ec.cli", "lp", "--graph", "petersen")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "10"


# A pivot expectation skewed one way at a time: 1/9 more on edge 0 (the
# occurrence check), or one more 4-cycle pivot (the 2t + r = 8 check).
FORCED_MISMATCH = """
import sys
from cubic2ec import Certifier, builtin, combine
from cubic2ec.errors import InvariantViolation

assert False, "assert statements must be stripped"
honest = combine._case1_expectation

def occurrence(g, uv):
    t, r, want = honest(g, uv)
    want[0] += 2  # numerators over 18
    return t, r, want

def placement(g, uv):
    t, r, want = honest(g, uv)
    return t + 1, r, want

combine._case1_expectation = {"occurrence": occurrence, "placement": placement}[
    sys.argv[1]
]
try:
    Certifier().certify(builtin("petersen"))
except InvariantViolation as exc:
    print(f"optimize={sys.flags.optimize} {exc}")
    sys.exit(0)
sys.exit("a forced pivot mismatch went unnoticed")
"""


def test_forced_occurrence_mismatch_raises_under_optimize():
    proc = run_optimized("-c", FORCED_MISMATCH, "occurrence")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(
        "optimize=1 pivot 0: occurrences deviate from the piecewise profile"
    )


def test_forced_placement_mismatch_raises_under_optimize():
    proc = run_optimized("-c", FORCED_MISMATCH, "placement")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("optimize=1 pivot 0: 2t + r = 10, not 8")


def test_forced_mismatch_maps_to_exit_3_under_optimize():
    script = FORCED_MISMATCH.split("try:")[0] + (
        "from cubic2ec.cli import main\n"
        "sys.exit(main(['certify', '--graph', 'petersen']))\n"
    )
    proc = run_optimized("-c", script, "occurrence")
    assert proc.returncode == 3
    assert "internal invariant violation" in proc.stderr
    assert "pivot 0: occurrences deviate from the piecewise profile" in proc.stderr


# A case-1 node places a child from an automorphism of the node: patch in
# a transposition of two canonical vertices as the node's only generator
# (no automorphism of the Petersen graph, whose girth is 5), or carry the
# first child's least leaf without the automorphism.
CARRIED_MISMATCH = """
import sys
from cubic2ec import Certifier, builtin, combine
from cubic2ec.errors import InvariantViolation

assert False, "assert statements must be stripped"

def transposition(tree):
    n = len(tree.seen[tree.enc][0])
    return [[1, 0, *range(2, n)]]

if sys.argv[1] == "transposition":
    combine.canonical_automorphisms = transposition
else:
    combine._carry = lambda orbit, pair, vertices: vertices
if sys.argv[2:] == ["cli"]:
    from cubic2ec.cli import main
    sys.exit(main(["certify", "--graph", "petersen"]))
try:
    Certifier().certify(builtin("petersen"))
except InvariantViolation as exc:
    print(f"optimize={sys.flags.optimize} {exc}")
    sys.exit(0)
sys.exit("a wrong automorphism went unnoticed")
"""


@pytest.mark.parametrize(
    "mode, message",
    [
        ("transposition", r"node I\S+: \[1, 0, 2, 3, 4, 5, 6, 7, 8, 9\] is not an automorphism"),
        ("identity", "a carried leaf does not have the least encoding of its class"),
    ],
)
def test_a_wrong_automorphism_raises_under_optimize(mode, message):
    proc = run_optimized("-c", CARRIED_MISMATCH, mode)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(f"optimize=1 {message}", proc.stdout.strip())
    proc = run_optimized("-c", CARRIED_MISMATCH, mode, "cli")
    assert proc.returncode == 3
    assert "internal invariant violation" in proc.stderr
    assert re.search(message, proc.stderr)


REPRODUCE = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_bounds.py"


def test_reproduce_bounds_under_optimize():
    proc = run_optimized(str(REPRODUCE))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("0 invariant failures")


# Moves half the lighter of the first two members' weights to the other:
# the weights still sum to 1, but the edges in one member and not the
# other leave 7/9.
SHIFT_WEIGHT = """
from cubic2ec.certificate import ConvexCombination

def shifted(comb):
    (w0, s0), (w1, s1), *rest = comb.entries
    moved = min(w0, w1) / 2
    return ConvexCombination(comb.host, ((w0 - moved, s0), (w1 + moved, s1), *rest))
"""

SKEWED_CERTIFICATES = SHIFT_WEIGHT + f"""
import dataclasses
import runpy
import cubic2ec

honest = cubic2ec.Certifier.certify

def skewed(self, g):
    cert = honest(self, g)
    return dataclasses.replace(cert, combination=shifted(cert.combination))

cubic2ec.Certifier.certify = skewed
runpy.run_path({str(REPRODUCE)!r}, run_name="__main__")
"""


def test_reproduce_bounds_counts_nonuniform_occurrences_under_optimize():
    proc = run_optimized("-c", SKEWED_CERTIFICATES)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.rstrip().endswith("31 invariant failures")


# A case-1 average that leaves 7/9: the node's own check must name it,
# before a parent's pivot check or the compaction sees the damage.
SKEWED_AVERAGE = SHIFT_WEIGHT + """
import sys
from cubic2ec import Certifier, builtin, combine, masked
from cubic2ec.errors import InvariantViolation

assert False, "assert statements must be stripped"
honest = combine._average
combine._average = lambda host, parts: masked._masked(
    shifted(masked._public(honest(host, parts)))
)
if sys.argv[1] == "cli":
    from cubic2ec.cli import main
    sys.exit(main(["certify", "--graph", "petersen"]))
try:
    Certifier().certify(builtin("petersen"))
except InvariantViolation as exc:
    print(f"optimize={sys.flags.optimize} {exc}")
    sys.exit(0)
sys.exit("a skewed case-1 average went unnoticed")
"""


def test_skewed_case1_average_raises_under_optimize():
    proc = run_optimized("-c", SKEWED_AVERAGE, "api")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("optimize=1 edges [")
    assert "have averaged occurrence other than 7/9" in proc.stdout


def test_skewed_case1_average_exits_3_under_optimize():
    proc = run_optimized("-c", SKEWED_AVERAGE, "cli")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "internal invariant violation" in proc.stderr
    assert "have averaged occurrence other than 7/9" in proc.stderr


# Compactions that break their contract, by name: no certificate may be
# issued.  `foreign` puts in the full edge set, which is not a Petersen
# member.  A compaction is (denominator, [(numerator, edge mask), ...]) in
# integers, as the certifier holds it.
BROKEN_COMPACTION = """
import sys
from cubic2ec import Certifier, builtin, compact
from cubic2ec.errors import InvariantViolation

assert False, "assert statements must be stripped"
honest = compact._caratheodory

def foreign(comb, smallest):
    den, ((num, _), *rest) = honest(comb, smallest)
    return den, [(num, (1 << comb.host.m) - 1)] + rest

def perturbed(comb, smallest):
    den, ((num, x), *rest) = honest(comb, smallest)
    return den, [(num + 1, x)] + rest

def no_smallest(comb, smallest):
    den, reduced = honest(comb, smallest)
    (lost,) = [num for num, x in reduced if x == smallest]
    out = [(num, x) for num, x in reduced if x != smallest]
    return den, [(out[0][0] + lost, out[0][1])] + out[1:]

broken = {"foreign": foreign, "perturbed": perturbed, "no_smallest": no_smallest}
if sys.argv[1] == "narrow_lanes":
    compact._lane_bits = lambda bound: 16
else:
    compact._caratheodory = broken[sys.argv[1]]
if sys.argv[2] == "cli":
    from cubic2ec.cli import main
    sys.exit(main(["certify", "--graph", "petersen"]))
try:
    Certifier().certify(builtin("petersen"))
except InvariantViolation as exc:
    print(f"optimize={sys.flags.optimize} {exc}")
    sys.exit(0)
sys.exit("a broken compaction went unnoticed")
"""

BROKEN = {
    "foreign": "compaction kept 13 members, not at most 16 of the combination's own",
    "perturbed": "compaction: weights must sum to 1 exactly",
    "no_smallest": "compaction dropped the smallest member",
    "narrow_lanes": "16-bit lanes cannot hold the",
}


@pytest.mark.parametrize("how", sorted(BROKEN))
def test_broken_compaction_raises_under_optimize(how):
    proc = run_optimized("-c", BROKEN_COMPACTION, how, "api")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"optimize=1 {BROKEN[how]}")


@pytest.mark.parametrize("how", sorted(BROKEN))
def test_broken_compaction_exits_3_under_optimize(how):
    proc = run_optimized("-c", BROKEN_COMPACTION, how, "cli")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "internal invariant violation" in proc.stderr
    assert BROKEN[how] in proc.stderr


# A member that is not spanning 2EC on one node's graph: lift and glue only
# map edges, so the finished node's own member check must name that node.
# first_non_2ec rejects the first member on the canonical graph of the input,
# which is the root, and no other node is built on it.
NON_2EC_ROOT = """
import sys
from pathlib import Path
from cubic2ec import Certifier, canonical_form, connectivity, parse_graph6
from cubic2ec.errors import InvariantViolation

assert False, "assert statements must be stripped"
path = sys.argv[1]
key = canonical_form(parse_graph6(Path(path).read_text().strip()))[0]
root = parse_graph6(key)
honest = connectivity.first_non_2ec
connectivity.first_non_2ec = lambda g, masks: 0 if g == root else honest(g, masks)
print(key)
if sys.argv[2] == "cli":
    from cubic2ec.cli import main
    sys.exit(main(["certify", "--g6", path]))
try:
    Certifier().certify(parse_graph6(Path(path).read_text().strip()))
except InvariantViolation as exc:
    print(f"optimize={sys.flags.optimize} {exc}")
    sys.exit(0)
sys.exit("a non-2EC member went unnoticed")
"""


def non_2ec_root_input(kind, tmp_path, corpus):
    """A g6 file holding Petersen (a case-1 root) or the first corpus
    graph with n >= 8 and an essential 3-cut (a case-2 root)."""
    if kind == "case1":
        g = builtin("petersen")
    else:
        g = next(g for g in corpus if g.n >= 8 and find_essential_3cut(g))
    path = tmp_path / f"{kind}.g6"
    path.write_text(to_graph6(g) + "\n")
    return path


@pytest.mark.parametrize("kind", ["case1", "case2"])
def test_non_2ec_member_raises_naming_its_node_under_optimize(kind, tmp_path, corpus):
    path = non_2ec_root_input(kind, tmp_path, corpus)
    proc = run_optimized("-c", NON_2EC_ROOT, str(path), "api")
    assert proc.returncode == 0, proc.stderr
    key, message = proc.stdout.splitlines()
    assert message.startswith(f"optimize=1 node {key}: member (")
    assert message.endswith(") is not a spanning 2-edge-connected subgraph")


@pytest.mark.parametrize("kind", ["case1", "case2"])
def test_non_2ec_member_exits_3_under_optimize(kind, tmp_path, corpus):
    path = non_2ec_root_input(kind, tmp_path, corpus)
    proc = run_optimized("-c", NON_2EC_ROOT, str(path), "cli")
    assert proc.returncode == 3
    key = proc.stdout.strip()
    assert "internal invariant violation" in proc.stderr
    assert f"node {key}: member (" in proc.stderr


# A simplex answer corrupted between the engine and its check: the moved
# basic point no longer solves its system, an infeasibility answer loses
# its Farkas certificate, and the cut LP's prices stop proving optimality.
CORRUPTED_LP = """
import sys
from cubic2ec import exact_lp
from cubic2ec.errors import InvariantViolation

assert False, "assert statements must be stripped"
honest = exact_lp._simplex

def moved_point(basis, xd, d, p):
    return basis, [xd[0] + 1] + xd[1:], d, p

def zeroed_prices(basis, xd, d, p):
    return basis, xd, d, [0] * len(p)

def shifted_price(basis, xd, d, p):
    return basis, xd, d, [p[0] - 1] + p[1:]

corrupt = {
    "moved_point": moved_point,
    "zeroed_prices": zeroed_prices,
    "shifted_price": shifted_price,
}[sys.argv[1]]
exact_lp._simplex = lambda *args: corrupt(*honest(*args))
calls = {
    "feasible": lambda: exact_lp.feasible_basic_solution([[1, 1], [1, -1]], [2, 0]),
    "infeasible": lambda: exact_lp.feasible_basic_solution([[1, 1], [1, 1]], [1, 2]),
    "cut_lp": lambda: exact_lp.solve_cut_lp(3, [0b011, 0b101, 0b110]),
}
try:
    calls[sys.argv[2]]()
except InvariantViolation as exc:
    print(f"optimize={sys.flags.optimize} {exc}")
    sys.exit(0)
sys.exit("a corrupted simplex answer went unnoticed")
"""


@pytest.mark.parametrize(
    "how, call, message",
    [
        ("moved_point", "feasible", "the simplex's basic point does not solve"),
        ("zeroed_prices", "infeasible", "the simplex objective differs"),
        ("shifted_price", "cut_lp", "a column still prices out"),
    ],
)
def test_corrupted_simplex_answer_raises_under_optimize(how, call, message):
    proc = run_optimized("-c", CORRUPTED_LP, how, call)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"optimize=1 {message}")
