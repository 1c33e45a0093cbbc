"""The proof's invariant checks under ``python -O``.

``-O`` strips ``assert`` statements, this suite's own included, so each
check runs in a child interpreter started with ``-O``.
"""

import os
import subprocess
import sys
from pathlib import Path

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


def test_certify_petersen_under_optimize():
    proc = run_optimized("-m", "cubic2ec.cli", "certify", "--graph", "petersen")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "n=10 entries=132 min_support=11 bound=11"


def test_closed_form_lp_petersen_under_optimize():
    proc = run_optimized("-m", "cubic2ec.cli", "lp", "--graph", "petersen")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "10"


FORCED_MISMATCH = """
import sys
from fractions import Fraction
from cubic2ec import Certifier, builtin, combine
from cubic2ec.errors import InvariantViolation

assert False, "assert statements must be stripped"
honest = combine._case1_expectation

def skewed(g, uv):
    profile, occ = honest(g, uv)
    occ[0] += Fraction(1, 9)
    return profile, occ

combine._case1_expectation = skewed
try:
    Certifier().certify(builtin("petersen"))
except InvariantViolation as exc:
    print(f"optimize={sys.flags.optimize} {exc}")
    sys.exit(0)
sys.exit("a forced occurrence mismatch went unnoticed")
"""


def test_forced_occurrence_mismatch_raises_under_optimize():
    proc = run_optimized("-c", FORCED_MISMATCH)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("optimize=1 pivot 0: occurrences deviate")


def test_forced_mismatch_maps_to_exit_3_under_optimize():
    script = FORCED_MISMATCH.split("try:")[0] + (
        "from cubic2ec.cli import main\n"
        "sys.exit(main(['certify', '--graph', 'petersen']))\n"
    )
    proc = run_optimized("-c", script)
    assert proc.returncode == 3
    assert "internal invariant violation" in proc.stderr
