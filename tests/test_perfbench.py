"""The names the benchmark's tracer wraps, and the certificates of its
seed-0 inputs.

``perfbench/tracing.py`` patches package functions by module and name,
so a renamed or moved target would otherwise show only as a broken
``--trace 1`` run.  The seed-0 certificate digests pin the output bytes
that every change to the construction must keep or deliberately update.
These tests read the benchmark's files and change none of them.
"""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cubic2ec import Certifier, builtin, certificate_to_json, parse_graph6

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bound_functions():
    """Every callable bound in a cubic2ec module, and ``Certifier.certify``."""
    out = {
        (key, name): value
        for key, mod in sys.modules.items()
        if key == "cubic2ec" or key.startswith("cubic2ec.")
        for name, value in vars(mod).items()
        if callable(value)
    }
    out["Certifier", "certify"] = Certifier.__dict__["certify"]
    return out


def test_tracer_wraps_every_target_and_restores_them():
    tracing = load_tracing()
    before = bound_functions()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        Certifier().certify(builtin("k4"))
        summary = tracer.summary()
        assert set(summary) == set(tracing.SPAN_NAMES)
        assert summary["combine.Certifier.certify"][0] == 1
    finally:
        tracer.uninstall()
        assert bound_functions() == before


def test_tracer_installs_in_a_process_that_imports_only_the_package():
    """The worker imports cubic2ec and nothing from the tests, so every
    module the tracer names must load with the package."""
    src = PERFBENCH.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import cubic2ec, tracing; t = tracing.Tracer(); t.install(); t.uninstall()"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(PERFBENCH)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


# SHA-256 over certificate_to_json of each line's certificate, in file
# order, as the benchmark worker hashes them.  A change that alters
# certificates updates these and says so.
SEED0_DIGESTS = {
    "sweep_corpus": "6ccd005c3585393574aa7815b9014e075a2975f164d7c450651ecf2db0bd1063",
    "cold_e4_n16": "dc7831095f40836af10d728e74d10c50b2091934e1d94b0759ea063fdaad5f4e",
    "cold_cut3_n18": "983e70c1ccf89832622d8d6e7f77438e4ffdc4f541e0cd961802f1ccb9772e12",
}


@pytest.mark.parametrize("workload", sorted(SEED0_DIGESTS))
def test_seed0_certificates_keep_their_digests(workload):
    """One Certifier for the whole sweep file, a fresh one per cold line."""
    lines = (PERFBENCH / "inputs_seed0" / f"{workload}.g6").read_text().split()
    shared = Certifier(max_n=14)
    digest = hashlib.sha256()
    for line in lines:
        g = parse_graph6(line)
        certifier = shared if workload == "sweep_corpus" else Certifier(max_n=g.n)
        digest.update(certificate_to_json(certifier.certify(g)).encode())
    assert digest.hexdigest() == SEED0_DIGESTS[workload]
