"""The names the benchmark's tracer wraps.

``perfbench/tracing.py`` patches package functions by module and name,
so a renamed or moved target would otherwise show only as a broken
``--trace 1`` run.  This reads the tracer's file and changes none of it.
"""

import importlib.util
import sys
from pathlib import Path

from cubic2ec import Certifier, builtin

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
