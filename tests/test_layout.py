"""The package's import direction, read from the source with ``ast``: the
certificate format and its verifier sit below the certifier's modules, and
the oracles beside it, so neither can come to depend on how certificates
are built."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cubic2ec"


def imports(module: str) -> set[str]:
    """The dotted names ``module`` imports, a relative import resolved
    against the package: ``from .graphs import Graph`` gives cubic2ec.graphs
    (and cubic2ec.graphs.Graph), ``from . import graphs`` cubic2ec.graphs."""
    out = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                base = "cubic2ec" + (f".{base}" if base else "")
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


def package_imports(module: str) -> set[str]:
    """The package's modules that ``module`` imports, by bare name."""
    parts = (name.split(".") for name in imports(module))
    names = {p[1] for p in parts if p[0] == "cubic2ec" and len(p) > 1}
    return {name for name in names if (PACKAGE / f"{name}.py").is_file()}


def test_imports_reads_both_relative_forms():
    assert {"connectivity", "graphs"} <= package_imports("oracle")
    assert {"canon", "certificate", "compact", "masked"} <= package_imports("combine")


def test_certificate_imports_only_the_stdlib_and_the_graph_layer():
    outside = {name.split(".")[0] for name in imports("certificate")} - {"cubic2ec"}
    assert outside <= sys.stdlib_module_names
    assert package_imports("certificate") <= {"connectivity", "errors", "graphs"}


def test_oracle_does_not_import_the_certifier():
    certifier = {"canon", "combine", "compact", "masked"}
    assert package_imports("oracle") & certifier == set()


@pytest.mark.parametrize("module", ["masked", "compact"])
def test_kernels_do_not_import_combine(module):
    assert "combine" not in package_imports(module)


def test_only_masked_constructs_a_masked_combination():
    """The entry layout is built in one module, so changing how it is
    stored changes no other: no other module of the package, script or
    test calls the constructor."""
    callers = set()
    for folder in ("src/cubic2ec", "scripts", "tests"):
        for path in (PACKAGE.parent.parent / folder).glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if name == "_MaskedCombination":
                        callers.add(f"{folder}/{path.name}")
    assert callers == {"src/cubic2ec/masked.py"}


def test_compaction_makes_no_fraction():
    assert not any(name.split(".")[0] == "fractions" for name in imports("compact"))
