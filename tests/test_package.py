"""The package surface: what `tandemflow` exports, and what it must not ship.

The package computes y and J in one pass, inside `simcore.simulate`.  The
tests check it against tests/exact_reference.py, an exact-rational
simulator that must stay independent of the package.  These checks keep a
second sensitivity pass, and the surface that only a second pass read, from
returning to the package.
"""

import ast
import dataclasses
import importlib.util
import sys
from pathlib import Path

import tandemflow
from tandemflow import simcore

PACKAGE_DIR = Path(tandemflow.__file__).parent
TESTS_DIR = Path(__file__).parent


def test_star_import_binds_exactly_all():
    names = {}
    exec("from tandemflow import *", names)
    del names["__builtins__"]
    assert sorted(names) == sorted(tandemflow.__all__)
    assert len(set(tandemflow.__all__)) == len(tandemflow.__all__)
    for name in tandemflow.__all__:
        assert names[name] is getattr(tandemflow, name)


def test_no_log_driven_sensitivity_module():
    assert importlib.util.find_spec("tandemflow.ipa") is None
    for name in ("run_window", "queue_integral"):
        assert not hasattr(tandemflow, name)


def test_pruned_surface_stays_out():
    assert importlib.util.find_spec("ipa_reference") is None
    assert not hasattr(simcore, "KIND_NAMES")
    for name in ("rate_at", "segments"):
        assert not hasattr(simcore.PiecewiseConstantRate, name)
    assert simcore.PiecewiseConstantRate.__repr__ is object.__repr__
    assert [f.name for f in dataclasses.fields(simcore.JacobianEstimate)] == ["j11", "j21", "j22"]
    assert [f.name for f in dataclasses.fields(simcore.TandemTrajectory)] == \
        ["events", "x_end", "y", "jac"]


def imported_roots(path):
    """(line, top-level module) of each absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_nothing_from_tests():
    test_modules = {p.stem for p in TESTS_DIR.glob("*.py")} | {"tests"}
    assert "exact_reference" in test_modules
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    for path in sources:
        for line, root in imported_roots(path):
            assert root not in test_modules, f"{path.name}:{line} imports {root}"


def test_exact_reference_imports_only_the_standard_library():
    roots = list(imported_roots(TESTS_DIR / "exact_reference.py"))
    assert roots
    for line, root in roots:
        assert root in sys.stdlib_module_names, f"exact_reference.py:{line} imports {root}"
