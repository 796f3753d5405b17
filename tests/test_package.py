"""The package surface: what `tandemflow` exports, and what it must not ship.

The package computes y and J in one pass, inside `simcore.simulate`.  The
log-driven sensitivity rules live in tests/ipa_reference.py as a test
oracle; these checks keep a second sensitivity pass from returning to the
package.
"""

import ast
import importlib.util
from pathlib import Path

import tandemflow

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


def test_package_imports_nothing_from_tests():
    test_modules = {p.stem for p in TESTS_DIR.glob("*.py")} | {"tests"}
    assert "ipa_reference" in test_modules
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            assert not set(roots) & test_modules, f"{path.name}:{node.lineno} imports {roots}"
