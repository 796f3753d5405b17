"""The mutation audit's enumerator, `tests/mutate.py`, on the current kernel.

The audit runs the kernel tests once per mutant, which takes tens of
minutes, so it is not part of the test run; this checks, without running
any mutant, that each mutant it would run parses and compiles, and differs
from the kernel only inside one audited function, with every line number
kept.  It also checks the test process's budget on two one-test files: a
test that finishes is timed, and one that runs past its budget ends the
process with the status that the audit counts as a kill.
"""

import json
import subprocess
import sys

import mutate


def test_every_mutant_of_the_kernel_compiles():
    kernel = (mutate.ROOT / mutate.KERNEL).read_text()
    found = list(mutate.mutants())
    for m in found:
        where = f"{m.function}:{m.line} {m.change}"
        assert m.source.count("\n") == kernel.count("\n"), where
        assert kernel.startswith(m.head) and kernel.endswith(m.tail), where
        assert m.text not in kernel and m.text.startswith(f"def {m.function}("), where
        compile(m.text, where, "exec")
    assert {m.operator for m in found} == set(mutate.OPERATORS)
    assert {m.function for m in found} == set(mutate.FUNCTIONS)


def run_budgeted(tmp_path, body, budget):
    (tmp_path / "test_one.py").write_text(f"import time\n\n\ndef test_one():\n    {body}\n")
    times = tmp_path / "times.json"
    times.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "-c", mutate.PYTEST, str(budget), str(times), "-q",
         "-p", "no:cacheprovider", "--rootdir", str(tmp_path), str(tmp_path / "test_one.py")],
        cwd=mutate.ROOT, env=mutate.ENV, capture_output=True, timeout=60)
    return proc.returncode, json.loads(times.read_text()) if times.exists() else None


def test_a_test_past_its_budget_cuts_the_run(tmp_path):
    status, times = run_budgeted(tmp_path, "time.sleep(0.1)", 0)
    assert status == 0 and list(times) == ["test_one.py::test_one"]
    assert times["test_one.py::test_one"] >= 0.1
    assert run_budgeted(tmp_path, "time.sleep(30)", 0.5) == (mutate.CUT, None)
