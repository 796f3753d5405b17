"""Tests of the benchmark itself.

Run from the root of a source checkout:

    python3 -m pytest -q benchmarks

Each test runs the benchmark command as a separate process, the way it is
meant to be run, at the smallest size (one pass per run).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, *args: str) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def copy_checkout(dest: Path, with_source: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("out", "__pycache__", ".pytest_cache")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=ignore)
    if with_source:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_minimal_run_reports_every_metric_with_its_unit(workload, trace):
    proc, result = run_bench(ROOT, "--workload", workload, "--seed", "1",
                             "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert f"\n{name} " in "\n" + proc.stdout, name
    assert "\nerror_rate 0.0 ratio" in proc.stdout
    if trace == 0:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_nondefault_seed_checks_passes_against_each_other():
    proc, result = run_bench(ROOT, "--workload", "gradcheck", "--seed", "5",
                             "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 2


def test_corrupted_golden_digest_is_counted_as_error(tmp_path):
    copy_checkout(tmp_path, with_source=True)
    golden_path = tmp_path / "benchmarks" / "golden.json"
    golden = json.loads(golden_path.read_text())
    files = golden["gradcheck"]["check_grad"]
    name = next(iter(files))
    files[name] = ("0" if files[name][0] != "0" else "1") + files[name][1:]
    golden_path.write_text(json.dumps(golden))

    proc, result = run_bench(tmp_path, "--workload", "gradcheck", "--seed", "1",
                             "--seconds", "0", "--trace", "0")
    assert proc.returncode != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1
    assert "\nerror_rate 1.0 ratio (1/1)" in proc.stdout
    assert "differs from golden digest" in proc.stderr


def test_fails_without_a_result_where_there_is_no_program(tmp_path):
    copy_checkout(tmp_path, with_source=False)
    proc, result = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                             "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert result is None
    assert proc.stdout == ""
