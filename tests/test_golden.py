"""Byte identity of the CLI outputs against the benchmark's golden digests.

`benchmarks/golden.json` holds the sha256 of every file that the benchmark's
three workloads write at seed 1.  The same commands run here, so a change
that moves any output byte fails the ordinary test run, not only the
benchmark.  The test reads `benchmarks/` and writes only under `tmp_path`.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tandemflow.cli import main

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

# (workload, item, argv without --out, output name), as the benchmark runs
# them at its golden seed.
ITEMS = [
    ("closed_loop", "run_rep0", ["run", "--seed", "1"], "run_rep0.csv"),
    ("closed_loop", "run_rep1", ["run", "--seed", "100001"], "run_rep1.csv"),
    ("gradcheck", "check_grad", ["check-grad"], "check_grad.csv"),
    ("sweep", "table1", ["table1", "--config", str(BENCH_DIR / "sweep.cfg"), "--seed", "1",
                         "--replications", "1"], "table1"),
]


def digests(path: Path) -> dict[str, str]:
    """sha256 of a file, or of every file under a directory, keyed by the
    path relative to its parent."""
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    return {p.relative_to(path.parent).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files}


@pytest.mark.parametrize("workload, item, argv, name", ITEMS, ids=[i[1] for i in ITEMS])
def test_outputs_match_golden_digests(tmp_path, workload, item, argv, name):
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    assert digests(out) == golden[workload][item]
