"""Run the benchmark repeatedly and record its baseline and spread.

Run from the root of a source checkout:

    python3 benchmarks/baseline.py --runs 10              # print the table
    python3 benchmarks/baseline.py --runs 10 --write      # also write baseline.json
    python3 benchmarks/baseline.py --runs 5 --workloads sweep

For each workload it runs the command of BENCHMARK.json with --trace 0 once
per seed (seeds 1..runs, one after another), and reports every end-to-end
metric's median, quartiles and spread, the spread being the distance
between the quartiles as a share of the median.  A metric is steady when
its spread is below a third of its bound in BENCHMARK.json.  With --write
it also makes one traced run per workload at seed 1 and writes the
per-layer table and the environment to baseline.json beside this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import bench  # noqa: E402


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    steady = True
    table: dict[str, dict] = {}
    for workload in args.workloads.split(","):
        runs = [run_once(spec, workload, seed, 0) for seed in range(1, args.runs + 1)]
        table[workload] = {"attempted": sum(r["attempted"] for r in runs),
                           "failed": sum(r["failed"] for r in runs), "metrics": {}}
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            table[workload]["metrics"][name] = stats
            ok = name == "setup_s" or stats["spread"] < bound / 3
            steady &= ok
            print(f"{workload:12s} {name:14s} median {stats['median']:.6g} {stats['unit']:3s}"
                  f" q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.4f}"
                  f" bound/3 {bound / 3:.4f} {'ok' if ok else 'WIDE'}", flush=True)

    if args.write:
        record = {"environment": bench.environment(), "seeds": list(range(1, args.runs + 1)),
                  "run_seconds": spec["run_seconds"], "end_to_end": table, "per_layer": {}}
        for workload in table:
            record["per_layer"][workload] = run_once(spec, workload, 1, 1)["metrics"]
        (BENCH_DIR / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {BENCH_DIR / 'baseline.json'}")
    print("steady" if steady else "not steady: some spread is at or above a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
