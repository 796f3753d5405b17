"""Benchmark of tandemflow: three workloads, golden digests, traced layers.

Run from the root of a source checkout (the package is imported from
``src/``, nothing needs installing):

    python3 benchmarks/bench.py --workload closed_loop --seed 1 --seconds 35 --trace 0
    python3 benchmarks/bench.py --regenerate

A run repeats one *pass* of the workload until ``--seconds`` have gone by
(at least one pass).  Every pass drives the public CLI entry point
``tandemflow.cli.main`` in this process, one item after another, and every
item's output files are hashed and checked: against ``golden.json`` at the
golden seed, otherwise against the same item of the run's first pass.  An
item fails when it raises, exits non-zero, or its digest does not match.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, which come
from spans recorded around the module-level names each layer is called
through.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric by name with its unit.  The exit status is 0
only when every item passed.  ``--regenerate`` rewrites ``golden.json``
from one pass of each workload at the golden seed; use it only in a
change whose stated purpose is to change results.

See README.md beside this file for why each workload exists and which
end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"
OUT_DIR = BENCH_DIR / "out"

GOLDEN_SEED = 1
WORKLOADS = ("closed_loop", "sweep", "gradcheck")

# closed_loop: independent `run` replications per pass.  Replication i uses
# config seed `seed + REP_SEED_STRIDE * i`, so replication 0 is the plain
# `run` at the workload seed and different workload seeds below the stride
# share no inputs.
CLOSED_LOOP_REPS = 2
REP_SEED_STRIDE = 100_000
# sweep: `table1` over the default six zetas and both modes at this
# replication count, on the config in sweep.cfg.
SWEEP_REPLICATIONS = 1
SWEEP_CONFIG = BENCH_DIR / "sweep.cfg"

# Fresh processes timed for setup_s; the first is a discarded warm-up that
# fills the page cache and the bytecode cache.
SETUP_RUNS = 11

_SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import dataclasses, tandemflow, tandemflow.cli
cfg = dataclasses.replace(tandemflow.default_paper_config(), seed={seed})
t1 = time.perf_counter()
print(repr(t1 - t0), tandemflow.__file__)
"""

# Module-level names the layers call through: (module, attribute, layer).
# A later change that fuses or removes one of them leaves that layer absent.
WRAPPED = (
    ("scenario", "gen_onoff", "scenario.gen_onoff"),
    ("oracle", "gen_onoff", "scenario.gen_onoff"),
    ("regulator", "simulate", "simcore.simulate"),
    ("oracle", "simulate", "simcore.simulate"),
    ("regulator", "queue_integral", "simcore.queue_integral"),
    ("oracle", "queue_integral", "simcore.queue_integral"),
    ("regulator", "run_window", "ipa.run_window"),
    ("oracle", "run_window", "ipa.run_window"),
    ("regulator", "invert_gain", "regulator.control"),
    ("regulator", "control_step", "regulator.control"),
    ("scenario", "run_closed_loop", "regulator.loop"),
    ("oracle", "grad_check", "oracle.grad_check"),
)
CLI_SPAN = "cli"
PASS_SPAN = "bench.pass"


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, missing hook)."""


# ---------------------------------------------------------------- program


def load_program():
    """Import tandemflow from this checkout's src/ and nowhere else."""
    if not (SRC / "tandemflow" / "__init__.py").is_file():
        raise BenchError(f"no tandemflow source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import tandemflow
    from tandemflow import cli, oracle, regulator, scenario
    if Path(tandemflow.__file__).resolve().parent != SRC / "tandemflow":
        raise BenchError(f"imported tandemflow from {tandemflow.__file__}, not {SRC}")
    return {"cli": cli, "oracle": oracle, "regulator": regulator,
            "scenario": scenario}


def items_for(workload: str, seed: int, out: Path) -> list[tuple[str, list[str], Path]]:
    """The items of one pass: (name, CLI argv, output file or directory)."""
    if workload == "closed_loop":
        items = []
        for i in range(CLOSED_LOOP_REPS):
            path = out / f"run_rep{i}.csv"
            items.append((f"run_rep{i}", ["run", "--seed", str(seed + REP_SEED_STRIDE * i),
                                          "--out", str(path)], path))
        return items
    if workload == "sweep":
        path = out / "table1"
        return [("table1", ["table1", "--config", str(SWEEP_CONFIG), "--seed", str(seed),
                            "--replications", str(SWEEP_REPLICATIONS), "--out", str(path)],
                 path)]
    if workload == "gradcheck":
        path = out / "check_grad.csv"
        return [("check_grad", ["check-grad", "--out", str(path)], path)]
    raise ValueError(f"unknown workload {workload!r}")


def digests(path: Path) -> dict[str, str]:
    """sha256 of an output file, or of every file in an output directory."""
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    return {p.relative_to(path.parent).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files}


# ---------------------------------------------------------------- hooks


class Patches:
    """Replace module attributes for the duration of a with-block."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, module, name: str, value) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()


class Timeline:
    """Timestamps that cut every pass into the same sequence of segments.

    Marks fall at the start of a pass, after each item, around each
    gen_onoff call, at each plant call and at each return of
    run_closed_loop (closed_loop, sweep), and at the start and return of
    each oracle.grad_check call (gradcheck).  A segment that starts at a
    cycle mark is one cycle: a control cycle runs from one plant call to the
    next (the last one to the return of run_closed_loop), so it holds the
    plant call plus the gain inversion and theta update; an audited window
    is one grad_check call.  Every pass of a run does the same work, so
    segment j of one pass repeats segment j of every other.
    """

    def __init__(self):
        self.passes: list[list[tuple[float, bool]]] = []

    def new_pass(self) -> None:
        self.passes.append([])

    def mark(self, cycle: bool = False) -> None:
        self.passes[-1].append((perf_counter(), cycle))

    def install(self, patches: Patches, mods, workload: str) -> None:
        if workload == "gradcheck":
            module, name, timed = mods["oracle"], "grad_check", self._timed_call
        else:
            module, name, timed = mods["scenario"], "run_closed_loop", self._timed_loop
        if not hasattr(module, name):
            raise BenchError(f"cycle timing hook {module.__name__}.{name} not found")
        patches.set(module, name, timed(getattr(module, name)))
        # Arrival generation is its own segment, so that the long stretch
        # before a closed loop starts is cut finer.
        for module in (mods["scenario"], mods["oracle"]):
            if hasattr(module, "gen_onoff"):
                patches.set(module, "gen_onoff", self._timed_call(module.gen_onoff, cycle=False))

    def _timed_call(self, fn, cycle: bool = True):
        def wrapper(*args, **kwargs):
            self.mark(cycle)
            result = fn(*args, **kwargs)
            self.mark()
            return result
        return wrapper

    def _timed_loop(self, loop):
        def wrapper(plant, *args, **kwargs):
            def timed_plant(theta, k):
                self.mark(cycle=True)
                return plant(theta, k)
            records = loop(timed_plant, *args, **kwargs)
            self.mark()
            return records
        return wrapper

    def fastest_segments(self) -> tuple[list[float], list[bool]]:
        """Each segment's shortest duration over the passes, and whether it
        is a cycle.

        On a machine shared with other tenants, their load only ever adds
        time, in phases that come and go; the fastest repeat of a segment is
        the one least disturbed.
        """
        if len({tuple(c for _, c in marks) for marks in self.passes}) != 1:
            raise BenchError("passes differ in their sequence of timed segments")
        durations = [[b - a for (a, _), (b, _) in zip(marks, marks[1:])]
                     for marks in self.passes]
        return [min(col) for col in zip(*durations)], [c for _, c in self.passes[0][:-1]]


def guard_counts(records, mode: str, guards, initial_gain) -> tuple[int, int]:
    """Gain-row freezes and step-cap clips, rebuilt from CycleRecords.

    Follows the documented guard rules: a gain row is carried over when a
    diagonal Jacobian entry it divides by is below epsilon_j in magnitude
    (row 2 of the centralized gain divides by both), and a step component
    is clipped when |gain @ e| exceeds its cap.
    """
    eps = guards.epsilon_j
    gain = initial_gain
    freezes = clips = 0
    for rec in records:
        j11, j21, j22 = rec.jac.j11, rec.jac.j21, rec.jac.j22
        bad1 = abs(j11) < eps
        if mode == "centralized":
            bad2 = bad1 or abs(j22) < eps
            row2 = gain[1] if bad2 else (-j21 / (j11 * j22), 1.0 / j22)
        else:
            bad2 = abs(j22) < eps
            row2 = gain[1] if bad2 else (0.0, 1.0 / j22)
        row1 = gain[0] if bad1 else (1.0 / j11, 0.0)
        gain = (row1, row2)
        freezes += bad1 + bad2
        e1, e2 = rec.e
        for row, cap in zip(gain, guards.step_cap):
            if abs(row[0] * e1 + row[1] * e2) > cap:
                clips += 1
    return freezes, clips


class Tracer:
    """Spans at layer boundaries, kept in memory and written out at the end.

    A span is [name, parent index, start, end]; each pass is a root span, so
    the spans of one pass share it as their ancestor.  Work counts (events,
    segments, breakpoints, ...) are recorded per pass at the same
    boundaries.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.pass_roots: list[int] = []
        self.pass_counts: list[dict[str, float]] = []
        self._stack: list[int] = []
        self.absent: list[str] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = [name, parent, perf_counter(), 0.0]
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[3] = perf_counter()
        self._stack.pop()

    def begin_pass(self) -> list:
        self.pass_roots.append(len(self.spans))
        self.pass_counts.append({})
        return self._open(PASS_SPAN)

    end_pass = _close

    def count(self, key: str, n: float) -> None:
        counts = self.pass_counts[-1]
        counts[key] = counts.get(key, 0) + n

    def wrap(self, name: str, fn, counter=None):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                counter(self, fn, args, kwargs, result)
            return result
        return wrapper

    def install(self, patches: Patches, mods) -> None:
        present = set()
        for mod_name, attr, layer in WRAPPED:
            module = mods[mod_name]
            if hasattr(module, attr):
                patches.set(module, attr,
                            self.wrap(layer, getattr(module, attr), _COUNTERS.get(layer)))
                present.add(layer)
        self.absent = sorted({layer for _, _, layer in WRAPPED} - present)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start!r},{end!r}\n")

    def pass_tables(self) -> list[dict[str, dict[str, float]]]:
        """Per pass: span name -> {calls, busy, self} in seconds; the pass's
        own root span gives its wall time."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        bounds = self.pass_roots + [len(self.spans)]
        tables = []
        for lo, hi in zip(bounds, bounds[1:]):
            table: dict[str, dict[str, float]] = {}
            for i in range(lo, hi):
                name, _, start, end = self.spans[i]
                row = table.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0})
                row["calls"] += 1
                row["busy"] += end - start
                row["self"] += end - start - child_time[i]
            tables.append(table)
        return tables


# Counters read what they need with defaults, so that a later change to a
# layer's types leaves its counts at 0 instead of stopping the run.
def _count_segments(tr, fn, args, kwargs, result):
    tr.count("segments", len(getattr(result, "epochs", ())))


def _count_sim_events(tr, fn, args, kwargs, result):
    tr.count("sim_events", len(getattr(result, "events", ())))


def _count_breakpoints(tr, fn, args, kwargs, result):
    tr.count("breakpoints", len(getattr(args[0], "breakpoints", ())))


def _count_window_events(tr, fn, args, kwargs, result):
    tr.count("window_events", len(getattr(args[0], "events", ())))


def _count_guards(tr, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    if a.get("guards") is None or "mode" not in a or "initial_gain" not in a:
        return
    freezes, clips = guard_counts(result, a["mode"], a["guards"], a["initial_gain"])
    tr.count("gain_freezes", freezes)
    tr.count("cap_clips", clips)


def _count_entries(tr, fn, args, kwargs, result):
    entries = getattr(result, "entries", ())
    tr.count("entries", len(entries))
    tr.count("unflagged", sum(not e.flagged for e in entries))


_COUNTERS = {
    "scenario.gen_onoff": _count_segments,
    "simcore.simulate": _count_sim_events,
    "simcore.queue_integral": _count_breakpoints,
    "ipa.run_window": _count_window_events,
    "regulator.loop": _count_guards,
    "oracle.grad_check": _count_entries,
}


# ---------------------------------------------------------------- running


class Checker:
    """Counts items and checks each one's return code and output digests.

    With `expected` (the golden digests of the workload) every item must
    match it; without, every pass must match the run's first pass.
    """

    def __init__(self, workload: str, expected: dict | None):
        self.workload = workload
        self.expected = expected
        self.first: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, rc, path: Path) -> None:
        self.attempted += 1
        problem = None
        if rc != 0:
            problem = f"exit status {rc}"
        elif not path.exists():
            problem = f"no output at {path}"
        elif self.expected is not None:
            got, want = digests(path), self.expected.get(name)
            if want is None:
                problem = "no golden digest (run --regenerate)"
            elif got != want:
                problem = "output differs from golden digest: " + ", ".join(
                    sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k)))
        else:
            got = digests(path)
            if got != self.first.setdefault(name, got):
                problem = "output differs from the run's first pass"
        if problem is not None:
            self.failed += 1
            print(f"FAILED {self.workload}/{name}: {problem}", file=sys.stderr)


def run_pass(mods, items, out: Path, checker: Checker, tracer: Tracer | None = None,
             timeline: Timeline | None = None) -> tuple[float, int]:
    """One pass of the workload: returns (wall seconds, bytes written)."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    main = tracer.wrap(CLI_SPAN, mods["cli"].main) if tracer else mods["cli"].main
    results = []
    root = tracer.begin_pass() if tracer else None
    if timeline:
        timeline.new_pass()
        timeline.mark()
    t0 = perf_counter()
    for name, argv, path in items:
        try:
            rc = main(argv)
        except (Exception, SystemExit):
            traceback.print_exc()
            rc = "raised"
        if timeline:
            timeline.mark()
        results.append((name, rc, path))
    wall = perf_counter() - t0
    if tracer:
        tracer.end_pass(root)
    for name, rc, path in results:
        checker.check(name, rc, path)
    written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return wall, written


def measure_setup(seed: int) -> list[float]:
    """Cold import plus config build, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD.format(seed=seed)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        elapsed, origin = proc.stdout.split()
        if Path(origin).resolve().parent != SRC / "tandemflow":
            raise BenchError(f"set-up child imported tandemflow from {origin}")
        times.append(float(elapsed))
    return times[1:]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def environment() -> dict:
    import numpy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except OSError:
        pass
    src = hashlib.sha256()
    for p in sorted((SRC / "tandemflow").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "source_sha256": src.hexdigest(),
    }


def _quantile(samples: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(samples, n=100)[q - 1] if len(samples) > 1 else samples[0]


def end_to_end(mods, workload, seed, seconds, checker) -> tuple[dict, dict]:
    setup = measure_setup(seed)
    timeline = Timeline()
    out = OUT_DIR / workload
    items = items_for(workload, seed, out)
    walls = []
    with Patches() as patches:
        timeline.install(patches, mods, workload)
        deadline = perf_counter() + seconds
        while not walls or perf_counter() < deadline:
            walls.append(run_pass(mods, items, out, checker, timeline=timeline)[0])
    fastest, is_cycle = timeline.fastest_segments()
    cycles_ms = [s * 1e3 for s, cycle in zip(fastest, is_cycle) if cycle]
    if not cycles_ms:
        raise BenchError("no cycle was timed")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(fastest), "s"),
        "cycle_ms_p50": (statistics.median(cycles_ms), "ms"),
        "cycle_ms_p90": (_quantile(cycles_ms, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {"passes": len(walls), "segments": len(fastest), "cycles": len(cycles_ms),
              "cycle_unit": "audited window" if workload == "gradcheck" else "control cycle",
              "median_pass_wall_s": statistics.median(walls), "pass_wall_s": walls,
              "setup_runs_s": setup}
    return metrics, detail


def per_layer(mods, workload, seed, seconds, checker) -> tuple[dict, dict]:
    tracer = Tracer()
    items = items_for(workload, seed, OUT_DIR / workload)
    plain, traced, written = [], [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        plain.append(run_pass(mods, items, OUT_DIR / workload, checker)[0])
        with Patches() as patches:
            tracer.install(patches, mods)
            wall, nbytes = run_pass(mods, items, OUT_DIR / workload, checker, tracer)
        traced.append(wall)
        written.append(nbytes)
    tracer.write(OUT_DIR / f"spans_{workload}_seed{seed}.csv")

    tables = tracer.pass_tables()
    per_pass = []
    for table, counts, nbytes in zip(tables, tracer.pass_counts, written):
        def row(layer):
            return table.get(layer, {"calls": 0, "busy": 0.0, "self": 0.0})
        gen, sim, qi, rw = (row(x) for x in ("scenario.gen_onoff", "simcore.simulate",
                                              "simcore.queue_integral", "ipa.run_window"))
        ctl, loop, grad, cli = (row(x) for x in ("regulator.control", "regulator.loop",
                                                  "oracle.grad_check", CLI_SPAN))
        seg = counts.get("segments", 0)
        ev = counts.get("sim_events", 0)
        bp = counts.get("breakpoints", 0)
        wev = counts.get("window_events", 0)
        entries = counts.get("entries", 0)
        wall = table[PASS_SPAN]["busy"]
        accounted = sum(r["self"] for name, r in table.items() if name != PASS_SPAN)
        per_pass.append({
            "scenario.gen_onoff.calls": (gen["calls"], "count"),
            "scenario.gen_onoff.busy_s": (gen["busy"], "s"),
            "scenario.gen_onoff.segments": (seg, "count"),
            "scenario.gen_onoff.us_per_segment": (_per(gen["busy"], seg), "us"),
            "simcore.simulate.calls": (sim["calls"], "count"),
            "simcore.simulate.busy_s": (sim["busy"], "s"),
            "simcore.simulate.events": (ev, "count"),
            "simcore.simulate.us_per_event": (_per(sim["busy"], ev), "us"),
            "simcore.events_per_window": (ev / sim["calls"] if sim["calls"] else 0.0, "count"),
            "simcore.queue_integral.calls": (qi["calls"], "count"),
            "simcore.queue_integral.busy_s": (qi["busy"], "s"),
            "simcore.queue_integral.us_per_breakpoint": (_per(qi["busy"], bp), "us"),
            "ipa.run_window.calls": (rw["calls"], "count"),
            "ipa.run_window.busy_s": (rw["busy"], "s"),
            "ipa.run_window.us_per_event": (_per(rw["busy"], wev), "us"),
            "regulator.control.calls": (ctl["calls"], "count"),
            "regulator.control.busy_s": (ctl["busy"], "s"),
            "regulator.loop.self_s": (loop["self"], "s"),
            "regulator.gain_freezes": (counts.get("gain_freezes", 0), "count"),
            "regulator.cap_clips": (counts.get("cap_clips", 0), "count"),
            "oracle.grad_check.self_s": (grad["self"], "s"),
            "oracle.checked_ratio": (counts.get("unflagged", 0) / entries if entries else 0.0,
                                     "ratio"),
            "cli.self_s": (cli["self"], "s"),
            "cli.bytes_written": (nbytes, "bytes"),
            "trace.accounted_share": (accounted / wall, "ratio"),
        })
    # Contention on a shared machine only adds time, so each metric is its
    # value in the fastest traced pass; counts are the same in every pass.
    metrics = {name: (min(p[name][0] for p in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    metrics["trace_overhead"] = (min(traced) / min(plain) - 1.0, "ratio")
    self_table = {}
    for name in sorted({n for t in tables for n in t} - {PASS_SPAN}):
        self_table[name] = min(t.get(name, {"self": 0.0})["self"] for t in tables)
    detail = {"passes_untraced": len(plain), "passes_traced": len(traced),
              "untraced_pass_wall_s": plain, "traced_pass_wall_s": traced,
              "self_s_by_layer": self_table, "absent_layers": tracer.absent,
              "spans": len(tracer.spans)}
    return metrics, detail


def _per(busy_s: float, n: float) -> float:
    return busy_s / n * 1e6 if n else 0.0


def regenerate(mods) -> dict:
    golden = {}
    for workload in WORKLOADS:
        out = OUT_DIR / workload
        checker = Checker(workload, None)
        items = items_for(workload, GOLDEN_SEED, out)
        run_pass(mods, items, out, checker)
        if checker.failed:
            raise BenchError(f"{workload}: an item failed; golden digests not written")
        golden[workload] = {name: digests(path) for name, _, path in items}
    return golden


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regenerate", action="store_true",
                        help=f"rewrite {GOLDEN_PATH.name} at seed {GOLDEN_SEED} and exit")
    args = parser.parse_args(argv)
    if not args.regenerate and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        mods = load_program()
        OUT_DIR.mkdir(exist_ok=True)
        if args.regenerate:
            golden = regenerate(mods)
            GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
            print(f"wrote {GOLDEN_PATH}")
            return 0
        expected = None
        if args.seed == GOLDEN_SEED:
            golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}
            expected = golden.get(args.workload, {})
        checker = Checker(args.workload, expected)
        measure = per_layer if args.trace else end_to_end
        t0 = perf_counter()
        metrics, detail = measure(mods, args.workload, args.seed, args.seconds, checker)
        detail["run_s"] = perf_counter() - t0
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    error_rate = checker.failed / checker.attempted
    env = environment()
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          + ", ".join(f"{k}={v}" for k, v in detail.items() if not isinstance(v, (list, dict))))
    if detail.get("absent_layers"):
        print("absent layers: " + ", ".join(detail["absent_layers"]))
    for name, seconds in detail.get("self_s_by_layer", {}).items():
        print(f"  self {name:24s} {seconds:.6f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"error_rate {error_rate!r} ratio ({checker.failed}/{checker.attempted})")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "attempted": checker.attempted, "failed": checker.failed,
              "error_rate": error_rate, "detail": detail,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT_DIR / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": record["metrics"]}))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
