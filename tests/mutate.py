"""Mutation audit of the simulation kernel, `simulate` and `_light_plan`.

Run it as `python tests/mutate.py`; it takes no flags.  It parses
`src/tandemflow/simcore.py`, enumerates one mutant per site and operator in
the two functions, runs the kernel tests against each mutant in a scratch
copy of the repository, and rewrites the generated part of `MUTANTS.md`
(everything below `MARKER`) with one row per mutant.  It uses the standard
library only, and at most `os.cpu_count()` workers.

The operators (DeMillo, Lipton & Sayward, "Hints on test data selection",
IEEE Computer 11(4), 1978; Jia & Harman, IEEE TSE 37(5), 2011):

- `delete`: delete a statement (its lines become one `pass`);
- `cmp`: swap `<` and `<=`, `>` and `>=`, `==` and `!=`;
- `arith`: swap `+` and `-`, `*` and `/`, in binary and augmented operators;
- `bool`: swap `and` and `or`;
- `negate`: negate the test of an `if`, a `while` or a conditional expression.

A mutant rewrites one span of the kernel's text and pads it with newlines,
so every other byte and every line number stays as it is.

A mutant is killed when the kernel tests fail on it, or when its run is
cut, since a mutant may loop forever; it survives when they pass.  The
unmutated kernel runs first, through the same path, and must pass:
otherwise every mutant would read as killed.  That run also times each
test, and a mutant's run is cut as soon as one of its tests runs past
`BUDGET_FACTOR` times the slowest of those times (`Budget`), or the whole
run past `TIMEOUT` seconds.  The run stops at the first failure (`-x`), and
each test process is capped at `MEMORY` bytes of address space, so that a
mutant that appends events forever fails on a MemoryError instead of
filling the machine.

Each survivor is then run beside the unmutated kernel over the tests' fuzz
sets (`fuzz_windows`) in all three log modes, and its row gives the number
of runs whose y, J (in the modes that return one), end state or log differ
in any bit.  None marks a candidate for an equivalence argument; any shows
a difference that a new test can pin down.

Each mutant runs in a fresh copy of `src/`, `tests/` and the benchmark's
golden inputs.  Rewriting `simcore.py` in place for the next mutant is not
safe: Python reuses a cached `__pycache__` bytecode file while the source's
size and whole-second mtime match those recorded in it, and most mutants
keep the size (`+` for `-`, `==` for `!=`), so a rewrite within one second
could run the previous mutant's bytecode.  The test processes write no
bytecode either.
"""

from __future__ import annotations

import ast
import copy
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import types
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
KERNEL = Path("src", "tandemflow", "simcore.py")
FUNCTIONS = ("simulate", "_light_plan")
# The kernel tests, the fast whole-output digests first.
TESTS = ("tests/test_golden.py", "tests/test_simcore.py", "tests/test_ipa_rules.py",
         "tests/test_invariants.py", "tests/test_fused_window.py")
GOLDEN_INPUTS = ("benchmarks/golden.json", "benchmarks/sweep.cfg")
TIMEOUT = 60  # seconds for a whole run; the unmutated kernel's tests take about 20 s
BUDGET_FACTOR = 10  # a test's budget, in multiples of the unmutated run's slowest test
CUT = 86  # the exit status of a test process cut by its budget
MEMORY = 2 << 30  # bytes of address space per test process
ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
REPORT = ROOT / "MUTANTS.md"
MARKER = "<!-- Generated by tests/mutate.py: everything below this line. -->"

OPERATORS = ("delete", "cmp", "arith", "bool", "negate")
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.And: "and", ast.Or: "or",
}


class Mutant(NamedTuple):
    function: str
    line: int       # the first line of the mutated span
    operator: str   # one of OPERATORS
    change: str     # what the mutant changes, for the report
    head: str       # the kernel before the function,
    text: str       # the mutated function,
    tail: str       # and the kernel after it

    @property
    def source(self) -> str:
        return self.head + self.text + self.tail


def _first_line(node) -> str:
    text = ast.unparse(node).splitlines()[0]
    return text if len(text) <= 60 else text[:57] + "..."


def _swapped(node, i):
    """ast.unparse of `node` with its i-th comparison operator, or its
    operator, swapped; `node` itself is left as it is."""
    new = copy.copy(node)
    if isinstance(node, ast.Compare):
        new.ops = [SWAPS[type(op)]() if j == i else op for j, op in enumerate(node.ops)]
    else:
        new.op = SWAPS[type(node.op)]()
    return ast.unparse(new)


def _sites(func):
    """(node, operator, change, replacement) for each site in `func`, in
    source order.  The replacement takes the place of the node's span:
    "pass" for a deleted statement, the node rewritten with the operator
    swapped (in parentheses, for an expression), and None for a negated
    test."""
    found = []
    for node in ast.walk(func):
        if isinstance(node, ast.stmt):
            for i, stmt in enumerate(getattr(node, "body", []) + getattr(node, "orelse", [])):
                if not (node is func and i == 0 and isinstance(stmt, ast.Expr)):  # docstring
                    found.append((stmt, "delete", f"delete `{_first_line(stmt)}`", "pass"))
        if isinstance(node, ast.Compare):
            ops, operator = node.ops, "cmp"
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
            ops, operator = [node.op], "bool" if isinstance(node, ast.BoolOp) else "arith"
        else:
            ops = []
        for i, op in enumerate(ops):
            if type(op) in SWAPS:
                new = _swapped(node, i)
                found.append((node, operator, f"`{SYMBOLS[type(op)]}` to "
                              f"`{SYMBOLS[SWAPS[type(op)]]}` in `{_first_line(node)}`",
                              new if isinstance(node, ast.stmt) else f"({new})"))
        if isinstance(node, (ast.If, ast.While, ast.IfExp)):
            found.append((node.test, "negate", f"negate `{_first_line(node.test)}`", None))
    found.sort(key=lambda s: (s[0].lineno, s[0].col_offset, OPERATORS.index(s[1])))
    return found


def _splice(lines, first, node, replacement):
    """The function's lines (bytes; `first` is its first line number) with
    the node's span replaced, and padded with newlines so that no line
    number moves."""
    l0, l1 = node.lineno - first, node.end_lineno - first
    c0, c1 = node.col_offset, node.end_col_offset  # UTF-8 byte offsets
    pad = b"\n" * (l1 - l0)
    if replacement == "pass":
        indent = lines[l0][:len(lines[l0]) - len(lines[l0].lstrip())]
        return lines[:l0] + [indent + b"pass\n" + pad] + lines[l1 + 1:]
    if replacement is None:  # the span's own text, negated, keeps its newlines
        span = b"".join(lines[l0:l1 + 1])
        new = b"not (" + span[c0:len(span) - len(lines[l1]) + c1] + b")"
    elif isinstance(node, ast.stmt):  # an augmented assignment, on one line
        assert not pad, ast.unparse(node)
        new = replacement.encode()
    else:  # an expression: pad inside its parentheses
        new = replacement[:-1].encode() + pad + b")"
    return lines[:l0] + [lines[l0][:c0] + new + lines[l1][c1:]] + lines[l1 + 1:]


def mutants(path: Path = ROOT / KERNEL):
    """Every mutant of the kernel at `path`, in source order."""
    text = path.read_text()
    lines = text.encode().splitlines(keepends=True)
    for func in ast.parse(text).body:
        if not (isinstance(func, ast.FunctionDef) and func.name in FUNCTIONS):
            continue
        first, last = func.lineno, func.end_lineno
        head, tail = b"".join(lines[:first - 1]).decode(), b"".join(lines[last:]).decode()
        body = lines[first - 1:last]
        for node, operator, change, replacement in _sites(func):
            mutated = b"".join(_splice(body, first, node, replacement)).decode()
            yield Mutant(func.name, node.lineno, operator, change, head, mutated, tail)


class Budget:
    """A pytest plugin that times each test, from its set-up to its
    teardown, into `times` (node id to seconds), and, given `seconds`, ends
    the process with exit status CUT once one test has run that long.  The
    alarm's handler calls os._exit, which no test can catch."""

    def __init__(self, seconds: float):
        self.seconds, self.times = seconds, {}
        if seconds:
            signal.signal(signal.SIGALRM, lambda *_: os._exit(CUT))

    def pytest_runtest_logstart(self, nodeid, location):
        self.start = time.perf_counter()
        if self.seconds:
            signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def pytest_runtest_logfinish(self, nodeid, location):
        if self.seconds:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.times[nodeid] = time.perf_counter() - self.start


# A child process caps its address space, then runs its payload.  The test
# run takes the budget (0 for none) and the file for its times.
LIMIT = f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({MEMORY}, {MEMORY})); "
PYTEST = LIMIT + ("sys.path.insert(0, 'tests'); import json, mutate, pytest; "
                  "budget = mutate.Budget(float(sys.argv[1])); "
                  "status = pytest.main(sys.argv[3:], plugins=[budget]); "
                  "open(sys.argv[2], 'w').write(json.dumps(budget.times)); sys.exit(status)")
COMPARE = LIMIT + ("sys.path[:0] = sys.argv[2:]; import mutate; "
                   "print(*mutate.bit_mismatches(open(sys.argv[1]).read()))")


def run_tests(source: str, budget: float = 0.0):
    """'survived', 'killed' or 'cut' for the kernel `source`, run in a fresh
    scratch copy of the repository with each test cut at `budget` seconds
    (0 for no cut), and the times of the tests that finished."""
    with tempfile.TemporaryDirectory(prefix="tandemflow-mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        for name in GOLDEN_INPUTS + ("pyproject.toml",):
            (copy / name).parent.mkdir(exist_ok=True)
            shutil.copy2(ROOT / name, copy / name)
        (copy / KERNEL).write_text(source)
        env = dict(ENV, PYTHONPATH=str(copy / "src"))
        times = copy / "times.json"
        try:
            proc = subprocess.run(
                [sys.executable, "-c", PYTEST, str(budget), str(times),
                 "-x", "-q", "-p", "no:cacheprovider", *TESTS],
                cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "cut", {}
        if proc.returncode == CUT:
            return "cut", {}
        return ("survived" if proc.returncode == 0 else "killed",
                json.loads(times.read_text()) if times.exists() else {})


def fuzz_windows():
    """The tests' seeded fuzz sets, as `tests/test_fused_window.py` draws
    them: the windows of its whole-log digest (both oracle batteries and
    four more), 300 low-load windows, 200 windows near coincident epochs and
    40 busy-heavy windows."""
    import test_fused_window as windows
    yield from windows.log_digest_windows()
    rng = random.Random(11)
    for _ in range(300):
        yield windows.random_low_load_window(rng)
    rng = random.Random(2024)
    for _ in range(200):
        yield windows.fuzz_window(rng)[0]
    yield from windows.busy_heavy_windows()


def bit_mismatches(source: str):
    """(runs, mismatches) of the kernel `source` against the current one:
    each fuzz window in each log mode is a run, and it mismatches when y,
    the end state, J (where the current kernel returns one; the signature
    pass returns none) or the log differ in any bit (floats as float.hex),
    or when the kernel `source` raises.  Needs `tests/` and `src/` on
    sys.path."""
    from tandemflow import simcore
    from test_fused_window import bits, log_bits

    def outputs(traj):
        jac = traj.jac
        return bits(*traj.y, *traj.x_end) + (() if jac is None else bits(jac.j11, jac.j21, jac.j22))

    mutant = types.ModuleType("mutant")
    sys.modules["mutant"] = mutant  # a dataclass looks up its module
    exec(compile(source, "mutant.py", "exec"), vars(mutant))
    runs = mismatches = 0
    for a1, a2t, plan, service, phi, x0, horizon, t0 in fuzz_windows():
        for log in (False, True, simcore.SIGNATURE):
            want = simcore.simulate(a1, a2t, plan, service, phi, x0, horizon, t0=t0, log=log)
            runs += 1
            key = log_bits if log is True else list
            try:
                got = mutant.simulate(a1, a2t, plan, service, phi, x0, horizon, t0=t0, log=log)
                mismatches += outputs(got) != outputs(want) or key(got.events) != key(want.events)
            except Exception:
                mismatches += 1
    return runs, mismatches


def compare(source: str) -> str:
    """`bit_mismatches` of the kernel `source`, run in a child process with
    the whole test run's timeout and memory cap, as "k of n runs differ"."""
    with tempfile.TemporaryDirectory(prefix="tandemflow-mutant-") as tmp:
        path = Path(tmp, "mutant.py")
        path.write_text(source)
        try:
            proc = subprocess.run([sys.executable, "-c", COMPARE, str(path), str(ROOT / "tests"),
                                   str(ROOT / "src")], env=ENV, capture_output=True, text=True,
                                  timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timed out"
    if proc.returncode:
        return "failed"
    runs, mismatches = proc.stdout.split()
    return f"{mismatches} of {runs} runs differ"


def report(rows) -> str:
    """The generated part of MUTANTS.md: the counts, and one row per mutant
    with its outcome and, for a survivor, its bit comparison."""
    count = Counter(outcome for _, outcome, _ in rows)
    by_op = Counter(m.operator for m, _, _ in rows)
    total, killed = len(rows), count["killed"] + count["cut"]
    out = [MARKER, "",
           f"{total} mutants ({', '.join(f'{by_op[op]} {op}' for op in OPERATORS)}): "
           f"{count['killed']} killed, {count['cut']} cut, {count['survived']} survived. "
           f"Kill rate {killed}/{total} = {100.0 * killed / total:.1f}%.", "",
           "| # | function | line | operator | mutation | outcome |",
           "| ---: | --- | ---: | --- | --- | --- |"]
    for n, (m, outcome, bits) in enumerate(rows, 1):
        if outcome == "survived":
            outcome = f"**survived**: {bits}"
        change = m.change.replace("|", "\\|")
        out.append(f"| {n} | `{m.function}` | {m.line} | {m.operator} | {change} | {outcome} |")
    return "\n".join(out) + "\n"


def main() -> int:
    start = time.perf_counter()
    outcome, times = run_tests((ROOT / KERNEL).read_text())
    if outcome != "survived":
        print("the kernel tests fail on the unmutated kernel; no mutant was run", file=sys.stderr)
        return 1
    slowest = max(times, key=times.get)
    budget = BUDGET_FACTOR * times[slowest]
    print(f"{len(times)} tests; slowest {slowest} {times[slowest]:.2f} s; "
          f"each mutant's tests are cut at {budget:.1f} s", flush=True)
    found = list(mutants())
    outcomes = []
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        runs = pool.map(lambda source: run_tests(source, budget)[0], (m.source for m in found))
        for m, outcome in zip(found, runs):
            outcomes.append(outcome)
            if outcome == "survived":
                print(f"survived: {m.function}:{m.line} {m.operator} {m.change}", flush=True)
            if len(outcomes) % 50 == 0:
                print(f"{len(outcomes)}/{len(found)} mutants run", flush=True)
        survivors = [m.source for m, outcome in zip(found, outcomes) if outcome == "survived"]
        bits = iter(list(pool.map(compare, survivors)))
    text = report([(m, outcome, next(bits) if outcome == "survived" else "")
                   for m, outcome in zip(found, outcomes)])
    head = REPORT.read_text().split(MARKER)[0] if REPORT.exists() else "# Mutation audit\n\n"
    REPORT.write_text(head + text)
    print(text.splitlines()[2])
    print(f"audit wall time {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
