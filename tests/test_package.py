"""The package surface: what `tandemflow` exports, and what it must not ship.

The package computes y and J in one pass, inside `simcore.simulate`.  The
tests check it against tests/exact_reference.py, an exact-rational
simulator that must stay independent of the package.  These checks keep a
second sensitivity pass, and the surface that only a second pass read, from
returning to the package.  They also pin the event log's fields, the one
advance that `simulate`'s general batch and busy run share, the one loop
that its logged and unlogged passes share, and the module globals that the
benchmark harness replaces to time its cycles.
"""

import ast
import dataclasses
import importlib.util
import inspect
import sys
from pathlib import Path

import tandemflow
from tandemflow import oracle, regulator, scenario, simcore

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
    # The loop threads theta and the gain as locals; e is read in its cycle.
    assert not hasattr(regulator, "ControllerState")
    # One window's audit is one function, grad_check.
    for name in ("_window", "analytic_jacobian", "fd_jacobian"):
        assert not hasattr(oracle, name)


def test_inputs_are_stated_once():
    # A queue follows its ramp when one is given, else its beta_max; the
    # plant starts from empty queues; the stochastic battery is fixed.
    assert [f.name for f in dataclasses.fields(simcore.ServiceProfile)] == \
        ["beta_max1", "beta_max2", "ramp1", "ramp2"]
    assert "x0" not in inspect.signature(regulator.make_traffic_plant).parameters
    assert list(inspect.signature(oracle.stochastic_scenarios).parameters) == []


def test_event_log_records_only_what_its_readers_read():
    # Each event carries the state just after it; no reader needs a left limit.
    assert simcore.Event._fields == (
        "epoch", "kind", "queue", "x1", "x2", "busy1_r", "busy2_r", "green1_r", "green2_r",
        "a1_r", "b1_r", "b2_r", "alpha2_r", "trigger_kind", "trigger_queue")
    assert simcore.Event._field_defaults == {}


def simulate_ast():
    tree = ast.parse(Path(simcore.__file__).read_text())
    [func] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "simulate"]
    return func


def test_simulate_has_one_advance():
    # The busy run is a loop around the one advance, not a second copy of
    # the kernel: each queue's drain appears once in simulate.
    func = simulate_ast()
    drains = [ast.unparse(n) for n in ast.walk(func) if isinstance(n, ast.AugAssign)]
    for drain in ("x1 += s1 * dt", "x2 += s2 * dt"):
        assert drains.count(drain) == 1, drain


def test_log_only_guards_appends():
    # `log` decides whether events are appended, and in which form, and
    # nothing else: past the two set-up statements that check it and set
    # `full`, every read of it is the whole test of an `if log:` whose body
    # only appends.  So all three modes run one loop, and its float
    # operations but for the Jacobian integrals, which only `ipa` guards and
    # the signature pass skips (below).  Each append passes, when `full`,
    # one plain tuple literal with a value for every field of Event, so no
    # constructor checks the count at run time, and otherwise the code
    # 4 * kind + queue of that tuple's kind and queue, a small int that
    # CPython caches.
    func = simulate_ast()
    assert "log" in [a.arg for a in func.args.kwonlyargs]
    guards = [n for n in ast.walk(func)
              if isinstance(n, ast.If) and isinstance(n.test, ast.Name) and n.test.id == "log"]
    reads = [n for n in ast.walk(func)
             if isinstance(n, ast.Name) and n.id == "log" and isinstance(n.ctx, ast.Load)]
    guard_tests = {id(g.test) for g in guards}
    set_up = [n for n in func.body if any(id(r) not in guard_tests for r in ast.walk(n)
                                          if r in reads)]
    assert [ast.unparse(n).splitlines()[0] for n in set_up] == [
        "if log not in (False, True, SIGNATURE):", "full = log != SIGNATURE"]
    assert isinstance(set_up[0].body[0], ast.Raise)
    set_up_reads = [id(r) for n in set_up for r in ast.walk(n) if r in reads]
    assert guards and sorted(map(id, reads)) == sorted([*guard_tests, *set_up_reads])
    records = []
    for guard in guards:
        assert not guard.orelse, ast.unparse(guard)
        for stmt in guard.body:
            assert isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call) \
                and ast.unparse(stmt.value.func) == "append_event", ast.unparse(stmt)
            [record] = stmt.value.args
            assert not stmt.value.keywords and isinstance(record, ast.IfExp) \
                and ast.unparse(record.test) == "full" and isinstance(record.body, ast.Tuple) \
                and len(record.body.elts) == len(simcore.Event._fields), ast.unparse(stmt)
            records.append(record)
    # Past the records, `full` is read by the one assignment of `ipa`, which
    # is false in the signature pass and while every IPA value is 0, and by
    # the return, which then gives no J.  No `if full:` block is left.
    fulls = [n for n in ast.walk(func) if isinstance(n, ast.Name) and n.id == "full"
             and isinstance(n.ctx, ast.Load)]
    [ipa_set] = [n for n in ast.walk(func) if isinstance(n, ast.Assign)
                 and [ast.unparse(t) for t in n.targets] == ["ipa"]]
    assert ast.unparse(ipa_set) == "ipa = full and (v11 != 0.0 or v22 != 0.0 or v21 != 0.0)"
    [ret] = [n for n in func.body if isinstance(n, ast.Return)]
    jac = ret.value.args[3]
    assert isinstance(jac, ast.IfExp) and ast.unparse(jac.test) == "full" \
        and ast.unparse(jac.orelse) == "None", ast.unparse(jac)
    assert sorted(map(id, fulls)) == sorted(
        [*(id(r.test) for r in records), id(ipa_set.value.values[0]), id(jac.test)])
    # `ipa` is read only as the whole test of `if ipa:` blocks that only
    # update the Jacobian integrals and the epoch tp they reach; its other
    # store is the False it starts at.
    ipas = [n for n in ast.walk(func) if isinstance(n, ast.Name) and n.id == "ipa"]
    integrals = [n for n in ast.walk(func)
                 if isinstance(n, ast.If) and isinstance(n.test, ast.Name) and n.test.id in ("full", "ipa")]
    for block in integrals:
        assert block.test.id == "ipa" and not block.orelse and all(
            isinstance(stmt, ast.AugAssign) or isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
            for stmt in block.body), ast.unparse(block)
        targets = [stmt.target if isinstance(stmt, ast.AugAssign) else stmt.targets[0]
                   for stmt in block.body]
        assert {"r11", "r22", "r21"} <= {ast.unparse(n) for n in targets} <= \
            {"dtp", "r11", "r22", "r21", "tp"}, ast.unparse(block)
    [ipa_init] = [n for n in ipas if isinstance(n.ctx, ast.Store) and n is not ipa_set.targets[0]]
    assert integrals and sorted(map(id, ipas)) == sorted(
        [*(id(b.test) for b in integrals), id(ipa_set.targets[0]), id(ipa_init)])
    [init] = [n for n in ast.walk(func) if isinstance(n, ast.Assign)
              and any(t is ipa_init for t in n.targets)]
    assert ast.unparse(init.value) == "False"

    def value(node, kind, queue):
        env = {**vars(simcore), "kind": kind, "queue": queue}
        return eval(compile(ast.Expression(node), simcore.__file__, "eval"), env)

    for record in records:
        _, kind, queue = record.body.elts[:3]
        for k in range(simcore.CONTROL_CYCLE_BOUNDARY + 1):
            for q in range(3):
                code = value(record.orelse, k, q)
                assert code == 4 * value(kind, k, q) + value(queue, k, q) and 0 <= code < 256, \
                    ast.unparse(record)
    assert len(records) == 15


def test_benchmark_hooks_see_every_call(monkeypatch):
    # benchmarks/bench.py times control cycles by replacing the module
    # globals scenario.run_closed_loop, whose first argument is the plant,
    # regulator.invert_gain, regulator.control_step and oracle.grad_check.
    # A caller that bound any of these names elsewhere would bypass the
    # timing.  It rebuilds the guard counts from the loop's records and its
    # mode, guards and initial_gain arguments, bound by name.
    loops, plant_ks, controls, checks = [], [], [], []
    run_closed_loop, grad_check = scenario.run_closed_loop, oracle.grad_check

    def counting_loop(plant, *args, **kwargs):
        def counting_plant(theta, k):
            plant_ks.append(k)
            return plant(theta, k)
        loops.append((plant, *args))
        return run_closed_loop(counting_plant, *args, **kwargs)

    def counting(name):
        fn = getattr(regulator, name)

        def wrapper(*args, **kwargs):
            controls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    def counting_check(*args, **kwargs):
        checks.append(args)
        return grad_check(*args, **kwargs)

    monkeypatch.setattr(scenario, "run_closed_loop", counting_loop)
    for name in ("invert_gain", "control_step"):
        monkeypatch.setattr(regulator, name, counting(name))
    monkeypatch.setattr(oracle, "grad_check", counting_check)
    cfg = dataclasses.replace(scenario.default_paper_config(), num_control_cycles=2)
    assert len(scenario.run_replication(cfg, 0)) == 2
    assert len(loops) == 1 and plant_ks == [1, 2]
    assert controls == ["invert_gain", "control_step"] * 2
    bound = inspect.signature(run_closed_loop).bind(*loops[0])
    bound.apply_defaults()
    assert bound.arguments["mode"] == cfg.mode
    assert bound.arguments["guards"] == cfg.guards()
    assert bound.arguments["initial_gain"] == regulator.IDENTITY
    reports = oracle.run_battery(oracle.deterministic_scenarios()[:1], oracle.DEFAULT_DET_H,
                                 oracle.DEFAULT_DET_TOL)
    assert len(reports) == len(checks) == 1


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
