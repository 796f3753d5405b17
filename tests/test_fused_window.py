"""simulate's online window outputs against the exact reference.

simulate computes each window's averages y, Jacobian J and end state in the
pass that applies the events.  With the log built or not they must be the
same bits (the signature pass returns no J, and the same y and end state),
and they must lie within a rounding bound of the exact-rational
simulator in exact_reference, on windows of a reduced table1 sweep, of both
gradient-oracle batteries and of a seeded fuzz near coincident epochs.  One
recorded digest pins every field of every logged event on a fixed set of
windows.

Both passes take two shortcuts past the general batch: the skip over
arrival jumps that fall while both queues are empty, and the busy run,
which applies each lone arrival jump in place while a queue is busy.  Their
bit oracle is the tie-forced window (`tie_forced`): each arrival stream
gains a no-op epoch at every epoch of the other, so no arrival epoch is
lone and both passes hand every one to the general batch.  Hand-made and
random low-load windows pin the skip; hand-made and seeded busy-heavy
windows pin the busy run.  Seeded windows restarted at every batch epoch,
and two hand-made windows that start on a staircase step and on a green
onset, pin which light-plan entries are in force at t0.  Windows with a
ramp on one queue only pin that the other queue is served at its beta_max.
Every checked window also stays within the loop's batch bound, counted by a
copy of simulate compiled here with a counter at the top of the batch.
"""

import ast
import dataclasses
import hashlib
import inspect
import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction

import pytest

from exact_reference import assert_close, assert_jacobian, exact_jacobian, exact_window
from tandemflow import simcore
from tandemflow.cli import DEFAULT_ZETAS
from tandemflow.oracle import (
    DEFAULT_DET_H,
    DEFAULT_STOCH_H,
    deterministic_scenarios,
    stochastic_scenarios,
)
from tandemflow.regulator import CENTRALIZED, DECENTRALIZED
from tandemflow.scenario import _closed_loop, default_paper_config, gen_onoff
from tandemflow.simcore import (
    BUSY_START,
    EMPTY_START,
    EXO_RATE_JUMP,
    GREEN_START,
    INTERNAL_RATE_JUMP,
    RED_START,
    SIGNATURE,
    Event,
    PhasePlan,
    PiecewiseConstantRate,
    ServiceProfile,
    _light_plan,
    constant_rate,
    simulate,
)

SWEEP_WINDOWS = 10


def bits(*xs):
    """Exact identity of floats, telling -0.0 from 0.0."""
    return tuple(float(x).hex() for x in xs)


def fused(traj):
    jac = traj.jac
    return bits(*traj.y, jac.j11, jac.j21, jac.j22, *traj.x_end)


def named(traj):
    """The trajectory's logged events as `Event` named tuples, for reads by
    name; the log itself holds plain tuples in `Event._fields` order."""
    return list(map(Event._make, traj.events))


def log_bits(events):
    """Exact identity of an event log, floats as float.hex."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in e) for e in events]


def tie_forced(a1, a2t, t0, horizon):
    """The window's arrival pair with every arrival epoch tied.

    Each stream gains a no-op epoch, at the rate already in force, at each
    epoch of the other stream in [t0, horizon) that it lacks; epochs outside
    the window are dropped, and the rate in force at t0 is kept.  Every
    arrival epoch is then a tie, so neither the skip nor the busy run takes
    one: each ends a general batch.  A no-op jump logs nothing and falls
    inside a batch that the other stream's jump ends anyway, so the window's
    bits and log are those of the original pair through the batch alone.
    """
    window = sorted({e for arr in (a1, a2t)
                     for e in arr.epochs[bisect_left(arr.epochs, t0):bisect_left(arr.epochs, horizon)]})

    def forced(arr):
        i = bisect_left(arr.epochs, t0)
        head = [(0.0, arr.rates[i - 1])] if i else []
        return PiecewiseConstantRate(
            head + [(e, arr.rates[bisect_right(arr.epochs, e) - 1]) for e in window], horizon)

    return forced(a1), forced(a2t)


def counting_simulate():
    """A copy of `simulate` that counts its general batches, and the list
    whose one item it counts in: compiled from simulate's source with
    `batches[0] += 1` added at the top of the outer loop, in a copy of the
    module's globals.  The package itself keeps no counter."""
    tree = ast.parse(inspect.getsource(simulate))
    [func] = tree.body
    [loop] = [n for n in func.body if isinstance(n, ast.While)]
    loop.body.insert(0, ast.parse("batches[0] += 1").body[0])
    namespace = dict(vars(simcore), batches=[0])
    exec(compile(ast.fix_missing_locations(tree), simcore.__file__, "exec"), namespace)
    return namespace["simulate"], namespace["batches"]


COUNTING_SIMULATE, BATCHES = counting_simulate()


def count_batches(a1, a2t, plan, service, phi, x0, horizon, t0):
    """The counting copy's bare pass, its general batches, and the bound
    3*N + 4 that simulate's docstring states, N being the light-plan entries
    and arrival epochs in [t0, horizon)."""
    BATCHES[0] = 0
    traj = COUNTING_SIMULATE(a1, a2t, plan, service, phi, x0, horizon, t0=t0, log=False)
    n = len(_light_plan(plan, service, t0, horizon)[0]) - 1 + sum(
        bisect_left(a.epochs, horizon) - bisect_left(a.epochs, t0) for a in (a1, a2t))
    return traj, BATCHES[0], 3 * n + 4


def check_window(a1, a2t, plan, service, phi, x0, horizon, t0, exact=True):
    """The same bits from the bare pass, the logged pass and the tie-forced
    window, the same log from the logged pass and the tie-forced window,
    the same y, end state and (kind, queue) codes from the signature pass,
    which returns no J, no more general batches than the loop's bound, and,
    if `exact`, y and the end state within the rounding bound of the exact
    reference.  Returns the logged pass."""
    logged = simulate(a1, a2t, plan, service, phi, x0, horizon, t0=t0)
    bare = simulate(a1, a2t, plan, service, phi, x0, horizon, t0=t0, log=False)
    sig = simulate(a1, a2t, plan, service, phi, x0, horizon, t0=t0, log=SIGNATURE)
    assert sig.jac is None and bits(*sig.y, *sig.x_end) == bits(*logged.y, *logged.x_end)
    assert sig.events == [4 * kind + queue for _, kind, queue, *_ in logged.events]
    counted, batches, bound = count_batches(a1, a2t, plan, service, phi, x0, horizon, t0)
    assert fused(counted) == fused(bare) and batches <= bound
    oracle = simulate(*tie_forced(a1, a2t, t0, horizon), plan, service, phi, x0, horizon, t0=t0)
    assert fused(bare) == fused(logged) == fused(oracle) and bare.events == []
    assert log_bits(logged.events) == log_bits(oracle.events)
    if exact:
        assert_close(bare, exact_window(a1, a2t, plan, service, phi, x0, horizon, t0), x0)
    return logged


@pytest.mark.parametrize("zeta", DEFAULT_ZETAS)
def test_reduced_table1_sweep(zeta):
    # Replay each closed-loop run's theta sequence window by window.  Both
    # modes run on the one arrival pair, as in run_sweep.  The first and the
    # last window are held to the exact reference.
    base = dataclasses.replace(default_paper_config(), num_control_cycles=SWEEP_WINDOWS,
                               alpha1_zeta=zeta, alpha2_zeta=zeta)
    a1, a2t = base.arrival_pair(0)
    for mode in (CENTRALIZED, DECENTRALIZED):
        cfg = dataclasses.replace(base, mode=mode)
        records = _closed_loop(cfg, (a1, a2t))
        assert len(records) == SWEEP_WINDOWS
        t_window = cfg.cycles_per_control * cfg.c1
        x = (0.0, 0.0)
        for rec in records:
            plan = PhasePlan(cfg.c1, cfg.c2, *rec.theta)
            traj = check_window(a1, a2t, plan, cfg.service_profile(), cfg.phi, x, rec.k * t_window,
                                (rec.k - 1) * t_window, rec.k in (1, SWEEP_WINDOWS))
            jac = rec.jac
            assert bits(*rec.y, jac.j11, jac.j21, jac.j22) == \
                bits(*traj.y, traj.jac.j11, traj.jac.j21, traj.jac.j22)
            x = traj.x_end


def battery_windows():
    """The nominal and the four perturbed windows of every scenario of both
    gradient-oracle batteries."""
    for scn, h in [(s, DEFAULT_DET_H) for s in deterministic_scenarios()] + \
            [(s, DEFAULT_STOCH_H) for s in stochastic_scenarios()]:
        th1, th2 = scn.plan.theta1, scn.plan.theta2
        for d1, d2 in ((0.0, 0.0), (h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)):
            plan = PhasePlan(scn.plan.c1, scn.plan.c2, th1 + d1, th2 + d2)
            yield (scn.arrivals1, scn.arrivals2_tilde, plan, scn.service, scn.phi,
                   scn.x0, scn.horizon, scn.t0)


def test_oracle_battery_windows():
    assert {"ramp-service", "ramp-heavy", "unequal-cycles", "midstream-start"} <= \
        {s.name for s in deterministic_scenarios()}
    # The exact reference checks each nominal window; the gradient test
    # holds J to its exact derivative.
    for i, args in enumerate(battery_windows()):
        check_window(*args, exact=i % 5 == 0)


def test_batch_bound_is_reached():
    # No light-plan entry or arrival epoch falls in [0.1, 0.3), so N = 0.
    # Both queues drain in green from backlogs and empty apart, at about
    # 0.15 and 0.245: the first batch, two emptyings and the horizon make
    # 3*0 + 4 batches.
    args = (constant_rate(0.0, 1.0), constant_rate(0.0, 1.0), PhasePlan(1.0, 1.0, 0.05, 0.05),
            ServiceProfile(5.0, 5.0), 0.9, (0.25, 0.5), 0.3, 0.1)
    _, batches, bound = count_batches(*args)
    assert batches == bound == 4
    assert [(e.kind, e.queue) for e in named(check_window(*args))[1:-1]] == \
        [(EMPTY_START, 1), (EMPTY_START, 2)]


# Queue 1's staircase steps at 0.1 and 0.25 s into its green, queue 2's at
# 0.15 s.
STAIRS = ServiceProfile(
    5.0, 5.0,
    ramp1=PiecewiseConstantRate([(0.0, 2.0), (0.1, 4.0), (0.25, 5.0)], 1.0),
    ramp2=PiecewiseConstantRate([(0.0, 2.5), (0.15, 5.0)], 1.0))


def test_idle_staircase_steps_do_not_split_the_integrals():
    # Queue 1 drains early in each green, so its later service steps log no
    # event while the busy queue 2 carries nonzero sensitivities: the online
    # integrals must span those steps and still give the exact derivative,
    # checked on every other window.
    rng = random.Random(5)
    checked = 0
    for i in range(60):
        h = 6.0
        plan = PhasePlan(1.0, rng.choice([1.0, 1.3]), rng.uniform(0.2, 0.6),
                         rng.uniform(0.1, 0.5))
        args = (constant_rate(rng.uniform(0.1, 1.0), h), constant_rate(rng.uniform(3.0, 5.5), h),
                plan, STAIRS, rng.uniform(0.3, 1.0), (0.0, rng.uniform(0.0, 2.0)), h, 0.0)
        traj = check_window(*args)
        if i % 2:
            checked += assert_jacobian(traj.jac, exact_jacobian(*args))
    assert checked >= 50


# A hand-made ramp-service window whose epochs are exact binary fractions.
# At 1.5 four changes coincide: light 2 turns green, both arrival streams
# jump and queue 1's service steps up (green since 1.25, step offset 0.25).
# Queue 1's next step, 1.25 + 0.75, lands exactly on its red start at 2.0
# and must be cancelled.  Arrivals 1 repeat their rate at 1.75 (a no-op
# jump that still ends a batch), and both streams have epochs exactly at
# t0 = 1.0 and at the horizon 3.0.
TIE_SERVICE = ServiceProfile(
    5.0, 5.0,
    ramp1=PiecewiseConstantRate([(0.0, 2.0), (0.25, 4.0), (0.75, 5.0)], 1.0),
    ramp2=PiecewiseConstantRate([(0.0, 2.5), (0.3, 5.0)], 1.0))
TIE_A1 = PiecewiseConstantRate([(0.0, 1.0), (1.0, 1.5), (1.5, 2.5), (1.75, 2.5),
                                (2.25, 0.5), (3.0, 4.0), (3.5, 1.0)], 4.0)
TIE_A2 = PiecewiseConstantRate([(0.0, 0.5), (1.0, 0.75), (1.5, 1.25), (2.6, 0.25),
                                (3.0, 2.0)], 4.0)
TIE_PLAN = PhasePlan(1.0, 1.0, 0.25, 0.5)

# y1, y2, j11, j21, j22, x1_end, x2_end as recorded once: any change to the
# order of the float operations shows here, including the split of the
# trapezoid sums at the no-op jump.  t0 = 1.375 starts inside queue 1's
# green, with its step at 1.5 still pending.
TIE_PINNED = {
    1.0: ("0x1.5c00000000000p+1", "0x1.b3ae147ae147bp+1", "0x1.2000000000000p+2",
          "-0x1.ccccccccccccdp+1", "0x1.1000000000000p+2", "0x1.ffffffffffffep-1",
          "0x1.1666666666666p+2"),
    1.375: ("0x1.249d89d89d89dp+1", "0x1.9a67f9b2ce602p+1", "0x1.b13b13b13b13bp+1",
            "-0x1.5a95a95a95a96p+1", "0x1.4ec4ec4ec4ec5p+2", "0x1.5fffffffffffep-1",
            "0x1.ef33333333333p+1"),
}


@pytest.mark.parametrize("t0", sorted(TIE_PINNED))
def test_tie_order_and_no_op_boundaries_are_pinned(t0):
    logged = check_window(TIE_A1, TIE_A2, TIE_PLAN, TIE_SERVICE, 0.8, (3.0, 2.0), 3.0, t0)
    assert fused(logged) == TIE_PINNED[t0]

    events = named(logged)
    at = lambda t: [(e.kind, e.queue) for e in events[1:-1] if e.epoch == t]
    # Documented batch priority: light switches, queue 1's arrival jump,
    # queue 2's, then staircase steps.
    assert at(1.5) == [(GREEN_START, 2), (EXO_RATE_JUMP, 1), (EXO_RATE_JUMP, 2),
                       (INTERNAL_RATE_JUMP, 1)]
    assert at(2.0) == [(RED_START, 1), (RED_START, 2)]
    # The no-op jump logs nothing; the batch it still ends is in the pins.
    assert at(1.75) == []
    if t0 == 1.0:
        assert at(1.0) == [(RED_START, 1), (RED_START, 2), (EXO_RATE_JUMP, 1),
                           (EXO_RATE_JUMP, 2)]
    # Arrival epochs at the horizon belong to the next window.
    assert at(3.0) == []
    assert (events[-1].a1_r, events[-1].alpha2_r) == (0.5, 0.8 * 4.0 + 0.25)


# Every field of the log, in Event's field order.  Floats are hashed as
# float.hex, ints and bools as repr, so a change in any bit of any field of
# any event (x2 and alpha2_r included, which neither y nor J read) changes
# the digest.  Windows from t0 = 0.0 open red and log no red start at 0.0.
EVENT_FIELDS = ("epoch", "kind", "queue", "x1", "x2", "busy1_r", "busy2_r", "green1_r",
                "green2_r", "a1_r", "b1_r", "b2_r", "alpha2_r", "trigger_kind", "trigger_queue")
LOG_DIGEST = "8e276d5d3ab8e037ef9871ed12d789978e617c9c945d1eda583fc21301aea408"


def log_digest_windows():
    """The windows of the whole-log digest: the oracle batteries' windows,
    three reference-config windows and one ramp-service window on the
    reference arrivals."""
    yield from battery_windows()
    cfg = default_paper_config()
    a1, a2t = cfg.arrival_pair(0)
    const = cfg.service_profile()
    for theta, x0, t0 in (((0.8, 0.8), (0.0, 0.0), 0.0), ((0.31, 0.41), (0.0, 0.0), 200.0),
                          ((0.29, 0.44), (0.37, 0.21), 180.0)):
        yield a1, a2t, PhasePlan(cfg.c1, cfg.c2, *theta), const, cfg.phi, x0, t0 + 20.0, t0
    yield a1, a2t, PhasePlan(cfg.c1, cfg.c2, 0.35, 0.45), STAIRS, cfg.phi, (0.5, 0.3), 320.0, 300.6


def test_whole_event_log_is_pinned():
    # The log holds each event's values in Event's field order, so hashing
    # them by position reads the fields in EVENT_FIELDS order.
    assert EVENT_FIELDS == Event._fields
    digest = hashlib.sha256()
    for a1, a2t, plan, service, phi, x0, horizon, t0 in log_digest_windows():
        for ev in simulate(a1, a2t, plan, service, phi, x0, horizon, t0=t0).events:
            digest.update(" ".join(v.hex() if isinstance(v, float) else repr(v)
                                   for v in ev).encode())
            digest.update(b"\n")
        digest.update(b"--\n")
    assert digest.hexdigest() == LOG_DIGEST


def test_signature_log_codes_each_logged_event():
    # log=SIGNATURE appends 4 * kind + queue where log=True appends the
    # event's tuple, markers included.  All three modes give y and the end
    # state the same bits; False and True give J the same bits, and the
    # signature pass, which skips the busy run's Jacobian integrals, none.
    windows = 0
    for a1, a2t, plan, service, phi, x0, horizon, t0 in log_digest_windows():
        bare, full, sig = (simulate(a1, a2t, plan, service, phi, x0, horizon, t0=t0, log=log)
                           for log in (False, True, SIGNATURE))
        assert sig.events == [4 * e.kind + e.queue for e in named(full)]
        assert {type(c) for c in sig.events} == {int}
        assert fused(bare) == fused(full) and sig.jac is None
        assert bits(*bare.y, *bare.x_end) == bits(*sig.y, *sig.x_end)
        windows += 1
    assert windows == 5 * 32 + 4  # the battery windows, three reference ones, one ramp


# Hand-made windows around the empty-period skip: constant service at 5.0,
# both cycles 1.0, epochs exact binary fractions.  Each entry is
# (arrivals1, arrivals2_tilde, (theta1, theta2), phi, x0, t0, checked epoch,
# the (kind, queue) pairs logged there).  Every window opens with both
# queues empty, and each checked epoch falls while they still are.
EDGE_SERVICE = ServiceProfile(5.0, 5.0)
EDGE_WINDOWS = {
    # Skipped jumps at 0.5625 (queue 1) and 0.59375 (queue 2), then one
    # that fills queue 1 in green; queue 1 stays busy into the next red.
    "queue-1 jump fills queue 1": (
        [(0.0, 0.0), (0.5625, 1.0), (0.625, 6.0), (0.96875, 0.0)],
        [(0.0, 0.0), (0.59375, 0.5)], (0.5, 0.5), 0.5, (0.0, 0.0), 0.0,
        0.625, [(EXO_RATE_JUMP, 1), (BUSY_START, 1)]),
    # Queue 1 green, queue 2 red: a jump too small to fill queue 1 fills
    # queue 2 through phi.
    "queue-1 jump fills only queue 2": (
        [(0.0, 0.0), (0.375, 1.0), (0.4375, 0.0)], [(0.0, 0.0)],
        (0.25, 0.75), 0.5, (0.0, 0.0), 0.0,
        0.375, [(EXO_RATE_JUMP, 1), (BUSY_START, 2)]),
    "queue-2-only jump fills queue 2": (
        [(0.0, 0.0)], [(0.0, 0.0), (0.5625, 1.0), (0.625, 6.0), (0.875, 0.0)],
        (0.5, 0.5), 0.5, (0.0, 0.0), 0.0,
        0.625, [(EXO_RATE_JUMP, 2), (BUSY_START, 2)]),
    # phi * a1 + a2t - b2 is exactly 0.0 after the queue-1 jump at 0.625
    # (0.5 * 4 + 3 - 5) and again after the queue-2 jump at 0.671875; a1 - b1
    # is exactly 0.0 after the jump at 0.6875, which fills queue 2 only.
    "net inflow exactly zero does not fill": (
        [(0.0, 0.0), (0.625, 4.0), (0.6875, 5.0), (0.8125, 0.0)],
        [(0.0, 0.0), (0.5625, 3.0), (0.65625, 2.0), (0.671875, 3.0), (0.8125, 0.0)],
        (0.5, 0.5), 0.5, (0.0, 0.0), 0.0,
        0.671875, [(EXO_RATE_JUMP, 2)]),
    # A net inflow one ulp above zero still fills: queue 1 at 0.5625, and
    # once it has drained, queue 2 at 0.625.
    "net inflow one ulp above zero fills": (
        [(0.0, 0.0), (0.5625, math.nextafter(5.0, 6.0)), (0.59375, 0.0)],
        [(0.0, 0.0), (0.53125, 1.0), (0.625, math.nextafter(5.0, 6.0)), (0.875, 0.0)],
        (0.5, 0.5), 0.0, (0.0, 0.0), 0.0,
        0.5625, [(EXO_RATE_JUMP, 1), (BUSY_START, 1)]),
    "arrival on a green onset": (
        [(0.0, 0.0), (0.5, 6.0), (0.75, 0.0)], [(0.0, 0.0), (0.5625, 0.5)],
        (0.5, 0.5), 0.5, (0.0, 0.0), 0.0,
        0.5, [(GREEN_START, 1), (GREEN_START, 2), (EXO_RATE_JUMP, 1), (BUSY_START, 1)]),
    # At 1.0 both lights turn red: the jump to 1.0 would not fill queue 1
    # against the green rate, but fills it against the red one.
    "arrival on a red start": (
        [(0.0, 0.0), (0.75, 0.0), (1.0, 1.0), (1.125, 0.0)], [(0.0, 0.0)],
        (0.5, 0.5), 0.5, (0.0, 0.0), 0.5,
        1.0, [(RED_START, 1), (RED_START, 2), (EXO_RATE_JUMP, 1), (BUSY_START, 1)]),
    # Neither jump at 0.8125 fills queue 2 alone (0.5 * 4 + 1 - 5 < 0 and
    # 0 + 4 - 5 < 0); together they do.
    "tied arrival jumps": (
        [(0.0, 0.0), (0.8125, 4.0), (0.875, 0.0)],
        [(0.0, 0.0), (0.75, 1.0), (0.8125, 4.0), (0.875, 0.0)],
        (0.5, 0.5), 0.5, (0.0, 0.0), 0.0,
        0.8125, [(EXO_RATE_JUMP, 1), (EXO_RATE_JUMP, 2), (BUSY_START, 2)]),
    # Jumps to the rate in force log nothing; t0 = 0.53125 is itself an
    # arrival epoch inside the green.
    "no-op jumps": (
        [(0.0, 0.0), (0.53125, 0.0), (0.5625, 1.0), (0.625, 1.0), (0.6875, 6.0),
         (0.75, 0.0)],
        [(0.0, 0.5), (0.59375, 0.5), (0.65625, 0.5)], (0.5, 0.5), 0.5, (0.0, 0.0),
        0.53125, 0.625, []),
    # Signed zero contents: never filled, they leave the window unchanged.
    "negative-zero contents": (
        [(0.0, 0.0), (0.5625, 1.0), (0.625, 2.0), (0.9375, 0.0), (1.625, 1.0)],
        [(0.0, 0.0), (0.59375, 0.5), (0.96875, 0.0), (1.75, 0.5)], (0.5, 0.5), 0.5,
        (-0.0, -0.0), 0.0,
        0.625, [(EXO_RATE_JUMP, 1)]),
}


@pytest.mark.parametrize("name", list(EDGE_WINDOWS))
def test_empty_period_skip_edges(name):
    a1, a2t, theta, phi, x0, t0, at, pairs = EDGE_WINDOWS[name]
    a1, a2t = PiecewiseConstantRate(a1, 4.0), PiecewiseConstantRate(a2t, 4.0)
    plan = PhasePlan(1.0, 1.0, *theta)
    logged = check_window(a1, a2t, plan, EDGE_SERVICE, phi, x0, 2.0, t0)
    events = named(logged)
    assert [(e.kind, e.queue) for e in events[1:-1] if e.epoch == at] == pairs
    # Both queues are empty entering the checked batch.
    assert simulate(a1, a2t, plan, EDGE_SERVICE, phi, x0, at, t0=t0).x_end == (0.0, 0.0)
    assert not any(e.busy1_r or e.busy2_r for e in events if e.epoch < at)
    if name == "negative-zero contents":
        assert bits(*logged.x_end, *logged.y) == bits(-0.0, -0.0, 0.0, 0.0)


def random_low_load_window(rng):
    """One window whose queues are empty much of the time: rates mostly
    zero or small, some exactly at a fill threshold, epochs on a 1/16 grid
    (tied with each other and with the light switches) or anywhere."""
    h = 4.0
    c2 = rng.choice([1.0, 1.25, 0.75])
    on_grid = rng.random() < 0.5

    def epoch():
        return rng.randrange(1, 64) / 16.0 if on_grid else rng.uniform(0.0, h)

    def arrivals():
        epochs = sorted({epoch() for _ in range(rng.randrange(8, 60))})
        rates = [rng.choice([0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 2.5, 5.0, rng.uniform(0.0, 3.0)])
                 for _ in range(len(epochs) + 1)]
        return PiecewiseConstantRate(list(zip([0.0] + epochs, rates)), h)

    theta = [rng.randrange(1, 16) / 16.0 * c if on_grid else rng.uniform(0.05, 0.95) * c
             for c in (1.0, c2)]
    service = rng.choice([EDGE_SERVICE, TIE_SERVICE])
    phi = rng.choice([0.0, 0.5, 0.9, 1.0, rng.random()])
    x0 = rng.choice([(0.0, 0.0), (-0.0, -0.0), (5e-324, 0.0), (0.0, rng.uniform(0.0, 0.3))])
    t0 = rng.choice([0.0, rng.randrange(1, 16) / 16.0, rng.uniform(0.0, 1.5)])
    return arrivals(), arrivals(), PhasePlan(1.0, c2, *theta), service, phi, x0, t0 + 2.0, t0


def test_random_low_load_windows():
    # The tie-forced window applies every jump in a general batch, so it is
    # the oracle for the skip in both passes.
    rng = random.Random(11)
    idle_jumps = 0
    for _ in range(300):
        logged = check_window(*random_low_load_window(rng), exact=False)
        idle_jumps += sum(e.kind == EXO_RATE_JUMP and not (e.busy1_r or e.busy2_r)
                          for e in named(logged))
    assert idle_jumps > 600  # 816 logged jumps into two empty queues


# Hand-made windows around the busy run, one for each reason it hands over
# to the general batch: constant service at 5.0, both cycles 1.0.  Each
# entry is (arrivals1, arrivals2_tilde, (theta1, theta2), phi, x0, t0,
# {checked epoch: the (kind, queue) pairs logged there}).  A queue is busy
# entering each checked epoch, and most windows also hold lone jumps (one
# of them a no-op) that the busy run applies before it.
DRAIN_T0, DRAIN_X1, DRAIN_JUMP = 0.492309659149863, 1.1741822064030165, 0.8837037279508685
BUSY_WINDOWS = {
    # Queue 1 drains to zero exactly at 0.75, where its arrivals jump.
    "jump tied with a predicted emptying": (
        [(0.0, 1.0), (0.375, 3.0), (0.75, 2.0), (1.25, 0.0)], [(0.0, 0.5), (0.4375, 1.0)],
        (0.25, 0.5), 0.5, (1.0, 0.0), 0.0,
        {0.75: [(EXO_RATE_JUMP, 1), (EMPTY_START, 1)]}),
    "jump one ulp before a light switch": (
        [(0.0, 1.0), (0.125, 2.0), (math.nextafter(0.25, 0.0), 3.0), (0.5, 0.0)], [(0.0, 0.0)],
        (0.25, 0.5), 0.5, (2.0, 0.0), 0.0,
        {math.nextafter(0.25, 0.0): [(EXO_RATE_JUMP, 1)],
         0.25: [(GREEN_START, 1), (BUSY_START, 2)]}),
    # One drain from t0 to the jump: the predicted emptying is one ulp after
    # the jump, and x1 + s1 * dt rounds to 0.0 at the jump itself.
    "drain rounds to zero at a jump": (
        [(0.0, 2.0), (DRAIN_JUMP, 1.0)], [(0.0, 0.0)], (0.25, 0.25), 0.0, (DRAIN_X1, 0.0),
        DRAIN_T0, {DRAIN_JUMP: [(EXO_RATE_JUMP, 1), (EMPTY_START, 1)]}),
    # The same drains to zero at a jump above the service rate: the busy run
    # hands the jump over, and the batch empties the queue and refills it.
    "drain rounds to zero at a jump that refills queue 1": (
        [(0.0, 2.0), (DRAIN_JUMP, 6.0)], [(0.0, 0.0)], (0.25, 0.25), 0.0, (DRAIN_X1, 0.0),
        DRAIN_T0, {DRAIN_JUMP: [(EXO_RATE_JUMP, 1), (EMPTY_START, 1), (BUSY_START, 1)]}),
    "drain rounds to zero at a jump that refills queue 2": (
        [(0.0, 0.0)], [(0.0, 2.0), (DRAIN_JUMP, 6.0)], (0.25, 0.25), 0.0, (0.0, DRAIN_X1),
        DRAIN_T0, {DRAIN_JUMP: [(EXO_RATE_JUMP, 2), (EMPTY_START, 2), (BUSY_START, 2)]}),
    # The same window with queue 2's green onset at 0.5 splitting the drain:
    # queue 1 empties one ulp after the jump.
    "drain completes one ulp after a jump": (
        [(0.0, 2.0), (DRAIN_JUMP, 1.0)], [(0.0, 0.0)], (0.25, 0.5), 0.0, (DRAIN_X1, 0.0),
        DRAIN_T0, {DRAIN_JUMP: [(EXO_RATE_JUMP, 1)],
                   math.nextafter(DRAIN_JUMP, 1.0): [(EMPTY_START, 1)]}),
    # Queue 1 busy through its red, queue 2 green and idle: the jump at
    # 0.3125 leaves queue 2's net inflow negative, the one at 0.375 fills it.
    "queue-2 jump fills an idle queue 2 while queue 1 is busy": (
        [(0.0, 1.0)], [(0.0, 0.0), (0.3125, 1.0), (0.375, 6.0), (0.5, 0.0)],
        (0.5, 0.25), 0.5, (1.0, 0.0), 0.0,
        {0.3125: [(EXO_RATE_JUMP, 2)], 0.375: [(EXO_RATE_JUMP, 2), (BUSY_START, 2)]}),
    "queue-1 jump fills an idle queue 1 while queue 2 is busy": (
        [(0.0, 1.0), (0.5625, 4.0), (0.625, 6.0), (0.75, 0.0)], [(0.0, 1.0)],
        (0.25, 0.5), 0.5, (0.0, 2.0), 0.0,
        {0.5625: [(EXO_RATE_JUMP, 1)], 0.625: [(EXO_RATE_JUMP, 1), (BUSY_START, 1)]}),
    # While queue 1 is busy its outflow is its service rate, not its
    # arrivals, so no queue-1 jump can fill queue 2: a jump to 9.0 during
    # queue 1's red leaves the idle queue 2 idle.
    "queue-1 jump while queue 1 is busy fills nothing": (
        [(0.0, 1.0), (0.375, 9.0), (0.4375, 0.0)], [(0.0, 0.25)],
        (0.5, 0.25), 0.5, (1.0, 0.0), 0.0,
        {0.375: [(EXO_RATE_JUMP, 1)], 0.5: [(GREEN_START, 1)]}),
    "two arrival streams tied while busy": (
        [(0.0, 1.0), (0.375, 1.0), (0.5625, 2.0), (0.75, 0.0)],
        [(0.0, 0.5), (0.5625, 1.0), (0.625, 0.0)], (0.25, 0.5), 0.5, (2.0, 1.0), 0.0,
        {0.5625: [(EXO_RATE_JUMP, 1), (EXO_RATE_JUMP, 2)], 0.625: [(EXO_RATE_JUMP, 2)]}),
    # Ties with a queue one ulp from empty at zero slope.  Queue 1's drop
    # alone would empty queue 2 at 0.5625 and reset v22, but the tied rise
    # in a2t keeps queue 2's net inflow at its service rate.
    "tie keeps a near-empty queue 2 busy": (
        [(0.0, 0.0), (0.25, 2.0), (0.5625, 1.0)], [(0.0, 0.0), (0.25, 4.0), (0.5625, 4.5)],
        (0.125, 0.25), 0.5, (0.0, 1e-30), 0.0,
        {0.5625: [(EXO_RATE_JUMP, 1), (EXO_RATE_JUMP, 2)]}),
    # Queue 1's drop empties it at 0.5625, after the tied rise in a2t has
    # filled queue 2, so queue 1's v11 passes on into v21.
    "tie fills queue 2 before queue 1 empties": (
        [(0.0, 0.0), (0.25, 5.0), (0.5625, 1.0)], [(0.0, 0.0), (0.5625, 5.0)],
        (0.25, 0.125), 0.5, (1e-30, 0.0), 0.0,
        {0.5625: [(EXO_RATE_JUMP, 1), (EXO_RATE_JUMP, 2), (BUSY_START, 2), (EMPTY_START, 1)]}),
    # Both streams jump at the horizon, which belongs to the next window;
    # queue 1's jump one ulp before it is the window's last batch.
    "jump on the horizon": (
        [(0.0, 1.0), (1.5, 3.0), (math.nextafter(2.0, 0.0), 4.0), (2.0, 0.0)],
        [(0.0, 0.5), (2.0, 2.0)], (0.5, 0.5), 0.5, (3.0, 1.0), 0.0,
        {math.nextafter(2.0, 0.0): [(EXO_RATE_JUMP, 1)], 2.0: []}),
}


@pytest.mark.parametrize("name", list(BUSY_WINDOWS))
def test_busy_run_hand_over(name):
    a1, a2t, theta, phi, x0, t0, checked = BUSY_WINDOWS[name]
    a1, a2t = PiecewiseConstantRate(a1, 4.0), PiecewiseConstantRate(a2t, 4.0)
    plan = PhasePlan(1.0, 1.0, *theta)
    logged = check_window(a1, a2t, plan, EDGE_SERVICE, phi, x0, 2.0, t0)
    for at, pairs in checked.items():
        events = named(logged)
        assert [(e.kind, e.queue) for e in events[1:-1] if e.epoch == at] == pairs, at
        before = [e for e in events if e.epoch < at][-1]
        assert before.busy1_r or before.busy2_r, at


def busy_lone_jumps(events):
    """The logged batches that are a single arrival jump while a queue is
    busy: those the busy run applies.  No-op jumps log nothing and are not
    counted."""
    inner = events[1:-1]
    per_epoch = Counter(e.epoch for e in inner)
    return sum(e.kind == EXO_RATE_JUMP and (e.busy1_r or e.busy2_r) and per_epoch[e.epoch] == 1
               for e in inner)


def busy_heavy_windows():
    """Forty seeded 3 s windows on the reference on/off arrivals, with red
    durations near their cycles and backlogs at t0, so a queue is busy
    nearly all the time."""
    cfg = default_paper_config()
    rng = random.Random(13)
    for w in range(40):
        c2 = (0.7, 1.0, 1.3)[w % 3]
        a1 = gen_onoff(cfg.alpha1_spec(), cfg.seed, 30.0, stream=2 * w)
        a2t = gen_onoff(cfg.alpha2_spec(), cfg.seed, 30.0, stream=2 * w + 1)
        plan = PhasePlan(1.0, c2, rng.uniform(0.7, 0.95), rng.uniform(0.7, 0.95) * c2)
        t0 = rng.randrange(26) + rng.choice([0.0, rng.random()])
        x0 = (rng.uniform(0.1, 3.0), rng.choice([0.0, rng.uniform(0.1, 3.0)]))
        phi = rng.choice([0.5, 0.9, 1.0, rng.random()])
        service = EDGE_SERVICE if w % 2 else STAIRS
        yield a1, a2t, plan, service, phi, x0, t0 + 3.0, t0


def test_random_busy_heavy_windows():
    # The tie-forced window, which applies every jump in a general batch, is
    # the oracle for the busy run in both passes.  Every fifth window is also
    # held to the exact reference.
    lone = 0
    for w, args in enumerate(busy_heavy_windows()):
        lone += busy_lone_jumps(named(check_window(*args, exact=w % 5 == 0)))
    assert lone > 9000  # 9,821 of the 10,472 batches at this seed


# Restarting a window at one of its own batch epochs, from the state there,
# must leave the rest of the run as it was: which light switches and
# staircase steps are in force at t0 is decided once, by the light plan.


def restart_faults(a1, a2t, plan, service, phi, x0, horizon, t0):
    """Restart the logged window at each of its batch epochs, the
    breakpoints of its path (the event, arrival and light-plan epochs
    inside the window), from the state there: the end state of a head run
    with that horizon.  Returns the number of restarts and three lists of
    restart epochs: those whose end state differs from the whole run's,
    those whose (epoch, kind, queue) sequence after the restart epoch does,
    and those where a switch logged at the restart epoch re-applies the
    phase that the opening marker shows."""
    whole = simulate(a1, a2t, plan, service, phi, x0, horizon, t0=t0)
    events = named(whole)
    sig = [(e.epoch, e.kind, e.queue) for e in events[1:-1]]
    ends, logs, repeats = [], [], []
    epochs = {e.epoch for e in events} | set(a1.epochs) | set(a2t.epochs)
    epochs.update(e for e, _, _ in _light_plan(plan, service, t0, horizon)[0])
    restarts = sorted(e for e in epochs if t0 < e < horizon)
    for t in restarts:
        x = simulate(a1, a2t, plan, service, phi, x0, t, t0=t0, log=False).x_end
        part = simulate(a1, a2t, plan, service, phi, x, horizon, t0=t)
        if bits(*part.x_end) != bits(*whole.x_end):
            ends.append(t)
        opening, *inner, _ = named(part)
        if [(e.epoch, e.kind, e.queue) for e in inner if e.epoch > t] != \
                [s for s in sig if s[0] > t]:
            logs.append(t)
        if any(e.epoch == t and e.kind in (RED_START, GREEN_START)
               and (e.kind == GREEN_START) == (opening.green1_r, opening.green2_r)[e.queue - 1]
               for e in inner):
            repeats.append(t)
    return len(restarts), (ends, logs, repeats)


def test_restarts_at_every_breakpoint_change_nothing():
    # Six 3 s windows on the reference on/off arrivals, with constant and
    # staircase service and c2 in {0.7, 1.0, 1.3}.
    cfg = default_paper_config()
    rng = random.Random(3)
    restarts, faults = 0, ([], [], [])
    for w in range(6):
        c2 = (0.7, 1.0, 1.3)[w % 3]
        a1 = gen_onoff(cfg.alpha1_spec(), cfg.seed, 40.0, stream=2 * w)
        a2t = gen_onoff(cfg.alpha2_spec(), cfg.seed, 40.0, stream=2 * w + 1)
        plan = PhasePlan(1.0, c2, rng.uniform(0.2, 0.7), rng.uniform(0.2, 0.7) * c2)
        t0 = rng.randrange(36) + rng.choice([0.0, rng.random()])
        x0 = (rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0))
        service = EDGE_SERVICE if w < 3 else STAIRS
        n, found = restart_faults(a1, a2t, plan, service, cfg.phi, x0, t0 + 3.0, t0)
        restarts += n
        for into, epochs in zip(faults, found):
            into += [(w, t) for t in epochs]
    assert faults == ([], [], [])
    assert restarts > 1000


def test_staircase_step_at_t0_is_in_force():
    # Queue 1 turns green at theta1 and steps up to 5.0 at theta1 + 0.25,
    # which rounds to t0 while t0 - theta1 rounds below 0.25: the step
    # must still be in force when the window starts at t0.
    theta1, t0 = 0.4864174589902351, 0.736417458990235
    assert theta1 + 0.25 == t0 and t0 - theta1 < 0.25
    a1, a2t = constant_rate(3.0, 4.0), constant_rate(0.5, 4.0)
    plan = PhasePlan(1.0, 1.0, theta1, 0.5)
    whole = simulate(a1, a2t, plan, STAIRS, 0.9, (2.0, 0.5), 2.0)
    head = simulate(a1, a2t, plan, STAIRS, 0.9, (2.0, 0.5), t0)
    tail = simulate(a1, a2t, plan, STAIRS, 0.9, head.x_end, 2.0, t0=t0)
    opening = Event._make(tail.events[0])
    assert (opening.green1_r, opening.b1_r) == (True, 5.0)
    assert bits(*tail.x_end) == bits(*whole.x_end)


def test_green_onset_at_t0_applies_once():
    # Queue 1's green onset 3*1.0 + 0.1 rounds to t0 = 3.1 while t0 - 3.0
    # rounds above 0.1: the window opens red and the onset applies at t0,
    # once.  Queue 1 drains from 1.0 at 3 - 1 per second, so j11 is the
    # green rate 3 times 0.5 s busy over the 0.54 s window.
    plan = PhasePlan(1.0, 1.0, 0.1, 0.5)
    assert 3.0 + 0.1 == 3.1 and 3.1 - 3.0 > 0.1
    traj = simulate(constant_rate(1.0, 4.0), constant_rate(0.41, 4.0), plan,
                    ServiceProfile(3.0, 3.0), 0.9, (1.0, 0.0), 3.64, t0=3.1)
    events = named(traj)
    assert (events[0].green1_r, events[0].b1_r) == (False, 0.0)
    assert [e.kind for e in events if e.queue == 1 and e.epoch == 3.1] == [GREEN_START]
    assert traj.jac.j11 == 2.7777777777777777


def onset_step_service(offset):
    """Queue 1 opens each green at 1.0 and steps to 5.0 `offset` s into it."""
    return ServiceProfile(5.0, 5.0,
                          ramp1=PiecewiseConstantRate([(0.0, 1.0), (offset, 5.0)], 1.0),
                          ramp2=PiecewiseConstantRate([(0.0, 5.0)], 1.0))


def test_staircase_step_rounding_onto_its_onset_opens_the_green():
    # A step 1e-16 s into the green lands just after the onset 0.4 but
    # rounds onto the onsets 1.4 and 2.4, where the ulp is larger.  There
    # the green opens at the step's rate: were the step dropped, queue 1
    # would be served at 1.0 all green and end at 6.8, not near 2.0.
    assert 0.4 + 1e-16 > 0.4 and 1.4 + 1e-16 == 1.4 and 2.4 + 1e-16 == 2.4
    a1, a2t = constant_rate(3.0, 4.0), constant_rate(0.3, 4.0)
    plan, x0 = PhasePlan(1.0, 1.0, 0.4, 0.5), (2.0, 0.5)
    service = onset_step_service(1e-16)
    whole = check_window(a1, a2t, plan, service, 0.9, x0, 3.0, 0.0)
    later = simulate(a1, a2t, plan, onset_step_service(1e-12), 0.9, x0, 3.0, log=False)
    assert whole.x_end[0] == pytest.approx(2.0) == pytest.approx(later.x_end[0])
    # A step that rounds onto every onset gives the constant-service bits.
    assert fused(simulate(a1, a2t, plan, onset_step_service(1e-17), 0.9, x0, 3.0)) == \
        fused(simulate(a1, a2t, plan, EDGE_SERVICE, 0.9, x0, 3.0))
    # Restarts on the onset 1.4 and inside its green.
    for t0 in (1.4, 1.9):
        head = simulate(a1, a2t, plan, service, 0.9, x0, t0, log=False)
        tail = check_window(a1, a2t, plan, service, 0.9, head.x_end, 3.0, t0)
        assert bits(*tail.x_end) == bits(*whole.x_end)


@pytest.mark.parametrize("queue", [1, 2])
def test_ramp_on_one_queue_only(queue):
    # The queue without a ramp is served at its beta_max: the same bits as a
    # one-step staircase at that rate, and not those of constant service.
    a1, a2t = constant_rate(3.4, 4.0), constant_rate(0.9, 4.0)
    plan, x0 = PhasePlan(1.0, 1.0, 0.37, 0.49), (0.6, 0.2)
    ramps = {f"ramp{queue}": getattr(STAIRS, f"ramp{queue}")}
    mixed = ServiceProfile(5.0, 5.0, **ramps)
    spelled = ServiceProfile(5.0, 5.0, **{f"ramp{3 - queue}": constant_rate(5.0, 1.0)}, **ramps)
    for t0 in (0.0, 1.3):
        traj = check_window(a1, a2t, plan, mixed, 0.9, x0, 4.0, t0)
        assert fused(traj) == fused(simulate(a1, a2t, plan, spelled, 0.9, x0, 4.0, t0=t0))
        assert fused(traj) != fused(simulate(a1, a2t, plan, EDGE_SERVICE, 0.9, x0, 4.0, t0=t0))
    assert assert_jacobian(traj.jac, exact_jacobian(a1, a2t, plan, mixed, 0.9, x0, 4.0, 1.3)) == 2


def fuzz_window(rng):
    """A low-load window moved next to coincident epochs: each theta on an
    arrival epoch mod c, one ulp either side of it, one ulp below c, or as
    drawn; backlogs of 5e-324 and ulp(1.0) among the drawn ones.  Returns
    the window and the two theta kinds."""
    a1, a2t, plan, service, phi, x0, horizon, t0 = random_low_load_window(rng)
    inside = [e for e in a1.epochs + a2t.epochs if t0 < e < horizon]
    kinds, theta = [], []
    for c, drawn in ((plan.c1, plan.theta1), (plan.c2, plan.theta2)):
        kind, th = rng.choice(["on", "below", "above", "near c", "drawn"]), drawn
        if kind == "near c":
            th = math.nextafter(c, 0.0)
        elif kind != "drawn" and inside:
            e = rng.choice(inside)
            on = e - (e // c) * c
            th = {"on": on, "below": math.nextafter(on, 0.0), "above": math.nextafter(on, c)}[kind]
        if th == drawn or not 0.0 < th < c:
            kind, th = "drawn", drawn
        kinds.append(kind)
        theta.append(th)
    x0 = rng.choice([x0, (math.ulp(1.0), math.ulp(1.0))])
    return (a1, a2t, PhasePlan(plan.c1, plan.c2, *theta), service, phi, x0, horizon, t0), kinds


def test_fuzz_near_coincident_epochs_against_the_exact_reference():
    rng = random.Random(2024)
    kinds, checked = [], 0
    for _ in range(200):
        args, window_kinds = fuzz_window(rng)
        kinds += window_kinds
        _, _, _, service, _, x0, horizon, t0 = args
        traj, run = check_window(*args, exact=False), exact_window(*args)
        assert_close(traj, run, x0)
        # J's rounding: n epochs, each within 2**-52 * horizon, weighted by
        # a service rate, over the window.
        floor = Fraction(len(run.signature) * service.beta_max1 * max(1.0, horizon)
                         / (horizon - t0)) / 2 ** 52
        checked += assert_jacobian(traj.jac, exact_jacobian(*args), floor=floor)
    for kind in ("on", "below", "above", "near c"):
        assert kinds.count(kind) >= 50, kind
    # Near a coincidence the signature mostly changes within +-h, so most
    # columns go unchecked: 55 of the 400 are checked at this seed.
    assert checked >= 40
