"""Sensitivity values against hand-derived trajectories.

simulate applies the diagonal and cross sensitivity rules online and
returns their window integrals as J.  The instantaneous values the rules
track, dx_i/dtheta_j at a time t, are the exact derivatives of the end
state of the window [0, t): the exact reference gives them as central
differences, exact wherever the regime signature holds.  The single-cycle
traces here have closed-form values, so both the point values and simulate's
integrals of them are checked against numbers derived by hand.
"""

import random
from fractions import Fraction

import pytest

from exact_reference import H, assert_jacobian, exact_jacobian, exact_window
from test_fused_window import check_window, fused, named
from tandemflow.simcore import (
    BUSY_START,
    CONTROL_CYCLE_BOUNDARY,
    EMPTY_START,
    EXO_RATE_JUMP,
    GREEN_START,
    INTERNAL_RATE_JUMP,
    JacobianEstimate,
    PhasePlan,
    PiecewiseConstantRate,
    RED_START,
    ServiceProfile,
    constant_rate,
    simulate,
)

CONST5 = ServiceProfile(5.0, 5.0)
# Queue 2 served at 4.0; queue 1 opens each green at 2.0 and steps to 5.0
# 0.2 s into it.
STEP_AT_02 = ServiceProfile(5.0, 4.0, ramp1=PiecewiseConstantRate([(0.0, 2.0), (0.2, 5.0)], 1.0))


def window(theta1, theta2, a1, a2t, phi=1.0, horizon=1.0, x0=(0.0, 0.0)):
    """simulate's arguments for one window from t = 0, constant service 5;
    a number for an arrival process is a constant rate."""
    a1, a2t = (constant_rate(float(a), horizon) if isinstance(a, (int, float)) else a
               for a in (a1, a2t))
    return a1, a2t, PhasePlan(1.0, 1.0, theta1, theta2), CONST5, phi, x0, horizon


def value_at(args, t, entry):
    """dx_i/dtheta_j at time t for entry "ij" (11, 21 or 22), exactly."""
    value = exact_jacobian(*args[:6], t)[int(entry[1]) - 1][1 + int(entry[0])]
    assert value is not None, f"signature changes within +-h at t={t}"
    return value


def midpoints(traj):
    """A time strictly between each pair of consecutive event epochs, with
    the event just before it."""
    events = named(traj)
    return [((ev.epoch + nxt.epoch) / 2.0, ev) for ev, nxt in zip(events, events[1:])
            if ev.epoch < nxt.epoch]


FOUR_WINDOWS = [
    window(0.4, 0.4, 2.0, 0.0),
    window(0.4, 0.6, 2.0, 0.0),
    window(0.3, 0.55, 4.5, 0.35, phi=0.9, horizon=3.0),
    window(0.62, 0.18, PiecewiseConstantRate([(0.0, 1.0), (0.9, 4.8), (2.1, 0.2)], 3.0), 0.6,
           phi=0.7, horizon=3.0, x0=(0.9, 0.4)),
]


class TestDiagonalRules:
    def test_values_through_one_busy_period(self):
        # Queue 1 fills at 2 through red, drains at 3 from the green onset
        # 0.4 and empties at 2/3: its value is 5 on [0.4, 2/3) and 0 else,
        # so j11 over [0, t) is 5 * (busy green time) / t.
        args = window(0.4, 0.4, 2.0, 0.0)
        for t, want in ((0.3, 0.0), (0.5, 5.0 * 0.1 / 0.5), (0.8, 5.0 * (2.0 / 3.0 - 0.4) / 0.8)):
            jac = simulate(*args[:6], t, log=False).jac
            assert jac.j11 == pytest.approx(want, abs=1e-12)

    def test_closed_form_matches_fixture_values(self):
        args = window(0.4, 0.4, 2.0, 0.0)
        assert value_at(args, 0.3, "11") == 0   # busy but red: postponement nets out
        assert value_at(args, 0.5, "11") == 5   # green restores the postponed rate
        assert value_at(args, 0.8, "11") == 0   # drained: nothing left to shift

    def test_busy_span_surviving_a_red_onset_doubles(self):
        # Net drift +1.8 per red, -0.3 per green keeps queue 1 busy across
        # the cycle boundary; each survived red adds another 5.
        args = window(0.4, 0.4, 4.5, 0.0, horizon=2.0)
        assert value_at(args, 1.5, "11") == 10
        assert value_at(args, 0.5, "11") == 5
        assert value_at(args, 1.2, "11") == 5

    def test_closed_form_equals_accumulator_everywhere(self):
        # simulate's running integrals, read as J over [0, t), against the
        # exact derivative of y over [0, t) at random t.
        rng = random.Random(42)
        checked = 0
        for args in FOUR_WINDOWS:
            for _ in range(20):
                t = rng.uniform(0.05, args[6])
                jac = simulate(*args[:6], t, log=False).jac
                checked += assert_jacobian(jac, exact_jacobian(*args[:6], t))
        assert checked >= 120  # 140 of 160 columns hold at this seed

    def test_quantization_under_constant_service(self):
        args = window(0.3, 0.55, 4.5, 0.35, phi=0.9, horizon=4.0)
        for t, _ in midpoints(simulate(*args)):
            for entry in ("11", "22"):
                v = value_at(args, t, entry)
                assert v >= 0 and v % 5 == 0

    def test_requires_opening_marker(self):
        # Every log opens with a window marker at t0 that carries the state
        # entering the window, and closes with one at the horizon.
        for args in FOUR_WINDOWS:
            traj = simulate(*args)
            first, *_, last = named(traj)
            assert (first.kind, first.epoch, first.x1, first.x2) == \
                (CONTROL_CYCLE_BOUNDARY, 0.0, *args[5])
            assert (last.kind, last.epoch, (last.x1, last.x2)) == \
                (CONTROL_CYCLE_BOUNDARY, args[6], traj.x_end)

    def test_rejects_time_reversal(self):
        # The log never goes back in time.
        for args in FOUR_WINDOWS:
            epochs = [ev.epoch for ev in named(simulate(*args))]
            assert epochs == sorted(epochs)


class TestCrossRules:
    def test_moving_busy_start_then_released_drain(self):
        # Queue 2 backs up when queue 1's green starts (moving epoch), and
        # the stored perturbation is handed over when queue 1 drains out.
        args = window(0.4, 0.6, 2.0, 0.0)
        assert value_at(args, 0.5, "21") == -5
        assert value_at(args, 0.8, "21") == 0

    def test_green_onset_during_backlog_books_inflow_jump(self):
        # Queue 2 already busy when queue 1 turns green: the inflow jump
        # -phi*beta_max, queue 1 busy and held at red until then.
        args = window(0.5, 0.2, 3.0, 4.5, phi=0.9)
        traj = simulate(*args)
        for t, ev in midpoints(traj):
            if ev.epoch <= 0.5:
                assert value_at(args, t, "21") == (-5 * Fraction(0.9) if ev.epoch == 0.5 else 0), t
        assert [(ev.kind, ev.queue) for ev in named(traj) if ev.epoch == 0.5] == \
            [(GREEN_START, 1)]

    def test_exogenous_busy_start_carries_no_shift(self):
        # Queue 2 filling triggered by an arrival-rate jump, not by beta_1.
        args = window(0.5, 0.2, 3.0, 4.5, phi=0.9)
        traj = simulate(*args)
        bs2 = [ev for ev in named(traj) if ev.kind == BUSY_START and ev.queue == 2]
        assert bs2 and bs2[0].trigger_kind == EXO_RATE_JUMP
        t = next(t for t, ev in midpoints(traj) if ev.epoch == bs2[0].epoch)
        assert value_at(args, t, "21") == 0

    def test_idle_downstream_queue_stays_zero(self):
        # Light 2 turns green before queue 1's outflow reaches it.  (With
        # theta2 = theta1, a smaller theta1 would back queue 2 up.)
        args = window(0.4, 0.35, 2.0, 0.0)
        traj = simulate(*args)
        assert not any(ev.busy2_r for ev in named(traj))
        assert traj.jac.j21 == 0.0
        for t, _ in midpoints(traj):
            assert value_at(args, t, "21") == 0

    def test_queue_1_staircase_step_moves_a_busy_start(self):
        # Queue 1 fills through its red, opens its green at 2.0 at 0.3 and
        # steps to 5.0 at 0.5, which lifts queue 2's inflow from 2.5 to 5.5
        # against its 4.0: that busy start rides theta1 one for one, so v21
        # is -(5.5 - 4.0) on [0.5, 1) and j21 = -0.75.  Were the step not
        # recorded as the trigger, v21 would stay 0.0.
        args = (constant_rate(3.0, 1.0), constant_rate(0.5, 1.0), PhasePlan(1.0, 1.0, 0.3, 0.1),
                STEP_AT_02, 1.0, (0.0, 0.0), 1.0)
        traj = simulate(*args)
        assert [(ev.trigger_kind, ev.trigger_queue) for ev in named(traj)
                if ev.kind == BUSY_START and ev.queue == 2 and ev.epoch == 0.5] == \
            [(INTERNAL_RATE_JUMP, 1)]
        assert traj.jac.j21 == -0.75
        assert assert_jacobian(traj.jac, exact_jacobian(*args)) == 2

    def test_queue_1_filling_triggers_no_busy_start(self):
        # Queue 1's filling lowers its outflow from a1 to b1, so it never
        # turns queue 2's net inflow positive.  At t0 = 0.25 light 1 is green
        # and light 2 red: both queues fill in the window's first batch, and
        # queue 2 on the inflow it had entering the window, so no event
        # triggers its busy start.  The bits are those recorded when queue
        # 1's filling was still logged as the trigger.
        args = window(0.2, 0.5, 6.0, 0.5, phi=0.9, horizon=1.5)
        traj = simulate(*args, t0=0.25)
        assert [(ev.kind, ev.queue, ev.trigger_kind, ev.trigger_queue)
                for ev in named(traj) if ev.epoch == 0.25][1:] == \
            [(BUSY_START, 1, -1, 0), (BUSY_START, 2, -1, 0)]
        assert fused(traj) == (
            "0x1.e3d70a3d70a3dp-1", "0x1.5645a1cac0832p+0", "0x1.3333333333334p+0",
            "-0x1.147ae147ae148p+0", "0x1.0000000000000p+2", "0x1.2000000000000p+1",
            "0x1.6cccccccccccep+1")
        assert assert_jacobian(traj.jac, exact_jacobian(*args, 0.25)) == 1

    @pytest.mark.parametrize("x0, a2t, trigger, side", [
        ((0.0, 0.0), 0.5, (-1, 0), -1),
        ((1.0, 0.0), 0.5, (-1, 0), -1),
        ((1.0, 0.0), 0.0, (GREEN_START, 1), 1)])
    def test_busy_start_at_t0_is_triggered_only_by_what_switched_it_on(self, x0, a2t,
                                                                        trigger, side):
        # Queue 1's green onset opens the window at t0 = 0.2.  With a2t = 0.5
        # queue 2 enters idle on a positive net inflow, so it fills in the
        # first batch whatever that batch applies, and the onset, which
        # leaves the inflow positive, is no trigger: J is the derivative
        # from the left, the onset moving before t0.  (As a trigger it gave
        # j21 = -6.04, outside both one-sided derivatives.)  With a2t = 0
        # and queue 1 busy behind its red, the inflow enters at 0 and the
        # onset switches it on: J is the derivative from the right.  y2 is
        # quadratic in theta1 on each side, so 2 D(h) - D(2h) of its
        # one-sided differences D is exact.
        args = window(0.2, 0.5, 6.0, a2t, phi=0.9, horizon=1.5, x0=x0)
        traj = check_window(*args, 0.2)
        assert [(ev.trigger_kind, ev.trigger_queue) for ev in named(traj)
                if ev.kind == BUSY_START and ev.queue == 2] == [trigger]
        th1 = Fraction(0.2)
        y2 = [exact_window(*args, 0.2, (th1 + side * k * H, Fraction(0.5))).y[1]
              for k in (0, 1, 2)]
        one_sided = side * (2 * (y2[1] - y2[0]) / H - (y2[2] - y2[0]) / (2 * H))
        assert traj.jac.j21 == pytest.approx(float(one_sided), rel=1e-12)

    def test_first_batch_that_fills_nothing_leaves_later_triggers(self):
        # Queue 2 enters idle on a positive net inflow, but its green onset
        # at t0 = 0.5 turns it negative, so it fills only at queue 1's green
        # onset at 0.7, which triggers its busy start and moves v21.
        args = window(0.7, 0.5, 2.0, 1.0, phi=0.9, horizon=1.0, x0=(3.0, 0.0))
        traj = check_window(*args, 0.5)
        assert [(ev.epoch, ev.trigger_kind, ev.trigger_queue) for ev in named(traj)
                if ev.kind == BUSY_START] == [(0.7, GREEN_START, 1)]
        assert traj.jac.j21 == -0.30000000000000004
        assert assert_jacobian(traj.jac, exact_jacobian(*args, 0.5)) == 1

    def test_busy_start_triggered_by_an_emptying_is_rejected(self):
        # An emptying of queue 1 lowers queue 2's inflow, so it never
        # triggers queue 2's busy start, and simulate never records it as
        # a trigger.
        for args in FOUR_WINDOWS + [window(0.5, 0.2, 3.0, 4.5, phi=0.9)]:
            for ev in named(simulate(*args)):
                if ev.kind == BUSY_START and ev.queue == 2:
                    assert ev.trigger_kind != EMPTY_START


# Batches whose events tie, around queue 2's busy-start trigger: the first
# event, in batch order, after which an idle queue 2's net inflow is
# positive.  Each entry is (arrivals1, arrivals2_tilde, (c1, c2), (theta1,
# theta2), service, phi, the checked epoch, the (kind, queue) pairs logged
# there, and the trigger of queue 2's busy start there).  Both queues start
# empty at 0.0 and the horizon is 2.0.  Only a trigger on queue 1's green
# onset or staircase step moves v21, so the others show in the log alone.
TRIGGER_WINDOWS = {
    # Queue 1's green onset leaves queue 2's net inflow at exactly 0.0
    # (1.0 * 5 + 0 - 5); the tied queue-2 jump makes it positive.
    "net inflow zero after a green onset": (
        [(0.0, 3.0)], [(0.0, 0.0), (0.5, 0.5)], (1.0, 1.0), (0.5, 0.25), CONST5, 1.0,
        0.5, [(GREEN_START, 1), (EXO_RATE_JUMP, 2), (BUSY_START, 2)], (EXO_RATE_JUMP, 2)),
    # Queue 1's jump leaves it at exactly 0.0 (0.5 * 4 + 3 - 5).
    "net inflow zero after a queue-1 jump": (
        [(0.0, 0.0), (0.625, 4.0)], [(0.0, 0.0), (0.5625, 3.0), (0.625, 3.5)], (1.0, 1.0),
        (0.5, 0.5), CONST5, 0.5,
        0.625, [(EXO_RATE_JUMP, 1), (EXO_RATE_JUMP, 2), (BUSY_START, 2)], (EXO_RATE_JUMP, 2)),
    # Queue 2's jump leaves it at exactly 0.0 (1.0 * 2 + 2 - 4); queue 1's
    # tied step to 5.0 makes it positive and moves v21.
    "net inflow zero after a queue-2 jump": (
        [(0.0, 3.0)], [(0.0, 0.5), (0.5, 2.0)], (1.0, 1.0), (0.3, 0.1), STEP_AT_02, 1.0,
        0.5, [(EXO_RATE_JUMP, 2), (INTERNAL_RATE_JUMP, 1), (BUSY_START, 2)],
        (INTERNAL_RATE_JUMP, 1)),
    # Queue 2's red start makes it positive first; both arrival jumps and
    # queue 1's step (green since 0.25, stepping 0.75 s in) tie with it.
    "red start first, then tied jumps and a step": (
        [(0.0, 4.0), (1.0, 4.5)], [(0.0, 1.0), (1.0, 1.5)], (1.5, 1.0), (0.25, 0.25),
        ServiceProfile(5.0, 5.0, ramp1=PiecewiseConstantRate([(0.0, 2.0), (0.75, 5.0)], 1.0)),
        1.0, 1.0, [(RED_START, 2), (EXO_RATE_JUMP, 1), (EXO_RATE_JUMP, 2),
                   (INTERNAL_RATE_JUMP, 1), (BUSY_START, 2)], (RED_START, 2)),
    # theta2 = 1e-17 rounds queue 2's green onset onto its red start at 1.0:
    # the red start makes the net inflow 3.0, the green reopening at 2.5
    # leaves it positive.
    "green onset rounded onto its red start": (
        [(0.0, 0.0)], [(0.0, 3.0)], (1.0, 1.0), (0.5, 1e-17),
        ServiceProfile(5.0, 5.0, ramp2=PiecewiseConstantRate([(0.0, 2.5), (0.15, 5.0)], 1.0)),
        0.0, 1.0, [(RED_START, 1), (RED_START, 2), (GREEN_START, 2), (BUSY_START, 2)],
        (RED_START, 2)),
}


@pytest.mark.parametrize("name", list(TRIGGER_WINDOWS))
def test_busy_start_trigger_is_the_first_event_that_fills(name):
    a1, a2t, cycles, theta, service, phi, at, pairs, trigger = TRIGGER_WINDOWS[name]
    args = (PiecewiseConstantRate(a1, 2.0), PiecewiseConstantRate(a2t, 2.0),
            PhasePlan(*cycles, *theta), service, phi, (0.0, 0.0), 2.0, 0.0)
    events = [ev for ev in named(check_window(*args)) if ev.epoch == at]
    assert [(ev.kind, ev.queue) for ev in events] == pairs
    assert (events[-1].trigger_kind, events[-1].trigger_queue) == trigger


class TestResetOnEmpty:
    def test_all_accumulators_zero_while_their_queue_is_empty(self):
        args = FOUR_WINDOWS[3]
        for t, ev in midpoints(simulate(*args)):
            if not ev.busy1_r:
                assert value_at(args, t, "11") == 0
            if not ev.busy2_r:
                assert value_at(args, t, "22") == 0
                assert value_at(args, t, "21") == 0


class TestAssembly:
    def test_single_cycle_jacobians(self):
        jac0 = simulate(*window(0.4, 0.4, 2.0, 0.0), log=False).jac
        assert jac0.j11 == pytest.approx(4.0 / 3.0, abs=1e-12)
        jac1 = simulate(*window(0.4, 0.6, 2.0, 0.0), log=False).jac
        assert jac1.j21 == pytest.approx(-4.0 / 3.0, abs=1e-12)
        assert jac1.j22 == pytest.approx(2.0, abs=1e-12)
        assert jac1.j12 == 0.0

    def test_structural_zero_and_rows(self):
        jac = JacobianEstimate(1.5, -0.5, 2.5)
        assert jac.j12 == 0.0
        assert ((jac.j11, jac.j12), (jac.j21, jac.j22)) == ((1.5, 0.0), (-0.5, 2.5))

    def test_rejects_empty_window(self):
        # J is an integral over the window length, which must be positive.
        args = window(0.4, 0.4, 2.0, 0.0)
        for log in (True, False):
            with pytest.raises(ValueError, match="t0 < horizon"):
                simulate(*args[:6], 1.0, t0=1.0, log=log)
