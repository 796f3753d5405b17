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

from exact_reference import assert_jacobian, exact_jacobian
from tandemflow.simcore import (
    BUSY_START,
    CONTROL_CYCLE_BOUNDARY,
    EMPTY_START,
    EXO_RATE_JUMP,
    GREEN_START,
    JacobianEstimate,
    PhasePlan,
    PiecewiseConstantRate,
    ServiceProfile,
    constant_rate,
    simulate,
)

CONST5 = ServiceProfile(5.0, 5.0)


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
    return [((ev.epoch + nxt.epoch) / 2.0, ev) for ev, nxt in zip(traj.events, traj.events[1:])
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
            first, last = traj.events[0], traj.events[-1]
            assert (first.kind, first.epoch, first.x1, first.x2) == \
                (CONTROL_CYCLE_BOUNDARY, 0.0, *args[5])
            assert (last.kind, last.epoch, (last.x1, last.x2)) == \
                (CONTROL_CYCLE_BOUNDARY, args[6], traj.x_end)

    def test_rejects_time_reversal(self):
        # The log never goes back in time.
        for args in FOUR_WINDOWS:
            epochs = [ev.epoch for ev in simulate(*args).events]
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
        assert [(ev.kind, ev.queue) for ev in traj.events if ev.epoch == 0.5] == \
            [(GREEN_START, 1)]

    def test_exogenous_busy_start_carries_no_shift(self):
        # Queue 2 filling triggered by an arrival-rate jump, not by beta_1.
        args = window(0.5, 0.2, 3.0, 4.5, phi=0.9)
        traj = simulate(*args)
        bs2 = [ev for ev in traj.events if ev.kind == BUSY_START and ev.queue == 2]
        assert bs2 and bs2[0].trigger_kind == EXO_RATE_JUMP
        t = next(t for t, ev in midpoints(traj) if ev.epoch == bs2[0].epoch)
        assert value_at(args, t, "21") == 0

    def test_idle_downstream_queue_stays_zero(self):
        # Light 2 turns green before queue 1's outflow reaches it.  (With
        # theta2 = theta1, a smaller theta1 would back queue 2 up.)
        args = window(0.4, 0.35, 2.0, 0.0)
        traj = simulate(*args)
        assert not any(ev.busy2_r for ev in traj.events)
        assert traj.jac.j21 == 0.0
        for t, _ in midpoints(traj):
            assert value_at(args, t, "21") == 0

    def test_busy_start_triggered_by_an_emptying_is_rejected(self):
        # An emptying of queue 1 lowers queue 2's inflow, so it never
        # triggers queue 2's busy start, and simulate never records it as
        # a trigger.
        for args in FOUR_WINDOWS + [window(0.5, 0.2, 3.0, 4.5, phi=0.9)]:
            for ev in simulate(*args).events:
                if ev.kind == BUSY_START and ev.queue == 2:
                    assert ev.trigger_kind != EMPTY_START


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
