"""Simulator: hand-checkable traces, exactness, and input validation."""

import math

import numpy as np
import pytest

from exact_reference import assert_close, exact_window
from test_fused_window import bits, named
from tandemflow.simcore import (
    BUSY_START,
    CONTROL_CYCLE_BOUNDARY,
    EMPTY_START,
    GREEN_START,
    RED_START,
    Event,
    PhasePlan,
    PiecewiseConstantRate,
    ServiceProfile,
    _light_plan,
    constant_rate,
    simulate,
)

CONST5 = ServiceProfile(5.0, 5.0)


def build_switch_epochs(plan, horizon, t0=0.0):
    """All light-switch events in [t0, horizon) as (epoch, kind, queue),
    sorted by epoch with queue 1 first on ties: simulate's light plan with
    each switch code unpacked, its sentinel dropped."""
    return [(e, code & 1, (code >> 1) + 1)
            for e, code, _ in _light_plan(plan, CONST5, t0, horizon)[0][:-1]]


def outflow_rate(x: float, alpha: float, beta: float) -> float:
    """Instantaneous departure rate of a queue: beta while backed up, else
    the arrivals pass straight through."""
    return beta if x > 0.0 else alpha


def merge_inflow(delta1: float, alpha2_tilde: float, phi: float) -> float:
    """Inflow to queue 2: fraction phi of queue 1's outflow plus the side
    street's own arrivals."""
    return phi * delta1 + alpha2_tilde


def sim_pass_through(horizon=1.0):
    # Single light cycle, full merge, queue 2 never backs up.
    plan = PhasePlan(1.0, 1.0, 0.4, 0.4)
    return simulate(constant_rate(2.0, horizon), constant_rate(0.0, horizon),
                    plan, CONST5, 1.0, (0.0, 0.0), horizon)


# As sim_pass_through but queue 2's green starts later, so it backs up at 0.4.
BACKED_UP = (constant_rate(2.0, 1.0), constant_rate(0.0, 1.0), PhasePlan(1.0, 1.0, 0.4, 0.6),
             CONST5, 1.0)


def sim_backed_up(horizon=1.0, x0=(0.0, 0.0), t0=0.0):
    return simulate(*BACKED_UP, x0, horizon, t0=t0)


def events_of(traj, kind, queue=None):
    return [ev for ev in named(traj)
            if ev.kind == kind and (queue is None or ev.queue == queue)]


class TestRatePieces:
    def test_lookup_is_right_continuous(self):
        # A window opening on an epoch runs at the rate that starts there.
        r = PiecewiseConstantRate([(0.0, 1.0), (2.0, 3.0)], 5.0)
        plan = PhasePlan(1.0, 1.0, 0.4, 0.4)
        for t0, rate in ((0.0, 1.0), (1.999999, 1.0), (2.0, 3.0)):
            traj = simulate(r, r, plan, CONST5, 1.0, (0.0, 0.0), 4.0, t0=t0)
            assert [ev.a1_r for ev in named(traj) if ev.epoch == t0][-1] == rate

    def test_rejects_bad_segments(self):
        with pytest.raises(ValueError):
            PiecewiseConstantRate([], 1.0)
        with pytest.raises(ValueError):
            PiecewiseConstantRate([(0.5, 1.0)], 1.0)
        with pytest.raises(ValueError):
            PiecewiseConstantRate([(0.0, 1.0), (1.0, 2.0), (1.0, 3.0)], 5.0)
        with pytest.raises(ValueError):
            PiecewiseConstantRate([(0.0, -1.0)], 1.0)
        with pytest.raises(ValueError):
            PiecewiseConstantRate([(0.0, 1.0)], 0.0)
        with pytest.raises(ValueError):
            PiecewiseConstantRate([(0.0, 1.0, 2.0)], 1.0)

    def test_rejections_name_the_offending_values(self):
        with pytest.raises(ValueError, match=r"increase strictly \(2\.0 -> 1\.5\)"):
            PiecewiseConstantRate([(0.0, 1.0), (1.0, 2.0), (2.0, 1.0), (1.5, 3.0)], 5.0)
        with pytest.raises(ValueError, match=r"nonnegative, got nan"):
            PiecewiseConstantRate([(0.0, 1.0), (1.0, math.nan)], 5.0)
        with pytest.raises(ValueError, match=r"start at 0\.0, got 0\.5"):
            PiecewiseConstantRate([(0.5, 1.0)], 1.0)

    def test_one_shot_iterables_are_read_once(self):
        ref = PiecewiseConstantRate([(0.0, 1.0), (1.0, 2.0)], 3.0)
        for segs in (zip([0.0, 1.0], [1.0, 2.0]), ((e, e + 1.0) for e in (0.0, 1.0))):
            r = PiecewiseConstantRate(segs, 3.0)
            assert (r.epochs, r.rates) == (ref.epochs, ref.rates) == ([0.0, 1.0], [1.0, 2.0])

    def test_stores_lists_of_python_floats(self):
        for segs in ([(0, 1), (1.5, 2)], np.array([[0.0, 1.0], [1.5, 2.0]])):
            r = PiecewiseConstantRate(segs, 3.0)
            assert type(r.epochs) is list and type(r.rates) is list
            assert all(type(v) is float for v in r.epochs + r.rates)
            assert list(zip(r.epochs, r.rates)) == [(0.0, 1.0), (1.5, 2.0)]

    def test_lookup_outside_domain(self):
        # A rate process holds on [0, horizon): simulate reads it up to
        # there and no further.
        r = constant_rate(1.0, 2.0)
        plan = PhasePlan(1.0, 1.0, 0.4, 0.4)
        simulate(r, r, plan, CONST5, 1.0, (0.0, 0.0), 2.0)
        with pytest.raises(ValueError, match="before the simulation horizon"):
            simulate(r, r, plan, CONST5, 1.0, (0.0, 0.0), math.nextafter(2.0, 3.0))
        with pytest.raises(ValueError, match="0 <= t0"):
            simulate(r, r, plan, CONST5, 1.0, (0.0, 0.0), 1.0, t0=-0.1)


class TestPlanAndProfiles:
    def test_plan_rejects_red_outside_cycle(self):
        with pytest.raises(ValueError):
            PhasePlan(1.0, 1.0, 0.0, 0.4)
        with pytest.raises(ValueError):
            PhasePlan(1.0, 1.0, 0.4, 1.0)
        with pytest.raises(ValueError):
            PhasePlan(0.0, 1.0, 0.4, 0.4)

    def test_service_profile_validation(self):
        with pytest.raises(ValueError, match="beta_max1"):
            ServiceProfile(0.0, 5.0)
        with pytest.raises(ValueError, match="beta_max2"):
            ServiceProfile(5.0, math.inf)
        stair = PiecewiseConstantRate([(0.0, 2.0), (0.1, 5.0)], 1.0)
        decreasing = PiecewiseConstantRate([(0.0, 5.0), (0.1, 2.0)], 1.0)
        with pytest.raises(ValueError, match="ramp2 staircase must be nondecreasing"):
            ServiceProfile(5.0, 5.0, ramp1=stair, ramp2=decreasing)
        too_high = PiecewiseConstantRate([(0.0, 2.0), (0.1, 6.0)], 1.0)
        with pytest.raises(ValueError, match="ramp1 staircase exceeds beta_max1"):
            ServiceProfile(5.0, 5.0, ramp1=too_high)
        # A ramp on either queue alone is legal; the other is served at its beta_max.
        ServiceProfile(5.0, 5.0, ramp1=stair, ramp2=stair)
        ServiceProfile(5.0, 5.0, ramp1=stair)
        ServiceProfile(5.0, 5.0, ramp2=stair)

    def test_switch_epochs_single_cycle(self):
        plan = PhasePlan(1.0, 1.0, 0.4, 0.6)
        # The light is red before 0.0, so no red start applies at 0.0.
        assert build_switch_epochs(plan, 1.0) == [(0.4, GREEN_START, 1), (0.6, GREEN_START, 2)]

    def test_switch_epochs_periodic(self):
        plan = PhasePlan(1.0, 1.0, 0.4, 0.4)
        greens1 = [e for e, k, q in build_switch_epochs(plan, 2.0)
                   if k == GREEN_START and q == 1]
        assert greens1 == [0.4, 1.4]

    def test_switch_epochs_rejects_bad_window(self):
        plan = PhasePlan(1.0, 1.0, 0.4, 0.4)
        with pytest.raises(ValueError):
            build_switch_epochs(plan, 1.0, t0=1.0)


class TestLocalRates:
    def test_outflow_rate(self):
        assert outflow_rate(0.8, 2.0, 5.0) == 5.0
        assert outflow_rate(0.0, 2.0, 5.0) == 2.0
        assert outflow_rate(0.8, 2.0, 0.0) == 0.0

    def test_merge_inflow(self):
        assert merge_inflow(5.0, 0.0, 1.0) == 5.0
        assert merge_inflow(5.0, 0.41, 0.9) == pytest.approx(4.91, rel=1e-15)
        assert merge_inflow(0.0, 0.41, 0.9) == pytest.approx(0.41, rel=1e-15)


class TestSingleCycleTraces:
    def test_upstream_peak_and_drain(self):
        traj = sim_pass_through()
        (green1,) = events_of(traj, GREEN_START, queue=1)
        assert (green1.epoch, green1.x1, green1.x2) == (0.4, 0.8, 0.0)
        (empty,) = events_of(traj, EMPTY_START, queue=1)
        assert empty.epoch == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert empty.x1 == 0.0

    def test_downstream_never_backs_up(self):
        traj = sim_pass_through()
        assert all(ev.x2 == 0.0 for ev in named(traj))
        assert not events_of(traj, BUSY_START, queue=2)

    def test_averages_single_cycle(self):
        g1, g2 = sim_pass_through().y
        assert g1 == pytest.approx(4.0 / 15.0, abs=1e-12)
        assert g2 == 0.0

    def test_late_green_backs_up_queue_2(self):
        traj = sim_backed_up()
        (bs2,) = events_of(traj, BUSY_START, queue=2)
        assert bs2.epoch == 0.4
        assert (bs2.trigger_kind, bs2.trigger_queue) == (GREEN_START, 1)
        assert sim_backed_up(0.6).x_end[1] == pytest.approx(1.0, abs=1e-12)
        # Flat while both queues run at rate 5, then drains at slope 3.
        assert sim_backed_up(2.0 / 3.0).x_end[1] == pytest.approx(1.0, abs=1e-12)
        assert sim_backed_up(0.9).x_end[1] == pytest.approx(0.3, abs=1e-12)

    def test_queue_2_empties_at_horizon(self):
        traj = sim_backed_up()
        (empty2,) = events_of(traj, EMPTY_START, queue=2)
        assert empty2.epoch == pytest.approx(1.0, abs=1e-12)
        assert traj.x_end[1] == 0.0

    def test_averages_with_backup(self):
        g1, g2 = sim_backed_up().y
        assert g1 == pytest.approx(4.0 / 15.0, abs=1e-12)
        assert g2 == pytest.approx(1.0 / 3.0, abs=1e-12)


class TestDegenerateInputs:
    def test_zero_arrivals_log_only_switches(self):
        plan = PhasePlan(1.0, 1.0, 0.4, 0.4)
        traj = simulate(constant_rate(0.0, 2.0), constant_rate(0.0, 2.0),
                        plan, CONST5, 1.0, (0.0, 0.0), 2.0)
        kinds = {ev.kind for ev in named(traj)}
        assert kinds == {RED_START, GREEN_START, CONTROL_CYCLE_BOUNDARY}
        assert all(ev.x1 == 0.0 and ev.x2 == 0.0 for ev in named(traj))

    def test_drain_only_from_initial_content(self):
        plan = PhasePlan(1.0, 1.0, 0.4, 0.4)
        traj = simulate(constant_rate(0.0, 2.0), constant_rate(0.0, 2.0),
                        plan, CONST5, 0.9, (1.2, 0.6), 2.0)
        assert traj.x_end == (0.0, 0.0)
        assert len(events_of(traj, EMPTY_START, queue=1)) == 1

    def test_unbounded_growth_is_not_an_error(self):
        plan = PhasePlan(1.0, 1.0, 0.9, 0.4)
        traj = simulate(constant_rate(4.9, 3.0), constant_rate(0.0, 3.0),
                        plan, CONST5, 1.0, (0.0, 0.0), 3.0)
        assert traj.x_end[0] > 10.0


class TestValidation:
    def test_simulate_rejects_bad_window(self):
        plan = PhasePlan(1.0, 1.0, 0.4, 0.4)
        a = constant_rate(1.0, 2.0)
        with pytest.raises(ValueError):
            simulate(a, a, plan, CONST5, 1.0, (0.0, 0.0), 2.0, t0=2.0)
        with pytest.raises(ValueError):
            simulate(a, a, plan, CONST5, 1.0, (0.0, 0.0), 0.0)

    def test_simulate_rejects_short_arrivals(self):
        plan = PhasePlan(1.0, 1.0, 0.4, 0.4)
        a = constant_rate(1.0, 1.0)
        with pytest.raises(ValueError):
            simulate(a, a, plan, CONST5, 1.0, (0.0, 0.0), 2.0)

    def test_simulate_rejects_bad_phi_and_x0(self):
        plan = PhasePlan(1.0, 1.0, 0.4, 0.4)
        a = constant_rate(1.0, 2.0)
        with pytest.raises(ValueError):
            simulate(a, a, plan, CONST5, 1.5, (0.0, 0.0), 2.0)
        with pytest.raises(ValueError):
            simulate(a, a, plan, CONST5, 1.0, (-0.1, 0.0), 2.0)

    def test_simulate_rejects_an_unknown_log_mode(self):
        plan = PhasePlan(1.0, 1.0, 0.4, 0.4)
        a = constant_rate(1.0, 2.0)
        with pytest.raises(ValueError, match="log must be False, True or 'signature', got 'sig'"):
            simulate(a, a, plan, CONST5, 1.0, (0.0, 0.0), 2.0, log="sig")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("queue", [1, 2])
    def test_simulate_rejects_nonfinite_x0(self, queue, bad):
        # NaN passes a plain `x < 0` test; unchecked, it gives y = nan beside
        # a finite-looking J.
        plan = PhasePlan(1.0, 1.0, 0.4, 0.4)
        a = constant_rate(1.0, 2.0)
        x0 = (bad, 0.0) if queue == 1 else (0.0, bad)
        with pytest.raises(ValueError, match=rf"queue {queue} .*finite.*got {bad!r}"):
            simulate(a, a, plan, CONST5, 1.0, x0, 2.0, log=False)


class TestRedWithinRoundingOfCycle:
    # theta1 one ulp below c1: from k = 1 on, the onset k + theta1 rounds
    # onto the next red start k + 1, so those cycles' greens are empty and
    # queue 1's light stays red, with no switch after the red start at 1.0.
    PLAN = PhasePlan(1.0, 1.0, math.nextafter(1.0, 0.0), 0.5)

    def sim(self, x0, horizon, t0=0.0):
        return simulate(constant_rate(1.0, 8.0), constant_rate(0.0, 8.0), self.PLAN, CONST5,
                        0.9, x0, horizon, t0=t0)

    def test_empty_greens_are_dropped(self):
        switches1 = [(e, k) for e, k, q in build_switch_epochs(self.PLAN, 8.0) if q == 1]
        assert switches1 == [(self.PLAN.theta1, GREEN_START), (1.0, RED_START)]

    @pytest.mark.parametrize("t0", [0.0, 1.5, 4.0])
    def test_no_switch_re_applies_the_phase_in_force(self, t0):
        # A dropped green's red merges into the one before it, so no red
        # start splits the IPA integrals or the oracle's signature.
        traj = self.sim((2.0, 0.5), 8.0, t0)
        opening, *inner, _ = named(traj)
        green = [opening.green1_r, opening.green2_r]
        for ev in inner:
            if ev.kind in (RED_START, GREEN_START):
                assert (ev.kind == GREEN_START) != green[ev.queue - 1], ev
                green[ev.queue - 1] = ev.kind == GREEN_START
        assert_close(traj, exact_window(constant_rate(1.0, 8.0), constant_rate(0.0, 8.0),
                                        self.PLAN, CONST5, 0.9, (2.0, 0.5), 8.0, t0), (2.0, 0.5))

    def test_queue_1_fills_instead_of_draining(self):
        traj = self.sim((2.0, 0.0), 8.0)
        assert traj.x_end[0] == pytest.approx(10.0) and traj.x_end[1] == 0.0
        assert not any(ev.green1_r for ev in named(traj) if ev.epoch >= 1.0)

    def test_split_window_gives_the_same_end_state(self):
        whole = self.sim((2.0, 0.0), 8.0)
        head = self.sim((2.0, 0.0), 4.0)
        tail = self.sim(head.x_end, 8.0, t0=4.0)
        assert tail.x_end == whole.x_end
        # The empty green before t0 leaves the light red entering the window.
        opening = Event._make(tail.events[0])
        assert not opening.green1_r and opening.b1_r == 0.0


class TestExactness:
    def test_determinism(self):
        a = sim_backed_up()
        b = sim_backed_up()
        assert (a.y, a.jac, a.x_end) == (b.y, b.jac, b.x_end)
        assert a.events == b.events

    def test_split_at_event_epoch_is_bit_identical(self):
        plan = PhasePlan(1.0, 1.0, 0.4, 0.6)
        arr1 = PiecewiseConstantRate([(0.0, 2.0), (1.3, 4.4), (2.2, 0.5)], 3.0)
        arr2 = PiecewiseConstantRate([(0.0, 0.3), (0.7, 1.1)], 3.0)
        full = simulate(arr1, arr2, plan, CONST5, 0.9, (0.0, 0.0), 3.0)
        # Resume from each interior event epoch: the head must end in, and
        # the tail must reproduce, the full run's logged states bit for bit,
        # because the full run also re-anchors state at every event.
        interior = sorted({ev.epoch for ev in named(full)
                           if 0.0 < ev.epoch < 3.0})
        assert interior
        for m in interior:
            head = simulate(arr1, arr2, plan, CONST5, 0.9, (0.0, 0.0), m)
            tail = simulate(arr1, arr2, plan, CONST5, 0.9,
                            head.x_end, 3.0, t0=m)
            at_m = next(ev for ev in named(full) if ev.epoch == m)
            assert bits(*head.x_end) == bits(at_m.x1, at_m.x2)
            assert bits(*tail.x_end) == bits(*full.x_end)
            assert [bits(ev.epoch, ev.x1, ev.x2) for ev in named(tail) if ev.epoch > m] == \
                [bits(ev.epoch, ev.x1, ev.x2) for ev in named(full) if ev.epoch > m]

    def test_split_anywhere_matches_closely(self):
        plan = PhasePlan(1.0, 1.0, 0.4, 0.6)
        arr1 = PiecewiseConstantRate([(0.0, 2.0), (1.3, 4.4)], 3.0)
        arr2 = constant_rate(0.4, 3.0)
        full = simulate(arr1, arr2, plan, CONST5, 0.9, (0.0, 0.0), 3.0)
        for m in (0.17, 0.93, 1.618, 2.41):
            head = simulate(arr1, arr2, plan, CONST5, 0.9, (0.0, 0.0), m)
            for t in (2.0, 2.9):
                if t < m:
                    continue
                a = simulate(arr1, arr2, plan, CONST5, 0.9, (0.0, 0.0), t).x_end
                b = simulate(arr1, arr2, plan, CONST5, 0.9, head.x_end, t, t0=m).x_end
                assert a[0] == pytest.approx(b[0], abs=1e-12)
                assert a[1] == pytest.approx(b[1], abs=1e-12)

    def test_state_at_breakpoints_is_exact(self):
        # The state at each logged epoch is where a run with that horizon
        # ends, bit for bit, and lies within rounding of the exact state.
        for ev in named(sim_backed_up()):
            if ev.epoch > 0.0:
                head = sim_backed_up(ev.epoch)
                assert bits(*head.x_end) == bits(ev.x1, ev.x2)
                assert_close(head, exact_window(*BACKED_UP, (0.0, 0.0), ev.epoch), (0.0, 0.0))

    def test_integral_additivity(self):
        whole = sim_backed_up().y
        head = sim_backed_up(0.37)
        left, right = head.y, sim_backed_up(1.0, head.x_end, 0.37).y
        for i in range(2):
            stitched = left[i] * 0.37 + right[i] * 0.63
            assert stitched == pytest.approx(whole[i] * 1.0, abs=1e-12)

    def test_conservation_from_event_log(self):
        traj = sim_backed_up()
        evs = named(traj)
        net1 = net2 = 0.0
        for prev, nxt in zip(evs, evs[1:]):
            dt = nxt.epoch - prev.epoch
            out1 = prev.b1_r if prev.busy1_r else prev.a1_r
            out2 = prev.b2_r if prev.busy2_r else prev.alpha2_r
            net1 += (prev.a1_r - out1) * dt
            net2 += (prev.alpha2_r - out2) * dt
        x1a, x2a = evs[0].x1, evs[0].x2
        x1b, x2b = traj.x_end
        assert x1b - x1a == pytest.approx(net1, abs=1e-9)
        assert x2b - x2a == pytest.approx(net2, abs=1e-9)


class TestMidstreamWindows:
    def test_window_not_anchored_at_zero(self):
        plan = PhasePlan(1.0, 1.0, 0.4, 0.6)
        arr = constant_rate(2.0, 4.0)
        side = constant_rate(0.0, 4.0)
        traj = simulate(arr, side, plan, CONST5, 1.0, (0.5, 0.2), 4.0, t0=1.7)
        first, *_, last = named(traj)
        assert first.kind == CONTROL_CYCLE_BOUNDARY
        assert first.epoch == 1.7
        assert last.kind == CONTROL_CYCLE_BOUNDARY
        assert last.epoch == 4.0
        # Pre-window phase: 1.7 falls inside cycle 1's green for light 1.
        assert first.green1_r
        assert not first.green2_r or plan.theta2 < 0.7

    def test_ramp_service_steps_mid_green(self):
        stair = PiecewiseConstantRate([(0.0, 1.0), (0.2, 5.0)], 1.0)
        prof = ServiceProfile(5.0, 5.0, ramp1=stair,
                              ramp2=constant_rate(5.0, 1.0))
        plan = PhasePlan(1.0, 1.0, 0.4, 0.4)
        def x1_at(t):
            return simulate(constant_rate(3.0, 1.0), constant_rate(0.0, 1.0),
                            plan, prof, 1.0, (0.0, 0.0), t).x_end[0]

        # Slope sequence for x1: +3 (red), +2 (ramp at 1), -2 (ramp at 5).
        assert x1_at(0.4) == pytest.approx(1.2, abs=1e-12)
        assert x1_at(0.6) == pytest.approx(1.6, abs=1e-12)
        assert x1_at(1.0) == pytest.approx(0.8, abs=1e-12)
