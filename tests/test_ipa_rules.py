"""Event-rule sensitivity accumulators against hand-derived trajectories.

The accumulators are the log-driven reference in ipa_reference; simulate
applies the same rules online, and test_fused_window holds the two equal.

The single-cycle traces used here have closed-form derivative values, so
most assertions are exact float comparisons: the accumulators are required
to reproduce the same arithmetic, not merely approximate it.
"""

import math
import random

import pytest

from ipa_reference import (
    CrossIpaAccumulator,
    DiagIpaAccumulator,
    assemble_jacobian,
    cross_on_event,
    diag_on_event,
    run_window,
)
from tandemflow.simcore import (
    BUSY_START,
    EMPTY_START,
    EXO_RATE_JUMP,
    GREEN_START,
    RED_START,
    Event,
    JacobianEstimate,
    PhasePlan,
    PiecewiseConstantRate,
    ServiceProfile,
    constant_rate,
    simulate,
)

CONST5 = ServiceProfile("constant", 5.0, 5.0)


def diag_closed_form(t: float, events: list[Event], queue: int = 1) -> float:
    """d x_q / d theta_q at time t evaluated directly from the log.

    Re-derives the busy span containing t and tallies the red onsets it
    survived, using the same arithmetic and operation order as the running
    accumulator, so the two agree exactly rather than approximately.
    Events at epoch t are included (right-limit convention).
    """
    if not events:
        raise ValueError("empty event log")
    if not (events[0].epoch <= t <= events[-1].epoch):
        raise ValueError(
            f"t={t!r} outside the logged span [{events[0].epoch!r}, {events[-1].epoch!r}]")
    busy = False
    cycle_sum = 0.0
    beta_at_start = 0.0
    beta_t = 0.0
    for i, ev in enumerate(events):
        if ev.epoch > t:
            break
        b_r = ev.b1_r if queue == 1 else ev.b2_r
        beta_t = b_r
        kind = ev.kind
        if i == 0:
            busy = ev.busy1_r if queue == 1 else ev.busy2_r
            if busy:
                cycle_sum = 0.0
                beta_at_start = b_r
            continue
        if ev.queue != queue:
            continue
        if kind == BUSY_START:
            busy = True
            cycle_sum = 0.0
            beta_at_start = b_r
        elif kind == EMPTY_START:
            busy = False
        elif kind == RED_START and busy:
            cycle_sum += ev.b1_l if queue == 1 else ev.b2_l
    if not busy:
        return 0.0
    return (cycle_sum + beta_t) - beta_at_start


def sim(theta1, theta2, a1, a2t, phi=1.0, horizon=1.0, x0=(0.0, 0.0),
        service=CONST5, c1=1.0, c2=1.0):
    plan = PhasePlan(c1, c2, theta1, theta2)
    if isinstance(a1, (int, float)):
        a1 = constant_rate(float(a1), horizon)
    if isinstance(a2t, (int, float)):
        a2t = constant_rate(float(a2t), horizon)
    return simulate(a1, a2t, plan, service, phi, x0, horizon)


def value_profile(traj, acc_factory, feed):
    """(epoch, value) after each event batch, last write at an epoch wins."""
    acc = acc_factory()
    prof = {}
    for ev in traj.events:
        feed(acc, ev)
        prof[ev.epoch] = acc.current_value
    return sorted(prof.items())


def value_at(profile, t):
    val = None
    for epoch, v in profile:
        if epoch <= t:
            val = v
        else:
            break
    return val


class TestDiagonalRules:
    def test_values_through_one_busy_period(self):
        traj = sim(0.4, 0.4, 2.0, 0.0)
        prof = value_profile(traj, lambda: DiagIpaAccumulator(queue=1),
                             diag_on_event)
        assert value_at(prof, 0.3) == 0.0   # busy but red: postponement nets out
        assert value_at(prof, 0.5) == 5.0   # green restores the postponed rate
        assert value_at(prof, 0.8) == 0.0   # drained: nothing left to shift

    def test_closed_form_matches_fixture_values(self):
        traj = sim(0.4, 0.4, 2.0, 0.0)
        assert diag_closed_form(0.5, traj.events, queue=1) == 5.0
        assert diag_closed_form(0.3, traj.events, queue=1) == 0.0
        assert diag_closed_form(0.8, traj.events, queue=1) == 0.0

    def test_busy_span_surviving_a_red_onset_doubles(self):
        # Net drift +1.8 per red, -0.3 per green keeps queue 1 busy across
        # the cycle boundary; each survived red adds another 5.
        traj = sim(0.4, 0.4, 4.5, 0.0, horizon=2.0)
        assert diag_closed_form(1.5, traj.events, queue=1) == 10.0
        assert diag_closed_form(0.5, traj.events, queue=1) == 5.0
        assert diag_closed_form(1.2, traj.events, queue=1) == 5.0

    def test_closed_form_equals_accumulator_everywhere(self):
        rng = random.Random(42)
        scenarios = [
            sim(0.4, 0.4, 2.0, 0.0),
            sim(0.4, 0.6, 2.0, 0.0),
            sim(0.3, 0.55, 4.5, 0.35, phi=0.9, horizon=3.0),
            sim(0.62, 0.18, PiecewiseConstantRate(
                [(0.0, 1.0), (0.9, 4.8), (2.1, 0.2)], 3.0), 0.6,
                phi=0.7, horizon=3.0, x0=(0.9, 0.4)),
        ]
        for traj in scenarios:
            for queue in (1, 2):
                prof = value_profile(
                    traj, lambda q=queue: DiagIpaAccumulator(queue=q),
                    diag_on_event)
                for _ in range(1000):
                    t = rng.uniform(traj.t0, traj.t1)
                    assert diag_closed_form(t, traj.events, queue=queue) == \
                        value_at(prof, t)

    def test_quantization_under_constant_service(self):
        traj = sim(0.3, 0.55, 4.5, 0.35, phi=0.9, horizon=4.0)
        for queue in (1, 2):
            prof = value_profile(
                traj, lambda q=queue: DiagIpaAccumulator(queue=q),
                diag_on_event)
            for _, v in prof:
                assert v >= 0.0
                assert v / 5.0 == int(v / 5.0)

    def test_requires_opening_marker(self):
        traj = sim(0.4, 0.4, 2.0, 0.0)
        acc = DiagIpaAccumulator(queue=1)
        with pytest.raises(ValueError):
            diag_on_event(acc, traj.events[1])

    def test_rejects_time_reversal(self):
        traj = sim(0.4, 0.4, 2.0, 0.0)
        acc = DiagIpaAccumulator(queue=1)
        diag_on_event(acc, traj.events[0])
        late = next(ev for ev in traj.events if ev.epoch > 0.0)
        early = traj.events[1]
        assert early.epoch < late.epoch
        diag_on_event(acc, late)
        with pytest.raises(ValueError):
            diag_on_event(acc, early)


class TestCrossRules:
    def test_moving_busy_start_then_released_drain(self):
        # Queue 2 backs up when queue 1's green starts (moving epoch), and
        # the stored perturbation is handed over when queue 1 drains out.
        traj = sim(0.4, 0.6, 2.0, 0.0)
        d1 = DiagIpaAccumulator(queue=1)
        vals = {}
        for ev in traj.events:
            cross_acc = vals.setdefault("acc", CrossIpaAccumulator())
            cross_on_event(cross_acc, ev, d1, traj.phi)
            diag_on_event(d1, ev)
            vals[ev.epoch] = cross_acc.current_value
        prof = sorted((k, v) for k, v in vals.items() if isinstance(k, float))
        assert value_at(prof, 0.5) == -5.0
        assert value_at(prof, 0.8) == 0.0

    def test_green_onset_during_backlog_books_inflow_jump(self):
        # Queue 2 already busy when queue 1 turns green: rule adds the
        # alpha_2 jump, -phi*beta_max with queue 1 busy and held at red.
        traj = sim(0.5, 0.2, 3.0, 4.5, phi=0.9)
        d1 = DiagIpaAccumulator(queue=1)
        acc = CrossIpaAccumulator()
        seen = []
        for ev in traj.events:
            cross_on_event(acc, ev, d1, traj.phi)
            diag_on_event(d1, ev)
            seen.append((ev.epoch, ev.kind, ev.queue, acc.current_value))
        before = [v for (e, k, q, v) in seen if e < 0.5]
        after_green1 = [v for (e, k, q, v) in seen
                        if e == 0.5 and k == GREEN_START and q == 1]
        assert all(v == 0.0 for v in before)
        assert after_green1 == [-4.5]

    def test_exogenous_busy_start_carries_no_shift(self):
        # Queue 2 filling triggered by an arrival-rate jump, not by beta_1.
        traj = sim(0.5, 0.2, 3.0, 4.5, phi=0.9)
        bs2 = [ev for ev in traj.events
               if ev.kind == BUSY_START and ev.queue == 2]
        assert bs2 and bs2[0].trigger_kind == EXO_RATE_JUMP
        d1 = DiagIpaAccumulator(queue=1)
        acc = CrossIpaAccumulator()
        for ev in traj.events:
            cross_on_event(acc, ev, d1, traj.phi)
            diag_on_event(d1, ev)
            if ev is bs2[0]:
                assert acc.current_value == 0.0

    def test_idle_downstream_queue_stays_zero(self):
        traj = sim(0.4, 0.4, 2.0, 0.0)
        d1 = DiagIpaAccumulator(queue=1)
        acc = CrossIpaAccumulator()
        for ev in traj.events:
            cross_on_event(acc, ev, d1, traj.phi)
            diag_on_event(d1, ev)
            assert acc.current_value == 0.0

    def test_busy_start_triggered_by_an_emptying_is_rejected(self):
        # simulate never records an emptying as a trigger; a hand-built log
        # that does is refused rather than given an invented epoch shift.
        traj = sim(0.4, 0.6, 2.0, 0.0)
        bs2 = next(ev for ev in traj.events
                   if ev.kind == BUSY_START and ev.queue == 2)
        forged = bs2._replace(trigger_kind=EMPTY_START, trigger_queue=1)
        d1 = DiagIpaAccumulator(queue=1)
        acc = CrossIpaAccumulator()
        for ev in traj.events:
            if ev is bs2:
                with pytest.raises(ValueError, match="emptying"):
                    cross_on_event(acc, forged, d1, traj.phi)
                break
            cross_on_event(acc, ev, d1, traj.phi)
            diag_on_event(d1, ev)


class TestResetOnEmpty:
    def test_all_accumulators_zero_while_their_queue_is_empty(self):
        traj = sim(0.62, 0.18, PiecewiseConstantRate(
            [(0.0, 1.0), (0.9, 4.8), (2.1, 0.2)], 3.0), 0.6,
            phi=0.7, horizon=3.0, x0=(0.9, 0.4))
        d1 = DiagIpaAccumulator(queue=1)
        d2 = DiagIpaAccumulator(queue=2)
        cx = CrossIpaAccumulator()
        for ev in traj.events:
            cross_on_event(cx, ev, d1, traj.phi)
            diag_on_event(d1, ev)
            diag_on_event(d2, ev)
            if not ev.busy1_r:
                assert d1.current_value == 0.0
            if not ev.busy2_r:
                assert d2.current_value == 0.0
                assert cx.current_value == 0.0


class TestAssembly:
    def test_single_cycle_jacobians(self):
        jac0, *_ = run_window(sim(0.4, 0.4, 2.0, 0.0))
        assert jac0.j11 == pytest.approx(4.0 / 3.0, abs=1e-12)
        jac1, *_ = run_window(sim(0.4, 0.6, 2.0, 0.0))
        assert jac1.j21 == pytest.approx(-4.0 / 3.0, abs=1e-12)
        assert jac1.j22 == pytest.approx(2.0, abs=1e-12)
        assert jac1.j12 == 0.0

    def test_structural_zero_and_rows(self):
        jac = JacobianEstimate(1.5, -0.5, 2.5, 20.0)
        assert jac.j12 == 0.0
        assert ((jac.j11, jac.j12), (jac.j21, jac.j22)) == ((1.5, 0.0), (-0.5, 2.5))

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            assemble_jacobian(DiagIpaAccumulator(queue=1),
                              DiagIpaAccumulator(queue=2),
                              CrossIpaAccumulator(), 0.0)

    def test_integral_splits_at_interior_times(self):
        traj = sim(0.3, 0.55, 4.5, 0.35, phi=0.9, horizon=3.0)
        plain = DiagIpaAccumulator(queue=1)
        split = DiagIpaAccumulator(queue=1)
        cuts = iter([0.17, 0.944, 1.3101, 2.055, 2.72])
        nxt = next(cuts)
        for ev in traj.events:
            diag_on_event(plain, ev)
            while nxt is not None and not math.isnan(split.t_prev) \
                    and split.t_prev < nxt <= ev.epoch:
                split.advance_to(nxt)
                nxt = next(cuts, None)
            diag_on_event(split, ev)
        assert split.running_integral == pytest.approx(
            plain.running_integral, abs=1e-12)

    def test_uninitialized_advance_raises(self):
        with pytest.raises(ValueError):
            DiagIpaAccumulator(queue=1).advance_to(1.0)
        with pytest.raises(ValueError):
            CrossIpaAccumulator().advance_to(1.0)

    def test_closed_form_input_validation(self):
        traj = sim(0.4, 0.4, 2.0, 0.0)
        with pytest.raises(ValueError):
            diag_closed_form(0.5, [])
        with pytest.raises(ValueError):
            diag_closed_form(1.5, traj.events)
