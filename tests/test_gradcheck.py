"""Finite-difference audit of the analytic Jacobian estimator.

These tests treat the oracle itself as the unit under test and as the
arbiter: the battery must pass, a corrupted estimator must fail it, and
perturbations that straddle an event-order change must come back flagged
instead of failing.  On the same two batteries the estimator is also held
to the exact derivative from the exact-rational reference.
"""

import dataclasses
from operator import itemgetter

import pytest

import tandemflow.oracle as oracle
from exact_reference import H, assert_jacobian, exact_jacobian
from tandemflow.oracle import (
    DEFAULT_DET_H,
    DEFAULT_DET_TOL,
    DEFAULT_STOCH_H,
    DEFAULT_STOCH_TOL,
    GradScenario,
    battery_ok,
    deterministic_scenarios,
    fd_jacobian,
    grad_check,
    run_battery,
    stochastic_scenarios,
)
from tandemflow.simcore import (
    SIGNATURE,
    Event,
    JacobianEstimate,
    PhasePlan,
    PiecewiseConstantRate,
    ServiceProfile,
    constant_rate,
)

CONST5 = ServiceProfile(5.0, 5.0)


def single_cycle_scenario(theta2: float) -> GradScenario:
    return GradScenario("single-cycle", constant_rate(2.0, 1.0),
                        constant_rate(0.0, 1.0),
                        PhasePlan(1.0, 1.0, 0.4, theta2), CONST5, 1.0,
                        (0.0, 0.0), 0.0, 1.0)


class TestFiniteDifferences:
    def test_single_cycle_columns(self):
        # theta2 = 0.55 keeps the two green onsets apart; queue 1 never
        # sees theta2, so fd11 is the same 4/3 either way.
        fd11, _, fd12, _, f1, f2 = fd_jacobian(single_cycle_scenario(0.55), 0.01)
        assert not f1 and not f2
        assert fd11 == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert fd12 == 0.0
        # At theta2 = 0.6 queue 2 drains dry exactly at the horizon, so the
        # theta2 nudge decides whether its emptying happens at all: that
        # column is one-sidedly kinked, flagged, and its quotient lands a
        # little under the true 2.
        _, fd21, fd12b, fd22, f1, f2 = fd_jacobian(single_cycle_scenario(0.6), 0.01)
        assert not f1 and f2
        assert fd21 == pytest.approx(-4.0 / 3.0, abs=1e-9)
        assert fd22 == pytest.approx(2.0, abs=0.05)
        assert abs(fd12b) <= 1e-12

    def test_upstream_column_two_is_zero_everywhere(self):
        for scn in deterministic_scenarios()[:8]:
            _, _, fd12, _, _, _ = fd_jacobian(scn, DEFAULT_DET_H)
            assert abs(fd12) <= 1e-12


class TestBatteries:
    def test_deterministic_battery(self):
        scenarios = deterministic_scenarios()
        assert len(scenarios) >= 20
        reports = run_battery(scenarios, DEFAULT_DET_H, DEFAULT_DET_TOL)
        for r in reports:
            assert r.ok, (r.name, [(e.entry, e.rel_err) for e in r.entries])
        assert battery_ok(reports)

    def test_stochastic_battery(self):
        scenarios = stochastic_scenarios()
        assert len(scenarios) >= 10
        reports = run_battery(scenarios, DEFAULT_STOCH_H, DEFAULT_STOCH_TOL)
        for r in reports:
            assert r.ok, (r.name, [(e.entry, e.rel_err) for e in r.entries])
        assert battery_ok(reports)
        # The frozen corpus must actually exercise the check: not every
        # entry may hide behind a flag.
        assert any(not e.flagged for r in reports for e in r.entries)

    def test_corrupted_estimator_fails_the_battery(self, monkeypatch):
        # Skew the Jacobian the simulator computes online, which is the
        # estimate the oracle audits, in every run that returns one.
        real = oracle.simulate

        def skewed(*args, **kwargs):
            traj = real(*args, **kwargs)
            jac = traj.jac
            if jac is not None:
                traj.jac = JacobianEstimate(jac.j11, jac.j21 + 0.05, jac.j22)
            return traj

        monkeypatch.setattr(oracle, "simulate", skewed)
        report = grad_check(single_cycle_scenario(0.6), 0.01, DEFAULT_DET_TOL)
        assert not report.ok
        bad_entries = [e.entry for e in report.entries
                       if not e.flagged and e.rel_err > report.tol]
        assert bad_entries == ["j21"]

    def test_battery_ok_rejects_fully_flagged_output(self):
        reports = run_battery(deterministic_scenarios()[:3],
                              DEFAULT_DET_H, DEFAULT_DET_TOL)
        blind = [dataclasses.replace(
            r, entries=tuple(dataclasses.replace(e, flagged=True)
                             for e in r.entries))
            for r in reports]
        assert all(r.ok for r in blind)
        assert not battery_ok(blind)


class TestFlagging:
    def test_perturbation_straddling_a_kink_is_flagged(self):
        # Queue 1 empties at 2/3, exactly where the arrival rate steps up:
        # nudging theta_1 by +-h puts the emptying on opposite sides of the
        # step, so the two perturbed runs disagree on event order.
        arr1 = PiecewiseConstantRate([(0.0, 2.0), (2.0 / 3.0, 3.0)], 1.0)
        scn = GradScenario("kink", arr1, constant_rate(0.0, 1.0),
                           PhasePlan(1.0, 1.0, 0.4, 0.55), CONST5, 1.0,
                           (0.0, 0.0), 0.0, 1.0)
        report = grad_check(scn, 1e-3, DEFAULT_DET_TOL)
        by_name = {e.entry: e for e in report.entries}
        assert by_name["j11"].flagged
        assert by_name["j21"].flagged
        assert not by_name["j22"].flagged
        assert not by_name["j12"].flagged
        assert report.ok

    def test_flags_do_not_hide_checkable_columns(self):
        reports = run_battery(deterministic_scenarios(),
                              DEFAULT_DET_H, DEFAULT_DET_TOL)
        assert not any(r.all_flagged for r in reports)


def audited_runs(monkeypatch):
    """For each scenario of both batteries: the four perturbed runs the
    oracle made (theta1 + h, theta1 - h, theta2 + h, theta2 - h), each as
    the signature log the oracle read and the full log of the same window
    rerun with log=True, and the column flags the oracle returned.  The one
    unlogged call of each audit must be the nominal window, and the J the
    report carries its J: no signature run returns a J to audit."""
    real, runs, bare = oracle.simulate, [], []

    def recording(*args, **kwargs):
        traj = real(*args, **kwargs)
        if kwargs.get("log", True):
            assert kwargs["log"] == SIGNATURE and traj.jac is None
            runs.append((traj.events, real(*args, **{**kwargs, "log": True}).events))
        else:
            bare.append((args, kwargs, traj.jac))
        return traj

    monkeypatch.setattr(oracle, "simulate", recording)
    for scenarios, h, tol in ((deterministic_scenarios(), DEFAULT_DET_H, DEFAULT_DET_TOL),
                              (stochastic_scenarios(), DEFAULT_STOCH_H, DEFAULT_STOCH_TOL)):
        for scn in scenarios:
            runs.clear()
            bare.clear()
            report = grad_check(scn, h, tol)
            [(args, kwargs, jac)] = bare
            assert args + (kwargs,) == (*window_args(scn)[:-1], {"t0": scn.t0, "log": False})
            assert [e.analytic for e in report.entries] == [jac.j11, jac.j21, jac.j12, jac.j22]
            f1, _, f2, _ = (e.flagged for e in report.entries)
            yield list(runs), (f1, f2)


class TestAuditLog:
    def test_logged_events_are_plain_tuples_in_field_order(self, monkeypatch):
        # No constructor checks a logged event's length: every entry of the
        # perturbed windows' full logs is a plain tuple with one value per
        # field, and Event._make names it.
        fields = Event._fields
        events = 0
        for runs, _ in audited_runs(monkeypatch):
            assert len(runs) == 4
            for _, log in runs:
                for e in log:
                    assert type(e) is tuple and len(e) == len(fields) and Event._make(e) == e, e
                events += len(log)
        assert events > 26000  # 26,348 over the 128 perturbed runs

    def test_column_flags_follow_the_kind_queue_pairs(self, monkeypatch):
        # The oracle compares signature codes; recompute each run's codes
        # and each column's flag from the rerun's (kind, queue) pairs.
        pair = itemgetter(1, 2)
        flags = []
        for runs, got in audited_runs(monkeypatch):
            pairs = []
            for codes, log in runs:
                pairs.append([pair(e) for e in log])
                assert codes == [4 * k + q for k, q in pairs[-1]]
            p1, m1, p2, m2 = pairs
            assert got == (p1 != m1, p2 != m2)
            flags += got
        assert len(flags) == 64 and any(flags) and not all(flags)  # 1 flagged


def window_args(scn: GradScenario):
    return (scn.arrivals1, scn.arrivals2_tilde, scn.plan, scn.service, scn.phi, scn.x0,
            scn.horizon, scn.t0)


class TestExactDerivative:
    def test_differences_at_h_and_2h_agree_exactly(self):
        # On a fixed regime signature y is quadratic in theta, so its
        # central difference is the same at every step that keeps the
        # signature: the premise of the exact audit, checked on the
        # deterministic battery.
        held = 0
        for scn in deterministic_scenarios():
            cols = exact_jacobian(*window_args(scn))
            assert exact_jacobian(*window_args(scn), h=2 * H) == cols, scn.name
            held += sum(v is not None for col in cols for v in col)
        assert held == 8 * 22  # every entry of every scenario

    def test_jacobian_matches_the_exact_derivative_on_both_batteries(self):
        # Every column whose signature holds at theta +- h, within a
        # normwise relative error of 1e-12; j12 and the exact dy1/dtheta2
        # are both exactly zero.
        checked = 0
        for scn in deterministic_scenarios() + stochastic_scenarios():
            jac = oracle.analytic_jacobian(scn)
            checked += assert_jacobian(jac, exact_jacobian(*window_args(scn)))
        assert checked >= 60  # all 64 hold
