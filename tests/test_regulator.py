"""Controller arithmetic: gain inversion, guarded steps, loop equivalence."""

import math

import numpy as np
import pytest

from tandemflow.regulator import (
    CENTRALIZED,
    DECENTRALIZED,
    IDENTITY,
    GuardConfig,
    control_step,
    invert_gain,
    make_traffic_plant,
    run_closed_loop,
)
from tandemflow.scenario import ExperimentConfig, default_paper_config
from tandemflow.simcore import JacobianEstimate, PhasePlan, simulate

WIDE_OPEN = GuardConfig(epsilon_j=1e-30, step_cap=(1e9, 1e9),
                        theta_min=(1e-12, 1e-12), theta_max=(1e12, 1e12))


jac = JacobianEstimate


class TestGuardConfig:
    def test_from_fractions_scales_by_cycle(self):
        g = ExperimentConfig(c2=2.0).guards()
        assert g.step_cap == (0.25, 0.5)
        assert g.theta_min == (0.02, 0.04)
        assert g.theta_max == (0.98, 1.96)

    def test_validation(self):
        with pytest.raises(ValueError):
            GuardConfig(epsilon_j=0.0)
        with pytest.raises(ValueError):
            GuardConfig(step_cap=(0.0, 0.25))
        with pytest.raises(ValueError):
            GuardConfig(theta_min=(0.5, 0.02), theta_max=(0.4, 0.98))


class TestInvertGain:
    def test_triangular_closed_form(self):
        a = invert_gain(jac(4.0 / 3.0, -4.0 / 3.0, 2.0), IDENTITY,
                        CENTRALIZED, GuardConfig())
        assert a[0][0] == pytest.approx(0.75, abs=1e-15)
        assert a[0][1] == 0.0
        assert a[1][0] == pytest.approx(0.5, abs=1e-15)
        assert a[1][1] == pytest.approx(0.5, abs=1e-15)

    def test_identity_maps_to_identity(self):
        assert invert_gain(jac(1.0, 0.0, 1.0), ((9.0, 9.0), (9.0, 9.0)),
                           CENTRALIZED, GuardConfig()) == IDENTITY

    def test_product_is_identity_when_guards_inactive(self):
        rng = np.random.default_rng(3)
        g = GuardConfig()
        for _ in range(200):
            j11 = float(rng.uniform(0.1, 40.0)) * (1 if rng.random() < 0.5 else -1)
            j22 = float(rng.uniform(0.1, 40.0)) * (1 if rng.random() < 0.5 else -1)
            j21 = float(rng.uniform(-40.0, 40.0))
            a = invert_gain(jac(j11, j21, j22), IDENTITY, CENTRALIZED, g)
            prod = np.array(a) @ np.array([[j11, 0.0], [j21, j22]])
            assert np.abs(prod - np.eye(2)).max() < 1e-12

    def test_decentralized_ignores_coupling(self):
        a = invert_gain(jac(2.0, -17.0, 4.0), IDENTITY, DECENTRALIZED,
                        GuardConfig())
        assert a == ((0.5, 0.0), (0.0, 0.25))

    def test_modes_share_diagonal_entries(self):
        j = jac(3.7, -2.2, 1.9)
        cen = invert_gain(j, IDENTITY, CENTRALIZED, GuardConfig())
        dec = invert_gain(j, IDENTITY, DECENTRALIZED, GuardConfig())
        assert cen[0][0] == dec[0][0]
        assert cen[1][1] == dec[1][1]

    def test_small_j11_keeps_previous_first_row(self):
        prev = ((0.7, 0.0), (0.3, 0.5))
        a = invert_gain(jac(0.0, -1.0, 2.0), prev, CENTRALIZED, GuardConfig())
        assert a[0] == prev[0]
        # Centralized row 2 needs j11 too, so it is also carried over.
        assert a[1] == prev[1]

    def test_small_j22_guards_second_row_only(self):
        prev = ((0.7, 0.0), (0.3, 0.5))
        a = invert_gain(jac(2.0, -1.0, 1e-9), prev, CENTRALIZED, GuardConfig())
        assert a[0] == (0.5, 0.0)
        assert a[1] == prev[1]
        d = invert_gain(jac(2.0, -1.0, 1e-9), prev, DECENTRALIZED, GuardConfig())
        assert d[0] == (0.5, 0.0)
        assert d[1] == prev[1]

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            invert_gain(jac(1.0, 0.0, 1.0), IDENTITY, "dual", GuardConfig())


class TestControlStep:
    def test_plain_newton_style_update(self):
        gain = ((0.75, 0.0), (0.5, 0.5))
        theta = control_step((0.4, 0.6), (-1.0 / 6.0, -7.0 / 30.0), gain, GuardConfig())
        assert theta[0] == pytest.approx(0.275, abs=1e-15)
        assert theta[1] == pytest.approx(0.4, abs=1e-15)

    def test_zero_error_is_a_fixed_point(self):
        theta = control_step((0.31, 0.41), (0.0, 0.0), ((5.0, 1.0), (2.0, 3.0)), GuardConfig())
        assert theta == (0.31, 0.41)

    def test_step_cap_then_box_clamp(self):
        # Raw step 10 -> cap 0.25 -> 1.15 -> clamp to the box.
        assert control_step((0.9, 0.5), (10.0, 0.0), IDENTITY, GuardConfig()) == (0.98, 0.5)

    def test_cap_preserves_direction(self):
        assert control_step((0.5, 0.5), (-10.0, 3.0), IDENTITY, GuardConfig()) == (0.25, 0.75)

    def test_upward_cap_binds_inside_the_box(self):
        # Raw step 0.5 -> cap 0.25; the capped theta1 stays inside the box.
        assert control_step((0.3, 0.5), (0.5, 0.0), IDENTITY, GuardConfig()) == (0.3 + 0.25, 0.5)


class TestClosedLoop:
    def test_zero_cycles_yield_empty_series(self):
        assert run_closed_loop(lambda th, k: ((0.0, 0.0), jac(1, 0, 1)),
                               (0.1, 0.1), (0.8, 0.8), 0) == []

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            run_closed_loop(lambda th, k: ((0.0, 0.0), jac(1, 0, 1)),
                            (0.1, 0.1), (0.8, 0.8), -1)

    def test_one_step_on_identity_plant(self):
        plant = lambda th, k: (th, jac(1.0, 0.0, 1.0))
        recs = run_closed_loop(plant, (0.5, 0.5), (0.0, 0.0), 3,
                               guards=WIDE_OPEN)
        assert recs[0].theta == (0.0, 0.0)
        assert recs[0].e == (0.5, 0.5)
        assert recs[1].theta == (0.5, 0.5)
        assert recs[1].e == (0.0, 0.0)
        assert recs[2].theta == (0.5, 0.5)

    def test_record_bookkeeping(self):
        plant = lambda th, k: ((th[0] + 0.01, th[1]), jac(2.0, 0.5, 4.0))
        recs = run_closed_loop(plant, (0.1, 0.2), (0.3, 0.4), 5)
        assert [r.k for r in recs] == [1, 2, 3, 4, 5]
        for r in recs:
            assert r.e == (0.1 - r.y[0], 0.2 - r.y[1])

    def test_newton_equivalence_on_static_plant(self):
        # G(u) = (u1^2, u1*u2) has the lower-triangular Jacobian
        # [[2u1, 0], [u2, u1]]; with guards wide open the loop must walk
        # the exact Newton path for r = (4, 6) from (1, 1).
        r = (4.0, 6.0)

        def plant(th, k):
            u1, u2 = th
            return ((u1 * u1, u1 * u2), jac(2.0 * u1, u2, u1))

        recs = run_closed_loop(plant, r, (1.0, 1.0), 20, guards=WIDE_OPEN)

        u = np.array([1.0, 1.0])
        for rec in recs:
            assert abs(rec.theta[0] - u[0]) < 1e-12
            assert abs(rec.theta[1] - u[1]) < 1e-12
            g = np.array([u[0] ** 2, u[0] * u[1]])
            j = np.array([[2.0 * u[0], 0.0], [u[1], u[0]]])
            u = u + np.linalg.solve(j, np.array(r) - g)
        assert recs[-1].theta == pytest.approx((2.0, 3.0), abs=1e-12)

    def test_persistent_match_implies_frozen_theta(self):
        plant = lambda th, k: ((0.1, 0.1), jac(3.0, -1.0, 2.0))
        recs = run_closed_loop(plant, (0.1, 0.1), (0.27, 0.66), 6)
        assert all(r.theta == (0.27, 0.66) for r in recs)


class TestTrafficPlant:
    def test_windows_chain_and_thetas_stay_boxed(self):
        cfg = default_paper_config()
        arr1, arr2 = cfg.arrival_pair(0)
        plant = make_traffic_plant(arr1, arr2, cfg.c1, cfg.c2,
                                   cfg.service_profile(), cfg.phi,
                                   cfg.cycles_per_control)
        guards = cfg.guards()
        recs = run_closed_loop(plant, (cfg.r1, cfg.r2),
                               (cfg.theta1_init, cfg.theta2_init),
                               8, cfg.mode, guards)
        assert len(recs) == 8
        for rec in recs:
            for i in (0, 1):
                assert guards.theta_min[i] <= rec.theta[i] <= guards.theta_max[i]
            assert rec.jac.j12 == 0.0
            assert math.isfinite(rec.y[0]) and math.isfinite(rec.y[1])

    def test_one_cycle_per_window(self):
        # The smallest window is one cycle of light 1: [0, c1) for cycle 1.
        cfg = default_paper_config()
        arr1, arr2 = cfg.arrival_pair(0)
        theta = (cfg.theta1_init, cfg.theta2_init)
        plant = make_traffic_plant(arr1, arr2, cfg.c1, cfg.c2, cfg.service_profile(), cfg.phi, 1)
        traj = simulate(arr1, arr2, PhasePlan(cfg.c1, cfg.c2, *theta), cfg.service_profile(),
                        cfg.phi, (0.0, 0.0), cfg.c1, log=False)
        assert plant(theta, 1) == (traj.y, traj.jac)

    def test_rejects_zero_window(self):
        cfg = default_paper_config()
        arr1, arr2 = cfg.arrival_pair(0)
        with pytest.raises(ValueError):
            make_traffic_plant(arr1, arr2, 1.0, 1.0, cfg.service_profile(),
                               0.9, 0)
