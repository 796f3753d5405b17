"""Property suites over randomized scenarios and configurations.

Each property runs against at least 100 randomized cases.  Scenario
randomization draws bursty on/off inputs, red splits, merge fractions and
initial backlogs; configuration randomization drives full closed loops.
"""

import numpy as np
import pytest

from exact_reference import assert_close, assert_jacobian, exact_jacobian, exact_window
from tandemflow.regulator import CENTRALIZED, DECENTRALIZED, IDENTITY, \
    GuardConfig, invert_gain
from tandemflow.scenario import ExperimentConfig, OnOffSpec, gen_onoff, \
    run_replication
from tandemflow.simcore import JacobianEstimate, PhasePlan, ServiceProfile, \
    simulate

N_SCENARIOS = 110
N_CONFIGS = 105


def random_scenarios():
    rng = np.random.default_rng(2026)
    for i in range(N_SCENARIOS):
        c1 = float(rng.choice([1.0, 1.0, 1.0, 1.5]))
        c2 = float(rng.choice([1.0, 1.0, 1.0, 1.25]))
        plan = PhasePlan(c1, c2,
                         float(rng.uniform(0.05, 0.95)) * c1,
                         float(rng.uniform(0.05, 0.95)) * c2)
        beta = float(rng.integers(2, 7))
        service = ServiceProfile(beta, beta)
        phi = float(rng.uniform(0.0, 1.0))
        horizon = float(rng.uniform(2.0, 5.0))
        spec1 = OnOffSpec(float(rng.uniform(0.5, 5.0)),
                          float(rng.uniform(0.0, 0.6)),
                          float(rng.uniform(0.01, 0.3)),
                          float(rng.uniform(0.01, 0.3)))
        spec2 = OnOffSpec(float(rng.uniform(0.1, 3.0)),
                          float(rng.uniform(0.0, 0.6)),
                          float(rng.uniform(0.01, 0.3)),
                          float(rng.uniform(0.01, 0.3)))
        arr1 = gen_onoff(spec1, seed=1000 + i, horizon=horizon, stream=0)
        arr2 = gen_onoff(spec2, seed=1000 + i, horizon=horizon, stream=1)
        x0 = (0.0, 0.0)
        if rng.random() < 0.3:
            x0 = (float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 1.0)))
        yield (arr1, arr2, plan, service, phi, x0, horizon, beta,
               int(rng.integers(0, 2 ** 31)))


def simulate_scenarios():
    """(trajectory, inputs, beta, salt) for each random scenario."""
    return [(simulate(*inputs), inputs, beta, salt)
            for *inputs, beta, salt in random_scenarios()]


@pytest.fixture(scope="module")
def scenario_runs():
    runs = simulate_scenarios()
    assert len(runs) >= 100
    return runs


class TestTrajectoryProperties:
    def test_queue_contents_never_go_negative(self, scenario_runs):
        for traj, *_ in scenario_runs:
            for ev in traj.events:
                assert ev.x1 >= 0.0
                assert ev.x2 >= 0.0
            assert min(traj.x_end) >= 0.0

    def test_y_and_x_end_match_the_exact_reference(self, scenario_runs):
        for traj, inputs, *_ in scenario_runs:
            assert_close(traj, exact_window(*inputs), inputs[5])

    def test_conservation_against_the_event_log(self, scenario_runs):
        for traj, *_ in scenario_runs:
            net1 = net2 = 0.0
            for prev, nxt in zip(traj.events, traj.events[1:]):
                dt = nxt.epoch - prev.epoch
                out1 = prev.b1_r if prev.busy1_r else prev.a1_r
                out2 = prev.b2_r if prev.busy2_r else prev.alpha2_r
                net1 += (prev.a1_r - out1) * dt
                net2 += (prev.alpha2_r - out2) * dt
            x1a, x2a = traj.events[0].x1, traj.events[0].x2
            x1b, x2b = traj.x_end
            assert x1b - x1a == pytest.approx(net1, abs=1e-9)
            assert x2b - x2a == pytest.approx(net2, abs=1e-9)

    def test_service_is_zero_in_red_and_full_in_green(self, scenario_runs):
        for traj, inputs, beta, _ in scenario_runs:
            for ev in traj.events:
                assert ev.b1_r == (beta if ev.green1_r else 0.0)
                assert ev.b2_r == (beta if ev.green2_r else 0.0)

    def test_identical_inputs_identical_runs(self, scenario_runs):
        for traj, inputs, *_ in scenario_runs[::7]:
            again = simulate(*inputs)
            assert (again.y, again.jac, again.x_end) == (traj.y, traj.jac, traj.x_end)
            assert again.events == traj.events

    def test_event_epoch_splits_are_bit_identical(self, scenario_runs):
        for traj, inputs, _, salt in scenario_runs[::5]:
            arr1, arr2, plan, service, phi, x0, horizon = inputs
            interior = [ev.epoch for ev in traj.events
                        if 0.0 < ev.epoch < horizon]
            if not interior:
                continue
            m = interior[salt % len(interior)]
            head = simulate(arr1, arr2, plan, service, phi, x0, m)
            tail = simulate(arr1, arr2, plan, service, phi,
                            head.x_end, horizon, t0=m)
            at_m = next(ev for ev in traj.events if ev.epoch == m)
            assert head.x_end == (at_m.x1, at_m.x2)
            assert tail.x_end == traj.x_end
            assert [ev for ev in head.events[1:-1] if ev.epoch < m] == \
                [ev for ev in traj.events[1:-1] if ev.epoch < m]
            assert [ev for ev in tail.events[1:-1] if ev.epoch > m] == \
                [ev for ev in traj.events[1:-1] if ev.epoch > m]


class TestAccumulatorProperties:
    def test_jacobian_matches_the_exact_derivative(self, scenario_runs):
        checked = 0
        for traj, inputs, *_ in scenario_runs[::5]:
            checked += assert_jacobian(traj.jac, exact_jacobian(*inputs))
        assert checked >= 40  # all 44 columns hold

    def test_upstream_insensitivity_is_structural(self, scenario_runs):
        for traj, inputs, *_ in scenario_runs[::10]:
            assert traj.jac.j12 == 0.0
            assert exact_jacobian(*inputs)[1][0] == 0


class TestGainProperties:
    def test_inverse_product_under_random_jacobians(self):
        rng = np.random.default_rng(7)
        g = GuardConfig()
        checked = 0
        for _ in range(150):
            j11 = float(rng.uniform(0.05, 60.0) * rng.choice([-1.0, 1.0]))
            j22 = float(rng.uniform(0.05, 60.0) * rng.choice([-1.0, 1.0]))
            j21 = float(rng.uniform(-60.0, 60.0))
            if abs(j11) < g.epsilon_j or abs(j22) < g.epsilon_j:
                continue
            jac = JacobianEstimate(j11, j21, j22)
            a = invert_gain(jac, IDENTITY, CENTRALIZED, g)
            prod = np.array(a) @ np.array([[j11, 0.0], [j21, j22]])
            assert np.abs(prod - np.eye(2)).max() < 1e-12
            d = invert_gain(jac, IDENTITY, DECENTRALIZED, g)
            assert d[0][1] == 0.0 and d[1][0] == 0.0
            assert d[0][0] == a[0][0] and d[1][1] == a[1][1]
            checked += 1
        assert checked >= 100


def random_configs():
    rng = np.random.default_rng(99)
    for i in range(N_CONFIGS):
        c1 = float(rng.choice([1.0, 1.0, 1.5]))
        yield ExperimentConfig(
            c1=c1,
            c2=c1,
            cycles_per_control=int(rng.integers(2, 6)),
            num_control_cycles=int(rng.integers(3, 7)),
            alpha1_mean=float(rng.uniform(1.0, 4.8)),
            alpha1_zeta=float(rng.uniform(0.0, 0.5)),
            alpha1_off_max=float(rng.uniform(0.02, 0.2)),
            alpha1_on_max=float(rng.uniform(0.02, 0.2)),
            alpha2_mean=float(rng.uniform(0.1, 1.5)),
            alpha2_zeta=float(rng.uniform(0.0, 0.5)),
            alpha2_off_max=float(rng.uniform(0.02, 0.2)),
            alpha2_on_max=float(rng.uniform(0.02, 0.2)),
            phi=float(rng.uniform(0.0, 1.0)),
            beta_max1=float(rng.uniform(3.0, 6.0)),
            beta_max2=float(rng.uniform(3.0, 6.0)),
            r1=float(rng.uniform(0.02, 0.4)),
            r2=float(rng.uniform(0.02, 0.4)),
            theta1_init=float(rng.uniform(0.1, 0.9)) * c1,
            theta2_init=float(rng.uniform(0.1, 0.9)) * c1,
            mode=CENTRALIZED if i % 2 == 0 else DECENTRALIZED,
            seed=int(rng.integers(0, 10_000)),
        )


class TestClosedLoopProperties:
    def test_box_containment_and_determinism(self):
        count = 0
        for cfg in random_configs():
            guards = cfg.guards()
            recs = run_replication(cfg, 0)
            assert len(recs) == cfg.num_control_cycles
            for rec in recs:
                for i in (0, 1):
                    assert guards.theta_min[i] <= rec.theta[i] \
                        <= guards.theta_max[i]
                assert rec.e == (cfg.r1 - rec.y[0], cfg.r2 - rec.y[1])
                assert rec.y[0] >= 0.0 and rec.y[1] >= 0.0
            if count % 5 == 0:
                assert run_replication(cfg, 0) == recs
            count += 1
        assert count >= 100
