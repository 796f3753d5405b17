"""End-to-end acceptance gate.

Six numbered criteria, each checked at its stated tolerance.  The two
statistical criteria (3 and 4) read one module-scoped noise sweep, run by
`scenario.run_sweep` as `tandemflow table1` runs it: six zetas, both modes,
ten replications per cell.  Criterion 4 reads the per-cell summaries
(`sweep_cells`); criterion 3 reads the ten replications of the reference
setup, which is the sweep's (0.3, centralized) cell (`reference_runs`).
Every check appends one pass/fail line with its measured numbers to the
terminal summary, then asserts.

Known limitation, left failing on purpose: criterion 4b expects the
decentralized loop's second channel to be driven off its setpoint by more
than 0.5 at the two highest noise levels.  With the gain guards, the step
cap and the theta box active (as configured here), the decentralized error
stays within a small factor of the centralized one at every noise level,
so that clause does not hold for this implementation.  The measured values
are printed in the summary line.
"""

import dataclasses

import numpy as np
import pytest

from conftest import acceptance_line
from tandemflow.oracle import DEFAULT_DET_H, DEFAULT_DET_TOL, \
    DEFAULT_STOCH_H, DEFAULT_STOCH_TOL, deterministic_scenarios, \
    run_battery, stochastic_scenarios
from tandemflow.regulator import CENTRALIZED, DECENTRALIZED, GuardConfig, \
    run_closed_loop
from tandemflow.scenario import default_paper_config, run_sweep, summarize
from tandemflow.simcore import JacobianEstimate, PhasePlan, ServiceProfile, \
    constant_rate, simulate

ZETAS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)


def report(num, label, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    acceptance_line(f"[{num}] {label}: {verdict}  ({detail})")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def sweep():
    return run_sweep(default_paper_config(), ZETAS)


@pytest.fixture(scope="module")
def reference_runs(sweep):
    cells = [(cfg, runs) for cfg, runs in sweep
             if (cfg.alpha1_zeta, cfg.mode) == (0.3, CENTRALIZED)]
    assert len(cells) == 1
    cfg, runs = cells[0]
    assert cfg == dataclasses.replace(default_paper_config(), mode=CENTRALIZED)
    assert len(runs) == 10
    assert all(len(recs) == cfg.num_control_cycles for recs in runs)
    return cfg, runs


@pytest.fixture(scope="module")
def sweep_cells(sweep):
    return {(cfg.alpha1_zeta, cfg.mode): summarize(cfg, runs)
            for cfg, runs in sweep}


def single_cycle(theta2):
    plan = PhasePlan(1.0, 1.0, 0.4, theta2)
    service = ServiceProfile(5.0, 5.0)
    traj = simulate(constant_rate(2.0, 1.0), constant_rate(0.0, 1.0),
                    plan, service, 1.0, (0.0, 0.0), 1.0, log=False)
    return traj.y, traj.jac


def test_1_analytic_fixtures():
    (g1, _), jac_a = single_cycle(0.4)
    (_, g2), jac_b = single_cycle(0.6)
    errs = (abs(g1 - 4.0 / 15.0), abs(jac_a.j11 - 4.0 / 3.0),
            abs(g2 - 1.0 / 3.0), abs(jac_b.j21 + 4.0 / 3.0),
            abs(jac_b.j22 - 2.0), abs(jac_b.j12))
    worst = max(errs)
    report(1, "analytic single-cycle fixtures", worst <= 1e-9,
           f"worst abs err {worst:.3g}")


def test_2_gradient_oracle_batteries():
    det = run_battery(deterministic_scenarios(), DEFAULT_DET_H,
                      DEFAULT_DET_TOL)
    sto = run_battery(stochastic_scenarios(), DEFAULT_STOCH_H,
                      DEFAULT_STOCH_TOL)

    def worst_unflagged(reports):
        errs = [c.rel_err for r in reports for c in r.entries if not c.flagged]
        return max(errs) if errs else float("inf")

    wd, ws = worst_unflagged(det), worst_unflagged(sto)
    ok = (len(det) >= 20 and all(r.ok for r in det)
          and not all(r.all_flagged for r in det)
          and len(sto) >= 10 and all(r.ok for r in sto)
          and not all(r.all_flagged for r in sto))
    report(2, "finite-difference oracle batteries", ok,
           f"{len(det)} deterministic (worst rel err {wd:.2g} vs 1e-6), "
           f"{len(sto)} stochastic (worst rel err {ws:.2g} vs 1e-3)")


def test_3a_settles_within_eight_cycles(reference_runs):
    _, runs = reference_runs
    worst = 0
    for recs in runs:
        for i in (0, 1):
            entered = [rec.k for rec in recs if 0.05 <= rec.y[i] <= 0.2]
            worst = max(worst, entered[0] if entered else 999)
    report("3a", "both channels reach [0.05, 0.2]", worst <= 8,
           f"latest first entry at control cycle {worst} of 8 allowed")


def test_3b_post_transient_output_means(reference_runs):
    _, runs = reference_runs
    means = []
    for i in (0, 1):
        per_rep = [sum(rec.y[i] for rec in recs[9:50]) / len(recs[9:50])
                   for recs in runs]
        means.append(sum(per_rep) / len(per_rep))
    ok = all(0.08 <= m <= 0.12 for m in means)
    report("3b", "output means over cycles 10..50", ok,
           f"measured ({means[0]:.4f}, {means[1]:.4f}) vs [0.08, 0.12]")


def test_3c_terminal_red_splits(reference_runs):
    _, runs = reference_runs
    t1 = sum(recs[-1].theta[0] for recs in runs) / len(runs)
    t2 = sum(recs[-1].theta[1] for recs in runs) / len(runs)
    d1, d2 = abs(t1 - 0.3113), abs(t2 - 0.4129)
    report("3c", "terminal red splits near (0.3113, 0.4129)",
           max(d1, d2) <= 0.05,
           f"replication-averaged ({t1:.4f}, {t2:.4f}), "
           f"offsets ({d1:.4f}, {d2:.4f}) vs 0.05")


def test_4a_low_noise_parity(sweep_cells):
    ok = True
    worst_ratio = 0.0
    worst_err = 0.0
    for zeta in ZETAS[:4]:
        cen = sweep_cells[zeta, CENTRALIZED]
        dec = sweep_cells[zeta, DECENTRALIZED]
        for i in (0, 1):
            pair = sorted((cen[i], dec[i]))
            worst_err = max(worst_err, pair[1])
            ratio = pair[1] / pair[0] if pair[0] > 0 else float("inf")
            worst_ratio = max(worst_ratio, ratio)
            ok = ok and pair[1] < 5e-3 and ratio <= 5.0
    report("4a", "low-noise parity of the two modes", ok,
           f"worst mean error {worst_err:.2g} vs 5e-3, "
           f"worst mode ratio {worst_ratio:.2f} vs 5")


def test_4b_high_noise_divergence_split(sweep_cells):
    cen_ok = True
    cen_worst = 0.0
    dec_err2 = []
    for zeta in (0.25, 0.30):
        cen = sweep_cells[zeta, CENTRALIZED]
        cen_worst = max(cen_worst, cen[0], cen[1])
        cen_ok = cen_ok and cen[0] < 5e-3 and cen[1] < 5e-3
        dec_err2.append(sweep_cells[zeta, DECENTRALIZED][1])
    dec_diverges = all(e > 0.5 for e in dec_err2)
    report("4b", "high-noise split (centralized holds, decentralized "
           "diverges)", cen_ok and dec_diverges,
           f"centralized worst {cen_worst:.2g} vs 5e-3; decentralized "
           f"q2 errors {dec_err2[0]:.2g}, {dec_err2[1]:.2g} vs > 0.5 required")


def test_4c_peak_backlog_grows_with_noise(sweep_cells):
    peaks = [sweep_cells[zeta, CENTRALIZED][2] for zeta in ZETAS]

    def ranks(v):
        order = sorted(range(len(v)), key=v.__getitem__)
        out = [0.0] * len(v)
        for pos, idx in enumerate(order):
            out[idx] = float(pos)
        return out

    rho = float(np.corrcoef(ranks(list(ZETAS)), ranks(peaks))[0, 1])
    report("4c", "centralized q1 peak deviation grows with noise",
           rho > 0.8, f"rank correlation {rho:.3f} vs 0.8, "
           f"peaks {min(peaks):.3f}..{max(peaks):.3f}")


def test_5_randomized_invariant_suites():
    import test_invariants as inv

    runs = inv.simulate_scenarios()
    traj_props = inv.TestTrajectoryProperties()
    checks = (
        lambda: traj_props.test_queue_contents_never_go_negative(runs),
        lambda: traj_props.test_y_and_x_end_match_the_exact_reference(runs),
        lambda: traj_props.test_conservation_against_the_event_log(runs),
        lambda: traj_props.test_service_is_zero_in_red_and_full_in_green(runs),
        lambda: traj_props.test_identical_inputs_identical_runs(runs),
        lambda: traj_props.test_event_epoch_splits_are_bit_identical(runs),
        lambda: inv.TestAccumulatorProperties()
        .test_jacobian_matches_the_exact_derivative(runs),
        lambda: inv.TestGainProperties()
        .test_inverse_product_under_random_jacobians(),
        lambda: inv.TestClosedLoopProperties()
        .test_box_containment_and_determinism(),
    )
    ok = len(runs) >= 100 and inv.N_CONFIGS >= 100
    detail = (f"{len(runs)} random trajectories, {inv.N_CONFIGS} random "
              f"closed-loop configs, 9 properties")
    if ok:
        try:
            for check in checks:
                check()
        except AssertionError as err:
            ok = False
            first = str(err).splitlines()[0] if str(err) else "violated"
            detail = f"property failed: {first}"
    report(5, "randomized invariant suites", ok, detail)


def test_6_newton_equivalence():
    def plant(u, k):
        return (u[0] ** 2, u[0] * u[1]), \
            JacobianEstimate(2.0 * u[0], u[1], u[0])

    r = (4.0, 6.0)
    wide_open = GuardConfig(epsilon_j=1e-30, step_cap=(1e9, 1e9),
                            theta_min=(1e-12, 1e-12), theta_max=(1e12, 1e12))
    recs = run_closed_loop(plant, r, (1.0, 1.0), 20, CENTRALIZED, wide_open)

    u = np.array([1.0, 1.0])
    worst = 0.0
    for rec in recs:
        worst = max(worst, abs(rec.theta[0] - u[0]),
                    abs(rec.theta[1] - u[1]))
        jac = np.array([[2.0 * u[0], 0.0], [u[1], u[0]]])
        u = u + np.linalg.solve(jac, np.array(r) - np.array(plant(u, 0)[0]))
    report(6, "newton equivalence on a static plant", worst < 1e-12,
           f"max per-step deviation {worst:.3g} over 20 steps, "
           f"final theta ({recs[-1].theta[0]:.6f}, {recs[-1].theta[1]:.6f})")
