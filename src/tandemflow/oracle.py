"""Finite-difference cross-checks for the analytic Jacobian estimator.

The estimator audited is the one the controller uses: the Jacobian that
`simulate` computes online.  It produces exact sample-path derivatives, so an
independent oracle is easy to state: rerun the simulator with the red
durations nudged by ±h against the same input realizations and difference
the window averages.  Central differences are only valid where the event
sequence is locally stable; a perturbation that reorders events (a queue
emptying on one side of the nudge but not the other) makes the output
one-sidedly kinked there.  Such columns are detected by comparing the
event signatures of the two perturbed runs and flagged rather than
compared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import OnOffSpec, gen_onoff
from .simcore import (
    SIGNATURE,
    JacobianEstimate,
    PhasePlan,
    PiecewiseConstantRate,
    ServiceProfile,
    constant_rate,
    simulate,
)

DEFAULT_DET_H = 1e-3
DEFAULT_DET_TOL = 1e-6
DEFAULT_STOCH_H = 1e-5
DEFAULT_STOCH_TOL = 1e-3

@dataclass(frozen=True, slots=True)
class GradScenario:
    """One self-contained window on which the estimator can be checked."""

    name: str
    arrivals1: PiecewiseConstantRate
    arrivals2_tilde: PiecewiseConstantRate
    plan: PhasePlan
    service: ServiceProfile
    phi: float
    x0: tuple[float, float]
    t0: float
    horizon: float


@dataclass(frozen=True, slots=True)
class EntryCheck:
    entry: str
    analytic: float
    fd: float
    rel_err: float
    flagged: bool


@dataclass(frozen=True, slots=True)
class GradCheckReport:
    name: str
    entries: tuple[EntryCheck, ...]
    tol: float

    @property
    def ok(self) -> bool:
        return all(e.flagged or e.rel_err <= self.tol for e in self.entries)

    @property
    def all_flagged(self) -> bool:
        return all(e.flagged for e in self.entries)


def _window(scn: GradScenario, theta1: float, theta2: float):
    plan = PhasePlan(scn.plan.c1, scn.plan.c2, theta1, theta2)
    # The event signature: one code 4 * kind + queue per event, markers
    # included; two runs' codes are equal exactly when their (kind, queue)
    # pairs are, and no event tuple is built.
    traj = simulate(scn.arrivals1, scn.arrivals2_tilde, plan, scn.service,
                    scn.phi, scn.x0, scn.horizon, t0=scn.t0, log=SIGNATURE)
    g1, g2 = traj.y
    return g1, g2, traj.events


def analytic_jacobian(scn: GradScenario) -> JacobianEstimate:
    # Only the perturbed runs need a log, for their signatures.
    return simulate(scn.arrivals1, scn.arrivals2_tilde, scn.plan, scn.service,
                    scn.phi, scn.x0, scn.horizon, t0=scn.t0, log=False).jac


def fd_jacobian(scn: GradScenario, h: float):
    """Central differences of the window averages over each red duration.

    Returns (fd11, fd21, fd12, fd22, col1_flagged, col2_flagged).  A
    column is flagged when its two perturbed runs disagree on the event
    signature, meaning the difference quotient straddles a kink.
    """
    th1, th2 = scn.plan.theta1, scn.plan.theta2
    g1p, g2p, sp = _window(scn, th1 + h, th2)
    g1m, g2m, sm = _window(scn, th1 - h, th2)
    fd11 = (g1p - g1m) / (2.0 * h)
    fd21 = (g2p - g2m) / (2.0 * h)
    col1_flagged = sp != sm
    g1p, g2p, sp = _window(scn, th1, th2 + h)
    g1m, g2m, sm = _window(scn, th1, th2 - h)
    fd12 = (g1p - g1m) / (2.0 * h)
    fd22 = (g2p - g2m) / (2.0 * h)
    col2_flagged = sp != sm
    return fd11, fd21, fd12, fd22, col1_flagged, col2_flagged


def _rel(analytic: float, fd: float) -> float:
    # The floor absorbs difference-quotient roundoff on entries that are
    # structurally zero; real sensitivities here are orders larger.
    return abs(analytic - fd) / max(abs(fd), abs(analytic), 1e-5)


def grad_check(scn: GradScenario, h: float, tol: float) -> GradCheckReport:
    jac = analytic_jacobian(scn)
    fd11, fd21, fd12, fd22, f1, f2 = fd_jacobian(scn, h)
    entries = (
        EntryCheck("j11", jac.j11, fd11, _rel(jac.j11, fd11), f1),
        EntryCheck("j21", jac.j21, fd21, _rel(jac.j21, fd21), f1),
        EntryCheck("j12", jac.j12, fd12, _rel(jac.j12, fd12), f2),
        EntryCheck("j22", jac.j22, fd22, _rel(jac.j22, fd22), f2),
    )
    return GradCheckReport(scn.name, entries, tol)


def deterministic_scenarios() -> list[GradScenario]:
    """Hand-built windows covering the estimator's case analysis.

    Red durations sit away from any value at which the event order
    changes, so every column is checkable at tight tolerance.
    """
    const = ServiceProfile(5.0, 5.0)
    slow = ServiceProfile(3.0, 4.0)
    ramp = ServiceProfile(
        5.0, 5.0,
        ramp1=PiecewiseConstantRate([(0.0, 2.0), (0.1, 4.0), (0.25, 5.0)], 2.0),
        ramp2=PiecewiseConstantRate([(0.0, 2.5), (0.15, 5.0)], 2.0))
    out: list[GradScenario] = []

    def add(name, a1, a2t, plan, service, phi, x0, t0, horizon):
        out.append(GradScenario(name, a1, a2t, plan, service, phi,
                                x0, t0, horizon))

    # Single and multi cycle windows at a spread of red splits.
    for i, (th1, th2) in enumerate(
            ((0.37, 0.53), (0.21, 0.68), (0.55, 0.33), (0.71, 0.47),
             (0.43, 0.82), (0.13, 0.27))):
        h = 3.0
        add(f"const-split-{i}", constant_rate(3.1, h), constant_rate(0.37, h),
            PhasePlan(1.0, 1.0, th1, th2), const, 0.9, (0.0, 0.0), 0.0, h)

    # Load high enough that queue 1 stays busy across several cycles.
    add("multicycle-busy", constant_rate(4.4, 4.0), constant_rate(0.2, 4.0),
        PhasePlan(1.0, 1.0, 0.37, 0.51), const, 0.9, (0.0, 0.0), 0.0, 4.0)
    add("heavy-both", constant_rate(4.55, 5.0), constant_rate(0.63, 5.0),
        PhasePlan(1.0, 1.0, 0.23, 0.17), const, 0.85, (1.3, 0.7), 0.0, 5.0)

    # Queue 1 drains inside green, so queue 2's feed cuts off mid-green.
    add("q1-empties-in-green", constant_rate(1.7, 3.0), constant_rate(0.41, 3.0),
        PhasePlan(1.0, 1.0, 0.44, 0.58), const, 0.9, (0.0, 0.0), 0.0, 3.0)
    add("light-load", constant_rate(0.9, 3.0), constant_rate(0.13, 3.0),
        PhasePlan(1.0, 1.0, 0.51, 0.37), const, 0.7, (0.0, 0.0), 0.0, 3.0)

    # Exogenous rate steps landing inside red and green periods.
    a1 = PiecewiseConstantRate([(0.0, 3.8), (0.83, 2.2), (1.91, 4.6), (3.13, 0.7)], 4.0)
    a2 = PiecewiseConstantRate([(0.0, 0.3), (1.37, 0.9), (2.71, 0.1)], 4.0)
    add("exo-steps", a1, a2, PhasePlan(1.0, 1.0, 0.39, 0.57), const, 0.9,
        (0.0, 0.0), 0.0, 4.0)
    a1 = PiecewiseConstantRate([(0.0, 0.0), (0.41, 4.9), (1.22, 0.0), (1.87, 5.2)], 3.0)
    a2 = PiecewiseConstantRate([(0.0, 0.55), (0.9, 0.0), (2.2, 0.8)], 3.0)
    add("bursty-steps", a1, a2, PhasePlan(1.0, 1.0, 0.33, 0.46), const, 0.9,
        (0.0, 0.0), 0.0, 3.0)

    # Unequal cycle lengths and a window that starts mid-stream.
    add("unequal-cycles", constant_rate(2.9, 6.0), constant_rate(0.42, 6.0),
        PhasePlan(1.0, 1.5, 0.37, 0.64), const, 0.9, (0.0, 0.0), 0.0, 6.0)
    add("midstream-start", constant_rate(3.3, 8.25), constant_rate(0.3, 8.25),
        PhasePlan(1.0, 1.0, 0.41, 0.55), const, 0.9, (2.1, 0.9), 5.25, 8.25)

    # Reduced service ceilings and a partial downstream fraction.
    add("slow-service", constant_rate(2.3, 4.0), constant_rate(0.5, 4.0),
        PhasePlan(1.0, 1.0, 0.29, 0.41), slow, 0.9, (0.0, 0.0), 0.0, 4.0)
    add("half-fraction", constant_rate(3.7, 3.0), constant_rate(0.8, 3.0),
        PhasePlan(1.0, 1.0, 0.35, 0.52), const, 0.5, (0.0, 0.0), 0.0, 3.0)
    add("full-fraction", constant_rate(3.0, 3.0), constant_rate(0.25, 3.0),
        PhasePlan(1.0, 1.0, 0.47, 0.61), const, 1.0, (0.0, 0.0), 0.0, 3.0)

    # Service rate that climbs in steps after each green onset.  Queue 2's
    # one busy start is triggered by queue 1's arrival jump at 0.0.
    add("ramp-service", constant_rate(3.4, 4.0), constant_rate(0.3, 4.0),
        PhasePlan(1.0, 1.0, 0.37, 0.49), ramp, 0.9, (0.0, 0.0), 0.0, 4.0)
    add("ramp-heavy", constant_rate(4.2, 4.0), constant_rate(0.55, 4.0),
        PhasePlan(1.0, 1.0, 0.27, 0.35), ramp, 0.8, (0.6, 0.2), 0.0, 4.0)

    # Initial backlogs only, no arrivals: pure drain dynamics.
    add("drain-only", constant_rate(0.0, 2.0), constant_rate(0.0, 2.0),
        PhasePlan(1.0, 1.0, 0.31, 0.43), const, 0.9, (2.6, 1.8), 0.0, 2.0)

    # Side street dominating the downstream queue.
    add("side-heavy", constant_rate(1.1, 3.0), constant_rate(2.9, 3.0),
        PhasePlan(1.0, 1.0, 0.45, 0.3), const, 0.6, (0.0, 0.0), 0.0, 3.0)

    # Long window: many cycles of steady grind.
    add("long-window", constant_rate(3.05, 10.0), constant_rate(0.35, 10.0),
        PhasePlan(1.0, 1.0, 0.42, 0.56), const, 0.9, (0.0, 0.0), 0.0, 10.0)
    return out


def stochastic_scenarios() -> list[GradScenario]:
    """Ten frozen on/off realizations with randomized red splits.

    Each case fixes one drawn input pair, so the check is still of a
    deterministic function of theta; the randomness only picks the
    scenario.
    """
    seed = 7
    const = ServiceProfile(5.0, 5.0)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 2 ** 32],
                                                            dtype=np.uint64)))
    spec1 = OnOffSpec(4.1, 0.3, 0.063, 0.035)
    spec2 = OnOffSpec(0.41, 0.3, 0.063, 0.035)
    out = []
    for i in range(10):
        horizon = float(rng.integers(4, 9))
        th1 = float(rng.uniform(0.15, 0.75))
        th2 = float(rng.uniform(0.15, 0.75))
        a1 = gen_onoff(spec1, seed + i, horizon, stream=0)
        a2 = gen_onoff(spec2, seed + i, horizon, stream=1)
        out.append(GradScenario(f"frozen-{i}", a1, a2,
                                PhasePlan(1.0, 1.0, th1, th2), const, 0.9,
                                (0.0, 0.0), 0.0, horizon))
    return out


def run_battery(scenarios, h: float, tol: float) -> list[GradCheckReport]:
    return [grad_check(s, h, tol) for s in scenarios]


def battery_ok(reports) -> bool:
    return all(r.ok for r in reports) and not all(r.all_flagged for r in reports)
