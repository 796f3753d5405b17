"""Adaptive-gain integral control of the window-averaged queue contents.

Each control cycle applies a fixed pair of red durations theta, measures the
averaged contents y and the sensitivity matrix J over that cycle, and then
takes a Newton-flavored step theta += A e where A inverts the just-measured
J and e = r - y.  Because the gain is rebuilt from measurements every cycle,
the loop needs no plant model; guards keep it sane when a measured Jacobian
is nearly singular or the raw step is wild.

The loop itself is plant-agnostic: anything callable as plant(theta, k) ->
(y, JacobianEstimate) can be driven, which is how the controller is checked
against a hand-rolled Newton iteration on synthetic maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .simcore import JacobianEstimate, PhasePlan, PiecewiseConstantRate, ServiceProfile, simulate

Matrix = tuple[tuple[float, float], tuple[float, float]]

IDENTITY: Matrix = ((1.0, 0.0), (0.0, 1.0))

CENTRALIZED = "centralized"
DECENTRALIZED = "decentralized"


@dataclass(frozen=True, slots=True)
class GuardConfig:
    """Safety limits for the gain inversion and the theta update.

    epsilon_j: a measured diagonal Jacobian entry smaller than this in
    magnitude is treated as singular and the affected gain row is carried
    over from the previous cycle.  step_cap / theta_min / theta_max are
    absolute per-queue values; `ExperimentConfig.guards` builds them from
    fractions of each cycle length.
    """

    epsilon_j: float = 1e-3
    step_cap: tuple[float, float] = (0.25, 0.25)
    theta_min: tuple[float, float] = (0.02, 0.02)
    theta_max: tuple[float, float] = (0.98, 0.98)

    def __post_init__(self) -> None:
        if not self.epsilon_j > 0.0:
            raise ValueError(f"epsilon_j must be positive, got {self.epsilon_j!r}")
        for i in (0, 1):
            if not self.step_cap[i] > 0.0:
                raise ValueError(f"step_cap[{i}] must be positive, got {self.step_cap[i]!r}")
            if not 0.0 < self.theta_min[i] < self.theta_max[i]:
                raise ValueError(
                    f"theta bounds for queue {i + 1} must satisfy 0 < min < max, "
                    f"got [{self.theta_min[i]!r}, {self.theta_max[i]!r}]")


@dataclass(frozen=True, slots=True)
class CycleRecord:
    """One row of a closed-loop run: what was applied and what came back."""

    k: int
    theta: tuple[float, float]
    y: tuple[float, float]
    e: tuple[float, float]
    jac: JacobianEstimate


def invert_gain(
    jac: JacobianEstimate,
    prev_gain: Matrix,
    mode: str,
    guards: GuardConfig,
) -> Matrix:
    """Gain for the next cycle from the measured Jacobian.

    The Jacobian is lower triangular, so the centralized inverse is closed
    form.  Decentralized mode pretends the coupling entry is zero and
    inverts the diagonal only.  A row whose computation would divide by a
    near-zero diagonal entry is copied from prev_gain instead; in
    centralized mode the second row also needs j11, so it is guarded by
    either diagonal entry going small.
    """
    if mode not in (CENTRALIZED, DECENTRALIZED):
        raise ValueError(f"mode must be {CENTRALIZED!r} or {DECENTRALIZED!r}, got {mode!r}")
    j11, j21, j22 = jac.j11, jac.j21, jac.j22
    eps = guards.epsilon_j
    bad11 = abs(j11) < eps
    bad22 = abs(j22) < eps

    if bad11:
        row1 = prev_gain[0]
    else:
        row1 = (1.0 / j11, 0.0)
    if mode == CENTRALIZED:
        if bad22 or bad11:
            row2 = prev_gain[1]
        else:
            row2 = (-j21 / (j11 * j22), 1.0 / j22)
    else:
        if bad22:
            row2 = prev_gain[1]
        else:
            row2 = (0.0, 1.0 / j22)
    return (row1, row2)


def control_step(theta: tuple[float, float], e: tuple[float, float], gain: Matrix,
                 guards: GuardConfig) -> tuple[float, float]:
    """The next theta: theta + gain @ e, each component step capped, then box clamped."""
    e1, e2 = e
    d1 = gain[0][0] * e1 + gain[0][1] * e2
    d2 = gain[1][0] * e1 + gain[1][1] * e2
    cap1, cap2 = guards.step_cap
    if d1 > cap1:
        d1 = cap1
    elif d1 < -cap1:
        d1 = -cap1
    if d2 > cap2:
        d2 = cap2
    elif d2 < -cap2:
        d2 = -cap2
    th1 = theta[0] + d1
    th2 = theta[1] + d2
    lo1, lo2 = guards.theta_min
    hi1, hi2 = guards.theta_max
    th1 = lo1 if th1 < lo1 else (hi1 if th1 > hi1 else th1)
    th2 = lo2 if th2 < lo2 else (hi2 if th2 > hi2 else th2)
    return (th1, th2)


Plant = Callable[[tuple[float, float], int], tuple[tuple[float, float], JacobianEstimate]]


def run_closed_loop(
    plant: Plant,
    r: tuple[float, float],
    theta_init: tuple[float, float],
    num_cycles: int,
    mode: str = CENTRALIZED,
    guards: GuardConfig | None = None,
    initial_gain: Matrix = IDENTITY,
) -> list[CycleRecord]:
    """Drive the controller against a plant for num_cycles control cycles.

    Cycle k applies theta_k, reads back (y_k, J_k), and computes
    theta_{k+1} = theta_k + invert_gain(J_k) @ (r - y_k).  The configured
    initial gain never multiplies an error; it only seeds the guard
    fallback before the first measured Jacobian exists.
    """
    if num_cycles < 0:
        raise ValueError(f"num_cycles must be >= 0, got {num_cycles!r}")
    if guards is None:
        guards = GuardConfig()
    theta, gain = theta_init, initial_gain
    records: list[CycleRecord] = []
    for k in range(1, num_cycles + 1):
        y, jac = plant(theta, k)
        e = (r[0] - y[0], r[1] - y[1])
        records.append(CycleRecord(k=k, theta=theta, y=y, e=e, jac=jac))
        gain = invert_gain(jac, gain, mode, guards)
        theta = control_step(theta, e, gain, guards)
    return records


def make_traffic_plant(
    arrivals1: PiecewiseConstantRate,
    arrivals2_tilde: PiecewiseConstantRate,
    c1: float,
    c2: float,
    service: ServiceProfile,
    phi: float,
    cycles_per_control: int,
) -> Plant:
    """Plant closure over one arrival realization, starting from empty queues.

    Control windows are contiguous: window k covers [(k-1)T, kT) with
    T = cycles_per_control * c1, and the queue contents carry over between
    windows.  Window boundaries align with light 1's cycle starts; when the
    two cycle lengths differ, light 2's in-progress phase at a boundary is
    re-evaluated under the incoming theta_2.  y and J come from the
    simulator's online pass; no event log is built.
    """
    if cycles_per_control < 1:
        raise ValueError(f"cycles_per_control must be >= 1, got {cycles_per_control!r}")
    t_window = cycles_per_control * c1
    x_state = [0.0, 0.0]

    def plant(theta: tuple[float, float], k: int) -> tuple[tuple[float, float], JacobianEstimate]:
        plan = PhasePlan(c1, c2, theta[0], theta[1])
        t0 = (k - 1) * t_window
        t1 = k * t_window
        traj = simulate(arrivals1, arrivals2_tilde, plan, service, phi,
                        (x_state[0], x_state[1]), t1, t0=t0, log=False)
        x_state[0], x_state[1] = traj.x_end
        return traj.y, traj.jac

    return plant
