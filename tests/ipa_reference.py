"""Log-driven reference for simulate's online window outputs.

`simcore.simulate` computes each window's averaged contents y and its
sample-path Jacobian J in the pass that applies the events.  This module
computes the same two outputs a second way, from a logged window only: the
trapezoid sums over the breakpoints (`queue_integral`, `state_at`) and the
sensitivity rules fed one logged event at a time (`run_window`).  The tests
require the two ways to agree bit for bit.

Sample-path derivatives of queue content with respect to red durations:
between events the queue trajectories are linear in time and affine in the
red durations theta, so each derivative of interest is piecewise constant
and changes only at logged events.  The accumulators below hold one such
derivative (the instantaneous value) together with its running time
integral over the active window; dividing the integrals by the window
length gives the sensitivity of the window-averaged contents G.

Three derivatives matter.  d x_1/d theta_1 and d x_2/d theta_2 behave the
same way (a queue against its own light): while the queue stays busy, every
green onset raises the value by the service rate it postpones, and red
onsets leave it unchanged because the rate they remove reappears in the
next cycle's tally.  d x_2/d theta_1 is driven by queue 1's outflow jumps:
events whose epoch shifts with theta_1 (queue 1 green onsets, service
staircase steps, queue 1 emptyings) move a jump of queue 2's inflow, and
each such moving jump contributes its height times the epoch's shift rate.
d x_1/d theta_2 is structurally zero: queue 1 never sees queue 2.

All rules read one-sided limits off the event annotations; nothing here
re-simulates or replays trajectories.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from tandemflow.simcore import (
    BUSY_START,
    CONTROL_CYCLE_BOUNDARY,
    EMPTY_START,
    GREEN_START,
    INTERNAL_RATE_JUMP,
    RED_START,
    Event,
    JacobianEstimate,
    TandemTrajectory,
)

NAN = math.nan


def state_at(traj: TandemTrajectory, t: float) -> tuple[float, float]:
    """Linear interpolation of (x1, x2); exact at breakpoints."""
    if not traj.breakpoints:
        raise ValueError("trajectory has no breakpoints; simulate it with log=True")
    if not (traj.t0 <= t <= traj.t1):
        raise ValueError(f"t={t!r} outside [{traj.t0!r}, {traj.t1!r}]")
    pts = traj.breakpoints
    epochs = [p[0] for p in pts]
    j = bisect_right(epochs, t) - 1
    tj, x1, x2 = pts[j]
    if t == tj or j == len(pts) - 1:
        return (x1, x2)
    tk, y1, y2 = pts[j + 1]
    w = (t - tj) / (tk - tj)
    return (x1 + w * (y1 - x1), x2 + w * (y2 - x2))


def queue_integral(traj: TandemTrajectory, t_a: float, t_b: float) -> tuple[float, float]:
    """Time-averaged queue contents over [t_a, t_b): exact trapezoid sums
    over the piecewise-linear path, divided by the window length."""
    if not (traj.t0 <= t_a < t_b <= traj.t1):
        raise ValueError(
            f"window [{t_a!r}, {t_b!r}) not inside the simulated span "
            f"[{traj.t0!r}, {traj.t1!r})")
    pts = traj.breakpoints
    epochs = [p[0] for p in pts]
    j = bisect_right(epochs, t_a) - 1
    acc1 = acc2 = 0.0
    xl1, xl2 = state_at(traj, t_a)
    tl = t_a
    while tl < t_b:
        j += 1
        if j >= len(pts) or pts[j][0] >= t_b:
            xr1, xr2 = state_at(traj, t_b)
            tr = t_b
        else:
            tr, xr1, xr2 = pts[j]
        dt = tr - tl
        acc1 += 0.5 * (xl1 + xr1) * dt
        acc2 += 0.5 * (xl2 + xr2) * dt
        tl, xl1, xl2 = tr, xr1, xr2
    w = t_b - t_a
    return (acc1 / w, acc2 / w)


@dataclass(slots=True)
class DiagIpaAccumulator:
    """d x_i / d theta_i for queue i against its own light.

    The value decomposes as (cycle_sum + beta_now) - beta_at_start over the
    current busy period: beta_at_start is the service rate just after the
    period began, beta_now the current service rate, and cycle_sum collects
    the left-limit service rate at every red onset the period has survived.
    current_value is recomputed from these parts with a fixed operation
    order so a direct evaluation from the log can match it bit for bit.
    """

    queue: int
    current_value: float = 0.0
    running_integral: float = 0.0
    busy: bool = False
    cycle_sum: float = 0.0
    beta_now: float = 0.0
    beta_at_start: float = 0.0
    t_prev: float = NAN

    def advance_to(self, t: float) -> None:
        """Integrate the (constant) value forward to time t."""
        if math.isnan(self.t_prev):
            raise ValueError("accumulator not initialized; feed the opening window marker first")
        if t < self.t_prev:
            raise ValueError(f"time went backwards: {t!r} < {self.t_prev!r}")
        self.running_integral += self.current_value * (t - self.t_prev)
        self.t_prev = t


@dataclass(slots=True)
class CrossIpaAccumulator:
    """d x_2 / d theta_1: queue 2's sensitivity to queue 1's red duration."""

    current_value: float = 0.0
    running_integral: float = 0.0
    busy2: bool = False
    t_prev: float = NAN

    advance_to = DiagIpaAccumulator.advance_to


def _marker_init_diag(acc: DiagIpaAccumulator, ev: Event) -> None:
    busy = ev.busy1_r if acc.queue == 1 else ev.busy2_r
    acc.busy = busy
    acc.cycle_sum = 0.0
    if busy:
        b = ev.b1_r if acc.queue == 1 else ev.b2_r
        acc.beta_now = b
        acc.beta_at_start = b
    else:
        acc.beta_now = 0.0
        acc.beta_at_start = 0.0
    acc.current_value = (acc.cycle_sum + acc.beta_now) - acc.beta_at_start
    acc.running_integral = 0.0
    acc.t_prev = ev.epoch


def diag_on_event(acc: DiagIpaAccumulator, ev: Event) -> DiagIpaAccumulator:
    """Advance the diagonal accumulator through one logged event.

    The first event fed in must be the opening window marker; it fixes the
    initial busy state and resets the integral.  The derivative of a queue
    busy at the window start is 0 there: the window inherits its starting
    content as a constant.
    """
    if math.isnan(acc.t_prev):
        if ev.kind != CONTROL_CYCLE_BOUNDARY:
            raise ValueError("event log must open with a window marker")
        _marker_init_diag(acc, ev)
        return acc
    acc.advance_to(ev.epoch)
    kind = ev.kind
    if kind == CONTROL_CYCLE_BOUNDARY or ev.queue != acc.queue:
        return acc
    if kind == BUSY_START:
        acc.busy = True
        acc.cycle_sum = 0.0
        b = ev.b1_r if acc.queue == 1 else ev.b2_r
        acc.beta_now = b
        acc.beta_at_start = b
        acc.current_value = (acc.cycle_sum + acc.beta_now) - acc.beta_at_start
    elif kind == EMPTY_START:
        acc.busy = False
        acc.current_value = 0.0
    elif acc.busy:
        if kind == RED_START:
            # The rate lost from beta_now reappears in the survived-cycle
            # tally, so the value itself does not move here.
            acc.cycle_sum += ev.b1_l if acc.queue == 1 else ev.b2_l
            acc.beta_now = ev.b1_r if acc.queue == 1 else ev.b2_r
            acc.current_value = (acc.cycle_sum + acc.beta_now) - acc.beta_at_start
        elif kind == GREEN_START or kind == INTERNAL_RATE_JUMP:
            acc.beta_now = ev.b1_r if acc.queue == 1 else ev.b2_r
            acc.current_value = (acc.cycle_sum + acc.beta_now) - acc.beta_at_start
    return acc


def cross_on_event(
    acc: CrossIpaAccumulator,
    ev: Event,
    diag1: DiagIpaAccumulator,
    phi: float,
) -> CrossIpaAccumulator:
    """Advance the cross accumulator through one logged event.

    diag1 must still hold its left-limit value at this epoch: feed each
    event here before feeding it to queue 1's diagonal accumulator.
    """
    if math.isnan(acc.t_prev):
        if ev.kind != CONTROL_CYCLE_BOUNDARY:
            raise ValueError("event log must open with a window marker")
        acc.busy2 = ev.busy2_r
        acc.current_value = 0.0
        acc.running_integral = 0.0
        acc.t_prev = ev.epoch
        return acc
    acc.advance_to(ev.epoch)
    kind = ev.kind
    if kind == CONTROL_CYCLE_BOUNDARY:
        return acc
    queue = ev.queue

    if kind == EMPTY_START:
        if queue == 2:
            acc.current_value = 0.0
            acc.busy2 = False
        else:
            # Queue 1 drains out: the perturbation stored in its content is
            # released into queue 2's inflow at a shifting epoch.
            if acc.busy2:
                acc.current_value += phi * diag1.current_value
        return acc

    if kind == BUSY_START:
        if queue == 2:
            acc.busy2 = True
            tk, tq = ev.trigger_kind, ev.trigger_queue
            if tq == 1 and tk == EMPTY_START:
                raise ValueError(
                    f"busy start of queue 2 at {ev.epoch!r} triggered by an emptying of "
                    "queue 1; simulate never records that trigger")
            if tq == 1 and (tk == GREEN_START or tk == INTERNAL_RATE_JUMP):
                # The onset rides queue 1's red duration one for one.
                acc.current_value = -(ev.alpha2_r - ev.b2_r)
            else:
                acc.current_value = 0.0
        # A queue 1 filling never shifts with theta_1; no value change.
        return acc

    # Queue 1's green onsets and service steps move a jump of queue 2's
    # inflow; its red onsets drop the inflow at a fixed epoch.
    if queue == 1 and (kind == GREEN_START or kind == INTERNAL_RATE_JUMP) and acc.busy2:
        acc.current_value += ev.alpha2_l - ev.alpha2_r
    return acc


def assemble_jacobian(
    diag1: DiagIpaAccumulator,
    diag2: DiagIpaAccumulator,
    cross: CrossIpaAccumulator,
    window: float,
) -> JacobianEstimate:
    """Divide the three running integrals by the shared window length."""
    if not window > 0.0:
        raise ValueError(f"window length must be positive, got {window!r}")
    return JacobianEstimate(
        j11=diag1.running_integral / window,
        j21=cross.running_integral / window,
        j22=diag2.running_integral / window,
        window=window,
    )


def run_window(
    traj: TandemTrajectory,
) -> tuple[JacobianEstimate, DiagIpaAccumulator, DiagIpaAccumulator, CrossIpaAccumulator]:
    """Drive fresh accumulators over a simulated window's event log."""
    if not traj.events:
        raise ValueError("trajectory has no event log; simulate it with log=True")
    d1 = DiagIpaAccumulator(queue=1)
    d2 = DiagIpaAccumulator(queue=2)
    cx = CrossIpaAccumulator()
    phi = traj.phi
    for ev in traj.events:
        cross_on_event(cx, ev, d1, phi)
        diag_on_event(d1, ev)
        diag_on_event(d2, ev)
    jac = assemble_jacobian(d1, d2, cx, traj.t1 - traj.t0)
    return jac, d1, d2, cx
