"""Event-driven simulator for two fluid queues in tandem behind traffic lights.

Queue 1 drains into queue 2. Each queue is gated by a fixed-cycle light:
blocked on [k*c_i, k*c_i + theta_i), served on [k*c_i + theta_i, (k+1)*c_i).
All inflow and service rates are piecewise constant, so queue contents are
piecewise linear and every event epoch (light switch, rate jump, queue
emptying or filling) is computed in closed form.  There is no time stepping:
the trajectory is exact up to floating-point rounding.

While it applies each event batch, the simulator also computes the window
outputs online: the time-averaged contents y by exact trapezoid sums, and the
sample-path Jacobian J by diagonal and cross sensitivity rules applied at
each event.  This is the package's only sensitivity pass.  On request it also
returns the event log, each event annotated with the state just after it,
or only each event's signature code, which the finite-difference audit
compares.  The tests check y, the end state and J against an independent
simulator in exact rational arithmetic (`tests/exact_reference.py`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

INF = math.inf

# Event kinds.  Plain ints keep the event loop cheap.
RED_START = 0
GREEN_START = 1
EXO_RATE_JUMP = 2
INTERNAL_RATE_JUMP = 3
BUSY_START = 4
EMPTY_START = 5
CONTROL_CYCLE_BOUNDARY = 6

# The signature log (log=SIGNATURE) holds each event as the small int
# 4 * kind + queue, which CPython caches: one code per (kind, queue) pair.
SIGNATURE = "signature"
MARK = 4 * CONTROL_CYCLE_BOUNDARY
EXO1, EXO2 = 4 * EXO_RATE_JUMP + 1, 4 * EXO_RATE_JUMP + 2
INT1, INT2 = 4 * INTERNAL_RATE_JUMP + 1, 4 * INTERNAL_RATE_JUMP + 2
BUSY1, BUSY2 = 4 * BUSY_START + 1, 4 * BUSY_START + 2
EMPTY1, EMPTY2 = 4 * EMPTY_START + 1, 4 * EMPTY_START + 2

@dataclass(frozen=True, slots=True)
class PhasePlan:
    """Fixed-cycle light timing for both intersections.

    theta_i is the red duration of queue i's light; it must lie strictly
    inside (0, c_i) so every cycle has both a red and a green interval.  A
    theta_i within rounding of c_i can still round a green onset onto its
    cycle's end; that green is then empty (see `_light_plan`).
    """

    c1: float
    c2: float
    theta1: float
    theta2: float

    def __post_init__(self) -> None:
        for c, th, i in ((self.c1, self.theta1, 1), (self.c2, self.theta2, 2)):
            if not (math.isfinite(c) and c > 0.0):
                raise ValueError(f"c{i} must be a positive finite cycle length, got {c!r}")
            if not (0.0 < th < c):
                raise ValueError(f"theta{i}={th!r} outside the open interval (0, c{i}={c!r})")


class PiecewiseConstantRate:
    """Right-continuous step function used for every rate process.

    `segments` is an iterable of (start_epoch, rate) pairs or an (n, 2)
    array; the first epoch must be 0.0, epochs must increase strictly,
    rates are finite and >= 0.  The value on [epochs[j], epochs[j+1]) is
    rates[j]; `horizon` bounds the domain of validity.
    """

    __slots__ = ("epochs", "rates", "horizon")

    def __init__(self, segments, horizon: float):
        # One read of `segments`, so any iterable of pairs works; the checks
        # run in numpy, the stored values are Python floats for `simulate`.
        seg = np.asarray(segments if isinstance(segments, np.ndarray) else list(segments), dtype=float)
        if seg.ndim != 2 or seg.shape[1] != 2 or not len(seg):
            raise ValueError(f"segments must be one or more (epoch, rate) pairs, got shape {seg.shape}")
        epochs, rates = seg[:, 0].tolist(), seg[:, 1].tolist()
        if epochs[0] != 0.0:
            raise ValueError(f"first segment must start at 0.0, got {epochs[0]!r}")
        up = seg[1:, 0] > seg[:-1, 0]
        if not up.all():
            j = int(up.argmin())
            raise ValueError(f"segment epochs must increase strictly ({epochs[j]!r} -> {epochs[j + 1]!r})")
        ok = np.isfinite(seg[:, 1]) & (seg[:, 1] >= 0.0)
        if not ok.all():
            raise ValueError(f"rates must be finite and nonnegative, got {rates[int(ok.argmin())]!r}")
        horizon = float(horizon)
        if not (math.isfinite(horizon) and horizon > epochs[-1]):
            raise ValueError(f"horizon {horizon!r} must exceed the last segment epoch {epochs[-1]!r}")
        self.epochs, self.rates, self.horizon = epochs, rates, horizon


def constant_rate(rate: float, horizon: float) -> PiecewiseConstantRate:
    """Single-segment process holding `rate` on [0, horizon)."""
    return PiecewiseConstantRate([(0.0, rate)], horizon)


@dataclass(frozen=True, slots=True)
class ServiceProfile:
    """Service (departure) rate profile applied during green intervals.

    Queue i with a ramp_i is served at a rate that follows that nondecreasing
    staircase over elapsed green time (start-up ramp), given as a
    PiecewiseConstantRate whose epochs are offsets from the green onset;
    without one it is served at beta_max_i whenever its light is green.
    Service is always 0 during red.
    """

    beta_max1: float
    beta_max2: float
    ramp1: PiecewiseConstantRate | None = None
    ramp2: PiecewiseConstantRate | None = None

    def __post_init__(self) -> None:
        for b, i in ((self.beta_max1, 1), (self.beta_max2, 2)):
            if not (math.isfinite(b) and b > 0.0):
                raise ValueError(f"beta_max{i} must be positive and finite, got {b!r}")
        for ramp, bmax, i in ((self.ramp1, self.beta_max1, 1), (self.ramp2, self.beta_max2, 2)):
            if ramp is None:
                continue
            prev = -INF
            for v in ramp.rates:
                if v < prev:
                    raise ValueError(f"ramp{i} staircase must be nondecreasing")
                prev = v
            if prev > bmax:
                raise ValueError(f"ramp{i} staircase exceeds beta_max{i}={bmax!r}")


class Event(NamedTuple):
    """One discontinuity of the coupled system, with the state just after it.

    The annotations, x1, x2 and the fields ending in _r, hold the state just
    after this event.  When several events share an epoch they are applied
    in a fixed priority order (light switches, exogenous jumps, internal
    jumps, emptyings, fillings; queue 1 before queue 2), so an event's
    annotations include the changes before it in its batch, not those after
    it.  `alpha2` is the merged inflow to queue 2.

    Only queue 2's BusyStart events record a trigger, the event that switched
    its net inflow positive, in trigger_kind / trigger_queue.  All other events
    carry trigger_kind == -1, as does a busy start with no identified trigger.

    The log holds each event as a plain tuple of these values in field
    order, built inline by `simulate` with no constructor call;
    `Event._make(e)` names one (`ev.alpha2_r`, `_replace`).
    """

    epoch: float
    kind: int
    queue: int
    x1: float
    x2: float
    busy1_r: bool
    busy2_r: bool
    green1_r: bool
    green2_r: bool
    a1_r: float
    b1_r: float
    b2_r: float
    alpha2_r: float
    trigger_kind: int
    trigger_queue: int


@dataclass(frozen=True, slots=True)
class JacobianEstimate:
    """Window-averaged sensitivity matrix dG/dtheta.

    Lower triangular by construction: queue 1 is upstream, so j12 is an
    exact structural zero, not a computed small number.
    """

    j11: float
    j21: float
    j22: float

    @property
    def j12(self) -> float:
        return 0.0


@dataclass(slots=True)
class TandemTrajectory:
    """The outputs of one simulated window [t0, horizon).

    x_end is the state at the horizon, y the time-averaged contents over the
    window and jac the window's sample-path Jacobian, or None under
    log=SIGNATURE, which skips the busy run's Jacobian integrals.  Under
    log=True, events is the annotated log of plain tuples in `Event._fields`
    order, bracketed by ControlCycleBoundary markers whose annotations give
    the state entering and leaving the window; under log=SIGNATURE it holds
    each of those events' code 4 * kind + queue instead; under log=False it
    is empty.  The state at any batch epoch t is the end state of the same
    run with horizon t.
    """

    events: list
    x_end: tuple[float, float]
    y: tuple[float, float]
    jac: JacobianEstimate | None


# Light-plan codes.  A light switch is 2 * (queue - 1) + kind, so sorting on
# (epoch, code) puts queue 1 before queue 2 and a red start before a green
# start at one epoch; staircase steps, STEP for queue 1 and STEP + 1 for
# queue 2, sort after every switch at their epoch.
STEP = 4


def _light_plan(plan: PhasePlan, service: ServiceProfile, t0: float, horizon: float):
    """The light plan of the window [t0, horizon) and the light state in force
    at t0, as (stream, (green1, b1), (green2, b2)).

    Each queue's red starts k*c, green onsets k*c + theta and, under
    staircase service, steps k*c + theta + offset are enumerated from cycle
    max(int(t0 // c) - 1, 0) as products and sums, never running sums, so
    every window agrees bitwise on every epoch.  Entries are (epoch, code,
    rate): a red start carries 0.0 and a green onset the rate it opens at
    (constant service is the one-step staircase [(0.0, beta_max)]).  A green
    holds the steps strictly before its queue's next red start or the
    horizon: a step on the red start is cancelled by it, and a step that
    rounds onto the onset sets the rate the green opens at.  A green onset
    that rounds onto or past the next red start, which only a theta within
    rounding of c can cause, is dropped: that cycle's green is empty, and
    the next red start is dropped with it, so the light stays red through
    both cycles with no switch between.  The light is red before 0.0, so the
    red start at 0.0 is dropped too.

    One rule splits the entries at t0: a switch before t0 or a step at or
    before t0 (the staircase is right-continuous) is in force, and the last
    one in force sets the queue's phase and rate; with none, the light is
    red.  The rest is the stream, in batch order and ended by the sentinel
    (horizon, -1, 0.0): a switch at exactly t0 is applied by the window's
    first batch.
    """
    if not horizon > t0 >= 0.0:
        raise ValueError(f"need 0 <= t0 < horizon, got t0={t0!r} horizon={horizon!r}")
    stream, in_force = [], []
    for q, c, th, ramp, bmax in ((0, plan.c1, plan.theta1, service.ramp1, service.beta_max1),
                                 (1, plan.c2, plan.theta2, service.ramp2, service.beta_max2)):
        rate0, steps = (ramp.rates[0], list(zip(ramp.epochs[1:], ramp.rates[1:]))) if ramp else (bmax, ())
        state = (False, 0.0)  # (green, rate) of the latest entry in force
        k = max(int(t0 // c) - 1, 0)
        nxt = k * c
        stays_red = True  # red runs on: the last green was dropped, or none was before 0.0
        while nxt < horizon:
            base, k = nxt, k + 1
            nxt = k * c
            if base < t0:
                state = (False, 0.0)
            elif not stays_red:
                stream.append((base, 2 * q, 0.0))
            g = base + th
            stays_red = g >= nxt
            if not stays_red and g < horizon:
                if g < t0:
                    state = (True, rate0)
                else:
                    stream.append((g, 2 * q + 1, rate0))
                for off, v in steps:
                    e = g + off
                    if e >= nxt or e >= horizon:
                        break  # offsets increase, so the rest fall later still
                    if e <= g and g >= t0:
                        stream[-1] = (g, 2 * q + 1, v)  # rounds onto its onset: opens at v
                    elif e <= t0:
                        state = (True, v)
                    else:
                        stream.append((e, STEP + q, v))
        in_force.append(state)
    # Plain tuple order: entries tie on (epoch, code) only as steps of one
    # green, which a nondecreasing staircase keeps in their order.
    stream.sort()
    stream.append((horizon, -1, 0.0))
    return stream, in_force[0], in_force[1]


def _arrival_stream(arr: PiecewiseConstantRate, t0: float, horizon: float):
    """The arrival stream of the window: the epochs in [t0, horizon) with
    `horizon` appended as the sentinel, their rates, and the rate in force
    just before t0.  An epoch at exactly t0 is a pending event."""
    eps = arr.epochs
    i = bisect_left(eps, t0)
    j = bisect_left(eps, horizon, i)
    stream = eps[i:j]
    stream.append(horizon)
    return stream, arr.rates[i:j], arr.rates[i - 1] if i else 0.0


def simulate(
    arrivals1: PiecewiseConstantRate,
    arrivals2_tilde: PiecewiseConstantRate,
    plan: PhasePlan,
    service: ServiceProfile,
    phi: float,
    x0: tuple[float, float],
    horizon: float,
    t0: float = 0.0,
    *,
    log: bool | str = True,
) -> TandemTrajectory:
    """Run the tandem system exactly over the window [t0, horizon).

    Scheduled events at t0 are applied at the window start; scheduled events
    at the horizon belong to the next window.  A queue that drains to zero
    exactly at the horizon still logs its EmptyStart so the end state is an
    exact zero.  The log is bracketed by ControlCycleBoundary markers: the
    opening marker carries the state entering the window (before any events
    at t0), the closing one the state at the horizon.  The light phases and
    service rates entering the window are those `_light_plan` finds in
    force: the switches before t0 and the staircase steps at or before t0.
    So a run restarted at one of its own batch epochs, from the state there,
    repeats the rest of the run: the same end state, and the same events
    after the restart epoch.

    The window outputs y and jac are computed in the same pass.  `log` only
    decides whether events are appended, and in which form, so y and the end
    state are the same bits in all three modes, and jac under False and
    True.  With log=False the list stays empty, which is all a closed-loop
    plant needs; with log=True it holds plain tuples, built inline, in
    `Event._fields` order (`Event._make` names one); with log=SIGNATURE it
    holds one small int per event, 4 * kind + queue, markers included, and
    builds no tuple.  The code is injective, so two signature logs are equal
    exactly when their lists of (kind, queue) pairs are.  The signature pass
    also skips the busy run's Jacobian integrals (the flag `full`), so its
    jac would be incomplete and it returns None: the audit that uses it
    reads only y and the codes.

    The loop reads three streams, each a list ending in the sentinel
    `horizon`: the light plan (the switches, each with the rate it sets, and
    under staircase service the steps; see `_light_plan`) and the window's
    slices of the two arrival processes.  The next epoch is the least of the
    three heads and the two predicted emptyings; an exhausted stream rests
    on its sentinel, so no head needs a bounds test.  A batch applies its
    changes in a fixed priority order: light switches, queue 1's arrival
    jump, queue 2's, queue 1's staircase steps, queue 2's, emptyings,
    fillings.  The order fixes the order of every float operation, which
    keeps y, J and the end state reproducible bit for bit.

    A lone arrival jump (strictly before the next light-plan entry, not tied
    with the other stream, and filling no idle queue by the batch's own fill
    tests) is applied in place with no batch, in one of two ways, and logged
    as its batch would log it.  The empty-period skip takes those that fall
    while both queues are empty: there x1 = x2 = 0 and v11 = v22 = v21 = 0,
    so each term the batch would add is a zero.  It changes no bit but saves
    time: without it the kernel ran a closed-loop replication 1.17x and
    1.28x as long in median (zeta = 0.3, 0.05), and 1.11x with the busy run
    taking those jumps.  The busy run takes the rest: the advance is a loop
    that applies such a jump as its batch would (the trapezoid sums, and on
    a rate change the affected slope and, but in the signature pass, the IPA
    integrals up to t; a jump moves no IPA value) and advances again.  A
    jump to the rate already in force logs nothing, but it still splits the
    drain x += s*dt and the trapezoid sums in two, so dropping it while a
    queue is busy changes the last bits of y, J and the end state.  The busy
    run hands the epoch to the batch at an emptying, a light-plan entry or
    the horizon, a tie, or a jump that fills.  A tie must go to the batch:
    applying queue 1's jump alone can predict an emptying at t that queue
    2's jump would have prevented or must precede.  No trigger is recorded
    without a filling.  A window whose arrival epochs all tie takes neither
    shortcut: it is the tests' bit oracle for both.

    The loop runs at most 3*N + 4 batches, N being the light-plan entries
    and arrival epochs in [t0, horizon).  Each batch after the first starts
    where the advance stopped: on an entry, which it consumes (C <= N such
    batches), on the horizon, the last batch, or on an emptying of a busy
    queue.  A batch that only empties fills nothing, as no rate changed and
    queue 1's emptying lowers its outflow; so each queue has at most 1 + C
    busy periods (one at t0, one per consuming batch), at most 2 + 2*C
    batches only empty, and 1 + C + 2 + 2*C + 1 is the bound.  Two queues
    that drain apart with no entry take all 4.

    The streams are slices of the rate processes' lists, with no per-call
    numpy merge, which would cost more than a short window's whole run.
    """
    for arr, name in ((arrivals1, "arrivals1"), (arrivals2_tilde, "arrivals2_tilde")):
        if arr.horizon < horizon:
            raise ValueError(f"{name} ends at {arr.horizon!r}, before the simulation horizon {horizon!r}")
    if not (0.0 <= phi <= 1.0):
        raise ValueError(f"phi must lie in [0, 1], got {phi!r}")
    if log not in (False, True, SIGNATURE):
        raise ValueError(f"log must be False, True or {SIGNATURE!r}, got {log!r}")
    full = log != SIGNATURE
    x1, x2 = float(x0[0]), float(x0[1])
    for i, x in ((1, x1), (2, x2)):
        if not 0.0 <= x < INF:
            raise ValueError(f"initial contents of queue {i} must be finite and nonnegative, got {x!r}")

    # The three streams and their heads hp, ha1, ha2, and the light phases
    # and service rates in force entering the window.  `_light_plan` checks
    # 0 <= t0 < horizon; the checks above bound the horizon first.
    lp, (green1, b1), (green2, b2) = _light_plan(plan, service, t0, horizon)
    e1, r1, a1 = _arrival_stream(arrivals1, t0, horizon)
    e2, r2, a2t = _arrival_stream(arrivals2_tilde, t0, horizon)
    ip = i1 = i2 = 0
    hp, ha1, ha2 = lp[0][0], e1[0], e2[0]

    busy1 = x1 > 0.0
    busy2 = x2 > 0.0

    events: list = []
    append_event = events.append
    if log:
        # Opening marker: the state entering the window.
        append_event((t0, CONTROL_CYCLE_BOUNDARY, 0, x1, x2, busy1, busy2, green1,
                      green2, a1, b1, b2, phi * (b1 if busy1 else a1) + a2t, -1, 0) if full else MARK)

    # Online window outputs.  Trapezoid sums q1, q2 of the contents, with
    # xl1, xl2 the state at the previous batch.  IPA values v11 = dx1/dtheta1,
    # v22 = dx2/dtheta2 and v21 = dx2/dtheta1 with their integrals r11, r22,
    # r21 up to tp, the latest event epoch; cs/bs are the diagonal rules'
    # survived-red tally and busy-start service rate: while a queue stays
    # busy, v = (cs + b) - bs, so each green onset raises it by the service
    # rate it postponed and a red onset leaves it unchanged.
    q1 = q2 = 0.0
    xl1, xl2 = x1, x2
    v11 = v22 = v21 = 0.0
    r11 = r22 = r21 = 0.0
    tp = t0
    cs1 = cs2 = 0.0
    bs1 = b1 if busy1 else 0.0
    bs2 = b2 if busy2 else 0.0

    # The first batch applies the events at t0, before any motion; each
    # pass ends by advancing to the next batch's epoch.
    t = t0
    dt = 0.0
    empt1 = empt2 = at_end = False
    while True:
        # ---- batch at epoch t: fixed priority order ----
        # After each light switch, exogenous jump and queue 1 staircase step,
        # the first one that turns an idle queue 2's net inflow positive is
        # recorded as the trigger of its busy start.  IPA values are
        # integrated up to t only when the batch holds an event (hit), with
        # their values from before the batch.
        trig2k, trig2q = -1, 0
        hit = at_end or empt1 or empt2
        p11, p22, p21 = v11, v22, v21

        if not at_end:
            # Light switches: the light-plan entries at t with codes below STEP.
            while hp == t:
                _, code, new = lp[ip]
                if code >= STEP:
                    break
                ip += 1
                hp = lp[ip][0]
                kind, queue = code & 1, (code >> 1) + 1
                hit = True
                lb1, lb2 = b1, b2
                # IPA rules: a red onset books the service it cuts off into
                # the survived-red tally; queue 1's green onset moves a jump
                # of queue 2's inflow.
                if queue == 1:
                    green1, b1 = kind == GREEN_START, new
                    if green1 and busy2:
                        d1 = lb1 if busy1 else a1
                        v21 += (phi * d1 + a2t) - (phi * (b1 if busy1 else a1) + a2t)
                    elif not green1 and busy1:
                        cs1 += lb1
                    if busy1:
                        v11 = (cs1 + b1) - bs1
                else:
                    green2, b2 = kind == GREEN_START, new
                    if not green2 and busy2:
                        cs2 += lb2
                    if busy2:
                        v22 = (cs2 + b2) - bs2
                if not busy2 and trig2k < 0 and phi * (b1 if busy1 else a1) + a2t - b2 > 0.0:
                    trig2k, trig2q = kind, queue
                if log:
                    append_event((t, kind, queue, x1, x2, busy1, busy2, green1, green2,
                                  a1, b1, b2, phi * (b1 if busy1 else a1) + a2t, -1, 0)
                                 if full else 4 * kind + queue)

            # Exogenous rate jumps (logged only when the value changes).
            if ha1 == t:  # epochs increase strictly: one jump at most
                new = r1[i1]
                i1 += 1
                ha1 = e1[i1]
                if new != a1:
                    hit = True
                    a1 = new
                    if not busy2 and trig2k < 0 and phi * (b1 if busy1 else a1) + a2t - b2 > 0.0:
                        trig2k, trig2q = EXO_RATE_JUMP, 1
                    if log:
                        append_event((t, EXO_RATE_JUMP, 1, x1, x2, busy1, busy2, green1, green2, a1,
                                      b1, b2, phi * (b1 if busy1 else a1) + a2t, -1, 0) if full else EXO1)
            if ha2 == t:
                new = r2[i2]
                i2 += 1
                ha2 = e2[i2]
                if new != a2t:
                    hit = True
                    a2t = new
                    if not busy2 and trig2k < 0 and phi * (b1 if busy1 else a1) + a2t - b2 > 0.0:
                        trig2k, trig2q = EXO_RATE_JUMP, 2
                    if log:
                        append_event((t, EXO_RATE_JUMP, 2, x1, x2, busy1, busy2, green1, green2, a1,
                                      b1, b2, phi * (b1 if busy1 else a1) + a2t, -1, 0) if full else EXO2)

            # Service staircase steps, the rest of the light plan at t; only
            # visible while the queue is busy.
            while hp == t:
                _, code, new = lp[ip]
                ip += 1
                hp = lp[ip][0]
                if code == STEP:
                    if new != b1:
                        lb1, b1 = b1, new
                        if busy1:
                            hit = True
                            if busy2:
                                v21 += (phi * lb1 + a2t) - (phi * b1 + a2t)
                            v11 = (cs1 + b1) - bs1
                            if not busy2 and trig2k < 0 and phi * b1 + a2t - b2 > 0.0:
                                trig2k, trig2q = INTERNAL_RATE_JUMP, 1
                            if log:
                                append_event((t, INTERNAL_RATE_JUMP, 1, x1, x2, True, busy2, green1,
                                              green2, a1, b1, b2, phi * b1 + a2t, -1, 0) if full else INT1)
                elif new != b2:
                    b2 = new
                    if busy2:
                        hit = True
                        v22 = (cs2 + b2) - bs2
                        if log:
                            append_event((t, INTERNAL_RATE_JUMP, 2, x1, x2, busy1, True,
                                          green1, green2, a1, b1, b2,
                                          phi * (b1 if busy1 else a1) + a2t, -1, 0) if full else INT2)

        # Emptyings determined by drainage up to t (also logged at the horizon).
        if empt1:
            busy1 = False
            if busy2:
                v21 += phi * v11  # queue 1's stored perturbation moves on
            v11 = 0.0
            if log:
                append_event((t, EMPTY_START, 1, x1, x2, False, busy2, green1, green2,
                              a1, b1, b2, phi * a1 + a2t, -1, 0) if full else EMPTY1)
        if empt2:
            busy2 = False
            v22 = v21 = 0.0
            if log:
                append_event((t, EMPTY_START, 2, x1, x2, busy1, False, green1, green2,
                              a1, b1, b2, phi * (b1 if busy1 else a1) + a2t, -1, 0) if full else EMPTY2)

        # Fillings, evaluated on the post-batch rates.  Queue 1's filling
        # lowers its outflow from a1 to b1, so it triggers no busy start.
        if not at_end:
            if not busy1 and a1 - b1 > 0.0:
                hit = busy1 = True
                cs1, bs1, v11 = 0.0, b1, 0.0
                if log:
                    append_event((t, BUSY_START, 1, x1, x2, True, busy2, green1, green2,
                                  a1, b1, b2, phi * b1 + a2t, -1, 0) if full else BUSY1)
            if not busy2 and (phi * (b1 if busy1 else a1) + a2t) - b2 > 0.0:
                hit = busy2 = True
                cs2, bs2, v22 = 0.0, b2, 0.0
                if trig2q == 1 and (trig2k == GREEN_START or trig2k == INTERNAL_RATE_JUMP):
                    # The onset rides theta1 one for one (else v21 is already 0.0).
                    v21 = -((phi * (b1 if busy1 else a1) + a2t) - b2)
                if log:
                    append_event((t, BUSY_START, 2, x1, x2, busy1, True, green1, green2,
                                  a1, b1, b2, phi * (b1 if busy1 else a1) + a2t,
                                  trig2k, trig2q) if full else BUSY2)

        q1 += 0.5 * (xl1 + x1) * dt
        q2 += 0.5 * (xl2 + x2) * dt
        xl1, xl2 = x1, x2
        if hit:
            r11 += p11 * (t - tp)
            r22 += p22 * (t - tp)
            r21 += p21 * (t - tp)
            tp = t
        if at_end:
            break

        # ---- empty-period skip (see the docstring) ----
        if not (busy1 or busy2):
            while True:
                if ha1 < ha2 and ha1 < hp:
                    new = r1[i1]
                    if new - b1 > 0.0 or phi * new + a2t - b2 > 0.0:
                        break
                    t, i1 = ha1, i1 + 1
                    ha1 = e1[i1]
                    if new != a1:
                        a1, tp = new, t  # tp as the batch would leave it
                        if log:
                            append_event((t, EXO_RATE_JUMP, 1, x1, x2, False, False, green1,
                                          green2, a1, b1, b2, phi * a1 + a2t, -1, 0) if full else EXO1)
                elif ha2 < ha1 and ha2 < hp:
                    new = r2[i2]
                    if phi * a1 + new - b2 > 0.0:
                        break
                    t, i2 = ha2, i2 + 1
                    ha2 = e2[i2]
                    if new != a2t:
                        a2t, tp = new, t
                        if log:
                            append_event((t, EXO_RATE_JUMP, 2, x1, x2, False, False, green1,
                                          green2, a1, b1, b2, phi * a1 + a2t, -1, 0) if full else EXO2)
                else:
                    break

        # ---- advance to the next epoch: the least stream head or emptying ----
        # d1 is queue 1's outflow; the slopes s1, s2 hold until a rate jumps.
        d1, s1 = (b1, a1 - b1) if busy1 else (a1, 0.0)
        s2 = (phi * d1 + a2t) - b2 if busy2 else 0.0
        while True:  # the busy run (see the docstring)
            cand = hp
            if ha1 < cand:
                cand = ha1
            if ha2 < cand:
                cand = ha2
            if s1 < 0.0:
                pred1 = t - x1 / s1
                if pred1 < cand:
                    cand = pred1
            if s2 < 0.0:
                pred2 = t - x2 / s2
                if pred2 < cand:
                    cand = pred2
            dt = cand - t
            if s1 != 0.0:
                x1 += s1 * dt
            if s2 != 0.0:
                x2 += s2 * dt
            t = cand
            if (hp == t or s1 < 0.0 and (t == pred1 or x1 <= 0.0)
                    or s2 < 0.0 and (t == pred2 or x2 <= 0.0)):
                break
            if ha1 == t:  # a queue-1 jump; while busy, queue 1's outflow is b1
                new = r1[i1]
                if ha2 == t or not busy1 and (new - b1 > 0.0 or
                                              not busy2 and phi * new + a2t - b2 > 0.0):
                    break
                i1, ha1 = i1 + 1, e1[i1 + 1]
                if new != a1:
                    a1 = new
                    if full:
                        dtp = t - tp
                        r11 += v11 * dtp
                        r22 += v22 * dtp
                        r21 += v21 * dtp
                        tp = t
                    if busy1:
                        s1 = a1 - b1
                    else:
                        d1 = a1
                        if busy2:
                            s2 = (phi * d1 + a2t) - b2
                    if log:
                        append_event((t, EXO_RATE_JUMP, 1, x1, x2, busy1, busy2, green1, green2,
                                      a1, b1, b2, phi * d1 + a2t, -1, 0) if full else EXO1)
            else:  # a lone queue-2 jump
                new = r2[i2]
                if not busy2 and phi * d1 + new - b2 > 0.0:
                    break
                i2, ha2 = i2 + 1, e2[i2 + 1]
                if new != a2t:
                    a2t = new
                    if full:
                        dtp = t - tp
                        r11 += v11 * dtp
                        r22 += v22 * dtp
                        r21 += v21 * dtp
                        tp = t
                    if busy2:
                        s2 = (phi * d1 + a2t) - b2
                    if log:
                        append_event((t, EXO_RATE_JUMP, 2, x1, x2, busy1, busy2, green1, green2,
                                      a1, b1, b2, phi * d1 + a2t, -1, 0) if full else EXO2)
            q1 += 0.5 * (xl1 + x1) * dt
            q2 += 0.5 * (xl2 + x2) * dt
            xl1, xl2 = x1, x2
        # The emptyings that ended the busy run (x <= 0.0: within an ulp of t).
        empt1 = s1 < 0.0 and (t == pred1 or x1 <= 0.0)
        empt2 = s2 < 0.0 and (t == pred2 or x2 <= 0.0)
        if empt1:
            x1 = 0.0
        if empt2:
            x2 = 0.0
        at_end = t == horizon

    if log:
        append_event((t, CONTROL_CYCLE_BOUNDARY, 0, x1, x2, busy1, busy2, green1,
                      green2, a1, b1, b2, phi * (b1 if busy1 else a1) + a2t, -1, 0) if full else MARK)
    w = horizon - t0
    return TandemTrajectory(events, (x1, x2), (q1 / w, q2 / w),
                            JacobianEstimate(r11 / w, r21 / w, r22 / w) if full else None)
