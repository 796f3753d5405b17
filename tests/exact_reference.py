"""Exact-arithmetic reference for two fluid queues in tandem behind lights.

A small simulator in `fractions.Fraction` that imports only the standard
library and shares no code with the package.  It takes plain lists: each
arrival process as (epochs, rates), each light as its cycle c, red
duration theta and green-time staircase [(offset, rate), ...] (constant
service is [(0.0, beta_max)]), the routing fraction phi, the initial
contents, and the window [t0, horizon).

Every exogenous epoch is one of the given arrival epochs or a light-plan
epoch: a red start k*c, a green onset k*c + theta, a staircase step
onset + offset.  k*c is computed in the number type of c and the sums in
that of theta, so float inputs give the light plan of the float kernel and a
Fraction theta gives epochs exactly affine in theta.  A green onset that is
not before its cycle's end is dropped, and a step is kept only if it falls
strictly before the next red start; one that rounds onto its onset sets
the rate the green opens at.
Everything after that is exact: the run goes from one exogenous epoch to
the next, solves each emptying t + x / (beta - alpha) in rationals, and
sums the trapezoids of the piecewise-linear contents.

On a fixed regime signature (which sources end each piece, and the busy
flags on it) every epoch and every content at an epoch is affine in theta,
so y is quadratic in theta and an exact central difference is its exact
derivative (`exact_jacobian`).  `exact_window` and `exact_jacobian` read the
package's input objects by attribute; nothing here imports the package.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import groupby, repeat
from operator import itemgetter
from typing import NamedTuple

# Piece labels, or'ed when sources coincide: the epochs of stream s (the
# two arrival processes, then the two lights) are labelled 1 << s, and the
# emptyings of queue 1 and 2 EMPTY1 and EMPTY2.
ARRIVAL1, ARRIVAL2, LIGHT1, LIGHT2, EMPTY1, EMPTY2 = 1, 2, 4, 8, 16, 32


class ExactRun(NamedTuple):
    y: tuple[Fraction, Fraction]
    x_end: tuple[Fraction, Fraction]
    signature: tuple[tuple[int, bool, bool], ...]


def light_plan(c, theta, stairs, t0, horizon):
    """(epochs, rates) of one light's service from the cycle before t0's:
    0 from each red start, then the staircase from each green onset.

    A sum of a Fraction and a float is a float, so the cycle starts and the
    offsets are Fractions: the sums round as floats for a float theta and
    are exact for a Fraction one.
    """
    epochs, rates = [], []
    k = max(int(t0 // c) - 1, 0)
    while k * c < horizon:
        base, nxt = Fraction(k * c), (k + 1) * c
        epochs.append(base)
        rates.append(0)
        g = base + theta
        for n, (off, v) in enumerate(stairs):
            e = g + Fraction(off)
            if e >= nxt or e >= horizon:
                break  # a green onset at or past its cycle's end is dropped
            if n == 0 or e > g:
                epochs.append(e)
                rates.append(v)
            else:  # a step that rounds onto its onset: the green opens at its rate
                rates[-1] = v
        k += 1
    return epochs, rates


def simulate_exact(arrivals1, arrivals2, c, theta, stairs, phi, x0, t0, horizon) -> ExactRun:
    """Run the window [t0, horizon) exactly; c, theta and stairs are pairs,
    one entry per queue.  Every number is a float, an int or a Fraction.

    The run works in integers: time in units of 1/T, rates in 1/R and
    contents in 1/(T*R), with T and R common denominators of the inputs.
    Only an emptying epoch needs a quotient; it and what follows from it are
    fractions until the next exogenous epoch.
    """
    streams = [arrivals1, arrivals2] + [light_plan(c[q], theta[q], stairs[q], t0, horizon)
                                        for q in (0, 1)]
    # Each stream's rate in force on [t0, next epoch), and its later
    # changes as (epoch, stream, rate).
    rate, changes = [], []
    for s, (epochs, rates) in enumerate(streams):
        i = bisect_right(epochs, t0)
        rate.append(rates[i - 1] if i else 0)
        j = bisect_left(epochs, horizon, i)
        changes += zip(epochs[i:j], repeat(s), rates[i:j])
    times = [v.as_integer_ratio() for v in (t0, horizon, *x0, *(e for e, _, _ in changes))]
    rates = [v.as_integer_ratio() for v in (*rate, *(v for _, _, v in changes))]
    phi, p = phi.as_integer_ratio()
    T = math.lcm(*(d for _, d in times))
    R = p * math.lcm(*(d for _, d in rates))
    times = [n * (T // d) for n, d in times]
    rates = [n * (R // d) for n, d in rates]
    t0, horizon, x1, x2 = times[0], times[1], times[2] * R, times[3] * R
    rate = rates[:4]
    changes = sorted(zip(times[4:], (s for _, s, _ in changes), rates[4:]))
    changes.append((horizon, -1, 0))  # the sentinel

    t, areas1, areas2, signature = t0, [], [], []
    for te, group in groupby(changes, itemgetter(0)):
        group = list(group)
        # (A light's red start and its green onset can round onto one epoch.)
        label_te = sum(1 << s for s in {s for _, s, _ in group if s >= 0})
        a1, a2, b1, b2 = rate
        while True:
            busy1 = x1 > 0 or a1 > b1
            alpha2 = phi * (b1 if busy1 else a1) // p + a2
            busy2 = x2 > 0 or alpha2 > b2
            end, label = te, label_te
            s1, s2 = a1 - b1, alpha2 - b2
            for busy, x, s, empty in ((busy1, x1, s1, EMPTY1), (busy2, x2, s2, EMPTY2)):
                if busy and s < 0 and (e := t + Fraction(x, -s)) <= end:
                    end, label = e, (label | empty if e == end else empty)
            dt = end - t
            if busy1:
                nx = 0 if label & EMPTY1 else x1 + s1 * dt
                areas1.append((x1 + nx) * dt)
                x1 = nx
            if busy2:
                nx = 0 if label & EMPTY2 else x2 + s2 * dt
                areas2.append((x2 + nx) * dt)
                x2 = nx
            t = end
            signature.append((label, busy1, busy2))
            if end == te:
                break
        if te == horizon:
            break
        # Back to integers where the pieces summed to one.
        x1 = x1.numerator if x1.denominator == 1 else x1
        x2 = x2.numerator if x2.denominator == 1 else x2
        for _, s, v in group:
            rate[s] = v
    w = 2 * T * R * (horizon - t0)
    q1, q2 = (sum(a for a in areas if type(a) is int) + sum(a for a in areas if type(a) is not int)
              for areas in (areas1, areas2))  # integers first: a Fraction slows every later sum
    return ExactRun((Fraction(q1, w), Fraction(q2, w)),
                    (Fraction(x1, T * R), Fraction(x2, T * R)), tuple(signature))


def exact_window(a1, a2t, plan, service, phi, x0, horizon, t0=0.0, theta=None) -> ExactRun:
    """`simulate_exact` on `simulate`'s arguments, at theta if given."""
    stairs = [list(zip(ramp.epochs, ramp.rates)) if ramp else [(0.0, bmax)]
              for ramp, bmax in ((service.ramp1, service.beta_max1),
                                 (service.ramp2, service.beta_max2))]
    return simulate_exact((a1.epochs, a1.rates), (a2t.epochs, a2t.rates), (plan.c1, plan.c2),
                          theta or (plan.theta1, plan.theta2), stairs, phi, x0, t0, horizon)


def assert_close(traj, run: ExactRun, x0) -> None:
    """A float trajectory's y and x_end lie within the rounding bound of
    the exact ones: n * 2**-52 * s for a run of n pieces, with
    s = max(1, |x0|, |x_end|)."""
    s = max(1, *(abs(Fraction(x)) for x in x0), *map(abs, run.x_end))
    bound = len(run.signature) * s / 2 ** 52
    for name, got, want in zip(("y1", "y2", "x1_end", "x2_end"), traj.y + traj.x_end,
                               run.y + run.x_end):
        err = abs(Fraction(got) - want)
        assert err <= bound, f"{name}: {got!r} is {float(err):.3g} off, bound {float(bound):.3g}"


H = Fraction(1, 2 ** 40)
QUEUE1 = ARRIVAL1 | LIGHT1 | EMPTY1


def exact_jacobian(a1, a2t, plan, service, phi, x0, horizon, t0=0.0, h=H):
    """The exact central differences of (y1, y2, x1_end, x2_end) over theta1
    and over theta2, one tuple per theta.  On a held signature they are the
    exact derivatives; an entry is None where the signature it depends on
    (queue 1's for y1 and x1_end, the whole one for queue 2) differs
    between theta - h and theta + h, or theta -/+ h leaves (0, c)."""
    cols = []
    for q, c in ((0, plan.c1), (1, plan.c2)):
        theta = [Fraction(plan.theta1), Fraction(plan.theta2)]
        if not 0 < theta[q] - h < theta[q] + h < c:
            cols.append((None,) * 4)
            continue
        runs = []
        for dq in (h, -h):
            theta[q] += dq
            runs.append(exact_window(a1, a2t, plan, service, phi, x0, horizon, t0, tuple(theta)))
            theta[q] -= dq
        # Queue 1 never sees queue 2, so y1 and x1_end need only the pieces
        # that queue 1's sources end.
        sig1 = [[(label & QUEUE1, busy1) for label, busy1, _ in run.signature if label & QUEUE1]
                for run in runs]
        p, m = runs
        held = (sig1[0] == sig1[1], p.signature == m.signature) * 2
        cols.append(tuple((a - b) / (2 * h) if ok else None
                          for a, b, ok in zip(p.y + p.x_end, m.y + m.x_end, held)))
    return cols


def assert_jacobian(jac, cols, rel=1e-12, floor=0) -> int:
    """Hold J to the exact derivatives, column by column, within a normwise
    relative error `rel` plus an absolute `floor`; dy1/dtheta2 must be
    exactly zero, as j12 is.  Returns the number of columns checked whole."""
    checked = 0
    for name, got, want in (("theta1", (jac.j11, jac.j21), cols[0][:2]),
                            ("theta2", (jac.j12, jac.j22), cols[1][:2])):
        pairs = [(g, w) for g, w in zip(got, want) if w is not None]
        if not pairs:
            continue
        err = max(abs(Fraction(g) - w) for g, w in pairs)
        assert err <= rel * max(abs(w) for _, w in pairs) + floor, \
            f"column {name}: J {got} vs exact {want}"
        checked += len(pairs) == 2
    if cols[1][0] is not None:
        assert cols[1][0] == 0 and jac.j12 == 0.0
    return checked
