"""Graphon trajectories: integration of the velocity flow.

A trajectory solves the autonomous equation dW/dt = velocity(W) on the
free entries of a step graphon.  Forward in time the flow preserves the
graphon space, so the integrator asserts a tight numeric band around
[0, 1] and treats any violation as its own failure; values are never
clamped, which would only mask bugs.  Backward in time the flow may
leave the space; the age routine detects the first boundary crossing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, isfinite

import numpy as np

from .errors import NonFiniteValueError
from .integrators import IntegratorOptions, StepStats, integrate_span
from .rules import Rule
from .stepfun import VALUE_BAND, StepGraphon, linf_dist
from .velocity import RHS_BAND, VelocityPlan, eval_poly, velocity_poly
from .velocity import velocity  # noqa: F401  (perfbench's tracer wraps trajectory.velocity)

DEFAULT_OPTS = IntegratorOptions()


def _start(rule: Rule, w0: StepGraphon):
    """The velocity plan on `w0`'s parts, which is its flow's right-hand side, and the packed start."""
    plan = VelocityPlan(rule, w0.masses)
    return plan, plan.pack(w0.values)


def _read_span(f, y0, t_end, times, opts, band=False):
    """The states at `times`, in order from 0 towards t_end, read off one span; and its leg."""
    states = []

    def visit(step):
        while len(states) < len(times) and (step.t1 - times[len(states)]) * step.h >= 0:
            states.append(step.at(times[len(states)]))

    leg = integrate_span(f, y0, 0.0, t_end, opts, visit, band=band)
    return states + [leg.y] * (len(times) - len(states)), leg  # a span of length 0 takes no step


@dataclass
class Trajectory:
    """Time-stamped step graphons along one flow, with integrator stats."""

    checkpoints: list  # [(t, StepGraphon)]
    stats: StepStats = field(default_factory=StepStats)


def flow_at(
    rule: Rule, w0: StepGraphon, t: float, opts: IntegratorOptions = DEFAULT_OPTS
) -> StepGraphon:
    """The trajectory of `w0` evaluated at time t (t may be negative).

    Forward time enforces the value band; backward time does not, since
    the caller accepts a possible exit from the graphon space (the
    returned object then fails construction and the caller should use
    `backward_age` instead).
    """
    if not isfinite(t):
        raise NonFiniteValueError(f"t must be finite, got {t}")
    if t == 0.0:
        return w0
    plan, y0 = _start(rule, w0)
    leg = integrate_span(plan, y0, 0.0, t, opts, band=t > 0)
    return StepGraphon(w0.masses, plan.unpack(leg.y), band=VALUE_BAND if t > 0 else RHS_BAND)


def integrate(
    rule: Rule,
    w0: StepGraphon,
    t_end: float,
    checkpoint_times=None,
    opts: IntegratorOptions = DEFAULT_OPTS,
) -> Trajectory:
    """Integrate forward to t_end, recording the flow at checkpoint times.

    Checkpoints are read off the steps of one span that cover them.
    """
    if not isfinite(t_end):
        raise NonFiniteValueError(f"t_end must be finite, got {t_end}")
    if t_end < 0:
        raise ValueError("integrate records forward trajectories; use flow_at for t < 0")
    if checkpoint_times is None:
        checkpoint_times = np.linspace(0.0, t_end, 11)
    times = sorted({float(t) for t in checkpoint_times})
    if times and (times[0] < 0 or times[-1] > t_end + 1e-12):
        raise ValueError("checkpoint times must lie in [0, t_end]")
    plan, y0 = _start(rule, w0)
    states, leg = _read_span(plan, y0, max([t_end, *times]), times, opts, band=True)
    checkpoints = [(t, StepGraphon(w0.masses, plan.unpack(y))) for t, y in zip(times, states)]
    return Trajectory(checkpoints, leg.stats)


def semigroup_check(
    rule: Rule,
    w0: StepGraphon,
    t: float,
    u: float,
    opts: IntegratorOptions = DEFAULT_OPTS,
) -> float:
    """Deviation between flowing t+u at once and u then t."""
    if t < 0 or u < 0:
        raise ValueError("semigroup check uses non-negative times")
    via = flow_at(rule, flow_at(rule, w0, u, opts), t, opts)
    direct = flow_at(rule, w0, t + u, opts)
    return linf_dist(via, direct)


# ---------------------------------------------------------------------------
# Backward time


@dataclass
class AgeResult:
    exceeded: bool
    age: float | None = None
    origin: StepGraphon | None = None
    max_age: float | None = None


def backward_age(
    rule: Rule,
    w0: StepGraphon,
    max_age: float = 50.0,
    opts: IntegratorOptions = DEFAULT_OPTS,
) -> AgeResult:
    """Largest backward time for which the flow stays a graphon.

    Integrates in negative time, in one span, up to the first step that
    ends with an entry outside [0, 1], then bisects the crossing time on
    that step's interpolant, which evaluates no RHS.  If `w0` already
    touches the boundary and the backward motion at a touching entry
    points outside [0, 1], the age is 0 with origin `w0` itself.  Fixed
    points and other flows that survive past `max_age` report "exceeded".
    """
    plan, y0 = _start(rule, w0)
    vel0 = plan(y0)
    touching_low = y0 <= VALUE_BAND
    touching_high = y0 >= 1.0 - VALUE_BAND
    # backward motion is -velocity: a 0-entry with positive velocity (or a
    # 1-entry with negative velocity) leaves the space immediately
    if np.any(touching_low & (vel0 > 0)) or np.any(touching_high & (vel0 < 0)):
        return AgeResult(False, 0.0, w0, max_age)

    def inside(y: np.ndarray) -> bool:
        return float(y.min()) >= 0.0 and float(y.max()) <= 1.0

    steps = []

    def crossed(step):
        steps[:] = [step]
        return not inside(step.y1)

    if inside(integrate_span(plan, y0, 0.0, -max_age, opts, crossed).y):
        return AgeResult(True, max_age=max_age)
    step = steps[0]
    t_in, y_in, t_out = step.t0, step.y0, step.t1
    while abs(t_out - t_in) > max(opts.atol, 1e-13):
        t_mid = 0.5 * (t_in + t_out)
        y_mid = step.at(t_mid)
        if inside(y_mid):
            t_in, y_in = t_mid, y_mid
        else:
            t_out = t_mid
    origin = StepGraphon(w0.masses, plan.unpack(y_in))
    return AgeResult(False, abs(t_in), origin, max_age)


# ---------------------------------------------------------------------------
# Long-time behaviour


@dataclass
class DestinationResult:
    converged: bool
    graphon: StepGraphon | None
    velocity_residual: float
    movement: float
    t_reached: float


def find_destination(
    rule: Rule,
    w0: StepGraphon,
    eps_vel: float = 1e-8,
    eps_move: float = 1e-9,
    t_max: float = 60.0,
    opts: IntegratorOptions = DEFAULT_OPTS,
) -> DestinationResult:
    """Integrate until the flow settles, or report non-convergence.

    Settling means the velocity's uniform norm drops below `eps_vel` and
    the movement over the last unit of time below `eps_move`.  A run that
    reaches `t_max` without settling is reported, never guessed: there
    are rules with periodic trajectories, so non-convergence is a value.
    """
    # written so that NaN fails too: at least one unit of time is read
    if not (eps_vel > 0 and eps_move > 0 and t_max > 0):
        raise ValueError("tolerances and t_max must be positive")
    plan, y0 = _start(rule, w0)
    t, y, residual, movement = 0.0, y0, np.inf, np.inf

    def visit(step):
        # read the state after each unit of time the step covers
        nonlocal t, y, residual, movement
        while t < t_max and min(t + 1.0, t_max) <= step.t1:
            t = min(t + 1.0, t_max)
            y_next = step.at(t)
            movement = float(np.max(np.abs(y_next - y)))
            residual = float(np.max(np.abs(plan(y_next))))
            y = y_next
            if residual < eps_vel and movement < eps_move:
                return True
        return False

    integrate_span(plan, y0, 0.0, t_max, opts, visit, band=True)
    converged = residual < eps_vel and movement < eps_move
    w = StepGraphon(w0.masses, plan.unpack(y))
    return DestinationResult(converged, w, residual, movement, t)


def constant_fixed_points(rule: Rule, grid_n: int = 1001, tol: float = 1e-10) -> list[float]:
    """Roots of the constant-graphon velocity polynomial in [0, 1].

    Scans a grid for sign changes, bisects each to `tol`, keeps endpoints
    and grid points where the velocity already vanishes, and merges roots
    closer than 10 * tol (Bernstein double roots).  The grid is one array
    evaluation, and all brackets bisect together: each halves until it is
    no wider than `tol`, then stays put.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    poly = velocity_poly(rule)
    grid = np.linspace(0.0, 1.0, grid_n)
    vals = eval_poly(poly, grid)
    small = np.abs(vals) < tol
    roots = grid[small].tolist()
    i = np.flatnonzero(~(small[:-1] | small[1:] | (vals[:-1] * vals[1:] > 0)))
    a, b, fa = grid[i], grid[i + 1], vals[i]
    while (live := b - a > tol).any():
        mid = 0.5 * (a + b)
        fm = eval_poly(poly, mid)
        zero = fm == 0.0
        lower = live & (zero | (fa * fm < 0))  # the root is at mid or below it
        upper = live & (zero | ~lower)  # at mid or above it; a zero closes the bracket
        a, fa, b = np.where(upper, mid, a), np.where(upper, fm, fa), np.where(lower, mid, b)
    roots += (0.5 * (a + b)).tolist()
    roots.sort()
    merged: list[float] = []
    for r in roots:
        if not merged or r - merged[-1] > 10 * tol:
            merged.append(r)
    return merged


def cut_lipschitz_constant(k: int) -> float:
    """Cut-norm Lipschitz constant of the velocity operator on graphons."""
    return float(k * (k - 1)) ** 2 * 2 ** comb(k, 2)


def linf_lipschitz_constant(k: int) -> float:
    """Uniform-norm Lipschitz constant of the velocity on graphons."""
    return float(k * (k - 1)) ** 2 * 2 ** (comb(k, 2) - 1)


# ---------------------------------------------------------------------------
# Planar field of the two-part periodic construction
#
# The two free diagonal blocks of a zero-off-diagonal two-part step
# function form a plane; the field below combines a unit tangent
# rotation about the center with a radial pull toward the circle of
# radius CIRCLE_RADIUS, scaled by a small gain.  Every trajectory
# started near the circle spirals onto it, giving a periodic orbit.

CIRCLE_CENTER = (0.2, 0.8)
CIRCLE_RADIUS = 0.1
ANNULUS_INNER = 0.09
ANNULUS_OUTER = 0.11
FIELD_GAIN = 5e-5  # strictly below 1e-4 so block densities stay in [0, 1]


def planar_field(p) -> np.ndarray:
    """Velocity of the planar construction at point p = (x, y)."""
    x, y = float(p[0]), float(p[1])
    a, b = CIRCLE_CENTER
    dx, dy = x - a, y - b
    rho = np.hypot(dx, dy)
    if rho == 0.0:
        raise ValueError("planar field is singular at the circle center")
    tangent = np.array([-dy, dx]) / rho
    radial = (CIRCLE_RADIUS / rho - 1.0) * np.array([dx, dy])
    return FIELD_GAIN * (tangent + radial)


@dataclass
class PlanarTrace:
    times: np.ndarray
    points: np.ndarray  # (len(times), 2)

    def final_radius(self) -> float:
        a, b = CIRCLE_CENTER
        return float(np.hypot(self.points[-1, 0] - a, self.points[-1, 1] - b))


def planar_demo(
    p0, t_end: float, opts: IntegratorOptions = DEFAULT_OPTS, num_points: int = 400
) -> PlanarTrace:
    """Integrate the planar field from p0, recording a trace of the orbit."""
    if not isfinite(t_end):
        raise NonFiniteValueError(f"t_end must be finite, got {t_end}")
    times = np.linspace(0.0, t_end, num_points)
    start = np.array([float(p0[0]), float(p0[1])])
    if opts.method == "rk4_fixed":  # a grid on each interval, so that every point is a grid node
        points = [start]
        for t0, t1 in zip(times[:-1].tolist(), times[1:].tolist()):
            points.append(integrate_span(planar_field, points[-1], t0, t1, opts).y)
    else:
        points, _ = _read_span(planar_field, start, t_end, times.tolist(), opts)
    return PlanarTrace(times, np.array(points))
