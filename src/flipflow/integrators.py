"""Explicit Runge-Kutta cores for autonomous vector ODEs.

Two methods are offered: the adaptive Dormand-Prince 8(5,3) method
(DOP853; Hairer, Norsett and Wanner, *Solving ODEs I*, II.10) for
accuracy, and a fixed-step classic RK4 whose evaluation sequence is
completely determined by the step size, for bit-reproducible runs.
State vectors are small, so the cost is dominated by right-hand-side
(RHS) evaluations, which `StepStats.rhs_evals` counts.  Each accepted
`Step` carries its method's continuous extension (II.6), so a flow is
one span, never cut short at output times.  RK4's, of order 3, is
free; DOP853's, of order 7, costs three RHS evaluations per step, paid
at the first read strictly inside the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationFaultError, NonFiniteValueError
from .stepfun import VALUE_BAND

# DOP853, one row per line.  A[s, :s] weighs the stages of stage s; row 12 is the 8th-order solution (its RHS
# is the FSAL stage), rows 13-15 the extension's stages.  E holds the order-5 and -3 error estimators.
_DP_A = np.array([
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0.05260015195876773, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0.0197250569845379, 0.0591751709536137, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0.02958758547680685, 0, 0.08876275643042054, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402, 0.008273789163814023, 0, 0, 0, 0, 0, 0, 0, 0],
    [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671, 20.154067550477894, -43.48988418106996, 0, 0, 0, 0, 0, 0, 0],
    [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627, 0, 0, 0, 0, 0, 0],
    [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196, 0, 0, 0, 0, 0],
    [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303, 0.6433927460157636, 0, 0, 0, 0],
    [0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003, -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259, 0, 0, 0],
    [0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298, 0, 0],
    [0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566, -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325, 0],
    [-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599, 4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987],
])
_DP_E = np.array([
    [0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294],
    [-0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003, -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082],
])
_DP_D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028, -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758, 527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455, 357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564],
])
_DP_ROWS = [_DP_A[s, :s] for s in range(16)]
_RK4_DENSE = np.array([[1.0, -3 / 2, 2 / 3], [0.0, 1.0, -2 / 3], [0.0, 1.0, -2 / 3], [0.0, -1 / 2, 2 / 3]])

METHODS = ("dop853", "rk4_fixed")

_MIN_STEP_FRACTION = 1e-14
_MAX_FACTOR = 10.0
_MIN_FACTOR = 0.2
_SAFETY = 0.9


@dataclass
class IntegratorOptions:
    """Integration controls."""

    method: str = "dop853"
    rtol: float = 1e-10
    atol: float = 1e-12
    step: float | None = None  # fixed step for rk4_fixed

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not np.isfinite([self.rtol, self.atol, self.step or 0.0]).all():
            raise NonFiniteValueError(f"rtol={self.rtol}, atol={self.atol}, step={self.step}: each must be finite")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")
        if self.method == "rk4_fixed" and (self.step is None or self.step <= 0):
            raise ValueError("rk4_fixed requires a positive step")


@dataclass
class StepStats:
    accepted: int = 0
    rejected: int = 0
    max_excursion: float = 0.0
    rhs_evals: int = 0


class Step:
    """One accepted step of size h from (t0, y0) to (t1, y1).

    `at(t)` is y0 at t0, y1 at t1 and, between them, the continuous extension
    `between((t - t0) / h)`.  That reads the stages, which the next step
    overwrites: read a step before the integrator moves on.
    """

    def __init__(self, t0, y0, t1, y1, h, between):
        self.t0, self.y0, self.t1, self.y1, self.h = t0, y0, t1, y1, h
        self._between = between

    def at(self, t: float) -> np.ndarray:
        if t == self.t1:
            return self.y1
        if t == self.t0:
            return self.y0
        return self._between((t - self.t0) / self.h)


class _Leg:
    """Where a span ended, and its stats; a plain class, as a dataclass costs import time."""

    def __init__(self, t: float, y: np.ndarray, stats: StepStats | None = None):
        self.t, self.y, self.stats = t, y, stats or StepStats()


def integrate_span(f, y0, t0, t1, opts: IntegratorOptions, observer=None, band=False) -> _Leg:
    """Advance y' = f(y) from (t0, y0) to t1 (either direction).

    With `band`, each accepted state must lie within `VALUE_BAND` of
    [0, 1]; the band is asserted, never clamped, so a violation surfaces
    as an integration fault instead of being masked, and the stats keep
    the largest excursion.  Then `observer(step)` sees the accepted
    `Step` and may return a truthy value to stop early; the returned leg
    then ends at that step's end.
    """
    if t1 == t0:
        return _Leg(t0, np.array(y0, dtype=float))
    if opts.method == "rk4_fixed":
        return _rk4_fixed(f, y0, t0, t1, opts, observer, band)
    return _dop853(f, y0, t0, t1, opts, observer, band)


def _accept(step: Step, stats: StepStats, observer, band) -> bool:
    """Count and check one accepted step; True if the observer stops the span."""
    stats.accepted += 1
    if band:
        excursion = max(float(-(step.y1.min())), float(step.y1.max() - 1.0), 0.0)
        stats.max_excursion = max(stats.max_excursion, excursion)
        if excursion > VALUE_BAND:
            raise IntegrationFaultError(f"trajectory left the [0,1] band by {excursion:.3e} at t={step.t1:.6g}")
    return bool(observer and observer(step))


def _rk4_fixed(f, y0, t0, t1, opts, observer, band) -> _Leg:
    span = t1 - t0
    nsteps = max(1, int(np.ceil(abs(span) / opts.step)))
    h = span / nsteps
    y = np.array(y0, dtype=float)
    t = t0
    stats = StepStats()
    K = np.empty((4, y.size))
    for i in range(nsteps):
        K[0] = f(y)
        K[1] = f(y + 0.5 * h * K[0])
        K[2] = f(y + 0.5 * h * K[1])
        K[3] = f(y + h * K[2])
        stats.rhs_evals += 4
        y_new = y + (h / 6.0) * (K[0] + 2.0 * K[1] + 2.0 * K[2] + K[3])
        t_new = t1 if i == nsteps - 1 else t + h
        # the continuous extension of order 3; y0=y binds this step's start
        between = lambda theta, y0=y: y0 + h * ((_RK4_DENSE @ np.cumprod(np.full(3, theta))) @ K)  # noqa: E731
        stop = _accept(Step(t, y, t_new, y_new, h, between), stats, observer, band)
        t, y = t_new, y_new
        if stop:
            break
    return _Leg(t, y, stats)


def _dop853(f, y0, t0, t1, opts, observer, band) -> _Leg:
    y = np.array(y0, dtype=float)
    t = t0
    span = t1 - t0
    direction = 1.0 if span > 0 else -1.0
    stats = StepStats(rhs_evals=1)

    K = np.empty((16, y.size))
    K_before = [K[:s] for s in range(13)]  # the stages each stage weighs
    K[0] = f(y)
    h = direction * _initial_step(y, K[0], opts)
    min_step = abs(span) * _MIN_STEP_FRACTION
    while (t1 - t) * direction > 0:
        if abs(h) < min_step:
            raise IntegrationFaultError(f"step size underflow at t={t:.6g} (h={h:.3e})")
        last = (t + h - t1) * direction >= 0
        if last:
            h = t1 - t
        for s in range(1, 12):
            K[s] = f(y + h * (_DP_ROWS[s] @ K_before[s]))
        stats.rhs_evals += 11
        y_new = y + h * (_DP_ROWS[12] @ K_before[12])
        scale = opts.atol + opts.rtol * np.maximum(np.abs(y), np.abs(y_new))
        e5, e3 = (_DP_E @ K_before[12]) / scale
        n5, n3 = float(e5 @ e5), float(e3 @ e3)
        err = abs(h) * n5 / math.sqrt((n5 + 0.01 * n3) * y.size) if n5 else 0.0
        if err <= 1.0:
            K[12] = f(y_new)  # FSAL: the next step's first stage
            stats.rhs_evals += 1
            t_new = t1 if last else t + h
            extension = _dop853_extension(f, y, y_new, h, K, stats)
            stop = _accept(Step(t, y, t_new, y_new, h, extension), stats, observer, band)
            t, y = t_new, y_new
            if stop:
                break
            K[0] = K[12]
        else:
            stats.rejected += 1
        factor = _SAFETY * err ** -0.125 if err else _MAX_FACTOR  # -1/8: an order-7 estimate; NaN shrinks h
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
    return _Leg(t, y, stats)


def _dop853_extension(f, y0, y1, h, K, stats):
    """DOP853's continuous extension of order 7 on one step; the first read evaluates its 3 extra stages."""
    rows = []

    def between(theta):
        if not rows:
            for s in range(13, 16):
                K[s] = f(y0 + h * (_DP_ROWS[s] @ K[:s]))
            stats.rhs_evals += 3
            dy = y1 - y0
            rows.append(np.vstack([dy, h * K[0] - dy, 2.0 * dy - h * (K[0] + K[12]), h * (_DP_D @ K)]))
        # y0 + theta (r0 + (1 - theta) (r1 + theta (r2 + ...))), expanded
        return y0 + np.cumprod([theta, 1.0 - theta] * 3 + [theta]) @ rows[0]

    return between


def _initial_step(y, dy, opts) -> float:
    scale = opts.atol + opts.rtol * np.abs(y)
    r0, r1 = y / scale, dy / scale
    d0, d1 = math.sqrt(r0 @ r0 / y.size), math.sqrt(r1 @ r1 / y.size)  # RMS norms
    if d0 < 1e-5 or d1 < 1e-5:
        return 1e-6
    return 0.01 * d0 / d1
