"""Explicit Runge-Kutta cores for autonomous vector ODEs.

Two methods are offered: an adaptive Dormand-Prince 5(4) pair for
accuracy, and a fixed-step classic RK4 whose evaluation sequence is
completely determined by the step size, for bit-reproducible runs.
State vectors are small, so the cost is dominated by right-hand-side
(RHS) evaluations, which `StepStats.rhs_evals` counts.  Each accepted
`Step` carries its method's continuous extension (Hairer, Norsett and
Wanner, *Solving ODEs I*, II.6; order 4 for Dormand-Prince, 3 for RK4),
so states between step ends are read without an RHS evaluation and a
flow is integrated as one span, never cut short at output times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationFaultError, NonFiniteValueError

# Dormand-Prince 5(4) tableau; the propagated solution is 5th order and
# the embedded 4th-order difference provides the local error estimate.
_DP_A = np.zeros((7, 7))
for _s, _row in enumerate([
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
], start=1):
    _DP_A[_s, :_s] = _row
_DP_B5 = _DP_A[6]
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
# continuous extensions: stage i's weight at theta is DENSE[i] @ (theta, theta^2, ...)
_DP_DENSE = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_RK4_DENSE = np.array([[1.0, -3 / 2, 2 / 3], [0.0, 1.0, -2 / 3], [0.0, 1.0, -2 / 3], [0.0, -1 / 2, 2 / 3]])

METHODS = ("rk45_adaptive", "rk4_fixed")

_MIN_STEP_FRACTION = 1e-14
_MAX_FACTOR = 5.0
_MIN_FACTOR = 0.2
_SAFETY = 0.9


@dataclass
class IntegratorOptions:
    """Integration controls.

    ``band_tol`` is the allowed numeric excursion of trajectory values
    outside [0, 1]; the integrator asserts the band and never clamps, so
    a violation surfaces as an integration fault instead of being masked.
    """

    method: str = "rk45_adaptive"
    rtol: float = 1e-10
    atol: float = 1e-12
    step: float | None = None  # fixed step for rk4_fixed
    band_tol: float = 1e-9

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not np.isfinite([self.rtol, self.atol, self.step or 0.0]).all():
            raise NonFiniteValueError(f"rtol={self.rtol}, atol={self.atol}, step={self.step}: each must be finite")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 <= self.band_tol < 1e-6:
            raise ValueError("band_tol must lie in [0, 1e-6)")
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

    `at(t)`, for t between t0 and t1, is y1 at t1 and otherwise the
    continuous extension y0 + h * b((t - t0) / h) @ K.  The next step
    overwrites the stages K: read a step before the integrator moves on.
    """

    def __init__(self, t0, y0, t1, y1, h, stages, dense):
        self.t0, self.y0, self.t1, self.y1, self.h = t0, y0, t1, y1, h
        self._stages, self._dense = stages, dense

    def at(self, t: float) -> np.ndarray:
        if t == self.t1:
            return self.y1
        theta = (t - self.t0) / self.h
        weights = self._dense @ np.cumprod(np.full(self._dense.shape[1], theta))
        return self.y0 + self.h * (weights @ self._stages)


@dataclass
class _Leg:
    t: float
    y: np.ndarray
    stats: StepStats = field(default_factory=StepStats)


def integrate_span(f, y0, t0, t1, opts: IntegratorOptions, observer=None, band=False) -> _Leg:
    """Advance y' = f(y) from (t0, y0) to t1 (either direction).

    With `band`, each accepted state must lie within `opts.band_tol` of
    [0, 1]; the stats keep the largest excursion.  Then `observer(step)`
    sees the accepted `Step` and may return a truthy value to stop
    early; the returned leg then ends at that step's end.
    """
    if t1 == t0:
        return _Leg(t0, np.array(y0, dtype=float))
    if opts.method == "rk4_fixed":
        return _rk4_fixed(f, y0, t0, t1, opts, observer, band)
    return _rk45_adaptive(f, y0, t0, t1, opts, observer, band)


def _accept(step: Step, stats: StepStats, opts, observer, band) -> bool:
    """Count and check one accepted step; True if the observer stops the span."""
    stats.accepted += 1
    if band:
        excursion = max(float(-(step.y1.min())), float(step.y1.max() - 1.0), 0.0)
        stats.max_excursion = max(stats.max_excursion, excursion)
        if excursion > opts.band_tol:
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
        stop = _accept(Step(t, y, t_new, y_new, h, K, _RK4_DENSE), stats, opts, observer, band)
        t, y = t_new, y_new
        if stop:
            break
    return _Leg(t, y, stats)


def _rk45_adaptive(f, y0, t0, t1, opts, observer, band) -> _Leg:
    y = np.array(y0, dtype=float)
    t = t0
    span = t1 - t0
    direction = 1.0 if span > 0 else -1.0
    stats = StepStats(rhs_evals=1)

    K = np.empty((7, y.size))
    K[0] = f(y)
    h = direction * _initial_step(y, K[0], opts)
    min_step = abs(span) * _MIN_STEP_FRACTION
    while (t1 - t) * direction > 0:
        if abs(h) < min_step:
            raise IntegrationFaultError(
                f"step size underflow at t={t:.6g} (h={h:.3e})"
            )
        last = (t + h - t1) * direction >= 0
        if last:
            h = t1 - t
        for stage in range(1, 7):
            K[stage] = f(y + h * (_DP_A[stage, :stage] @ K[:stage]))
        stats.rhs_evals += 6
        y_new = y + h * (_DP_B5 @ K)
        err_vec = h * ((_DP_B5 - _DP_B4) @ K)
        scale = opts.atol + opts.rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if err <= 1.0:
            t_new = t1 if last else t + h
            stop = _accept(Step(t, y, t_new, y_new, h, K, _DP_DENSE), stats, opts, observer, band)
            t, y = t_new, y_new
            if stop:
                break
            K[0] = K[6]  # FSAL: last stage equals f at the new state
        else:
            stats.rejected += 1
        factor = _SAFETY * (err if err > 0 else 1e-10) ** -0.2
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
    return _Leg(t, y, stats)


def _initial_step(y, dy, opts) -> float:
    scale = opts.atol + opts.rtol * np.abs(y)
    d0 = float(np.sqrt(np.mean((y / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((dy / scale) ** 2)))
    if d0 < 1e-5 or d1 < 1e-5:
        return 1e-6
    return 0.01 * d0 / d1
