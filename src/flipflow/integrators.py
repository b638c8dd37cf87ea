"""Explicit Runge-Kutta cores for autonomous vector ODEs.

Two methods are offered: an adaptive Dormand-Prince 5(4) pair for
accuracy, and a fixed-step classic RK4 whose evaluation sequence is
completely determined by the step size, for bit-reproducible runs.
State vectors are small (the free entries of a step function), so the
cost is dominated by right-hand-side evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationFaultError, NonFiniteValueError

# Dormand-Prince 5(4) tableau; the propagated solution is 5th order and
# the embedded 4th-order difference provides the local error estimate.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)

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

    def merge(self, other: "StepStats") -> None:
        self.accepted += other.accepted
        self.rejected += other.rejected
        self.max_excursion = max(self.max_excursion, other.max_excursion)


@dataclass
class _Leg:
    t: float
    y: np.ndarray
    stats: StepStats = field(default_factory=StepStats)


def integrate_span(f, y0, t0, t1, opts: IntegratorOptions, observer=None) -> _Leg:
    """Advance y' = f(y) from (t0, y0) to t1 (either direction).

    `observer(t_prev, y_prev, t_new, y_new)` is called after every accepted
    step and may return a truthy value to stop early; the returned leg
    then ends at the last accepted state.
    """
    if t1 == t0:
        return _Leg(t0, np.array(y0, dtype=float))
    if opts.method == "rk4_fixed":
        return _rk4_fixed(f, y0, t0, t1, opts, observer)
    return _rk45_adaptive(f, y0, t0, t1, opts, observer)


def _rk4_fixed(f, y0, t0, t1, opts, observer) -> _Leg:
    span = t1 - t0
    nsteps = max(1, int(np.ceil(abs(span) / opts.step)))
    h = span / nsteps
    y = np.array(y0, dtype=float)
    t = t0
    stats = StepStats()
    for i in range(nsteps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t_new = t1 if i == nsteps - 1 else t + h
        stats.accepted += 1
        stop = observer(t, y, t_new, y_new) if observer else None
        t, y = t_new, y_new
        if stop:
            break
    return _Leg(t, y, stats)


def _rk45_adaptive(f, y0, t0, t1, opts, observer) -> _Leg:
    y = np.array(y0, dtype=float)
    t = t0
    span = t1 - t0
    direction = 1.0 if span > 0 else -1.0
    stats = StepStats()

    k1 = f(y)
    h = direction * _initial_step(y, k1, opts)
    min_step = abs(span) * _MIN_STEP_FRACTION
    while (t1 - t) * direction > 0:
        if abs(h) < min_step:
            raise IntegrationFaultError(
                f"step size underflow at t={t:.6g} (h={h:.3e})"
            )
        last = (t + h - t1) * direction >= 0
        if last:
            h = t1 - t
        ks = [k1]
        for stage in range(1, 7):
            acc = sum(a * k for a, k in zip(_DP_A[stage], ks))
            ks.append(f(y + h * acc))
        ks = np.array(ks)
        y_new = y + h * (_DP_B5 @ ks)
        err_vec = h * ((_DP_B5 - _DP_B4) @ ks)
        scale = opts.atol + opts.rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if err <= 1.0:
            t_new = t1 if last else t + h
            stats.accepted += 1
            stop = observer(t, y, t_new, y_new) if observer else None
            t, y = t_new, y_new
            k1 = ks[6]  # FSAL: last stage equals f at the new state
            if stop:
                break
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
