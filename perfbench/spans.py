"""Spans around calls into flipflow's layers, and the per-layer metrics.

The tracer replaces the module attributes and methods the program calls
through (for example `flipflow.simulate.integrate` or
`ProcessState.step_many`) with wrappers that record one span per call:
name, tag, start, end, parent span and root span.  Spans stay in memory;
`run.py` writes them to a file when the run ends.  A span's self time is
its duration minus the durations of its direct children, which are
nested inside it because one thread makes every call.
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter

NAME, TAG, START, END, PARENT, ROOT, COUNT, EXTRA = range(8)


def _km(rule, w, *_args, **_kwargs) -> str:
    return f"k{rule.k}_m{w.m}"


def _pattern_km(pattern, w, *_args, **_kwargs) -> str:
    return f"k{pattern.k}_m{w.m}"


def _parts(kernel, *_args, **_kwargs) -> str:
    return f"m{kernel.m}"


def _step_count(args, _kwargs, _result) -> int:
    return args[1]


def _leg_stats(_args, _kwargs, leg) -> tuple:
    return (leg.stats.accepted, leg.stats.rejected)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def call(self, name: str, tag: str, fn, args=(), kwargs=None, count=None, extra=None):
        kwargs = kwargs or {}
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][ROOT] if parent >= 0 else idx
        rec = [name, tag, 0.0, 0.0, parent, root, 0, None]
        self.spans.append(rec)
        self._stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[END] = perf_counter()
            rec[START] = start
            self._stack.pop()
        if count is not None:
            rec[COUNT] = count(args, kwargs, result)
        if extra is not None:
            rec[EXTRA] = extra(args, kwargs, result)
        return result

    def wrap(self, owner, attr: str, name: str, tag=None, count=None, extra=None) -> None:
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            label = tag(*args, **kwargs) if tag is not None else ""
            return self.call(name, label, orig, args, kwargs, count, extra)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def install(self, ff, cli) -> None:
        """Wrap the layer boundaries of one imported flipflow package."""
        sim, traj = ff.simulate, ff.trajectory
        state = sim.ProcessState
        self.wrap(state, "__init__", "simulate.state_init")
        self.wrap(state, "step_many", "simulate.step_many", count=_step_count)
        self.wrap(state, "stepped", "simulate.stepped")
        self.wrap(sim, "sample_graph", "stepfun.sample_graph")
        self.wrap(sim, "integrate", "trajectory.integrate")
        self.wrap(sim, "cut_norm_exact", "stepfun.cut_norm_exact", tag=_parts)
        self.wrap(traj, "velocity", "trajectory.velocity", tag=_km)
        self.wrap(traj, "integrate_span", "integrators.integrate_span", extra=_leg_stats)
        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "transference_experiment", "simulate.transference_experiment")
        self.wrap(cli, "velocity", "velocity.velocity", tag=_km)
        for attr in ("make_rule", "validate", "constant", "two_block"):
            self.wrap(cli, attr, f"cli.{attr}")
        self.wrap(ff, "velocity", "velocity.velocity", tag=_km)
        self.wrap(ff, "velocity_monte_carlo", "velocity.monte_carlo")
        self.wrap(ff, "induced_density", "stepfun.induced_density", tag=_pattern_km)
        self.wrap(ff, "cut_norm_exact", "stepfun.cut_norm_exact", tag=_parts)
        self.wrap(ff, "cut_norm_lower_bound", "stepfun.cut_norm_lower_bound")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# Per-layer metrics

STEP_RULES = {
    "er": "er",
    "triangle-removal": "triangle-removal",
    "extremist:3": "extremist3",
    "stirring-loose:3": "stirring-loose3",
    "extremist:5": "extremist5",
}
VELOCITY_CELLS = ("k3_m16", "k4_m8", "k4_m12", "k5_m4", "k5_m8")
CUT_PARTS = ("m2", "m8", "m12", "m14")
DENSITY_CELLS = ("k4_m16", "k5_m16")
VELOCITY_SPANS = ("velocity.velocity", "trajectory.velocity")


def _durations(spans, names, tag=None) -> list[float]:
    return [s[END] - s[START] for s in spans if s[NAME] in names and (tag is None or s[TAG] == tag)]


def _mean(values, scale: float) -> float:
    return scale * statistics.fmean(values) if values else 0.0


def self_times(spans) -> list[float]:
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def layer_metrics(spans, op_labels: dict, rounds: int, setup_timings: dict, overhead_pct: float) -> dict:
    """Per-layer metrics; counts are per round, times are means per call.

    `op_labels` maps the index of each root span to its operation label.
    A metric of a layer the workload does not reach reads 0.
    """
    selfs = self_times(spans)
    per_round = 1.0 / max(rounds, 1)
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    steps = [s for s in spans if s[NAME] == "simulate.step_many"]
    put("simulate.steps", per_round * sum(s[COUNT] for s in steps), "count")
    for rule, short in STEP_RULES.items():
        mine = [s for s in steps if op_labels.get(s[ROOT], "").endswith(":" + rule)]
        count = sum(s[COUNT] for s in mine)
        busy = sum(s[END] - s[START] for s in mine)
        put(f"simulate.step_us.{short}", 1e6 * busy / count if count else 0.0, "us")
    put("simulate.state_init_ms", _mean(_durations(spans, ("simulate.state_init",)), 1e3), "ms")
    put("simulate.checkpoint_ms", _mean(_durations(spans, ("simulate.stepped",)), 1e3), "ms")
    transference = [i for i, s in enumerate(spans) if s[NAME] == "simulate.transference_experiment"]
    put("simulate.transference_self_ms", _mean([selfs[i] for i in transference], 1e3), "ms")
    put("stepfun.sample_graph_ms", _mean(_durations(spans, ("stepfun.sample_graph",)), 1e3), "ms")
    for m in CUT_PARTS:
        put(f"stepfun.cut_norm_exact_ms.{m}",
            _mean(_durations(spans, ("stepfun.cut_norm_exact",), m), 1e3), "ms")
    put("stepfun.cut_norm_lower_bound_ms",
        _mean(_durations(spans, ("stepfun.cut_norm_lower_bound",)), 1e3), "ms")
    for cell in DENSITY_CELLS:
        put(f"stepfun.induced_density_ms.{cell}",
            _mean(_durations(spans, ("stepfun.induced_density",), cell), 1e3), "ms")

    legs = [s for s in spans if s[NAME] == "integrators.integrate_span"]
    rhs = [s for s in spans if s[NAME] == "trajectory.velocity"
           and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "integrators.integrate_span"]
    put("integrators.rhs_evals", per_round * len(rhs), "count")
    put("integrators.steps_accepted", per_round * sum(s[EXTRA][0] for s in legs), "count")
    put("integrators.steps_rejected", per_round * sum(s[EXTRA][1] for s in legs), "count")
    put("integrators.rhs_us", _mean(_durations(spans, ("trajectory.velocity",)), 1e6), "us")

    flow_ops = {i: 0.0 for i, label in op_labels.items() if label.startswith("trajectory.")}
    for s in spans:
        if s[NAME] in VELOCITY_SPANS and s[ROOT] in flow_ops:
            flow_ops[s[ROOT]] += s[END] - s[START]
    put("trajectory.self_ms",
        _mean([spans[i][END] - spans[i][START] - v for i, v in flow_ops.items()], 1e3), "ms")
    put("trajectory.integrate_ms", _mean(_durations(spans, ("trajectory.integrate",)), 1e3), "ms")

    put("velocity.calls", per_round * len(_durations(spans, VELOCITY_SPANS)), "count")
    for cell in VELOCITY_CELLS:
        put(f"velocity.ms.{cell}", _mean(_durations(spans, VELOCITY_SPANS, cell), 1e3), "ms")
    put("velocity.monte_carlo_ms", _mean(_durations(spans, ("velocity.monte_carlo",)), 1e3), "ms")

    for what in ("build_ms", "pair_coefficients_ms"):
        put(f"rules.{what}.stirring-loose5", setup_timings.get(f"{what}.stirring-loose:5", 0.0), "ms")
    mains = [i for i, s in enumerate(spans) if s[NAME] == "cli.main"]
    put("cli.self_ms", _mean([selfs[i] for i in mains], 1e3), "ms")
    put("trace.overhead_pct", overhead_pct, "%")
    return out
