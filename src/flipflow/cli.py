"""Command-line front end for experiments.

Subcommands: simulate, trajectory, transference, fixed-points,
velocity-field, periodic-demo; `_MODES` maps each to its command and
the fields it requires.  Every experiment is configured by flags, by a
JSON config file, or both (flags win).  The flags, the config keys
(field or flag name) and their types, choices and bounds all come from
the fields of `ExperimentConfig`.  All randomness flows from --seed, and
outputs are CSV files whose schemas are documented in the README.
Identical invocations produce byte-identical outputs.

Exit codes: 0 success, 1 configuration/validation error, 2 runtime
fault (integration failure or an enumeration guard).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field, fields
from math import floor, isfinite
from typing import get_args, get_type_hints

import numpy as np

from .csvio import TRANSFERENCE_HEADER, write_csv
from .csvio import read_csv  # noqa: F401  (every CLI CSV parses with cli.read_csv)
from .errors import ConfigError, FlipflowError, NonFiniteValueError
from .integrators import METHODS, IntegratorOptions
from .rules import Rule, load_rule, make_rule, validate
from .simulate import _checkpoints, _sampled, _transferences, transference_experiment
from .stepfun import StepGraphon, constant, load_graphon, two_block
from .trajectory import constant_fixed_points, integrate, planar_demo
from .velocity import VelocityPlan
from .velocity import velocity  # noqa: F401  (perfbench's tracer wraps cli.velocity)


def _option(help: str, default=None, *, flag=None, choices=None, least=None):
    """A field that is also a flag (`flag`, or the field name with ``-``
    for ``_``) and a config key; `least` is the smallest value accepted."""
    return field(
        default=default,
        metadata={"help": help, "flag": flag, "choices": choices, "least": least},
    )


@dataclass
class ExperimentConfig:
    """Validated experiment description; one per CLI invocation.

    Every field but `mode` is a flag and a config key: its annotation
    gives the type, its metadata the help, flag, choices and bound.
    """

    mode: str
    rule: str | None = _option("builtin rule spec, e.g. er, extremist:3")
    rule_file: str | None = _option("JSON rule file")
    init: str | None = _option(
        "initial graphon, e.g. const:0.5 or two-block:0.5,0.5,0.95,0.95,0.18"
    )
    init_file: str | None = _option("JSON graphon file")
    seed: int | None = _option("master seed (required for stochastic modes)")
    out: str | None = _option("output CSV path")
    n: int | None = _option("number of simulated vertices")
    t_end: float | None = _option("final rescaled time")
    steps: int | None = _option("number of flip steps (simulate)")
    checkpoints: int = _option("number of checkpoints", 11, least=1)
    grid: int = _option("grid size (velocity-field)", 21, least=2)
    klass: str = _option(
        "graphon class for velocity-field", "two-block-sym",
        flag="class", choices=("two-block-sym",),
    )
    replicates: int = _option("replicate count (transference)", 1, least=1)
    start: str = _option("start point x,y (periodic-demo)", "0.25,0.8")
    rtol: float = _option("integrator relative tolerance", IntegratorOptions.rtol)
    atol: float = _option("integrator absolute tolerance", IntegratorOptions.atol)
    method: str = _option("integrator", IntegratorOptions.method, choices=METHODS)
    step: float | None = _option("fixed step size for rk4_fixed")
    grid_n: int = _option("root scan grid (fixed-points)", 1001)
    tol: float = _option("root tolerance (fixed-points)", 1e-10)

    def integrator_options(self) -> IntegratorOptions:
        return IntegratorOptions(
            method=self.method, rtol=self.rtol, atol=self.atol, step=self.step
        )


_OPTIONS = [f for f in fields(ExperimentConfig) if f.metadata]
# the declared type of each field, without its `| None`
_KIND = {
    name: next(t for t in get_args(hint) or (hint,) if t is not type(None))
    for name, hint in get_type_hints(ExperimentConfig).items()
}


def _flag(f) -> str:
    return "--" + (f.metadata.get("flag") or f.name.replace("_", "-"))


# a config key is a field name or its flag name
_BY_KEY = {
    key: f for f in fields(ExperimentConfig) for key in (f.name, _flag(f)[2:])
}


def _read_config(path, problems: list[str]) -> dict:
    """Values of a JSON config file, checked against the declared fields."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError([f"cannot read config file {path}: {exc}"])
    if not isinstance(data, dict):
        raise ConfigError([f"config file {path} must hold a JSON object"])
    values = {}
    for key, value in data.items():
        f = _BY_KEY.get(key)
        if f is None:
            problems.append(f"unknown config key {key!r}")
            continue
        if value is None:
            continue
        kind, choices = _KIND[f.name], f.metadata.get("choices")
        # a JSON bool is not an int; an int is a valid float
        if not (type(value) is kind or (kind is float and type(value) is int)):
            problems.append(f"config key {key!r} must be {kind.__name__}, got {value!r}")
        elif choices and value not in choices:
            problems.append(f"config key {key!r} must be one of {', '.join(choices)}")
        else:
            values[f.name] = value
    return values


def parse_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge config file and flags (flags win) and validate all at once."""
    problems: list[str] = []
    values = _read_config(args.config, problems) if args.config else {}
    for f in _OPTIONS:
        if getattr(args, f.name) is not None:
            values[f.name] = getattr(args, f.name)
    values["mode"] = args.mode
    cfg = ExperimentConfig(**values)

    for need in _MODES[cfg.mode][1]:
        names = need if isinstance(need, tuple) else (need,)
        if all(getattr(cfg, name) in (None, "") for name in names):
            flags = " or ".join(_flag(_BY_KEY[name]) for name in names)
            problems.append(f"{flags} is required in {cfg.mode} mode")
    for f in _OPTIONS:
        least = f.metadata["least"]
        if least is not None and getattr(cfg, f.name) < least:
            problems.append(f"{_flag(f)} must be >= {least}")
    if problems:
        raise ConfigError(problems)
    return cfg


def _build_rule(cfg: ExperimentConfig) -> Rule:
    if cfg.rule_file:
        return load_rule(cfg.rule_file)  # validated as it loads
    rule = make_rule(cfg.rule)
    validate(rule)
    return rule


def _build_init(cfg: ExperimentConfig) -> StepGraphon:
    if cfg.init_file:
        return load_graphon(cfg.init_file)
    spec = cfg.init
    head, _, rest = spec.partition(":")
    if head == "const":
        return constant(*_numbers("--init", spec, rest, "const:density"))
    if head == "two-block":
        m1, m2, x1, x2, y = _numbers("--init", spec, rest, "two-block:mass1,mass2,x1,x2,y")
        return two_block((m1, m2), x1, x2, y)
    raise ConfigError([f"unknown init spec {spec!r}"])


def _numbers(flag: str, spec: str, text: str, form: str) -> list[float]:
    """The comma-separated numbers `text` in the `flag` value `spec`, shaped as `form`."""
    try:
        numbers = [float(x) for x in text.split(",")]
    except ValueError:
        numbers = []
    if len(numbers) != form.count(",") + 1:
        raise ConfigError([f"{flag} {spec!r} must have the form {form}"])
    return numbers


def _cell_labels(m: int) -> list[str]:
    return [f"cell_{i + 1}_{j + 1}" for i in range(m) for j in range(i, m)]


def _cells(w: StepGraphon) -> list[float]:
    iu = np.triu_indices(w.m)
    return [float(v) for v in w.values[iu]]


# ---------------------------------------------------------------------------
# Subcommand bodies: each returns its CSV's header and rows, which `main`
# writes whole, so a run that fails leaves no output file


def _cmd_simulate(cfg: ExperimentConfig):
    rule = _build_rule(cfg)
    w0 = _build_init(cfg)
    n = cfg.n
    length = "t_end" if cfg.steps is None else "steps"  # --steps wins
    value = getattr(cfg, length)
    if not isfinite(value):
        raise NonFiniteValueError(f"{length} must be finite, got {value}")
    if value < 0:
        raise ConfigError([f"{length} must be non-negative, got {value}"])
    total = value if cfg.steps is not None else floor(value * n * n)
    marks = [round(total * i / (cfg.checkpoints - 1)) for i in range(cfg.checkpoints)] if cfg.checkpoints > 1 else [total]
    snapshots = _checkpoints(_sampled(rule, w0, n, cfg.seed), sorted(set(marks)))
    header = ["step", "t", "density"] + _cell_labels(w0.m)
    return header, ([s, s / (n * n), w.edge_density()] + _cells(w) for s, w in snapshots)


def _cmd_trajectory(cfg: ExperimentConfig):
    rule = _build_rule(cfg)
    w0 = _build_init(cfg)
    times = np.linspace(0.0, cfg.t_end, cfg.checkpoints)
    traj = integrate(rule, w0, cfg.t_end, checkpoint_times=times, opts=cfg.integrator_options())
    return ["t"] + _cell_labels(w0.m), ([t] + _cells(w) for t, w in traj.checkpoints)


def _cmd_transference(cfg: ExperimentConfig):
    rule, w0, opts = _build_rule(cfg), _build_init(cfg), cfg.integrator_options()
    if cfg.replicates == 1:
        report = transference_experiment(rule, w0, cfg.n, cfg.t_end, cfg.checkpoints, cfg.seed, opts=opts)
        return TRANSFERENCE_HEADER, report.rows()
    # replicate r runs with seed + r, when write_csv reaches its rows
    seeds = range(cfg.seed, cfg.seed + cfg.replicates)
    reports = _transferences(rule, w0, cfg.n, cfg.t_end, cfg.checkpoints, seeds, opts)
    rows = ([str(r), *row] for r, report in enumerate(reports) for row in report.rows())
    return ["replicate"] + TRANSFERENCE_HEADER, rows


def _cmd_fixed_points(cfg: ExperimentConfig):
    rule = _build_rule(cfg)
    roots = constant_fixed_points(rule, grid_n=cfg.grid_n, tol=cfg.tol)
    for r in roots:
        print(format(r, ".12g"))
    return ["fixed_point"], ([r] for r in roots)


def _cmd_velocity_field(cfg: ExperimentConfig):
    rule = _build_rule(cfg)
    grid = np.linspace(0.0, 1.0, cfg.grid)
    x, y = np.repeat(grid, cfg.grid), np.tile(grid, cfg.grid)
    states = np.column_stack((x, y, x))  # packed two-block states [x, y, x], in one plan call
    return ["x", "y", "vx", "vy"], np.column_stack((x, y, VelocityPlan(rule, (0.5, 0.5))(states)[:, :2]))


def _cmd_periodic_demo(cfg: ExperimentConfig):
    start = _numbers("--start", cfg.start, cfg.start, "x,y")
    trace = planar_demo(start, cfg.t_end, opts=cfg.integrator_options())
    return ["t", "x", "y"], ([t, p[0], p[1]] for t, p in zip(trace.times, trace.points))


_RULE = ("rule", "rule_file")
_INIT = ("init", "init_file")
# mode -> (command, required fields); a tuple of fields means "one of these"
_MODES = {
    "simulate": (_cmd_simulate, ("seed", _RULE, _INIT, "n", ("steps", "t_end"), "out")),
    "trajectory": (_cmd_trajectory, (_RULE, _INIT, "t_end", "out")),
    "transference": (_cmd_transference, ("seed", _RULE, _INIT, "n", "t_end", "out")),
    "fixed-points": (_cmd_fixed_points, (_RULE,)),
    "velocity-field": (_cmd_velocity_field, (_RULE, "out")),
    "periodic-demo": (_cmd_periodic_demo, ("t_end", "out")),
}


@functools.cache  # built at the first `main` call, not at import; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flipflow",
        description="Flip-process simulations and graphon trajectories",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in _MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", help="JSON config file; flags override it")
        for f in _OPTIONS:
            p.add_argument(
                _flag(f), dest=f.name, type=_KIND[f.name],
                choices=f.metadata["choices"], help=f.metadata["help"],
            )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        cfg = parse_config(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        header, rows = _MODES[cfg.mode][0](cfg)
        if cfg.out:
            write_csv(cfg.out, header, rows)
    except (ValueError, OSError) as exc:  # ConfigError here names one problem
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FlipflowError as exc:
        print(f"fault: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
