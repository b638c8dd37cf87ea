"""The benchmark's workloads: set-up and the operations of one round.

A round is a fixed list of operations, each one public flipflow call
with its own output check.  Every round has the same make-up; its
inputs come from `Inputs`, so a seed fixes every round, and each round
brings fresh part masses and values: nothing one call computes can be
reused by a later call.

`transference` is dominated by the discrete simulator, `flow` by the
number and cost of right-hand-side evaluations of the velocity flow, and
`survey` by one-shot enumeration over larger step graphons.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import checks

# ---------------------------------------------------------------------------
# Workload make-up

TRANSFERENCE_N = 700
TRANSFERENCE_T = 0.05  # 24,500 flip steps at n = 700
TRANSFERENCE_N_K5 = 400
TRANSFERENCE_T_K5 = 0.1  # 16,000 flip steps at n = 400
TRANSFERENCE_CHECKPOINTS = 3
ACCEPTANCE_START = "two-block:0.5,0.5,0.95,0.95,0.18"

# The make-up of a round places each latency percentile inside a block of
# operations of like cost, so that it does not flip between two kinds of
# operation from run to run: on `flow` the 90th percentile falls among
# the two backward_age and two find_destination calls, on `survey` among
# the nine velocity calls at k = 4, m = 12; both medians fall in the
# middle of a large block (the k <= 3 integrations, the 64 induced
# densities).
FLOW_T = 0.3  # rules of order k <= 3
FLOW_T_HIGH_K = 0.12  # extremist:4 and extremist:5, whose RHS calls cost ~1 ms
FLOW_CHECKPOINTS = 5

SURVEY_VELOCITY = (  # (rule, parts)
    [("extremist:3", 16), ("extremist:4", 8)]
    + [("extremist:4", 12)] * 9
    + [("extremist:5", 4), ("stirring-loose:5", 8)]
)
SURVEY_CUT_PARTS = (8, 12, 14)
SURVEY_DENSITY_PARTS = 16
MC_SAMPLES = 20000
VELOCITY_FIELD_GRID = 21


@dataclass
class Op:
    """One public call, and the check of what it returned."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Context:
    ff: Any  # the flipflow package
    cli: Any  # flipflow.cli
    rules: dict
    workdir: str
    timings: dict = field(default_factory=dict)
    changes: dict = field(default_factory=dict)  # rule name -> E[e(H) - e(F)] per F


def _fresh_import():
    """Import flipflow as a new process would, whatever was imported before."""
    for name in [n for n in sys.modules if n == "flipflow" or n.startswith("flipflow.")]:
        del sys.modules[name]
    ff = importlib.import_module("flipflow")
    return ff, importlib.import_module("flipflow.cli")


def setup(rule_names, workdir: str) -> Context:
    """Import flipflow and build the rules with their pair coefficients."""
    ff, cli = _fresh_import()
    ctx = Context(ff, cli, {}, workdir)
    for name in rule_names:
        t0 = time.perf_counter()
        rule = ff.make_rule(name)
        t1 = time.perf_counter()
        ff.pair_coefficients(rule)
        t2 = time.perf_counter()
        ctx.rules[name] = rule
        ctx.timings[f"build_ms.{name}"] = 1e3 * (t1 - t0)
        ctx.timings[f"pair_coefficients_ms.{name}"] = 1e3 * (t2 - t1)
    return ctx


def prepare_checks(ctx: Context) -> None:
    for name, rule in ctx.rules.items():
        ctx.changes[name] = checks.edge_change_by_graph(rule.rows)


BASE_SEED = 220112272  # fixes the base of every input; the run's seed only moves it
JITTER = 0.05  # share of a value's range by which the seed moves it


class Inputs:
    """The inputs of one round.

    Every draw starts from a base that depends only on the workload and
    the draw's position in the round; the round's generator, seeded with
    (seed, workload, r), moves it by a small jitter.  Each round and seed
    thus gets fresh values, while the cost of an operation, which for an
    adaptive integration depends on the values, stays about the same
    from seed to seed.
    """

    def __init__(self, seed: int, workload: int, r: int):
        self.rng = np.random.default_rng([seed, workload, r])
        self.workload = workload
        self.position = 0

    def _base(self) -> np.random.Generator:
        self.position += 1
        return np.random.default_rng([BASE_SEED, self.workload, self.position])

    def uniform(self, lo: float, hi: float, size=None):
        base = self._base().uniform(lo, hi, size)
        return np.clip(base + JITTER * (hi - lo) * self.rng.uniform(-1.0, 1.0, size), lo, hi)

    def scalar(self, lo: float, hi: float) -> float:
        return float(self.uniform(lo, hi))

    def integer(self, high: int) -> int:
        return int(self.rng.integers(high))

    def masses(self, m: int) -> np.ndarray:
        masses = self._base().dirichlet(np.full(m, 4.0)) * self.rng.uniform(0.9, 1.1, m)
        return masses / masses.sum()

    def symmetric(self, m: int, lo: float, hi: float) -> np.ndarray:
        upper = np.triu(self.uniform(lo, hi, (m, m)))
        return upper + np.triu(upper, 1).T

    def graphon(self, ff, m: int):
        return ff.StepGraphon(self.masses(m), self.symmetric(m, 0.05, 0.95))


# ---------------------------------------------------------------------------
# transference: seeded CLI transference experiments


TRANSFERENCE_RULES = ["er", "triangle-removal", "extremist:3", "stirring-loose:3", "extremist:5"]


def transference_round(ctx: Context, seed: int, r: int) -> list[Op]:
    inp = Inputs(seed, 0, r)
    m1 = inp.scalar(0.3, 0.7)
    x1, x2, y = (float(v) for v in inp.uniform(0.1, 0.9, 3))
    stir_start = f"two-block:{m1!r},{1.0 - m1!r},{x1!r},{x2!r},{y!r}"
    stir_density = m1 * m1 * x1 + (1 - m1) * (1 - m1) * x2 + 2 * m1 * (1 - m1) * y
    k5_start = f"const:{inp.scalar(0.6, 0.8)!r}"
    runs = [
        ("er", "const:0", TRANSFERENCE_N, TRANSFERENCE_T, {"closed_form": lambda t: checks.er_density(0.0, t)}),
        ("triangle-removal", "const:1", TRANSFERENCE_N, TRANSFERENCE_T,
         {"closed_form": lambda t: checks.triangle_removal_density(1.0, t)}),
        ("extremist:3", ACCEPTANCE_START, TRANSFERENCE_N, TRANSFERENCE_T, {}),
        ("stirring-loose:3", stir_start, TRANSFERENCE_N, TRANSFERENCE_T, {"conserved": stir_density}),
        ("extremist:5", k5_start, TRANSFERENCE_N_K5, TRANSFERENCE_T_K5, {}),
    ]
    ops = []
    for idx, (rule, start, n, t_end, expect) in enumerate(runs):
        out = f"{ctx.workdir}/transference-{idx}.csv"
        argv = [
            "transference", "--rule", rule, "--init", start, "--n", str(n),
            "--t-end", repr(t_end), "--checkpoints", str(TRANSFERENCE_CHECKPOINTS),
            "--seed", str(inp.integer(2**31)), "--out", out,
        ]
        times = [t_end * (i + 1) / TRANSFERENCE_CHECKPOINTS for i in range(TRANSFERENCE_CHECKPOINTS)]

        def check(code, out=out, times=times, expect=expect):
            checks.require(code == 0, f"exit code {code}")
            checks.check_transference(checks.read_transference_csv(out), times, **expect)

        ops.append(Op(f"cli.transference:{rule}", lambda argv=argv: ctx.cli.main(argv), check))
    return ops


# ---------------------------------------------------------------------------
# flow: trajectory computations on small step graphons


FLOW_RULES = [
    "er", "triangle-removal", "edge-removal", "complementing:3", "component-completion:3",
    "stirring-firm:3", "stirring-loose:3", "extremist:3", "extremist:4", "extremist:5",
    "ignorant-uniform:3",
]


def _cells(traj) -> list:
    return [(t, w.values) for t, w in traj.checkpoints]


def flow_round(ctx: Context, seed: int, r: int) -> list[Op]:
    ff = ctx.ff
    inp = Inputs(seed, 1, r)
    ops = []
    for idx, name in enumerate(FLOW_RULES):
        rule = ctx.rules[name]
        high_k = rule.k >= 4
        m = 1 + idx % (2 if high_k else 4)
        w0 = inp.graphon(ff, m)
        t_end = FLOW_T_HIGH_K if high_k else FLOW_T
        times = np.linspace(0.0, t_end, FLOW_CHECKPOINTS)
        if name.startswith("stirring"):
            def check(traj, w0=w0):
                checks.check_conserved_density(_cells(traj), w0.masses, w0.masses @ w0.values @ w0.masses)
        else:
            def check(traj):
                for _, values in _cells(traj):
                    checks.check_graphon_values(values)
        ops.append(Op(f"trajectory.integrate:{name}",
                      lambda rule=rule, w0=w0, t_end=t_end, times=times:
                      ff.integrate(rule, w0, t_end, checkpoint_times=times), check))

    er, tr = ctx.rules["er"], ctx.rules["triangle-removal"]
    closed = {"er": checks.er_density, "triangle-removal": checks.triangle_removal_density}
    for name, rule, lo, hi in (("er", er, 0.0, 0.9), ("triangle-removal", tr, 0.2, 1.0)):
        d0 = inp.scalar(lo, hi)
        form = closed[name]
        w0 = ff.constant(d0)
        times = np.linspace(0.0, 1.0, FLOW_CHECKPOINTS)
        ops.append(Op(f"trajectory.integrate:{name}",
                      lambda rule=rule, w0=w0, times=times: ff.integrate(rule, w0, 1.0, checkpoint_times=times),
                      lambda traj, d0=d0, form=form:
                      checks.check_constant_flow(_cells(traj), lambda t: form(d0, t))))
        t = inp.scalar(0.3, 1.0)
        ops.append(Op(f"trajectory.flow_at:{name}",
                      lambda rule=rule, w0=w0, t=t: ff.flow_at(rule, w0, t),
                      lambda w, d0=d0, t=t, form=form:
                      checks.check_constant_flow([(t, w.values)], lambda s: form(d0, s))))

    ex3, cc3 = ctx.rules["extremist:3"], ctx.rules["component-completion:3"]
    w0 = inp.graphon(ff, 3)
    t = inp.scalar(0.3, 1.0)
    ops.append(Op("trajectory.flow_at:extremist:3", lambda: ff.flow_at(ex3, w0, t),
                  lambda w: checks.check_graphon_values(w.values)))
    w1 = inp.graphon(ff, 2)
    t1, u1 = (float(v) for v in inp.uniform(0.1, 0.4, 2))
    ops.append(Op("trajectory.semigroup_check:component-completion:3",
                  lambda: ff.semigroup_check(cc3, w1, t1, u1), checks.check_semigroup))
    w2 = ff.constant(inp.scalar(0.0, 0.9))
    t2, u2 = (float(v) for v in inp.uniform(0.1, 0.5, 2))
    ops.append(Op("trajectory.semigroup_check:er",
                  lambda: ff.semigroup_check(er, w2, t2, u2), checks.check_semigroup))

    # the er flow reaches 1 - e^(-2a) from the empty graphon at time a
    for age in (1.0, inp.scalar(0.9, 1.1)):
        w3 = ff.constant(1.0 - math.exp(-2.0 * age))
        ops.append(Op("trajectory.backward_age:er", lambda w3=w3: ff.backward_age(er, w3),
                      lambda res, age=age: checks.check_age(
                          res.exceeded, res.age, None if res.origin is None else res.origin.values, age)))

    ign = ctx.rules["ignorant-uniform:3"]
    for _ in range(2):
        w4 = inp.graphon(ff, 3)
        ops.append(Op("trajectory.find_destination:ignorant-uniform:3",
                      lambda w4=w4: ff.find_destination(ign, w4),
                      lambda res: checks.check_destination(
                          res.converged, None if res.graphon is None else res.graphon.values, 0.5)))
    return ops


# ---------------------------------------------------------------------------
# survey: one-shot analysis calls on larger step graphons


SURVEY_RULES = FLOW_RULES + ["stirring-loose:5"]


def survey_round(ctx: Context, seed: int, r: int) -> list[Op]:
    ff = ctx.ff
    inp = Inputs(seed, 2, r)
    ops = []

    def velocity_op(name, w):
        rule = ctx.rules[name]
        return Op(f"velocity:{name}:m{w.m}", lambda: ff.velocity(rule, w),
                  lambda v: checks.check_velocity(rule.k, w.values, v.values))

    for name, m in SURVEY_VELOCITY:
        ops.append(velocity_op(name, inp.graphon(ff, m)))
    for name, m in (("stirring-loose:5", 4), ("triangle-removal", 3)):
        c = inp.scalar(0.05, 0.95)
        w = ff.StepGraphon(inp.masses(m), np.full((m, m), c))
        rule = ctx.rules[name]

        def check(v, rule=rule, w=w, c=c, name=name):
            checks.check_velocity(rule.k, w.values, v.values)
            checks.check_constant_velocity(v.values, ctx.changes[name], c)

        ops.append(Op(f"velocity:{name}:m{m}", lambda rule=rule, w=w: ff.velocity(rule, w), check))

    # induced densities of every labeled pattern, which must sum to 1
    for k in (3, 4):
        w = inp.graphon(ff, SURVEY_DENSITY_PARTS)
        found = {}
        patterns = ff.enumerate_graphs(k)
        for g in patterns:
            def check(value, g=g, w=w, found=found, last=g is patterns[-1]):
                checks.check_close(value, checks.induced_density_ref(g.k, g.edges, w.masses, w.values),
                                   1e-12, f"induced density of {g}")
                found[g.edges] = value
                if last:
                    checks.check_pattern_sum(list(found.values()))

            ops.append(Op(f"induced_density:k{k}:m{w.m}", lambda g=g, w=w: ff.induced_density(g, w), check))
    w = inp.graphon(ff, SURVEY_DENSITY_PARTS)
    g = ff.LabeledGraph(5, inp.integer(1 << 10))
    ops.append(Op(f"induced_density:k5:m{w.m}", lambda g=g, w=w: ff.induced_density(g, w),
                  lambda value, g=g, w=w: checks.check_close(
                      value, checks.induced_density_ref(5, g.edges, w.masses, w.values), 1e-12,
                      f"induced density of {g}")))
    k2 = ff.LabeledGraph(2, 1)
    ops.append(Op("density:k2", lambda w=w: ff.density(k2, w),
                  lambda value, w=w: checks.check_close(value, float(w.masses @ w.values @ w.masses), 1e-12,
                                                   "edge density")))

    for m in SURVEY_CUT_PARTS:
        kern = ff.StepKernel(inp.masses(m), inp.symmetric(m, -1.0, 1.0))
        box = {}
        ops.append(Op(f"cut_norm_exact:m{m}", lambda kern=kern: ff.cut_norm_exact(kern),
                      lambda value, box=box: box.update(exact=value)))
        ops.append(Op(f"cut_norm_lower_bound:m{m}", lambda kern=kern: ff.cut_norm_lower_bound(kern),
                      lambda value, kern=kern, box=box: checks.check_cut_norms(
                          kern.masses, kern.values, box["exact"], value)))

    for name, m, cell in (("stirring-loose:3", 3, (0, 1)), ("extremist:4", 3, (1, 1))):
        rule = ctx.rules[name]
        w = inp.graphon(ff, m)
        mc_seed = inp.integer(2**31)
        ops.append(Op(f"velocity_monte_carlo:{name}",
                      lambda rule=rule, w=w, cell=cell, mc_seed=mc_seed:
                      ff.velocity_monte_carlo(rule, w, cell, MC_SAMPLES, mc_seed),
                      lambda res, rule=rule, w=w, cell=cell: checks.check_monte_carlo(
                          res.estimate, res.stderr, float(ff.velocity(rule, w).values[cell]))))

    for name in SURVEY_RULES:
        rule = ctx.rules[name]
        ops.append(Op(f"constant_fixed_points:{name}", lambda rule=rule: ff.constant_fixed_points(rule),
                      lambda roots, name=name: checks.check_fixed_points(name, roots, ctx.changes[name])))

    out = f"{ctx.workdir}/velocity-field.csv"
    argv = ["velocity-field", "--rule", "extremist:3", "--grid", str(VELOCITY_FIELD_GRID), "--out", out]

    def check(code):
        checks.require(code == 0, f"exit code {code}")
        checks.check_velocity_field_csv(out, ctx.changes["extremist:3"])

    ops.append(Op("cli.velocity-field:extremist:3", lambda: ctx.cli.main(argv), check))
    return ops


@dataclass(frozen=True)
class Workload:
    rules: list
    make_round: Callable[[Context, int, int], list]


WORKLOADS = {
    "transference": Workload(TRANSFERENCE_RULES, transference_round),
    "flow": Workload(FLOW_RULES, flow_round),
    "survey": Workload(SURVEY_RULES, survey_round),
}
