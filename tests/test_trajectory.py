import math
import re

import numpy as np
import pytest

from flipflow import (
    BUILTIN_RULES,
    IntegrationFaultError,
    IntegratorOptions,
    NonFiniteValueError,
    Rule,
    StepGraphon,
    VelocityPlan,
    backward_age,
    complementing_rule,
    constant,
    constant_fixed_points,
    cut_lipschitz_constant,
    cut_norm_exact,
    erdos_renyi_rule,
    extremist_rule,
    find_destination,
    flow_at,
    ignorant_rule,
    integrate,
    kernel_sub,
    linf_dist,
    linf_lipschitz_constant,
    make_rule,
    planar_demo,
    planar_field,
    semigroup_check,
    stirring_rule,
    triangle_removal_rule,
    two_block,
    velocity,
)
import flipflow.trajectory as trajectory_module
from flipflow.integrators import _DP_A, _RK4_DENSE, integrate_span
from flipflow.stepfun import VALUE_BAND
from flipflow.trajectory import (
    CIRCLE_CENTER, CIRCLE_RADIUS, DEFAULT_OPTS, FIELD_GAIN, _start,
)

from conftest import raises_exactly, random_graphon, random_rule, scalar_fixed_points

ER = erdos_renyi_rule()
TR = triangle_removal_rule()
EXT3 = extremist_rule(3)


def test_flow_closed_form_er():
    for t in (0.25, 0.5, 1.0, 2.0):
        w = flow_at(ER, constant(0.0), t)
        assert w.values[0, 0] == pytest.approx(1 - math.exp(-2 * t), abs=1e-8)


def test_flow_closed_form_tr():
    for t in (0.5, 1.0, 5.0):
        w = flow_at(TR, constant(1.0), t)
        assert w.values[0, 0] == pytest.approx((1 + 12 * t) ** -0.5, abs=1e-8)


def test_flow_at_zero_is_identity():
    w0 = two_block((0.4, 0.6), 0.2, 0.8, 0.5)
    assert flow_at(EXT3, w0, 0.0) is w0


def test_complementing_checkpoints_match_linear_solution():
    k = 3
    rule = complementing_rule(k)
    rate = 2 * k * (k - 1)
    for d0 in (0.15, 0.8):
        traj = integrate(rule, constant(d0), 1.0, checkpoint_times=np.linspace(0, 1, 6))
        for t, w in traj.checkpoints:
            exact = 0.5 + (d0 - 0.5) * math.exp(-rate * t)
            assert w.values[0, 0] == pytest.approx(exact, abs=1e-8)


def test_extremist_trajectory_stays_in_symmetric_two_block_class():
    w0 = two_block((0.5, 0.5), 0.95, 0.95, 0.18)
    traj = integrate(EXT3, w0, 1.4, checkpoint_times=np.arange(0.0, 1.5, 0.2))
    for _t, w in traj.checkpoints:
        assert abs(w.values[0, 0] - w.values[1, 1]) <= 1e-10
    assert traj.stats.max_excursion <= 1e-9


def test_band_is_asserted_not_clamped():
    traj = integrate(ER, constant(0.0), 3.0)
    for _t, w in traj.checkpoints:
        assert w.values.min() >= -VALUE_BAND
        assert w.values.max() <= 1 + VALUE_BAND
    with pytest.raises(ValueError):
        IntegratorOptions(rtol=-1.0)
    with pytest.raises(ValueError):
        IntegratorOptions(method="rk4_fixed")  # missing step


@pytest.mark.parametrize(
    "bad", [{"rtol": math.nan}, {"atol": math.inf}, {"method": "rk4_fixed", "step": math.inf}]
)
def test_integrator_options_reject_non_finite_values(bad):
    with pytest.raises(NonFiniteValueError):
        IntegratorOptions(**bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_integrate_and_flow_at_reject_non_finite_times(bad):
    with pytest.raises(NonFiniteValueError):
        integrate(ER, constant(0.2), bad)
    with pytest.raises(NonFiniteValueError):
        flow_at(ER, constant(0.2), bad)
    with pytest.raises(NonFiniteValueError, match="t_end must be finite"):
        planar_demo((0.25, 0.8), bad)


def test_rhs_rejects_states_outside_the_band_and_nan():
    # a flow's right-hand side is its plan: the band is [-0.5, 1.5], both
    # ends included, on the support sum (extremist:3) and the two-stage
    # sum (ignorant-uniform:3); the message names the band and the range
    low, high = np.nextafter(-0.5, -np.inf), np.nextafter(1.5, np.inf)
    for rule in (EXT3, make_rule("ignorant-uniform:3")):
        f = VelocityPlan(rule, [0.4, 0.6])
        for good in ([0.2, 0.5, 0.9], [-0.5, 0.5, 1.5], [-0.5, -0.5, -0.5], [1.5, 1.5, 1.5]):
            assert np.all(np.isfinite(f(np.array(good)))), good
        for bad in (low, high, np.nan, np.inf, -np.inf, 1.6, -0.6):
            state = np.array([0.2, bad, 0.9])
            message = f"outside [-0.5, 1.5]: range [{state.min()}, {state.max()}]"
            with pytest.raises(IntegrationFaultError, match=re.escape(message)):
                f(state)


@pytest.mark.parametrize(
    "opts", [IntegratorOptions(), IntegratorOptions(method="rk4_fixed", step=0.01)]
)
def test_the_integrator_raises_when_a_state_leaves_the_band(opts):
    # y = 0.5 - t leaves [0, 1] at t = 0.5; no state is clamped back
    with pytest.raises(IntegrationFaultError, match=r"left the \[0,1\] band"):
        integrate_span(lambda y: -np.ones_like(y), [0.5], 0.0, 1.0, opts, band=True)


def test_integrate_and_semigroup_check_reject_bad_times():
    with pytest.raises(ValueError, match="integrate records forward trajectories"):
        integrate(ER, constant(0.2), -0.5)
    for times in ([-0.1, 0.5], [0.5, 1.5]):
        with pytest.raises(ValueError, match=r"checkpoint times must lie in \[0, t_end\]"):
            integrate(ER, constant(0.2), 1.0, times)
    for t, u in ((-0.1, 0.5), (0.5, -0.1)):
        with pytest.raises(ValueError, match="semigroup check uses non-negative times"):
            semigroup_check(ER, constant(0.2), t, u)


def test_a_nan_error_estimate_ends_in_the_underflow_fault():
    # a field that turns NaN past 0.5: the step shrinks there instead of growing without end
    with pytest.raises(IntegrationFaultError, match="underflow"):
        integrate_span(lambda y: np.where(y > 0.5, np.nan, 1.0), [0.0], 0.0, 1.0, DEFAULT_OPTS)


def test_semigroup():
    assert semigroup_check(ER, constant(0.3), 0.0, 0.5) <= 1e-9
    assert semigroup_check(ER, constant(0.0), 0.3, 0.3) <= 1e-8
    assert semigroup_check(TR, constant(1.0), 0.4, 0.6) <= 1e-8
    w0 = two_block((0.5, 0.5), 0.95, 0.95, 0.18)
    assert semigroup_check(EXT3, w0, 0.5, 0.5) <= 1e-8


def test_backward_forward_inversion():
    for rule in (ER, TR, EXT3):
        for w0 in (constant(0.5), two_block((0.4, 0.6), 0.3, 0.7, 0.5)):
            fwd = flow_at(rule, w0, 1.0)
            back = flow_at(rule, fwd, -1.0)
            assert linf_dist(back, w0) <= 1e-8


def test_backward_age_er():
    res = backward_age(ER, constant(1 - math.exp(-2)))
    assert not res.exceeded
    assert res.age == pytest.approx(1.0, abs=1e-6)
    assert abs(res.origin.values[0, 0]) <= 1e-6


def test_backward_age_boundary_and_fixed_points():
    # starting on the boundary with outward backward motion: age zero
    res = backward_age(TR, constant(1.0))
    assert res.age == 0.0 and res.origin.values[0, 0] == 1.0
    # stationary states never leave the space
    res = backward_age(ER, constant(1.0), max_age=4.0)
    assert res.exceeded


def test_age_upper_semicontinuity_probe():
    base = 1 - math.exp(-2)
    age_limit = backward_age(ER, constant(base)).age
    for delta in (1e-2, 1e-3, 1e-4):
        age = backward_age(ER, constant(base - delta)).age
        assert age <= age_limit + 1e-6


def test_find_destination():
    res = find_destination(ER, constant(0.25))
    assert res.converged
    assert res.graphon.values[0, 0] == pytest.approx(1.0, abs=1e-6)
    uniform = np.full(8, 1 / 8)
    res = find_destination(ignorant_rule(3, uniform), two_block((0.5, 0.5), 0.9, 0.1, 0.3))
    assert res.converged
    assert np.allclose(res.graphon.values, 0.5, atol=1e-6)
    w0 = two_block((0.5, 0.5), 0.9, 0.1, 0.4)
    res = find_destination(stirring_rule(3, "firm"), w0)
    assert res.converged
    assert np.allclose(res.graphon.values, w0.edge_density(), atol=1e-6)
    # destinations have (numerically) zero velocity
    assert res.velocity_residual <= 1e-8


def test_find_destination_reports_non_convergence():
    res = find_destination(ER, constant(0.0), eps_vel=1e-12, eps_move=1e-13, t_max=1.0)
    assert not res.converged
    assert res.graphon is not None
    # the residual is the velocity 2 (1 - W) at the state reached, W = 1 - e^-2
    assert res.t_reached == 1.0
    assert res.velocity_residual == pytest.approx(2 * math.exp(-2), abs=1e-9)
    with pytest.raises(ValueError, match="t_max"):
        find_destination(ER, constant(0.0), t_max=float("nan"))


def test_constant_fixed_points():
    assert constant_fixed_points(ER) == [1.0]
    assert constant_fixed_points(TR) == [0.0]
    for k in (3, 4, 5):
        roots = constant_fixed_points(extremist_rule(k))
        for want in (0.0, 0.5, 1.0):
            assert any(abs(r - want) <= 1e-8 for r in roots)
    for builder in BUILTIN_RULES.values():
        assert constant_fixed_points(builder())  # non-empty


def _alternating_rule() -> Rule:
    """k = 3: the mean edge change from 0, 1, 2, 3 edges alternates in
    sign, so three roots lie inside (0, 1), none on a grid."""
    rows = {0: [(0, 0.7), (1, 0.3)], 7: [(3, 0.1), (7, 0.9)]}
    rows.update({f: [(0, 0.5), (f, 0.5)] for f in (1, 2, 4)})
    rows.update({f: [(f, 0.6), (7, 0.4)] for f in (3, 5, 6)})
    return Rule.from_row_map(3, rows)


@pytest.mark.parametrize("grid_n", [2, 7, 1001])
def test_constant_fixed_points_equal_the_scalar_scan(grid_n):
    rng = np.random.default_rng(16)
    rules = [builder() for builder in BUILTIN_RULES.values()]
    rules += [random_rule(rng, k) for k in (2, 3, 3, 4)]
    rules += [ignorant_rule(2, [2 / 3, 1 / 3]), _alternating_rule()]
    for rule in rules:
        assert constant_fixed_points(rule, grid_n=grid_n) == scalar_fixed_points(rule, grid_n)


def test_an_off_grid_fixed_point_is_bisected():
    # keeping the edge with probability 1/3 whatever was drawn: V(d) = 2 (1/3 - d)
    roots = constant_fixed_points(ignorant_rule(2, [2 / 3, 1 / 3]))
    assert len(roots) == 1 and abs(roots[0] - 1 / 3) <= 1e-10
    assert 1 / 3 not in np.linspace(0.0, 1.0, 1001)
    assert len(constant_fixed_points(_alternating_rule())) == 3


def test_genome_check():
    # the cut distance between two flows grows at most like exp(C t), C = cut_lipschitz_constant(k)
    def growth(rule, u0, w0, t):
        d0 = cut_norm_exact(kernel_sub(u0, w0))
        return cut_norm_exact(kernel_sub(flow_at(rule, u0, t), flow_at(rule, w0, t))) / d0

    t = 0.7
    ratio = growth(ER, constant(0.2), constant(0.6), t)
    assert ratio == pytest.approx(math.exp(-2 * t), abs=1e-6)
    assert ratio <= math.exp(cut_lipschitz_constant(2) * t)
    u0 = two_block((0.5, 0.5), 0.95, 0.95, 0.18)
    w0 = two_block((0.5, 0.5), 0.95, 0.95, 0.15)
    assert growth(EXT3, u0, w0, 1.4) <= math.exp(cut_lipschitz_constant(3) * 1.4)


def test_time_lipschitz_along_checkpoints(rng):
    for builder in (erdos_renyi_rule, triangle_removal_rule, lambda: extremist_rule(3)):
        rule = builder()
        k2 = rule.k * (rule.k - 1)
        w0 = random_graphon(rng, 2)
        traj = integrate(rule, w0, 1.0, checkpoint_times=np.linspace(0, 1, 5))
        pts = traj.checkpoints
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                ti, wi = pts[i]
                tj, wj = pts[j]
                assert linf_dist(wi, wj) <= k2 * abs(tj - ti) + 1e-9


def test_first_order_accuracy_of_velocity(rng):
    for builder in (erdos_renyi_rule, triangle_removal_rule, lambda: extremist_rule(3)):
        rule = builder()
        k = rule.k
        bound_const = linf_lipschitz_constant(k) * k * (k - 1)
        w0 = random_graphon(rng, 2)
        vel = velocity(rule, w0)
        for delta in (1e-2, 1e-3):
            w1 = flow_at(rule, w0, delta)
            diff = (w1.values - w0.values) / delta
            assert np.max(np.abs(diff - vel.values)) <= bound_const * delta + 1e-9


def test_positivity_preservation(rng):
    for builder in (erdos_renyi_rule, triangle_removal_rule, lambda: extremist_rule(3)):
        rule = builder()
        k2 = rule.k * (rule.k - 1)
        w0 = random_graphon(rng, 2)
        for t in (0.5, 1.5, 3.0):
            wt = flow_at(rule, w0, t).values
            fade = math.exp(-k2 * t)
            assert np.all(wt >= fade * w0.values - 1e-9)
            assert np.all(1 - wt >= fade * (1 - w0.values) - 1e-9)


def test_step_structure_survives(rng):
    # distinct part rows at time zero stay distinct along the flow
    for builder in (triangle_removal_rule, lambda: extremist_rule(3)):
        rule = builder()
        masses = np.array([0.3, 0.3, 0.4])
        vals = rng.random((3, 3))
        vals = (vals + vals.T) / 2
        w0 = StepGraphon(masses, vals)
        rows0 = w0.values
        sep0 = min(
            np.max(np.abs(rows0[i] - rows0[j])) for i in range(3) for j in range(i + 1, 3)
        )
        assert sep0 > 1e-3  # generic start
        wt = flow_at(rule, w0, 1.0)
        sep = min(
            np.max(np.abs(wt.values[i] - wt.values[j]))
            for i in range(3)
            for j in range(i + 1, 3)
        )
        assert sep > 1e-6


def test_rk4_fixed_reproducible_and_consistent():
    opts = IntegratorOptions(method="rk4_fixed", step=1e-3)
    a = flow_at(ER, constant(0.0), 1.0, opts)
    b = flow_at(ER, constant(0.0), 1.0, opts)
    assert np.array_equal(a.values, b.values)
    assert a.values[0, 0] == pytest.approx(1 - math.exp(-2), abs=1e-10)


@pytest.fixture
def spans(monkeypatch):
    """The stats of every integrator span the trajectory module runs.

    Each span's RHS counter is checked against the calls it made.
    """
    seen = []
    run = trajectory_module.integrate_span

    def counted(f, *args, **kwargs):
        calls = []
        leg = run(lambda y: calls.append(y) or f(y), *args, **kwargs)
        assert leg.stats.rhs_evals == len(calls)
        seen.append(leg.stats)
        return leg

    monkeypatch.setattr(trajectory_module, "integrate_span", counted)
    return seen


@pytest.mark.parametrize("name", ["er", "extremist:3", "complementing:3"])
def test_checkpoints_cost_three_rhs_evaluations_per_step_read(spans, name):
    rule = make_rule(name)
    w0 = two_block((0.4, 0.6), 0.2, 0.8, 0.5)
    t_end = 1.0
    times = np.linspace(0, t_end, 5)  # 3 interior checkpoints
    traj = integrate(rule, w0, t_end, checkpoint_times=times)
    flow_at(rule, w0, t_end)
    assert len(spans) == 2
    along, direct = spans
    assert along.accepted == direct.accepted and along.rejected == direct.rejected
    # a step read strictly inside evaluates DOP853's three extra stages once
    extra = along.rhs_evals - direct.rhs_evals
    assert traj.stats.rhs_evals == along.rhs_evals and direct.rhs_evals > 0
    assert extra % 3 == 0 and 3 <= extra <= 3 * 3


def test_backward_age_bisects_on_one_span(spans):
    res = backward_age(ER, constant(1 - math.exp(-2)))
    assert res.age == pytest.approx(1.0, abs=1e-6)
    assert len(spans) == 1
    assert spans[0].rhs_evals <= 150


def test_rk4_fixed_checkpoints_between_grid_points():
    opts = IntegratorOptions(method="rk4_fixed", step=0.007)  # 143 steps to t = 1
    times = np.linspace(0.0, 1.0, 11)
    a = integrate(ER, constant(0.0), 1.0, checkpoint_times=times, opts=opts)
    b = integrate(ER, constant(0.0), 1.0, checkpoint_times=times, opts=opts)
    assert a.stats.accepted == 143 and a.stats.rhs_evals == 4 * 143
    for (t, wa), (_, wb) in zip(a.checkpoints, b.checkpoints):
        assert np.array_equal(wa.values, wb.values)
        assert wa.values[0, 0] == pytest.approx(1 - math.exp(-2 * t), abs=1e-8)


def test_interpolated_checkpoints_match_flow_at_and_keep_linear_invariants():
    # DOP853's rows sum to its nodes (row 12 gives the solution, at c = 1) ...
    r6 = math.sqrt(6)
    nodes = [0, (12 - 2 * r6) / 135, (6 - r6) / 45, (6 - r6) / 30, (6 + r6) / 30, 1 / 3, 1 / 4, 4 / 13,
             127 / 195, 3 / 5, 6 / 7, 1, 1, 1 / 10, 1 / 5, 7 / 9]
    assert np.allclose(_DP_A.sum(axis=1), nodes, rtol=0, atol=1e-15)
    # ... and its extension meets the step's ends; at theta = 1 RK4's reduces to its weights
    f, y0 = _start(EXT3, two_block((0.5, 0.5), 0.95, 0.95, 0.18))
    steps = []
    integrate_span(f, y0, 0.0, 1.0, DEFAULT_OPTS, lambda step: steps.append(step) or True)
    step = steps[0]
    assert np.allclose(step._between(0.0), step.y0, rtol=0, atol=1e-15)
    assert np.allclose(step._between(1.0), step.y1, rtol=0, atol=1e-15)
    assert np.allclose(_RK4_DENSE.sum(axis=1), [1 / 6, 1 / 3, 1 / 3, 1 / 6], rtol=0, atol=1e-15)
    w0 = two_block((0.5, 0.5), 0.95, 0.95, 0.18)
    traj = integrate(EXT3, w0, 1.45, checkpoint_times=np.arange(0.05, 1.45, 0.1))
    for t, w in traj.checkpoints:
        assert linf_dist(w, flow_at(EXT3, w0, t)) <= 1e-9
    stirring = stirring_rule(3, "loose")
    w0 = two_block((0.3, 0.7), 0.9, 0.1, 0.4)
    traj = integrate(stirring, w0, 1.0, checkpoint_times=np.arange(0.05, 1.0, 0.1))
    for _t, w in traj.checkpoints:
        assert abs(w.edge_density() - w0.edge_density()) <= 1e-12


def test_planar_field_geometry():
    g_unit = planar_field((0.3, 0.8)) / FIELD_GAIN
    assert np.allclose(g_unit, [0.0, 1.0], atol=1e-12)
    # radial component vanishes exactly on the circle
    p = (CIRCLE_CENTER[0] + CIRCLE_RADIUS, CIRCLE_CENTER[1])
    f = planar_field(p) / FIELD_GAIN
    assert f[0] == pytest.approx(0.0, abs=1e-15)
    assert f[1] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        planar_field(CIRCLE_CENTER)


def test_planar_demo_converges_to_circle():
    trace = planar_demo((0.25, 0.8), t_end=5.0 / FIELD_GAIN, num_points=50)
    assert trace.final_radius() == pytest.approx(CIRCLE_RADIUS, abs=1e-3)


def test_planar_demo_reads_one_span(spans):
    trace = planar_demo((0.25, 0.8), 2000.0)
    assert len(spans) == 1 and spans[0].rhs_evals <= 100
    restarted = [trace.points[0]]
    for t0, t1 in zip(trace.times[:-1].tolist(), trace.times[1:].tolist()):
        restarted.append(integrate_span(planar_field, restarted[-1], t0, t1, DEFAULT_OPTS).y)
    assert np.abs(trace.points - np.array(restarted)).max() <= 1e-9


def test_an_unknown_integrator_method_is_named():
    with raises_exactly(ValueError, "unknown method 'euler'"):
        IntegratorOptions(method="euler")


@pytest.mark.parametrize("grid_n", [1, 0])
def test_constant_fixed_points_need_two_grid_points(grid_n):
    with raises_exactly(ValueError, "grid_n must be at least 2"):
        constant_fixed_points(ER, grid_n=grid_n)
