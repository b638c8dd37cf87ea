import gc
import sys
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipflow import (
    GuardExceededError,
    IntegrationFaultError,
    Rule,
    StepGraphon,
    VelocityPlan,
    complementing_rule,
    component_completion_rule,
    constant,
    cut_lipschitz_constant,
    cut_norm_exact,
    erdos_renyi_rule,
    eval_poly,
    extremist_rule,
    integrate,
    kernel_sub,
    linf_dist,
    linf_lipschitz_constant,
    removal_rule,
    stirring_rule,
    triangle_removal_rule,
    two_block,
    velocity,
    velocity_monte_carlo,
    velocity_poly,
)
from flipflow import BUILTIN_RULES, InvalidTupleError, LabeledGraph
from flipflow.rules import deltas
from flipflow.rules import make_rule
from flipflow.velocity import MULTISET_CACHE_BYTES, VELOCITY_GUARD, _averaged, _check_velocity_guard, _multisets, _pattern_form

from conftest import (
    brute_velocity,
    choice_monte_carlo,
    random_graphon,
    random_graphon_pair,
    random_rule,
    raises_exactly,
    scalar_eval_poly,
)

VELOCITY = sys.modules[VelocityPlan.__module__]


def identity_rule(k):
    return Rule(k, [[(f, 1.0)] for f in range(1 << comb(k, 2))])


def test_velocity_on_constants_closed_forms():
    tr = triangle_removal_rule()
    for d in (0.2, 0.5, 0.9):
        assert velocity(tr, constant(d)).values[0, 0] == pytest.approx(
            -6 * d**3, abs=1e-13
        )
    er = erdos_renyi_rule()
    for d in (0.0, 0.4, 1.0):
        assert velocity(er, constant(d)).values[0, 0] == pytest.approx(
            2 * (1 - d), abs=1e-13
        )
    for k in (2, 3, 4):
        rule = complementing_rule(k)
        for d in (0.1, 0.5, 0.8):
            assert velocity(rule, constant(d)).values[0, 0] == pytest.approx(
                k * (k - 1) * (1 - 2 * d), abs=1e-12
            )
        assert velocity(rule, constant(0.5)).values[0, 0] == pytest.approx(0.0, abs=1e-13)


def test_velocity_poly_forms():
    er_poly = velocity_poly(erdos_renyi_rule())
    tr_poly = velocity_poly(triangle_removal_rule())
    for d in (0.0, 0.25, 0.5, 0.9, 1.0):
        assert eval_poly(er_poly, d) == pytest.approx(2 - 2 * d, abs=1e-13)
        assert eval_poly(tr_poly, d) == pytest.approx(-6 * d**3, abs=1e-13)
    ext = velocity_poly(extremist_rule(3))
    for d in (0.0, 0.3, 0.5, 0.77, 1.0):
        assert eval_poly(ext, d) == pytest.approx(6 * d * (1 - d) * (2 * d - 1), abs=1e-13)


def test_eval_poly_on_an_array_is_bitwise_pointwise():
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 1001)
    rules = [builder() for builder in BUILTIN_RULES.values()] + [random_rule(rng, k) for k in (2, 3, 4)]
    for rule in rules:
        poly = velocity_poly(rule)
        vals = eval_poly(poly, grid)
        pointwise = [eval_poly(poly, float(d)) for d in grid]
        assert all(type(v) is float for v in pointwise)
        assert vals.tobytes() == np.array(pointwise).tobytes()
        assert vals.tobytes() == np.array([scalar_eval_poly(poly, d) for d in grid]).tobytes()
    assert eval_poly(poly, grid.reshape(7, 143)).tobytes() == vals.tobytes()


def test_poly_endpoint_signs():
    for builder in BUILTIN_RULES.values():
        rule = builder()
        poly = velocity_poly(rule)
        d = deltas(rule)
        assert eval_poly(poly, 0.0) == pytest.approx(2 * d[0], abs=1e-12)
        assert eval_poly(poly, 1.0) == pytest.approx(2 * d[-1], abs=1e-12)
        assert eval_poly(poly, 0.0) >= -1e-12
        assert eval_poly(poly, 1.0) <= 1e-12


def test_poly_matches_operator_on_grid():
    for name, builder in BUILTIN_RULES.items():
        rule = builder()
        poly = velocity_poly(rule)
        worst = max(
            abs(eval_poly(poly, float(d)) - velocity(rule, constant(float(d))).values[0, 0])
            for d in np.linspace(0.0, 1.0, 21)
        )
        assert worst <= 1e-12, name


def test_monte_carlo_trivial_rule_exact_zero():
    mc = velocity_monte_carlo(identity_rule(3), constant(0.4), (0, 0), 500, seed=1)
    assert mc.estimate == 0.0


def test_monte_carlo_needs_at_least_one_sample():
    with raises_exactly(InvalidTupleError, "samples must be an integer >= 1, got 0"):
        velocity_monte_carlo(identity_rule(3), constant(0.4), (0, 0), 0, seed=1)


@pytest.mark.parametrize("samples", [-3, 1.5, 2.0, "3"])
def test_monte_carlo_rejects_a_sample_count_that_is_not_a_positive_integer(samples):
    with raises_exactly(InvalidTupleError, f"samples must be an integer >= 1, got {samples!r}"):
        velocity_monte_carlo(identity_rule(3), constant(0.4), (0, 0), samples, seed=1)


@pytest.mark.parametrize("parts", [(-1, 0), (0, -1), (0.5, 0), (2, 0), (0, 2), (0, 0, 1)])
def test_monte_carlo_rejects_a_cell_outside_the_parts(parts):
    # on a 2-part graphon (-1, 0) once estimated cell (1, 0), (0.5, 0)
    # cell (0, 0), and (2, 0) raised a bare IndexError
    w = two_block((0.5, 0.5), 0.9, 0.9, 0.2)
    with raises_exactly(InvalidTupleError, f"cell {parts!r} is not a pair of part indices in [0, 2)"):
        velocity_monte_carlo(extremist_rule(3), w, parts, 100, seed=1)


def test_monte_carlo_is_the_choice_oracle_bit_for_bit():
    # labels compared with the mass CDF are the labels Generator.choice
    # draws from the same variates: random rules of order 2-5 on 1-6 parts
    # and on 17, diagonal and off-diagonal cells, several seeds
    rng = np.random.default_rng(29)
    cases = [(k, m) for k in range(2, 6) for m in range(1, 7)] + [(3, 17), (4, 17)]
    for k, m in cases:
        rule, w = random_rule(rng, k, 0.5), random_graphon(rng, m)
        for cell in {(0, 0), (m - 1, m - 1), (m - 1, 0), (0, m // 2)}:
            samples, seed = int(rng.integers(1, 200)), int(rng.integers(2**31))
            mc = velocity_monte_carlo(rule, w, cell, samples, seed)
            assert (mc.estimate, mc.stderr) == choice_monte_carlo(rule, w, cell, samples, seed), (k, m, cell)


def test_monte_carlo_matches_exact():
    tr = triangle_removal_rule()
    mc = velocity_monte_carlo(tr, constant(0.5), (0, 0), 100_000, seed=2)
    assert abs(mc.estimate + 0.75) <= 4 * mc.stderr
    ext = extremist_rule(3)
    w = two_block((0.5, 0.5), 0.95, 0.95, 0.18)
    exact = velocity(ext, w)
    for cell in ((0, 0), (0, 1), (1, 1)):
        mc = velocity_monte_carlo(ext, w, cell, 100_000, seed=3)
        assert abs(mc.estimate - exact.values[cell]) <= 4 * mc.stderr


def test_velocity_bounds(rng):
    for builder in BUILTIN_RULES.values():
        rule = builder()
        k2 = rule.k * (rule.k - 1)
        for _ in range(8):
            w = random_graphon(rng, int(rng.integers(1, 5)))
            vel = velocity(rule, w).values
            assert np.all(vel >= -k2 * w.values - 1e-10)
            assert np.all(vel <= k2 * (1 - w.values) + 1e-10)
            assert np.max(np.abs(vel)) <= k2 + 1e-10


def test_velocity_lipschitz(rng):
    for builder in (erdos_renyi_rule, triangle_removal_rule, lambda: extremist_rule(4)):
        rule = builder()
        c_cut = cut_lipschitz_constant(rule.k)
        c_inf = linf_lipschitz_constant(rule.k)
        for _ in range(6):
            u, w = random_graphon_pair(rng, int(rng.integers(2, 5)))
            vu, vw = velocity(rule, u), velocity(rule, w)
            cut_in = cut_norm_exact(kernel_sub(u, w))
            cut_out = cut_norm_exact(kernel_sub(vu, vw))
            assert cut_out <= c_cut * cut_in + 1e-12
            assert linf_dist(vu, vw) <= c_inf * linf_dist(u, w) + 1e-12


def test_twin_parts_have_identical_velocity_rows(rng):
    # parts 0 and 1 are twins: same mass and identical value rows
    masses = np.array([0.3, 0.3, 0.4])
    x, y, z = 0.7, 0.25, 0.6
    values = np.array([[x, x, y], [x, x, y], [y, y, z]])
    w = StepGraphon(masses, values)
    for builder in (triangle_removal_rule, lambda: extremist_rule(3), lambda: stirring_rule(3, "loose")):
        vel = velocity(builder(), w).values
        assert np.allclose(vel[0], vel[1], atol=1e-12)
        assert vel[0, 0] == pytest.approx(vel[1, 1], abs=1e-12)


def test_symmetric_two_block_class_is_closed():
    # diagonal-equal two-part graphons keep that shape under the velocity
    ext = extremist_rule(3)
    for x, y in ((0.95, 0.18), (0.3, 0.8), (0.5, 0.5)):
        vel = velocity(ext, two_block((0.5, 0.5), x, x, y)).values
        assert vel[0, 0] == pytest.approx(vel[1, 1], abs=1e-13)


def test_zero_block_stays_zero_for_non_bridging_rules():
    # rules that never add edges between components keep disconnected
    # blocks at zero velocity
    block_diag = two_block((0.5, 0.5), 0.7, 0.4, 0.0)
    for rule in (
        component_completion_rule(3),
        triangle_removal_rule(),
        removal_rule(LabeledGraph.from_edges(3, [(0, 1)])),
    ):
        vel = velocity(rule, block_diag).values
        assert vel[0, 1] == pytest.approx(0.0, abs=1e-13)


def test_multiset_cache_keeps_no_set_above_its_byte_bound():
    # (5, 30): 278,256 multisets of 45 8-byte entries, about 100 MB
    rule, flat = extremist_rule(5), StepGraphon(np.full(30, 1 / 30), np.full((30, 30), 0.4))
    assert comb(34, 5) * (5 + 4 * 10) * 8 > MULTISET_CACHE_BYTES
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        velocity(rule, flat)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held < 10 * 10**6
    # the largest set flows and the survey use, (4, 12), stays cached
    VelocityPlan(extremist_rule(4), np.full(12, 1 / 12))
    hits = _multisets.cache_info().hits
    VelocityPlan(extremist_rule(4), np.full(12, 1 / 12))
    assert _multisets.cache_info().hits == hits + 1


def test_velocity_guard():
    def flat(m):
        return StepGraphon(np.full(m, 1 / m), np.full((m, m), 0.5))

    # the guard prices each of the C(m+k-1, k) multisets k + 5 C(k,2)
    # elements (parts, cells, factors, weights and the two gather indices)
    # and one chunk of at most _CHUNK_ELEMS // row_elems multisets
    # row_elems each; the two-stage sum of extremist:5 holds the two
    # half-distributions (32 each) and the (32, 10) partial sum, 384 in
    # all, and first exceeds it at 47 parts, an idle order-6 rule (one
    # element, one chunk) at 30 parts
    ext4, ext5, idle6 = extremist_rule(4), extremist_rule(5), identity_rule(6)
    two_stage5 = _pattern_form(_averaged(ext5), True)
    assert two_stage5.row_elems == 32 + 32 + 32 * 10
    assert all(np.array_equal(a, b) for a, b in zip(VelocityPlan(ext5, [1.0])._bits, two_stage5.bits, strict=True))
    chunk5 = (1 << 23) // 384
    assert comb(50, 5) * 55 + chunk5 * 384 <= VELOCITY_GUARD < comb(51, 5) * 55 + chunk5 * 384
    assert comb(34, 6) * (1 + 81) <= VELOCITY_GUARD < comb(35, 6) * (1 + 81)
    _check_velocity_guard(5, 46, 384)
    _check_velocity_guard(6, 29, 1)
    for rule, m in ((ext5, 47), (ext5, 60), (ext4, 200), (idle6, 30)):
        with pytest.raises(GuardExceededError):
            velocity(rule, flat(m))
        with pytest.raises(GuardExceededError):
            integrate(rule, flat(m), 0.1)
    assert np.all(velocity(idle6, flat(6)).values == 0.0)
    assert integrate(idle6, flat(6), 0.1).checkpoints[-1][1].values[0, 0] == 0.5
    # at the largest part count the guard passes, for the cheapest
    # pattern sum of each order and its two-stage sum, the plan's arrays
    # (8-byte parts, pair arrays and one chunk of pattern-sum rows) fit
    # in 1 GiB; computed, not allocated
    for k in range(2, 7):
        npairs = comb(k, 2)
        low, high = 1 << npairs // 2, 1 << npairs - npairs // 2
        for row_elems in (1, low + high * (1 + npairs)):
            m = 1
            while True:
                try:
                    _check_velocity_guard(k, m + 1, row_elems)
                except GuardExceededError:
                    break
                m += 1
            rows = comb(m + k - 1, k)
            chunk = min(rows, max(1, (1 << 23) // row_elems))
            nbytes = 8 * (rows * (k + 5 * npairs) + chunk * row_elems)
            assert nbytes <= 1 << 30, (k, row_elems, m, nbytes)


def test_velocity_result_is_symmetric(rng):
    for _ in range(5):
        w = random_graphon(rng, 4)
        vel = velocity(extremist_rule(3), w).values
        assert np.array_equal(vel, vel.T)


FORMS = ("support", "two-stage")


def pattern_sum_path(rule, m):
    return FORMS[len(VelocityPlan(rule, np.full(m, 1.0 / m))._bits) - 1]


def forced_form(rule, form):
    """`rule`'s pattern-sum form `form`, built afresh."""
    return _pattern_form(_averaged(rule), form == "two-stage")


def force_form(monkeypatch, form):
    """Make every plan sum its patterns in `form`, built by the test."""
    monkeypatch.setattr(VELOCITY, "_pattern_table", lambda rule, rows: forced_form(rule, form))


def test_velocity_and_rhs_match_the_definition(rng, monkeypatch):
    # random rules of every builder order, each through both pattern sums,
    # 1-3 parts, and a graphon whose parts 0 and 1 are twins (equal masses
    # and value rows)
    twins = StepGraphon([0.3, 0.3, 0.4], [[0.7, 0.7, 0.25], [0.7, 0.7, 0.25], [0.25, 0.25, 0.6]])
    for k, active in ((2, 1.0), (3, 0.1), (3, 1.0), (4, 0.03), (4, 0.5), (5, 0.03)):
        rule = random_rule(rng, k, active)
        graphons = [random_graphon(rng, m) for m in (1, 2, 3)] + [twins]
        expects = [brute_velocity(rule, w) for w in graphons]
        for form in FORMS:
            force_form(monkeypatch, form)
            for w, expect in zip(graphons, expects):
                assert np.max(np.abs(velocity(rule, w).values - expect)) <= 1e-12, (k, w.m, form)
                plan = VelocityPlan(rule, w.masses)
                rhs = plan(plan.pack(w.values))
                assert np.max(np.abs(rhs - plan.pack(expect))) <= 1e-12, (k, w.m, form)


@pytest.mark.parametrize(
    "spec, m",
    [("extremist:3", 3), ("ignorant-uniform:3", 3), ("extremist:4", 3), ("complementing:4", 3), ("extremist:5", 2)],
)
def test_plans_split_into_chunks_agree_with_one_chunk(spec, m, rng, monkeypatch):
    # a smaller _CHUNK_ELEMS splits the 6-15 multisets into 2-5 chunks,
    # on each pattern sum
    rule = make_rule(spec)
    w = random_graphon(rng, m)
    expect = brute_velocity(rule, w)
    rows, one_chunk = comb(m + rule.k - 1, rule.k), VELOCITY._CHUNK_ELEMS
    for form in FORMS:
        force_form(monkeypatch, form)
        monkeypatch.setattr(VELOCITY, "_CHUNK_ELEMS", one_chunk)
        y = VelocityPlan(rule, w.masses).pack(w.values)
        whole = VelocityPlan(rule, w.masses)(y)
        row_elems = forced_form(rule, form).row_elems
        for chunks in (2, 3, 5):
            monkeypatch.setattr(VELOCITY, "_CHUNK_ELEMS", row_elems * -(-rows // chunks))
            plan = VelocityPlan(rule, w.masses)
            assert 2 <= len(plan._chunks) <= 5, (spec, form, chunks)
            assert np.max(np.abs(plan(y) - whole)) <= 1e-13, (spec, form, chunks)
            assert np.max(np.abs(plan.unpack(plan(y)) - expect)) <= 1e-12, (spec, form, chunks)


@pytest.mark.parametrize("k, m", [(2, 1), (2, 4), (3, 1), (3, 3), (4, 2), (4, 4), (5, 1), (5, 2)])
def test_a_stacked_call_is_the_call_on_each_state(k, m, rng, monkeypatch):
    # a (B, ncells) stack: random rules on random masses, each pattern sum,
    # one chunk or up to three, one group or groups of three states
    rule, masses, rows = random_rule(rng, k, 0.5), rng.dirichlet(np.ones(m)), comb(m + k - 1, k)
    stack = rng.random((10, m * (m + 1) // 2))
    for form in FORMS:
        force_form(monkeypatch, form)
        row_elems = forced_form(rule, form).row_elems
        for chunks in (1, 3):
            step = -(-rows // chunks)
            monkeypatch.setattr(VELOCITY, "_CHUNK_ELEMS", row_elems * step)
            for group in (10, 3):
                monkeypatch.setattr(VELOCITY, "_STACK_ELEMS", group * step * row_elems)
                plan = VelocityPlan(rule, masses)
                assert (len(plan._chunks), plan._group) == (-(-rows // step), group)
                expect = np.stack([plan(y) for y in stack])
                assert np.array_equal(plan(stack), expect), (form, chunks, group)
                assert np.array_equal(plan(stack[:1]), expect[:1]), (form, chunks, group)


def test_a_stacked_call_names_the_range_of_the_stack_outside_the_band():
    plan = VelocityPlan(extremist_rule(3), (0.5, 0.5))
    for bad, low, high in ((1.75, 0.25, 1.75), (-0.625, -0.625, 0.75), (np.nan, np.nan, np.nan)):
        stack = np.array([[0.25, 0.5, 0.75]] * 4)
        stack[2, 1] = bad
        with raises_exactly(IntegrationFaultError, f"velocity evaluated at a state outside [-0.5, 1.5]: range [{low}, {high}]"):
            plan(stack)


def test_each_built_in_rule_keeps_its_pattern_sum_path():
    # pins the choice between the support sum and the two-stage sum per
    # (rule, part count): every rule of order 3 sums over its support, one
    # of order 5 in two stages, and one of order 4 switches as the
    # multisets grow, extremist:4 (42 support rows of 64) after 4 parts
    # and the others, with 49-64 support rows, after 3
    first_two_stage = {"extremist:4": 5, "complementing:4": 4, "component-completion:4": 4, "stirring-loose:4": 4}
    extra = ["edge-removal", "complementing:3", "ignorant-uniform:3", *first_two_stage, "stirring-loose:5", "extremist:5"]
    for spec in list(BUILTIN_RULES) + sorted(set(extra) - set(BUILTIN_RULES)):
        rule = make_rule(spec)
        switch = {2: 17, 3: 17, 5: 1}.get(rule.k) or first_two_stage[spec]
        for m in (1, 2, 3, 4, 5, 6, 8, 12, 16):
            expect = "two-stage" if m >= switch else "support"
            assert pattern_sum_path(rule, m) == expect, (spec, m)


def test_a_rule_builds_a_pattern_sum_form_when_a_plan_first_picks_it():
    # extremist:4 sums over its 42 support rows up to 4 parts and in two
    # stages from 5; extremist:3 never takes the two-stage form, nor
    # extremist:5 the support form
    rule = make_rule("extremist:4")
    assert rule._pattern_tables is None
    plan = VelocityPlan(rule, np.full(2, 0.5))
    support_size, support, two_stage = rule._pattern_tables
    assert (support_size, two_stage) == (42, None)
    assert plan._table is support.table
    plan = VelocityPlan(rule, np.full(5, 0.2))
    assert rule._pattern_tables[1] is support
    assert plan._table is rule._pattern_tables[2].table
    assert VelocityPlan(rule, np.full(3, 1 / 3))._table is support.table
    for spec, unused in (("extremist:3", 2), ("extremist:5", 1)):
        rule = make_rule(spec)
        for m in (1, 2, 4, 8, 16):
            VelocityPlan(rule, np.full(m, 1.0 / m))
        assert rule._pattern_tables[unused] is None, spec


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(2, 4), st.integers(1, 6), st.floats(0.05, 1.0), st.integers(0, 2**32 - 1))
def test_both_pattern_sums_agree(k, m, active, seed):
    rng = np.random.default_rng(seed)
    rule, w = random_rule(rng, k, active), random_graphon(rng, m)
    y = VelocityPlan(rule, w.masses).pack(w.values)
    out = []
    for form in FORMS:
        with pytest.MonkeyPatch.context() as patch:
            force_form(patch, form)
            out.append(VelocityPlan(rule, w.masses)(y))
    assert np.max(np.abs(out[0] - out[1])) <= 1e-12
