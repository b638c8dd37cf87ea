import tracemalloc
from itertools import permutations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipflow import (
    InvalidTupleError,
    NonFiniteValueError,
    ProcessState,
    Rule,
    SimGraph,
    StepGraphon,
    constant,
    erdos_renyi_rule,
    extremist_rule,
    make_rule,
    one_step_expectation_check,
    removal_rule,
    run,
    sample_graph,
    stepped,
    substream,
    transference_experiment,
    triangle_removal_rule,
    two_block,
    write_transference_csv,
)
from flipflow import LabeledGraph
from flipflow.rules import BUILTIN_RULES
from flipflow.simulate import _BLOCK, _distinct_tuples
from flipflow.stepfun import _TILE, block_counts, block_graphon

from conftest import (
    brute_block_average,
    graph_from_edges,
    induced_pattern,
    random_rule,
    raises_exactly,
    replay_tuple,
    sequential_drift,
    sequential_steps,
)

ER = erdos_renyi_rule()
TR = triangle_removal_rule()
EXT3 = extremist_rule(3)


def identity_rule(k):
    return Rule(k, [[(f, 1.0)] for f in range(1 << comb(k, 2))])


def test_er_first_step_from_empty_adds_one_edge():
    state = ProcessState(ER, SimGraph(12), seed=0)
    state.step_many(1)
    assert state.edge_total == 1
    assert state.step_count == 1


def test_triangle_free_start_is_absorbed():
    g = graph_from_edges(9, [(0, 1), (1, 2), (2, 3), (4, 5)])
    state = ProcessState(TR, g, seed=7)
    before = state.adj.copy()
    state.step_many(3000)
    assert np.array_equal(state.adj, before)


def test_step_many_rejects_a_negative_count_and_takes_zero_as_no_step():
    state = ProcessState(ER, SimGraph(10), seed=0)
    with pytest.raises(ValueError, match="-5"):
        state.step_many(-5)
    state.step_many(0)
    assert state.step_count == 0 and state.edge_total == 0


def test_trivial_rule_never_changes_the_graph():
    g = sample_graph(40, constant(0.4), substream(1, "init"))
    state = ProcessState(identity_rule(3), g, seed=5)
    before = state.adj.copy()
    state.step_many(1000)
    assert np.array_equal(state.adj, before)


def test_run_zero_steps_returns_initial_state_only():
    g = sample_graph(25, constant(0.5), substream(2, "init"))
    out = run(ER, g, total_steps=0, seed=3)
    assert len(out) == 1
    assert out[0][0] == 0
    assert np.allclose(out[0][1].values, stepped(g).values)


def test_run_rejects_a_checkpoint_beyond_total_steps():
    g = sample_graph(25, constant(0.5), substream(2, "init"))
    with pytest.raises(ValueError, match=r"checkpoints must lie in \[0, total_steps\]"):
        run(ER, g, total_steps=10, checkpoint_steps=[0, 11], seed=3)


def test_run_is_deterministic():
    g = sample_graph(60, constant(0.3), substream(4, "init"))
    a = ProcessState(TR, g, seed=11)
    b = ProcessState(TR, g, seed=11)
    a.step_many(4000)
    b.step_many(4000)
    assert np.array_equal(a.adj, b.adj)
    assert np.array_equal(a.block_counts, b.block_counts)
    c = ProcessState(TR, g, seed=12)
    c.step_many(4000)
    assert not np.array_equal(c.adj, a.adj)


def test_locality_of_single_steps():
    g = sample_graph(30, constant(0.5), substream(6, "init"))
    state = ProcessState(EXT3, g, seed=2)
    tuple_rng = substream(2, "tuples")
    columns = [tuple_rng.integers(0, 30 - s, size=_BLOCK).tolist() for s in range(3)]
    for step in range(200):
        before = SimGraph(state.n, state.adj, state.part_of)
        state.step_many(1)
        after = SimGraph(state.n, state.adj, state.part_of)
        drawn_tuple = replay_tuple(columns, step)
        tup = set(drawn_tuple)
        changed = {
            (u, v)
            for u in range(30)
            for v in range(u + 1, 30)
            if before.adj[u, v] != after.adj[u, v]
        }
        assert len(changed) <= comb(3, 2)
        for u, v in changed:
            assert u in tup and v in tup
        # the tuple's new pattern is the rule's target for its old one
        drawn = induced_pattern(before, drawn_tuple).edges
        assert induced_pattern(after, drawn_tuple).edges == EXT3.rows[drawn][0][0]


def test_monotone_rules_move_edge_counts_one_way():
    g = sample_graph(50, constant(0.5), substream(8, "init"))
    state = ProcessState(ER, g, seed=1)
    prev = state.edge_total
    for _ in range(500):
        state.step_many(1)
        assert state.edge_total >= prev
        prev = state.edge_total
    rule = removal_rule(LabeledGraph.from_edges(3, [(0, 1)]))
    state = ProcessState(rule, g, seed=1)
    prev = state.edge_total
    for _ in range(500):
        state.step_many(1)
        assert state.edge_total <= prev
        prev = state.edge_total


def test_incremental_counters_match_recount():
    g = sample_graph(80, two_block((0.5, 0.5), 0.7, 0.2, 0.4), substream(9, "init"))
    state = ProcessState(extremist_rule(3), g, seed=13)
    state.step_many(5000)
    now = SimGraph(state.n, state.adj, state.part_of)
    assert np.allclose(state.stepped().values, stepped(now).values, atol=1e-12)
    assert state.edge_total == int(now.adj.sum()) // 2


def three_part_graph():
    """Seeded graph on parts of 1, 6 and 9 vertices; part 1 is complete."""
    part_of = [2, 1, 0, 2, 1, 2, 1, 2, 1, 2, 1, 2, 2, 1, 2, 2]
    g = sample_graph(len(part_of), constant(0.4), substream(14, "init"))
    g.part_of = part_of
    members = np.flatnonzero(np.array(part_of) == 1)
    g.adj[np.ix_(members, members)] = 1 - np.eye(len(members), dtype=np.uint8)
    return g


def test_block_averages_equal_the_pair_loop():
    g = three_part_graph()
    w = stepped(g)
    assert np.array_equal(w.values, brute_block_average(g.adj, g.part_of))
    assert w.values[1, 1] == 1 - 1 / 6  # complete part
    assert w.values[0, 0] == 0.0  # one-vertex part
    state = ProcessState(extremist_rule(3), g, seed=4)
    state.step_many(3000)
    assert state.step_count == 3000
    assert np.array_equal(state.stepped().values, brute_block_average(state.adj, state.part_of))
    # merge the one-vertex part into the complete one; fine blocks 2 * part + half
    merged = ProcessState(state.rule, SimGraph(g.n, state.adj, [max(p, 1) - 1 for p in g.part_of]), seed=4)
    part_of = np.array(merged.part_of)
    halves = np.zeros(g.n, dtype=np.int64)
    rng = substream(15, "bisect")
    for p in range(2):
        members = np.flatnonzero(part_of == p)
        halves[members[rng.permutation(len(members))[: len(members) // 2]]] = 1
    labels = 2 * part_of + halves
    fine = block_graphon(block_counts(merged.adj, labels, 4), np.bincount(labels)).values
    assert np.array_equal(fine, brute_block_average(merged.adj, labels))


def test_one_step_drift_trivial_rule():
    g = sample_graph(100, constant(0.5), substream(10, "init"))
    chk = one_step_expectation_check(identity_rule(3), g, (0, 0), 2000, seed=1)
    assert chk.empirical == 0.0
    assert chk.exact == 0.0


def test_one_step_drift_matches_velocity():
    n = 500
    g = sample_graph(n, constant(0.3), substream(11, "init"))
    chk = one_step_expectation_check(ER, g, (0, 0), 100_000, seed=2)
    assert abs(chk.empirical - chk.exact) <= 4 * chk.stderr + 12 / n
    g = sample_graph(n, constant(0.8), substream(12, "init"))
    chk = one_step_expectation_check(TR, g, (0, 0), 100_000, seed=3)
    assert abs(chk.empirical - chk.exact) <= 4 * chk.stderr + 54 / n


@pytest.mark.parametrize("parts", [(0, 1), (1, 1)])
@pytest.mark.parametrize("name", ["triangle-removal", "extremist:5"])
def test_one_step_drift_equals_the_sequential_oracle(name, parts):
    rule = make_rule(name)
    g = sample_graph(60, two_block((0.4, 0.6), 0.7, 0.2, 0.5), substream(13, "init"))
    chk = one_step_expectation_check(rule, g, parts, 4000, seed=6)
    assert (chk.empirical, chk.stderr) == sequential_drift(rule, g, parts, 4000, 6)
    assert chk.samples == 4000


def test_transference_small_run_and_csv(tmp_path):
    report = transference_experiment(
        ER, constant(0.0), n=300, t_end=0.4, checkpoint_count=4, seed=5
    )
    assert report.times == pytest.approx([0.1, 0.2, 0.3, 0.4])
    assert all(d >= 0 for d in report.cut_dists)
    assert report.max_cut_dist() <= 0.05
    path = tmp_path / "report.csv"
    write_transference_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,cut_dist,l1_dist,sim_density,traj_density"
    assert len(lines) == 5


def test_transference_validations():
    with pytest.raises(ValueError):
        transference_experiment(ER, constant(0.0), n=50, t_end=0.5)
    with pytest.raises(ValueError):
        transference_experiment(ER, constant(0.0), n=200, t_end=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(NonFiniteValueError):
            transference_experiment(ER, constant(0.0), n=200, t_end=bad)


@pytest.mark.parametrize("masses", [(0.999, 0.001), (0.4995, 0.001, 0.4995)])
def test_a_part_that_draws_no_vertex_is_named(masses):
    # with seed 1, part 1 draws none of the 100 vertices: as the last part
    # and as a middle one
    w0 = StepGraphon(masses, np.full((len(masses),) * 2, 0.5))
    with raises_exactly(ValueError, "part 1 (mass 0.001) drew none of the n = 100 vertices"):
        transference_experiment(ER, w0, n=100, t_end=0.01, seed=1)


def test_a_sampled_run_holds_one_adjacency_buffer():
    # the state steps the sampled graph's own n^2 bytes; a copy would
    # double the peak
    n = 2000
    tracemalloc.start()
    try:
        transference_experiment(ER, constant(0.3), n=n, t_end=0.001, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n, peak / (n * n)


def test_simulator_draws_as_the_vectorised_sampler():
    # both rows draw a variate; row 0 sums to 0.6, so a variate of at least
    # 0.6 falls past its CDF to its last H
    rule = Rule(2, [[(0, 0.3), (1, 0.3)], [(0, 0.5), (1, 0.5)]])
    state = ProcessState(rule, SimGraph(2), seed=4)
    variates = substream(4, "replace").random(400)
    assert (variates >= 0.6).any()
    edge = 0
    for u in variates:
        edge = int(rule.sample_replacements(np.array([edge]), np.array([u]))[0])
        state.step_many(1)
        assert state.adj[0, 1] == edge


@pytest.mark.parametrize("name", ["er", "extremist:3", "extremist:5"])
def test_stepping_leaves_the_callers_graph_alone(name):
    g = sample_graph(60, two_block((0.4, 0.6), 0.7, 0.2, 0.4), substream(24, "init"))
    before = g.adj.copy()
    state = ProcessState(make_rule(name), g, seed=6)
    state.step_many(_BLOCK + 5)
    assert not np.array_equal(state.adj, before)
    assert np.array_equal(g.adj, before)


def test_process_needs_enough_vertices():
    with pytest.raises(ValueError):
        ProcessState(TR, SimGraph(2), seed=0)


def assert_same_state(state, oracle):
    adj, counts, edges = oracle
    assert np.array_equal(state.adj, adj)
    assert np.array_equal(state.block_counts, counts)
    assert state.edge_total == edges


@pytest.mark.parametrize("n", [12, 400])
@pytest.mark.parametrize("name", [*BUILTIN_RULES, "random:4"])
def test_batched_steps_equal_the_sequential_oracle(name, n):
    # at n = 12 nearly every step waits on the one before it
    rule = random_rule(np.random.default_rng(31), 4, active=0.7) if name == "random:4" else make_rule(name)
    g = sample_graph(n, two_block((0.5, 0.5), 0.7, 0.2, 0.4), substream(21, "init"))
    state = ProcessState(rule, g, seed=17)
    state.step_many(100_000)
    assert state.step_count == 100_000
    assert_same_state(state, sequential_steps(rule, g, 17, 100_000))


def test_any_split_of_the_steps_gives_the_same_state():
    g = sample_graph(40, two_block((0.3, 0.7), 0.6, 0.1, 0.5), substream(22, "init"))
    total = 4 * _BLOCK + 123
    whole = ProcessState(EXT3, g, seed=8)
    whole.step_many(total)
    rng = np.random.default_rng(9)
    split = ProcessState(EXT3, g, seed=8)
    for count in (_BLOCK - 1, 1, 0, _BLOCK):
        split.step_many(count)
    while split.step_count < total:
        if rng.random() < 0.3:
            split.step_many(1)
        else:
            split.step_many(min(int(rng.integers(0, 3000)), total - split.step_count))
    assert split.step_count == total
    assert_same_state(split, (whole.adj, whole.block_counts, whole.edge_total))
    assert_same_state(split, sequential_steps(EXT3, g, 8, total))


def test_reading_adj_between_calls_leaves_the_run_alone():
    g = sample_graph(40, two_block((0.3, 0.7), 0.6, 0.1, 0.5), substream(22, "init"))
    read, unread = ProcessState(EXT3, g, seed=8), ProcessState(EXT3, g, seed=8)
    for count in (1, 300, _BLOCK, 77):
        read.step_many(count)
        unread.step_many(count)
        assert not read.adj.diagonal().any()
    assert_same_state(read, (unread.adj, unread.block_counts, unread.edge_total))


@pytest.mark.parametrize("n", [_TILE - 1, _TILE, _TILE + 1])
def test_steps_write_one_entry_per_pair_and_adj_mirrors_it(n):
    g = sample_graph(n, two_block((0.4, 0.6), 0.7, 0.2, 0.4), substream(n, "init"))
    state = ProcessState(EXT3, g, seed=5)
    state.step_many(20_000)
    # every flip wrote its C(3, 2) pairs above the diagonal only
    assert np.array_equal(np.tril(state._flat.reshape(n, n)), np.tril(g.adj))
    adj = state.adj
    assert not adj.flags.writeable
    assert np.array_equal(adj, adj.T) and not adj.diagonal().any()
    assert_same_state(state, sequential_steps(EXT3, g, 5, 20_000))


@settings(max_examples=30, deadline=None, database=None)
@given(
    shape=st.integers(2, 4).flatmap(lambda k: st.tuples(st.just(k), st.integers(k, 12))),
    rule_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 10**6),
    counts=st.lists(st.integers(0, _BLOCK), min_size=1, max_size=3),
)
def test_batched_steps_equal_the_oracle_on_random_rules(shape, rule_seed, seed, counts):
    k, n = shape
    rng = np.random.default_rng(rule_seed)
    rule = random_rule(rng, k, active=float(rng.random()))
    g = sample_graph(n, constant(float(rng.random())), substream(seed, "init"))
    state = ProcessState(rule, g, seed)
    for count in counts:
        state.step_many(count)
    assert_same_state(state, sequential_steps(rule, g, seed, sum(counts)))


def test_tuple_draws_are_uniform_over_ordered_tuples():
    draws = _distinct_tuples(substream(23, "uniformity"), 5, 3, 60_000)
    seen, counts = np.unique(draws, axis=0, return_counts=True)
    assert seen.tolist() == [list(t) for t in permutations(range(5), 3)]
    chi2 = float(((counts - 1000.0) ** 2 / 1000.0).sum())
    assert chi2 < 98.32  # the 0.999 quantile of chi-square with 59 degrees of freedom


@pytest.mark.parametrize(
    "parts, samples, message",
    [
        ((-1, 0), 10, "cell (-1, 0) is not a pair of part indices in [0, 2)"),
        ((0.5, 0), 10, "cell (0.5, 0) is not a pair of part indices in [0, 2)"),
        ((2, 0), 10, "cell (2, 0) is not a pair of part indices in [0, 2)"),
        ((0, 1), 0, "samples must be an integer >= 1, got 0"),
        ((0, 1), 2.0, "samples must be an integer >= 1, got 2.0"),
    ],
)
def test_drift_check_rejects_a_cell_outside_the_parts(parts, samples, message):
    # (-1, 0) once returned empirical 0.0 next to the exact value of cell (1, 0)
    g = SimGraph(4, part_of=[0, 0, 1, 1])
    with raises_exactly(InvalidTupleError, message):
        one_step_expectation_check(ER, g, parts, samples)


def test_drift_check_takes_one_sample():
    g = sample_graph(20, constant(0.5), substream(14, "init"))
    assert one_step_expectation_check(ER, g, (0, 0), 1).stderr == np.inf


def test_drift_check_needs_both_parts_non_empty():
    g = SimGraph(4, part_of=[0, 0, 2, 2])  # part 1 holds no vertex
    with raises_exactly(ValueError, "parts (0, 1) must both be non-empty"):
        one_step_expectation_check(ER, g, (0, 1), 10)
