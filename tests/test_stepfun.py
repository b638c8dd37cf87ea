import itertools
import re
from math import comb

import numpy as np
import pytest

from flipflow import (
    ConfigError,
    GuardExceededError,
    LabeledGraph,
    MassMismatchError,
    NonFiniteValueError,
    SimGraph,
    StepGraphon,
    StepKernel,
    constant,
    cut_norm_exact,
    cut_norm_lower_bound,
    density,
    enumerate_graphs,
    induced_density,
    kernel_sub,
    l1_dist,
    linf_dist,
    load_graphon,
    sample_graph,
    save_graphon,
    stepped,
    substream,
    two_block,
)
from flipflow.stepfun import _TILE, block_counts

from conftest import (
    brute_block_counts,
    brute_cut_norm,
    brute_density,
    graph_from_edges,
    induced_pattern,
    raises_exactly,
    random_graphon,
    random_graphon_pair,
    random_kernel,
    reference_sample_graph,
)

EDGE2 = LabeledGraph.from_edges(2, [(0, 1)])
TRIANGLE = LabeledGraph.from_index(3, 0b111)


def test_constructors():
    c = constant(0.5)
    assert c.m == 1 and c.values[0, 0] == 0.5
    tb = two_block((0.5, 0.5), 0.95, 0.95, 0.18)
    assert tb.m == 2 and tb.values[0, 1] == 0.18
    with pytest.raises(ValueError):
        constant(1.5)
    with pytest.raises(ValueError):
        two_block((0.5, 0.5), -0.2, 0.5, 0.5)
    with pytest.raises(ValueError):
        StepGraphon([0.5, 0.6], np.zeros((2, 2)))  # masses exceed 1


def test_nan_mass_is_rejected():
    with pytest.raises(NonFiniteValueError):
        StepGraphon([np.nan, 1.0], [[0.5, 0.5], [0.5, 0.5]])


def test_infinite_kernel_value_is_rejected():
    with pytest.raises(NonFiniteValueError) as err:
        StepKernel([1.0], [[np.inf]])
    assert isinstance(err.value, ValueError)


def test_density_closed_forms():
    for d in (0.0, 0.3, 1.0):
        assert density(EDGE2, constant(d)) == pytest.approx(d, abs=1e-15)
        assert density(TRIANGLE, constant(d)) == pytest.approx(d**3, abs=1e-15)
    # only monochromatic assignments survive when the off-diagonal is 0
    tb = two_block((0.5, 0.5), 1.0, 1.0, 0.0)
    assert density(TRIANGLE, tb) == pytest.approx(0.25, abs=1e-14)
    one = constant(1.0)
    equivalent = two_block((0.5, 0.5), 1.0, 1.0, 1.0)
    for g in enumerate_graphs(3):
        assert density(g, one) == pytest.approx(density(g, equivalent), abs=1e-13)


def test_density_against_brute_force(rng):
    # every pattern up to order 3, seeded random ones of orders 4 and 5
    patterns = [g for k in (2, 3) for g in enumerate_graphs(k)]
    patterns += [LabeledGraph(k, int(rng.integers(1 << comb(k, 2)))) for k in (4, 4, 5, 5)]
    for m in (1, 2, 3):
        w = random_graphon(rng, m)
        for g in patterns:
            assert density(g, w) == pytest.approx(brute_density(g, w, False), abs=1e-12)
            assert induced_density(g, w) == pytest.approx(
                brute_density(g, w, True), abs=1e-12
            )


def test_elimination_against_brute_force_at_every_order(rng):
    # the last two vertices are eliminated by one matrix product, the rest
    # broadcast; the empty and complete patterns bound the factor counts
    cases = [(6, 2), (6, 3), (4, 4), (4, 5), (5, 4), (5, 5)] + [(k, 1) for k in range(2, 7)]
    for k, m in cases:
        w = random_graphon(rng, m)
        full = (1 << comb(k, 2)) - 1
        for e in [0, full, *rng.integers(full, size=2)]:
            g = LabeledGraph(k, int(e))
            assert density(g, w) == pytest.approx(brute_density(g, w, False), abs=1e-12)
            assert induced_density(g, w) == pytest.approx(
                brute_density(g, w, True), abs=1e-12
            )


def test_density_of_a_kernel_with_negative_values(rng):
    # a pair absent from a non-induced pattern contributes no factor
    for k, m in ((3, 4), (4, 3), (5, 3), (6, 2)):
        kern = random_kernel(rng, m, scale=0.5)
        assert (kern.values < 0).any()
        for e in rng.integers(1 << comb(k, 2), size=3):
            g = LabeledGraph(k, int(e))
            assert density(g, kern) == pytest.approx(brute_density(g, kern, False), abs=1e-12)


def test_density_guard():
    big = StepGraphon(np.full(40, 1 / 40), np.full((40, 40), 0.5))
    with pytest.raises(GuardExceededError):
        density(LabeledGraph.from_index(6, 0), big)


def test_cut_norm_exact_closed_forms():
    assert cut_norm_exact(StepKernel([1.0], [[0.0]])) == 0.0
    assert cut_norm_exact(StepKernel([1.0], [[-0.8]])) == pytest.approx(0.8)
    a = 0.6
    k = StepKernel([0.5, 0.5], [[a, -a], [-a, a]])
    val, (rows, cols) = cut_norm_exact(k, with_witness=True)
    assert val == pytest.approx(a / 4)
    weighted = np.outer(k.masses, k.masses) * k.values
    assert abs(weighted[np.ix_(rows, cols)].sum()) == pytest.approx(val)


def test_cut_norm_exact_against_brute_force(rng):
    for m in (1, 2, 3, 4, 5):
        for _ in range(4):
            k = random_kernel(rng, m)
            assert cut_norm_exact(k) == pytest.approx(brute_cut_norm(k), abs=1e-13)
    # the witness rectangle attains the value
    for m in range(1, 11):
        for _ in range(3):
            k = random_kernel(rng, m)
            val, (rows, cols) = cut_norm_exact(k, with_witness=True)
            weighted = np.outer(k.masses, k.masses) * k.values
            assert abs(abs(weighted[np.ix_(rows, cols)].sum()) - val) <= 1e-15


def test_cut_norm_guard():
    k = StepKernel(np.full(15, 1 / 15), np.zeros((15, 15)))
    with pytest.raises(GuardExceededError):
        cut_norm_exact(k)


def test_cut_norm_lower_bound(rng):
    assert cut_norm_lower_bound(StepKernel([1.0], [[0.0]]), 8, 0) == 0.0
    assert cut_norm_lower_bound(StepKernel([1.0], [[0.7]]), 8, 0) == pytest.approx(0.7)
    for m in (2, 4, 6, 8, 10):
        for trial in range(4):
            k = random_kernel(rng, m)
            exact = cut_norm_exact(k)
            lower = cut_norm_lower_bound(k, restarts=20 * m, seed=trial)
            assert lower <= exact + 1e-12
            assert lower == pytest.approx(exact, abs=1e-12)


def test_density_gaps_and_self_rectangle_bound(rng):
    for _ in range(5):
        u, w = random_graphon_pair(rng, int(rng.integers(2, 5)))
        cut = cut_norm_exact(kernel_sub(u, w))
        for k in (2, 3, 4):
            for f in enumerate_graphs(k):
                gap = abs(density(f, u) - density(f, w))
                assert gap <= f.edges.bit_count() * cut + 1e-12
        # the cut norm is at most twice the best S x S rectangle
        diff = kernel_sub(u, w)
        weighted = np.outer(diff.masses, diff.masses) * diff.values
        m = diff.m
        best_square = max(
            abs(weighted[np.ix_(s, s)].sum())
            for bits in range(1, 1 << m)
            for s in [[i for i in range(m) if bits >> i & 1]]
        )
        assert cut_norm_exact(diff) <= 2 * best_square + 1e-12


def test_distances():
    u = constant(0.25)
    w = constant(0.75)
    assert linf_dist(u, u) == 0.0
    assert l1_dist(u, w) == pytest.approx(0.5)
    assert linf_dist(u, w) == pytest.approx(0.5)
    assert cut_norm_exact(kernel_sub(u, w)) == pytest.approx(0.5)
    with pytest.raises(MassMismatchError):
        linf_dist(u, two_block((0.5, 0.5), 0.2, 0.2, 0.2))


def test_norm_ordering(rng):
    for _ in range(10):
        u, w = random_graphon_pair(rng, int(rng.integers(1, 6)))
        cut = cut_norm_exact(kernel_sub(u, w))
        l1 = l1_dist(u, w)
        linf = linf_dist(u, w)
        assert cut <= l1 + 1e-12
        assert l1 <= linf + 1e-12


def test_sample_graph_needs_a_vertex():
    with pytest.raises(ValueError, match="need at least one vertex"):
        sample_graph(0, constant(0.5), substream(5, "sample"))


def test_sample_graph_extremes_and_concentration():
    gen = substream(5, "sample")
    complete = sample_graph(40, constant(1.0), gen)
    assert complete.edge_count() == comb(40, 2)
    empty = sample_graph(40, constant(0.0), gen)
    assert empty.edge_count() == 0
    n = 1000
    g = sample_graph(n, constant(0.3), substream(7, "sample"))
    dens = g.edge_count() / comb(n, 2)
    sigma = (0.3 * 0.7 / comb(n, 2)) ** 0.5
    assert abs(dens - 0.3) <= 4 * sigma
    tb = two_block((0.3, 0.7), 0.9, 0.1, 0.5)
    g = sample_graph(500, tb, substream(8, "sample"))
    assert g.num_parts == 2
    counts = np.bincount(g.part_of)
    assert abs(counts[0] / 500 - 0.3) < 0.1


UNEQUAL = {  # unequal masses on m = 1, 2 and 3 parts
    1: constant(0.35),
    2: two_block((0.3, 0.7), 0.9, 0.1, 0.5),
    3: StepGraphon([0.2, 0.5, 0.3], [[0.9, 0.1, 0.4], [0.1, 0.6, 0.2], [0.4, 0.2, 0.05]]),
}


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 77])
def test_sample_graph_draws_as_the_row_loop(m, n):
    # one tile at n <= _TILE, then the mirror and the counts cross tile
    # and row-block boundaries
    g = sample_graph(n, UNEQUAL[m], substream(n, "init"))
    adj, parts = reference_sample_graph(n, UNEQUAL[m], substream(n, "init"))
    assert g.adj.dtype == np.uint8
    assert np.array_equal(g.adj, adj)
    assert g.part_of == parts
    counts = brute_block_counts(adj, parts, m)
    assert np.array_equal(block_counts(g.adj, g.part_of, m), counts)
    assert g.edge_count() == counts.sum() // 2


@pytest.mark.parametrize("num_labels", [1, 3])
def test_block_counts_of_a_complete_graph_are_exact(num_labels):
    # the float32 partial sums are largest here; with one label the count
    # n (n - 1) = 2 mod 4, above 2^25, is no float32 value
    n = 5795
    labels = np.arange(n) % num_labels
    adj = np.ones((n, n), dtype=np.uint8)
    np.fill_diagonal(adj, 0)
    sizes = np.bincount(labels)
    counts = block_counts(adj, labels, num_labels)
    assert counts.dtype == np.float64
    assert np.array_equal(counts, np.outer(sizes, sizes) - np.diag(sizes))
    assert np.array_equal(brute_block_counts(adj[:700, :700], labels[:700], num_labels),
                          block_counts(adj[:700, :700], labels[:700], num_labels))


FAR = 2 * _TILE + 60  # a vertex in the third tile


@pytest.mark.parametrize("defect", ["entry 2", "asymmetric pair", "diagonal 1"])
def test_sim_graph_rejects_a_defect_in_a_far_tile(defect):
    n = FAR + 10
    adj = sample_graph(n, constant(0.3), substream(30, "far")).adj
    SimGraph(n, adj)  # the sampled graph itself passes
    bad = adj.copy()
    if defect == "entry 2":
        bad[FAR, _TILE + 3] = bad[_TILE + 3, FAR] = 2
    elif defect == "asymmetric pair":
        bad[_TILE + 3, FAR] = 1 - bad[FAR, _TILE + 3]
    else:
        bad[FAR, FAR] = 1
    with pytest.raises(ValueError, match="^adjacency must be a symmetric 0/1 matrix with a zero diagonal$"):
        SimGraph(n, bad)


def test_sim_graph_rejects_a_wrong_shape_and_a_short_part_assignment():
    n = FAR + 10
    with pytest.raises(ValueError, match=re.escape(f"adjacency must be {n}x{n}, got ({n}, {n + 1})")):
        SimGraph(n, np.zeros((n, n + 1), dtype=np.uint8))
    with pytest.raises(ValueError, match="^part assignment must cover every vertex$"):
        SimGraph(n, np.zeros((n, n), dtype=np.uint8), part_of=[0] * (n - 1))


def test_stepped_conventions():
    n = 9
    g = SimGraph(n, 1 - np.eye(n, dtype=np.uint8), part_of=[0] * 4 + [1] * 5)
    w = stepped(g)
    assert w.values[0, 0] == pytest.approx(1 - 1 / 4)
    assert w.values[1, 1] == pytest.approx(1 - 1 / 5)
    assert w.values[0, 1] == pytest.approx(1.0)
    assert np.allclose(w.masses, [4 / 9, 5 / 9])
    empty = SimGraph(6, part_of=[0, 0, 0, 1, 1, 1])
    assert np.all(stepped(empty).values == 0.0)
    with pytest.raises(ValueError):
        stepped(SimGraph(3, part_of=[0, 0, 2]))


def test_stepped_concentration():
    n = 2000
    g = sample_graph(n, two_block((0.5, 0.5), 0.5, 0.5, 0.5), substream(11, "s"))
    w = stepped(g)
    assert np.all(np.abs(w.values - 0.5) < 0.01)


def test_stepped_respects_target_masses():
    g = sample_graph(400, two_block((0.5, 0.5), 0.7, 0.2, 0.4), substream(12, "s"))
    w = stepped(g, target_masses=(0.5, 0.5))
    assert np.allclose(w.masses, [0.5, 0.5])


def test_discrete_error_bound():
    # vertex-level graphon representation vs exact induced pattern
    # frequencies over ordered tuples of distinct vertices
    n, k = 24, 3
    g = sample_graph(n, constant(0.5), substream(21, "s"))
    g.part_of = list(range(n))  # one part per vertex
    w = stepped(g)
    counts = {f: 0 for f in range(8)}
    for tup in itertools.permutations(range(n), k):
        counts[induced_pattern(g, tup).edges] += 1
    total = n * (n - 1) * (n - 2)
    for f in enumerate_graphs(k):
        exact = counts[f.edges] / total
        approx = induced_density(f, w)
        assert abs(approx - exact) <= comb(k, 2) / n + 1e-12


def test_graphon_file_round_trip(tmp_path):
    w = two_block((0.25, 0.75), 0.9, 0.1, 0.3)
    path = tmp_path / "graphon.json"
    save_graphon(w, path)
    loaded = load_graphon(path)
    assert np.allclose(loaded.masses, w.masses)
    assert np.allclose(loaded.values, w.values)
    bad = tmp_path / "bad.json"
    bad.write_text('{"masses": [0.5, 0.5], "values": [[2.0, 0.1], [0.1, 0.2]]}')
    with pytest.raises(ValueError):
        load_graphon(bad)
    for text, key in (("{}", "masses"), ("[1, 2]", "masses"), ('{"masses": [1.0], "values": "x"}', "values")):
        bad.write_text(text)
        with pytest.raises(ConfigError, match=f"{re.escape(str(bad))}.*'{key}'"):
            load_graphon(bad)


def test_sim_graph_adjacency():
    g = graph_from_edges(4, [(0, 2), (3, 1)], part_of=[0, 0, 1, 1])
    assert g.adj.dtype == np.uint8
    assert g.adj[2, 0] and g.adj[1, 3] and not g.adj[0, 1]
    assert g.edge_count() == 2
    h = SimGraph(4, g.adj, g.part_of)  # a given adjacency is copied
    h.adj[0, 2] = h.adj[2, 0] = 0
    assert g.adj[0, 2] and not h.adj[0, 2]
    for bad in ([[0, 1], [0, 0]], [[1, 0], [0, 0]], [[0, 2], [2, 0]], [[0]]):
        with pytest.raises(ValueError):
            SimGraph(2, bad)


@pytest.mark.parametrize(
    "masses, values, message",
    [
        ([], np.zeros((0, 0)), "masses must be a non-empty 1-d sequence"),
        ([[0.5, 0.5]], np.zeros((2, 2)), "masses must be a non-empty 1-d sequence"),
        ([1.0, 0.0], np.zeros((2, 2)), "all part masses must be positive"),
        ([1.5, -0.5], np.zeros((2, 2)), "all part masses must be positive"),
        ([0.5, 0.5], np.zeros((3, 3)), "values must be 2x2, got (3, 3)"),
        ([0.5, 0.5], [[0.0, 0.2], [0.3, 0.0]], "value matrix must be symmetric"),
    ],
)
def test_malformed_step_functions_are_named(masses, values, message):
    for cls in (StepGraphon, StepKernel):
        with raises_exactly(ValueError, message):
            cls(masses, values)
