"""Shared helpers: random step functions and brute-force oracles.

The oracles here are deliberately independent of the library code paths
they check: densities enumerate assignments with itertools, cut norms
enumerate every subset pair, rooted densities multiply factors in plain
Python loops, pair coefficients walk every entry of each distinct row
(once per row object, which every F drawing that row shares), patterns
drawn by vertex tuples are read pair by pair, the velocity sums
its definition term by term, the Monte Carlo velocity draws its part
labels with `Generator.choice`, and block averages loop over ordered
vertex pairs.  Graph sampling has a reference that draws and writes one
row at a time into a bool matrix and mirrors it whole, and block counts an
integer count over the members of each pair of blocks.  The sequential
stepper replays the simulator's block draws one flip at a time, and the
drift oracle the drift harness's draws one sample at a time, both with
`bisect_right` on the replacement table.  The fixed-point scan evaluates
the velocity polynomial one grid point at a time and bisects one bracket
at a time.  `raises_exactly` expects one exception class itself, not a
subclass, with one message.
"""

import itertools
from bisect import bisect_right
from contextlib import contextmanager
from math import comb

import numpy as np
import pytest

from flipflow import LabeledGraph, Rule, SimGraph, StepGraphon, StepKernel, pair_list, velocity_poly
from flipflow.graphs import pair_position
from flipflow.simulate import _BLOCK
from flipflow.streams import substream


def random_graphon(rng: np.random.Generator, m: int) -> StepGraphon:
    masses = rng.dirichlet(np.ones(m))
    vals = rng.random((m, m))
    vals = (vals + vals.T) / 2
    return StepGraphon(masses, vals)


def random_kernel(rng: np.random.Generator, m: int, scale: float = 1.0) -> StepKernel:
    masses = rng.dirichlet(np.ones(m))
    vals = rng.normal(scale=scale, size=(m, m))
    vals = (vals + vals.T) / 2
    return StepKernel(masses, vals)


def random_graphon_pair(rng: np.random.Generator, m: int):
    """Two graphons on identical masses."""
    masses = rng.dirichlet(np.ones(m))
    out = []
    for _ in range(2):
        vals = rng.random((m, m))
        vals = (vals + vals.T) / 2
        out.append(StepGraphon(masses, vals))
    return out


def brute_density(pattern: LabeledGraph, w: StepKernel, induced: bool) -> float:
    """Assignment enumeration with plain Python products."""
    k, m = pattern.k, w.m
    pairs = pair_list(k)
    total = 0.0
    for assign in itertools.product(range(m), repeat=k):
        weight = 1.0
        for part in assign:
            weight *= w.masses[part]
        prob = 1.0
        for p, (a, b) in enumerate(pairs):
            v = w.values[assign[a], assign[b]]
            if pattern.edges >> p & 1:
                prob *= v
            elif induced:
                prob *= 1.0 - v
        total += weight * prob
    return total


def brute_rooted(pattern, roots, parts, w, induced=True) -> float:
    """Rooted density by enumeration over the free vertices."""
    k, m = pattern.k, w.m
    a, b = roots
    free = [v for v in range(k) if v not in roots]
    pairs = pair_list(k)
    total = 0.0
    for free_assign in itertools.product(range(m), repeat=len(free)):
        assign = [None] * k
        assign[a], assign[b] = parts
        for v, part in zip(free, free_assign):
            assign[v] = part
        weight = 1.0
        for part in free_assign:
            weight *= w.masses[part]
        prob = 1.0
        for p, (u, v) in enumerate(pairs):
            val = w.values[assign[u], assign[v]]
            if pattern.edges >> p & 1:
                prob *= val
            elif induced:
                prob *= 1.0 - val
        total += weight * prob
    return total


def random_rule(rng: np.random.Generator, k: int, active: float = 1.0) -> Rule:
    """Row-stochastic rule; a share `active` of rows move, the rest idle.

    A moving row puts Dirichlet weights on one to three random graphs.
    """
    ngraphs = 1 << comb(k, 2)
    rows = []
    for f in range(ngraphs):
        if rng.random() >= active:
            rows.append([(f, 1.0)])
            continue
        targets = rng.choice(ngraphs, size=int(rng.integers(1, min(3, ngraphs) + 1)), replace=False)
        probs = rng.dirichlet(np.ones(len(targets)))
        rows.append(list(zip(targets.tolist(), probs.tolist())))
    return Rule(k, rows)


def brute_pair_coefficients(rule) -> np.ndarray:
    """Signed pair coefficients by a loop over the (H, p) entries of each row.

    For an F without pair pos the coefficient is the sum of p over the
    entries whose H has the pair; for an F with it, 0.0 - p - p - ...
    over the entries whose H lacks it.  Neither sum depends on F beyond
    that bit, so each row object is walked once, in entry order.
    """
    npairs = comb(rule.k, 2)
    sums = {}  # id(row) -> [pos][bit of F at pos]
    coeff = np.zeros((rule.num_graphs, npairs))
    for f, row in enumerate(rule.rows):
        if id(row) not in sums:
            by_bit = [[0.0, 0.0] for _ in range(npairs)]
            for h, p in row:
                if p == 0.0:
                    continue
                for pos in range(npairs):
                    if h >> pos & 1:
                        by_bit[pos][0] += p
                    else:
                        by_bit[pos][1] -= p
            sums[id(row)] = by_bit
        for pos, pair_sums in enumerate(sums[id(row)]):
            coeff[f, pos] = pair_sums[f >> pos & 1]
    return coeff


def brute_velocity(rule, w: StepKernel) -> np.ndarray:
    """Velocity by its definition: over ordered root pairs (a, b) and
    patterns F, the pair coefficient times the rooted induced density of
    F with a, b pinned to the block's parts.  Every block is summed on
    its own, so symmetry is checked, not assumed.
    """
    k, m = rule.k, w.m
    coeff = brute_pair_coefficients(rule)
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            for a in range(k):
                for b in range(k):
                    if a == b:
                        continue
                    pos = pair_position(k, a, b)
                    for f in range(rule.num_graphs):
                        if coeff[f, pos] != 0.0:
                            pattern = LabeledGraph(k, f)
                            out[i, j] += coeff[f, pos] * brute_rooted(pattern, (a, b), (i, j), w)
    return out


def choice_monte_carlo(rule: Rule, w: StepGraphon, parts, samples: int, seed: int):
    """(estimate, stderr) of `velocity_monte_carlo` as it once drew them:
    per ordered root pair, the free labels by `Generator.choice` on the
    masses, the pair probabilities gathered column by column and the
    drawn bits packed by a matmul."""
    k, m = rule.k, w.m
    i, j = parts
    pairs = pair_list(k)
    npairs = len(pairs)
    bit_weights = 1 << np.arange(npairs, dtype=np.int64)
    per_sample = np.zeros(samples)
    for a in range(k):
        for b in range(k):
            if a == b:
                continue
            rng = substream(seed, "mc-velocity", i, j, a, b)
            labels = np.empty((samples, k), dtype=np.int64)
            labels[:, a] = i
            labels[:, b] = j
            free = [v for v in range(k) if v != a and v != b]
            if free:
                labels[:, free] = rng.choice(m, size=(samples, len(free)), p=w.masses)
            probs = np.empty((samples, npairs))
            for p, (u, v) in enumerate(pairs):
                probs[:, p] = w.values[labels[:, u], labels[:, v]]
            drawn = (rng.random((samples, npairs)) < probs) @ bit_weights
            replacement = rule.sample_replacements(drawn, rng.random(samples))
            root_bit = pair_position(k, a, b)
            per_sample += (replacement >> root_bit & 1) - (drawn >> root_bit & 1)
    stderr = float(per_sample.std(ddof=1) / np.sqrt(samples)) if samples > 1 else np.inf
    return float(per_sample.mean()), stderr


def brute_cut_norm(kern: StepKernel) -> float:
    """Full enumeration over all 4**m subset pairs."""
    m = kern.m
    weighted = np.outer(kern.masses, kern.masses) * kern.values
    best = 0.0
    for s_bits in range(1 << m):
        srows = [i for i in range(m) if s_bits >> i & 1]
        for t_bits in range(1 << m):
            tcols = [j for j in range(m) if t_bits >> j & 1]
            val = abs(weighted[np.ix_(srows, tcols)].sum()) if srows and tcols else 0.0
            best = max(best, val)
    return best


def brute_block_average(adj, labels) -> np.ndarray:
    """Block averages of a labelled graph by a loop over ordered vertex
    pairs: entry (i, j) counts the edges uv with u in block i and v in
    block j, as ordered pairs, over size(i) * size(j).
    """
    n = len(labels)
    num = max(labels) + 1
    sizes = [0] * num
    for lab in labels:
        sizes[lab] += 1
    counts = [[0] * num for _ in range(num)]
    for u in range(n):
        for v in range(n):
            if adj[u][v]:
                counts[labels[u]][labels[v]] += 1
    return np.array([[counts[i][j] / (sizes[i] * sizes[j]) for j in range(num)] for i in range(num)])


def reference_sample_graph(n: int, w: StepGraphon, rng: np.random.Generator):
    """(adjacency, part labels) of `sample_graph`, drawn as it once was:
    the labels, then for each row u the variates of the pairs uv, v > u,
    compared with the gathered block probabilities."""
    parts = rng.choice(w.m, size=n, p=w.masses)
    adj = np.zeros((n, n), dtype=bool)
    for u in range(n - 1):
        adj[u, u + 1 :] = rng.random(n - u - 1) < w.values[parts[u], parts[u + 1 :]]
    adj |= adj.T
    return adj.astype(np.uint8), parts.tolist()


def brute_block_counts(adj, labels, num_labels: int) -> np.ndarray:
    """Ordered block counts as integers: entry (i, j) sums the adjacency
    rows of the vertices labelled i over the columns labelled j."""
    labels = np.asarray(labels)
    counts = np.zeros((num_labels, num_labels), dtype=np.int64)
    for i in range(num_labels):
        rows = adj[labels == i].astype(np.int64)
        for j in range(num_labels):
            counts[i, j] = rows[:, labels == j].sum()
    return counts


def sequential_steps(rule: Rule, graph, seed: int, steps: int):
    """The simulator's `steps` flips from `graph`, one at a time.

    Each block of `_BLOCK` steps draws tuple column s from
    integers(0, n - s) on the "tuples" substream, each value skipping
    the earlier picks of its tuple in ascending order, and one variate
    per step from the "replace" substream.  Returns the final adjacency,
    its ordered block counts and its edge count.
    """
    n, k = graph.n, rule.k
    adj = graph.adj.tolist()
    tuple_rng, replace_rng = substream(seed, "tuples"), substream(seed, "replace")
    targets, cdf, starts = (a.tolist() for a in rule.replacement_table())
    pairs = list(enumerate(pair_list(k)))
    for step in range(steps):
        at = step % _BLOCK
        if at == 0:
            columns = [tuple_rng.integers(0, n - s, size=_BLOCK).tolist() for s in range(k)]
            variates = replace_rng.random(_BLOCK).tolist()
        tup = replay_tuple(columns, at)
        f = sum(adj[tup[a]][tup[b]] << p for p, (a, b) in pairs)
        r = rule.row_of[f]
        h = targets[bisect_right(cdf, variates[at], starts[r], starts[r + 1] - 1)]
        for p, (a, b) in pairs:
            adj[tup[a]][tup[b]] = adj[tup[b]][tup[a]] = h >> p & 1
    m = graph.num_parts
    counts = [[0] * m for _ in range(m)]
    for u, row in enumerate(adj):
        for v, bit in enumerate(row):
            counts[graph.part_of[u]][graph.part_of[v]] += bit
    return np.array(adj, dtype=np.uint8), counts, sum(map(sum, adj)) // 2


def replay_tuple(columns, at: int) -> list[int]:
    """Tuple `at` of the drawn columns: column s picks among the vertices
    the earlier columns left, skipping their picks in ascending order."""
    tup = []
    for column in columns:
        x = column[at]
        for pick in sorted(tup):
            x += x >= pick
        tup.append(x)
    return tup


def graph_from_edges(n: int, edges, part_of=None) -> SimGraph:
    """SimGraph on n vertices with the undirected `edges`."""
    adj = np.zeros((n, n), dtype=np.uint8)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1
    return SimGraph(n, adj, part_of)


def induced_pattern(graph, tup) -> LabeledGraph:
    """Pattern drawn by an ordered tuple of distinct vertices of a graph:
    bit p(a, b) is set iff tup[a] tup[b] is an edge."""
    bits = 0
    for p, (a, b) in enumerate(pair_list(len(tup))):
        if graph.adj[tup[a], tup[b]]:
            bits |= 1 << p
    return LabeledGraph(len(tup), bits)


def sequential_drift(rule: Rule, graph, parts, samples: int, seed: int):
    """(empirical, stderr) of `one_step_expectation_check`, one sample at a time.

    Draws tuple columns and then the variates from the ("drift", i, j)
    substream, reads each pattern with `induced_pattern`, and sums the
    scaled change of every pair inside block (i, j) in pair order.
    """
    i, j = parts
    n = graph.n
    rng = substream(seed, "drift", i, j)
    columns = [rng.integers(0, n - s, size=samples).tolist() for s in range(rule.k)]
    variates = rng.random(samples).tolist()
    targets, cdf, starts = (a.tolist() for a in rule.replacement_table())
    sizes = [graph.part_of.count(p) for p in range(graph.num_parts)]
    scale = 2.0 / (sizes[i] * sizes[i]) if i == j else 1.0 / (sizes[i] * sizes[j])
    pairs = list(enumerate(pair_list(rule.k)))
    deltas = []
    for at in range(samples):
        tup = replay_tuple(columns, at)
        f = induced_pattern(graph, tup).edges
        r = rule.row_of[f]
        h = targets[bisect_right(cdf, variates[at], starts[r], starts[r + 1] - 1)]
        delta = 0.0
        for p, (a, b) in pairs:
            if {graph.part_of[tup[a]], graph.part_of[tup[b]]} == {i, j}:
                delta += ((h >> p & 1) - (f >> p & 1)) * scale
        deltas.append(delta)
    # the mean and deviation as the harness reduces them
    deltas = np.array(deltas)
    n2 = n * (n - 1)
    return float(n2 * deltas.mean()), float(n2 * deltas.std(ddof=1) / np.sqrt(samples))


def scalar_eval_poly(poly, d: float) -> float:
    """De Casteljau in Bernstein form at one point."""
    b = poly.bernstein.astype(float).copy()
    for r in range(1, len(b)):
        b[: len(b) - r] = (1.0 - d) * b[: len(b) - r] + d * b[1 : len(b) - r + 1]
    return float(b[0])


def scalar_fixed_points(rule: Rule, grid_n: int = 1001, tol: float = 1e-10) -> list[float]:
    """Constant fixed points by a per-point scan, one bisection per sign
    change, and the merge of roots closer than 10 * tol."""
    poly = velocity_poly(rule)
    grid = np.linspace(0.0, 1.0, grid_n)
    vals = np.array([scalar_eval_poly(poly, d) for d in grid])
    roots = [float(d) for d, v in zip(grid, vals) if abs(v) < tol]
    for i in range(grid_n - 1):
        a, b = grid[i], grid[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if abs(fa) < tol or abs(fb) < tol or fa * fb > 0:
            continue
        while b - a > tol:
            mid = 0.5 * (a + b)
            fm = scalar_eval_poly(poly, mid)
            if fm == 0.0:
                a = b = mid
            elif fa * fm < 0:
                b, fb = mid, fm
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    roots.sort()
    merged: list[float] = []
    for r in roots:
        if not merged or r - merged[-1] > 10 * tol:
            merged.append(r)
    return merged


def graph_components(g: LabeledGraph) -> int:
    parent = list(range(g.k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in g.edge_pairs():
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in range(g.k)})


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@contextmanager
def raises_exactly(cls, message: str):
    """Expect an exception of class `cls` itself whose text is `message`."""
    with pytest.raises(cls) as err:
        yield
    assert type(err.value) is cls, type(err.value)
    assert str(err.value) == message, str(err.value)
