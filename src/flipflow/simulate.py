"""Exact discrete-time simulation of flip processes.

Each step samples an ordered tuple of k distinct vertices by partial
Fisher-Yates over a persistent index array (uniform over ordered tuples,
O(k) per step), reads the induced pattern from a dense n x n byte
adjacency, takes a one-entry row's replacement directly or bisects the
row's segment of `Rule.replacement_table()` with one uniform variate,
and rewrites only the pairs inside the tuple.  Ordered block edge counts
(`stepfun.block_counts`) seed counters that each step keeps up to date,
so checkpoint summaries cost O(parts^2), not O(n^2).

Randomness comes from named substreams of a counter-based generator
keyed by (seed, purpose), so runs are bit-reproducible across platforms
regardless of how many draws each purpose consumes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import comb, floor, isfinite

import numpy as np

from .errors import NonFiniteValueError
from .graphs import pair_list
from .integrators import IntegratorOptions
from .rules import Rule
from .stepfun import (
    SimGraph,
    StepGraphon,
    StepKernel,
    block_counts,
    block_graphon,
    cut_norm_exact,
    l1_dist,
    sample_graph,
    stepped,
)
from .streams import substream
from .trajectory import DEFAULT_OPTS, integrate
from .velocity import velocity

_BLOCK = 1 << 15  # random numbers drawn per refill


class ProcessState:
    """Mutable simulation state confined to one worker.

    The step loop reads and writes a flat bytearray copy of the start
    graph's adjacency (entry u * n + v); `adj` is a read-only n x n view
    of the same buffer.  `block_counts[i][j]` counts the ordered vertex
    pairs (u, v) with u in part i, v in part j and uv an edge.
    """

    def __init__(self, rule: Rule, graph: SimGraph, seed: int):
        if graph.n < rule.k:
            raise ValueError(f"need at least k={rule.k} vertices, got {graph.n}")
        self.rule = rule
        self.seed = seed
        self.n = graph.n
        self._flat = bytearray(graph.adj.tobytes())
        self.adj = np.frombuffer(self._flat, dtype=np.uint8).reshape(self.n, self.n)
        self.adj.flags.writeable = False
        self.part_of = list(graph.part_of)
        self.num_parts = graph.num_parts
        self.step_count = 0
        self.last_tuple: tuple = ()

        m = self.num_parts
        self.part_sizes = np.bincount(self.part_of, minlength=m)
        self.block_counts = block_counts(self.adj, self.part_of, m).astype(np.int64).tolist()
        self.edge_total = graph.edge_count()

        # a one-entry row draws no uniform variate: single_target is its H, else -1
        self.single_target = [row[0][0] if len(row) == 1 else -1 for row in rule.rows]
        self._table = [a.tolist() for a in rule.replacement_table()]

        self._perm = list(range(self.n))
        self._tuple_rng = substream(seed, "tuples")
        self._replace_rng = substream(seed, "replace")
        self._tuple_blocks = [[] for _ in range(rule.k)]
        self._tuple_ptr = _BLOCK  # force refill on first use
        self._uniform_block = np.empty(0)
        self._uniform_ptr = 0

    # -- randomness ---------------------------------------------------

    def _refill_tuples(self):
        n, k = self.n, self.rule.k
        self._tuple_blocks = [
            self._tuple_rng.integers(0, n - s, size=_BLOCK).tolist() for s in range(k)
        ]
        self._tuple_ptr = 0

    def _next_uniform(self) -> float:
        if self._uniform_ptr >= len(self._uniform_block):
            self._uniform_block = self._replace_rng.random(_BLOCK)
            self._uniform_ptr = 0
        u = self._uniform_block[self._uniform_ptr]
        self._uniform_ptr += 1
        return float(u)

    # -- stepping -----------------------------------------------------

    def step(self) -> None:
        """Advance the process by one flip."""
        self.step_many(1)

    def step_many(self, count: int) -> None:
        """Advance by `count` flips (the hot loop, kept allocation-free)."""
        flat = self._flat
        n = self.n
        part_of = self.part_of
        counts = self.block_counts
        perm = self._perm
        pairs = pair_list(self.rule.k)
        pair_bits = tuple((a, b, 1 << p) for p, (a, b) in enumerate(pairs))
        k = self.rule.k
        single = self.single_target
        targets, cdf, starts = self._table
        edges = self.edge_total
        done = 0
        while done < count:
            if self._tuple_ptr >= _BLOCK:
                self._refill_tuples()
            blocks = self._tuple_blocks
            ptr = self._tuple_ptr
            budget = min(count - done, _BLOCK - ptr)
            for _ in range(budget):
                for s in range(k):
                    j = s + blocks[s][ptr]
                    perm[s], perm[j] = perm[j], perm[s]
                ptr += 1
                drawn = 0
                for a, b, bit in pair_bits:
                    if flat[perm[a] * n + perm[b]]:
                        drawn |= bit
                target = single[drawn]
                if target < 0:
                    u = self._next_uniform()
                    target = targets[bisect_right(cdf, u, starts[drawn], starts[drawn + 1] - 1)]
                diff = drawn ^ target
                while diff:
                    low = diff & -diff
                    p = low.bit_length() - 1
                    diff ^= low
                    a, b = pairs[p]
                    u_v, v_v = perm[a], perm[b]
                    i, j = part_of[u_v], part_of[v_v]
                    if target >> p & 1:
                        flat[u_v * n + v_v] = flat[v_v * n + u_v] = 1
                        counts[i][j] += 1
                        counts[j][i] += 1
                        edges += 1
                    else:
                        flat[u_v * n + v_v] = flat[v_v * n + u_v] = 0
                        counts[i][j] -= 1
                        counts[j][i] -= 1
                        edges -= 1
            self.edge_total = edges
            self.last_tuple = tuple(perm[:k])
            self._tuple_ptr = ptr
            self.step_count += budget
            done += budget

    # -- observation ----------------------------------------------------

    def edge_density(self) -> float:
        return self.edge_total / comb(self.n, 2)

    def snapshot(self) -> SimGraph:
        return SimGraph(self.n, self.adj, self.part_of)

    def stepped(self, target_masses=None) -> StepGraphon:
        """Block-averaged graphon from the incremental counters."""
        return block_graphon(self.block_counts, self.part_sizes, target_masses)


def run(
    rule: Rule,
    graph0: SimGraph,
    total_steps: int,
    checkpoint_steps=None,
    seed: int = 0,
):
    """Run the flip process, returning (step, stepped graphon) snapshots.

    Deterministic given (rule, graph0, seed).  Checkpoints default to the
    initial and final step; they must be sorted and at most total_steps.
    """
    if checkpoint_steps is None:
        checkpoint_steps = [0, total_steps]
    checkpoint_steps = sorted(set(int(s) for s in checkpoint_steps))
    if checkpoint_steps and (
        checkpoint_steps[0] < 0 or checkpoint_steps[-1] > total_steps
    ):
        raise ValueError("checkpoints must lie in [0, total_steps]")
    state = ProcessState(rule, graph0, seed)
    out = []
    for target in checkpoint_steps:
        if target > state.step_count:
            state.step_many(target - state.step_count)
        out.append((target, state.stepped()))
    if total_steps > state.step_count:
        state.step_many(total_steps - state.step_count)
    return out


# ---------------------------------------------------------------------------
# Statistical harnesses


@dataclass
class DriftCheck:
    empirical: float
    exact: float
    stderr: float
    samples: int


def one_step_expectation_check(
    rule: Rule, graph: SimGraph, parts, samples: int, seed: int = 0
) -> DriftCheck:
    """Compare the one-step drift of a block density with the velocity.

    Scaled by the number of ordered vertex pairs, the expected change of
    the stepped value at block (i, j) over one flip equals the velocity
    at the stepped graphon up to O(1/n).  Each sample replays one
    independent step from the same state without mutating it.
    """
    i, j = parts
    n = graph.n
    k = rule.k
    rng = substream(seed, "drift", i, j)
    pairs = pair_list(k)
    part_of = np.array(graph.part_of)
    sizes = np.bincount(part_of, minlength=graph.num_parts)
    if sizes[i] == 0 or sizes[j] == 0:
        raise ValueError(f"parts ({i}, {j}) must both be non-empty")
    adj = graph.adj

    # ordered k-tuples of distinct vertices, by rejection
    tuples = rng.integers(0, n, size=(samples, k))
    while True:
        bad = np.zeros(len(tuples), dtype=bool)
        for a in range(k):
            for b in range(a + 1, k):
                bad |= tuples[:, a] == tuples[:, b]
        if not bad.any():
            break
        tuples[bad] = rng.integers(0, n, size=(int(bad.sum()), k))

    drawn = np.zeros(samples, dtype=np.int64)
    for p, (a, b) in enumerate(pairs):
        drawn |= adj[tuples[:, a], tuples[:, b]].astype(np.int64) << p
    replacement = rule.sample_replacements(drawn, rng.random(samples))

    scale = 2.0 / (sizes[i] * sizes[i]) if i == j else 1.0 / (sizes[i] * sizes[j])
    delta = np.zeros(samples)
    for p, (a, b) in enumerate(pairs):
        pa = part_of[tuples[:, a]]
        pb = part_of[tuples[:, b]]
        hit = ((pa == i) & (pb == j)) | ((pa == j) & (pb == i))
        change = (replacement >> p & 1).astype(float) - (drawn >> p & 1)
        delta += np.where(hit, change * scale, 0.0)

    n2 = n * (n - 1)
    empirical = float(n2 * delta.mean())
    stderr = float(n2 * delta.std(ddof=1) / np.sqrt(samples))
    exact = float(velocity(rule, stepped(graph)).values[i, j])
    return DriftCheck(empirical, exact, stderr, samples)


# ---------------------------------------------------------------------------
# Transference


@dataclass
class TransferenceReport:
    """Checkpointed comparison between a simulation and its trajectory."""

    times: list[float]
    sim_graphons: list[StepGraphon]
    traj_graphons: list[StepGraphon]
    cut_dists: list[float]
    l1_dists: list[float]
    sim_densities: list[float]
    traj_densities: list[float]
    bisect_density_var: list[float] = field(default_factory=list)

    def max_cut_dist(self) -> float:
        return max(self.cut_dists)

    def rows(self):
        """(t, cut_dist, l1_dist, sim_density, traj_density) per checkpoint."""
        return zip(
            self.times, self.cut_dists, self.l1_dists, self.sim_densities, self.traj_densities
        )


def transference_experiment(
    rule: Rule,
    w0: StepGraphon,
    n: int,
    t_end: float,
    checkpoint_count: int = 10,
    seed: int = 0,
    opts: IntegratorOptions = DEFAULT_OPTS,
) -> TransferenceReport:
    """Track a flip process against the trajectory it should follow.

    Samples the start graph from `w0`, runs floor(t * n^2) steps, and at
    each checkpoint compares the block-averaged simulation graphon with
    the integrated trajectory on `w0`'s parts: exact cut norm on the
    shared coarse partition (a lower bound for the full distance between
    the underlying graphons) plus the L1 distance and edge densities.
    Within-part structure is summarized by the variance of block
    densities over random part bisections, reported but never asserted.
    """
    if n < 100:
        raise ValueError("transference experiments need n >= 100")
    if not isfinite(t_end):
        raise NonFiniteValueError(f"t_end must be finite, got {t_end}")
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    times = [t_end * (idx + 1) / checkpoint_count for idx in range(checkpoint_count)]
    graph0 = sample_graph(n, w0, substream(seed, "init"))
    # the times are distinct and increasing, so integrate returns one
    # checkpoint per time, in order
    traj = integrate(rule, w0, t_end, checkpoint_times=times, opts=opts)

    state = ProcessState(rule, graph0, seed)
    bisect_rng = substream(seed, "bisect")
    report = TransferenceReport([], [], [], [], [], [], [], [])
    for t, (_, traj_w) in zip(times, traj.checkpoints):
        target = floor(t * n * n)
        if target > state.step_count:
            state.step_many(target - state.step_count)
        sim_w = state.stepped(target_masses=w0.masses)
        diff = StepKernel(w0.masses, sim_w.values - traj_w.values)
        report.times.append(t)
        report.sim_graphons.append(sim_w)
        report.traj_graphons.append(traj_w)
        report.cut_dists.append(cut_norm_exact(diff))
        report.l1_dists.append(l1_dist(sim_w, traj_w))
        report.sim_densities.append(state.edge_density())
        report.traj_densities.append(traj_w.edge_density())
        report.bisect_density_var.append(
            _bisection_variance(state, bisect_rng)
        )
    return report


def _bisection_variance(state: ProcessState, rng: np.random.Generator) -> float:
    """Variance of refined block densities under one random part bisection.

    Fine block 2 * part + half splits each part in two random halves.
    """
    part_of = np.array(state.part_of)
    m = state.num_parts
    halves = np.zeros(state.n, dtype=np.int64)
    for p in range(m):
        members = np.flatnonzero(part_of == p)
        if len(members) < 2:
            return 0.0
        picked = rng.permutation(len(members))[: len(members) // 2]
        halves[members[picked]] = 1
    labels = 2 * part_of + halves
    counts = block_counts(state.adj, labels, 2 * m)
    fine = block_graphon(counts, np.bincount(labels, minlength=2 * m)).values
    coarse = state.stepped().values
    expanded = np.repeat(np.repeat(coarse, 2, axis=0), 2, axis=1)
    return float(np.var(fine - expanded))

