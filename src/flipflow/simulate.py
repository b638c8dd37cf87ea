"""Exact discrete-time simulation of flip processes.

Steps are drawn in blocks of `_BLOCK` and applied in spans of `_SPAN`
pair writes.  A block draws, for each step, an ordered tuple of k
distinct vertices (column s is uniform on the n - s vertices not yet
picked; `_distinct_tuples`) and one uniform variate for the replacement.
Steps whose tuples share no vertex pair commute, so a span is applied in
wavefronts: a step's level is 1 plus the largest level of the earlier
steps that wrote one of its pairs, and each level reads its patterns
from the upper triangle of a dense n x n byte adjacency, bisects
`Rule.replacement_table()` (`Rule.sample_replacements`) and writes the
new pairs back, all steps at once.  Every pair then sees its reads and
writes in step order, so the result is exactly that of stepping one at
a time, and the output depends only on the seed, never on how the steps
are split across `step_many` calls.  Ordered block edge counts
(`stepfun.block_counts`) seed counters that each call keeps up to date,
so checkpoint summaries, in `run` and in transference experiments
alike, cost O(parts^2), not O(n^2).

Randomness comes from named substreams of a counter-based generator
keyed by (seed, purpose), so runs are bit-reproducible across platforms
regardless of how many draws each purpose consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, floor, isfinite

import numpy as np

from .errors import NonFiniteValueError
from .graphs import pair_list
from .integrators import IntegratorOptions
from .rules import Rule, _edge_bits
from .stepfun import (
    SimGraph,
    StepGraphon,
    _tiles,
    block_counts,
    block_graphon,
    cut_norm_exact,
    kernel_sub,
    l1_dist,
    sample_graph,
    stepped,
)
from .streams import substream
from .trajectory import DEFAULT_OPTS, integrate
from .velocity import velocity

_BLOCK = 1 << 13  # flip steps drawn together
_SPAN = 3 << 12  # pair writes (steps x C(k, 2)) scheduled together: a few MB whatever n and k


def _distinct_tuples(rng: np.random.Generator, n: int, k: int, size: int) -> np.ndarray:
    """`size` ordered k-tuples of distinct vertices of [0, n), each uniform.

    Column s draws integers(0, n - s) and skips the earlier picks in
    ascending order, so every tuple costs exactly k integers.
    """
    out = np.empty((size, k), dtype=np.int64)
    picked = []  # the earlier picks, ascending along every row
    for s in range(k):
        v = rng.integers(0, n - s, size=size)
        for pick in picked:
            v += v >= pick
        out[:, s] = v
        for c, pick in enumerate(picked):
            picked[c], v = np.minimum(pick, v), np.maximum(pick, v)
        picked.append(v)
    return out


class ProcessState:
    """Mutable simulation state confined to one worker.

    Steps write a flat uint8 copy of the start graph's adjacency, never the
    graph itself, and only its upper entry min(u, v) * n + max(u, v) of
    each vertex pair; `adj` fills in the lower triangle when read.
    `block_counts[i, j]` counts the ordered vertex pairs (u, v) with u in
    part i, v in part j and uv an edge.
    """

    def __init__(self, rule: Rule, graph: SimGraph, seed: int):
        if graph.n < rule.k:
            raise ValueError(f"need at least k={rule.k} vertices, got {graph.n}")
        self.rule = rule
        self.n = graph.n
        self._flat = graph.adj.ravel().copy()
        self.part_of = np.array(graph.part_of)
        self.step_count = 0

        m = graph.num_parts
        self.part_sizes = np.bincount(self.part_of, minlength=m)
        self.block_counts = block_counts(graph.adj, self.part_of, m).astype(np.int64)
        self.edge_total = int(self.block_counts.sum()) // 2

        self._ends = np.array(pair_list(rule.k)).T  # the tuple columns of every pair
        self._weights = 1 << np.arange(len(self._ends[0]))
        # row h: the pair bits of graph h
        self._bits = _edge_bits(np.arange(rule.num_graphs), len(self._weights)).astype(np.uint8)
        self._tuple_rng = substream(seed, "tuples")
        self._replace_rng = substream(seed, "replace")
        self._tuples = np.empty((0, rule.k), dtype=np.int64)
        self._uniforms = np.empty(0)
        self._ptr = 0  # next unused step of the drawn block

    @property
    def adj(self) -> np.ndarray:
        """Read-only n x n view of the adjacency, its lower triangle mirrored
        tile by tile from the upper one that steps write: read it again after stepping."""
        adj = self._flat.reshape(self.n, self.n)
        for a, b in _tiles(self.n):
            tile = adj[a, b]  # entry (i, j) is below the diagonal iff j < i + a.start - b.start
            np.copyto(tile, adj[b, a].T, where=np.tri(*tile.shape, a.start - b.start - 1, dtype=bool))
        adj.flags.writeable = False
        return adj

    def step_many(self, count: int) -> None:
        """Advance by `count` flips, drawing a new block when one runs out."""
        if count < 0:
            raise ValueError(f"step_many needs a non-negative flip count, got {count}")
        done = 0
        while done < count:
            if self._ptr == len(self._uniforms):
                self._tuples = _distinct_tuples(self._tuple_rng, self.n, self.rule.k, _BLOCK)
                self._uniforms = self._replace_rng.random(_BLOCK)
                self._ptr = 0
            end = min(self._ptr + count - done, _BLOCK, self._ptr + max(1, _SPAN // len(self._weights)))
            self._apply(self._tuples[self._ptr : end], self._uniforms[self._ptr : end])
            done += end - self._ptr
            self._ptr = end
        self.step_count += done

    def _apply(self, tuples: np.ndarray, uniforms: np.ndarray) -> None:
        """Apply consecutive steps level by level, as if one at a time."""
        n, flat, npairs = self.n, self._flat, len(self._weights)
        steps = len(tuples)
        # the one entry of every pair, min(u, v) * n + max(u, v)
        u, v = tuples[:, self._ends[0]], tuples[:, self._ends[1]]
        at = np.minimum(u, v) * n + np.maximum(u, v)

        # sort (pair, slot) keys, slot = step * npairs + p: equal
        # neighbouring pairs are the dependency edges, from each writer of
        # a pair to its next writer
        shift = (steps * npairs).bit_length()
        key = at.ravel() << shift
        key |= np.arange(key.size)
        key.sort()
        pair = key >> shift
        slot = key & ((1 << shift) - 1)
        del key
        same = pair[1:] == pair[:-1]
        later = slot[1:][same] // npairs
        succ = np.full(steps * npairs, steps)
        succ[slot[:-1][same]] = later
        succ = succ.reshape(steps, npairs)
        waiting = np.bincount(later, minlength=steps)
        touched = np.concatenate((pair[:1], pair[1:][~same]))
        before = flat[touched]
        del pair, slot, same, later

        # a level holds the steps whose earlier writers have all been applied
        level = np.flatnonzero(waiting == 0)
        while level.size:
            pos = at[level]
            drawn = flat[pos] @ self._weights
            flat[pos] = self._bits[self.rule.sample_replacements(drawn, uniforms[level])]
            nxt = succ[level].ravel()
            nxt = nxt[nxt < steps]
            np.subtract.at(waiting, nxt, 1)
            # a flip that shares two pairs with this level is twice in nxt
            ready = np.zeros(steps, dtype=bool)
            ready[nxt[waiting[nxt] == 0]] = True
            level = ready.nonzero()[0]

        delta = flat[touched].astype(np.int64) - before
        moved = np.flatnonzero(delta)
        lo, hi = np.divmod(touched[moved], n)
        delta = delta[moved]
        i, j = self.part_of[lo], self.part_of[hi]
        np.add.at(self.block_counts, (i, j), delta)
        np.add.at(self.block_counts, (j, i), delta)
        self.edge_total += int(delta.sum())

    # -- observation ----------------------------------------------------

    def edge_density(self) -> float:
        return self.edge_total / comb(self.n, 2)

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
        state.step_many(target - state.step_count)
        out.append((target, state.stepped()))
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
    rng = substream(seed, "drift", i, j)
    part_of = np.array(graph.part_of)
    sizes = np.bincount(part_of, minlength=graph.num_parts)
    if sizes[i] == 0 or sizes[j] == 0:
        raise ValueError(f"parts ({i}, {j}) must both be non-empty")

    tuples = _distinct_tuples(rng, n, rule.k, samples)
    a, b = np.array(pair_list(rule.k)).T
    drawn = graph.adj[tuples[:, a], tuples[:, b]] @ (1 << np.arange(len(a)))
    replacement = rule.sample_replacements(drawn, rng.random(samples))

    scale = 2.0 / (sizes[i] * sizes[i]) if i == j else 1.0 / (sizes[i] * sizes[j])
    pa, pb = part_of[tuples[:, a]], part_of[tuples[:, b]]
    hit = ((pa == i) & (pb == j)) | ((pa == j) & (pb == i))
    change = _edge_bits(replacement, len(a)) - _edge_bits(drawn, len(a))
    # summed column by column, so the float sum runs in pair order
    delta = sum((hit * change * scale).T)

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
    cut_dists: list[float]
    l1_dists: list[float]
    sim_densities: list[float]
    traj_densities: list[float]

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
    Every checkpoint reads the state's block counters only, so structure
    inside the parts goes unmeasured.
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
    report = TransferenceReport([], [], [], [], [])
    for t, (_, traj_w) in zip(times, traj.checkpoints):
        state.step_many(floor(t * n * n) - state.step_count)
        sim_w = state.stepped(target_masses=w0.masses)
        report.times.append(t)
        report.cut_dists.append(cut_norm_exact(kernel_sub(sim_w, traj_w)))
        report.l1_dists.append(l1_dist(sim_w, traj_w))
        report.sim_densities.append(state.edge_density())
        report.traj_densities.append(traj_w.edge_density())
    return report

