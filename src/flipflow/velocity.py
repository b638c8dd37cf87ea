"""The velocity operator: expected instantaneous drift of a flip process.

Applied to a step graphon W, the operator returns the step kernel whose
(i, j) entry sums, over ordered root pairs (a, b) and drawn patterns F,
the signed pair coefficient of the rule times the rooted induced density
of F with roots pinned to parts i and j.  Equivalently (and this is what
the Monte Carlo estimator samples), each root pair contributes the
probability that the replacement keeps/creates the root edge minus the
current value W(i, j).

Evaluation enumerates multisets, not assignments.  Relabeling the k
pattern vertices by a permutation maps an assignment of parts, its
drawn pattern and its root pair to another assignment with the same
weight, so the sum over all m**k assignments regroups into a sum over
the C(m+k-1, k) sorted assignments s_0 <= ... <= s_{k-1}, each counted
with its multinomial multiplicity k!/prod(c_i!), once the pair
coefficients are averaged over the relabelings:

    Cbar[F, ab] = (1/k!) sum over sigma in S_k of c[sigma F, sigma(a) sigma(b)].

For a sorted assignment and a pair a < b the block (s_a, s_b) lies in
the upper triangle, and both orientations of the pair land on it when
s_a = s_b, so a diagonal block takes the pair twice.  The multisets,
their multiplicities and their blocks depend only on (k, m) and are
cached; the averaged table is cached on the rule.  A `VelocityPlan`
fixes the part masses as well, folding multiplicity, mass product and
the 1/(m_i m_j) normalization into one weight per (multiset, pair), so
that along a flow, where the masses never change, each evaluation is a
gather of the packed upper-triangle values, a pattern-weighted sum and
one bincount back into packed blocks.

The pattern-weighted sum runs over the support of Cbar when few rows are
nonzero, else over all 2**P patterns (P = C(k, 2)) in two stages: P(F)
is the probability of F's low h = P // 2 pair bits times that of its
high bits, so a matmul with the low half-distribution contracts Cbar to
(2**(P-h), P) partial sums per multiset and a batched matmul with the
high half ends it.  The guard prices per multiset the two halves and the
partial sums, 2**h + 2**(P-h) * (P + 1) elements (384 at k = 5, not the
2**P = 1024 of the full distribution).

On constant graphons the velocity collapses to a polynomial in the
density whose Bernstein coefficients come from the rule's expected
edge-change sequence; that polynomial is an independent code path used
to cross-check the operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .errors import GuardExceededError
from .graphs import pair_list, pair_position
from .rules import Rule, deltas, pair_coefficients
from .stepfun import StepGraphon, StepKernel, check_masses
from .streams import substream

VELOCITY_GUARD = 125 * 10**6  # array elements a plan holds: 1 GB at 8 bytes
_CHUNK_ELEMS = 1 << 23  # cap on rows * row_elems per vectorized chunk


def _ordered_pairs(k: int):
    return [(a, b) for a in range(k) for b in range(k) if a != b]


def _check_velocity_guard(k: int, m: int, row_elems: int) -> None:
    """Price the C(m+k-1, k) multisets a plan builds before building them.

    Each multiset holds its k parts, five arrays over the C(k, 2) pairs
    (both parts, cell, factor, weight) and `row_elems` elements while its
    patterns are summed.
    """
    elems = comb(m + k - 1, k) * (row_elems + k + 5 * comb(k, 2))
    if elems > VELOCITY_GUARD:
        raise GuardExceededError(
            f"velocity enumeration needs {elems:.2e} array elements, more than "
            f"{VELOCITY_GUARD:.2e} (k={k}, m={m}); coarsen the graphon"
        )


@dataclass(frozen=True)
class _PatternTable:
    """The averaged coefficient rows a pattern sum needs, and how to sum.

    Graphs with an all-zero row cost nothing: when the nonzero support is
    small the sum runs over it directly (`bits` holds one table, the
    support's edge indicators).  Otherwise it runs over every pattern in
    two stages: the P pair bits split into the low h = P // 2 and the high
    P - h, `bits` holds the edge indicators of each half, and `table`
    holds all rows as coupled[lo, hi * P + p] = Cbar[lo + 2**h * hi, p].
    """

    table: np.ndarray
    bits: tuple  # (support bits,) or (low-half bits, high-half bits)
    row_elems: int  # array elements per multiset while summing


def _pattern_table(rule: Rule) -> _PatternTable:
    """Pair coefficients averaged over vertex relabelings, cached on the rule.

    Every permutation of {0..k-1} is uniquely a product r_1 r_2 ... r_{k-1}
    with r_j a transposition (i j), i < j, or the identity, so the average
    over S_k is the composition of k - 1 averages over those choices:
    C(k, 2) relabelings of the table instead of k!.
    """
    cached = getattr(rule, "_pattern_table", None)
    if cached is not None:
        return cached
    k = rule.k
    pairs = pair_list(k)
    table = np.array(pair_coefficients(rule))
    ngraphs, npairs = table.shape
    bits = _bit_table(npairs)
    for j in range(1, k):
        total = table.copy()
        for i in range(j):
            perm = list(range(k))
            perm[i], perm[j] = j, i
            # relabeled[F, p] = table[perm F, perm p]
            target = np.array([pair_position(k, perm[a], perm[b]) for a, b in pairs])
            total += table[np.ix_(bits @ (1 << target), target)]
        table = total / (j + 1)

    support = np.flatnonzero(np.any(table != 0.0, axis=1))
    if len(support) * 2 * npairs <= ngraphs * (2 + npairs):
        out = _PatternTable(table[support], (bits[support],), max(len(support) * npairs, 1))
    else:
        h = npairs // 2
        low, high = 1 << h, 1 << npairs - h
        coupled = table.reshape(high, low, npairs).transpose(1, 0, 2).reshape(low, -1)
        halves = (_bit_table(h), _bit_table(npairs - h))
        out = _PatternTable(coupled, halves, low + high * (1 + npairs))
    for arr in (out.table, *out.bits):
        arr.flags.writeable = False
    rule._pattern_table = out
    return out


@dataclass(frozen=True)
class _Multisets:
    """Sorted part assignments of k vertices to m parts, and their blocks.

    `parts[r]` is the r-th multiset in lexicographic order; for pair
    position p = (u, v), `cells[r, p]` is the packed upper-triangle index
    of block (parts[r, u], parts[r, v]) and `factor[r, p]` the number of
    ordered assignments and root orientations it stands for.
    """

    parts: np.ndarray  # (R, k)
    first: np.ndarray  # (R, C(k,2)): parts[r, u] for pair position p = (u, v)
    second: np.ndarray  # (R, C(k,2)): parts[r, v]
    cells: np.ndarray  # (R, C(k,2))
    factor: np.ndarray  # (R, C(k,2))
    upper: tuple  # np.triu_indices(m), the packing order


@lru_cache(maxsize=32)
def _multisets(k: int, m: int) -> _Multisets:
    parts = np.arange(m, dtype=np.intp)[:, None]
    for _ in range(k - 1):
        last = parts[:, -1]
        counts = m - last
        starts = np.cumsum(counts) - counts
        step = np.arange(counts.sum(), dtype=np.intp) - np.repeat(starts, counts)
        parts = np.column_stack((np.repeat(parts, counts, axis=0), np.repeat(last, counts) + step))
    # prod(c_i!) as the product of each entry's rank within its run
    run = np.ones(len(parts), dtype=np.int64)
    denom = np.ones(len(parts), dtype=np.int64)
    for col in range(1, k):
        run = np.where(parts[:, col] == parts[:, col - 1], run + 1, 1)
        denom *= run
    multiplicity = factorial(k) / denom
    us, vs = np.array(pair_list(k)).T
    i, j = parts[:, us], parts[:, vs]
    cells = i * m - i * (i - 1) // 2 + (j - i)
    factor = multiplicity[:, None] * np.where(i == j, 2.0, 1.0)
    upper = np.triu_indices(m)
    for arr in (parts, i, j, cells, factor, *upper):
        arr.flags.writeable = False
    return _Multisets(parts, i, j, cells, factor, upper)


class VelocityPlan:
    """The velocity of one rule at step graphons on fixed part masses.

    Built once per (rule, masses) and called on packed upper-triangle
    values (the order of `pack`); returns the velocity in the same
    packing.  The guard and the mass check run at construction, so a
    flow pays for them once.  Values are not checked: callers that take
    states from outside (the integrator) check their band themselves.
    """

    def __init__(self, rule: Rule, masses):
        masses = np.asarray(masses, dtype=float)
        check_masses(masses)
        k, m = rule.k, len(masses)
        patterns = _pattern_table(rule)
        _check_velocity_guard(k, m, patterns.row_elems)
        enum = _multisets(k, m)
        self.m = m
        self._upper = enum.upper
        self._ncells = m * (m + 1) // 2
        self._cells = enum.cells
        weight = np.prod(masses[enum.parts], axis=1)
        self._weights = enum.factor * weight[:, None] / (masses[enum.first] * masses[enum.second])
        self._table = patterns.table
        self._bits = patterns.bits
        self._pattern_sum = self._support_sum if len(self._bits) == 1 else self._two_stage
        chunk = max(1, _CHUNK_ELEMS // patterns.row_elems)
        total = len(self._cells)
        self._chunks = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]

    def pack(self, values: np.ndarray) -> np.ndarray:
        """Upper-triangle entries of a symmetric (m, m) matrix, row by row."""
        return values[self._upper]

    def unpack(self, y: np.ndarray) -> np.ndarray:
        """The symmetric (m, m) matrix with packed upper triangle y."""
        out = np.zeros((self.m, self.m))
        out[self._upper] = y
        out.T[self._upper] = y
        return out

    def __call__(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros(self._ncells)
        for lo, hi in self._chunks:
            cells = self._cells[lo:hi]
            scores = self._pattern_sum(y[cells]) * self._weights[lo:hi]
            out += np.bincount(cells.ravel(), weights=scores.ravel(), minlength=self._ncells)
        return out

    def _support_sum(self, edge_probs: np.ndarray) -> np.ndarray:
        """sum over the support F of P(F | multiset) * Cbar[F]."""
        return _pattern_probs(edge_probs, self._bits[0]) @ self._table

    def _two_stage(self, edge_probs: np.ndarray) -> np.ndarray:
        """sum over all F of P(F | multiset) * Cbar[F]: the low half of P(F)
        contracts `table` to (rows, 2**(P-h), P), the high half to (rows, P).
        """
        low_bits, high_bits = self._bits
        h = low_bits.shape[1]
        low = _pattern_probs(edge_probs[:, :h], low_bits)
        high = _pattern_probs(edge_probs[:, h:], high_bits)
        partial = (low @ self._table).reshape(len(edge_probs), len(high_bits), -1)
        return (high[:, None, :] @ partial)[:, 0]


def _pattern_probs(edge_probs: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """P(pattern | multiset) for each row of edge indicators `bits`."""
    probs = edge_probs[:, None, :]
    return np.where(bits, probs, 1.0 - probs).prod(axis=2)


def _bit_table(n: int) -> np.ndarray:
    """(2**n, n) edge indicators: row g holds the bits of g."""
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)


def velocity(rule: Rule, w: StepGraphon) -> StepKernel:
    """Exact velocity kernel of `rule` at the step graphon `w`."""
    plan = VelocityPlan(rule, w.masses)
    return StepKernel(w.masses, plan.unpack(plan(plan.pack(w.values))))


@dataclass
class MonteCarloVelocity:
    estimate: float
    stderr: float
    samples: int


def velocity_monte_carlo(
    rule: Rule, w: StepGraphon, parts, samples: int, seed: int
) -> MonteCarloVelocity:
    """Monte Carlo estimate of the velocity at one block of `w`.

    For each ordered root pair, draws the remaining part labels from the
    mass distribution, the pattern edge-by-edge conditioned on the roots,
    and the replacement from the rule row.  Each draw accumulates the
    root-pair indicator of the replacement minus that of the drawn
    pattern; since the drawn indicator has conditional mean equal to the
    block value, this estimates replacement probability minus block value
    with the drawn pattern acting as a control variate (idle draws
    contribute exactly zero).  Streams are keyed by (seed, parts, pair).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    k, m = rule.k, w.m
    i, j = parts
    pairs = pair_list(k)
    npairs = len(pairs)
    bit_weights = 1 << np.arange(npairs, dtype=np.int64)
    d = w.values

    per_sample = np.zeros(samples)
    for a, b in _ordered_pairs(k):
        rng = substream(seed, "mc-velocity", i, j, a, b)
        labels = np.empty((samples, k), dtype=np.int64)
        labels[:, a] = i
        labels[:, b] = j
        free = [v for v in range(k) if v != a and v != b]
        if free:
            labels[:, free] = rng.choice(m, size=(samples, len(free)), p=w.masses)
        probs = np.empty((samples, npairs))
        for p, (u, v) in enumerate(pairs):
            probs[:, p] = d[labels[:, u], labels[:, v]]
        drawn = (rng.random((samples, npairs)) < probs) @ bit_weights
        replacement = rule.sample_replacements(drawn, rng.random(samples))
        root_bit = pair_position(k, a, b)
        per_sample += (replacement >> root_bit & 1) - (drawn >> root_bit & 1)
    estimate = float(per_sample.mean())
    stderr = float(per_sample.std(ddof=1) / np.sqrt(samples)) if samples > 1 else np.inf
    return MonteCarloVelocity(estimate, stderr, samples)


# ---------------------------------------------------------------------------
# Constant-graphon velocity polynomial


@dataclass
class VelocityPoly:
    """Velocity restricted to constant graphons, as a polynomial.

    `bernstein[ell]` is the control value 2 * delta_ell of the basis
    function C(P, ell) d**ell (1-d)**(P-ell).
    """

    degree: int
    bernstein: np.ndarray


def velocity_poly(rule: Rule) -> VelocityPoly:
    return VelocityPoly(comb(rule.k, 2), 2.0 * deltas(rule))


def eval_poly(poly: VelocityPoly, d):
    """Evaluate in Bernstein form by de Casteljau (stable on [0, 1]).

    `d` is a point (returns a float) or an array of points (returns an
    array, each entry bitwise the value at that point alone).
    """
    d = np.asarray(d, dtype=float)
    b = np.multiply.outer(poly.bernstein, np.ones(d.shape))
    for r in range(1, len(b)):
        b[: len(b) - r] = (1.0 - d) * b[: len(b) - r] + d * b[1 : len(b) - r + 1]
    return float(b[0]) if d.ndim == 0 else b[0]
