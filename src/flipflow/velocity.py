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
gather of the factors 1 - y and y of each pair from z = [1 - y, y] (y the
packed upper-triangle values), a pattern-weighted sum and one bincount
back into packed blocks.

The pattern-weighted sum runs over the support of Cbar when few rows are
nonzero, else over all 2**P patterns (P = C(k, 2)) in two stages: P(F)
is the probability of F's low h = P // 2 pair bits times that of its
high bits, so a matmul with the low half-distribution contracts Cbar to
(2**(P-h), P) partial sums per multiset and a batched matmul with the
high half ends it; each P(F) is the product of the factors its bits
pick.  Below _SEQ_ELEMS factors (flows, where each numpy call shows) one
take and one reduce over the pairs form it; above, it builds in place
pair by pair, with no (pairs, patterns, rows) tensor, in the same order.
The guard prices the k + 5 P elements a plan holds per multiset and one
chunk's pattern sum: per multiset the support size times P, or the two
halves and the partial sums, 2**h + 2**(P-h) * (P + 1) elements (384 at
k = 5, not the 2**P = 1024 of the full distribution).

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

from .errors import GuardExceededError, IntegrationFaultError
from .graphs import pair_list, pair_position
from .rules import Rule, _edge_bits, deltas, pair_coefficients
from .stepfun import StepGraphon, StepKernel, check_masses
from .streams import substream

VELOCITY_GUARD = 125 * 10**6  # array elements a plan holds: 1 GB at 8 bytes
MULTISET_CACHE_BYTES = VELOCITY_GUARD * 8 // 32  # largest cached multiset arrays: 32 fit in 1 GB
_CHUNK_ELEMS = 1 << 23  # cap on rows * row_elems per vectorized chunk
_SEQ_ELEMS = 1 << 14  # gathered factors from which P(F) builds in place; it breaks even between 2**14 and 2**15
RHS_BAND = 0.5  # the velocity is only evaluated on states within this band of [0, 1]


def _ordered_pairs(k: int):
    return [(a, b) for a in range(k) for b in range(k) if a != b]


def _check_velocity_guard(k: int, m: int, row_elems: int) -> None:
    """Price the arrays a plan on the C(m+k-1, k) multisets holds before building them.

    Each multiset holds its k parts and, over the C(k, 2) pairs, its cell,
    factor, weight and two gather indices; a chunk of at most
    _CHUNK_ELEMS // row_elems multisets holds `row_elems` each while its
    patterns are summed.
    """
    rows = comb(m + k - 1, k)
    elems = rows * (k + 5 * comb(k, 2)) + min(rows, max(1, _CHUNK_ELEMS // row_elems)) * row_elems
    if elems > VELOCITY_GUARD:
        raise GuardExceededError(
            f"velocity enumeration needs {elems:.2e} array elements, more than "
            f"{VELOCITY_GUARD:.2e} (k={k}, m={m}); coarsen the graphon"
        )


@dataclass(frozen=True)
class _PatternTable:
    """The averaged coefficient rows a pattern sum needs, and how to sum.

    Graphs with an all-zero row cost nothing: when the nonzero support is
    small the sum runs over it directly (`bits` holds one index, over the
    support).  Otherwise it runs over every pattern in two stages: the P
    pair bits split into the low h = P // 2 and the high P - h, `bits`
    holds the index of each half, and `table` holds all rows as
    coupled[lo, hi * P + p] = Cbar[lo + 2**h * hi, p].  An index holds the
    factor row 2p + bit for each of its pairs p and patterns.
    """

    table: np.ndarray
    bits: tuple  # (support index,) or (low-half index, high-half index)
    row_elems: int  # array elements per multiset while summing


def _pattern_table(rule: Rule) -> _PatternTable:
    """Pair coefficients averaged over vertex relabelings, cached on the rule.

    Every permutation of {0..k-1} is uniquely a product r_1 r_2 ... r_{k-1}
    with r_j a transposition (i j), i < j, or the identity, so the average
    over S_k is the composition of k - 1 averages over those choices:
    C(k, 2) relabelings of the table instead of k!.
    """
    if rule._pattern_table is not None:
        return rule._pattern_table
    table = np.array(pair_coefficients(rule))
    ngraphs, npairs = table.shape
    for level in _relabelings(rule.k):
        total = table.copy()
        for graphs, target in level:
            total += table.take(graphs[:, None] * npairs + target)
        table = total / (len(level) + 1)

    support = np.flatnonzero(np.any(table != 0.0, axis=1))
    if len(support) * 2 * npairs <= ngraphs * (2 + npairs):
        index = (_factor_index(0, _edge_bits(support, npairs)),)
        out = _PatternTable(table[support], index, max(len(support) * npairs, 1))
    else:
        h = npairs // 2
        low, high = 1 << h, 1 << npairs - h
        coupled = table.reshape(high, low, npairs).transpose(1, 0, 2).reshape(low, -1)
        index = (_factor_index(0, _edge_bits(np.arange(low), h)), _factor_index(h, _edge_bits(np.arange(high), npairs - h)))
        out = _PatternTable(coupled, index, low + high * (1 + npairs))
    for arr in (out.table, *out.bits):
        arr.flags.writeable = False
    rule._pattern_table = out
    return out


@lru_cache(maxsize=None)
def _relabelings(k: int) -> list:
    """Per j = 1..k-1, for each transposition perm = (i j), i < j, the
    indices (perm F for every graph F, perm p for every pair position p)
    that relabel a table: relabeled[F, p] = table[perm F, perm p]."""
    pairs = pair_list(k)
    levels = [[] for _ in range(k - 1)]
    for i, j in pairs:  # i ascending for each j
        swap = {i: j, j: i}
        target = np.array([pair_position(k, swap.get(a, a), swap.get(b, b)) for a, b in pairs])
        levels[j - 1].append((_edge_bits(np.arange(1 << len(pairs)), len(pairs)) @ (1 << target), target))
    return levels


@dataclass(frozen=True)
class _Multisets:
    """Sorted part assignments of k vertices to m parts, and their blocks.

    `parts[r]` is the r-th multiset in lexicographic order; for pair
    position p = (u, v), `cells[r, p]` is the packed upper-triangle index
    of block (parts[r, u], parts[r, v]), `gather[2p + b, r]` that of 1 - y
    (b = 0) or y (b = 1) there in z = [1 - y, y], and `factor[r, p]` the
    number of ordered assignments and root orientations it stands for.
    """

    parts: np.ndarray  # (R, k)
    cells: np.ndarray  # (R, C(k,2))
    gather: np.ndarray  # (2 C(k,2), R)
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
    gather = np.stack((cells.T, cells.T + m * (m + 1) // 2), axis=1).reshape(-1, len(parts))
    upper = np.triu_indices(m)
    for arr in (parts, cells, gather, factor, *upper):
        arr.flags.writeable = False
    return _Multisets(parts, cells, gather, factor, upper)


class VelocityPlan:
    """The velocity of one rule at step graphons on fixed part masses.

    Built once per (rule, masses) and called on packed upper-triangle
    values (the order of `pack`); returns the velocity in the same
    packing.  The guard, the mass check and each chunk's gather index,
    flat cells and weights are set up at construction, so a flow pays for
    them once.  A call raises `IntegrationFaultError` on a state with an
    entry outside [-RHS_BAND, 1 + RHS_BAND] or NaN: min(1 - y, y) >= -0.5
    is that band exactly (near 1.5, 1 - y is exact), one reduction over z.
    """

    def __init__(self, rule: Rule, masses):
        masses = np.asarray(masses, dtype=float)
        check_masses(masses)
        k, m = rule.k, len(masses)
        patterns = _pattern_table(rule)
        _check_velocity_guard(k, m, patterns.row_elems)
        # each multiset's arrays hold k + 4 C(k, 2) 8-byte entries
        small = comb(m + k - 1, k) * (k + 4 * comb(k, 2)) * 8 <= MULTISET_CACHE_BYTES
        enum = (_multisets if small else _multisets.__wrapped__)(k, m)
        self.m = m
        self._upper = enum.upper
        self._ncells = m * (m + 1) // 2
        weight = masses[enum.parts[:, 0]]
        for c in range(1, k):
            weight *= masses[enum.parts[:, c]]
        weights = enum.factor * weight[:, None] / np.outer(masses, masses)[enum.upper][enum.cells]
        self._table = patterns.table
        self._bits = patterns.bits
        self._pattern_sum = self._support_sum if len(self._bits) == 1 else self._two_stage
        step = max(1, _CHUNK_ELEMS // patterns.row_elems)
        chunks = [slice(lo, lo + step) for lo in range(0, len(weights), step)]
        self._chunks = [(enum.gather[:, c], enum.cells[c].ravel(), weights[c].ravel()) for c in chunks]

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
        z = np.concatenate((1.0 - y, y))
        if not np.minimum.reduce(z) >= -RHS_BAND:
            raise IntegrationFaultError(
                f"velocity evaluated at a state outside [{-RHS_BAND}, {1 + RHS_BAND}]: "
                f"range [{float(y.min())}, {float(y.max())}]"
            )
        out = None
        for gather, cells, weights in self._chunks:
            scores = self._pattern_sum(z[gather]).ravel() * weights
            part = np.bincount(cells, weights=scores, minlength=self._ncells)
            out = part if out is None else out + part
        return out

    def _support_sum(self, factors: np.ndarray) -> np.ndarray:
        """sum over the support F of P(F | multiset) * Cbar[F], (rows, P)."""
        return _pattern_probs(factors, self._bits[0]).T @ self._table

    def _two_stage(self, factors: np.ndarray) -> np.ndarray:
        """sum over all F of P(F | multiset) * Cbar[F]: the low half of P(F)
        contracts `table` to (rows, 2**(P-h), P), the high half to (rows, P).
        """
        low = _pattern_probs(factors, self._bits[0])
        high = _pattern_probs(factors, self._bits[1])
        partial = (low.T @ self._table).reshape(factors.shape[1], len(high), -1)
        return (high.T[:, None, :] @ partial)[:, 0]


def _pattern_probs(factors: np.ndarray, index: np.ndarray) -> np.ndarray:
    """(patterns, rows) P(pattern | multiset): the product over pairs of the factor rows `index` picks, in one
    take and reduce below _SEQ_ELEMS factors (fewer calls), else in place pair by pair (less memory traffic)."""
    if index.size * factors.shape[1] < _SEQ_ELEMS:
        return np.multiply.reduce(factors.take(index, axis=0), axis=0)
    out = factors.take(index[0], axis=0)
    for row in index[1:]:
        out *= factors.take(row, axis=0)
    return out


def _factor_index(first: int, bits: np.ndarray) -> np.ndarray:
    """(n, patterns) factor rows of pair positions first, ..., first + n - 1 by edge indicators `bits`."""
    return 2 * np.arange(first, first + bits.shape[1])[:, None] + bits.T


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
    function C(P, ell) d**ell (1-d)**(P-ell), where the degree P =
    C(k, 2) is len(bernstein) - 1.
    """

    bernstein: np.ndarray


def velocity_poly(rule: Rule) -> VelocityPoly:
    return VelocityPoly(2.0 * deltas(rule))


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
