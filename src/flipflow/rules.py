"""Flip-process rules: replacement matrices over labeled k-vertex graphs.

A rule of order k is a row-stochastic matrix R indexed by the 2**C(k,2)
labeled graphs; R[F][H] is the probability of replacing drawn pattern F
by H.  Rows are stored sparsely as sorted (H index, probability) lists.
Sampling uses the inverse CDF in ascending H-index order: the replacement
is the first H whose cumulative probability exceeds the uniform variate
u (bisect_right), which fixes the exact mapping from u to a replacement
graph and keeps simulations bit-reproducible.  Every sampler bisects
the same flat table of all rows, `Rule.replacement_table()`.

The module also provides the derived tables used by the velocity
operator: signed pair coefficients and the expected edge-change sequence
over drawn-edge-count classes.
"""

from __future__ import annotations

import json
from itertools import accumulate, chain
from math import comb

import numpy as np

from .errors import ConfigError, NonFiniteValueError, NonStochasticRowError, UnsupportedOrderError
from .graphs import LabeledGraph, check_order, complement, component_closure

PROB_TOL = 1e-12  # absolute tolerance on probabilities and row sums

# Dense enumeration-based builders stay within k <= 5; k = 6 rules must
# come from sparse rule files (memory: 2**15 x 2**15 dense is infeasible).
MAX_BUILDER_ORDER = 5


class Rule:
    """Order-k replacement rule with sparse rows and cached derived data."""

    def __init__(self, k: int, rows):
        check_order(k)
        self.k = k
        self.num_graphs = 1 << comb(k, 2)
        if len(rows) != self.num_graphs:
            raise ValueError(
                f"expected {self.num_graphs} rows for order {k}, got {len(rows)}"
            )
        # a row object passed for several graphs is normalised once and
        # shared; each entry keeps its row alive, so ids stay unique
        normalised = {}
        self.rows = []
        for f, row in enumerate(rows):
            if id(row) not in normalised:
                normalised[id(row)] = (row, sorted((int(h), float(p)) for h, p in row))
            self.rows.append(normalised[id(row)][1])
            if not self.rows[f]:
                raise NonStochasticRowError(f, 1.0, "empty row")
        self._table = None
        self._pair_coeffs = None
        self._deltas = None

    @classmethod
    def from_row_map(cls, k: int, row_map: dict) -> "Rule":
        """Build from {F index: [(H index, prob), ...]}; missing rows idle.

        A key outside [0, 2**C(k,2)) raises NonStochasticRowError.
        """
        num_graphs = 1 << comb(k, 2)
        for f in row_map:
            if not 0 <= f < num_graphs:
                raise NonStochasticRowError(f, 0.0, f"F index {f} outside [0, {num_graphs})")
        return cls(k, [row_map.get(f, [(f, 1.0)]) for f in range(num_graphs)])

    def replacement_table(self):
        """Read-only arrays (targets, cdf, starts) holding every row in order.

        Row f fills slots starts[f] to starts[f + 1] - 1: its H indices,
        ascending, with their cumulative probabilities, then a sentinel
        slot repeating the last H, which `bisect_right(cdf, u, starts[f],
        starts[f + 1] - 1)` reaches when rounding leaves the row short of u.
        """
        if self._table is None:
            targets, cdf, starts = [], [], [0]
            for row in self.rows:
                targets += [h for h, _ in row]
                targets.append(targets[-1])
                cdf += accumulate(p for _, p in row)
                cdf.append(cdf[-1])
                starts.append(len(cdf))
            self._table = tuple(np.array(a) for a in (targets, cdf, starts))
            self._bisect_rounds = max(map(len, self.rows)).bit_length()
            for a in self._table:
                a.flags.writeable = False
        return self._table

    def sample_replacements(self, drawn: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Replacement indices for drawn graphs `drawn` and uniform variates `u`:
        `bisect_right(cdf, u, starts[f], starts[f + 1] - 1)` on each drawn
        row f of `replacement_table()`, run on all at once."""
        targets, cdf, starts = self.replacement_table()
        lo, hi = starts[drawn], starts[drawn + 1] - 1
        # hi - lo is at most the longest row's length, and halves each round
        for _ in range(self._bisect_rounds):
            mid = (lo + hi) // 2
            left = u < cdf[mid]
            lo, hi = np.where(left | (lo == hi), lo, mid + 1), np.where(left, mid, hi)
        return targets[lo]

    def __repr__(self):
        return f"Rule(k={self.k}, graphs={self.num_graphs})"


def validate(rule: Rule) -> None:
    """Check row-stochasticity; raise NonStochasticRowError on the worst row."""
    worst_row, worst_residual = -1, 0.0
    for f, row in enumerate(rule.rows):
        seen = set()
        for h, p in row:
            if not 0 <= h < rule.num_graphs:
                raise NonStochasticRowError(f, 0.0, f"H index {h} out of range")
            if h in seen:
                raise NonStochasticRowError(f, 0.0, f"duplicate H index {h}")
            seen.add(h)
            if not -PROB_TOL <= p <= 1 + PROB_TOL:  # also rejects NaN
                raise NonStochasticRowError(f, 0.0, f"probability {p} outside [0, 1]")
        residual = abs(sum(p for _, p in row) - 1.0)
        if residual > worst_residual:
            worst_row, worst_residual = f, residual
    if worst_residual > PROB_TOL:
        raise NonStochasticRowError(worst_row, worst_residual)


# ---------------------------------------------------------------------------
# Derived tables


def pair_coefficients(rule: Rule) -> np.ndarray:
    """Signed pair coefficients c[F, p] over unordered pair positions p.

    c[F, p] = sum_H R[F][H] (1{pair p in H \\ F} - 1{pair p in F \\ H});
    the coefficient is the same for both orientations of the pair.  It is
    nonnegative when the pair is absent from F and nonpositive when
    present (a rule can only add, resp. delete, at that pair), and
    collapsing this inner sum once makes each velocity evaluation cost
    |H_k| instead of |H_k|^2 per pair.
    """
    if rule._pair_coeffs is not None:
        return rule._pair_coeffs
    npairs = comb(rule.k, 2)
    # rows shared by several graphs (`Rule.__init__` keeps one object per
    # row passed) are summed once
    _, first, which = np.unique(
        np.array([id(row) for row in rule.rows]), return_index=True, return_inverse=True
    )
    distinct = [rule.rows[f] for f in first]
    lengths = [len(row) for row in distinct]
    flat = np.fromiter(
        chain.from_iterable(chain.from_iterable(distinct)), dtype=float, count=2 * sum(lengths)
    ).reshape(-1, 2)
    r = np.repeat(np.arange(len(distinct), dtype=np.int64), lengths)
    h = flat[:, 0].astype(np.int64)
    p = flat[:, 1]
    # per distinct row and pair position, the sums of p * (h_pos - f_pos)
    # for an F without the pair and with it: one bincount, in which the
    # entries of each sum add in row order, as a loop over the rows
    # would, and p * 0 adds an exact zero where the pair is unchanged
    h_bits = (h[:, None] >> np.arange(npairs)) & 1
    terms = np.stack((p[:, None] * h_bits, p[:, None] * (h_bits - 1)), axis=2)
    bins = r[:, None] * (2 * npairs) + np.arange(2 * npairs)
    sums = np.bincount(bins.ravel(), weights=terms.ravel(), minlength=len(distinct) * 2 * npairs)
    sums = sums.reshape(len(distinct), npairs, 2)[which]
    f_bits = (np.arange(rule.num_graphs)[:, None] >> np.arange(npairs)) & 1
    coeff = np.where(f_bits, sums[:, :, 1], sums[:, :, 0])
    coeff.flags.writeable = False
    rule._pair_coeffs = coeff
    return coeff


def deltas(rule: Rule) -> np.ndarray:
    """Expected edge-count change per drawn-edge-count class.

    Entry ell is the mean of e(H) - e(F) over one replacement when the
    drawn graph F is uniform over the graphs with ell edges.
    """
    if rule._deltas is not None:
        return rule._deltas
    npairs = comb(rule.k, 2)
    sums = np.zeros(npairs + 1)
    for f, row in enumerate(rule.rows):
        ell = f.bit_count()
        change = sum(p * (h.bit_count() - ell) for h, p in row)
        sums[ell] += change
    counts = np.array([comb(npairs, ell) for ell in range(npairs + 1)], dtype=float)
    out = sums / counts
    out.flags.writeable = False
    rule._deltas = out
    return out


def is_trivial(rule: Rule) -> bool:
    """True iff every drawn graph is idle (replaced by itself w.p. 1)."""
    return len(idle_graphs(rule)) == rule.num_graphs


def idle_graphs(rule: Rule) -> set[int]:
    """Indices F with R[F][F] = 1 (up to probability tolerance)."""
    idle = set()
    for f, row in enumerate(rule.rows):
        for h, p in row:
            if h == f and abs(p - 1.0) <= PROB_TOL:
                idle.add(f)
    return idle


# ---------------------------------------------------------------------------
# Builders for the example rule families


def erdos_renyi_rule() -> Rule:
    """Order 2: every drawn pair becomes an edge."""
    return Rule(2, [[(1, 1.0)], [(1, 1.0)]])


def triangle_removal_rule() -> Rule:
    """Order 3: a drawn triangle loses all edges; everything else idles."""
    return removal_rule(LabeledGraph.from_index(3, 0b111))


def removal_rule(pattern: LabeledGraph) -> Rule:
    """Drawn supergraphs of `pattern` lose its edges; others idle."""
    k = pattern.k
    if k > MAX_BUILDER_ORDER:
        raise UnsupportedOrderError(f"dense builder limited to k <= {MAX_BUILDER_ORDER}")
    fbits = pattern.edges
    rows = []
    for h in range(1 << comb(k, 2)):
        if h & fbits == fbits:
            rows.append([(h & ~fbits, 1.0)])
        else:
            rows.append([(h, 1.0)])
    return Rule(k, rows)


def complementing_rule(k: int) -> Rule:
    """Each drawn graph is replaced by its complement."""
    _check_builder_order(k)
    rows = [[(complement(LabeledGraph(k, f)).edges, 1.0)] for f in range(1 << comb(k, 2))]
    return Rule(k, rows)


def component_completion_rule(k: int) -> Rule:
    """Each drawn graph is replaced by its component closure."""
    _check_builder_order(k)
    rows = [
        [(component_closure(LabeledGraph(k, f)).edges, 1.0)]
        for f in range(1 << comb(k, 2))
    ]
    return Rule(k, rows)


def stirring_rule(k: int, variant: str = "firm") -> Rule:
    """Replace the drawn graph by a uniform (firm) or binomial (loose)
    random graph with the same edge count, resp. the same expected count.
    """
    _check_builder_order(k)
    if variant not in ("firm", "loose"):
        raise ValueError(f"stirring variant must be 'firm' or 'loose', got {variant!r}")
    npairs = comb(k, 2)
    ngraphs = 1 << npairs
    by_count = [[] for _ in range(npairs + 1)]
    for h in range(ngraphs):
        by_count[h.bit_count()].append(h)
    # every row depends only on the drawn edge count ell
    if variant == "firm":
        by_ell = [[(h, 1.0 / len(peers)) for h in peers] for peers in by_count]
    else:
        by_ell = []
        for ell in range(npairs + 1):
            p = ell / npairs
            probs = [p**e * (1 - p) ** (npairs - e) for e in range(npairs + 1)]
            by_ell.append([(h, probs[h.bit_count()]) for h in range(ngraphs) if probs[h.bit_count()] > 0.0])
    return Rule(k, [by_ell[f.bit_count()] for f in range(ngraphs)])


def extremist_rule(k: int) -> Rule:
    """Dense drawn graphs become complete, sparse ones edgeless.

    The threshold is C(k,2)/2: above it the replacement is the complete
    graph, below it the edgeless graph, and exactly at it the rule idles.
    """
    if k < 3:
        raise UnsupportedOrderError("extremist rule needs k >= 3")
    _check_builder_order(k)
    npairs = comb(k, 2)
    full = (1 << npairs) - 1
    half = npairs / 2
    rows = []
    for f in range(full + 1):
        ell = f.bit_count()
        if ell > half:
            rows.append([(full, 1.0)])
        elif ell < half:
            rows.append([(0, 1.0)])
        else:
            rows.append([(f, 1.0)])
    return Rule(k, rows)


def ignorant_rule(k: int, dist) -> Rule:
    """Replacement distribution independent of the drawn graph."""
    _check_builder_order(k)
    ngraphs = 1 << comb(k, 2)
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (ngraphs,):
        raise ValueError(f"distribution must have length {ngraphs}")
    if not np.isfinite(dist).all():
        raise NonFiniteValueError(f"ignorant distribution must be finite, got {dist!r}")
    if abs(dist.sum() - 1.0) > PROB_TOL or (dist < -PROB_TOL).any():
        raise NonStochasticRowError(0, abs(dist.sum() - 1.0), "ignorant distribution")
    row = [(h, float(p)) for h, p in enumerate(dist) if p > 0.0]
    return Rule(k, [row] * ngraphs)


def _average_density(dist) -> float:
    """Mean edge density of a replacement distribution over order-k graphs."""
    dist = np.asarray(dist, dtype=float)
    ngraphs = len(dist)
    npairs = (ngraphs - 1).bit_length()
    edges = np.array([h.bit_count() for h in range(ngraphs)], dtype=float)
    return float(np.dot(dist, edges) / npairs)


def _check_builder_order(k: int) -> None:
    check_order(k)
    if k > MAX_BUILDER_ORDER:
        raise UnsupportedOrderError(
            f"dense builders are limited to k <= {MAX_BUILDER_ORDER}; "
            f"supply k = 6 rules via sparse rule files"
        )


# ---------------------------------------------------------------------------
# Rule files (JSON, normative):
#   { "k": int, "rows": [ [F_index, [[H_index, prob], ...]], ... ] }
# Omitted rows default to identity (idle).  The writer emits rows sorted
# by F index and entries sorted by H index.


def save_rule(rule: Rule, path) -> None:
    rows = []
    for f, row in enumerate(rule.rows):
        if row == [(f, 1.0)]:
            continue  # idle rows are implicit
        rows.append([f, [[h, p] for h, p in row]])
    payload = {"k": rule.k, "rows": rows}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_rule(path) -> Rule:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        k = int(payload["k"])
    except (KeyError, TypeError, ValueError):
        raise ConfigError([f"rule file {path} needs an integer 'k'"]) from None
    check_order(k)
    try:
        row_map = {int(f): [(int(h), float(p)) for h, p in entries] for f, entries in payload["rows"]}
    except (KeyError, TypeError, ValueError):
        raise ConfigError([f"rule file {path} needs 'rows' listing [F, [[H, p], ...]] entries"]) from None
    try:
        rule = Rule.from_row_map(k, row_map)
    except NonStochasticRowError as exc:
        if exc.row in range(1 << comb(k, 2)):
            raise
        raise ConfigError([f"rule file {path}: {exc}"]) from None
    validate(rule)
    return rule


# ---------------------------------------------------------------------------
# Named registry used by the CLI and the property suites


def _uniform_dist(k: int) -> np.ndarray:
    n = 1 << comb(k, 2)
    return np.full(n, 1.0 / n)


BUILTIN_RULES = {
    "er": erdos_renyi_rule,
    "triangle-removal": triangle_removal_rule,
    "edge-removal": lambda: removal_rule(LabeledGraph.from_edges(3, [(0, 1)])),
    "complementing:3": lambda: complementing_rule(3),
    "component-completion:3": lambda: component_completion_rule(3),
    "stirring-firm:3": lambda: stirring_rule(3, "firm"),
    "stirring-loose:3": lambda: stirring_rule(3, "loose"),
    "extremist:3": lambda: extremist_rule(3),
    "extremist:4": lambda: extremist_rule(4),
    "extremist:5": lambda: extremist_rule(5),
    "ignorant-uniform:3": lambda: ignorant_rule(3, _uniform_dist(3)),
}


def make_rule(spec: str) -> Rule:
    """Build a rule from a CLI spec string.

    Accepts registry names plus parameterized forms:
    ``removal:<k>:<F index>``, ``complementing:<k>``,
    ``component-completion:<k>``, ``stirring-firm:<k>``,
    ``stirring-loose:<k>``, ``extremist:<k>``, ``ignorant-uniform:<k>``.
    """
    if spec in BUILTIN_RULES:
        return BUILTIN_RULES[spec]()
    parts = spec.split(":")
    head = parts[0]
    try:
        if head == "removal" and len(parts) == 3:
            return removal_rule(LabeledGraph.from_index(int(parts[1]), int(parts[2])))
        if head == "complementing" and len(parts) == 2:
            return complementing_rule(int(parts[1]))
        if head == "component-completion" and len(parts) == 2:
            return component_completion_rule(int(parts[1]))
        if head == "stirring-firm" and len(parts) == 2:
            return stirring_rule(int(parts[1]), "firm")
        if head == "stirring-loose" and len(parts) == 2:
            return stirring_rule(int(parts[1]), "loose")
        if head == "extremist" and len(parts) == 2:
            return extremist_rule(int(parts[1]))
        if head == "ignorant-uniform" and len(parts) == 2:
            return ignorant_rule(int(parts[1]), _uniform_dist(int(parts[1])))
    except ValueError as exc:
        raise ValueError(f"bad rule spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown rule spec {spec!r}")
