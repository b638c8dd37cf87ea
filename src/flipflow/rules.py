"""Flip-process rules: replacement distributions over labeled k-vertex graphs.

A rule of order k gives each of the 2**C(k,2) labeled graphs F a row
R[F], R[F][H] being the probability of replacing a drawn pattern F by H.
Builders give many graphs one row (a stirring rule at k = 5 has 11 rows
for 1,024 graphs), so a `Rule` holds `row_of[F]`, the index of F's
distinct row, and the distinct rows' entries end to end in flat arrays;
validation and the derived tables (the velocity operator's signed pair
coefficients and expected edge-change sequence) are array operations
over those entries.  Sampling uses the inverse CDF in ascending H order:
the replacement is the first H whose cumulative probability exceeds the
uniform variate u (bisect_right), which fixes the exact mapping from u
to a replacement graph and keeps simulations bit-reproducible.  A row's
CDF is the running maximum of its partial sums, so an entry that
`validate` tolerates in [-PROB_TOL, 0) cannot make it dip.  Every
sampler searches one flat table, `Rule.replacement_table()`, greedily by
powers of two (`Rule.sample_replacements`), which returns bisect_right's
index on that nondecreasing CDF.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import chain
from math import comb

import numpy as np

from .errors import ConfigError, NonFiniteValueError, NonStochasticRowError, UnsupportedOrderError
from .graphs import LabeledGraph, check_order, component_closure

PROB_TOL = 1e-12  # absolute tolerance on probabilities and row sums

# Dense enumeration-based builders stay within k <= 5; k = 6 rules must
# come from sparse rule files (memory: 2**15 x 2**15 dense is infeasible).
MAX_BUILDER_ORDER = 5


class Rule:
    """Order-k replacement rule: `row_of[F]` indexes one table of distinct rows.

    A row object passed for several graphs is one distinct row (builders
    pass one object per distribution), numbered in order of first use.
    `_entries` = (row, H, p) holds the distinct rows' entries end to end,
    each row sorted by (H, p), and `replacement_table()` their CDFs;
    `rows` rebuilds the per-graph lists of (H, p) when first read.
    """

    def __init__(self, k: int, rows):
        check_order(k)
        self.k = k
        self.num_graphs = 1 << comb(k, 2)
        if len(rows) != self.num_graphs:
            raise ValueError(f"expected {self.num_graphs} rows for order {k}, got {len(rows)}")
        rows = list(rows)  # keeps every row object alive, so their ids stay distinct
        _, first, which = np.unique(np.fromiter(map(id, rows), np.uintp, len(rows)), return_index=True, return_inverse=True)
        used = np.argsort(first)  # distinct rows in order of first use
        self.row_of = np.argsort(used)[which]
        distinct = [rows[f] for f in first[used].tolist()]
        lengths = np.array([len(row) for row in distinct])
        if lengths.min() == 0:
            raise NonStochasticRowError(int(np.argmax(lengths[self.row_of] == 0)), 1.0, "empty row")
        r = np.repeat(np.arange(len(lengths)), lengths)
        h, p = zip(*chain.from_iterable(distinct), strict=True)  # every entry an (H, p) pair
        try:
            h = np.fromiter(map(int, h), np.int64, len(r))
        except OverflowError:  # an H index beyond int64 is out of range: name the first graph holding one
            e = next(e for e, x in enumerate(h) if not -(1 << 63) <= int(x) < 1 << 63)
            raise NonStochasticRowError(int(np.argmax(self.row_of == r[e])), 0.0, f"H index {int(h[e])} out of range") from None
        p = np.fromiter(map(float, p), float, len(r))
        order = np.lexsort((p, h, r))
        h, p = h[order], p[order]
        self._entries = (r, h, p)
        # each row's CDF adds its entries in order, as `accumulate` would,
        # one cumsum along the rows of each length; its running maximum
        # keeps it nondecreasing where an entry in [-PROB_TOL, 0) dips it
        starts, cdf = np.concatenate(([0], np.cumsum(lengths))), np.empty(len(r))
        for length in set(lengths.tolist()):
            at = np.flatnonzero(lengths[r] == length)
            sums = np.cumsum(p[at].reshape(-1, length), axis=1)
            if length > 1:
                np.maximum.accumulate(sums, axis=1, out=sums)
            cdf[at] = sums.ravel()
        self._table = (h, cdf, starts)
        # per graph, the first and last entry of its row
        self._first, self._last = starts[self.row_of], starts[self.row_of + 1] - 1
        self._rounds = int(lengths.max() - 1).bit_length()
        for a in (self.row_of, r, h, p, cdf, starts, self._first, self._last):
            a.flags.writeable = False
        self._rows = self._pair_coeffs = self._deltas = self._pattern_tables = None

    @classmethod
    def from_row_map(cls, k: int, row_map: dict) -> "Rule":
        """Build from {F index: [(H index, prob), ...]}; missing rows idle,
        and a key outside [0, 2**C(k,2)) raises NonStochasticRowError."""
        num_graphs = 1 << comb(k, 2)
        for f in row_map:
            if not 0 <= f < num_graphs:
                raise NonStochasticRowError(f, 0.0, f"F index {f} outside [0, {num_graphs})")
        return cls(k, [row_map.get(f, [(f, 1.0)]) for f in range(num_graphs)])

    def replacement_table(self):
        """Read-only arrays (h, cdf, starts) holding every distinct row in order.

        Row r fills entries starts[r] to starts[r + 1] - 1: its H indices,
        ascending, with the running maximum of their cumulative
        probabilities.  `bisect_right(cdf, u, starts[r], starts[r + 1] - 1)`
        picks the replacement, the last entry when rounding leaves the
        row's total short of u.
        """
        return self._table

    def sample_replacements(self, drawn: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Replacement indices for drawn graphs `drawn` and uniform variates `u`:
        `bisect_right(cdf, u, starts[r], starts[r + 1] - 1)` on the row
        r = row_of[F] of each drawn F, run on all at once.  The search
        spans a row's entries only (a variate past the last CDF value stops
        on the last entry), greedily by powers of two from the largest
        down: round r steps 2**r entries past `pos` iff the last of them is
        before the row's last entry and its CDF value is <= u.  On the
        table's nondecreasing CDF that is bisect_right's index, in
        bit_length(longest row - 1) rounds, none for a deterministic rule.
        """
        h, cdf, _ = self._table
        pos = self._first[drawn]
        if self._rounds:
            last = self._last[drawn]
            for r in range(self._rounds - 1, -1, -1):
                at = pos + ((1 << r) - 1)
                pos += ((cdf.take(at, mode="clip") <= u) & (at < last)) << r
        return h[pos]

    @property
    def rows(self) -> list:
        """Per graph F, its row as (H, p) pairs sorted by H; graphs of one distinct row share a list."""
        if self._rows is None:
            _, h, p = self._entries
            cut = self._table[2][1:-1]  # each row's first entry but the first row's
            distinct = [list(zip(a.tolist(), b.tolist())) for a, b in zip(np.split(h, cut), np.split(p, cut))]
            self._rows = [distinct[i] for i in self.row_of.tolist()]
        return self._rows

    def __repr__(self):
        return f"Rule(k={self.k}, graphs={self.num_graphs})"


def validate(rule: Rule) -> None:
    """Check row-stochasticity.  NonStochasticRowError names the first bad
    entry in F order (an H index out of range, a duplicate H index or a
    probability outside [0, 1], checked in that order), else the first F
    whose row sum is farthest from 1, if farther than PROB_TOL."""
    r, h, p = rule._entries
    repeat = np.concatenate(([False], (h[1:] == h[:-1]) & (r[1:] == r[:-1])))
    faults = np.stack(((h < 0) | (h >= rule.num_graphs), repeat, ~((p >= -PROB_TOL) & (p <= 1 + PROB_TOL))))
    bad = faults.any(axis=0)
    if bad.any():
        f = int(np.argmax(np.isin(rule.row_of, r[bad])))  # the first F drawing a bad row
        e = int(np.argmax(bad & (r == rule.row_of[f])))
        detail = (f"H index {h[e]} out of range", f"duplicate H index {h[e]}", f"probability {float(p[e])} outside [0, 1]")
        raise NonStochasticRowError(f, 0.0, detail[int(np.argmax(faults[:, e]))])
    residual = np.abs(_row_sums(rule, p[:, None])[:, 0] - 1.0)[rule.row_of]  # the sums, not the CDF's running maximum
    f = int(np.argmax(residual))
    if residual[f] > PROB_TOL:
        raise NonStochasticRowError(f, float(residual[f]))


# ---------------------------------------------------------------------------
# Derived tables


def _row_sums(rule: Rule, terms: np.ndarray) -> np.ndarray:
    """(distinct rows, c) sums of the entry rows of `terms` (entries, c),
    added in entry order as a loop over each row would add them."""
    r = rule._entries[0]
    nrows, c = len(rule._table[2]) - 1, terms.shape[1]
    bins = r[:, None] * c + np.arange(c)
    return np.bincount(bins.ravel(), weights=terms.ravel(), minlength=nrows * c).reshape(nrows, c)


def _edge_bits(graphs: np.ndarray, npairs: int) -> np.ndarray:
    """(len(graphs), npairs) 0/1 pair indicators of graph indices."""
    return (graphs[:, None] >> np.arange(npairs)) & 1


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
    _, h, p = rule._entries
    # per distinct row and pair position, the sums of p * (h_pos - f_pos)
    # for an F without the pair and with it; p * 0 adds an exact zero
    # where the pair is unchanged
    h_bits = _edge_bits(h, npairs)
    terms = np.stack((p[:, None] * h_bits, p[:, None] * (h_bits - 1)), axis=2)
    sums = _row_sums(rule, terms.reshape(len(h), -1)).reshape(-1, npairs, 2)[rule.row_of]
    f_bits = _edge_bits(np.arange(rule.num_graphs), npairs)
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
    _, h, p = rule._entries
    ells = np.arange(npairs + 1)
    # per distinct row and edge count ell, the sum of p * (e(H) - ell);
    # then per ell the sum over its graphs F in index order
    change = _row_sums(rule, p[:, None] * (_edge_bits(h, npairs).sum(axis=1)[:, None] - ells))
    f_ell = _edge_bits(np.arange(rule.num_graphs), npairs).sum(axis=1)
    sums = np.bincount(f_ell, weights=change[rule.row_of, f_ell], minlength=npairs + 1)
    out = sums / np.array([comb(npairs, ell) for ell in range(npairs + 1)], dtype=float)
    out.flags.writeable = False
    rule._deltas = out
    return out


def is_trivial(rule: Rule) -> bool:
    """True iff every drawn graph is idle (replaced by itself w.p. 1)."""
    return len(idle_graphs(rule)) == rule.num_graphs


def idle_graphs(rule: Rule) -> set[int]:
    """Indices F with R[F][F] = 1 (up to probability tolerance)."""
    r, h, p = rule._entries
    # entries (H, p ~ 1) in a row that graph H draws
    idle = (h >= 0) & (h < rule.num_graphs) & (np.abs(p - 1.0) <= PROB_TOL)
    idle[idle] = rule.row_of[h[idle]] == r[idle]
    return set(h[idle].tolist())


# ---------------------------------------------------------------------------
# Builders for the example rule families


def _deterministic_rule(k: int, targets) -> Rule:
    """Each drawn graph F is replaced by targets[F]; graphs with one target share a row."""
    point = {h: [(h, 1.0)] for h in set(targets)}
    return Rule(k, list(map(point.__getitem__, targets)))


def erdos_renyi_rule() -> Rule:
    """Order 2: every drawn pair becomes an edge."""
    return _deterministic_rule(2, [1, 1])


def triangle_removal_rule() -> Rule:
    """Order 3: a drawn triangle loses all edges; everything else idles."""
    return removal_rule(LabeledGraph.from_index(3, 0b111))


def removal_rule(pattern: LabeledGraph) -> Rule:
    """Drawn supergraphs of `pattern` lose its edges; others idle."""
    k, fbits = pattern.k, pattern.edges
    _check_builder_order(k)
    return _deterministic_rule(k, [h & ~fbits if h & fbits == fbits else h for h in range(1 << comb(k, 2))])


def complementing_rule(k: int) -> Rule:
    """Each drawn graph is replaced by its complement."""
    _check_builder_order(k)
    full = (1 << comb(k, 2)) - 1
    return _deterministic_rule(k, [full ^ f for f in range(full + 1)])


def component_completion_rule(k: int) -> Rule:
    """Each drawn graph is replaced by its component closure."""
    _check_builder_order(k)
    return _deterministic_rule(k, [component_closure(LabeledGraph(k, f)).edges for f in range(1 << comb(k, 2))])


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
    edges = [f.bit_count() for f in range(full + 1)]
    return _deterministic_rule(k, [full if e > half else 0 if e < half else f for f, e in enumerate(edges)])


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


def _check_builder_order(k: int) -> None:
    check_order(k)
    if k > MAX_BUILDER_ORDER:
        raise UnsupportedOrderError(
            f"dense builders are limited to k <= {MAX_BUILDER_ORDER}; supply k = 6 rules via sparse rule files"
        )


# ---------------------------------------------------------------------------
# Rule files (JSON, normative):
#   { "k": int, "rows": [ [F_index, [[H_index, prob], ...]], ... ] }
# Omitted rows default to identity (idle).  The writer emits one line,
# rows sorted by F index and entries sorted by H index.


def save_rule(rule: Rule, path) -> None:
    payload = {"k": rule.k, "rows": [[f, row] for f, row in enumerate(rule.rows) if row != [(f, 1.0)]]}  # idle rows are implicit
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload) + "\n")  # one call, so the C encoder runs; json.dump never uses it


def load_rule(path) -> Rule:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        k = int(payload["k"])
    except (KeyError, TypeError, ValueError):
        raise ConfigError([f"rule file {path} needs an integer 'k'"]) from None
    check_order(k)
    try:
        rows = {int(f): tuple((int(h), float(p)) for h, p in entries) for f, entries in payload["rows"]}
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ConfigError([f"rule file {path} needs 'rows' listing [F, [[H, p], ...]] entries"]) from None
    distinct = {row: list(row) for row in rows.values()}  # equal rows as one object: one row of the rule
    try:
        rule = Rule.from_row_map(k, {f: distinct[row] for f, row in rows.items()})
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


# Each family a spec names: its head, its builder and the number of
# integer arguments that follow the head
_FAMILIES = {
    "removal": (lambda k, f: removal_rule(LabeledGraph.from_index(k, f)), 2),
    "complementing": (complementing_rule, 1),
    "component-completion": (component_completion_rule, 1),
    "stirring-firm": (lambda k: stirring_rule(k, "firm"), 1),
    "stirring-loose": (lambda k: stirring_rule(k, "loose"), 1),
    "extremist": (extremist_rule, 1),
    "ignorant-uniform": (lambda k: ignorant_rule(k, _uniform_dist(k)), 1),
}
_NAMED = {
    "er": erdos_renyi_rule,
    "triangle-removal": triangle_removal_rule,
    "edge-removal": lambda: removal_rule(LabeledGraph.from_edges(3, [(0, 1)])),
}


def make_rule(spec: str) -> Rule:
    """Build a rule from a CLI spec string.

    Accepts the names ``er``, ``triangle-removal`` and ``edge-removal``
    plus parameterized forms: ``removal:<k>:<F index>``,
    ``complementing:<k>``, ``component-completion:<k>``,
    ``stirring-firm:<k>``, ``stirring-loose:<k>``, ``extremist:<k>``,
    ``ignorant-uniform:<k>``.
    """
    if spec in _NAMED:
        return _NAMED[spec]()
    head, *args = spec.split(":")
    builder, arity = _FAMILIES.get(head, (None, None))
    if len(args) != arity:
        raise ValueError(f"unknown rule spec {spec!r}")
    try:
        return builder(*map(int, args))
    except ValueError as exc:
        raise ValueError(f"bad rule spec {spec!r}: {exc}") from exc


BUILTIN_RULES = {
    **_NAMED,
    **{spec: partial(make_rule, spec) for spec in (
        "complementing:3", "component-completion:3", "stirring-firm:3", "stirring-loose:3",
        "extremist:3", "extremist:4", "extremist:5", "ignorant-uniform:3",
    )},
}
