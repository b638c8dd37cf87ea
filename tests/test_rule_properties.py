"""Rule properties over random rules: shared rows, unsorted entries, idle defaults.

A rule of order 2 to 5 is drawn as a few distinct rows, each of one to
33 entries (up to six search rounds) in random order (a one-entry row is
a point mass, idle for the graph it names), and each graph is given one
of them.  The rows go either to
`Rule` directly, one object per distinct row, or through
`Rule.from_row_map`, where some graphs get no row and idle.  Each check
compares the array code with a plain loop over the sorted rows.
"""

import json
import tempfile
from bisect import bisect_right
from itertools import accumulate
from math import comb
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flipflow import Rule, deltas, idle_graphs, load_rule, pair_coefficients, save_rule

from conftest import brute_pair_coefficients

PROPERTY = settings(max_examples=100, deadline=None, database=None)


@st.composite
def random_rules(draw):
    """(rule, rows): a random rule and, per graph, its row sorted by (H, p)."""
    k = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ngraphs = 1 << comb(k, 2)
    distinct = []
    for _ in range(draw(st.integers(1, 6))):
        targets = rng.choice(ngraphs, size=int(rng.integers(1, min(33, ngraphs) + 1)), replace=False)
        distinct.append(list(zip(targets.tolist(), rng.dirichlet(np.ones(len(targets))).tolist())))
    pick = rng.integers(len(distinct), size=ngraphs)
    if draw(st.booleans()):
        given_rows = {f: distinct[pick[f]] for f in range(ngraphs) if rng.random() < 0.7}
        rule = Rule.from_row_map(k, given_rows)
        rows = [given_rows.get(f, [(f, 1.0)]) for f in range(ngraphs)]
    else:
        rows = [distinct[r] for r in pick]
        rule = Rule(k, rows)
    return rule, [sorted(row) for row in rows]


@PROPERTY
@given(random_rules(), st.integers(0, 2**32 - 1))
def test_sampling_is_bisect_right_on_each_row(case, seed):
    rule, rows = case
    assert rule.rows == rows
    rng = np.random.default_rng(seed)
    drawn, u = [], []
    for f, row in enumerate(rows):
        # random variates, every CDF value (the ties) and both ends
        draws = [*rng.random(3).tolist(), *accumulate(p for _, p in row), 0.0, float(np.nextafter(1, 0))]
        drawn += [f] * len(draws)
        u += draws
    got = rule.sample_replacements(np.array(drawn), np.array(u)).tolist()
    for f, x, h in zip(drawn, u, got):
        row = rows[f]
        cdf = list(accumulate(p for _, p in row))
        assert h == row[min(bisect_right(cdf, x), len(row) - 1)][0]


@PROPERTY
@given(random_rules())
def test_pair_coefficients_equal_the_entry_loop(case):
    rule, _ = case
    assert np.array_equal(pair_coefficients(rule), brute_pair_coefficients(rule))


@PROPERTY
@given(random_rules())
def test_deltas_and_idle_graphs_equal_loops_over_the_rows(case):
    rule, rows = case
    npairs = comb(rule.k, 2)
    sums = np.zeros(npairs + 1)
    for f, row in enumerate(rows):
        ell = f.bit_count()
        sums[ell] += sum(p * (h.bit_count() - ell) for h, p in row)
    counts = np.array([comb(npairs, ell) for ell in range(npairs + 1)], dtype=float)
    assert np.array_equal(deltas(rule), sums / counts)
    idle = {f for f, row in enumerate(rows) for h, p in row if h == f and abs(p - 1.0) <= 1e-12}
    assert idle_graphs(rule) == idle


def _slots(rule: Rule, f: int):
    """Graph f's row in the table: its targets and CDF values."""
    targets, cdf, starts = rule.replacement_table()
    row = slice(starts[rule.row_of[f]], starts[rule.row_of[f] + 1])
    return targets[row].tolist(), cdf[row].tolist()


@PROPERTY
@given(random_rules())
def test_rule_files_round_trip_rows_and_table(case):
    rule, rows = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rule.json"
        save_rule(rule, path)
        listed = [f for f, _ in json.loads(path.read_text())["rows"]]
        loaded = load_rule(path)
    # idle rows [(F, 1.0)] are left out
    assert listed == [f for f, row in enumerate(rows) if row != [(f, 1.0)]]
    assert loaded.rows == rows
    assert all(_slots(rule, f) == _slots(loaded, f) for f in range(rule.num_graphs))
