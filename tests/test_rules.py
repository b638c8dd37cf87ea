import itertools
import re
from bisect import bisect_right
from itertools import accumulate
from math import comb

import numpy as np
import pytest

from flipflow import (
    BUILTIN_RULES,
    ConfigError,
    LabeledGraph,
    NonFiniteValueError,
    NonStochasticRowError,
    Rule,
    UnsupportedOrderError,
    complementing_rule,
    component_completion_rule,
    deltas,
    erdos_renyi_rule,
    extremist_rule,
    idle_graphs,
    ignorant_rule,
    is_trivial,
    load_rule,
    make_rule,
    pair_coefficients,
    removal_rule,
    save_rule,
    stirring_rule,
    triangle_removal_rule,
    validate,
)
from flipflow.graphs import pair_position

from conftest import brute_pair_coefficients, random_rule


def identity_rule(k):
    return Rule(k, [[(f, 1.0)] for f in range(1 << comb(k, 2))])


def test_validate():
    validate(identity_rule(3))
    validate(erdos_renyi_rule())
    bad = Rule(2, [[(0, 0.999)], [(1, 1.0)]])
    with pytest.raises(NonStochasticRowError) as err:
        validate(bad)
    assert err.value.row == 0
    assert abs(err.value.residual - 0.001) < 1e-15


def test_validate_rejects_nan_probability():
    with pytest.raises(NonStochasticRowError) as err:
        validate(Rule(2, [[(0, float("nan"))], [(1, 1.0)]]))
    assert err.value.row == 0
    assert isinstance(err.value, ValueError)


def test_erdos_renyi_rule():
    er = erdos_renyi_rule()
    assert er.rows[0] == [(1, 1.0)]
    assert er.rows[1] == [(1, 1.0)]
    coeff = pair_coefficients(er)
    assert coeff[0, 0] == 1.0  # empty pattern gains the edge
    assert coeff[1, 0] == 0.0  # the edge pattern is unchanged


def test_triangle_removal_rule():
    tr = triangle_removal_rule()
    assert tr.rows[0b111] == [(0, 1.0)]
    cherry = LabeledGraph.from_edges(3, [(0, 1), (0, 2)])
    assert tr.rows[cherry.edges] == [(cherry.edges, 1.0)]
    assert np.allclose(deltas(tr), [0, 0, 0, -3])
    assert idle_graphs(tr) == set(range(8)) - {0b111}


def test_removal_rule():
    tri = LabeledGraph.from_index(3, 0b111)
    assert removal_rule(tri).rows == triangle_removal_rule().rows
    empty = LabeledGraph.from_index(3, 0)
    assert is_trivial(removal_rule(empty))
    edge = LabeledGraph.from_edges(3, [(0, 1)])
    rule = removal_rule(edge)
    cherry = LabeledGraph.from_edges(3, [(0, 1), (0, 2)])
    rest = LabeledGraph.from_edges(3, [(0, 2)])
    assert rule.rows[cherry.edges] == [(rest.edges, 1.0)]
    # pointwise non-increasing: support only on subgraphs of the drawn graph
    for f, row in enumerate(rule.rows):
        for h, p in row:
            if p > 0:
                assert h & f == h


def test_complementing_rule():
    comp = complementing_rule(3)
    assert comp.rows[0] == [(0b111, 1.0)]
    k = 4
    npairs = comb(k, 2)
    assert np.allclose(deltas(complementing_rule(k)), [npairs - 2 * ell for ell in range(npairs + 1)])
    coeff = pair_coefficients(comp)
    for f in range(8):
        for p in range(3):
            expect = -1.0 if f >> p & 1 else 1.0
            assert coeff[f, p] == expect
    assert idle_graphs(comp) == set()


def test_component_completion_rule():
    rule = component_completion_rule(3)
    path = LabeledGraph.from_edges(3, [(0, 1), (1, 2)])
    assert rule.rows[path.edges] == [(0b111, 1.0)]
    # disjoint cliques are already closed, hence idle
    two_cliques = LabeledGraph.from_edges(4, [(0, 1), (2, 3)])
    rule4 = component_completion_rule(4)
    assert rule4.rows[two_cliques.edges] == [(two_cliques.edges, 1.0)]
    assert deltas(rule)[0] == 0.0


def test_stirring_rules():
    firm2 = stirring_rule(2, "firm")
    assert firm2.rows == [[(0, 1.0)], [(1, 1.0)]]
    for k in (3, 4):
        for variant in ("firm", "loose"):
            rule = stirring_rule(k, variant)
            validate(rule)
            assert np.allclose(deltas(rule), 0.0, atol=1e-12)
        # loose: row F is the binomial law with p = e(F) / C(k,2)
        npairs = comb(k, 2)
        loose = stirring_rule(k, "loose")
        for f in range(1 << npairs):
            p = f.bit_count() / npairs
            binomial = [
                (h, p ** h.bit_count() * (1 - p) ** (npairs - h.bit_count()))
                for h in range(1 << npairs)
            ]
            assert loose.rows[f] == [(h, q) for h, q in binomial if q > 0.0]
    # firm: support preserves the edge count exactly
    firm = stirring_rule(4, "firm")
    for f, row in enumerate(firm.rows):
        for h, p in row:
            if p > 0:
                assert h.bit_count() == f.bit_count()
    with pytest.raises(ValueError):
        stirring_rule(3, "warm")


def test_extremist_rule():
    ext = extremist_rule(3)
    cherry = LabeledGraph.from_edges(3, [(0, 1), (0, 2)])
    assert ext.rows[cherry.edges] == [(0b111, 1.0)]
    edge = LabeledGraph.from_edges(3, [(0, 1)])
    assert ext.rows[edge.edges] == [(0, 1.0)]
    ext4 = extremist_rule(4)
    for f in range(64):
        if f.bit_count() == 3:  # exactly half of C(4,2)
            assert ext4.rows[f] == [(f, 1.0)]


def test_ignorant_rule():
    point_mass = np.array([0.0, 1.0])
    assert ignorant_rule(2, point_mass).rows == erdos_renyi_rule().rows
    uniform = np.full(8, 1 / 8)
    rule = ignorant_rule(3, uniform)
    validate(rule)
    with pytest.raises(NonStochasticRowError):
        ignorant_rule(3, np.full(8, 0.1))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_ignorant_rule_rejects_non_finite_distribution(bad):
    with pytest.raises(NonFiniteValueError):
        ignorant_rule(2, [bad, bad])
    with pytest.raises(NonFiniteValueError):
        ignorant_rule(3, [bad] + [1 / 7] * 7)


def test_vectorised_sampler_matches_bisect_right(rng):
    tie = Rule(2, [[(0, 0.5), (1, 0.5)], [(1, 1.0)]])
    short = Rule(3, [[(0, 0.25), (5, 0.25), (6, 0.4999999999995)]] + [[(7, 1.0)]] * 7)
    assert abs(sum(p for _, p in short.rows[0]) - (1 - 5e-13)) < 1e-16
    rules = [builder() for builder in BUILTIN_RULES.values()] + [random_rule(rng, 3), tie, short]
    for rule in rules:
        drawn, u = [], []
        for f, row in enumerate(rule.rows):
            cdf = list(accumulate(p for _, p in row))
            # random variates, every CDF value exactly (the tie cases) and
            # the largest variate below 1
            draws = np.concatenate([rng.random(8), cdf, [0.0, np.nextafter(1, 0)]])
            drawn += [f] * len(draws)
            u += draws.tolist()
        got = rule.sample_replacements(np.array(drawn), np.array(u))
        for f, x, h in zip(drawn, u, got):
            row = rule.rows[f]
            cdf = list(accumulate(p for _, p in row))
            assert h == row[min(bisect_right(cdf, x), len(row) - 1)][0]
    # a tie at u = 0.5 moves past the first half of the row, as in the simulator
    assert tie.sample_replacements(np.array([0]), np.array([0.5])).tolist() == [1]
    # a variate above a row total that rounding left short of 1 draws the last H
    assert short.sample_replacements(np.array([0]), np.array([np.nextafter(1, 0)])).tolist() == [6]


def test_replacement_table_grows_with_the_rows():
    # order 6: drawn graph 0 is replaced by a uniform random graph, every
    # other row idles; a table padded to the longest row would need
    # 2**15 x 2**15 slots (17 GB)
    n = 1 << 15
    rule = Rule.from_row_map(6, {0: [(h, 1.0 / n) for h in range(n)]})
    targets, cdf, starts = rule.replacement_table()
    size = sum(len(row) for row in rule.rows)
    assert size == n + (n - 1)
    assert len(targets) == len(cdf) == starts[-1] == size
    assert len(starts) == n + 1
    got = rule.sample_replacements(np.array([0, 0, 0, 9]), np.array([0.0, 0.5, np.nextafter(1, 0), 0.7]))
    assert got.tolist() == [0, n // 2, n - 1, 9]


def test_rule_rejects_an_empty_row(tmp_path):
    with pytest.raises(NonStochasticRowError, match="empty row") as err:
        Rule(2, [[], [(1, 1.0)]])
    assert err.value.row == 0
    path = tmp_path / "rule.json"
    path.write_text('{"k": 2, "rows": [[1, []]]}')
    with pytest.raises(NonStochasticRowError, match="empty row"):
        load_rule(path)


def test_pair_coefficient_signs_and_trivial():
    assert np.all(pair_coefficients(identity_rule(3)) == 0.0)
    for name, builder in BUILTIN_RULES.items():
        rule = builder()
        coeff = pair_coefficients(rule)
        npairs = comb(rule.k, 2)
        for f in range(rule.num_graphs):
            for p in range(npairs):
                c = coeff[f, p]
                assert -1 - 1e-12 <= c <= 1 + 1e-12
                if f >> p & 1:
                    assert c <= 1e-12, (name, f, p)
                else:
                    assert c >= -1e-12, (name, f, p)


def test_pair_coefficients_equal_the_entry_loop(rng):
    rules = [builder() for builder in BUILTIN_RULES.values()]
    rules += [stirring_rule(k, style) for k in (4, 5) for style in ("loose", "firm")]
    rules += [complementing_rule(5)]
    rules += [random_rule(rng, k) for k in (2, 3, 4)] + [random_rule(rng, 5, active=0.1)]
    for rule in rules:
        assert np.array_equal(pair_coefficients(rule), brute_pair_coefficients(rule)), rule


def test_triangle_removal_coefficients_all_ordered_pairs():
    coeff = pair_coefficients(triangle_removal_rule())
    for a in range(3):
        for b in range(3):
            if a != b:
                assert coeff[0b111, pair_position(3, a, b)] == -1.0
    assert np.all(coeff[:0b111] == 0.0)


def test_deltas_examples_and_extremes():
    assert np.allclose(deltas(erdos_renyi_rule()), [1, 0])
    for builder in BUILTIN_RULES.values():
        d = deltas(builder())
        assert d[0] >= -1e-12
        assert d[-1] <= 1e-12


def test_row_stochastic_all_builders():
    for name, builder in BUILTIN_RULES.items():
        validate(builder())


def relabel(k: int, f: int, perm) -> int:
    """Index of graph f with each edge ab moved to perm[a] perm[b]."""
    return sum(1 << pair_position(k, perm[a], perm[b]) for a, b in LabeledGraph(k, f).edge_pairs())


def test_symmetric_builders_commute_with_relabeling():
    cases = [
        complementing_rule(3),
        component_completion_rule(3),
        extremist_rule(3),
        triangle_removal_rule(),
        extremist_rule(4),
    ]
    for rule in cases:
        k = rule.k
        for perm in itertools.permutations(range(k)):
            for f in range(rule.num_graphs):
                pf = relabel(k, f, perm)
                for h, p in rule.rows[f]:
                    ph = relabel(k, h, perm)
                    assert dict(rule.rows[pf])[ph] == p


def test_trivial_and_idle():
    assert is_trivial(identity_rule(3))
    assert not is_trivial(triangle_removal_rule())
    assert idle_graphs(identity_rule(2)) == {0, 1}


def test_rule_file_round_trip(tmp_path):
    for rule in (triangle_removal_rule(), stirring_rule(3, "loose")):
        path = tmp_path / "rule.json"
        save_rule(rule, path)
        loaded = load_rule(path)
        assert loaded.k == rule.k
        for f in range(rule.num_graphs):
            assert [(h, pytest.approx(p)) for h, p in loaded.rows[f]] == [
                (h, pytest.approx(p)) for h, p in rule.rows[f]
            ]


def test_a_loaded_rule_shares_its_equal_rows(tmp_path):
    # stirring-loose:5 draws by edge count: 11 distinct rows for 1,024 graphs
    rule = make_rule("stirring-loose:5")
    path = tmp_path / "rule.json"
    save_rule(rule, path)
    loaded = load_rule(path)
    assert len(np.unique(loaded.row_of)) == len(np.unique(rule.row_of)) == 11
    assert sum(a.nbytes for a in loaded.replacement_table()) <= 1e6
    assert loaded.rows == rule.rows
    grid = np.linspace(0.0, np.nextafter(1.0, 0.0), 33)
    drawn, u = np.repeat(np.arange(rule.num_graphs), len(grid)), np.tile(grid, rule.num_graphs)
    assert np.array_equal(loaded.sample_replacements(drawn, u), rule.sample_replacements(drawn, u))


def test_rule_file_defaults_missing_rows_to_idle(tmp_path):
    path = tmp_path / "rule.json"
    path.write_text('{"k": 3, "rows": [[7, [[0, 1.0]]]]}')
    rule = load_rule(path)
    assert rule.rows == triangle_removal_rule().rows


def test_row_keys_outside_the_graph_range_are_rejected(tmp_path):
    for bad in (99, -1):
        with pytest.raises(NonStochasticRowError, match=f"F index {bad} outside") as err:
            Rule.from_row_map(2, {bad: [(0, 1.0)]})
        assert err.value.row == bad
    path = tmp_path / "rule.json"
    path.write_text('{"k": 2, "rows": [[99, [[0, 1.0]]], [-1, [[1, 1.0]]]]}')
    with pytest.raises(ConfigError, match="F index 99 outside") as err:
        load_rule(path)
    assert str(path) in str(err.value)


def test_h_indices_beyond_int64_are_out_of_range(tmp_path):
    huge = 10**23
    for h in (huge, -huge):
        # the first graph whose row holds one is named, not a later graph
        rows = [[(f, 1.0)] for f in range(8)]
        rows[1] = rows[3] = [(1, 0.5), (h, 0.5)]
        rows[2] = [(h, 1.0)]
        with pytest.raises(NonStochasticRowError, match=f"^rule row 1 is not stochastic .*: H index {h} out of range$") as err:
            Rule(3, rows)
        assert err.value.row == 1
    path = tmp_path / "rule.json"
    path.write_text(f'{{"k": 2, "rows": [[1, [[0, 0.5], [{huge}, 0.5]]]]}}')
    with pytest.raises(NonStochasticRowError, match=f": H index {huge} out of range$") as err:
        load_rule(path)
    assert err.value.row == 1
    # an H index no integer holds names the file
    path.write_text('{"k": 2, "rows": [[1, [[Infinity, 1.0]]]]}')
    with pytest.raises(ConfigError, match="needs 'rows'") as err:
        load_rule(path)
    assert str(path) in str(err.value)


def test_rule_file_rejects_non_stochastic(tmp_path):
    path = tmp_path / "rule.json"
    path.write_text('{"k": 2, "rows": [[0, [[1, 0.5]]]]}')
    with pytest.raises(NonStochasticRowError) as err:
        load_rule(path)
    assert err.value.row == 0


def test_make_rule_specs():
    assert make_rule("er").rows == erdos_renyi_rule().rows
    assert make_rule("extremist:4").rows == extremist_rule(4).rows
    assert make_rule("removal:3:7").rows == triangle_removal_rule().rows
    with pytest.raises(ValueError):
        make_rule("nonsense:9")


def test_dense_builders_reject_order_six():
    from flipflow import UnsupportedOrderError

    with pytest.raises(UnsupportedOrderError):
        complementing_rule(6)
    with pytest.raises(UnsupportedOrderError):
        stirring_rule(6, "firm")


def test_order_six_rule_via_sparse_file(tmp_path):
    # matching removal: drawn supergraphs of a fixed perfect matching
    # lose its three edges, everything else idles; only non-idle rows
    # appear in the file
    import json

    from flipflow import velocity, velocity_poly, eval_poly, constant
    from flipflow.graphs import pair_position

    k = 6
    matching = 0
    for a, b in ((0, 1), (2, 3), (4, 5)):
        matching |= 1 << pair_position(k, a, b)
    free = [p for p in range(comb(k, 2)) if not matching >> p & 1]
    rows = []
    for sub in range(1 << len(free)):
        extra = sum(1 << p for i, p in enumerate(free) if sub >> i & 1)
        f = matching | extra
        rows.append([f, [[f & ~matching, 1.0]]])
    path = tmp_path / "matching6.json"
    path.write_text(json.dumps({"k": 6, "rows": rows}))

    rule = load_rule(path)
    assert rule.num_graphs == 1 << 15
    vel = velocity(rule, constant(0.5)).values[0, 0]
    poly_val = eval_poly(velocity_poly(rule), 0.5)
    assert vel == pytest.approx(poly_val, abs=1e-12)
    # six matched ordered root pairs, each deleted when the whole
    # matching is drawn: -6 * d^3 at a constant graphon
    assert vel == pytest.approx(-6 * 0.5**3, abs=1e-12)


def _held_bytes(rule) -> int:
    """Bytes of every array a rule holds, its table included."""
    arrays = [a for v in vars(rule).values() for a in (v if isinstance(v, tuple) else [v])]
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


@pytest.mark.parametrize("spec", ["stirring-loose:5", "ignorant-uniform:5", "stirring-firm:5", "extremist:5"])
def test_rules_hold_one_table_row_per_distinct_row(spec):
    # stirring and ignorant rules have 11 and 1 distinct rows for 1,024
    # graphs; a table of one row per graph held 16.8 MB at k = 5
    rule = make_rule(spec)
    targets, cdf, starts = rule.replacement_table()
    distinct = {id(row): row for row in rule.rows}
    assert len(starts) == len(distinct) + 1 == rule.row_of.max() + 2
    assert len(targets) == len(cdf) == starts[-1] == sum(len(row) for row in distinct.values())
    assert _held_bytes(rule) <= 1_000_000
    # one entry per row: the sampler runs no bisection round
    assert (rule._rounds == 0) == (spec == "extremist:5")


def test_builders_share_the_rows_of_equal_distributions():
    assert len(set(map(id, extremist_rule(5).rows))) == 2 + comb(10, 5)  # complete, empty, idle
    assert len(set(map(id, triangle_removal_rule().rows))) == 7  # the triangle's row is the empty graph's
    assert len(set(map(id, stirring_rule(5, "loose").rows))) == 11


def test_rule_rejects_a_wrong_row_count_and_entries_that_are_not_pairs():
    with pytest.raises(ValueError, match=r"^expected 8 rows for order 3, got 7$"):
        Rule(3, [[(0, 1.0)]] * 7)
    for rows in ([[(0, 1.0, 5)], [(1, 1.0)]], [[(0, 1.0)], [(1, 0.5), (0,)]], [[(0, 1.0, 5)], [(1, 1.0, 3)]]):
        with pytest.raises(ValueError):
            Rule(2, rows)


@pytest.mark.parametrize(
    "rows, row, detail",
    [
        ([[(0, 1.0)], [(4, 1.0)]], 1, "H index 4 out of range"),
        ([[(-1, 1.0)], [(1, 1.0)]], 0, "H index -1 out of range"),
        ([[(1, 0.5), (0, 0.2), (1, 0.3)], [(1, 1.0)]], 0, "duplicate H index 1"),
        # the first bad entry in F order, by ascending H within a row,
        # and of its faults the first in the order range, duplicate, probability
        ([[(0, 0.4), (1, 0.6)], [(3, 0.5), (0, 1.5)], [(9, 2.0)], [(3, 1.0)]], 1, "probability 1.5 outside"),
        ([[(0, 1.0)], [(1, 1.0)], [(9, 2.0)], [(3, 0.5), (3, 0.5)]], 2, "H index 9 out of range"),
        # an entry fault is named before any row-sum residual
        ([[(0, 0.5)], [(1, 1.0)], [(2, 1.0)], [(3, float("inf"))]], 3, "probability inf outside"),
    ],
)
def test_validate_names_the_first_bad_entry(rows, row, detail):
    k = 2 if len(rows) == 2 else 3
    rows = rows + [[(f, 1.0)] for f in range(len(rows), 1 << comb(k, 2))]
    with pytest.raises(NonStochasticRowError, match=f"^rule row {row} is not stochastic .*: {re.escape(detail)}") as err:
        validate(Rule(k, rows))
    assert err.value.row == row
    assert err.value.residual == 0.0


def test_validate_names_the_first_graph_of_the_worst_shared_row():
    # F 2 and F 4 share a row short by 0.01, F 5 has its own row short by
    # the same amount: F 2 comes first
    short, shorter = [(0, 0.995)], [(5, 0.99)]
    rows = [[(0, 1.0)], short, shorter, short, shorter, [(5, 0.99)], [(6, 1.0)], [(7, 1.0)]]
    with pytest.raises(NonStochasticRowError) as err:
        validate(Rule(3, rows))
    assert err.value.row == 2
    assert abs(err.value.residual - 0.01) < 1e-15


def test_builders_reject_orders_they_cannot_build():
    with pytest.raises(UnsupportedOrderError, match="^dense builders are limited to k <= 5; supply k = 6"):
        removal_rule(LabeledGraph.from_index(6, 1))
    with pytest.raises(UnsupportedOrderError, match="^extremist rule needs k >= 3$"):
        extremist_rule(2)
    with pytest.raises(ValueError, match=r"^distribution must have length 8$"):
        ignorant_rule(3, [0.5, 0.5])


@pytest.mark.parametrize(
    "spec, message",
    [
        ("extremist:x", "bad rule spec 'extremist:x': invalid literal for int() with base 10: 'x'"),
        ("extremist:2", "bad rule spec 'extremist:2': extremist rule needs k >= 3"),
        ("removal:3:8", "bad rule spec 'removal:3:8': edge bitset 8 out of range for order 3"),
        ("stirring-loose:3:1", "unknown rule spec 'stirring-loose:3:1'"),
    ],
)
def test_make_rule_names_a_bad_spec(spec, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)) as err:
        make_rule(spec)
    assert type(err.value) is ValueError
