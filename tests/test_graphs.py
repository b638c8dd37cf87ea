import numpy as np
import pytest

from flipflow import (
    InvalidTupleError,
    LabeledGraph,
    SimGraph,
    UnsupportedOrderError,
    component_closure,
    enumerate_graphs,
)
from flipflow.graphs import pair_list, pair_position

from conftest import graph_components, graph_from_edges, induced_pattern, raises_exactly


def test_enumeration_sizes():
    assert len(enumerate_graphs(2)) == 2
    assert len(enumerate_graphs(3)) == 8
    assert len(enumerate_graphs(4)) == 64


@pytest.mark.parametrize("k", [0, 1, 7, 10])
def test_order_bounds_rejected(k):
    with pytest.raises(UnsupportedOrderError):
        enumerate_graphs(k)


def test_canonical_index_round_trip():
    for k in (2, 3, 4, 5):
        for i, g in enumerate(enumerate_graphs(k)):
            assert g.edges == i
            assert LabeledGraph.from_index(k, i).edges == g.edges


def test_pair_layout_lexicographic():
    assert pair_list(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    for k in (2, 3, 4, 5, 6):
        for p, (a, b) in enumerate(pair_list(k)):
            assert pair_position(k, a, b) == p
            assert pair_position(k, b, a) == p


def test_component_closure():
    path = LabeledGraph.from_edges(3, [(0, 1), (1, 2)])
    assert component_closure(path).edges == 0b111
    lone_edge = LabeledGraph.from_edges(4, [(0, 1)])
    assert component_closure(lone_edge) == lone_edge
    for g in (g for k in range(2, 6) for g in enumerate_graphs(k)):
        closed = component_closure(g)
        assert component_closure(closed) == closed  # idempotent
        assert closed.edges & g.edges == g.edges  # edge set grows
        count = graph_components(g)
        assert graph_components(closed) == count
        # each missing pair joins two components, so every component is a clique
        missing = [p for p in range(len(pair_list(g.k))) if not closed.edges >> p & 1]
        assert all(graph_components(LabeledGraph(g.k, closed.edges | 1 << p)) == count - 1 for p in missing)


def test_induced_pattern():
    n = 6
    complete = SimGraph(n, 1 - np.eye(n, dtype=np.uint8))
    assert induced_pattern(complete, (0, 3, 5)).edges == 0b111
    empty = SimGraph(n)
    assert induced_pattern(empty, (1, 2, 4)).edges == 0
    # a single edge {u, v} with tuple (u, v, w) maps to the pattern with
    # only its first pair set
    g = graph_from_edges(n, [(2, 4)])
    assert induced_pattern(g, (2, 4, 0)).edge_pairs() == [(0, 1)]
    assert induced_pattern(g, (4, 2, 0)).edge_pairs() == [(0, 1)]
    assert induced_pattern(g, (2, 0, 4)).edge_pairs() == [(0, 2)]


def test_tuple_order_matters():
    g = graph_from_edges(5, [(0, 1), (1, 2)])
    a = induced_pattern(g, (0, 1, 2))
    b = induced_pattern(g, (2, 1, 0))
    assert a.edge_pairs() == [(0, 1), (1, 2)]
    assert b.edge_pairs() == [(0, 1), (1, 2)]
    c = induced_pattern(g, (1, 0, 2))
    assert c.edge_pairs() == [(0, 1), (0, 2)]


def test_pair_position_needs_distinct_vertices():
    with raises_exactly(InvalidTupleError, "pair requires distinct vertices, got (2, 2)"):
        pair_position(4, 2, 2)


@pytest.mark.parametrize("edges", [8, -1])
def test_edge_bitset_outside_the_order_is_rejected(edges):
    with raises_exactly(ValueError, f"edge bitset {edges} out of range for order 3"):
        LabeledGraph(3, edges)
