"""Labeled k-vertex graphs encoded as edge bitsets.

A graph on vertex set {0, ..., k-1} is stored as an integer whose bit
``p(a, b)`` is set iff ab is an edge, where ``p(a, b)`` is the position of
the pair (a, b), a < b, in the lexicographic list

    (0,1), (0,2), ..., (0,k-1), (1,2), ..., (k-2,k-1).

That integer is the graph's canonical index; the full index space for
order k has size 2**C(k,2).  The encoding is normative for rule files and
graphon serialization, so it must stay bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import InvalidTupleError, UnsupportedOrderError

MIN_ORDER = 2
MAX_ORDER = 6


def check_order(k: int) -> None:
    if not MIN_ORDER <= k <= MAX_ORDER:
        raise UnsupportedOrderError(
            f"graph order must be in [{MIN_ORDER}, {MAX_ORDER}], got {k}"
        )


def pair_list(k: int) -> tuple[tuple[int, int], ...]:
    """Vertex pairs (a, b), a < b, in bit-position order."""
    return tuple((a, b) for a in range(k) for b in range(a + 1, k))


def pair_position(k: int, a: int, b: int) -> int:
    """Bit position of the unordered pair {a, b} in the order-k layout."""
    if a == b:
        raise InvalidTupleError(f"pair requires distinct vertices, got ({a}, {b})")
    if a > b:
        a, b = b, a
    # pairs with first vertex < a come first: (k-1) + (k-2) + ... + (k-a)
    return a * k - a * (a + 1) // 2 + (b - a - 1)


@dataclass(frozen=True)
class LabeledGraph:
    """Graph on vertex set {0..k-1} with a canonical integer index."""

    k: int
    edges: int  # bitset over pair_list(k)

    def __post_init__(self):
        check_order(self.k)
        nbits = comb(self.k, 2)
        if not 0 <= self.edges < (1 << nbits):
            raise ValueError(
                f"edge bitset {self.edges} out of range for order {self.k}"
            )

    @classmethod
    def from_index(cls, k: int, index: int) -> "LabeledGraph":
        return cls(k, index)

    @classmethod
    def from_edges(cls, k: int, pairs) -> "LabeledGraph":
        bits = 0
        for a, b in pairs:
            bits |= 1 << pair_position(k, a, b)
        return cls(k, bits)

    def edge_pairs(self) -> list[tuple[int, int]]:
        pairs = pair_list(self.k)
        return [pairs[p] for p in range(len(pairs)) if self.edges >> p & 1]

    def __repr__(self):
        return f"LabeledGraph(k={self.k}, index={self.edges})"


def enumerate_graphs(k: int) -> list[LabeledGraph]:
    """All 2**C(k,2) graphs of order k in canonical-index order."""
    check_order(k)
    return [LabeledGraph(k, i) for i in range(1 << comb(k, 2))]


def component_closure(g: LabeledGraph) -> LabeledGraph:
    """Disjoint union of cliques with the same component structure as g."""
    label = list(range(g.k))
    for a, b in g.edge_pairs():  # merge b's component into a's
        label = [label[a] if x == label[b] else x for x in label]
    return LabeledGraph(g.k, sum(1 << p for p, (a, b) in enumerate(pair_list(g.k)) if label[a] == label[b]))
