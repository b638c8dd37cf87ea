"""Step graphons and kernels on finitely many parts.

A step function is determined by part masses (positive, summing to 1)
and a symmetric value matrix.  Step graphons carry values in [0, 1] up to
a small numeric band; step kernels are unrestricted (velocities and
differences live here).  The module also provides subgraph densities,
cut norms and distances, graph sampling, and the block counts and
block-averaged graphon of a finite simulation graph.

A density sums, over the part of each vertex, a mass per vertex times
a value (or complement) factor per pattern pair.  It eliminates
the last two vertices by one matrix product and broadcasts the others,
so its largest array has m^(k-1) elements.  The exact cut norm reads
every row subset's column sums from a (2^m, m) table that doubles once
per row.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ConfigError, GuardExceededError, MassMismatchError, NonFiniteValueError
from .graphs import LabeledGraph, pair_list

MASS_TOL = 1e-12
VALUE_BAND = 1e-9  # allowed numeric excursion outside [0, 1]

DENSITY_GUARD = 10**8  # maximum m**k assignments a density contracts
CUT_EXACT_GUARD = 14  # maximum part count for exact cut norm
_TILE = 512  # side of the square adjacency tiles mirrored or checked at once
_COUNT_ELEMS = 1 << 16  # adjacency entries whose rows are counted at once, in float32


def check_masses(masses: np.ndarray) -> None:
    if masses.ndim != 1 or len(masses) == 0:
        raise ValueError("masses must be a non-empty 1-d sequence")
    if not np.isfinite(masses).all():
        raise NonFiniteValueError(f"part masses must be finite, got {masses!r}")
    if (masses <= 0).any():
        raise ValueError("all part masses must be positive")
    if abs(masses.sum() - 1.0) > MASS_TOL:
        raise ValueError(f"part masses must sum to 1, got {masses.sum()!r}")


class StepKernel:
    """Symmetric step function with unrestricted real values."""

    def __init__(self, masses, values):
        masses = np.asarray(masses, dtype=float).copy()
        values = np.asarray(values, dtype=float).copy()
        check_masses(masses)
        if values.shape != (len(masses), len(masses)):
            raise ValueError(
                f"values must be {len(masses)}x{len(masses)}, got {values.shape}"
            )
        if not np.isfinite(values).all():
            raise NonFiniteValueError("step function values must be finite")
        if not (np.abs(values - values.T) <= MASS_TOL).all():
            raise ValueError("value matrix must be symmetric")
        masses.flags.writeable = False
        values.flags.writeable = False
        self.masses = masses
        self.values = values

    @property
    def m(self) -> int:
        return len(self.masses)

    def edge_density(self) -> float:
        """Integral of the step function over the whole square."""
        return float(self.masses @ self.values @ self.masses)

    def __repr__(self):
        return f"{type(self).__name__}(m={self.m}, density={self.edge_density():.6g})"


class StepGraphon(StepKernel):
    """Step kernel with values in [0, 1] up to the numeric band."""

    def __init__(self, masses, values, band: float = VALUE_BAND):
        super().__init__(masses, values)
        lo, hi = self.values.min(), self.values.max()
        if lo < -band or hi > 1 + band:
            raise ValueError(
                f"graphon values outside [{-band}, {1 + band}]: range [{lo}, {hi}]"
            )


def constant(d: float) -> StepGraphon:
    """One-part graphon of constant value d."""
    if not 0 <= d <= 1:
        raise ValueError(f"constant graphon value must be in [0, 1], got {d}")
    return StepGraphon(np.array([1.0]), np.array([[float(d)]]))


def two_block(masses, x_diag1: float, x_diag2: float, y_off: float) -> StepGraphon:
    """Two-part graphon with diagonal values x1, x2 and off-diagonal y."""
    for v in (x_diag1, x_diag2, y_off):
        if not 0 <= v <= 1:
            raise ValueError(f"two-block values must be in [0, 1], got {v}")
    values = np.array([[x_diag1, y_off], [y_off, x_diag2]], dtype=float)
    return StepGraphon(np.asarray(masses, dtype=float), values)


# ---------------------------------------------------------------------------
# Densities


def _contract(pattern: LabeledGraph, w: StepKernel, induced: bool) -> float:
    """Sum over part assignments of mass products times pattern factors.

    Each vertex contributes its mass vector and each pattern pair the
    value matrix (an edge), its complement (a non-edge when `induced`) or
    nothing.  One matrix product eliminates the last two vertices, x and
    y: the masses and pairs among the others broadcast into `prefix`, a
    weight over their cells; the pairs reaching x multiply into `to_x`
    and those reaching y into `to_y`, each (cells, m); the sum is
    prefix . rowsum((to_x @ f_xy) * to_y).  The largest array has
    m^(k-1) elements.
    """
    k, m = pattern.k, w.m
    if m**k > DENSITY_GUARD:
        raise GuardExceededError(
            f"density enumeration needs {m}**{k} assignments "
            f"(> {DENSITY_GUARD}); coarsen the graphon first"
        )
    comp = 1.0 - w.values if induced else None
    prefix = np.ones(())
    for _ in range(k - 2):
        prefix = np.multiply.outer(prefix, w.masses)
    to_x = np.ones((m,) * (k - 1))
    to_y = np.ones((m,) * (k - 1))
    f_xy = np.outer(w.masses, w.masses)
    for p, (a, b) in enumerate(pair_list(k)):
        factor = w.values if pattern.edges >> p & 1 else comp
        if factor is None:
            continue
        if a == k - 2:
            f_xy *= factor
            continue
        dims = [1] * (k - 1)
        dims[a], dims[min(b, k - 2)] = m, m
        target = prefix if b < k - 2 else to_x if b == k - 2 else to_y
        target *= factor.reshape(dims[: target.ndim])
    rows = (to_x.reshape(-1, m) @ f_xy) * to_y.reshape(-1, m)
    return float(prefix.reshape(-1) @ rows.sum(axis=1))


def density(pattern: LabeledGraph, w: StepKernel) -> float:
    """Probability-weighted count of edge-respecting vertex placements."""
    return _contract(pattern, w, induced=False)


def induced_density(pattern: LabeledGraph, w: StepKernel) -> float:
    """Like density but non-edges must also be respected."""
    return _contract(pattern, w, induced=True)


# ---------------------------------------------------------------------------
# Norms and distances


def kernel_sub(u: StepKernel, w: StepKernel) -> StepKernel:
    """Entrywise difference of two step functions on the same parts."""
    _require_same_masses(u, w)
    return StepKernel(u.masses, u.values - w.values)


def linf_dist(u: StepKernel, w: StepKernel) -> float:
    _require_same_masses(u, w)
    return float(np.max(np.abs(u.values - w.values)))


def l1_dist(u: StepKernel, w: StepKernel) -> float:
    _require_same_masses(u, w)
    mm = np.outer(u.masses, u.masses)
    return float(np.sum(mm * np.abs(u.values - w.values)))


def _require_same_masses(u: StepKernel, w: StepKernel) -> None:
    if u.m != w.m or not np.allclose(u.masses, w.masses, rtol=0.0, atol=MASS_TOL):
        raise MassMismatchError("step functions live on different part masses")


def cut_norm_exact(k: StepKernel, with_witness: bool = False):
    """Exact cut norm of a step kernel by subset enumeration.

    Exactness on step functions lets the sup over measurable rectangles
    be taken over unions of parts only.  For each row subset S the best
    column subset is the positive (or negative) support of the summed
    rows, so the enumeration is 2^m * m, capped at m = 14.  The (2^m, m)
    table of row sums, indexed by the subset's bits, doubles once per
    row from the last to the first, so each sum adds its rows from the
    highest index down.  The first maximum over the subsets in order,
    the positive part before the negative, is the one reported.
    """
    m = k.m
    if m > CUT_EXACT_GUARD:
        raise GuardExceededError(
            f"exact cut norm enumerates 2**{m} subsets (cap m = {CUT_EXACT_GUARD}); "
            f"use cut_norm_lower_bound instead"
        )
    weighted = np.outer(k.masses, k.masses) * k.values
    row_sums = np.zeros((1, m))
    for row in weighted[::-1]:
        row_sums = np.stack((row_sums, row_sums + row), axis=1).reshape(-1, m)
    pos = np.where(row_sums > 0, row_sums, 0.0).sum(axis=1)
    neg = -np.where(row_sums < 0, row_sums, 0.0).sum(axis=1)
    best_s, side = divmod(int(np.argmax(np.column_stack((pos, neg)))), 2)
    best_pos = side == 0
    best_val = pos[best_s] if best_pos else neg[best_s]
    if not with_witness:
        return float(best_val)
    rows = tuple(i for i in range(m) if best_s >> i & 1)
    sums = row_sums[best_s]
    cols = tuple(
        j for j in range(m) if (sums[j] > 0 if best_pos else sums[j] < 0)
    )
    return float(best_val), (rows, cols)


def cut_norm_lower_bound(k: StepKernel, restarts: int = 64, seed: int = 0) -> float:
    """Randomized local-search lower bound on the cut norm.

    Runs `restarts` greedy searches over (S, T) membership vectors,
    flipping single elements while the rectangle sum improves.  The
    result never exceeds the true cut norm.
    """
    m = k.m
    weighted = np.outer(k.masses, k.masses) * k.values
    rng = np.random.Generator(np.random.Philox(key=seed))
    s = rng.random((restarts, m)) < 0.5
    t = rng.random((restarts, m)) < 0.5
    # even restarts maximize the rectangle sum, odd ones its negation
    sign = np.where(np.arange(restarts) % 2 == 0, 1.0, -1.0)
    w = weighted[None, :, :] * sign[:, None, None]  # (restarts, m, m)
    for _ in range(4 * m * m + 8):
        # gain of flipping row i: (1 - 2 s_i) * sum_j in T of w[i, j]
        row_gain = (1.0 - 2.0 * s) * np.einsum("rij,rj->ri", w, t.astype(float))
        col_gain = (1.0 - 2.0 * t) * np.einsum("rij,ri->rj", w, s.astype(float))
        gains = np.concatenate([row_gain, col_gain], axis=1)
        best = gains.argmax(axis=1)
        best_gain = gains[np.arange(restarts), best]
        improving = best_gain > 1e-15
        if not improving.any():
            break
        idx = best[improving]
        rows_mask = idx < m
        rsel = np.flatnonzero(improving)
        s_rows = rsel[rows_mask]
        s[s_rows, idx[rows_mask]] ^= True
        t_rows = rsel[~rows_mask]
        t[t_rows, idx[~rows_mask] - m] ^= True
    totals = np.einsum("ri,ij,rj->r", s.astype(float), weighted, t.astype(float))
    return float(np.max(np.abs(totals))) if restarts > 0 else 0.0


# ---------------------------------------------------------------------------
# Finite simulation graphs


class SimGraph:
    """Simple graph on n vertices with a dense adjacency matrix.

    `adj` is an n x n uint8 array, symmetric with a zero diagonal, whose
    entry (u, v) is 1 iff uv is an edge; it costs n^2 bytes.  A given `adj`
    is copied once and checked tile by tile.  `part_of` assigns each vertex
    to a part of the step-graphon partition it was sampled from (or any
    caller-chosen grouping).
    """

    def __init__(self, n: int, adj=None, part_of=None):
        self.n = n
        self.adj = np.zeros((n, n), dtype=np.uint8) if adj is None else np.array(adj, dtype=np.uint8)
        if self.adj.shape != (n, n):
            raise ValueError(f"adjacency must be {n}x{n}, got {self.adj.shape}")
        if adj is not None and (self.adj.diagonal().any() or any(
                (self.adj[a, b] > 1).any() or (self.adj[a, b] != self.adj[b, a].T).any() for a, b in _tiles(n))):
            raise ValueError("adjacency must be a symmetric 0/1 matrix with a zero diagonal")
        if part_of is None:
            part_of = [0] * n
        self.part_of = list(int(p) for p in part_of)
        if len(self.part_of) != n:
            raise ValueError("part assignment must cover every vertex")

    @property
    def num_parts(self) -> int:
        return max(self.part_of) + 1 if self.part_of else 0

    def edge_count(self) -> int:
        return int(self.adj.sum()) // 2

    def __repr__(self):
        return f"SimGraph(n={self.n}, edges={self.edge_count()})"


def _tiles(n: int) -> list:
    """(rows, cols) slices of the square tiles on and below the diagonal of an n x n matrix."""
    cuts = [slice(lo, lo + _TILE) for lo in range(0, n, _TILE)]
    return [(a, b) for i, a in enumerate(cuts) for b in cuts[: i + 1]]


def sample_graph(n: int, w: StepGraphon, rng: np.random.Generator) -> SimGraph:
    """Sample an n-vertex graph from a step graphon.

    Each vertex receives an independent mass-distributed part label and
    each pair an independent edge with the block probability, row by row
    straight into the kept adjacency, which is then mirrored tile by tile.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    parts = rng.choice(w.m, size=n, p=w.masses)
    graph = SimGraph(n, part_of=parts.tolist())
    hits, probs, draw = graph.adj.view(bool), w.values[:, parts], np.empty(n)
    for u in range(n - 1):
        np.less(rng.random(out=draw[u + 1 :]), probs[parts[u], u + 1 :], out=hits[u, u + 1 :])
    for a, b in _tiles(n):
        hits[a, b] |= hits[b, a].T
    return graph


def block_counts(adj: np.ndarray, labels, num_labels: int) -> np.ndarray:
    """Ordered block counts onehot^T . adj . onehot of a labelled graph.

    Entry (i, j) counts the ordered vertex pairs (u, v) with u labelled i,
    v labelled j and uv an edge, so an edge inside one block counts twice
    and the matrix is symmetric.  Row blocks count in float32, exact below
    2^24, with no float copy of `adj`; their sum is exact for n^2 < 2^53.
    """
    n = len(labels)
    onehot = np.zeros((n, num_labels), dtype=np.float32)
    onehot[np.arange(n), labels] = 1.0
    step = 1 + _COUNT_ELEMS // (n + 1)
    chunks = (onehot[lo : lo + step].T @ (adj[lo : lo + step] @ onehot) for lo in range(0, n, step))
    return sum(chunks, np.zeros((num_labels, num_labels)))


def block_graphon(counts, sizes, target_masses=None) -> StepGraphon:
    """Block-averaged graphon from ordered block counts and part sizes.

    Dividing ordered counts by the ordered pairs of each block averages
    cross edges off the diagonal and counts both orientations of edges
    inside a part, so a complete part of v vertices averages to 1 - 1/v.
    Masses default to the part frequencies.
    """
    sizes = np.asarray(sizes)
    if (sizes == 0).any():
        empty = int(np.flatnonzero(sizes == 0)[0])
        raise ValueError(f"part {empty} contains no vertices")
    values = np.asarray(counts) / np.outer(sizes, sizes)
    if target_masses is None:
        masses = sizes / sizes.sum()
    else:
        masses = np.asarray(target_masses, dtype=float)
    return StepGraphon(masses, values)


def stepped(graph: SimGraph, target_masses=None) -> StepGraphon:
    """Block-averaged graphon of a simulation graph over its parts.

    Masses default to the empirical part frequencies; pass
    `target_masses` (e.g. those of the trajectory graphon the parts came
    from) to compare step functions on a common partition.
    """
    m = graph.num_parts
    counts = block_counts(graph.adj, graph.part_of, m)
    return block_graphon(counts, np.bincount(graph.part_of, minlength=m), target_masses)


# ---------------------------------------------------------------------------
# Serialization
#
# Step graphon files (JSON, normative): { "masses": [...], "values": [[...]] }.


def save_graphon(w: StepKernel, path) -> None:
    payload = {"masses": w.masses.tolist(), "values": w.values.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_graphon(path) -> StepGraphon:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    arrays = []
    for key in ("masses", "values"):
        try:
            arrays.append(np.asarray(payload[key], dtype=float))
        except (KeyError, TypeError, ValueError):
            raise ConfigError([f"graphon file {path} needs numeric {key!r}"]) from None
    return StepGraphon(*arrays)
