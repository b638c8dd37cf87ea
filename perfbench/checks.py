"""Output checks for the benchmark, computed apart from flipflow.

Every function here takes plain numbers or numpy arrays, never flipflow
objects, and raises `CheckError` with a message when an output is wrong.
The reference values (closed-form trajectories, the constant-graphon
velocity, brute-force cut norms, induced densities by tensor
contraction) are computed from the rule's rows and the graphon's masses
and values alone, so a fault in the program cannot hide in its own
cross-checks.
"""

from __future__ import annotations

import csv
import math
from itertools import combinations

import numpy as np


class CheckError(Exception):
    """An output failed a correctness check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Closed forms


def er_density(d0: float, t: float) -> float:
    """Erdos-Renyi flow from the constant d0: 1 - (1 - d0) e^(-2t)."""
    return 1.0 - (1.0 - d0) * math.exp(-2.0 * t)


def triangle_removal_density(d0: float, t: float) -> float:
    """Triangle-removal flow from the constant d0 > 0: d' = -6 d^3."""
    return (d0**-2 + 12.0 * t) ** -0.5


def pairs_of(k: int) -> list[tuple[int, int]]:
    """Pair positions in flipflow's bit order: (0,1), (0,2), ..., (k-2,k-1)."""
    return list(combinations(range(k), 2))


def edge_change_by_graph(rows) -> np.ndarray:
    """E[e(H) - e(F)] for each drawn graph F, from sparse rule rows."""
    out = np.empty(len(rows))
    for f, row in enumerate(rows):
        ell = f.bit_count()
        out[f] = sum(p * (h.bit_count() - ell) for h, p in row)
    return out


def constant_velocity(change: np.ndarray, c: float) -> float:
    """Velocity on the constant graphon c.

    Every ordered root pair of a drawn pattern sees edge probability c,
    so summing the root-pair terms over the (k)_2 ordered pairs gives
    twice the expected edge-count change of one replacement, with the
    drawn pattern distributed as G(k, c).
    """
    npairs = (len(change) - 1).bit_length()
    edges = np.array([f.bit_count() for f in range(len(change))])
    prob = c**edges * (1.0 - c) ** (npairs - edges)
    return float(2.0 * prob @ change)


# ---------------------------------------------------------------------------
# transference: CSV written by `flipflow transference`

TRANSFERENCE_HEADER = ["t", "cut_dist", "l1_dist", "sim_density", "traj_density"]
CUT_DIST_MAX = 0.06
SIM_DENSITY_TOL = 0.02
TRAJ_TOL = 1e-8


def read_transference_csv(path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(bool(rows) and rows[0] == TRANSFERENCE_HEADER, f"bad CSV header {rows[:1]}")
    data = np.array([[float(x) for x in row] for row in rows[1:]])
    require(data.ndim == 2 and data.shape[1] == 5, f"bad CSV shape {data.shape}")
    return data


def check_transference(data: np.ndarray, times, closed_form=None, conserved=None) -> None:
    """Check transference rows (t, cut_dist, l1_dist, sim_density, traj_density).

    `closed_form(t)` is the known density of the trajectory, if any;
    `conserved` is a density the trajectory must keep exactly.
    """
    require(data.shape[0] == len(times), f"{data.shape[0]} rows, expected {len(times)}")
    require(np.allclose(data[:, 0], times, rtol=0, atol=1e-12), f"checkpoint times {data[:, 0]}")
    require(bool(np.all(np.isfinite(data))), "non-finite value in CSV")
    cut = data[:, 1]
    require(bool(np.all(cut >= 0)) and float(cut.max()) <= CUT_DIST_MAX,
            f"cut_dist {cut.max():.4g} exceeds {CUT_DIST_MAX}")
    require(bool(np.all(data[:, 2] >= cut - 1e-12)), "l1_dist below cut_dist")
    for col in (3, 4):
        require(bool(np.all((data[:, col] >= 0) & (data[:, col] <= 1))), "density outside [0, 1]")
    for t, sim, traj in zip(data[:, 0], data[:, 3], data[:, 4]):
        if closed_form is not None:
            exact = closed_form(t)
            require(abs(traj - exact) <= TRAJ_TOL, f"traj_density {traj!r} != {exact!r} at t={t}")
            require(abs(sim - exact) <= SIM_DENSITY_TOL, f"sim_density {sim!r} far from {exact!r} at t={t}")
        if conserved is not None:
            require(abs(traj - conserved) <= TRAJ_TOL, f"traj_density {traj!r} != conserved {conserved!r}")


# ---------------------------------------------------------------------------
# flow


FLOW_TOL = 1e-8
BAND = 1e-9


def check_graphon_values(values: np.ndarray) -> None:
    require(bool(np.all(np.isfinite(values))), "non-finite graphon value")
    require(float(values.min()) >= -BAND and float(values.max()) <= 1 + BAND,
            f"graphon values in [{values.min()!r}, {values.max()!r}]")
    require(np.array_equal(values, values.T), "graphon not symmetric")


def check_constant_flow(values_by_time, closed_form) -> None:
    """Every cell of every checkpoint equals the closed-form density."""
    for t, values in values_by_time:
        check_graphon_values(values)
        exact = closed_form(t)
        err = float(np.max(np.abs(values - exact)))
        require(err <= FLOW_TOL, f"flow off the closed form by {err:.3g} at t={t}")


def check_conserved_density(values_by_time, masses, density0: float) -> None:
    for t, values in values_by_time:
        check_graphon_values(values)
        dens = float(masses @ values @ masses)
        require(abs(dens - density0) <= FLOW_TOL, f"edge density {dens!r} != {density0!r} at t={t}")


def check_semigroup(deviation: float) -> None:
    require(0 <= deviation <= FLOW_TOL, f"semigroup deviation {deviation!r}")


def check_age(exceeded: bool, age, origin_values, expected_age: float) -> None:
    require(not exceeded and age is not None, "backward age reported as exceeded")
    require(abs(age - expected_age) <= 1e-6, f"age {age!r} != {expected_age!r}")
    require(float(np.max(np.abs(origin_values))) <= 1e-6, f"origin {origin_values} is not 0")


def check_destination(converged: bool, values, target: float) -> None:
    require(converged, "flow did not settle")
    err = float(np.max(np.abs(np.asarray(values) - target)))
    require(err <= 1e-6, f"destination off {target} by {err:.3g}")


# ---------------------------------------------------------------------------
# survey


def induced_density_ref(k: int, edges: int, masses, values) -> float:
    """Induced density of the labeled pattern by one tensor contraction."""
    masses = np.asarray(masses, dtype=float)
    values = np.asarray(values, dtype=float)
    letters = "abcdefgh"[:k]
    operands, subs = [], []
    for v in range(k):
        operands.append(masses)
        subs.append(letters[v])
    for p, (a, b) in enumerate(pairs_of(k)):
        operands.append(values if edges >> p & 1 else 1.0 - values)
        subs.append(letters[a] + letters[b])
    return float(np.einsum(",".join(subs) + "->", *operands, optimize="greedy"))


def check_close(value: float, ref: float, tol: float, what: str) -> None:
    require(math.isfinite(value) and abs(value - ref) <= tol, f"{what} {value!r} != {ref!r}")


def check_pattern_sum(densities) -> None:
    total = float(np.sum(densities))
    require(bool(np.all(np.asarray(densities) >= -1e-15)), "negative induced density")
    require(abs(total - 1.0) <= 1e-9, f"induced densities sum to {total!r}")


def check_velocity(k: int, w_values: np.ndarray, v_values: np.ndarray) -> None:
    """Symmetry and the range bound -(k)_2 W <= V <= (k)_2 (1 - W)."""
    require(bool(np.all(np.isfinite(v_values))), "non-finite velocity")
    require(np.allclose(v_values, v_values.T, rtol=0, atol=1e-12), "velocity not symmetric")
    kk = k * (k - 1)
    slack = 1e-12
    require(bool(np.all(v_values >= -kk * w_values - slack)), "velocity below -(k)_2 W")
    require(bool(np.all(v_values <= kk * (1.0 - w_values) + slack)), "velocity above (k)_2 (1 - W)")


def check_constant_velocity(v_values: np.ndarray, change: np.ndarray, c: float) -> None:
    ref = constant_velocity(change, c)
    err = float(np.max(np.abs(v_values - ref)))
    require(err <= 1e-10, f"velocity at constant {c} off the polynomial by {err:.3g}")


def check_monte_carlo(estimate: float, stderr: float, exact: float) -> None:
    require(math.isfinite(estimate) and stderr > 0, f"bad Monte Carlo estimate {estimate}, {stderr}")
    require(abs(estimate - exact) <= 4.0 * stderr,
            f"Monte Carlo {estimate!r} +- {stderr!r} vs exact {exact!r}")


def cut_norm_brute(masses, values) -> float:
    """max over all row and column subsets S, T of |sum_{S x T} w|."""
    weighted = np.outer(masses, masses) * np.asarray(values)
    m = len(masses)
    subsets = (np.arange(1 << m)[:, None] >> np.arange(m) & 1).astype(float)
    return float(np.max(np.abs(subsets @ weighted @ subsets.T)))


def check_cut_norms(masses, values, exact: float, lower: float) -> None:
    l1 = float(np.sum(np.outer(masses, masses) * np.abs(values)))
    require(lower <= exact + 1e-12, f"lower bound {lower!r} above exact {exact!r}")
    require(exact <= l1 + 1e-12, f"exact {exact!r} above L1 norm {l1!r}")
    if len(masses) <= 8:
        ref = cut_norm_brute(masses, values)
        require(abs(exact - ref) <= 1e-12, f"exact cut norm {exact!r} != brute force {ref!r}")


def check_velocity_field_csv(path, change: np.ndarray) -> None:
    """On the diagonal x = y the two-block graphon is constant x."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(rows[0] == ["x", "y", "vx", "vy"], f"bad header {rows[0]}")
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    require(bool(np.all(np.isfinite(data))), "non-finite velocity-field value")
    diag = data[data[:, 0] == data[:, 1]]
    grid = len(np.unique(data[:, 0]))
    require(len(data) == grid * grid and len(diag) == grid, "velocity-field grid incomplete")
    for x, _, vx, vy in diag:
        ref = constant_velocity(change, x)
        require(abs(vx - ref) <= 1e-10 and abs(vy - ref) <= 1e-10,
                f"velocity field ({vx!r}, {vy!r}) != {ref!r} at x=y={x}")


def check_fixed_points(name: str, roots, change: np.ndarray) -> None:
    roots = list(roots)
    require(bool(roots), f"{name}: no fixed point")
    for r in roots:
        require(0 <= r <= 1, f"{name}: fixed point {r!r} outside [0, 1]")
        require(abs(constant_velocity(change, r)) <= 1e-7, f"{name}: {r!r} is not a root")
    expected = {"er": [1.0], "triangle-removal": [0.0]}.get(name)
    if expected is not None:
        require(len(roots) == 1 and abs(roots[0] - expected[0]) <= 1e-9,
                f"{name}: fixed points {roots}, expected {expected}")
    if name.startswith("extremist:"):
        for want in (0.0, 0.5, 1.0):
            require(any(abs(r - want) <= 1e-9 for r in roots), f"{name}: {want} not a fixed point")
