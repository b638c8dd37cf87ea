"""The benchmark's checks accept right outputs and reject wrong ones.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import flipflow as ff  # noqa: E402
import spans  # noqa: E402
from checks import CheckError  # noqa: E402
from flipflow import cli  # noqa: E402

TIMES = [0.05 / 3, 0.1 / 3, 0.05]


def _transference_rows(closed_form, sim_shift=0.0, traj_shift=0.0, cut=0.01):
    return np.array([[t, cut, 2 * cut, closed_form(t) + sim_shift, closed_form(t) + traj_shift]
                     for t in TIMES])


def _er(t):
    return checks.er_density(0.0, t)


def _graphon(seed, m, lo=0.05, hi=0.95):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(lo, hi, (m, m)))
    return ff.StepGraphon(rng.dirichlet(np.full(m, 2.0)), upper + np.triu(upper, 1).T)


# ---------------------------------------------------------------------------
# references computed apart from flipflow agree with flipflow


def test_closed_forms_match_the_flow():
    for name, form, d0 in (("er", checks.er_density, 0.3), ("triangle-removal", checks.triangle_removal_density, 0.8)):
        w = ff.flow_at(ff.make_rule(name), ff.constant(d0), 0.7)
        assert abs(w.values[0, 0] - form(d0, 0.7)) < 1e-9


def test_constant_velocity_matches_velocity_on_multi_part_constants():
    for name in ("extremist:4", "stirring-loose:3", "triangle-removal", "ignorant-uniform:3"):
        rule = ff.make_rule(name)
        w = ff.StepGraphon([0.2, 0.3, 0.5], np.full((3, 3), 0.37))
        v = ff.velocity(rule, w).values
        checks.check_constant_velocity(v, checks.edge_change_by_graph(rule.rows), 0.37)


def test_induced_density_reference_matches():
    w = _graphon(1, 5)
    for k, edges in ((3, 5), (4, 37), (5, 700)):
        ref = checks.induced_density_ref(k, edges, w.masses, w.values)
        assert abs(ff.induced_density(ff.LabeledGraph(k, edges), w) - ref) < 1e-13


def test_brute_force_cut_norm_matches():
    rng = np.random.default_rng(3)
    upper = np.triu(rng.uniform(-1, 1, (6, 6)))
    kern = ff.StepKernel(rng.dirichlet(np.ones(6)), upper + np.triu(upper, 1).T)
    checks.check_cut_norms(kern.masses, kern.values, ff.cut_norm_exact(kern), ff.cut_norm_lower_bound(kern))


# ---------------------------------------------------------------------------
# every check rejects a wrong output


def test_transference_check():
    checks.check_transference(_transference_rows(_er), TIMES, closed_form=_er)
    with pytest.raises(CheckError, match="cut_dist"):
        checks.check_transference(_transference_rows(_er, cut=0.1), TIMES, closed_form=_er)
    with pytest.raises(CheckError, match="traj_density"):
        checks.check_transference(_transference_rows(_er, traj_shift=1e-6), TIMES, closed_form=_er)
    with pytest.raises(CheckError, match="sim_density"):
        checks.check_transference(_transference_rows(_er, sim_shift=0.03), TIMES, closed_form=_er)
    with pytest.raises(CheckError, match="conserved"):
        checks.check_transference(_transference_rows(lambda t: 0.4, traj_shift=1e-6), TIMES, conserved=0.4)
    with pytest.raises(CheckError, match="times"):
        checks.check_transference(_transference_rows(_er), [0.1, 0.2, 0.3], closed_form=_er)
    bad = _transference_rows(_er)
    bad[1, 3] = np.nan
    with pytest.raises(CheckError, match="non-finite"):
        checks.check_transference(bad, TIMES)


def test_transference_csv_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t,cut,l1_dist,sim_density,traj_density\n0.1,0,0,0,0\n")
    with pytest.raises(CheckError, match="header"):
        checks.read_transference_csv(path)


def test_flow_checks():
    values = np.full((2, 2), checks.er_density(0.2, 0.5))
    checks.check_constant_flow([(0.5, values)], lambda t: checks.er_density(0.2, t))
    with pytest.raises(CheckError, match="closed form"):
        checks.check_constant_flow([(0.5, values + 1e-6)], lambda t: checks.er_density(0.2, t))
    with pytest.raises(CheckError, match="graphon values"):
        checks.check_graphon_values(np.array([[1.0 + 1e-6]]))
    masses = np.array([0.5, 0.5])
    sym = np.array([[0.2, 0.4], [0.4, 0.6]])
    checks.check_conserved_density([(1.0, sym)], masses, 0.4)
    with pytest.raises(CheckError, match="edge density"):
        checks.check_conserved_density([(1.0, sym + 1e-6)], masses, 0.4)
    with pytest.raises(CheckError, match="semigroup"):
        checks.check_semigroup(1e-7)
    checks.check_age(False, 1.0 + 1e-7, np.zeros((1, 1)), 1.0)
    with pytest.raises(CheckError, match="age"):
        checks.check_age(False, 1.0 + 1e-5, np.zeros((1, 1)), 1.0)
    with pytest.raises(CheckError, match="exceeded"):
        checks.check_age(True, None, None, 1.0)
    with pytest.raises(CheckError, match="origin"):
        checks.check_age(False, 1.0, np.full((1, 1), 1e-3), 1.0)
    with pytest.raises(CheckError, match="settle"):
        checks.check_destination(False, np.full((2, 2), 0.5), 0.5)
    with pytest.raises(CheckError, match="destination"):
        checks.check_destination(True, np.full((2, 2), 0.5 + 1e-5), 0.5)


def test_velocity_checks():
    rule = ff.make_rule("extremist:3")
    change = checks.edge_change_by_graph(rule.rows)
    w = _graphon(2, 3)
    v = ff.velocity(rule, w).values
    checks.check_velocity(3, w.values, v)
    skew = v.copy()
    skew[0, 1] += 1e-6
    with pytest.raises(CheckError, match="symmetric"):
        checks.check_velocity(3, w.values, skew)
    with pytest.raises(CheckError, match="below"):
        checks.check_velocity(3, w.values, np.full((3, 3), -6.0))
    with pytest.raises(CheckError, match="above"):
        checks.check_velocity(3, w.values, np.full((3, 3), 6.0))
    const = ff.velocity(rule, ff.constant(0.3)).values
    checks.check_constant_velocity(const, change, 0.3)
    with pytest.raises(CheckError, match="polynomial"):
        checks.check_constant_velocity(const + 1e-6, change, 0.3)


def test_monte_carlo_check():
    checks.check_monte_carlo(0.10, 0.01, 0.13)
    with pytest.raises(CheckError, match="Monte Carlo"):
        checks.check_monte_carlo(0.10, 0.01, 0.15)


def test_density_checks():
    checks.check_pattern_sum([0.25, 0.75])
    with pytest.raises(CheckError, match="sum"):
        checks.check_pattern_sum([0.25, 0.74])
    with pytest.raises(CheckError, match="induced density"):
        checks.check_close(0.5 + 1e-9, 0.5, 1e-12, "induced density")


def test_cut_norm_checks():
    masses = np.array([0.5, 0.5])
    values = np.array([[0.4, -0.2], [-0.2, 0.1]])
    exact = checks.cut_norm_brute(masses, values)
    checks.check_cut_norms(masses, values, exact, exact - 0.01)
    with pytest.raises(CheckError, match="lower bound"):
        checks.check_cut_norms(masses, values, exact, exact + 0.01)
    with pytest.raises(CheckError, match="brute force"):
        checks.check_cut_norms(masses, values, exact - 0.01, exact - 0.02)
    with pytest.raises(CheckError, match="L1"):
        checks.check_cut_norms(masses, values, 1.0, 0.0)


def test_velocity_field_check(tmp_path):
    out = tmp_path / "vf.csv"
    assert cli.main(["velocity-field", "--rule", "extremist:3", "--grid", "5", "--out", str(out)]) == 0
    change = checks.edge_change_by_graph(ff.make_rule("extremist:3").rows)
    checks.check_velocity_field_csv(out, change)
    lines = out.read_text().splitlines()
    x, y, vx, vy = (float(v) for v in lines[1 + 5 + 1].split(","))  # the cell x = y = 0.25
    assert x == y
    lines[1 + 5 + 1] = ",".join(repr(v) for v in (x, y, vx + 1e-6, vy))
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckError, match="velocity field"):
        checks.check_velocity_field_csv(out, change)


def test_fixed_point_checks():
    for name in ("er", "triangle-removal", "extremist:3", "extremist:5"):
        rule = ff.make_rule(name)
        checks.check_fixed_points(name, ff.constant_fixed_points(rule), checks.edge_change_by_graph(rule.rows))
    er = checks.edge_change_by_graph(ff.make_rule("er").rows)
    with pytest.raises(CheckError, match="expected"):
        checks.check_fixed_points("er", [1.0, 1.0 - 1e-12], er)
    with pytest.raises(CheckError, match="not a root"):
        checks.check_fixed_points("er", [0.5], er)
    ex = checks.edge_change_by_graph(ff.make_rule("extremist:3").rows)
    with pytest.raises(CheckError, match="0.5 not a fixed point"):
        checks.check_fixed_points("extremist:3", [0.0, 1.0], ex)


# ---------------------------------------------------------------------------
# bit-reproducibility of seeded CLI runs, and the metric list


@pytest.mark.parametrize("mode, extra", [
    ("simulate", ["--steps", "20000", "--checkpoints", "5"]),
    ("transference", ["--t-end", "0.02", "--checkpoints", "3"]),
])
def test_seeded_cli_runs_are_byte_identical(tmp_path, mode, extra):
    outputs = []
    for name in ("a.csv", "b.csv"):
        argv = [mode, "--rule", "extremist:3", "--init", "two-block:0.5,0.5,0.95,0.95,0.18",
                "--n", "300", "--seed", "11", "--out", str(tmp_path / name)] + extra
        assert cli.main(argv) == 0
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1] and len(outputs[0]) > 100


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {"setup_s", "wall_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb"}
    assert {m["name"] for m in spec["end_to_end"]} == end_to_end
    layers = spans.layer_metrics([], {}, 1, {}, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}
    assert all(math.isfinite(v) for v, _ in layers.values())
