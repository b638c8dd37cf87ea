import dataclasses
import json
import math
import sys
import tracemalloc

import pytest

from flipflow import ConfigError, save_rule, complementing_rule, two_block, velocity, extremist_rule
from flipflow import cli
from flipflow.cli import ExperimentConfig, main, read_csv
from flipflow.csvio import write_csv

from conftest import raises_exactly


def run_cli(args):
    return main(args)


def test_trajectory_subcommand_matches_closed_form(tmp_path, capsys):
    out = tmp_path / "tr.csv"
    code = run_cli(
        ["trajectory", "--rule", "er", "--init", "const:0", "--t-end", "1",
         "--checkpoints", "11", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,cell_1_1"
    row = next(l for l in lines if l.startswith("0.5,"))
    assert float(row.split(",")[1]) == pytest.approx(1 - math.exp(-1), abs=1e-8)


def test_fixed_points_subcommand(capsys):
    assert run_cli(["fixed-points", "--rule", "triangle-removal"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert run_cli(["fixed-points", "--rule", "extremist:3"]) == 0
    printed = capsys.readouterr().out.split()
    assert printed == ["0", "0.5", "1"]


def test_missing_seed_is_a_validation_error(tmp_path, capsys):
    code = run_cli(
        ["simulate", "--rule", "er", "--init", "const:0", "--n", "200",
         "--steps", "100", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1
    assert "--seed is required" in capsys.readouterr().err


def test_bad_rule_file_names_the_row(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"k": 2, "rows": [[1, [[0, 0.25]]]]}')
    code = run_cli(
        ["trajectory", "--rule-file", str(bad), "--init", "const:0.5",
         "--t-end", "0.1", "--out", str(tmp_path / "o.csv")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "row 1" in err


def test_rule_file_with_an_h_index_beyond_int64_names_the_row(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"k": 2, "rows": [[1, [[100000000000000000000000, 1.0]]]]}')
    code = run_cli(
        ["trajectory", "--rule-file", str(bad), "--init", "const:0.5",
         "--t-end", "0.1", "--out", str(tmp_path / "o.csv")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "rule row 1 is not stochastic" in err and "H index 100000000000000000000000 out of range" in err


def test_rule_file_flow(tmp_path):
    rule_path = tmp_path / "comp.json"
    save_rule(complementing_rule(3), rule_path)
    out = tmp_path / "traj.csv"
    code = run_cli(
        ["trajectory", "--rule-file", str(rule_path), "--init", "const:0.1",
         "--t-end", "0.5", "--checkpoints", "6", "--out", str(out)]
    )
    assert code == 0
    final = out.read_text().splitlines()[-1].split(",")
    expected = 0.5 + (0.1 - 0.5) * math.exp(-12 * 0.5)
    assert float(final[1]) == pytest.approx(expected, abs=1e-8)


def test_simulate_deterministic_output(tmp_path):
    args = ["simulate", "--rule", "er", "--init", "const:0", "--n", "150",
            "--steps", "5000", "--checkpoints", "6", "--seed", "9"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_transference_subcommand(tmp_path):
    out = tmp_path / "t.csv"
    code = run_cli(
        ["transference", "--rule", "er", "--init", "const:0", "--n", "150",
         "--t-end", "0.2", "--checkpoints", "2", "--seed", "4", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,cut_dist,l1_dist,sim_density,traj_density"
    assert len(lines) == 3


def test_velocity_field_csv(tmp_path):
    out = tmp_path / "field.csv"
    code = run_cli(
        ["velocity-field", "--rule", "extremist:3", "--grid", "5",
         "--class", "two-block-sym", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,vx,vy"
    assert len(lines) == 26
    x, y, vx, vy = (float(v) for v in lines[7].split(","))
    vel = velocity(extremist_rule(3), two_block((0.5, 0.5), x, x, y))
    assert vx == pytest.approx(vel.values[0, 0], abs=1e-12)
    assert vy == pytest.approx(vel.values[0, 1], abs=1e-12)


def test_periodic_demo_csv(tmp_path):
    out = tmp_path / "orbit.csv"
    code = run_cli(
        ["periodic-demo", "--start", "0.25,0.8", "--t-end", "10000",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,y"
    assert len(lines) > 100


def test_config_file_round_trip_and_flag_precedence(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(
        {"rule": "er", "init": "const:0", "t-end": 1.0, "checkpoints": 3}
    ))
    out = tmp_path / "out.csv"
    code = run_cli(
        ["trajectory", "--config", str(config_path), "--checkpoints", "5",
         "--out", str(out)]
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 6  # flag beat the config file


def test_every_emitted_csv_round_trips(tmp_path):
    jobs = {
        "sim.csv": ["simulate", "--rule", "er", "--init", "const:0", "--n", "120",
                    "--steps", "2000", "--checkpoints", "4", "--seed", "3"],
        "traj.csv": ["trajectory", "--rule", "extremist:3", "--init",
                     "two-block:0.5,0.5,0.9,0.9,0.2", "--t-end", "0.5",
                     "--checkpoints", "4"],
        "trans.csv": ["transference", "--rule", "er", "--init", "const:0",
                      "--n", "120", "--t-end", "0.1", "--checkpoints", "2",
                      "--seed", "1"],
        "field.csv": ["velocity-field", "--rule", "extremist:3", "--grid", "3",
                      "--class", "two-block-sym"],
        "orbit.csv": ["periodic-demo", "--start", "0.29,0.8", "--t-end", "500"],
    }
    for name, job in jobs.items():
        out = tmp_path / name
        assert main(job + ["--out", str(out)]) == 0
        header, data = read_csv(out)
        assert len(header) >= 2
        assert data.shape[0] >= 1
        assert data.shape[1] == len(header)


def test_unknown_config_key_is_reported(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text('{"rule": "er", "wat": 3}')
    code = run_cli(
        ["trajectory", "--config", str(config_path), "--init", "const:0",
         "--t-end", "0.1", "--out", str(tmp_path / "o.csv")]
    )
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_transference_replicates_are_single_runs_with_consecutive_seeds(tmp_path):
    base = ["transference", "--rule", "er", "--init", "const:0.3", "--n", "120",
            "--t-end", "0.05", "--checkpoints", "2"]
    out = tmp_path / "reps.csv"
    assert run_cli(base + ["--seed", "5", "--replicates", "2", "--out", str(out)]) == 0
    header, *lines = out.read_text().splitlines()
    assert header == "replicate,t,cut_dist,l1_dist,sim_density,traj_density"
    for rep_id in range(2):
        single = tmp_path / f"single{rep_id}.csv"
        assert run_cli(base + ["--seed", str(5 + rep_id), "--out", str(single)]) == 0
        expected = single.read_text().splitlines()[1:]
        assert [l for l in lines if l.startswith(f"{rep_id},")] == [f"{rep_id},{l}" for l in expected]
    assert len(lines) == 4


def test_replicates_below_one_are_rejected(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = run_cli(
        ["transference", "--rule", "er", "--init", "const:0", "--n", "120",
         "--t-end", "0.05", "--seed", "1", "--replicates", "0", "--out", str(out)]
    )
    assert code == 1
    assert "--replicates must be >= 1" in capsys.readouterr().err
    assert not out.exists()


# one value per option, of its declared type; the flag of `klass` is --class
OPTION_VALUES = {
    "rule": "er", "rule_file": "r.json", "init": "const:0.5", "init_file": "g.json",
    "seed": 0, "out": "o.csv", "n": 150, "t_end": 0.25, "steps": 40, "checkpoints": 4,
    "grid": 3, "klass": "two-block-sym", "replicates": 2, "start": "0.3,0.7",
    "rtol": 1e-8, "atol": 1e-9, "method": "rk4_fixed", "step": 0.125, "grid_n": 51,
    "tol": 1e-7,
}


def _flag_name(name):
    return "class" if name == "klass" else name.replace("_", "-")


@pytest.mark.parametrize("mode", ["simulate", "trajectory", "transference",
                                  "fixed-points", "velocity-field", "periodic-demo"])
def test_every_option_parses_as_flag_and_as_config_key(tmp_path, mode):
    assert set(OPTION_VALUES) | {"mode"} == {f.name for f in dataclasses.fields(ExperimentConfig)}
    expected = ExperimentConfig(mode=mode, **OPTION_VALUES)
    parser = cli._build_parser()
    argv = [mode]
    for name, value in OPTION_VALUES.items():
        argv += ["--" + _flag_name(name), str(value)]
    assert cli.parse_config(parser.parse_args(argv)) == expected
    for spell in (lambda name: name, _flag_name):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({spell(k): v for k, v in OPTION_VALUES.items()}))
        assert cli.parse_config(parser.parse_args([mode, "--config", str(path)])) == expected


def test_config_file_that_is_not_an_object_is_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    assert run_cli(["fixed-points", "--rule", "er", "--config", str(path)]) == 1
    assert "must hold a JSON object" in capsys.readouterr().err


def test_config_values_are_checked_against_declared_types(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    out = tmp_path / "o.csv"
    good = {"rule": "er", "init": "const:0", "t-end": 1, "seed": None, "out": str(out)}
    path.write_text(json.dumps(dict(good, checkpoints="3", grid=True, method="euler")))
    assert run_cli(["trajectory", "--config", str(path)]) == 1
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert errors == [
        "error: config key 'checkpoints' must be int, got '3'",
        "error: config key 'grid' must be int, got True",
        "error: config key 'method' must be one of dop853, rk4_fixed",
    ]
    assert not out.exists()
    # an int is a valid float and null leaves a field unset
    path.write_text(json.dumps(good))
    assert run_cli(["trajectory", "--config", str(path)]) == 0
    assert read_csv(out)[1][-1, 0] == 1.0


@pytest.mark.parametrize(
    "args, message",
    [
        (["periodic-demo", "--start", "0.1,0.2,0.3", "--t-end", "1"],
         "--start '0.1,0.2,0.3' must have the form x,y"),
        (["trajectory", "--rule", "er", "--init", "two-block:a,b", "--t-end", "1"],
         "--init 'two-block:a,b' must have the form two-block:mass1,mass2,x1,x2,y"),
        (["trajectory", "--rule", "er", "--init", "const:abc", "--t-end", "1"],
         "--init 'const:abc' must have the form const:density"),
        (["trajectory", "--rule", "er", "--init", "ring:0.5", "--t-end", "1"],
         "unknown init spec 'ring:0.5'"),
    ],
)
def test_spec_strings_are_named_in_errors(tmp_path, capsys, args, message):
    out = tmp_path / "o.csv"
    assert run_cli(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[0] == f"error: {message}"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, text, key",
    [
        ("--init-file", "{}", "'masses'"),
        ("--init-file", "[1, 2]", "'masses'"),
        ("--init-file", '{"masses": [1.0], "values": [[0.5], [0.5, 0.5]]}', "'values'"),
        ("--rule-file", '{"k": 2}', "'rows'"),
        ("--rule-file", '{"k": [2], "rows": []}', "'k'"),
        ("--rule-file", '{"k": 2, "rows": [[0]]}', "'rows'"),
    ],
)
def test_malformed_rule_and_graphon_files_are_named(tmp_path, capsys, flag, text, key):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    given = {"--init-file": ["--rule", "er"], "--rule-file": ["--init", "const:0.5"]}[flag]
    args = ["trajectory", flag, str(bad), *given, "--t-end", "0.1", "--out", str(tmp_path / "o.csv")]
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and key in err


@pytest.mark.parametrize(
    "extra", [["--t-end", "nan"], ["--t-end", "1", "--atol", "inf"], ["--t-end", "1", "--rtol", "nan"]]
)
def test_non_finite_integration_inputs_are_errors(tmp_path, capsys, extra):
    out = tmp_path / "o.csv"
    args = ["trajectory", "--rule", "er", "--init", "const:0.2", "--out", str(out)] + extra
    assert run_cli(args) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("t_end", ["inf", "nan"])
def test_simulate_rejects_a_non_finite_t_end(tmp_path, capsys, t_end):
    out = tmp_path / "o.csv"
    args = ["simulate", "--rule", "er", "--init", "const:0", "--n", "50",
            "--t-end", t_end, "--seed", "1", "--out", str(out)]
    assert run_cli(args) == 1
    assert capsys.readouterr().err == f"error: t_end must be finite, got {t_end}\n"
    assert not out.exists()


@pytest.mark.parametrize("t_end", ["inf", "nan"])
def test_periodic_demo_rejects_a_non_finite_t_end(tmp_path, capsys, t_end):
    out = tmp_path / "o.csv"
    args = ["periodic-demo", "--start", "0.25,0.8", "--t-end", t_end, "--out", str(out)]
    assert run_cli(args) == 1
    assert capsys.readouterr().err == f"error: t_end must be finite, got {t_end}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, name, value", [("--t-end", "t_end", "-0.5"), ("--steps", "steps", "-5")])
def test_simulate_names_a_negative_length(tmp_path, capsys, flag, name, value):
    out = tmp_path / "o.csv"
    args = ["simulate", "--rule", "er", "--init", "const:0", "--n", "50", "--seed", "1", "--out", str(out)]
    assert run_cli(args + [f"{flag}={value}"]) == 1
    assert capsys.readouterr().err == f"error: {name} must be non-negative, got {value}\n"
    assert not out.exists()
    assert run_cli(args + [f"{flag}=0"]) == 0
    assert out.exists()


def test_the_cached_parser_is_unchanged_by_a_failed_invocation(tmp_path):
    out = tmp_path / "o.csv"
    bad = ["trajectory", "--rule", "er", "--init", "const:0.2", "--t-end", "1", "--no-such-flag", "1"]
    good = ["trajectory", "--rule", "extremist:3", "--init", "two-block:0.5,0.5,0.9,0.8,0.2",
            "--t-end", "1", "--out", str(out)]

    def alone(args):
        cli._build_parser.cache_clear()
        code = run_cli(args)
        return code, out.read_bytes() if out.exists() else None

    bad_alone = alone(bad)
    good_alone = alone(good)
    out.unlink()
    assert bad_alone == (1, None) and good_alone[0] == 0
    cli._build_parser.cache_clear()
    assert run_cli(bad) == 1
    assert run_cli(good) == 0
    assert out.read_bytes() == good_alone[1]


def test_a_rule_is_validated_once(tmp_path, monkeypatch):
    rules_module = sys.modules["flipflow.rules"]
    calls = []

    def counting(rule, validate=rules_module.validate):
        calls.append(rule)
        return validate(rule)

    monkeypatch.setattr(rules_module, "validate", counting)
    monkeypatch.setattr(cli, "validate", counting)
    rule_path = tmp_path / "comp.json"
    save_rule(complementing_rule(3), rule_path)
    for given in (["--rule-file", str(rule_path)], ["--rule", "complementing:3"]):
        calls.clear()
        assert run_cli(["fixed-points", *given]) == 0
        assert len(calls) == 1, given


def test_an_unreadable_config_file_is_named(tmp_path, capsys):
    missing, broken = tmp_path / "missing.json", tmp_path / "broken.json"
    broken.write_text("{")
    for path, reason in (
        (missing, f"[Errno 2] No such file or directory: '{missing}'"),
        (broken, "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ):
        message = f"cannot read config file {path}: {reason}"
        with raises_exactly(ConfigError, message):
            cli._read_config(path, [])
        assert run_cli(["fixed-points", "--rule", "er", "--config", str(path)]) == 1
        assert capsys.readouterr().err.splitlines()[0] == f"error: {message}"


def test_an_unknown_init_spec_is_a_config_error():
    with raises_exactly(ConfigError, "unknown init spec 'ring:0.5'"):
        cli._build_init(ExperimentConfig(mode="trajectory", init="ring:0.5"))


def test_a_row_that_raises_writes_no_file(tmp_path):
    def rows():
        yield [0.5]
        raise ValueError("no second row")

    out = tmp_path / "o.csv"
    with raises_exactly(ValueError, "no second row"):
        write_csv(out, ["t"], rows())
    assert not out.exists()
    out.write_bytes(b"t\n0.25\n")
    with raises_exactly(ValueError, "no second row"):
        write_csv(out, ["t"], rows())
    assert out.read_bytes() == b"t\n0.25\n"


def test_a_ragged_csv_is_named(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("t,cell_1_1\n0.0,0.5,0.25\n")
    with raises_exactly(ValueError, f"ragged CSV {path}: 3 columns vs 2 headers"):
        read_csv(path)


@pytest.mark.parametrize("masses", [[0.999, 0.001], [0.4995, 0.001, 0.4995]])
@pytest.mark.parametrize("mode", [
    "simulate", "transference", pytest.param("transference --replicates 2", id="transference-replicates"),
])
def test_a_part_that_draws_no_vertex_is_an_error(tmp_path, capsys, mode, masses):
    # with seed 1, part 1 draws none of the 100 vertices
    init = tmp_path / "w0.json"
    init.write_text(json.dumps({"masses": masses, "values": [[0.5] * len(masses)] * len(masses)}))
    out = tmp_path / "o.csv"
    args = [*mode.split(), "--rule", "er", "--init-file", str(init), "--n", "100", "--t-end", "0.01",
            "--seed", "1"]
    assert run_cli(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: part 1 (mass 0.001) drew none of the n = 100 vertices\n"
    assert not out.exists()


def test_a_simulate_run_holds_one_adjacency_buffer(tmp_path):
    n = 2000
    args = ["simulate", "--rule", "er", "--init", "const:0.3", "--n", str(n), "--t-end", "0.001",
            "--seed", "3", "--out", str(tmp_path / "o.csv")]
    tracemalloc.start()
    try:
        assert run_cli(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n, peak / (n * n)
