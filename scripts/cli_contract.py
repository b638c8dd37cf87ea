"""Fingerprint the CLI's behavioural contract on fixed seeded invocations.

Runs every mode of `flipflow.cli.main` on a fixed list of arguments in a
fresh temporary directory and prints, per invocation, its exit code and
the sha256 of its stdout and of the CSV it wrote.  Error messages on
stderr are not fingerprinted.  Two trees give the same CSV bytes,
stdout and exit codes exactly when they print the same lines, so a
change is checked against its parent by diffing:

    PYTHONPATH=src python scripts/cli_contract.py > change.txt
    PYTHONPATH=<parent tree>/src python scripts/cli_contract.py > parent.txt
    diff parent.txt change.txt

`tests/cli_contract.txt` holds this output as recorded for the current
tree, and `tests/test_cli_contract.py` checks it in Tier-1; a change
that deliberately moves a byte records the fixture again:

    PYTHONPATH=src python scripts/cli_contract.py > tests/cli_contract.txt

Takes no options; about a second on one core.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from flipflow.cli import main

TWO_BLOCK = "two-block:0.5,0.5,0.9,0.8,0.2"

# (name, arguments); each run writes its CSV to out.csv in the run directory
INVOCATIONS = [
    ("simulate-t-end", ["simulate", "--rule", "extremist:3", "--init", TWO_BLOCK, "--n", "200",
                        "--t-end", "0.5", "--checkpoints", "6", "--seed", "7"]),
    ("simulate-steps", ["simulate", "--rule", "triangle-removal", "--init", "const:0.8", "--n", "120",
                        "--steps", "5000", "--checkpoints", "4", "--seed", "3"]),
    ("simulate-one-checkpoint", ["simulate", "--rule", "stirring-loose:3", "--init", "const:0.4",
                                 "--n", "60", "--steps", "3000", "--checkpoints", "1", "--seed", "2"]),
    ("simulate-zero", ["simulate", "--rule", "er", "--init", "const:0.3", "--n", "50",
                       "--t-end", "0", "--seed", "1"]),
    ("simulate-negative-t-end", ["simulate", "--rule", "er", "--init", "const:0.3", "--n", "50",
                                 "--t-end=-0.5", "--seed", "1"]),
    ("simulate-negative-steps", ["simulate", "--rule", "er", "--init", "const:0.3", "--n", "50",
                                 "--steps=-5", "--seed", "1"]),
    ("trajectory", ["trajectory", "--rule", "extremist:3", "--init", TWO_BLOCK, "--t-end", "2",
                    "--checkpoints", "11"]),
    ("trajectory-rk4", ["trajectory", "--rule", "triangle-removal", "--init", "const:1",
                        "--t-end", "1", "--method", "rk4_fixed", "--step", "0.01"]),
    ("transference", ["transference", "--rule", "extremist:3", "--init", TWO_BLOCK, "--n", "300",
                      "--t-end", "0.2", "--checkpoints", "4", "--seed", "5"]),
    ("transference-replicates", ["transference", "--rule", "er", "--init", "const:0.3", "--n", "150",
                                 "--t-end", "0.1", "--checkpoints", "3", "--seed", "5",
                                 "--replicates", "2"]),
    ("trajectory-fault", ["trajectory", "--rule", "er", "--init", "const:0", "--t-end", "1",
                          "--method", "rk4_fixed", "--step", "2"]),
    ("fixed-points", ["fixed-points", "--rule", "extremist:3"]),
    ("fixed-points-grid-8", ["fixed-points", "--rule", "extremist:5", "--grid-n", "8"]),
    ("fixed-points-bisect", ["fixed-points", "--rule-file", "rule.json"]),
    ("velocity-field", ["velocity-field", "--rule", "extremist:3", "--grid", "5"]),
    ("velocity-field-21", ["velocity-field", "--rule", "extremist:3", "--grid", "21"]),
    ("periodic-demo", ["periodic-demo", "--start", "0.25,0.8", "--t-end", "2000"]),
    ("periodic-demo-rk4", ["periodic-demo", "--start", "0.25,0.8", "--t-end", "2000",
                           "--method", "rk4_fixed", "--step", "5"]),
    ("config-file", ["simulate", "--config", "config.json", "--checkpoints", "3"]),
    ("transference-replicates-empty-part", ["transference", "--rule", "er", "--init-file", "w0.json",
                                            "--n", "100", "--t-end", "0.01", "--seed", "1",
                                            "--replicates", "2"]),
]

CONFIG = {"rule": "complementing:3", "init": "const:0.1", "n": 80, "t-end": 0.25, "seed": 4,
          "checkpoints": 9}
# the graph-blind rule on one pair that keeps the edge with probability 1/3: its
# constant fixed point 1/3 lies off the default grid, so the scan bisects to it
RULE = {"k": 2, "rows": [[f, [[0, 2 / 3], [1, 1 / 3]]] for f in (0, 1)]}
# with seed 1, part 1 draws none of the 100 vertices, so the first replicate fails
W0 = {"masses": [0.999, 0.001], "values": [[0.5, 0.5], [0.5, 0.5]]}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(name: str, args: list[str]) -> str:
    """The exit code and the digests of stdout and of the CSV written."""
    out, stdout = Path("out.csv"), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(args + ["--out", str(out)])
    csv = _sha(out.read_bytes()) if out.exists() else "absent"
    out.unlink(missing_ok=True)
    return f"{name} exit={code} stdout={_sha(stdout.getvalue().encode())} csv={csv}"


def fingerprints() -> list[str]:
    """One fingerprint line per invocation, all run in one fresh temporary directory."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            Path("config.json").write_text(json.dumps(CONFIG))
            Path("rule.json").write_text(json.dumps(RULE))
            Path("w0.json").write_text(json.dumps(W0))
            return [fingerprint(name, args) for name, args in INVOCATIONS]
        finally:
            os.chdir(home)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit("cli_contract.py takes no options")
    print("\n".join(fingerprints()))
