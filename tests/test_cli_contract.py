"""The CLI's behavioural contract: exit codes and CSV/stdout bytes of
fixed seeded invocations, as fingerprinted by `scripts/cli_contract.py`,
equal the fingerprints recorded in `cli_contract.txt`."""

import importlib.util
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCRIPT = HERE.parent / "scripts" / "cli_contract.py"


def _contract():
    spec = importlib.util.spec_from_file_location("cli_contract", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_bytes_equal_the_recorded_contract():
    expected = (HERE / "cli_contract.txt").read_text().splitlines()
    got = _contract().fingerprints()
    moved = [line.split()[0] for line in sorted(set(expected) ^ set(got))]
    assert not moved, f"invocations whose fingerprint moved: {sorted(set(moved))}"
    assert got == expected
