"""Golden reports: the CLI must reproduce committed reports byte for byte.

Regenerate a golden file only for a change meant to alter numbers, with
``layerpot COMMAND --config CONFIG --out tests/golden/NAME.csv``.
"""

from pathlib import Path

import pytest

from layerpot.harness.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = {
    "verify-unit-disk": ("verify", ROOT / "configs" / "unit-disk.cfg"),
    "converge-star": ("converge", ROOT / "configs" / "star-convergence.cfg"),
    "bound-unit-disk": ("bound", ROOT / "configs" / "unit-disk.cfg"),
    "verify-all-identities": ("verify", GOLDEN / "all-identities.cfg"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, capsys):
    command, config = CASES[name]
    out = tmp_path / f"{name}.csv"
    main([command, "--config", str(config), "--out", str(out)])
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
