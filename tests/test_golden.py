"""The canned figure presets reproduce the committed out/*.csv byte for byte."""

from pathlib import Path

import pytest

from gbgroove.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "out"


@pytest.mark.parametrize("preset", ["figure3", "figure4", "figure5", "figure6", "cornerfig"])
def test_preset_matches_golden_csv(preset, tmp_path):
    out = tmp_path / f"{preset}.csv"
    assert main(["--preset", preset, "--samples", "400", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{preset}.csv").read_bytes()
