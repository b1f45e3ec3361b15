"""The canned figure presets reproduce the committed out/*.csv byte for byte,
and their JSON rows hold the same cells."""

import json
from pathlib import Path

import pytest

from gbgroove.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "out"
PRESETS = ["figure3", "figure4", "figure5", "figure6", "cornerfig"]


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_matches_golden_csv(preset, tmp_path):
    out = tmp_path / f"{preset}.csv"
    assert main(["--preset", preset, "--samples", "400", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{preset}.csv").read_bytes()


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_json_rows_match_golden_csv(preset, tmp_path):
    out = tmp_path / f"{preset}.json"
    assert main(["--preset", preset, "--samples", "400", "--format", "json",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    lines = (GOLDEN / f"{preset}.csv").read_text().splitlines()
    columns = next(l for l in lines if l.startswith("# columns: "))
    assert doc["columns"] == columns.removeprefix("# columns: ").split(",")
    assert doc["notes"] == [l.removeprefix("# ") for l in lines[2:lines.index(columns)]]
    assert doc["rows"] == [l.split(",") for l in lines if not l.startswith("#")]
