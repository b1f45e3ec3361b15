"""The benchmark-record checker, scripts/check_bench_records.py."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = Path("scripts") / "check_bench_records.py"
RECORD = "BENCH_16.json"


def _check(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / SCRIPT)], capture_output=True,
                          text=True, cwd=root)


def _tree(tmp_path: Path, record: dict) -> Path:
    """A copy of the checker and BENCHMARK.json with `record` as its only record."""
    (tmp_path / "scripts").mkdir()
    shutil.copy(ROOT / SCRIPT, tmp_path / SCRIPT)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / RECORD).write_text(json.dumps(record))
    return tmp_path


def test_committed_records_pass():
    r = _check(ROOT)
    assert r.returncode == 0, r.stdout
    assert all(line.endswith(": ok") for line in r.stdout.splitlines())


def test_untouched_copy_passes(tmp_path):
    record = json.loads((ROOT / RECORD).read_text())
    r = _check(_tree(tmp_path, record))
    assert r.returncode == 0, r.stdout


def _tamper_value(record):
    claim = record["claim"]
    values = record["workloads"][claim["workload"]][claim["metric"]]["change"]["values"]
    values[values.index(max(values))] *= 0.5     # moves the median


@pytest.mark.parametrize("tamper, message", [
    (lambda r: r["claim"].update(median_change_pct=r["claim"]["median_change_pct"] * 1.01),
     "median_change_pct"),
    (lambda r: r["claim"].update(change_lower_in_pairs="9/10"), "change_lower_in_pairs"),
    (lambda r: r["claim"].update(gap_over_parent_iqr=r["claim"]["gap_over_parent_iqr"] + 1),
     "gap_over_parent_iqr"),
    (lambda r: r["claim"].update(workload="figure4"), "workload 'figure4'"),
    (lambda r: r["claim"].update(metric="specfun.calls"), "metric 'specfun.calls'"),
    (_tamper_value, "the values give"),
], ids=["median", "pairs", "gap", "workload", "metric", "values"])
def test_tampered_claim_fails(tmp_path, tamper, message):
    """One figure of the claim that the record's own values do not give, or
    a claim on a name BENCHMARK.json does not declare, exits 1."""
    record = json.loads((ROOT / RECORD).read_text())
    tamper(record)
    r = _check(_tree(tmp_path, record))
    assert r.returncode == 1
    assert message in r.stdout


@pytest.mark.parametrize("tamper", [
    lambda r: r.pop("accuracy"),
    lambda r: r["accuracy"].pop("what"),
    lambda r: r["accuracy"].update(what=" "),
], ids=["no-block", "no-what", "blank-what"])
def test_record_without_accuracy_fails(tmp_path, tamper):
    """Every record carries an accuracy figure: a record with no accuracy
    block, or one that does not say what it holds, exits 1."""
    record = json.loads((ROOT / RECORD).read_text())
    tamper(record)
    r = _check(_tree(tmp_path, record))
    assert r.returncode == 1
    assert "no accuracy block" in r.stdout
