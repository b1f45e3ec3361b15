"""CLI dispatch, file formats, determinism and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gbgroove.cli import PRESETS, RunConfig, main, run


def _run_cli(args, cwd=None):
    return subprocess.run([sys.executable, "-m", "gbgroove.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


class TestRunConfig:
    def test_needs_exactly_one_parameter_block(self):
        cfg = RunConfig(mode="params")
        with pytest.raises(ValueError):
            cfg.validate()
        cfg = RunConfig(mode="params", model={"B": 1, "alpha": 1e-16, "m": 0.2},
                        physical={"D_i": 1})
        with pytest.raises(ValueError):
            cfg.validate()

    def test_profile_needs_times(self):
        cfg = RunConfig(mode="profile", model={"B": 1, "alpha": 1e-16, "m": 0.2})
        with pytest.raises(ValueError):
            cfg.validate()

    def test_unknown_mode(self):
        cfg = RunConfig(mode="teleport", model={"B": 1, "alpha": 1e-16, "m": 0.2})
        with pytest.raises(ValueError):
            cfg.validate()


class TestModes:
    def test_params_mode(self, capsys):
        cfg = RunConfig(mode="params", model={"B": 1.0, "alpha": 9.7e-16, "m": 0.209},
                        times=[1e-29])
        text = run(cfg)
        assert "alpha_hat = 3.0674093303633282e-01" in text

    def test_params_from_physical(self):
        phys = dict(D_i=1e-18, n=1e19, Omega=1.66e-29, kT=1.2e-20,
                    E=253e9, h=5e-9, nu=0.24,
                    gamma_gb=0.5999, gamma_i=1.2, gamma_s=1.67)
        cfg = RunConfig(mode="params", physical=phys, times=[1e-29])
        text = run(cfg)
        alpha_line = next(l for l in text.splitlines() if l.startswith("alpha_m2"))
        alpha = float(alpha_line.split("=")[1])
        assert alpha == pytest.approx(9.7e-16, rel=5e-3)

    def test_profile_mode_columns(self):
        cfg = RunConfig(mode="profile", model={"B": 1.0, "alpha": 9.7e-16, "m": 0.209},
                        times=[1e-29], samples=16)
        text = run(cfg)
        lines = text.strip().splitlines()
        assert any(l.startswith("# columns: Bt_m4,x_m,y_mullins_m,y_composite_m")
                   for l in lines)
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 16
        first = [float(v) for v in data[0].split(",")]
        assert first[2] == pytest.approx(-4.5843757745528627e-09, rel=1e-12)

    def test_depth_series_mode(self):
        cfg = RunConfig(mode="depth-series",
                        model={"B": 1.0, "alpha": 9.7e-16, "m": 0.209},
                        times=[1e-30, 1e-29], alphas=[9.7e-16, 3e-16])
        text = run(cfg)
        data = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(data) == 4
        for line in data:
            vals = [float(v) for v in line.split(",")]
            assert vals[4] > 0.0          # shallower with a coating

    def test_corner_mode(self):
        cfg = RunConfig(mode="corner", model={"B": 1.0, "alpha": 9.7e-16, "m": 0.209},
                        times=[1e-29], samples=8)
        text = run(cfg)
        assert "# columns: w,y_c4,y_c5,y_c6,combination" in text

    def test_json_format(self):
        cfg = RunConfig(mode="profile", model={"B": 1.0, "alpha": 9.7e-16, "m": 0.209},
                        times=[1e-29], samples=4, fmt="json")
        doc = json.loads(run(cfg))
        assert doc["columns"][0] == "Bt_m4"
        assert len(doc["rows"]) == 4
        assert doc["config"]["mode"] == "profile"

    def test_output_file_with_header_block(self, tmp_path):
        out = tmp_path / "t.csv"
        cfg = RunConfig(mode="profile", model={"B": 1.0, "alpha": 9.7e-16, "m": 0.209},
                        times=[1e-29], samples=4, out=str(out))
        run(cfg)
        text = out.read_text()
        assert text.startswith("# gbgroove output\n# config: ")
        cfg_line = text.splitlines()[1]
        resolved = json.loads(cfg_line.removeprefix("# config: "))
        assert resolved["samples"] == 4
        assert "out" not in resolved   # path excluded: byte-identity across runs

    def test_oracle_mode_small(self):
        cfg = RunConfig(mode="oracle", model={"B": 1.0, "alpha": 9.7e-16, "m": 0.209},
                        times=[1e-29], samples=8,
                        solver={"nx": 129, "dt": 1.0 / 64})
        text = run(cfg)
        data = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(data) == 8
        root = float(data[0].split(",")[2])
        assert root == pytest.approx(-4.07e-9, rel=0.05)

    def test_compare_mode_small(self):
        cfg = RunConfig(mode="compare", model={"B": 1.0, "alpha": 9.7e-16, "m": 0.209},
                        times=[1e-29], samples=8,
                        solver={"nx": 257, "dt": 1.0 / 128})
        text = run(cfg)
        assert "sup|composite-oracle|/depth" in text
        assert "y_oracle_m" in text


class TestEntryPoint:
    def test_exit_zero(self):
        r = _run_cli(["--preset", "figure4", "--samples", "4"])
        assert r.returncode == 0
        assert "# columns:" in r.stdout

    def test_exit_two_on_bad_config(self):
        r = _run_cli(["--mode", "profile"])      # no model, no times
        assert r.returncode == 2
        assert r.stderr.startswith("error: config:")
        assert len(r.stderr.strip().splitlines()) == 1

    def test_exit_two_on_unknown_key(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"mode": "params", "bogus": 1,
                                   "model": {"B": 1, "alpha": 1e-16, "m": 0.2}}))
        r = _run_cli(["--config", str(cfg)])
        assert r.returncode == 2

    def test_exit_three_on_numerical_failure(self, tmp_path):
        # an impossible corner exponent hits a Gamma pole in the brackets
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "mode": "corner", "model": {"B": 1.0, "alpha": 9.7e-16, "m": 0.209},
            "times": [1e-29], "samples": 4, "corner_r": -5.0 / 6.0,
            "corner_gamma": 0.1}))
        r = _run_cli(["--config", str(cfg)])
        assert r.returncode == 3
        assert "numerical failure" in r.stderr

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"mode": "params",
                                   "model": {"B": 1.0, "alpha": 9.7e-16, "m": 0.209},
                                   "times": [1e-29]}))
        r = _run_cli(["--config", str(cfg), "--alpha", "3e-16"])
        assert r.returncode == 0
        assert "alpha_m2 = 2.9999999999999999e-16" in r.stdout

    def test_determinism(self, tmp_path):
        """Identical configs produce byte-identical output files."""
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            r = _run_cli(["--preset", "figure4", "--samples", "32",
                          "--out", str(out)])
            assert r.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_determinism_json(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            r = _run_cli(["--preset", "cornerfig", "--samples", "16",
                          "--format", "json", "--out", str(out)])
            assert r.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_preset_catalog(self):
        assert set(PRESETS) == {"figure3", "figure4", "figure5", "figure6",
                                "cornerfig"}
        r = _run_cli(["--preset", "figure6", "--samples", "4"])
        assert r.returncode == 0
        assert "relative_effect" in r.stdout

    def test_main_callable_without_subprocess(self, capsys):
        code = main(["--mode", "params", "--m", "0.209", "--alpha", "9.7e-16",
                     "--B", "1.0", "--Bt", "1e-29"])
        assert code == 0
        assert "alpha_hat" in capsys.readouterr().out


def test_import_defers_scipy_integrate():
    """Only quadrature paths need scipy.integrate; the CLI import skips it."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, gbgroove.cli; assert 'scipy.integrate' not in sys.modules"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env)
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("flags", [["--m", "nan"], ["--alpha", "-1"], ["--alpha", "inf"],
                                   ["--B", "0"], ["--order", "99"], ["--xmax", "nan"]])
def test_exit_two_on_bad_model_numbers(flags, capsys):
    argv = ["--mode", "profile", "--m", "0.209", "--alpha", "9.7e-16", "--B", "1",
            "--Bt", "1e-29", "--samples", "4", *flags]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: config:")


def _main_on_document(doc, tmp_path, capsys):
    """Exit code and stderr lines of `main` on one --config document."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code = main(["--config", str(path)])
    return code, capsys.readouterr().err.strip().splitlines()


_FIG4 = {"mode": "profile", "model": {"B": 1.0, "alpha": 9.7e-16, "m": 0.209},
         "times": [1e-29], "samples": 4}


_BAD_DOCUMENTS = {
    "samples-string": {**_FIG4, "samples": "400"},
    "samples-float": {**_FIG4, "samples": 1e3},
    "times-string": {**_FIG4, "times": "1e-29"},
    "order-string": {**_FIG4, "order": "2"},
    "xmax-string": {**_FIG4, "xmax": "3"},
    "times-huge-integer": {**_FIG4, "times": [10 ** 400]},
    "corner_r-string": {**_FIG4, "include_corner": True, "corner_r": "nan"},
    "corner_r-not-decaying": {**_FIG4, "include_corner": True, "corner_r": -0.5},
    "model-array": {**_FIG4, "model": [1, 2]},
    "out-number": {**_FIG4, "out": 5},
    "solver-nx-string": {**_FIG4, "mode": "oracle", "solver": {"nx": "abc"}},
    "solver-dt-tiny": {**_FIG4, "mode": "oracle", "solver": {"dt": 1e-9}},
    **{f"solver-{key}": {**_FIG4, "mode": "oracle", "solver": {key: value}}
       for key, value in (("L", 8.0), ("theta", 1.0), ("snapshot_times", [0.5]),
                          ("bc_order", 3), ("flux_form", "balance"))},
    "top-level-array": [_FIG4],
}


@pytest.mark.parametrize("doc", list(_BAD_DOCUMENTS.values()), ids=list(_BAD_DOCUMENTS))
def test_exit_two_on_bad_config_document(doc, tmp_path, capsys):
    code, err = _main_on_document(doc, tmp_path, capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: config:")


@pytest.mark.parametrize("doc", [
    {**_FIG4, "mode": "oracle", "solver": {"nx": 2050}},
    # the wall layer thins as Bt grows: at Bt = 2e-23 m^4 the default grid
    # needs 2174 nodes to resolve it
    {**_FIG4, "mode": "compare", "times": [2e-23]},
], ids=["solver-nx", "derived-nx"])
def test_exit_two_above_node_cap(doc, tmp_path, capsys):
    code, err = _main_on_document(doc, tmp_path, capsys)
    assert code == 2
    assert len(err) == 1 and "nx <= 2049" in err[0]


def test_exit_three_on_non_finite_output(capsys):
    # at Bt = 1e-300 the corner coefficients overflow; the run prints its
    # two error lines and nothing else (no numpy warnings)
    argv = ["--mode", "corner", "--m", "0.209", "--alpha", "9.7e-16", "--B", "1",
            "--Bt", "1e-300", "--samples", "5"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 2
    assert lines[0] == "error: numerical failure"
    assert lines[1].startswith("  SeriesError: corner coefficients overflow")
