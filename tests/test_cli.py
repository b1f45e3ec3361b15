"""CLI dispatch, file formats, determinism and exit codes."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbgroove.cli import PRESETS, RunConfig, main, run
from gbgroove.material import SmallSlopeWarning


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


_ALUMINA = ["--m", "0.209", "--alpha", "9.7e-16", "--B", "1", "--Bt", "1e-29"]


def _main_in_fresh_interpreter(argv, check_code):
    """Run `main(argv)` in a new interpreter, then `check_code` there."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import contextlib, io, sys; from gbgroove.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n" + check_code)
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)


@pytest.mark.parametrize("argv", [*(["--preset", p] for p in sorted(PRESETS)),
                                  ["--mode", "params", *_ALUMINA]],
                         ids=[*sorted(PRESETS), "params"])
def test_series_runs_load_no_scipy(argv):
    """Only the solver factors and only quadrature integrates: a series-only
    run, import included, loads no SciPy module."""
    r = _main_in_fresh_interpreter(argv, "loaded = [m for m in sys.modules if m == 'scipy' "
                                         "or m.startswith('scipy.')]\n"
                                         "assert not loaded, loaded")
    assert r.returncode == 0, r.stderr


def test_compare_imports_scipy_when_it_factors():
    r = _main_in_fresh_interpreter(["--mode", "compare", *_ALUMINA, "--samples", "4"],
                                   "assert 'scipy.linalg' in sys.modules\n"
                                   "sparse = [m for m in sys.modules if m == 'scipy.sparse' "
                                   "or m.startswith('scipy.sparse.')]\n"
                                   "assert not sparse, sparse")
    assert r.returncode == 0, r.stderr


def _emitted_numbers(text):
    """Every number a run prints, except in the config echo (which holds B)."""
    lines = [l for l in text.splitlines() if not l.startswith("# config:")]
    numbers = re.findall(r"[-+]?\d+\.\d+e[-+]\d+", "\n".join(lines))
    return np.array([float(v) for v in numbers])


@pytest.mark.parametrize("mode", ["profile", "compare", "corner", "depth-series"])
def test_output_depends_on_B_only_through_Bt(mode, capsys):
    """At fixed Bt, every emitted number is the same whatever B is."""
    runs = {}
    for B in ("0.3", "1", "2.5"):
        argv = ["--mode", mode, "--m", "0.209", "--alpha", "9.7e-16", "--B", B,
                "--Bt", "1e-29", "--Bt", "4.4e-30", "--samples", "16"]
        assert main(argv) == 0
        runs[B] = _emitted_numbers(capsys.readouterr().out)
    assert runs["1"].size >= 10
    for B in ("0.3", "2.5"):
        np.testing.assert_allclose(runs[B], runs["1"], rtol=1e-14, atol=0)


@pytest.mark.parametrize("flags", [["--m", "nan"], ["--alpha", "-1"], ["--alpha", "inf"],
                                   ["--B", "0"], ["--order", "99"], ["--xmax", "nan"]])
def test_exit_two_on_bad_model_numbers(flags, capsys):
    argv = ["--mode", "profile", "--m", "0.209", "--alpha", "9.7e-16", "--B", "1",
            "--Bt", "1e-29", "--samples", "4", *flags]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: config:")


@pytest.mark.parametrize("flags", [["--mode", "profile", "--xmax", "20"],
                                   ["--mode", "compare", "--xmax", "12"],
                                   *[["--mode", mode, "--xmax", "2"]
                                     for mode in ("params", "depth-series", "corner", "oracle")]],
                         ids=["past-series-clamp", "past-solver-domain", "params-no-window",
                              "depth-series-no-window", "corner-no-window",
                              "oracle-no-window"])
def test_exit_two_on_xmax_past_valid_window(flags, capsys):
    # past u = 12 the series are clamped to 0, and past x = 8 (Bt)^(1/4) the
    # solver profile is interpolated off its domain: no output is made up.
    # Modes without a profile window would ignore --xmax, so they refuse it
    argv = ["--m", "0.209", "--alpha", "9.7e-16", "--B", "1", "--Bt", "1e-29",
            "--samples", "4", *flags]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: config:")


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
    "samples-huge": {**_FIG4, "samples": 10**12},
    "times-string": {**_FIG4, "times": "1e-29"},
    "order-string": {**_FIG4, "order": "2"},
    "xmax-string": {**_FIG4, "xmax": "3"},
    "times-huge-integer": {**_FIG4, "times": [10 ** 400]},
    "corner_r-string": {**_FIG4, "include_corner": True, "corner_r": "nan"},
    "corner_r-not-decaying": {**_FIG4, "include_corner": True, "corner_r": -0.5},
    "model-array": {**_FIG4, "model": [1, 2]},
    "model-string": {**_FIG4, "model": {"B": "1", "alpha": 9.7e-16, "m": 0.209}},
    "model-bool": {**_FIG4, "model": {"B": 1.0, "alpha": 9.7e-16, "m": True}},
    "physical-bool": {**_FIG4, "model": None, "physical": {
        "D_i": 1e-18, "n": 1e19, "Omega": 1.66e-29, "kT": 1.2e-20, "E": 253e9, "h": 5e-9,
        "nu": 0.24, "gamma_gb": True, "gamma_i": 1.2, "gamma_s": 1.67}},
    "out-number": {**_FIG4, "out": 5},
    "solver-nx-string": {**_FIG4, "mode": "oracle", "solver": {"nx": "abc"}},
    "solver-dt-tiny": {**_FIG4, "mode": "oracle", "solver": {"dt": 1e-9}},
    "solver-dt-inf": {**_FIG4, "mode": "oracle", "solver": {"dt": float("inf")}},
    **{f"solver-{key}": {**_FIG4, "mode": "oracle", "solver": {key: value}}
       for key, value in (("L", 8.0), ("theta", 1.0), ("snapshot_times", [0.5]),
                          ("bc_order", 3), ("flux_form", "balance"))},
    "top-level-array": [_FIG4],
    "rows-past-budget": {**_FIG4, "samples": 32768, "times": [1e-29, 2e-29, 3e-29]},
    "alphas-past-budget": {**_FIG4, "mode": "depth-series", "alphas": [9.7e-16] * 256,
                           "times": [1e-29] * 257},
    "solves-past-budget": {**_FIG4, "mode": "compare", "times": [1e-29] * 32},
}


@pytest.mark.parametrize("doc", list(_BAD_DOCUMENTS.values()), ids=list(_BAD_DOCUMENTS))
def test_exit_two_on_bad_config_document(doc, tmp_path, capsys):
    code, err = _main_on_document(doc, tmp_path, capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: config:")


def test_depth_series_refuses_physical_block(tmp_path, capsys):
    # the sweep replaces model.alpha; a physical block has no alpha to replace
    doc = {**_FIG4, "mode": "depth-series", "model": None, "alphas": [9.7e-16],
           "physical": {"D_i": 1e-18, "n": 1e19, "Omega": 1.66e-29, "kT": 1.2e-20,
                        "E": 253e9, "h": 5e-9, "nu": 0.24, "gamma_gb": 1.0,
                        "gamma_i": 1.2, "gamma_s": 1.67}}
    code, err = _main_on_document(doc, tmp_path, capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: config: depth-series sweeps model.alpha")


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


# model numbers and Bt: sound values, edge values and wrong-typed entries
_MODEL_NUMBER = st.one_of(
    st.sampled_from([1.0, 9.7e-16, 0.209, 1e-29, 3e-30]),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -0.0, -1.0, 5e-324,
                     -5e-324, 2.2e-308, 1e-300, 1e300, -1e300, 10 ** 400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["1", "nan", "", None, True, [], [1.0], {}]))


def _assert_exit_code_contract(doc):
    """`main` on one config document exits 0, 2 or 3, and exit 0 prints
    only finite numbers."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            # a steep m is a documented warning, not a failure
            warnings.simplefilter("ignore", SmallSlopeWarning)
            code = main(["--config", str(path)])
    assert code in (0, 2, 3), err.getvalue()
    if code == 0:
        assert not re.search(r"\b(nan|inf|infinity)\b", out.getvalue(), re.IGNORECASE)


@given(mode=st.sampled_from(["params", "profile", "depth-series", "corner"]),
       B=_MODEL_NUMBER, alpha=_MODEL_NUMBER, m=_MODEL_NUMBER, bt=_MODEL_NUMBER,
       samples=st.integers(2, 16))
@settings(derandomize=True, max_examples=200, deadline=None)
def test_exit_code_contract(mode, B, alpha, m, bt, samples):
    """Any model numbers give exit 0, 2 or 3, and exit 0 prints only
    finite numbers."""
    _assert_exit_code_contract({"mode": mode, "model": {"B": B, "alpha": alpha, "m": m},
                                "times": [bt], "samples": samples})


# (B, alpha, m, Bt): half the draws are sound, so the solver runs, and half
# take the edge values above
_SOLVER_MODEL = st.one_of(
    st.tuples(st.just(1.0), st.sampled_from([0.0, 3e-16, 9.7e-16]), st.just(0.209),
              st.sampled_from([3e-30, 1e-29])),
    st.tuples(_MODEL_NUMBER, _MODEL_NUMBER, _MODEL_NUMBER, _MODEL_NUMBER))
# solver block entries: absent, sound, past a cap, and wrong-typed; a sound
# block keeps a solve under about 0.1 s
_ABSENT = object()
_SOLVER_NX = st.sampled_from([_ABSENT, 63, 64, 129, 2050, 1.5, "513", True])
_SOLVER_DT = st.sampled_from([_ABSENT, 1 / 16, 1, 0, -1, float("nan"), float("inf"),
                              0.5 / 65536, "x", True])


@given(mode=st.sampled_from(["oracle", "compare"]), model=_SOLVER_MODEL,
       nx=_SOLVER_NX, dt=_SOLVER_DT, samples=st.integers(2, 16))
@settings(derandomize=True, max_examples=1000, deadline=None)
def test_exit_code_contract_with_solver(mode, model, nx, dt, samples):
    """The solver modes keep the same contract over model numbers and the
    `solver` block."""
    B, alpha, m, bt = model
    solver = {k: v for k, v in (("nx", nx), ("dt", dt)) if v is not _ABSENT}
    _assert_exit_code_contract({"mode": mode, "model": {"B": B, "alpha": alpha, "m": m},
                                "times": [bt], "samples": samples, "solver": solver})
