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
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import mullins_profile_dim
from gbgroove import cli, oracle, outer
from gbgroove.cli import MODES, PRESETS, NonFiniteOutputError, RunConfig, main, run
from gbgroove.material import (
    PhysicalParams,
    SmallSlopeWarning,
    mullins_coefficient,
    nondimensionalize,
    stiffness_parameter,
)


# alumina on aluminium: alpha comes out within 0.5% of the figures' 9.7e-16 m^2
_PHYSICAL = dict(D_i=1e-18, n=1e19, Omega=1.66e-29, kT=1.2e-20, E=253e9, h=5e-9, nu=0.24,
                 gamma_gb=0.5999, gamma_i=1.2, gamma_s=1.67)


# the modes that read no samples count: a run of theirs gives none
_NO_SAMPLES = ("params", "depth-series")


def _samples(mode, n):
    """The samples entry for `mode`: n, or none where the mode reads none."""
    return {} if mode in _NO_SAMPLES else {"samples": n}


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
        cfg = RunConfig(mode="params", physical=_PHYSICAL, times=[1e-29])
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
        text = run(cfg)
        assert out.read_text() == text
        assert text.startswith("# gbgroove output\n# config: ")
        cfg_line = text.splitlines()[1]
        resolved = json.loads(cfg_line.removeprefix("# config: "))
        assert resolved["samples"] == 4
        assert "out" not in resolved   # path excluded: byte-identity across runs

    def test_params_output_file(self, tmp_path):
        out = tmp_path / "params.txt"
        cfg = RunConfig(mode="params", model={"B": 1.0, "alpha": 9.7e-16, "m": 0.209},
                        out=str(out))
        text = run(cfg)
        assert out.read_text() == text
        assert text.startswith("B_m4_per_s = ")

    def test_oracle_mode_small(self):
        cfg = RunConfig(mode="oracle", model={"B": 1.0, "alpha": 9.7e-16, "m": 0.209},
                        times=[1e-29], samples=8)
        text = run(cfg)
        data = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(data) == 8
        root = float(data[0].split(",")[2])
        assert root == pytest.approx(-4.07e-9, rel=0.05)

    def test_compare_mode_small(self):
        # the window reaches the series clamp, u = 12: the oracle column
        # is on the half-line, with no far edge
        cfg = RunConfig(mode="compare", model={"B": 1.0, "alpha": 9.7e-16, "m": 0.209},
                        times=[1e-29], samples=8, xmax=12.0)
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
        r = _run_cli(["--preset", "figure6"])
        assert r.returncode == 0
        assert "relative_effect" in r.stdout

    def test_main_callable_without_subprocess(self, capsys):
        code = main(["--mode", "params", "--m", "0.209", "--alpha", "9.7e-16",
                     "--B", "1.0", "--Bt", "1e-29"])
        assert code == 0
        assert "alpha_hat" in capsys.readouterr().out

    def test_calls_in_a_row_share_the_parser_and_no_state(self, capsys):
        """`main` builds its parser once, and a call leaves nothing in it:
        the appended --Bt values, the flags and the mode are each call's own."""
        argv = ["--m", "0.209", "--alpha", "9.7e-16", "--B", "1", "--samples", "4"]
        assert main(["--mode", "profile", *argv, "--Bt", "1e-29", "--Bt", "2e-29",
                     "--xmax", "3"]) == 0
        first = capsys.readouterr().out
        parser = cli._build_parser()
        assert main(["--mode", "compare", *argv, "--Bt", "3e-29"]) == 0
        second = capsys.readouterr().out
        assert cli._build_parser() is parser
        configs = [json.loads(text.splitlines()[1].removeprefix("# config: "))
                   for text in (first, second)]
        assert [c["times"] for c in configs] == [[1e-29, 2e-29], [3e-29]]
        assert [c["mode"] for c in configs] == ["profile", "compare"]
        assert [c["xmax"] for c in configs] == [3.0, None]

    def test_a_run_cannot_reach_into_the_presets(self, monkeypatch):
        """`main` copies a preset's lists and dicts, so a run that changes its
        config in place leaves PRESETS as they were; their numbers are plain
        floats, which json writes as it reads them."""
        frozen = json.dumps(PRESETS, sort_keys=True)

        def scribble(cfg):
            cfg.times.append(1.0)
            cfg.alphas.append(1.0)
            cfg.model["m"] = 0.0
            return ""

        monkeypatch.setattr(cli, "run", scribble)
        for name in PRESETS:
            assert main(["--preset", name]) == 0
        assert json.dumps(PRESETS, sort_keys=True) == frozen
        assert {type(v) for p in PRESETS.values() for v in p["times"]} == {float}


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
                                  ["--mode", "params", *_ALUMINA],
                                  *(["--mode", mode, *_ALUMINA, "--samples", "4"]
                                    for mode in ("oracle", "compare"))],
                         ids=[*sorted(PRESETS), "params", "oracle", "compare"])
def test_series_runs_load_no_scipy(argv):
    """Only the stepper factors, and no mode steps: a run of any mode, import
    included, loads no SciPy module, and no numpy.polynomial module (only
    the tests' mass quadrature uses one)."""
    r = _main_in_fresh_interpreter(argv, "loaded = [m for m in sys.modules "
                                         "for p in ('scipy', 'numpy.polynomial') "
                                         "if m == p or m.startswith(p + '.')]\n"
                                         "assert not loaded, loaded")
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("mode", [m for m in MODES if m != "params"])
def test_json_document_is_the_csv_run_on_one_line(mode, capsys):
    """A JSON run prints, on one line (CPython's C encoder runs only
    without indent), the document of the CSV run of the same input: its
    config, notes, columns and row cells."""
    argv = ["--mode", mode, *_ALUMINA, *([] if mode in _NO_SAMPLES else ["--samples", "8"])]
    text = {}
    for fmt in ("csv", "json"):
        assert main([*argv, "--format", fmt]) == 0
        text[fmt] = capsys.readouterr().out
    lines = text["csv"].splitlines()
    columns = next(l for l in lines if l.startswith("# columns: "))
    config = json.loads(lines[1].removeprefix("# config: "))
    config["fmt"] = "json"
    doc = {"config": config,
           "notes": [l.removeprefix("# ") for l in lines[2:lines.index(columns)]],
           "columns": columns.removeprefix("# columns: ").split(","),
           "rows": [l.split(",") for l in lines if not l.startswith("#")]}
    assert json.loads(text["json"]) == doc
    assert text["json"].count("\n") == 1


def _emitted_numbers(text):
    """Every number a run prints, except in the config echo (which holds B)."""
    lines = [l for l in text.splitlines() if not l.startswith("# config:")]
    numbers = re.findall(r"[-+]?\d+\.\d+e[-+]\d+", "\n".join(lines))
    return np.array([float(v) for v in numbers])


@pytest.mark.parametrize("mode", ["profile", "compare", "corner", "depth-series"])
def test_output_depends_on_B_only_through_Bt(mode, capsys):
    """At fixed Bt, every emitted number is the same whatever B is, even at
    a B whose ratio Bt / B would underflow or overflow.  Corner mode reads
    one Bt value."""
    times = ["--Bt", "1e-29"] + ([] if mode == "corner" else ["--Bt", "4.4e-30"])
    runs = {}
    for B in ("0.3", "1", "2.5", "1e300", "1e-300"):
        argv = ["--mode", mode, "--m", "0.209", "--alpha", "9.7e-16", "--B", B, *times,
                *([] if mode in _NO_SAMPLES else ["--samples", "16"])]
        assert main(argv) == 0
        runs[B] = _emitted_numbers(capsys.readouterr().out)
    assert runs["1"].size >= 10
    for B in ("0.3", "2.5", "1e300", "1e-300"):
        np.testing.assert_array_equal(runs[B], runs["1"])


@pytest.mark.parametrize("mode", ["params", "profile", "compare"])
def test_physical_block_matches_its_model_block(mode):
    """A physical block and the model block of its B, alpha and m print the
    same numbers at the same Bt."""
    phys = PhysicalParams(**_PHYSICAL)
    model = {"B": mullins_coefficient(phys), "alpha": stiffness_parameter(phys),
             "m": phys.gamma_gb / phys.gamma_surface}
    for bt in (3e-30, 1e-29):
        texts = [run(RunConfig(mode=mode, times=[bt], **_samples(mode, 16), **block))
                 for block in ({"physical": _PHYSICAL}, {"model": model})]
        numbers = [_emitted_numbers(text) for text in texts]
        assert numbers[0].size >= 5
        np.testing.assert_array_equal(*numbers)


def test_profile_makes_one_engine_pass_per_bt(monkeypatch, capsys):
    """The Mullins column is the composite's own y_0: each Bt sums all its
    outer series in one engine call."""
    calls = []
    engine = outer.hyp_series
    monkeypatch.setattr(outer, "hyp_series", lambda *args: calls.append(args) or engine(*args))
    argv = ["--mode", "profile", "--m", "0.209", "--alpha", "9.7e-16", "--B", "1",
            "--Bt", "3e-30", "--Bt", "1e-29", "--Bt", "2e-28", "--samples", "16"]
    assert main(argv) == 0
    assert len(calls) == 3
    assert len(capsys.readouterr().out.splitlines()) == 3 + 3 * 16


# Bt / L0**4 is 1.0 at 2e-28 only, so the nondimensional time t differs from
# 1 by an ulp or two at the others
_MULLINS_TIMES = [3e-30, 2e-28, 1.7e-28]


@pytest.mark.parametrize("mode", ["profile", "compare"])
@pytest.mark.parametrize("alpha", [0.0, 9.7e-16])
@pytest.mark.parametrize("order", [0, 5])
def test_mullins_column_is_mullins_profile_dim(mode, alpha, order):
    """y_mullins_m equals mullins_profile_dim at the printed x_m, bit for
    bit, whatever the composite beside it adds to y_0."""
    cfg = RunConfig(mode=mode, model={"B": 1.0, "alpha": alpha, "m": 0.209},
                    times=_MULLINS_TIMES, samples=32, order=order)
    table = np.loadtxt(io.StringIO(run(cfg)), delimiter=",", ndmin=2)
    assert table.shape == (32 * len(_MULLINS_TIMES), 5 if mode == "compare" else 4)
    for bt in _MULLINS_TIMES:
        rows = table[table[:, 0] == bt]
        xs, mullins, composite = rows[:, 1], rows[:, 2], rows[:, 3]
        assert len(xs) == 32
        params = nondimensionalize(alpha, bt, 0.209)
        assert np.array_equal(mullins, mullins_profile_dim(xs, bt, params))
        assert alpha == 0.0 or not np.array_equal(mullins, composite)


@pytest.mark.parametrize("flags", [["--m", "nan"], ["--alpha", "-1"], ["--alpha", "inf"],
                                   ["--B", "0"], ["--order", "99"], ["--xmax", "nan"],
                                   ["--B", "inf"]])
def test_exit_two_on_bad_model_numbers(flags, capsys):
    argv = ["--mode", "profile", "--m", "0.209", "--alpha", "9.7e-16", "--B", "1",
            "--Bt", "1e-29", "--samples", "4", *flags]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: config:")


@pytest.mark.parametrize("flags", [["--mode", "profile", "--xmax", "20"],
                                   ["--mode", "compare", "--xmax", "13"],
                                   *[["--mode", mode, "--xmax", "2"]
                                     for mode in ("params", "depth-series", "corner", "oracle")]],
                         ids=["past-series-clamp", "compare-past-series-clamp",
                              "params-no-window", "depth-series-no-window", "corner-no-window",
                              "oracle-no-window"])
def test_exit_two_on_xmax_past_valid_window(flags, capsys):
    # past u = 12 the series are clamped to 0: no output is made up.  Modes
    # without a profile window would ignore --xmax, so they refuse it
    argv = ["--m", "0.209", "--alpha", "9.7e-16", "--B", "1", "--Bt", "1e-29", *flags]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: config:")


def _main_on_document(doc, tmp_path, capsys):
    """Exit code, stdout lines and stderr lines of `main` on one --config
    document."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code = main(["--config", str(path)])
    out, err = capsys.readouterr()
    return code, out.splitlines(), err.strip().splitlines()


# a document that keeps every optional field at its default
_BASE = {"model": {"B": 1.0, "alpha": 9.7e-16, "m": 0.209}, "times": [1e-29]}
_FIG4 = {**_BASE, "mode": "profile", "samples": 4}


_BAD_DOCUMENTS = {
    "samples-string": {**_FIG4, "samples": "400"},
    "samples-float": {**_FIG4, "samples": 1e3},
    "samples-huge": {**_FIG4, "samples": 10**12},
    "times-string": {**_FIG4, "times": "1e-29"},
    "order-string": {**_FIG4, "order": "2"},
    "xmax-string": {**_FIG4, "xmax": "3"},
    "times-huge-integer": {**_FIG4, "times": [10 ** 400]},
    "corner_r-string": {**_FIG4, "mode": "corner", "corner_r": "nan"},
    "corner_r-not-decaying": {**_FIG4, "mode": "corner", "corner_r": -0.5},
    "model-array": {**_FIG4, "model": [1, 2]},
    "model-string": {**_FIG4, "model": {"B": "1", "alpha": 9.7e-16, "m": 0.209}},
    "model-bool": {**_FIG4, "model": {"B": 1.0, "alpha": 9.7e-16, "m": True}},
    "physical-bool": {**_FIG4, "model": None, "physical": {
        "D_i": 1e-18, "n": 1e19, "Omega": 1.66e-29, "kT": 1.2e-20, "E": 253e9, "h": 5e-9,
        "nu": 0.24, "gamma_gb": True, "gamma_i": 1.2, "gamma_s": 1.67}},
    "out-number": {**_FIG4, "out": 5},
    # solver is no field: the oracle column's spacing follows from alpha_hat,
    # so a solver block, whatever it holds, is an unknown key
    **{f"solver-{name}": {**_FIG4, "mode": "oracle", "solver": block}
       for name, block in (("nx-string", {"nx": "abc"}), ("dt-tiny", {"dt": 1e-9}),
                           ("dt-inf", {"dt": float("inf")}),
                           ("dt-past-plateau-cap", {"dt": 1 / 16}), ("L", {"L": 8.0}),
                           ("theta", {"theta": 1.0}), ("snapshot_times", {"snapshot_times": [0.5]}),
                           ("bc_order", {"bc_order": 3}), ("flux_form", {"flux_form": "balance"}))},
    "solver-outside-solver-modes": {**_FIG4, "solver": {"nx": 1025}},
    "top-level-array": [_FIG4],
    "rows-past-budget": {**_FIG4, "samples": 32768, "times": [1e-29, 2e-29, 3e-29]},
    "alphas-past-budget": {**_BASE, "mode": "depth-series", "alphas": [9.7e-16] * 256,
                           "times": [1e-29] * 257},
    # an oracle column is charged its printed rows, as a profile is
    "compare-rows-past-budget": {**_FIG4, "mode": "compare", "samples": 16385,
                                 "times": [1e-29] * 4},
    # each Bt value past the first is charged BT_ROWS on top of its rows
    "compare-bts-past-budget": {**_FIG4, "mode": "compare", "samples": 2,
                                "times": [1e-29] * 32768},
    # the half-line modes refuse alpha_hat / sqrt(t) past 1e16 (here 3.2e16)
    **{f"{mode}-alpha-hat-past-range": {**_BASE, "mode": mode, "samples": 4,
                                        "model": {"B": 1.0, "alpha": 100.0, "m": 0.209}}
       for mode in ("oracle", "compare")},
    # depth-series evaluates the closed-form N = 2 depth
    "depth-series-order": {**_BASE, "mode": "depth-series", "order": 1},
    # B is required in every mode, though no output depends on it alone
    "depth-series-no-B": {**_BASE, "mode": "depth-series",
                          "model": {"alpha": 9.7e-16, "m": 0.209}},
    # params and corner read one Bt value, and corner has no expansion order
    "params-two-times": {**_BASE, "mode": "params", "times": [1e-29, 2e-29]},
    "corner-two-times": {**_FIG4, "mode": "corner", "times": [1e-29, 2e-29]},
    "corner-order": {**_FIG4, "mode": "corner", "order": 5},
    # params and oracle evaluate no expansion: each would print the same
    # numbers without the entry
    **{f"{mode}-order": {**_BASE, "mode": mode, **_samples(mode, 4), "order": 5}
       for mode in ("params", "oracle")},
    # include_corner is no field: the composite has no corner term
    "depth-series-corner": {**_BASE, "mode": "depth-series", "include_corner": True},
    **{f"{mode}-include_corner": {**_BASE, "mode": mode, **_samples(mode, 4),
                                  "include_corner": True}
       for mode in ("params", "oracle", "corner")},
    # a corner amplitude outside corner mode, which alone reads it
    **{f"{mode}-corner_gamma-alone": {**_FIG4, "mode": mode, "corner_gamma": 0.3}
       for mode in ("profile", "compare", "oracle")},
    # entries a mode would ignore are refused, not dropped
    "alphas-outside-depth-series": {**_FIG4, "alphas": [1e-10]},
    # a corner exponent outside corner mode, a format for the plain-text
    # params mode, and a sample count for a mode that samples nothing
    "profile-corner_r-alone": {**_FIG4, "corner_r": -2.0},
    "params-fmt": {**_BASE, "mode": "params", "fmt": "json"},
    "depth-series-samples": {**_BASE, "mode": "depth-series", "samples": 7},
    # the format key is fmt, as the echoed config spells it
    "format-key": {**_FIG4, "format": "json"},
}


@pytest.mark.parametrize("doc", list(_BAD_DOCUMENTS.values()), ids=list(_BAD_DOCUMENTS))
def test_exit_two_on_bad_config_document(doc, tmp_path, capsys):
    code, _, err = _main_on_document(doc, tmp_path, capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: config:")


# one sound value per optional RunConfig field, not its default
_OPTIONAL_ENTRIES = {
    "alphas": [3e-16],
    "order": 1,
    "corner_r": -2.0,
    "corner_gamma": 0.05,
    "samples": 7,
    "xmax": 4.0,
    "fmt": "json",
    # fields no longer: every mode refuses them as unknown keys
    "solver": {"nx": 257},
    "include_corner": True,
}


@pytest.mark.parametrize("entry", list(_OPTIONAL_ENTRIES))
@pytest.mark.parametrize("mode", MODES)
def test_no_mode_drops_an_input(mode, entry, tmp_path, capsys):
    """A field set away from its default changes what the mode prints, or
    the run exits 2: no mode drops an input without a word."""
    base = {**_BASE, "mode": mode}

    def printed(doc):
        code, out, _ = _main_on_document(doc, tmp_path, capsys)
        # the config echo differs whatever the mode reads
        return code, [line for line in out if not line.startswith("# config:")]

    base_run = printed(base)
    code, out = printed({**base, entry: _OPTIONAL_ENTRIES[entry]})
    assert code == 2 or (code, out) != base_run


@pytest.mark.parametrize("mode", MODES)
def test_include_corner_is_unknown(mode, tmp_path, capsys):
    """The composite has no corner term: `include_corner`, true or false, is
    an unknown config key and `--include-corner` an unknown flag (exit 2)."""
    for value in (True, False):
        code, out, err = _main_on_document({**_BASE, "mode": mode, "include_corner": value},
                                           tmp_path, capsys)
        assert (code, out) == (2, [])
        assert err == ["error: config: unknown config keys: ['include_corner']"]
    with pytest.raises(SystemExit) as exc:
        main(["--mode", mode, *_ALUMINA, "--include-corner"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --include-corner" in err


@pytest.mark.parametrize("mode", MODES)
def test_solver_block_is_unknown(mode, tmp_path, capsys):
    """The oracle column's spacing follows from alpha_hat alone: a `solver`
    block, even an empty one, is an unknown config key (exit 2)."""
    for block in ({}, {"nx": 513}, {"dt": 1.0 / 64}):
        code, out, err = _main_on_document({**_BASE, "mode": mode, "solver": block},
                                           tmp_path, capsys)
        assert (code, out) == (2, [])
        assert err == ["error: config: unknown config keys: ['solver']"]


def test_depth_series_refuses_physical_block(tmp_path, capsys):
    # the sweep replaces model.alpha; a physical block has no alpha to replace
    doc = {**_BASE, "mode": "depth-series", "model": None, "alphas": [9.7e-16],
           "physical": {"D_i": 1e-18, "n": 1e19, "Omega": 1.66e-29, "kT": 1.2e-20,
                        "E": 253e9, "h": 5e-9, "nu": 0.24, "gamma_gb": 1.0,
                        "gamma_i": 1.2, "gamma_s": 1.67}}
    code, _, err = _main_on_document(doc, tmp_path, capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: config: depth-series sweeps model.alpha")


@pytest.mark.parametrize("doc", [
    # the wall layer thins as Bt grows: at Bt = 2e-23 m^4 the oracle column
    # needs 2173 intervals of [0, 8] to resolve it
    {**_FIG4, "mode": "compare", "times": [2e-23]},
], ids=["derived-nx"])
def test_exit_two_above_node_cap(doc, tmp_path, capsys):
    code, _, err = _main_on_document(doc, tmp_path, capsys)
    assert code == 2
    assert len(err) == 1 and "need dx >= 1/256, got dx = 0.003682" in err[0]


@pytest.mark.parametrize("mode", ["oracle", "compare", "profile"])
def test_row_budget_charges_each_bt(mode):
    """One Bt value at the budget is admitted, and so are 255 of 2 samples;
    a 256th Bt value's fixed charge passes the budget."""
    def charged(times, samples):
        cfg = RunConfig(mode=mode, model={"B": 1.0, "alpha": 9.7e-16, "m": 0.209},
                        times=times, samples=samples)
        try:
            cfg.validate()
        except cli.CliConfigError as exc:
            return str(exc)
        return None

    assert charged([1e-29], cli.MAX_ROWS) is None
    assert charged([1e-29] * 255, 2) is None
    assert charged([1e-29] * 256, 2) == "the run is charged 65792 rows; the budget is 65536"


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
_EDGE_NUMBERS = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, -1.0, 5e-324,
                 -5e-324, 2.2e-308, 1e-300, 1e300, -1e300, 10 ** 400]
_WRONG_TYPED = ["1", "nan", "", None, True, [], [1.0], {}]
_MODEL_NUMBER = st.one_of(
    st.sampled_from([1.0, 9.7e-16, 0.209, 1e-29, 3e-30]),
    st.sampled_from(_EDGE_NUMBERS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(_WRONG_TYPED))


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
                                "times": [bt], **_samples(mode, samples)})


@pytest.mark.parametrize("field", ["B", "alpha", "m", "Bt"])
@pytest.mark.parametrize("mode", ["params", "profile", "depth-series", "corner", "oracle",
                                  "compare"])
def test_exit_code_contract_one_edge_value(mode, field):
    """Every edge value on its own among sound model numbers keeps the
    contract in every mode: the drawn tests above seldom try one extreme
    value among sound ones."""
    for value in [*_EDGE_NUMBERS, *_WRONG_TYPED]:
        model = {"B": 1.0, "alpha": 9.7e-16, "m": 0.209, field: value}
        bt = model.pop("Bt", 1e-29)
        _assert_exit_code_contract({"mode": mode, "model": model, "times": [bt],
                                    **_samples(mode, 4)})


# (B, alpha, m, Bt): half the draws are sound, so the oracle column is
# computed, and half take the edge values above
_ORACLE_MODEL = st.one_of(
    st.tuples(st.just(1.0), st.sampled_from([0.0, 3e-16, 9.7e-16]), st.just(0.209),
              st.sampled_from([3e-30, 1e-29])),
    st.tuples(_MODEL_NUMBER, _MODEL_NUMBER, _MODEL_NUMBER, _MODEL_NUMBER))


@given(mode=st.sampled_from(["oracle", "compare"]), model=_ORACLE_MODEL,
       samples=st.integers(2, 16))
@settings(derandomize=True, max_examples=1000, deadline=None)
def test_exit_code_contract_oracle_modes(mode, model, samples):
    """The modes with an oracle column keep the same contract over model
    numbers."""
    B, alpha, m, bt = model
    _assert_exit_code_contract({"mode": mode, "model": {"B": B, "alpha": alpha, "m": m},
                                "times": [bt], "samples": samples})


@pytest.mark.parametrize("mode", ["profile", "compare", "oracle"])
def test_each_bt_is_reduced_on_its_own(mode, capsys):
    """The model block is reduced at each Bt value: alpha 1e160 is sound at
    Bt 1e300 (alpha_hat 1e10), and a second Bt of 1e-300 (alpha_hat inf)
    exits 2 with the refusal of that Bt's reduction."""
    argv = ["--mode", mode, "--m", "0.209", "--alpha", "1e160", "--B", "1", "--Bt", "1e300",
            "--samples", "4"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main([*argv, "--Bt", "1e-300"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: config: bad model block: alpha_hat must be non-negative and finite, "
                   "got inf\n")


def test_oracle_mode_solves_the_modes_once_per_bt(capsys):
    """An oracle run takes each Bt value's heights and mass from one modal
    solve: two Bt values, two `_wall_modes` calls."""
    with mock.patch.object(oracle, "_wall_modes", wraps=oracle._wall_modes) as spy:
        assert main(["--mode", "oracle", *_ALUMINA, "--Bt", "2e-29", "--samples", "4"]) == 0
    assert spy.call_count == 2
    assert capsys.readouterr().out.count("mass=") == 2


# ---- the table formatter ------------------------------------------------

# edge values, any finite float, and mixed magnitudes from 1e-30 to 1e4
_CELL = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 2.2e-308, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
              st.sampled_from([1.0, -1.0]), st.floats(1.0, 10.0), st.integers(-30, 4)))
_TABLE = arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9),
                elements=_CELL)
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])


def _table_config(fmt):
    return RunConfig(mode="profile", model={"B": 1.0, "alpha": 9.7e-16, "m": 0.209},
                     times=[1e-29], fmt=fmt)


def _per_number_text(cfg, columns, rows, notes):
    """The table as the CLI rendered it with one f-string per number."""
    header_cfg = json.dumps(cfg.resolved(), sort_keys=True)
    if cfg.fmt == "csv":
        lines = ["# gbgroove output", f"# config: {header_cfg}"]
        lines += [f"# {n}" for n in notes]
        lines.append("# columns: " + ",".join(columns))
        lines += [",".join(f"{v:.16e}" for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    doc = {"config": json.loads(header_cfg), "notes": notes, "columns": columns,
           "rows": [[f"{v:.16e}" for v in row] for row in rows]}
    return json.dumps(doc, sort_keys=True) + "\n"


@given(table=_TABLE, fmt=st.sampled_from(["csv", "json"]))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_table_text_matches_per_number_rendering(table, fmt):
    """One format call over the table writes the text that formatting each
    number on its own wrote, in both formats."""
    cfg = _table_config(fmt)
    columns = [f"c{j}" for j in range(table.shape[1])]
    notes = ["a note"]
    text = cli._write_table(cfg, columns, table, notes, gaps=[0.5])
    assert text == _per_number_text(cfg, columns, table.tolist(), notes)


def _with_neighbours(values):
    v = np.asarray(values, dtype=float)
    return np.concatenate([v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)])


def _signed_rows(values, ncols=4):
    """The values and their negatives, padded with zeros to rows of `ncols`."""
    v = np.asarray(values, dtype=float)
    v = np.concatenate([v, -v])
    v = v[np.isfinite(v)]
    return np.concatenate([v, np.zeros(-len(v) % ncols)]).reshape(-1, ncols)


def _mixed_table(nrows, ncols):
    rng = np.random.default_rng(30)
    shape = (nrows, ncols)
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)


_RENDER_CASES = {
    # j 10^k over every k a double reaches, where log10 misses the exponent
    # by one on one side or the other
    "powers-of-ten": lambda: _signed_rows(_with_neighbours(
        [v for k in range(-323, 309) for j in range(1, 10)
         if 0.0 < (v := float(f"{j}e{k}")) < np.inf])),
    # 1e-280, which lies below 10^-280 and prints as 9.9999999999999996e-281,
    # an exact power of ten, the fast range's ends, and |x| 10^k next to 1e16
    # and 1e17
    "edges": lambda: _signed_rows(_with_neighbours(
        [1e-280, 1e20, *cli._FAST_RANGE, 1e-281, 1e281,
         *(1e16 + 2.0 * i for i in range(-4, 5)), *(1e17 + 16.0 * i for i in range(-4, 5))])),
    # (2^17 + 1) / 2^17 = 1.00000762939453125 has 18 digits and a last 5:
    # an exact tie, rounded to even; its kin are ties or near them
    "dyadic-ties": lambda: _signed_rows(
        [(2 ** j + i) / 2 ** j for j in range(1, 60) for i in range(1, 40, 2)]),
    "integers": lambda: _signed_rows(
        [float(2 ** j + d) for j in range(64) for d in (-1, 0, 1)] + [2.0 ** 63]),
    "extremes": lambda: _signed_rows(
        [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308]),
    "past-one-block": lambda: _mixed_table(cli._BLOCK_CELLS // 3 + 7, 3),
    "one-column": lambda: _mixed_table(257, 1),
}


@pytest.mark.parametrize("case", list(_RENDER_CASES))
def test_table_text_matches_per_number_rendering_on_hard_cases(case):
    """The array renderer writes `%.16e` byte for byte where its fast path
    must hand a cell on or decide it near the edge."""
    table = _RENDER_CASES[case]()
    cfg = _table_config("csv")
    columns = [f"c{j}" for j in range(table.shape[1])]
    got = cli._write_table(cfg, columns, table, []).splitlines()
    want = _per_number_text(cfg, columns, table.tolist(), []).splitlines()
    # the first few differing lines, not a diff of the whole text
    assert len(got) == len(want)
    assert [(g, w) for g, w in zip(got, want) if g != w][:5] == []


_JSON_ROW_CASES = {
    "one-row": lambda: np.array([[1.0, -2.5, 0.0, 3e-5]]),
    "past-one-block": lambda: _mixed_table(cli._BLOCK_CELLS // 3 + 7, 3),
    "signed-three-digit-exponents": lambda: _signed_rows(
        [1.5e-300, 2.0e250, 7.25e-123, 9.9e100, 1e-100, 5e-324, 1.7976931348623157e308]),
    "no-rows": lambda: np.empty((0, 4)),
}


@pytest.mark.parametrize("case", list(_JSON_ROW_CASES))
def test_json_rows_spliced_as_json_dumps_writes_them(case):
    """The JSON writer splices "rows" in from the rendered body: the text is
    json.dumps of the document whose rows are the body's lines split at
    commas."""
    table = _JSON_ROW_CASES[case]()
    cfg = _table_config("json")
    columns = [f"c{j}" for j in range(table.shape[1])]
    notes = ["a note", "Bt=1e-29: mass=-0.5"]
    body = cli._render_table(table)
    doc = {"config": cfg.resolved(), "notes": notes, "columns": columns,
           "rows": [line.split(",") for line in body.splitlines()]}
    assert cli._write_table(cfg, columns, table, notes) == json.dumps(doc, sort_keys=True) + "\n"


@given(table=_TABLE, bad=_NON_FINITE, data=st.data())
@settings(derandomize=True, max_examples=100, deadline=None)
def test_non_finite_cell_or_gap_is_refused(table, bad, data):
    cfg = _table_config(data.draw(st.sampled_from(["csv", "json"])))
    columns = [f"c{j}" for j in range(table.shape[1])]
    i = data.draw(st.integers(0, table.shape[0] - 1))
    j = data.draw(st.integers(0, table.shape[1] - 1))
    poisoned = table.copy()
    poisoned[i, j] = bad
    with pytest.raises(NonFiniteOutputError):
        cli._write_table(cfg, columns, poisoned, [])
    gaps = data.draw(st.lists(st.floats(0.0, 1.0), max_size=3))
    gaps.insert(data.draw(st.integers(0, len(gaps))), bad)
    with pytest.raises(NonFiniteOutputError):
        cli._write_table(cfg, columns, table, [], gaps=gaps)


@given(bad=_NON_FINITE, samples=st.integers(2, 8), data=st.data(),
       fmt=st.sampled_from(["csv", "json"]))
@settings(derandomize=True, max_examples=40, deadline=None)
def test_non_finite_output_exits_three(bad, samples, data, fmt):
    """A non-finite table cell (profile), sup gap (compare) or mass
    (oracle) exits 3 with the two error lines and prints nothing."""
    mullins_and_composite = cli.mullins_and_composite
    index = data.draw(st.integers(0, samples - 1))

    def poisoned_profile(*args):
        ym, ys = mullins_and_composite(*args)
        ys[index] = bad
        return ym, ys

    def poisoned_heights(xmax, samples, *args):
        return np.full(samples, bad), 0.0

    def poisoned_mass(xmax, samples, *args):
        return np.zeros(samples), bad

    mode, patch = {
        "cell": ("profile", mock.patch.object(cli, "mullins_and_composite", poisoned_profile)),
        "gap": ("compare", mock.patch.object(cli, "halfline_profile", poisoned_heights)),
        "mass": ("oracle", mock.patch.object(cli, "halfline_profile", poisoned_mass)),
    }[data.draw(st.sampled_from(["cell", "gap", "mass"]))]
    out, err = io.StringIO(), io.StringIO()
    with patch, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--mode", mode, *_ALUMINA, "--samples", str(samples), "--format", fmt])
    assert code == 3
    assert out.getvalue() == ""
    assert err.getvalue().splitlines() == [
        "error: numerical failure",
        "  NonFiniteOutputError: the run produced a non-finite output value"]
