import dataclasses
import multiprocessing
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from quenchlab import cli, quench2d
from quenchlab.cli import (ExperimentConfig, apply_setting, compare_prediction,
                           main, measure_steady_angle, parse_config, run,
                           write_manifest)
from quenchlab.errors import (ConfigError, LinearSolveFailure, MissingBaseline,
                              NotConverged)
from quenchlab.model import ModelParams
from quenchlab.profiles1d import angle_from_speed, frame_speed, solve_traveling_wave
from quenchlab.quench2d import (Field2D, SemiImplicitStepper, run_to_steady,
                                solve_comoving_steady)


def test_apply_setting_types():
    cfg = ExperimentConfig()
    apply_setting(cfg, "model.c_x", "0.3")
    apply_setting(cfg, "model.g_right", "1.0, 0.0, 2.5")
    apply_setting(cfg, "sweep.alphas", "-0.1,0,0.1")
    apply_setting(cfg, "solver.max_steps", "500")
    assert cfg.c_x == 0.3
    assert cfg.g_right == (1.0, 0.0, 2.5)
    assert cfg.sweep_alphas == (-0.1, 0.0, 0.1)
    assert cfg.solver_max_steps == 500


def test_unknown_key_rejected(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("model.cx_typo = 1.0\n")
    with pytest.raises(ConfigError):
        parse_config(str(cfg_file))
    with pytest.raises(ConfigError):
        apply_setting(ExperimentConfig(), "nonsense.key", "1")
    # solver.threads was never used and is gone; old manifests name it
    with pytest.raises(ConfigError, match="solver.threads"):
        apply_setting(ExperimentConfig(), "solver.threads", "1")
    # the bordered solve has no ridge; old manifests name bordered.ridge
    with pytest.raises(ConfigError, match="bordered.ridge"):
        apply_setting(ExperimentConfig(), "bordered.ridge", "1e-5")
    # the weight rate is min(c_x, 1)/4; old manifests name bordered.eta
    with pytest.raises(ConfigError, match="bordered.eta"):
        apply_setting(ExperimentConfig(), "bordered.eta", "0.125")
    # the drift rounds are gone with their three keys
    for key in ("measure.round_steps", "measure.max_rounds", "measure.drift_tol"):
        with pytest.raises(ConfigError, match=key):
            apply_setting(ExperimentConfig(), key, "1")


def test_parse_config_with_comments(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("""
# a comment
mode = spectrum
model.c_x = 0.4   # inline comment
grid1d.h = 0.05
""")
    cfg = parse_config(str(cfg_file))
    assert cfg.mode == "spectrum" and cfg.c_x == 0.4 and cfg.grid1d_h == 0.05


def test_config_validation():
    cfg = ExperimentConfig(mode="nope")
    with pytest.raises(ConfigError):
        run(cfg)
    with pytest.raises(ConfigError):
        run(ExperimentConfig(solver_dt=-1.0))
    # a march of no steps used to end in NotConverged after 0 steps
    for steps in (0, -3):
        with pytest.raises(ConfigError, match="solver.max_steps must be at least 1"):
            run(ExperimentConfig(mode="theta", solver_max_steps=steps))


def test_profile_mode_deterministic_and_manifest_roundtrip(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    cfg = ExperimentConfig(mode="profile", c_x=0.5, grid1d_half_width=16.0,
                           grid1d_h=0.05, output_dir=str(out1))
    assert run(cfg, log=lambda *a: None) == 0
    # rerun from the manifest: bit-identical numeric CSV
    cfg2 = parse_config(str(out1 / "manifest.txt"))
    cfg2.output_dir = str(out2)
    assert run(cfg2, log=lambda *a: None) == 0
    for name in ("front_top.csv", "front_bottom.csv", "wave.csv"):
        assert (out1 / name).read_text() == (out2 / name).read_text()


def test_spectrum_mode(tmp_path):
    cfg = ExperimentConfig(mode="spectrum", c_x=0.5, grid1d_half_width=20.0,
                           grid1d_h=0.05, output_dir=str(tmp_path))
    assert run(cfg, log=lambda *a: None) == 0
    text = (tmp_path / "spectrum_report.txt").read_text()
    key, val = [ln for ln in text.splitlines() if "max_real_eig" in ln][0].split("=")
    assert float(val) < -0.05
    # a rerun into the same directory rewrites the report
    assert run(cfg, log=lambda *a: None) == 0
    keys = [ln.split("=")[0].strip() for ln in
            (tmp_path / "spectrum_report.txt").read_text().splitlines()]
    assert sorted(keys) == ["c_x", "max_real_eig_front"]


def test_empty_sweep_writes_header_only(tmp_path):
    cfg = ExperimentConfig(mode="sweep", output_dir=str(tmp_path))
    assert run(cfg, log=lambda *a: None) == 0
    assert (tmp_path / "sweep.csv").read_text() == \
        "alpha,psi_measured,psi_predicted,drift\n"


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("QUENCHLAB_OUTPUT_ROOT", str(tmp_path))
    cfg = ExperimentConfig(mode="sweep", output_dir="nested/run1")
    assert run(cfg, log=lambda *a: None) == 0
    assert (tmp_path / "nested" / "run1" / "sweep.csv").exists()


def test_compare_prediction(tmp_path):
    table = tmp_path / "sweep.csv"
    table.write_text(
        "alpha,psi_measured,psi_predicted,drift\n"
        "-0.02,-0.033,-0.0339,0\n"
        "0,0.0001,0,0\n"
        "0.02,0.033,0.0339,0\n"
        "0.1,0.16,0.1695,0\n"
        "-0.1,-0.16,-0.1695,0\n")
    summary = compare_prediction(str(table))
    assert summary["alpha_pair"] == 0.02  # smallest pair
    assert summary["slope_measured"] == pytest.approx(1.65)
    assert summary["slope_predicted"] == pytest.approx(1.695)
    assert abs(summary["relative_deviation"]) < 0.05


def test_compare_non_numeric_cell_fails_typed(tmp_path, capsys):
    table = tmp_path / "sweep.csv"
    table.write_text("alpha,psi_measured,psi_predicted,drift\n"
                     "0,0,0,0\n0.02,abc,0.03,0\n")
    with pytest.raises(MissingBaseline, match=re.escape(f"{table}:3:")):
        compare_prediction(str(table))
    assert main(["compare", "--out", str(tmp_path),
                 "--set", f"compare.table={table}"]) == 1
    err = capsys.readouterr().err
    assert f"quenchlab: error: {table}:3:" in err and "Traceback" not in err


@pytest.mark.parametrize("rows, line, message", [
    ("0,0,0,0\n0.02,0.033\n-0.02,-0.033,-0.0339,0\n", 3, "2 cells"),
    ("-0.02,-0.033,-0.0339,0\n0,0.0001,0,0\n0.02,0.033,0.0339,0\n"
     "0.02,0.5,0.0339,0\n", 5, "repeats the row of alpha = 0.02"),
], ids=["short row", "repeated alpha"])
def test_compare_rejects_short_and_repeated_rows(tmp_path, capsys, rows, line,
                                                 message):
    # neither row may be dropped or overwritten without a word
    table = tmp_path / "sweep.csv"
    table.write_text("alpha,psi_measured,psi_predicted,drift\n" + rows)
    with pytest.raises(MissingBaseline, match=re.escape(f"{table}:{line}: {message}")):
        compare_prediction(str(table))
    assert main(["compare", "--out", str(tmp_path),
                 "--set", f"compare.table={table}"]) == 1
    assert f"quenchlab: error: {table}:{line}:" in capsys.readouterr().err


def test_compare_prediction_missing_baseline(tmp_path):
    table = tmp_path / "sweep.csv"
    table.write_text("alpha,psi_measured,psi_predicted,drift\n"
                     "0.02,0.03,0.03,0\n-0.02,-0.03,-0.03,0\n")
    with pytest.raises(MissingBaseline):
        compare_prediction(str(table))
    table.write_text("alpha,psi_measured,psi_predicted,drift\n0,0,0,0\n")
    with pytest.raises(MissingBaseline):
        compare_prediction(str(table))


def test_main_subcommands(tmp_path, capsys):
    rc = main(["spectrum", "--out", str(tmp_path / "s"),
               "--set", "grid1d.half_width=20", "--set", "grid1d.h=0.05"])
    assert rc == 0
    assert (tmp_path / "s" / "spectrum_report.txt").exists()
    assert (tmp_path / "s" / "manifest.txt").exists()
    rc = main(["profile", "--set", "bogus.key=1", "--out", str(tmp_path / "p")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_flags_override_config_file_before_validation(tmp_path, capsys):
    # the file alone is invalid; the subcommand and --set make it valid, and
    # only the final configuration is validated
    small = ["--set", "grid1d.half_width=12", "--set", "grid1d.h=0.1"]
    window = tmp_path / "window.cfg"
    window.write_text("measure.window_hi = -3\n")
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text("mode = sweep\nmodel.c_x = 0\n")
    for cfg_file, extra, out in ((window, ["--set", "measure.window_hi=-10"], "a"),
                                 (sweep, [], "b")):
        assert main(["profile", "--config", str(cfg_file), "--out",
                     str(tmp_path / out)] + small + extra) == 0
        assert (tmp_path / out / "manifest.txt").exists()
    # still invalid after the flags: a typed error and no manifest
    assert main(["profile", "--config", str(window), "--out", str(tmp_path / "c"),
                 "--set", "measure.window_hi=-3"] + small) == 1
    err = capsys.readouterr().err
    assert "quenchlab: error: measure.window_lo" in err and "Traceback" not in err
    assert not (tmp_path / "c" / "manifest.txt").exists()


_TINY_GRID2D = ["grid2d.half_width_x=10", "grid2d.half_width_y=10", "grid2d.h=0.5"]

#: a 97^2 sweep grid whose march is 144 steps
_SMALL_SWEEP = ["--set", "grid2d.half_width_x=24", "--set", "grid2d.half_width_y=24",
                "--set", "grid2d.h=0.5", "--set", "measure.window_lo=-18",
                "--set", "measure.window_hi=-7"]


@pytest.mark.parametrize("mode, settings", [
    ("bordered", ["bordered.half_width=0.1"]),
    ("bordered", ["bordered.h=-0.25"]),
    ("bordered", ["model.c_x=0"]),
    ("bordered", ["bordered.R=2"]),
    ("bordered", ["bordered.h=0"]),
    ("sweep", ["measure.window_hi=-4"]),
    ("sweep", ["measure.window_lo=-10", "measure.window_hi=-20"]),
    ("theta", ["grid2d.h=0"]),
    ("theta", ["grid2d.h=-0.5"]),
    ("theta", ["grid2d.half_width_x=0"]),
    ("profile", ["grid1d.h=0"]),
    ("profile", ["grid1d.half_width=0"]),
    ("profile", ["grid1d.half_width=0.01"]),
    ("sweep", ["model.c_x=0", "sweep.alphas=0"]),
    # NaN fails every comparison, so each bound must be written to reject it
    ("sweep", ["measure.steady_tol=nan"]),
    ("sweep", ["measure.steady_tol=0"]),
    ("theta", ["solver.tol=nan"]),
    ("theta", ["solver.dt=nan"]),
    ("bordered", ["bordered.R=nan"]),
    ("bordered", ["model.c_x=nan"]),
    ("bordered", ["model.alpha=nan", "bordered.half_width=10", "bordered.h=0.5",
                  "bordered.R=4"]),
    ("melnikov", ["model.g_right=nan"]),
    ("simulate", ["model.c_y=nan"]),
    ("sweep", ["sweep.alphas=nan"]),
    # inf passes "> 0" and ">=" bounds, so every float setting must be finite
    ("simulate", ["solver.tol=inf"] + _TINY_GRID2D),
    ("theta", ["solver.tol=inf"] + _TINY_GRID2D),
    ("sweep", ["measure.steady_tol=inf", "sweep.alphas=0.02", "model.g_right=1",
               "grid2d.half_width_x=24", "grid2d.half_width_y=24", "grid2d.h=0.5"]),
    ("theta", ["grid2d.half_width_x=inf"]),
    ("profile", ["grid1d.half_width=inf"]),
    ("bordered", ["bordered.half_width=inf"]),
    ("sweep", ["measure.window_lo=-inf"]),
    # a repeated alpha would measure one point twice; 0 and -0 are one point
    ("sweep", ["sweep.alphas=0.02,0.02", "model.g_right=1"] + _SMALL_SWEEP[1::2]),
    ("sweep", ["sweep.alphas=0,0.02,-0", "model.g_right=1"] + _SMALL_SWEEP[1::2]),
    # the seed dphi_dalpha * alpha = 1.61 lies beyond pi/2: no frame speed
    ("sweep", ["sweep.alphas=0.95", "model.g_right=1"] + _SMALL_SWEEP[1::2]),
    # the front passes its own endpoint check, but the linearization's
    # potential has not flattened at the domain ends
    ("spectrum", ["grid1d.half_width=11", "grid1d.h=0.1"]),
])
def test_out_of_range_settings_fail_typed(tmp_path, capsys, mode, settings):
    argv = [mode, "--out", str(tmp_path)]
    for item in settings:
        argv += ["--set", item]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "quenchlab: error:" in err and "Traceback" not in err
    assert not (tmp_path / "manifest.txt").exists()


def test_sweep_and_compare_end_to_end(tmp_path):
    # coarse but complete pipeline: predictions, three marching runs, compare
    cfg = ExperimentConfig(mode="sweep", c_x=0.5, g_right=(1.0,),
                           sweep_alphas=(-0.05, 0.0, 0.05),
                           grid2d_half_width_x=40.0, grid2d_half_width_y=40.0,
                           grid2d_h=0.5, grid1d_h=0.02,
                           measure_window_lo=-30.0, measure_window_hi=-10.0,
                           output_dir=str(tmp_path))
    assert run(cfg, log=lambda *a: None) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(rows) == 4
    psi = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows[1:]}
    assert psi[0.05] > 0.05 and psi[-0.05] < -0.05  # monotone in alpha
    assert abs(psi[0.0]) < 0.01
    drift = [abs(float(r.split(",")[3])) for r in rows[1:]]
    assert max(drift) < 1e-3  # comoving frame found
    cfg2 = ExperimentConfig(mode="compare",
                            compare_table=str(tmp_path / "sweep.csv"),
                            output_dir=str(tmp_path))
    assert run(cfg2, log=lambda *a: None) == 0
    summary = compare_prediction(str(tmp_path / "sweep.csv"))
    assert abs(summary["relative_deviation"]) < 0.15


def test_sweep_unperturbed_is_flat(tmp_path):
    cfg = ExperimentConfig(mode="sweep", c_x=0.5, sweep_alphas=(-0.05, 0.0, 0.05),
                           grid2d_half_width_x=40.0, grid2d_half_width_y=40.0,
                           grid2d_h=0.5, grid1d_h=0.02,
                           measure_window_lo=-30.0, measure_window_hi=-10.0,
                           output_dir=str(tmp_path))
    assert run(cfg, log=lambda *a: None) == 0
    summary = compare_prediction(str(tmp_path / "sweep.csv"))
    assert abs(summary["slope_measured"]) < 0.01


def _small_sweep_config(**kw) -> ExperimentConfig:
    cfg = ExperimentConfig(mode="sweep", **kw)
    for item in _SMALL_SWEEP[1::2]:
        apply_setting(cfg, *item.split("="))
    return cfg


def test_measurement_reports_convergence(tmp_path, monkeypatch, capsys):
    # one Newton step does not reach measure.steady_tol: a typed failure
    # that names the level, the 2h grid's h = 1 failing first, and the
    # sweep exits 1 instead of writing an unsteady angle
    monkeypatch.setattr(quench2d, "_NK_MAX_ITER", 1)
    cfg = _small_sweep_config(g_right=(1.0,))
    with pytest.raises(NotConverged, match="after 1 Newton steps at h = 1$"):
        measure_steady_angle(cfg.model_params(alpha=0.02), cfg, psi_seed=0.034)
    # two workers: one fails while the other still runs; the parent re-raises
    # the worker's NotConverged and joins both before main returns
    assert main(["sweep", "--out", str(tmp_path), "--set", "model.g_right=1",
                 "--set", "sweep.alphas=-0.02,0.02"] + _SMALL_SWEEP) == 1
    err = capsys.readouterr().err
    assert "quenchlab: error: steady residual" in err and "Traceback" not in err
    assert "Newton steps at h = 1\n" in err
    assert multiprocessing.active_children() == []


def test_sweep_workers_match_in_process_points(tmp_path):
    # the points measured in worker processes equal, bit for bit, the same
    # measurements in this process; the manifest keeps each point's record,
    # one Newton history per grid level, and the log counts both levels
    cfg = _small_sweep_config(g_right=(1.0,), sweep_alphas=(-0.02, 0.02),
                              output_dir=str(tmp_path))
    log = []
    assert run(cfg, log=log.append) == 0
    assert multiprocessing.active_children() == []
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    for row in rows:
        alpha, psi, psi_pred, drift = (float(v) for v in row.split(","))
        here = measure_steady_angle(cfg.model_params(alpha=alpha), cfg,
                                    psi_seed=psi_pred)
        assert (psi, drift) == (here["psi"], here["drift"])
    assert parse_config(str(tmp_path / "manifest.txt")) == cfg
    lines = (tmp_path / "manifest.txt").read_text().splitlines()
    assert "# timing.prediction_s" in {line.split(" = ")[0] for line in lines}
    for k in (1, 2):
        assert sum(line.startswith(f"# timing.sweep_{k}_s = ") for line in lines) == 1
        steps = []
        for name in (f"sweep_{k}_2h", f"sweep_{k}"):
            history = [line for line in lines if line.startswith(f"# history.{name} = ")]
            assert len(history) == 1
            steps.append(history[0].split(" = ")[1].split(","))
            assert all(re.fullmatch(r"[0-9.e+-]+:[0-9]+", step) for step in steps[-1])
        point = [line for line in log if line.startswith("  alpha=")][k - 1]
        assert re.search(r" error_h=[0-9.]+e-[0-9]+ ", point)
        assert point.endswith(f" newton_steps={len(steps[0])}+{len(steps[1])}")


def test_marched_levels_land_where_one_level_lands():
    # the 2h level only moves the h level's start: psi is the one fine
    # level's, march and steady solve at h, up to the steady stop's slack,
    # and the +-alpha points stay mirror images
    cfg = _small_sweep_config(g_right=(1.0,))
    psi = {}
    for alpha in (0.02, -0.02):
        p = cfg.model_params(alpha=alpha)
        seed = 1.7 * alpha
        r = measure_steady_angle(p, cfg, psi_seed=seed)
        assert r["history_2h"] and r["error_h"] == abs(r["psi"] - r["psi_2h"]) / 3.0
        c_n = solve_traveling_wave(p, cfg.grid1d()).speed
        p = p.replace(c_y=frame_speed(seed, c_n, p.c_x))
        u0 = cli._step_initial_data(p, cfg)
        steps = int(np.ceil(abs(cfg.measure_window_lo) / p.c_x / cfg.solver_dt))
        marched = run_to_steady(SemiImplicitStepper(u0, p, cfg.solver_dt), u0,
                                tol=0.0, max_steps=steps)
        single = solve_comoving_steady(marched.field, p, cfg.measure_steady_tol)
        assert r["psi"] == pytest.approx(angle_from_speed(single.c_y, c_n, p.c_x),
                                         rel=1e-6, abs=0.0)
        psi[alpha] = r["psi"]
    assert abs(psi[0.02] + psi[-0.02]) <= 1e-10


@pytest.mark.parametrize("settings, c_y, want", [
    ({}, 0.0, [0.5, 1.0]),
    ({"grid2d_h": 0.25}, 0.0, [0.25, 0.5]),
    # 24.5 / 0.5 = 49 nodes per half-width: no 2h grid spans the same box
    ({"grid2d_half_width_x": 24.5}, 0.0, [0.5]),
    ({"grid2d_half_width_y": 24.5}, 0.0, [0.5]),
    # 2h = 1.5 is coarser than the coarsest marched grid
    ({"grid2d_h": 0.75}, 0.0, [0.75]),
    # cell Peclet numbers below 2 at h, not at 2h
    ({"c_x": 2.5}, 0.0, [0.5]),
    ({}, -2.5, [0.5]),
])
def test_march_spacings_stop_at_odd_count_coarsest_or_peclet(settings, c_y, want):
    cfg = dataclasses.replace(ExperimentConfig(
        grid2d_half_width_x=24.0, grid2d_half_width_y=24.0, grid2d_h=0.5), **settings)
    assert cli._march_spacings(cfg, cfg.model_params().replace(c_y=c_y)) == want


def test_march_spacings_keep_the_2h_stepper_inside_its_peclet_guard():
    # c_x = 2.5 marches at h = 0.5, but a 2h stepper would raise: the
    # rule above keeps such a config on one level
    p = ModelParams(c_x=2.5)
    SemiImplicitStepper(Field2D.on_rectangle(4.0, 4.0, 0.5), p, 0.25)
    with pytest.raises(LinearSolveFailure, match="cell Peclet"):
        SemiImplicitStepper(Field2D.on_rectangle(4.0, 4.0, 1.0), p, 0.25)


def test_odd_node_count_sweeps_one_level(tmp_path):
    # 24.5 / 0.5 = 49 nodes per half-width: one level, with no error bar
    # and no 2h history
    cfg = dataclasses.replace(
        _small_sweep_config(g_right=(1.0,), sweep_alphas=(0.02,),
                            output_dir=str(tmp_path)),
        grid2d_half_width_x=24.5, grid2d_half_width_y=24.5)
    log = []
    assert run(cfg, log=log.append) == 0
    lines = (tmp_path / "manifest.txt").read_text().splitlines()
    assert sum(line.startswith("# history.sweep_1 = ") for line in lines) == 1
    assert not any(line.startswith("# history.sweep_1_2h") for line in lines)
    point = [line for line in log if line.startswith("  alpha=")][0]
    assert " error_h=none " in point
    assert re.search(r" newton_steps=[0-9]+$", point)


def test_bordered_manifest_records_refinement_history(tmp_path):
    # one residual:rounds entry per iteration and level, 0 rounds where it
    # factored; h = 0.25 runs an h = 0.5 level first
    lines = []
    cfg = ExperimentConfig(mode="bordered", alpha=0.1, g_right=(1.0,),
                           bordered_half_width=12.0, bordered_h=0.25,
                           bordered_R=4.0, output_dir=str(tmp_path))
    assert run(cfg, log=lines.append) == 0
    meta = dict(line.split(" = ") for line in
                (tmp_path / "core_correction.meta").read_text().splitlines())
    assert float(meta["error_h"]) > 0
    manifest = (tmp_path / "manifest.txt").read_text().splitlines()
    rounds = {}
    for name in ("bordered", "bordered_2h"):
        history = [line.split(" = ")[1] for line in manifest
                   if line.startswith(f"# history.{name} = ")]
        assert len(history) == 1
        steps = history[0].split(",")
        assert all(re.fullmatch(r"[0-9.e+-]+:[0-9]+", step) for step in steps)
        rounds[name] = [int(step.split(":")[1]) for step in steps]
        assert rounds[name][0] == 0
    assert not any(line.startswith("# history.bordered_4h") for line in manifest)
    assert len(rounds["bordered"]) == int(meta["iterations"])
    coarse, fine = rounds["bordered_2h"], rounds["bordered"]
    assert (f" iterations={len(coarse)}+{len(fine)} "
            f"factorizations={coarse.count(0)}+{fine.count(0)} ") in lines[-1]


def test_measured_field_is_steady():
    # one more step at solver.dt moves the field the angle is read from by
    # at most measure.steady_tol (the drift rounds left it moving by 1e-5)
    cfg = _small_sweep_config(g_right=(1.0,))
    p = cfg.model_params(alpha=0.02)
    result = measure_steady_angle(p, cfg, psi_seed=0.034)
    u = result["field"].data
    stepper = SemiImplicitStepper(result["field"], p.replace(c_y=result["c_y"]),
                                  cfg.solver_dt)
    assert np.abs(stepper.step(u) - u).max() <= cfg.measure_steady_tol
    assert result["update_rate"] <= cfg.measure_steady_tol
    assert result["history"] and result["history"][-1][0] == result["update_rate"]


def test_cli_import_leaves_out_unused_scipy_modules(tmp_path):
    # no mode loads scipy.interpolate or scipy.optimize, a bordered solve
    # included; model is numpy-only and loads no scipy at all
    src = os.path.dirname(os.path.dirname(quench2d.__file__))
    bordered = ("from quenchlab.cli import main; assert main(['bordered', "
                f"'--out', {str(tmp_path)!r}, '--set', 'bordered.half_width=12', "
                "'--set', 'bordered.h=0.5', '--set', 'bordered.R=4', "
                "'--set', 'model.alpha=0.1', '--set', 'model.g_right=1']) == 0")
    for run_code, prefixes in (
            ("import quenchlab.cli", "('scipy.interpolate', 'scipy.optimize')"),
            (bordered, "('scipy.interpolate', 'scipy.optimize')"),
            ("import quenchlab.model", "'scipy'")):
        code = (f"import sys; {run_code}; print(sorted(m for m in "
                f"sys.modules if m.startswith({prefixes})))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip().splitlines()[-1] == "[]", run_code


def test_simulate_mode(tmp_path):
    cfg = ExperimentConfig(mode="simulate", c_x=0.5, c_y=0.0,
                           grid2d_half_width_x=16.0, grid2d_half_width_y=16.0,
                           grid2d_h=0.5, solver_max_steps=200,
                           output_dir=str(tmp_path))
    assert run(cfg, log=lambda *a: None) == 0
    from quenchlab.quench2d import read_field
    final = read_field(str(tmp_path / "final.qnch"))
    assert final.nx == 65
    track = (tmp_path / "contact_track.csv").read_text().splitlines()
    assert track[0] == "t,y_contact"
    assert len(track) > 10


def test_melnikov_mode(tmp_path):
    cfg = ExperimentConfig(mode="melnikov", c_x=0.5, g_right=(1.0,),
                           grid2d_half_width_x=24.0, grid2d_half_width_y=24.0,
                           grid2d_h=0.25, grid1d_h=0.02,
                           output_dir=str(tmp_path))
    assert run(cfg, log=lambda *a: None) == 0
    report = dict(line.split(" = ") for line in
                  (tmp_path / "melnikov_report.txt").read_text().splitlines())
    assert float(report["m_psi"]) < 0
    assert float(report["dphi_dalpha"]) > 0


def test_manifest_contains_config_and_versions(tmp_path):
    cfg = ExperimentConfig(mode="sweep", output_dir=str(tmp_path))
    run(cfg, log=lambda *a: None)
    text = (tmp_path / "manifest.txt").read_text()
    assert "# versions:" in text
    assert "mode = sweep" in text
    assert "# timing.total_s" in text


def test_manifest_roundtrips_every_key(tmp_path):
    # every key set away from its default must come back from the manifest
    changed = {"mode": "bordered", "output_dir": str(tmp_path / "run"),
               "compare_table": "table.csv"}
    for f in dataclasses.fields(ExperimentConfig):
        if f.name in changed:
            continue
        if f.type == "tuple":
            changed[f.name] = (0.25, -1.5)
        elif f.type == "int":
            changed[f.name] = f.default + 1
        else:
            changed[f.name] = f.default + 0.5
    cfg = ExperimentConfig(**changed)
    path = tmp_path / "manifest.txt"
    write_manifest(cfg, str(path), {"total": 1.0})
    assert parse_config(str(path)) == cfg
    lines = path.read_text().splitlines()
    for line in ("model.g_left = 0.25,-1.5", "bordered.R = 12.5",
                 f"output.dir = {tmp_path / 'run'}", "mode = bordered"):
        assert line in lines


def test_melnikov_without_transport_fails_typed(tmp_path, capsys):
    # c_x = 0: m_psi vanishes, so no prediction exists; a typed error, no
    # division warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["melnikov", "--out", str(tmp_path), "--set", "model.c_x=0",
                   "--set", "grid2d.half_width_x=15",
                   "--set", "grid2d.half_width_y=15"])
    assert rc == 1
    assert "quenchlab: error: m_psi" in capsys.readouterr().err
