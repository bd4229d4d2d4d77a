import dataclasses
import warnings

import numpy as np
import pytest

from quenchlab.cli import (ExperimentConfig, apply_setting, compare_prediction,
                           main, parse_config, run, write_manifest)
from quenchlab.errors import ConfigError, MissingBaseline


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
