"""Experiment runner: configuration, orchestration, persistence.

Configs are plain text, one `section.key = value` per line, '#' comments.
Every run echoes its configuration into a manifest that is itself a valid
config, so any run can be reproduced from its manifest.  Numeric CSV
output is bitwise reproducible for identical configs.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
import typing
from dataclasses import dataclass, fields as dc_fields, replace

import numpy as np

from . import farfield, melnikov, spectral
from .errors import ConfigError, MissingBaseline, QuenchLabError
from .measure import ContactRecorder
from .model import ModelParams, side_average, stable_zeros
from .profiles1d import (Grid1D, angle_from_speed, export_profile,
                         frame_speed, solve_quench_front, solve_traveling_wave)
from .quench2d import (ComovingSteadyState, Field2D, SemiImplicitStepper,
                       export_field_csv, run_to_steady, solve_comoving_steady,
                       solve_theta, write_field)
from .textio import write_entries

OUTPUT_ROOT_ENV = "QUENCHLAB_OUTPUT_ROOT"


@dataclass
class ExperimentConfig:
    """Validated flat configuration for one experiment run."""

    mode: str = "theta"
    # model
    c_x: float = 0.5
    c_y: float = 0.0
    alpha: float = 0.0
    g_left: tuple = ()
    g_right: tuple = ()
    # 1D grid
    grid1d_half_width: float = 30.0
    grid1d_h: float = 0.025
    # 2D grid
    grid2d_half_width_x: float = 60.0
    grid2d_half_width_y: float = 60.0
    grid2d_h: float = 0.25
    # time stepping
    solver_dt: float = 0.25
    solver_tol: float = 1e-8
    solver_max_steps: int = 20000
    # sweep
    sweep_alphas: tuple = ()
    # bordered solve
    bordered_half_width: float = 30.0
    bordered_h: float = 0.25
    bordered_R: float = 12.0
    # angle measurement: window_lo sets the march length |window_lo| / c_x;
    # no solver reads window_hi; it is only validated (lo < hi <= -5)
    measure_window_lo: float = -35.0
    measure_window_hi: float = -10.0
    # bounds max|Phi(u) - u| / dt of the dt = 2 map in the steady solve,
    # not the update rate of a step at solver.dt
    measure_steady_tol: float = 1e-7
    # compare
    compare_table: str = ""
    # output
    output_dir: str = "."

    def model_params(self, alpha: float | None = None) -> ModelParams:
        return ModelParams(c_x=self.c_x, c_y=self.c_y,
                           alpha=self.alpha if alpha is None else alpha,
                           g_left=self.g_left, g_right=self.g_right)

    def grid1d(self) -> Grid1D:
        return Grid1D.symmetric(self.grid1d_half_width, self.grid1d_h)

    def resolved_output_dir(self) -> str:
        root = os.environ.get(OUTPUT_ROOT_ENV, "")
        out = self.output_dir
        if root and not os.path.isabs(out):
            out = os.path.join(root, out)
        return out


_MODEL_FIELDS = {f.name for f in dc_fields(ModelParams)}

#: maps config-file keys "section.key" to ExperimentConfig attributes: model
#: parameters are "model.<name>", other attributes split at their first "_"
_KEYMAP = {(f"model.{f.name}" if f.name in _MODEL_FIELDS
            else f.name.replace("_", ".", 1)): f.name
           for f in dc_fields(ExperimentConfig)}

_ATTR_TO_KEY = {v: k for k, v in _KEYMAP.items()}

_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def _parse_value(attr: str, raw: str):
    kind = _FIELD_TYPES[attr]
    raw = raw.strip()
    if kind is tuple:
        return tuple(float(tok) for tok in raw.split(",")) if raw else ()
    return kind(raw)


def apply_setting(cfg: ExperimentConfig, key: str, raw: str):
    if key not in _KEYMAP:
        raise ConfigError(f"unknown configuration key {key!r}")
    attr = _KEYMAP[key]
    try:
        value = _parse_value(attr, raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
    setattr(cfg, attr, value)


def parse_config(path: str) -> ExperimentConfig:
    """Parse a key-value config file (comments and blank lines ignored);
    run validates the result, after any command-line overrides."""
    cfg = ExperimentConfig()
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            apply_setting(cfg, key, raw)
    return cfg


def validate_config(cfg: ExperimentConfig):
    if cfg.mode not in MODES:
        raise ConfigError(f"unknown mode {cfg.mode!r}; choose one of {MODES}")
    # "not x > 0" rather than "x <= 0": NaN fails every comparison
    if not cfg.c_x >= 0:
        raise ConfigError("model.c_x must be >= 0")
    if not (cfg.solver_dt > 0 and cfg.solver_tol > 0):
        raise ConfigError("solver.dt and solver.tol must be positive")
    if not cfg.measure_steady_tol > 0:
        raise ConfigError("measure.steady_tol must be positive")
    if cfg.solver_max_steps < 1:
        raise ConfigError("solver.max_steps must be at least 1")
    for attr, kind in _FIELD_TYPES.items():
        if kind in (float, tuple) and not np.isfinite(getattr(cfg, attr)).all():
            raise ConfigError(f"{_ATTR_TO_KEY[attr]} must be finite")
    # a set merges equal floats, 0 and -0 included, as compare_prediction does
    if len(set(cfg.sweep_alphas)) < len(cfg.sweep_alphas):
        raise ConfigError("sweep.alphas repeats a value")
    if len(cfg.g_left) > 4 or len(cfg.g_right) > 4:
        raise ConfigError("perturbation polynomials must have degree <= 3")
    if cfg.mode in ("bordered", "sweep") and cfg.c_x == 0:
        raise ConfigError(f"{cfg.mode} mode needs model.c_x > 0")
    for width, h in (("grid1d_half_width", "grid1d_h"),
                     ("grid2d_half_width_x", "grid2d_h"),
                     ("grid2d_half_width_y", "grid2d_h"),
                     ("bordered_half_width", "bordered_h")):
        if not getattr(cfg, h) > 0:
            raise ConfigError(f"{_ATTR_TO_KEY[h]} must be positive")
        if not getattr(cfg, width) >= getattr(cfg, h):
            raise ConfigError(f"{_ATTR_TO_KEY[width]} must be at least "
                              f"{_ATTR_TO_KEY[h]}")
    if not cfg.bordered_R > 2:
        raise ConfigError("bordered.R must exceed 2")
    if not cfg.measure_window_lo < cfg.measure_window_hi <= -5:
        raise ConfigError("measure.window_lo < measure.window_hi <= -5 required")


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ",".join(f"{v:.17g}" for v in value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_manifest(cfg: ExperimentConfig, path: str, timings: dict,
                   histories: dict | None = None):
    """Config echo plus versions, timings and Newton histories (each step's
    residual:count, the count being a sweep step's GMRES iterations or a
    bordered iteration's refinement rounds); re-parses as a config."""
    import scipy

    with open(path, "w") as fh:
        fh.write("# quenchlab run manifest\n# versions: quenchlab=0.1.0 "
                 f"numpy={np.__version__} scipy={scipy.__version__}\n")
    entries = {_ATTR_TO_KEY[f.name]: _fmt(getattr(cfg, f.name))
               for f in dc_fields(ExperimentConfig)}
    entries.update((f"# timing.{name}_s", f"{seconds:.3f}")
                   for name, seconds in timings.items())
    entries.update((f"# history.{name}",
                    ",".join(f"{res:.3e}:{its}" for res, its in steps))
                   for name, steps in (histories or {}).items())
    write_entries(path, entries, mode="a")


# ---------------------------------------------------------------------------
# steady-angle measurement (a march, then the comoving steady solve, on the
# 2h grid first where it has one)
# ---------------------------------------------------------------------------

#: the largest spacing of the marched leg's 2h grid
_MARCH_COARSEST_H = 1.0


def _step_initial_data(p: ModelParams, cfg: ExperimentConfig) -> Field2D:
    """Step data on the 2D grid: z_+ above and z_- below y = 0 left of the
    quenching line, their mean on the y = 0 row, z_0 right of the line.

    The mean keeps the data odd under y -> -y when z_- = -z_+, so the runs
    at +alpha and -alpha of an odd perturbation are mirror images."""
    branches = stable_zeros(p)
    template = Field2D.on_rectangle(cfg.grid2d_half_width_x,
                                    cfg.grid2d_half_width_y, cfg.grid2d_h)
    left = side_average(template.y, branches.z_minus, branches.z_plus)
    return template.copy_with(
        np.where(template.x[None, :] < 0, left[:, None], branches.z_zero))


def _march_spacings(cfg: ExperimentConfig, p: ModelParams) -> list[float]:
    """The marched leg's grid spacings, finest first: h and 2h where every
    other node of the h grid spans the same rectangle (an even node count
    per half-width in x and y), 2h is at most _MARCH_COARSEST_H and the 2h
    stepper's cell Peclet numbers |c_x| 2h and |c_y| 2h stay below 2;
    h alone otherwise."""
    h = cfg.grid2d_h
    even = all(round(width / h) % 2 == 0 for width in
               (cfg.grid2d_half_width_x, cfg.grid2d_half_width_y))
    if (even and 2 * h <= _MARCH_COARSEST_H
            and max(abs(p.c_x), abs(p.c_y)) * 2 * h < 2.0):
        return [h, 2 * h]
    return [h]


def _march_to_steady(p: ModelParams, cfg: ExperimentConfig) -> ComovingSteadyState:
    """Step data on the grid2d grid, marched for |measure.window_lo| / c_x
    at solver.dt, then solved for the comoving steady state."""
    u0 = _step_initial_data(p, cfg)
    steps = int(np.ceil(abs(cfg.measure_window_lo) / p.c_x / cfg.solver_dt))
    marched = run_to_steady(SemiImplicitStepper(u0, p, cfg.solver_dt), u0,
                            tol=0.0, max_steps=steps)
    return solve_comoving_steady(marched.field, p, cfg.measure_steady_tol)


def measure_steady_angle(p: ModelParams, cfg: ExperimentConfig,
                         psi_seed: float = 0.0) -> dict:
    """Measure the selected interface angle at the comoving steady state.

    Marches step data for t = |measure.window_lo| / c_x in the frame whose
    c_y the speed relation (profiles1d.frame_speed) assigns to the seed
    angle at the planar wave's normal speed c_n, solves for the steady
    state and its c_y together (quench2d.solve_comoving_steady), and
    returns as psi the angle that relation assigns to the solved c_y: a
    straight interface far left is steady in that frame only there.

    Where _march_spacings gives a 2h grid, the march and that first solve
    run there (mesh sequencing, Knoll and Keyes, J. Comput. Phys. 193,
    2004, section 3), and the h level solves once more from the prolonged
    2h steady state at its c_y, with no march of its own; psi_2h and
    error_h = |psi - psi_2h| / 3, the Richardson estimate of psi's O(h^2)
    error, come from that level (None without one), and history_2h is its
    Newton history.  field, c_y, drift, update_rate and history are the h
    level's.  Raises NotConverged when a level's steady residual misses
    measure.steady_tol.
    """
    c_n = solve_traveling_wave(p, cfg.grid1d()).speed
    p = p.replace(c_y=frame_speed(psi_seed, c_n, p.c_x))
    spacings = _march_spacings(cfg, p)
    if len(spacings) == 1:
        state, coarse = _march_to_steady(p, cfg), None
    else:
        coarse = _march_to_steady(p, replace(cfg, grid2d_h=spacings[1]))
        state = solve_comoving_steady(coarse.field.prolonged(),
                                      p.replace(c_y=coarse.c_y),
                                      cfg.measure_steady_tol)
    psi = angle_from_speed(state.c_y, c_n, p.c_x)
    psi_2h = None if coarse is None else angle_from_speed(coarse.c_y, c_n, p.c_x)
    return {"psi": psi, "c_y": state.c_y, "drift": state.drift,
            "field": state.field, "update_rate": state.residual,
            "history": state.history, "psi_2h": psi_2h,
            "error_h": None if coarse is None else abs(psi - psi_2h) / 3.0,
            "history_2h": None if coarse is None else coarse.history}


def _melnikov_report(cfg: ExperimentConfig) -> melnikov.MelnikovReport:
    """Selection integrals at alpha = 0 on a prediction-sized grid."""
    half = min(cfg.grid2d_half_width_x, cfg.grid2d_half_width_y, 30.0)
    theta = solve_theta(cfg.c_x, half, half, h=min(cfg.grid2d_h, 0.25),
                        dt=cfg.solver_dt, tol=1e-9,
                        max_steps=cfg.solver_max_steps)
    p0 = cfg.model_params(alpha=0.0)
    grid = Grid1D.symmetric(half, cfg.grid1d_h)
    u_top = solve_quench_front("top", p0, grid)
    u_bottom = solve_quench_front("bottom", p0, grid)
    return melnikov.build_report(theta, u_top, u_bottom, p0)


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def _run_profile(cfg: ExperimentConfig, out: str, log) -> None:
    p = cfg.model_params()
    grid = cfg.grid1d()
    for side in ("top", "bottom"):
        prof = solve_quench_front(side, p, grid)
        export_profile(prof, os.path.join(out, f"front_{side}"), p)
        log(f"front_{side}: residual {prof.residual_norm:.2e}")
    wave = solve_traveling_wave(p, grid)
    export_profile(wave.profile, os.path.join(out, "wave"), p)
    write_entries(os.path.join(out, "wave.meta"),
                  {"speed": f"{wave.speed:.17g}"}, mode="a")
    log(f"wave: c_n = {wave.speed:.8f}")


def _run_theta(cfg: ExperimentConfig, out: str, log) -> None:
    theta = solve_theta(cfg.c_x, cfg.grid2d_half_width_x,
                        cfg.grid2d_half_width_y, h=cfg.grid2d_h,
                        dt=cfg.solver_dt, tol=cfg.solver_tol,
                        max_steps=cfg.solver_max_steps)
    write_field(theta, os.path.join(out, "theta.qnch"))
    export_field_csv(theta, os.path.join(out, "theta.csv"))
    log(f"theta: {theta.nx}x{theta.ny} nodes")


def _run_simulate(cfg: ExperimentConfig, out: str, log) -> None:
    p = cfg.model_params()
    u0 = _step_initial_data(p, cfg)
    rec = ContactRecorder(u0)
    res = run_to_steady(SemiImplicitStepper(u0, p, cfg.solver_dt), u0,
                        tol=cfg.solver_tol, max_steps=cfg.solver_max_steps,
                        recorder=rec)
    write_field(res.field, os.path.join(out, "final.qnch"))
    with open(os.path.join(out, "contact_track.csv"), "w") as fh:
        fh.write("t,y_contact\n")
        for t, y in zip(*rec.track()):
            fh.write(f"{t:.17g},{y:.17g}\n")
    log(f"simulate: steps={res.steps} converged={res.converged} "
        f"rate={res.final_update_rate:.2e}")


def _run_melnikov(cfg: ExperimentConfig, out: str, log) -> None:
    report = _melnikov_report(cfg)
    melnikov.write_report(report, os.path.join(out, "melnikov_report.txt"))
    log(f"melnikov: m_psi={report.m_psi:.6f} m_alpha={report.m_alpha:.6f} "
        f"dphi_dalpha={report.dphi_dalpha:.6f}")


def _measure_point(cfg: ExperimentConfig, alpha: float, psi_seed: float) -> dict:
    """One sweep point in a worker process: measure_steady_angle's numbers
    and histories, without the field, and the point's wall time."""
    t0 = time.perf_counter()
    r = measure_steady_angle(cfg.model_params(alpha=alpha), cfg, psi_seed)
    del r["field"]
    r["seconds"] = time.perf_counter() - t0
    return r


def _run_sweep(cfg: ExperimentConfig, out: str, log):
    """The prediction here, then the alpha points in forked workers, one per
    CPU this process may use; rows and log lines come in alpha order.  Each
    point's Newton history goes to the manifest as `sweep_<k>`, and its 2h
    level's, where one ran, as `sweep_<k>_2h`; the log counts Newton steps
    per level, coarsest first."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    table = os.path.join(out, "sweep.csv")
    with open(table, "w") as fh:
        fh.write("alpha,psi_measured,psi_predicted,drift\n")
    if not cfg.sweep_alphas:
        log("sweep: empty alpha list, wrote header only")
        return
    t0 = time.perf_counter()
    report = _melnikov_report(cfg)
    timings, histories = {"prediction": time.perf_counter() - t0}, {}
    log(f"sweep: prediction dphi_dalpha = {report.dphi_dalpha:.6f}")
    alphas = cfg.sweep_alphas
    seeds = [report.dphi_dalpha * alpha for alpha in alphas]
    workers = min(len(alphas), len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")) as pool:
        points = pool.map(_measure_point, [cfg] * len(alphas), alphas, seeds)
        for k, (alpha, psi_pred, r) in enumerate(zip(alphas, seeds, points), 1):
            with open(table, "a") as fh:
                fh.write(f"{alpha:.17g},{r['psi']:.17g},{psi_pred:.17g},"
                         f"{r['drift']:.17g}\n")
            levels = [h for h in (r["history_2h"], r["history"]) if h is not None]
            error_h = "none" if r["error_h"] is None else f"{r['error_h']:.1e}"
            log(f"  alpha={alpha:+.3f}: psi={r['psi']:+.6f} "
                f"(predicted {psi_pred:+.6f}) error_h={error_h} "
                f"drift={r['drift']:+.2e} residual={r['update_rate']:.1e} "
                f"newton_steps={'+'.join(str(len(h)) for h in levels)}")
            timings[f"sweep_{k}"], histories[f"sweep_{k}"] = r["seconds"], r["history"]
            if r["history_2h"] is not None:
                histories[f"sweep_{k}_2h"] = r["history_2h"]
    return timings, histories


def _run_spectrum(cfg: ExperimentConfig, out: str, log) -> None:
    p = cfg.model_params(alpha=0.0)
    grid = cfg.grid1d()
    prof = solve_quench_front("top", p, grid)
    op = spectral.quench_front_operator(prof, cfg.c_x)
    top_eig = spectral.max_real_eig_1d(op)
    write_entries(os.path.join(out, "spectrum_report.txt"), {
        "c_x": f"{cfg.c_x:.17g}",
        "max_real_eig_front": f"{top_eig:.17g}",
    })
    log(f"spectrum: max real eigenvalue {top_eig:.6f}")


def _run_bordered(cfg: ExperimentConfig, out: str, log):
    """The bordered solve; its history is each iteration's weighted
    residual and refinement rounds (0 where the iteration factored), one
    history per grid level: `bordered` the finest, `bordered_2h` the next
    coarser, and so on.  The log counts iterations, factorizations and
    refinement rounds per level, coarsest first."""
    p = cfg.model_params()
    spec = farfield.PartitionSpec(R=cfg.bordered_R)
    cc = farfield.solve_bordered(p, spec, half_width=cfg.bordered_half_width,
                                 h=cfg.bordered_h)
    farfield.save_correction(cc, os.path.join(out, "core_correction"))
    levels = [cc]
    while levels[-1].coarse is not None:
        levels.append(levels[-1].coarse)
    histories = {"bordered" + (f"_{2**k}h" if k else ""):
                 [(row[0], row[4]) for row in level.history]
                 for k, level in enumerate(levels)}
    iterations = "+".join(str(level.iterations) for level in reversed(levels))
    factorizations = "+".join(str(sum(row[4] == 0 for row in level.history))
                              for level in reversed(levels))
    rounds = "+".join(str(sum(row[4] for row in level.history))
                      for level in reversed(levels))
    log(f"bordered: psi={cc.psi:+.8f} residual={cc.weighted_residual:.2e} "
        f"iterations={iterations} factorizations={factorizations} "
        f"rounds={rounds} fill={cc.history[-1][3]}")
    return {}, histories


def compare_prediction(table_path: str) -> dict:
    """Centered-difference measured slope vs the prediction in a sweep table.

    Uses the smallest +-alpha pair; requires an alpha = 0 row as baseline.
    """
    rows = {}
    with open(table_path) as fh:
        header = fh.readline().strip().split(",")
        if header[:3] != ["alpha", "psi_measured", "psi_predicted"]:
            raise MissingBaseline(f"{table_path} is not a sweep table")
        for lineno, line in enumerate(fh, 2):
            where = f"{table_path}:{lineno}"
            parts = line.strip().split(",")
            if len(parts) < 3:
                raise MissingBaseline(f"{where}: {len(parts)} cells, need at least 3")
            try:
                alpha, row = float(parts[0]), (float(parts[1]), float(parts[2]))
            except ValueError as exc:
                raise MissingBaseline(f"{where}: {exc}") from exc
            if alpha in rows:
                raise MissingBaseline(f"{where}: repeats the row of alpha = {alpha}")
            rows[alpha] = row
    if 0.0 not in rows:
        raise MissingBaseline("sweep table lacks the alpha = 0 baseline")
    pairs = sorted(a for a in rows if a > 0 and -a in rows)
    if not pairs:
        raise MissingBaseline("sweep table lacks a +-alpha pair")
    a = pairs[0]
    measured = (rows[a][0] - rows[-a][0]) / (2 * a)
    predicted = (rows[a][1] - rows[-a][1]) / (2 * a)
    deviation = (measured - predicted) / predicted if predicted != 0 else np.inf
    return {"alpha_pair": a, "slope_measured": measured,
            "slope_predicted": predicted, "relative_deviation": deviation,
            "psi_at_zero": rows[0.0][0]}


def _run_compare(cfg: ExperimentConfig, out: str, log) -> None:
    table = cfg.compare_table or os.path.join(out, "sweep.csv")
    summary = compare_prediction(table)
    write_entries(os.path.join(out, "compare_report.txt"),
                  {key: f"{val:.17g}" for key, val in summary.items()})
    log(f"compare: measured {summary['slope_measured']:.5f} vs predicted "
        f"{summary['slope_predicted']:.5f} "
        f"({100 * summary['relative_deviation']:+.2f}%)")


_MODE_RUNNERS = {
    "profile": _run_profile,
    "theta": _run_theta,
    "simulate": _run_simulate,
    "melnikov": _run_melnikov,
    "sweep": _run_sweep,
    "spectrum": _run_spectrum,
    "bordered": _run_bordered,
    "compare": _run_compare,
}

MODES = tuple(_MODE_RUNNERS)


def run(cfg: ExperimentConfig, log=print) -> int:
    """Execute the configured pipeline; artifacts land in the output dir."""
    validate_config(cfg)
    out = cfg.resolved_output_dir()
    os.makedirs(out, exist_ok=True)
    t0 = time.perf_counter()
    # a runner may return (timings, histories) for the manifest
    timings, histories = _MODE_RUNNERS[cfg.mode](cfg, out, log) or ({}, {})
    write_manifest(cfg, os.path.join(out, "manifest.txt"),
                   {"total": time.perf_counter() - t0, **timings}, histories)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quenchlab",
        description="directional-quenching interface laboratory")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        sp = sub.add_parser(mode, help=f"run the {mode} pipeline")
        sp.add_argument("--config", help="key-value config file")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
        sp.add_argument("--out", help="output directory (overrides output.dir)")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config) if args.config else ExperimentConfig()
        cfg.mode = args.mode
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, raw = item.split("=", 1)
            apply_setting(cfg, key.strip(), raw)
        if args.out:
            cfg.output_dir = args.out
        return run(cfg)
    except (QuenchLabError, OSError) as exc:
        print(f"quenchlab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
