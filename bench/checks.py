"""Output checks of the three workloads, run after the timed `cli.run`.

Each check reads what the CLI wrote, applies the acceptance-suite
thresholds where one exists, and returns the failures, the workload's
`method_gap` and the answer numbers that must repeat exactly.
"""
import hashlib
import math
import os

import numpy as np

from quenchlab.model import ModelParams
from quenchlab.profiles1d import Grid1D, solve_quench_front
from quenchlab.quench2d import read_field
from quenchlab.spectral import kernel_check_2d

#: criterion 7 and its bordered counterpart: relative gap to the prediction
GAP_LIMIT = 0.15
#: criterion 4
ODDNESS_LIMIT = 1e-12
MONOTONE_LIMIT = -1e-8
BOUNDARY_LIMIT = 5e-3
#: kernel_check_2d relative residuals; 481^2 reads 0.024 and 0.012
KERNEL_LIMIT = 0.05
#: solve_bordered's own residual_target
RESIDUAL_LIMIT = 1e-6


def _expect(failures: list, ok: bool, what: str):
    if not ok:
        failures.append(what)


def _read_meta(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def check_sweep(out: str, cfg, reference) -> dict:
    failures = []
    rows = {}
    with open(os.path.join(out, "sweep.csv")) as fh:
        fh.readline()
        for line in fh:
            alpha, psi, pred, drift = (float(v) for v in line.split(","))
            rows[alpha] = (psi, pred, drift)
    a = max(abs(v) for v in cfg.sweep_alphas)
    _expect(failures, a in rows and -a in rows, f"rows for alpha = +-{a} missing")
    if failures:
        return {"failures": failures, "method_gap": math.nan, "answers": {}}
    (psi_p, pred_p, _), (psi_m, pred_m, _) = rows[a], rows[-a]
    _expect(failures, psi_p > 0 > psi_m, f"psi(+a) = {psi_p:.6g}, psi(-a) = {psi_m:.6g}")
    odd = abs(psi_p + psi_m)
    _expect(failures, odd <= 1e-10, f"|psi(+a) + psi(-a)| = {odd:.3g} > 1e-10")
    measured = (psi_p - psi_m) / (2 * a)
    predicted = (pred_p - pred_m) / (2 * a)
    gap = abs(measured - predicted) / abs(predicted)
    _expect(failures, gap <= GAP_LIMIT, f"method_gap {gap:.4g} > {GAP_LIMIT}")
    return {"failures": failures, "method_gap": gap,
            "answers": {"rows": {f"{k:.17g}": v for k, v in rows.items()},
                        "slope_measured": measured,
                        "dphi_dalpha": predicted}}


def check_theta(out: str, cfg, reference) -> dict:
    failures = []
    path = os.path.join(out, "theta.qnch")
    th = read_field(path)
    nx = 2 * round(cfg.grid2d_half_width_x / cfg.grid2d_h) + 1
    ny = 2 * round(cfg.grid2d_half_width_y / cfg.grid2d_h) + 1
    _expect(failures, (th.nx, th.ny) == (nx, ny),
            f"theta.qnch is {th.nx}x{th.ny}, expected {nx}x{ny}")
    u = th.data
    odd = float(np.max(np.abs(u + u[::-1, :])))
    _expect(failures, odd <= ODDNESS_LIMIT, f"oddness {odd:.3g}")
    thy_min = float(((u[2:, :] - u[:-2, :]) / (2 * th.hy)).min())
    _expect(failures, thy_min >= MONOTONE_LIMIT, f"min dTheta/dy {thy_min:.3g}")
    kc = kernel_check_2d(th, cfg.c_x)
    for name in ("forward_residual", "adjoint_residual"):
        val = getattr(kc, name)
        _expect(failures, math.isfinite(val) and val <= KERNEL_LIMIT,
                f"kernel check {name} {val:.3g}")
    # the 2D march against the 1D solutions it must reach at the edges
    p = ModelParams(c_x=cfg.c_x)
    grid = Grid1D.symmetric(cfg.grid2d_half_width_x, cfg.grid2d_h)
    top = solve_quench_front("top", p, grid)
    bottom = solve_quench_front("bottom", p, grid)
    gap = max(float(np.max(np.abs(u[-1, :] - top.values))),
              float(np.max(np.abs(u[0, :] - bottom.values))),
              float(np.max(np.abs(u[:, 0] - np.tanh(th.y / math.sqrt(2))))),
              float(np.max(np.abs(u[:, -1]))))
    _expect(failures, gap < BOUNDARY_LIMIT, f"boundary match {gap:.3g}")
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {"failures": failures, "method_gap": gap,
            "answers": {"theta_sha256": digest, "oddness": odd,
                        "min_dtheta_dy": thy_min,
                        "kernel_forward": kc.forward_residual,
                        "kernel_adjoint": kc.adjoint_residual}}


def check_bordered(out: str, cfg, reference) -> dict:
    failures = []
    meta = _read_meta(os.path.join(out, "core_correction.meta"))
    psi, alpha = float(meta["psi"]), float(meta["alpha"])
    residual = float(meta["weighted_residual"])
    _expect(failures, residual <= RESIDUAL_LIMIT,
            f"weighted residual {residual:.3g} > {RESIDUAL_LIMIT}")
    _expect(failures, psi * alpha > 0, f"psi = {psi:.6g} for alpha = {alpha:.6g}")
    predicted = reference * alpha
    gap = abs(psi - predicted) / abs(predicted)
    _expect(failures, gap <= GAP_LIMIT, f"method_gap {gap:.4g} > {GAP_LIMIT}")
    return {"failures": failures, "method_gap": gap,
            "answers": {"psi": psi, "alpha": alpha, "weighted_residual": residual,
                        "iterations": int(meta["iterations"]),
                        "dphi_dalpha": reference}}


def read_reference(out: str, cfg, reference) -> dict:
    """Not a check: the melnikov run that gives bordered its prediction."""
    meta = _read_meta(os.path.join(out, "melnikov_report.txt"))
    return {"failures": [], "method_gap": math.nan,
            "answers": {"dphi_dalpha": float(meta["dphi_dalpha"])}}


CHECKS = {"sweep": check_sweep, "theta": check_theta,
          "bordered": check_bordered, "reference": read_reference}
