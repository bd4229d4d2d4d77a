"""Interface extraction and contact-angle measurement on 2D fields."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientPoints, NoCrossing
from .model import origin_index
from .quench2d import Field2D


@dataclass
class NodalLine:
    """Per-column zero-crossing heights, with problem columns reported."""

    x: np.ndarray
    y: np.ndarray
    no_crossing_x: list = field(default_factory=list)
    multi_crossing_x: list = field(default_factory=list)


@dataclass
class AngleMeasurement:
    """Fitted interface slope and the angles derived from it."""

    psi: float
    phi: float
    slope: float
    fit_window: tuple
    rms_fit_error: float
    n_points: int


def _column_crossings(yv: np.ndarray, col: np.ndarray) -> list:
    s = np.sign(col)
    idx = np.nonzero((s[:-1] * s[1:] < 0) | ((s[:-1] != 0) & (s[1:] == 0)))[0]
    out = []
    for j in idx:
        if col[j + 1] == col[j]:
            continue
        out.append(yv[j] - col[j] * (yv[j + 1] - yv[j]) / (col[j + 1] - col[j]))
    return out


def zero_level_set(u: Field2D) -> NodalLine:
    """Nodal-line height per x-column by linear interpolation in y.

    Columns without a sign change (normal in the right farfield) and
    columns with several crossings are reported in the result rather than
    silently dropped; multi-crossing columns are excluded from the fit
    data.  Raises NoCrossing only if no column crosses zero at all.
    """
    xs, ys = [], []
    none_x, multi_x = [], []
    yv = u.y
    for i, xv in enumerate(u.x):
        roots = _column_crossings(yv, u.data[:, i])
        if len(roots) == 1:
            xs.append(xv)
            ys.append(roots[0])
        elif not roots:
            none_x.append(xv)
        else:
            multi_x.append(xv)
    if not xs:
        raise NoCrossing("no column of the field changes sign")
    return NodalLine(x=np.array(xs), y=np.array(ys),
                     no_crossing_x=none_x, multi_crossing_x=multi_x)


def fit_contact_angle(nodal: NodalLine, window: tuple) -> AngleMeasurement:
    """Least-squares line through the nodal points in the window.

    The asymptote encodes height y ~ -tan(psi) x, so psi = arctan(-slope)
    and the contact angle is phi = pi/2 + psi.  The window must sit in the
    left farfield (x < -5) where the interface is asymptotically straight.
    """
    lo, hi = window
    if hi > -5.0:
        raise ValueError("fit window must lie in the left farfield (x < -5)")
    m = (nodal.x >= lo) & (nodal.x <= hi)
    n = int(m.sum())
    if n < 20:
        raise InsufficientPoints(f"only {n} nodal points in window {window}")
    A = np.column_stack([nodal.x[m], np.ones(n)])
    coef, *_ = np.linalg.lstsq(A, nodal.y[m], rcond=None)
    resid = nodal.y[m] - A @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    slope = float(coef[0])
    psi = float(np.arctan(-slope))
    return AngleMeasurement(psi=psi, phi=np.pi / 2 + psi, slope=slope,
                            fit_window=(lo, hi), rms_fit_error=rms, n_points=n)


class ContactRecorder:
    """run_to_steady recorder that tracks the contact point at x = 0."""

    def __init__(self, template: Field2D):
        self.i0 = origin_index(template.x)
        if self.i0 is None:
            raise ValueError("grid does not contain x = 0 as a node")
        self.yv = template.y
        self.times = []
        self.heights = []

    def __call__(self, step: int, time: float, data: np.ndarray):
        roots = _column_crossings(self.yv, data[:, self.i0])
        if not roots:
            return
        if self.heights:
            y0 = min(roots, key=lambda r: abs(r - self.heights[-1]))
        else:
            y0 = min(roots, key=abs)
        self.times.append(time)
        self.heights.append(y0)

    def track(self):
        """(times, heights) of the nodal line at x = 0, as arrays."""
        return np.array(self.times), np.array(self.heights)

