"""Contact-point tracking on 2D fields."""
from __future__ import annotations

import numpy as np

from .model import origin_index
from .quench2d import Field2D


def _column_crossings(yv: np.ndarray, col: np.ndarray) -> list:
    """Heights where a column changes sign, linearly interpolated in y."""
    s = np.sign(col)
    idx = np.nonzero((s[:-1] * s[1:] < 0) | ((s[:-1] != 0) & (s[1:] == 0)))[0]
    out = []
    for j in idx:
        if col[j + 1] == col[j]:
            continue
        out.append(yv[j] - col[j] * (yv[j + 1] - yv[j]) / (col[j + 1] - col[j]))
    return out


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

