"""One-dimensional maximization: coarse grid scan plus golden-section refinement."""

from __future__ import annotations

import math

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
PARAM_TOL = 1e-9  # refinement stops once the bracket is this narrow in the argument
MAX_ITER = 200


def golden_section_maximize(f, lo: float, hi: float) -> tuple[float, float]:
    """Maximize a unimodal f on [lo, hi] to within 1e-9 in the argument.

    Returns (x, f(x)) for the best point seen, interior probes and both
    endpoints included, so a maximum sitting exactly on the boundary is
    never lost to interval shrinkage.
    """
    a, b = float(lo), float(hi)
    if b < a:
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    best_x, best_f = a, f(a)
    fb_end = f(b)
    if fb_end > best_f:
        best_x, best_f = b, fb_end
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(MAX_ITER):
        if b - a <= PARAM_TOL:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    for x, fx in ((c, fc), (d, fd)):
        if fx > best_f:
            best_x, best_f = x, fx
    return best_x, best_f


def maximize_on_grid(f, grid, values) -> tuple[float, float]:
    """Golden-section refine f in the grid cells around the best of ``values``,
    which the caller computed as f on ``grid``.

    Returns the better of the grid optimum and the refined point, so grid
    points, and in particular the interval endpoints, are exact candidates.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    k = int(np.argmax(values))
    lo = grid[k - 1] if k > 0 else grid[0]
    hi = grid[k + 1] if k + 1 < grid.size else grid[-1]
    x, fx = golden_section_maximize(f, lo, hi)
    if values[k] >= fx:
        return float(grid[k]), float(values[k])
    return float(x), float(fx)
