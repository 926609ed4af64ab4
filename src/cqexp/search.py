"""One-dimensional maximization: coarse grid scan plus golden-section refinement.

Both searches refine independent lanes (one per entry of lo/hi or row of grid
values) in lockstep, each with the scalar search's arithmetic.  The objective
maps one probe per lane to its value in one call; a NaN probe marks a frozen
lane, whose value is ignored (``_lanewise`` builds such objectives).
"""

from __future__ import annotations

import math

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
PARAM_TOL = 1e-9  # refinement stops once the bracket is this narrow in the argument
MAX_ITER = 200


def _lanewise(g, *params):
    """Lane objective from g(x, *params) on the probes and parameters of the live lanes."""
    def f(x):
        live = ~np.isnan(x)
        out = np.full(x.shape, np.nan)
        out[live] = g(x[live], *(p[live] for p in params))
        return out
    return f


def golden_section_maximize(f, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Maximize a unimodal f on each lane's [lo, hi] to within 1e-9 in the argument.

    Returns (x, f(x)) per lane for the best point seen, interior probes and
    both endpoints included, so a maximum sitting exactly on the boundary is
    never lost to interval shrinkage.  A lane freezes once its bracket is
    narrow enough; each iteration makes one call on the others' new probes.
    """
    a, b = np.array(lo, dtype=float, ndmin=1), np.array(hi, dtype=float, ndmin=1)
    if np.any(b < a):
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    best_x, best_f = a, f(a)
    ends = b, f(b)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(MAX_ITER):
        live = b - a > PARAM_TOL
        if not live.any():
            break
        left = live & (fc >= fd)  # keep [a, d]: d moves to c, and c is probed anew
        right = live & ~left  # keep [c, b]: c moves to d, and d is probed anew
        a, b, c, d = (np.where(right, c, a), np.where(left, d, b),
                      np.where(left, d - GOLDEN * (d - a), np.where(right, d, c)),
                      np.where(right, c + GOLDEN * (b - c), np.where(left, c, d)))
        fx = f(np.where(left, c, np.where(right, d, np.nan)))
        fc, fd = (np.where(left, fx, np.where(right, fd, fc)),
                  np.where(right, fx, np.where(left, fc, fd)))
    for x, fx in (ends, (c, fc), (d, fd)):
        up = fx > best_f
        best_x, best_f = np.where(up, x, best_x), np.where(up, fx, best_f)
    return best_x, best_f


def maximize_on_grid(f, grid, values) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section refine f in the grid cells around each lane's best of
    ``values`` (lanes x grid), which the caller computed as f on ``grid``.

    Returns the better of the grid optimum and the refined point per lane, so
    grid points, and in particular the interval endpoints, are exact candidates.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.array(values, dtype=float, ndmin=2)
    k = np.argmax(values, axis=1)
    x, fx = golden_section_maximize(f, grid[np.maximum(k - 1, 0)],
                                    grid[np.minimum(k + 1, grid.size - 1)])
    on_grid = values[np.arange(k.size), k]
    keep = on_grid >= fx
    return np.where(keep, grid[k], x), np.where(keep, on_grid, fx)
