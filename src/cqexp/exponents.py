"""Reliability functions for i.i.d. code ensembles on classical-quantum channels.

The two base functions are

    E0(s)   = -log2 Tr[(sum_x Q(x) sigma_x^(1/(1+s)))^(1+s)],      s in [0, 1]
    Ex(r)   = -r log2 sum_{x,x'} Q(x) Q(x') g(x,x')^(1/r),         r >= 1

with g the pairwise square-root overlap.  From them:

    random-coding exponent   E_r(R)  = max_s  E0(s) - s R
    expurgated exponent      E_ex(R) = max_r  Ex(r) - r R   (may diverge)
    ensemble lower bound     max(E_r(R), E_ex(2R) + R)

The crossover rate (half the derivative of Ex at r = 1) marks where the
shifted expurgated branch stops exceeding E_r; the divergence rate (from the
probability that a random input pair has positive overlap) marks where
E_ex(2R) becomes infinite.  The mean and half-variance of -log2 g drive the
low-rate diagnostics, including the closed-form estimate of the maximizing
tilt order for finite blocklengths.

Maximizations run a coarse grid scan (uniform 257 points in s, logarithmic
257 points in r up to 1e4) followed by golden-section refinement to 1e-9 in
the parameter; grid endpoints compete as exact candidates so boundary maxima
are returned exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import CQChannel, holevo_information
from .qlinalg import _clamp_psd
from .search import maximize_on_grid

S_GRID_POINTS = 257
R_GRID_POINTS = 257
R_MAX = 1e4  # the expurgated maximization searches r in [1, R_MAX]
DIVERGENCE_MARGIN = 1e-9
OVERLAP_POS_TOL = 1e-12

_S_GRID = np.linspace(0.0, 1.0, S_GRID_POINTS)


@dataclass(frozen=True)
class ExponentValue:
    """Result of a one-parameter maximization: value in bits, arg, convergence.

    ``value`` is math.inf when the maximization diverges; ``converged`` is
    False when the search was truncated at the parameter cap with the
    objective still climbing toward a finite limit.
    """

    value: float
    maximizer: float
    converged: bool

    @property
    def divergent(self) -> bool:
        return math.isinf(self.value)


@dataclass(frozen=True)
class RatePoint:
    """One rate sample: both exponent branches and their pointwise maximum."""

    rate: float
    e_r: float
    e_ex_shifted: float
    e_trc_lb: float
    s_opt: float
    r_opt: float
    divergent: bool


ExponentCurve = list[RatePoint]  # ordered by rate


@dataclass(frozen=True)
class ChannelThresholds:
    """Capacity at the fixed Q, crossover rate, and expurgated divergence rate."""

    capacity_at_q: float
    r_star: float
    r_inf: float


def _e0_many(channel: CQChannel, s_values) -> np.ndarray:
    """Vectorized E0 over an array of tilt parameters (each > -1)."""
    s = np.asarray(s_values, dtype=float).ravel()
    if s.size and float(s.min()) <= -1.0:
        raise ValueError(f"E0 tilt must exceed -1, got {float(s.min())}")
    p = 1.0 / (1.0 + s)
    d = channel.dim
    acc = np.zeros((s.size, d, d), dtype=complex)
    for qx, state in zip(channel.q.probabilities, channel.states):
        if qx == 0.0:
            continue
        w = state.eigenvalues
        v = state.eigenvectors
        wp = w[None, :] ** p[:, None]  # 0**p == 0 since p > 0 for s > -1
        acc += qx * np.einsum("ik,tk,jk->tij", v, wp, v.conj())
    evs = _clamp_psd(np.linalg.eigvalsh(acc), "powered average state")
    tr = np.sum(evs ** (1.0 + s)[:, None], axis=1)
    return -np.log2(tr)


def e0(channel: CQChannel, s: float) -> float:
    """Random-coding base function E0(s, Q) in bits.

    Defined for any s > -1 (the maximization over [0, 1] is done by
    random_coding_exponent); E0(0) = 0 and the slope at 0 is the Holevo
    information.
    """
    return float(_e0_many(channel, [s])[0])


def random_coding_exponent(channel: CQChannel, rate: float) -> ExponentValue:
    """E_r(R, Q) = max over s in [0, 1] of E0(s) - s R.

    Returns exactly 0 with maximizer 0 when the optimum sits at s = 0,
    which happens for every rate at or above the Holevo information.
    """
    if rate < 0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
    grid_vals = _e0_many(channel, _S_GRID) - _S_GRID * rate

    def objective(s: float) -> float:
        return e0(channel, s) - s * rate

    s_best, v_best = maximize_on_grid(objective, _S_GRID, values=grid_vals)
    if v_best <= 0.0 or s_best <= 1e-12:
        return ExponentValue(0.0, 0.0, True)
    return ExponentValue(float(v_best), float(s_best), True)


def _ex(channel: CQChannel, r):
    """Ex at one order or an array of orders r > 0: -r log2 sum Q(x) Q(x') g(x,x')^(1/r)."""
    g = channel.overlap_gram
    q = channel.q.probabilities
    t = np.divide(1.0, r)[..., None, None]
    return -r * np.log2((q @ g ** t) @ q)  # 0**t == 0 for t > 0


def ex_function(channel: CQChannel, r: float) -> float:
    """Expurgated base function Ex(r, Q) = -r log2 Z(1/r) in bits.

    Finite for every finite r > 0: the diagonal overlap terms keep Z(1/r)
    at least sum_x Q(x)^2.  The expurgated maximization uses r >= 1.
    """
    if not r > 0:
        raise ValueError(f"Ex order must be positive, got {r}")
    return float(_ex(channel, r))


def expurgated_exponent(channel: CQChannel, rate: float) -> ExponentValue:
    """E_ex(R, Q) = max over r >= 1 of Ex(r) - r R.

    Divergence is decided by a slope test: if the objective is still
    climbing at r = 1e4 and the rate sits below the asymptotic slope
    -log2 P[g > 0] (minus a 1e-9 margin), the supremum is infinite and the
    value is flagged +inf.  If the objective climbs at r = 1e4 but the rate
    is at or above the slope, the supremum is the finite r -> infinity
    limit; the truncated value at r = 1e4 is returned with converged False.
    """
    if rate < 0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
    grid = np.logspace(0.0, math.log10(R_MAX), R_GRID_POINTS)
    vals = _ex(channel, grid) - grid * rate
    k = int(np.argmax(vals))
    if k == grid.size - 1 and vals[-1] > vals[-2]:
        if rate < 2.0 * expurgated_divergence_rate(channel) - DIVERGENCE_MARGIN:
            return ExponentValue(math.inf, math.inf, True)
        return ExponentValue(float(vals[-1]), float(grid[-1]), False)

    def objective(r: float) -> float:
        return ex_function(channel, r) - r * rate

    r_best, v_best = maximize_on_grid(objective, grid, values=vals)
    return ExponentValue(float(v_best), float(r_best), True)


def trc_lower_bound(channel: CQChannel, rate: float) -> RatePoint:
    """Typical-ensemble exponent lower bound max(E_r(R), E_ex(2R) + R) at one rate."""
    rc = random_coding_exponent(channel, rate)
    ex = expurgated_exponent(channel, 2.0 * rate)
    shifted = ex.value + rate  # +inf propagates
    return RatePoint(
        rate=float(rate),
        e_r=rc.value,
        e_ex_shifted=shifted,
        e_trc_lb=max(rc.value, shifted),
        s_opt=rc.maximizer,
        r_opt=ex.maximizer,
        divergent=math.isinf(shifted),
    )


def sweep(channel: CQChannel, rates) -> ExponentCurve:
    """Evaluate trc_lower_bound over an ascending nonnegative rate grid."""
    r = np.asarray(rates, dtype=float).ravel()
    if r.size == 0:
        raise ValueError("rate grid is empty")
    if not (np.isfinite(r).all() and float(r.min()) >= 0):
        raise ValueError("rates must be finite and nonnegative")
    if np.any(np.diff(r) < 0):
        raise ValueError("rates must be sorted ascending")
    return [trc_lower_bound(channel, float(x)) for x in r]


def _pair_weights(channel: CQChannel) -> tuple[np.ndarray, np.ndarray]:
    g = channel.overlap_gram
    w = np.outer(channel.q.probabilities, channel.q.probabilities)
    return g, w


def crossover_rate(channel: CQChannel) -> float:
    """Rate below which the shifted expurgated branch strictly exceeds E_r.

    Closed form: half the derivative of Ex at r = 1.  With Z(t) the tilted
    overlap sum, d/dr Ex at 1 equals -log2 Z(1) + Z'(1) / (Z(1) ln 2), where
    Z'(1) sums Q(x) Q(x') g ln g over pairs with positive overlap.
    """
    g, w = _pair_weights(channel)
    z1 = float(np.sum(w * g))
    mask = (w > 0.0) & (g > OVERLAP_POS_TOL)
    zp1 = float(np.sum(w[mask] * g[mask] * np.log(g[mask])))
    deriv = -math.log2(z1) + zp1 / (z1 * math.log(2.0))
    return 0.5 * deriv


def expurgated_divergence_rate(channel: CQChannel) -> float:
    """Rate below which E_ex(2R) is infinite: -0.5 log2 P[g(x,x') > 0].

    The probability is over an i.i.d. pair of inputs drawn from Q; overlaps
    above 1e-12 count as positive.  Zero when every overlap is positive.
    """
    g, w = _pair_weights(channel)
    p = float(np.sum(w[g > OVERLAP_POS_TOL]))
    return max(0.0, -0.5 * math.log2(p))


def overlap_exponent_mean(channel: CQChannel) -> float:
    """Mean of -log2 g(x, x') over an i.i.d. input pair; +inf if any pair
    with positive probability has zero overlap.

    This is also the r -> infinity limit of Ex, i.e. the zero-rate limit of
    the expurgated exponent when it is finite.
    """
    g, w = _pair_weights(channel)
    mask = w > 0.0
    if np.any(g[mask] <= OVERLAP_POS_TOL):
        return math.inf
    return float(-np.sum(w[mask] * np.log2(g[mask])))


def overlap_exponent_half_var(channel: CQChannel) -> float:
    """Half the variance of log2 g(x, x') over an i.i.d. input pair (bits^2);
    +inf if any pair with positive probability has zero overlap."""
    g, w = _pair_weights(channel)
    mask = w > 0.0
    if np.any(g[mask] <= OVERLAP_POS_TOL):
        return math.inf
    x = np.log2(g[mask])
    ww = w[mask]
    mean = float(np.sum(ww * x))
    var = float(np.sum(ww * x * x)) - mean * mean
    return 0.5 * max(0.0, var)


def optimal_tilt_estimate(channel: CQChannel, num_messages: int, block_length: int,
                          gamma: float) -> float:
    """Closed-form estimate of the maximizing tilt order at blocklength n.

    sqrt(halfvar / (2 log2(M)/n + log2(gamma)/n)) for M messages and a
    quantile parameter gamma >= 1.  Diagnostic only.  Returns NaN when the
    half-variance of the log-overlap is infinite or zero, +inf when the
    denominator vanishes (M = 1 with gamma = 1).
    """
    if num_messages < 1:
        raise ValueError(f"need at least one message, got {num_messages}")
    if block_length < 1:
        raise ValueError(f"block length must be positive, got {block_length}")
    if gamma < 1.0:
        raise ValueError(f"gamma must be at least 1, got {gamma}")
    halfvar = overlap_exponent_half_var(channel)
    if math.isinf(halfvar) or halfvar <= 0.0:
        return math.nan
    denom = (2.0 * math.log2(num_messages) + math.log2(gamma)) / block_length
    if denom <= 0.0:
        return math.inf
    return math.sqrt(halfvar / denom)


def channel_thresholds(channel: CQChannel) -> ChannelThresholds:
    """Collect the capacity at Q, the crossover rate, and the divergence rate."""
    return ChannelThresholds(
        capacity_at_q=holevo_information(channel),
        r_star=crossover_rate(channel),
        r_inf=expurgated_divergence_rate(channel),
    )
