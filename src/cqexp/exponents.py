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

import numpy as np

from .channels import CQChannel, _count, _numbers, holevo_information
from .qlinalg import _clamp_psd, _Record
from .search import _lanewise, maximize_on_grid

S_GRID_POINTS = 257
R_GRID_POINTS = 257
R_MAX = 1e4  # the expurgated maximization searches r in [1, R_MAX]
DIVERGENCE_MARGIN = 1e-9
OVERLAP_POS_TOL = 1e-12
_SWEEP_LANES = 256  # rates refined together: bounds the (lanes, grid) values and E0 stack
RATE_CAP = 2 ** 16  # rates in one sweep (200 rates take 15-65 ms)

_S_GRID = np.linspace(0.0, 1.0, S_GRID_POINTS)
_R_GRID = np.logspace(0.0, math.log10(R_MAX), R_GRID_POINTS)


class ExponentValue(_Record, eq=True):
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


class RatePoint(_Record, eq=True):
    """One rate sample, both exponent branches and their maximum; fields in CSV column order."""

    rate: float
    e_r: float
    e_ex_shifted: float
    e_trc_lb: float
    s_opt: float
    r_opt: float
    divergent: bool


ExponentCurve = list[RatePoint]  # ordered by rate


class ChannelThresholds(_Record, eq=True):
    """The `thresholds` document, one key per field (see channel_thresholds)."""

    capacity_at_q: float
    r_star: float
    r_inf: float
    nu0: float
    nu1: float
    e_x_at_1: float


def _json_real(x: float) -> float | str:
    """x for a JSON document, with +inf written "inf"."""
    return "inf" if math.isinf(x) else float(x)


def _refuse_outside(raw, x: np.ndarray, ok: np.ndarray, rule: str) -> None:
    """Raise ValueError(rule) naming a scalar ``raw``, or else the first entry of x not ok."""
    if not ok.all():
        got = raw if np.ndim(raw) == 0 else x[~ok][0]
        raise ValueError(f"{rule}, got {got}")


def _distinct(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of a 1-d array, ascending, and the index of each entry among them,
    as np.unique(x, return_inverse=True) gives them (whose first call imports numpy.ma)."""
    ranked = np.sort(x)
    values = np.append(ranked[:1], ranked[1:][ranked[1:] != ranked[:-1]])
    return values, np.searchsorted(values, x)


def e0(channel: CQChannel, s):
    """Random-coding base function E0(s, Q) in bits, at one tilt or an array of them.

    Defined for any finite s > -1 (the maximization over [0, 1] is done by
    random_coding_exponent); E0(0) = 0 and the slope at 0 is the Holevo
    information.  A float tilt gives a float, an array an array of its shape, each
    distinct tilt computed once (-0.0 with 0.0: both give the same bits).
    """
    t = np.asarray(s, dtype=float)
    _refuse_outside(s, t, (-1.0 < t) & (t < math.inf), "E0 tilt must exceed -1 and be finite")
    tilts, inverse = _distinct(t.ravel())
    # one exponent per eigenvalue, never broadcast: numpy swaps pow for sqrt or a square
    # on a broadcast 0.5 or 2, for some batch shapes only, so values would follow the batch
    u = np.repeat(tilts.reshape(-1, 1), channel.dim, axis=1)
    p = 1.0 / (1.0 + u)
    acc = np.zeros((u.shape[0], channel.dim, channel.dim), dtype=complex)
    for qx, state in zip(channel.q.probabilities, channel.states):
        if qx == 0.0:
            continue
        v = state.eigenvectors
        # 0**p == 0 since p > 0; the matmul form (v * w**p) @ v^H rounds differently
        acc += qx * np.einsum("ik,bk,jk->bij", v, state.eigenvalues ** p, v.conj())
    evs = _clamp_psd(np.linalg.eigvalsh(acc), "powered average state")
    out = -np.log2(np.sum(evs ** (1.0 + u), axis=-1))[inverse]
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)


def ex_function(channel: CQChannel, r):
    """Expurgated base function Ex(r, Q) = -r log2 Z(1/r) in bits, at one order or an array of them.

    Finite for every finite r > 0: the diagonal overlap terms keep Z(1/r)
    at least sum_x Q(x)^2.  The expurgated maximization uses r >= 1.  A float
    order gives a float, an array an array of its shape, each distinct order computed once.
    """
    x = np.asarray(r, dtype=float)
    _refuse_outside(r, x, (0.0 < x) & (x < math.inf), "Ex order must be positive and finite")
    (v, inverse), q, g = _distinct(x.ravel()), channel.q.probabilities, channel.overlap_gram
    # every order in one stack, bit-equal to its own (q @ g ** t) @ q with t = 1/r (0**t == 0):
    # one pow exponent per entry, never a broadcast scalar; t = 0.5 and 2 take the sqrt and
    # square that scalar ** takes; the stacked matmuls make one gemv and one dot per order
    t = 1.0 / v
    p = np.repeat(t, g.size).reshape(-1, *g.shape)
    np.power(g, p, out=p)
    p[t == 0.5], p[t == 2.0] = np.sqrt(g), np.square(g)
    out = (-v * np.log2(np.matmul(np.matmul(q, p)[:, None, :], q)[:, 0]))[inverse]
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _check_rate_count(count: int) -> None:
    """Refuse more than RATE_CAP rates: the one rule for sweep and the CLI's rate grids."""
    if count > RATE_CAP:
        raise ValueError(f"{count} rates exceed the cap {RATE_CAP} of one sweep")


def _rates(rates, ndim: int) -> np.ndarray:
    """The one rule for a rate: a number (ndim 0, 'rate') or a list, tuple or 1-d array of at
    most RATE_CAP (ndim 1, 'rates'), each under _numbers' rule, finite and >= 0; one lane each."""
    name = ("'rate'", "'rates'")[ndim]
    if ndim and isinstance(rates, (list, tuple, np.ndarray)) and getattr(rates, "ndim", 1) == 1:
        _check_rate_count(len(rates))  # before a long list is read
        rates = list(rates)  # one rule for the three forms; any other value is refused whole
    r = np.array(_numbers(rates, ndim, name), ndmin=1)
    _refuse_outside(rates, r, (0.0 <= r) & (r < math.inf), f"{name} must be finite and nonnegative")
    return r


def _random_coding_lanes(channel: CQChannel, r) -> tuple[np.ndarray, np.ndarray]:
    """E_r and its maximizing s at each rate in r, in lockstep (see random_coding_exponent)."""
    objective = _lanewise(lambda s, rate: e0(channel, s) - s * rate, r)
    s_best, v_best = maximize_on_grid(objective, _S_GRID,
                                      e0(channel, _S_GRID) - _S_GRID * r[:, None])
    zero = (v_best <= 0.0) | (s_best <= 1e-12)
    return np.where(zero, 0.0, v_best), np.where(zero, 0.0, s_best)


def random_coding_exponent(channel: CQChannel, rate: float) -> ExponentValue:
    """E_r(R, Q) = max over s in [0, 1] of E0(s) - s R.

    Returns exactly 0 with maximizer 0 when the optimum sits at s = 0,
    which happens for every rate at or above the Holevo information.
    """
    value, s_best = _random_coding_lanes(channel, _rates(rate, 0))
    return ExponentValue(float(value[0]), float(s_best[0]), True)


def _expurgated_lanes(channel: CQChannel, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E_ex, its maximizer and convergence flag at every rate in r (see expurgated_exponent)."""
    vals = ex_function(channel, _R_GRID) - _R_GRID * r[:, None]
    climbing = (np.argmax(vals, axis=1) == _R_GRID.size - 1) & (vals[:, -1] > vals[:, -2])
    divergent = climbing & (r < 2.0 * expurgated_divergence_rate(channel) - DIVERGENCE_MARGIN)
    value = np.where(divergent, math.inf, vals[:, -1])
    r_best = np.where(divergent, math.inf, _R_GRID[-1])
    if not climbing.all():
        refine = _lanewise(lambda x, rate: ex_function(channel, x) - x * rate, r[~climbing])
        r_best[~climbing], value[~climbing] = maximize_on_grid(refine, _R_GRID, vals[~climbing])
    return value, r_best, divergent | ~climbing


def expurgated_exponent(channel: CQChannel, rate: float) -> ExponentValue:
    """E_ex(R, Q) = max over r >= 1 of Ex(r) - r R.

    Divergence is decided by a slope test: if the objective is still
    climbing at r = 1e4 and the rate sits below the asymptotic slope
    -log2 P[g > 0] (minus a 1e-9 margin), the supremum is infinite and the
    value is flagged +inf.  If the objective climbs at r = 1e4 but the rate
    is at or above the slope, the supremum is the finite r -> infinity
    limit; the truncated value at r = 1e4 is returned with converged False.
    """
    value, r_best, converged = _expurgated_lanes(channel, _rates(rate, 0))
    return ExponentValue(float(value[0]), float(r_best[0]), bool(converged[0]))


def _points(channel: CQChannel, rates: np.ndarray) -> ExponentCurve:
    e_r, s_opt = _random_coding_lanes(channel, rates)
    e_ex, r_opt, _ = _expurgated_lanes(channel, 2.0 * rates)
    rows = np.column_stack([rates, e_r, e_ex + rates, s_opt, r_opt]).tolist()  # +inf propagates
    return [RatePoint(rate=rate, e_r=rc, e_ex_shifted=sh, e_trc_lb=max(rc, sh), s_opt=s,
                      r_opt=r, divergent=math.isinf(sh))
            for rate, rc, sh, s, r in rows]


def trc_lower_bound(channel: CQChannel, rate: float) -> RatePoint:
    """Typical-ensemble exponent lower bound max(E_r(R), E_ex(2R) + R) at one rate."""
    return _points(channel, _rates(rate, 0))[0]


def sweep(channel: CQChannel, rates) -> ExponentCurve:
    """Evaluate trc_lower_bound over a nonempty ascending list, tuple or 1-d array of rates, in
    lockstep; _rates refuses them under the name 'rates'."""
    r = _rates(rates, 1)
    if r.size == 0:
        raise ValueError("rate grid is empty")
    if np.any(np.diff(r) < 0):
        raise ValueError("rates must be sorted ascending")
    passes = np.array_split(r, -(-r.size // _SWEEP_LANES))
    return [p for lanes in passes for p in _points(channel, lanes)]


def _pair_weights(channel: CQChannel) -> tuple[np.ndarray, np.ndarray]:
    return channel.overlap_gram, np.outer(channel.q.probabilities, channel.q.probabilities)


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


def _log_overlaps(channel: CQChannel) -> tuple[np.ndarray, np.ndarray] | None:
    """Q(x) Q(x') and log2 g(x, x') on pairs with Q(x) Q(x') > 0; None if one has zero overlap."""
    g, w = _pair_weights(channel)
    mask = w > 0.0
    return None if np.any(g[mask] <= OVERLAP_POS_TOL) else (w[mask], np.log2(g[mask]))


def overlap_exponent_mean(channel: CQChannel) -> float:
    """Mean of -log2 g(x, x') over an i.i.d. input pair; +inf if any pair
    with positive probability has zero overlap.

    This is also the r -> infinity limit of Ex, i.e. the zero-rate limit of
    the expurgated exponent when it is finite.
    """
    pairs = _log_overlaps(channel)
    return math.inf if pairs is None else float(-np.sum(pairs[0] * pairs[1]))


def overlap_exponent_half_var(channel: CQChannel) -> float:
    """Half the variance of log2 g(x, x') over an i.i.d. input pair (bits^2);
    +inf if any pair with positive probability has zero overlap."""
    if (pairs := _log_overlaps(channel)) is None:
        return math.inf
    ww, x = pairs
    mean = float(np.sum(ww * x))
    return 0.5 * max(0.0, float(np.sum(ww * x * x)) - mean * mean)


def _check_gamma(gamma: float) -> float:
    value = _numbers(gamma, 0, "'gamma'")  # a bool or a string is refused, not read as a number
    if not 1.0 <= value < math.inf:
        raise ValueError(f"'gamma' must be at least 1 and finite, got {gamma}")
    return value


def optimal_tilt_estimate(channel: CQChannel, num_messages: int, block_length: int,
                          gamma: float) -> float:
    """Closed-form estimate of the maximizing tilt order at blocklength n.

    sqrt(halfvar / (2 log2(M)/n + log2(gamma)/n)) for M messages and a
    quantile parameter gamma >= 1.  Diagnostic only.  Returns NaN when the
    half-variance of the log-overlap is infinite or zero, +inf when the
    denominator vanishes (M = 1 with gamma = 1).
    """
    _count(num_messages, 1, "message count must be a positive integer")
    _count(block_length, 1, "block length must be a positive integer")
    _check_gamma(gamma)
    halfvar = overlap_exponent_half_var(channel)
    if math.isinf(halfvar) or halfvar <= 0.0:
        return math.nan
    denom = (2.0 * math.log2(num_messages) + math.log2(gamma)) / block_length
    if denom <= 0.0:
        return math.inf
    return math.sqrt(halfvar / denom)


def channel_thresholds(channel: CQChannel) -> ChannelThresholds:
    """Capacity at Q, crossover and divergence rates, both log-overlap moments, and Ex(1)."""
    return ChannelThresholds(
        capacity_at_q=holevo_information(channel),
        r_star=crossover_rate(channel),
        r_inf=expurgated_divergence_rate(channel),
        nu0=overlap_exponent_mean(channel),
        nu1=overlap_exponent_half_var(channel),
        e_x_at_1=ex_function(channel, 1.0),
    )
