"""Exponent functions: base functions, maximizations, thresholds, diagnostics."""

import math

import numpy as np
import pytest

import cqexp.exponents
import cqexp.search
from cqexp import (
    CQChannel,
    DensityOperator,
    InputDistribution,
    PauliChannelParams,
    binary_pauli,
    channel_thresholds,
    crossover_rate,
    e0,
    ex_function,
    expurgated_divergence_rate,
    expurgated_exponent,
    from_classical_dmc,
    holevo_information,
    matrix_power,
    optimal_tilt_estimate,
    overlap_exponent_half_var,
    overlap_exponent_mean,
    random_coding_exponent,
    sweep,
    trc_lower_bound,
    verify_markov_bound,
)
from helpers import (
    pauli_channel,
    pauli_pair_overlap,
    random_channel,
)


def orthogonal_channel():
    return binary_pauli(PauliChannelParams(mu=1.0, theta=0.0))


def identical_channel(k=2):
    return CQChannel((DensityOperator.maximally_mixed(2),) * k, InputDistribution.uniform(k))


# --- E0 ----------------------------------------------------------------------


def test_e0_orthogonal_pure_equals_s():
    ch = orthogonal_channel()
    for s in np.linspace(0.0, 1.0, 21):
        assert abs(e0(ch, float(s)) - s) < 1e-12


def test_e0_identical_states_is_zero():
    ch = identical_channel()
    for s in (0.0, 0.5, 1.0):
        assert abs(e0(ch, s)) < 1e-12


def test_e0_zero_at_s_zero():
    rng = np.random.default_rng(47)
    for _ in range(5):
        ch = random_channel(rng, 3, 3)
        assert abs(e0(ch, 0.0)) < 1e-10


def test_e0_monotone_on_grid():
    ch = pauli_channel(0.95)
    grid = np.linspace(0.0, 1.0, 101)
    vals = [e0(ch, float(s)) for s in grid]
    assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))
    assert all(v >= -1e-12 for v in vals)


def test_e0_matches_dense_matrix_route():
    # independent route: explicit fractional powers and a matrix trace
    rng = np.random.default_rng(53)
    for _ in range(5):
        ch = random_channel(rng, 2, 3)
        for s in (0.3, 1.0):
            p = 1.0 / (1.0 + s)
            avg = sum(qx * matrix_power(st, p)
                      for qx, st in zip(ch.q.probabilities, ch.states))
            expected = -math.log2(float(np.trace(matrix_power(avg, 1.0 + s)).real))
            assert abs(e0(ch, s) - expected) < 1e-12


def test_e0_domain():
    ch = pauli_channel(0.9)
    with pytest.raises(ValueError, match="exceed -1"):
        e0(ch, -1.0)
    # slightly negative tilts are legal; used by the slope diagnostics
    assert e0(ch, -1e-5) < 0.0


def test_e0_slope_at_zero_is_holevo_information():
    rng = np.random.default_rng(59)
    step = 1e-5
    for _ in range(3):
        ch = random_channel(rng, 2, 2)
        slope = (e0(ch, step) - e0(ch, -step)) / (2 * step)
        assert abs(slope - holevo_information(ch)) < 1e-5


def test_e0_equals_ex_at_one():
    # Tr[(sum Q sqrt(sigma))^2] is exactly the pairwise overlap sum
    for mu in (0.7, 0.9, 0.95):
        ch = pauli_channel(mu)
        assert abs(e0(ch, 1.0) - ex_function(ch, 1.0)) < 1e-12


# --- random-coding exponent --------------------------------------------------


def test_random_coding_orthogonal_line():
    ch = orthogonal_channel()
    for rate in np.linspace(0.0, 1.0, 11):
        got = random_coding_exponent(ch, float(rate))
        assert abs(got.value - (1.0 - rate)) < 1e-9


def test_random_coding_zero_above_capacity():
    ch = pauli_channel(0.95)
    cap = holevo_information(ch)
    for rate in (cap + 1e-3, cap + 0.1, 2.0):
        got = random_coding_exponent(ch, rate)
        assert got.value == 0.0
        assert got.maximizer == 0.0
        assert got.converged


def test_random_coding_positive_below_capacity():
    ch = pauli_channel(0.95)
    cap = holevo_information(ch)
    for rate in (0.0, 0.2, cap - 1e-2):
        got = random_coding_exponent(ch, rate)
        assert got.value > 0.0
        assert 0.0 < got.maximizer <= 1.0


def test_random_coding_beats_grid():
    ch = pauli_channel(0.9)
    s_grid = np.linspace(0.0, 1.0, 1001)
    for rate in (0.05, 0.2, 0.4):
        got = random_coding_exponent(ch, rate)
        brute = max(e0(ch, float(s)) - s * rate for s in s_grid)
        assert got.value >= brute - 1e-9


def test_random_coding_nonincreasing_in_rate():
    ch = pauli_channel(0.9)
    rates = np.linspace(0.0, 0.6, 25)
    vals = [random_coding_exponent(ch, float(r)).value for r in rates]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_random_coding_rejects_negative_rate():
    with pytest.raises(ValueError, match="nonnegative"):
        random_coding_exponent(pauli_channel(0.9), -0.1)


# --- Ex and the expurgated exponent ------------------------------------------


def test_ex_orthogonal_is_linear():
    ch = orthogonal_channel()
    for r in (1.0, 2.0, 7.5, 100.0):
        assert abs(ex_function(ch, r) - r) < 1e-9


def test_ex_identical_states_is_zero():
    ch = identical_channel()
    for r in (1.0, 3.0):
        assert abs(ex_function(ch, r)) < 1e-12


def test_ex_known_value_at_one():
    ch = pauli_channel(0.95)
    g = pauli_pair_overlap(0.95, math.pi / 6)
    assert ex_function(ch, 1.0) == pytest.approx(-math.log2((1 + g) / 2), abs=1e-12)
    assert ex_function(ch, 1.0) == pytest.approx(0.4274, abs=1e-4)


def test_ex_nondecreasing_in_r():
    ch = pauli_channel(0.9)
    rs = [1.0, 2.0, 4.0, 16.0, 256.0, 1024.0]
    vals = [ex_function(ch, r) for r in rs]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_ex_domain():
    with pytest.raises(ValueError, match="positive"):
        ex_function(pauli_channel(0.9), 0.0)


def test_expurgated_divergent_for_orthogonal_low_rate():
    ch = orthogonal_channel()
    for rate in (0.0, 0.5, 0.999):
        got = expurgated_exponent(ch, rate)
        assert math.isinf(got.value)
        assert got.divergent
    # at and above the asymptotic slope it is finite
    got = expurgated_exponent(ch, 1.0)
    assert got.value == pytest.approx(0.0, abs=1e-12)
    got = expurgated_exponent(ch, 1.5)
    assert got.value == pytest.approx(-0.5, abs=1e-12)
    assert got.maximizer == pytest.approx(1.0)


def test_expurgated_zero_rate_limit_is_overlap_mean():
    ch = pauli_channel(0.95)
    got = expurgated_exponent(ch, 0.0)
    assert not got.converged  # truncated at the order cap, limit is the mean
    assert got.value == pytest.approx(overlap_exponent_mean(ch), abs=1e-4)


def test_expurgated_boundary_maximizer_above_crossover():
    ch = pauli_channel(0.95)
    two_rstar = 2.0 * crossover_rate(ch)
    for rate in (two_rstar + 1e-3, 0.2, 0.5):
        got = expurgated_exponent(ch, rate)
        assert got.maximizer == 1.0
        assert got.value == pytest.approx(ex_function(ch, 1.0) - rate, abs=1e-12)


def test_expurgated_interior_maximizer_below_crossover():
    ch = pauli_channel(0.95)
    got = expurgated_exponent(ch, crossover_rate(ch))  # rate below the r=1 slope
    assert got.maximizer > 1.0
    assert got.value > ex_function(ch, 1.0) - crossover_rate(ch)


# --- combined lower bound ----------------------------------------------------


def test_trc_point_is_max_of_branches():
    ch = pauli_channel(0.95)
    for rate in (0.0, 0.02, 0.1, 0.3, 0.7):
        p = trc_lower_bound(ch, rate)
        assert p.e_trc_lb == max(p.e_r, p.e_ex_shifted)
        assert p.rate == rate


def test_trc_divergent_branch_propagates():
    ch = orthogonal_channel()
    p = trc_lower_bound(ch, 0.3)  # doubled rate 0.6 sits below the divergence rate
    assert p.divergent
    assert math.isinf(p.e_ex_shifted)
    assert math.isinf(p.e_trc_lb)
    p = trc_lower_bound(ch, 0.7)
    assert not p.divergent
    assert p.e_trc_lb == pytest.approx(0.3, abs=1e-9)  # max(1-R, Ex(1)-R) = 1-R


def test_sweep_structure_and_validation():
    ch = pauli_channel(0.9)
    rates = np.linspace(0.0, 0.6, 16)
    curve = sweep(ch, rates)
    assert [p.rate for p in curve] == list(rates)
    finite = [p.e_trc_lb for p in curve]
    assert all(a >= b - 1e-12 for a, b in zip(finite, finite[1:]))
    with pytest.raises(ValueError, match="ascending"):
        sweep(ch, [0.3, 0.1])
    with pytest.raises(ValueError, match="nonnegative"):
        sweep(ch, [-0.1, 0.2])
    with pytest.raises(ValueError, match="finite"):
        sweep(ch, [0.1, math.nan])
    with pytest.raises(ValueError, match="empty"):
        sweep(ch, [])
    # a bool or a string is refused, not read as the number it converts to
    for rates in ([0.1, True], ["0.1"], np.array([True, False])):
        with pytest.raises(ValueError, match="^'rates' must be a list of numbers"):
            sweep(ch, rates)
    # an array's repr breaks its rows over lines; the refusal is still one line
    with pytest.raises(ValueError) as refused:
        sweep(ch, np.zeros((2, 3)))
    assert str(refused.value) == ("'rates' must be a list of numbers, "
                                  "got array([[0., 0., 0.], [0., 0., 0.]])")


@pytest.mark.parametrize("call, match", [
    (lambda ch: e0(ch, math.inf), "exceed -1"),
    (lambda ch: e0(ch, math.nan), "exceed -1"),
    (lambda ch: ex_function(ch, math.inf), "positive"),
    (lambda ch: ex_function(ch, math.nan), "positive"),
    (lambda ch: random_coding_exponent(ch, math.nan), "nonnegative"),
    (lambda ch: random_coding_exponent(ch, math.inf), "nonnegative"),
    (lambda ch: expurgated_exponent(ch, math.nan), "nonnegative"),
    (lambda ch: trc_lower_bound(ch, math.nan), "nonnegative"),
    (lambda ch: optimal_tilt_estimate(ch, 4, 8, math.nan), "at least 1"),
    (lambda ch: verify_markov_bound(ch, 2, 2, math.inf, 2.0), "finite and >= 1"),
    # a bool or a string is refused, not read as the number it converts to
    (lambda ch: optimal_tilt_estimate(ch, 4, 6, True), "^'gamma' must be a number, got True$"),
    (lambda ch: optimal_tilt_estimate(ch, 4, 6, "4"), "^'gamma' must be a number, got '4'$"),
    (lambda ch: verify_markov_bound(ch, 2, 2, 1.0, True), "^'gamma' must be a number, got True$"),
    (lambda ch: verify_markov_bound(ch, 2, 2, "2", 2.0), "^'r' must be a number, got '2'$"),
    (lambda ch: random_coding_exponent(ch, "0.1"), "^'rate' must be a number, got '0.1'$"),
    (lambda ch: random_coding_exponent(ch, True), "^'rate' must be a number, got True$"),
    (lambda ch: expurgated_exponent(ch, "0.1"), "^'rate' must be a number, got '0.1'$"),
    (lambda ch: trc_lower_bound(ch, False), "^'rate' must be a number, got False$"),
    (lambda ch: e0(ch, "0.3"), "^'s' must be a number, got '0.3'$"),
    (lambda ch: e0(ch, True), "^'s' must be a number, got True$"),
    (lambda ch: e0(ch, np.array([0.5, 1.0]) > 0.7), "^'s' must be a number, got False$"),
    (lambda ch: e0(ch, [0.1, True]), "^'s' must be a number, got True$"),
    (lambda ch: ex_function(ch, "2"), "^'r' must be a number, got '2'$"),
    (lambda ch: ex_function(ch, True), "^'r' must be a number, got True$"),
    (lambda ch: ex_function(ch, np.array([[True]])), "^'r' must be a number, got True$"),
], ids=["e0-inf", "e0-nan", "ex-inf", "ex-nan", "er-nan", "er-inf", "eex-nan", "trc-nan",
        "tilt-gamma-nan", "markov-r-inf", "tilt-gamma-bool", "tilt-gamma-str",
        "markov-gamma-bool", "markov-r-str", "er-str", "er-bool", "eex-str", "trc-bool",
        "e0-str", "e0-bool", "e0-bool-array", "e0-bool-in-list", "ex-str", "ex-bool",
        "ex-bool-array"])
def test_single_point_functions_reject_non_finite(call, match):
    with pytest.raises(ValueError, match=match):
        call(from_classical_dmc([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5]))


def test_grid_values_equal_the_scalar_evaluators(monkeypatch):
    # maximize_on_grid compares grid values with refinement values, so both
    # must come from the same evaluator with the same rounding; values hold
    # one row per lane (rate)
    ch = random_channel(np.random.default_rng(0), 8, 4)
    seen = []
    real = cqexp.exponents.maximize_on_grid

    def recording(f, grid, values):
        seen.append((np.array(grid), np.array(values)))
        return real(f, grid, values)

    monkeypatch.setattr(cqexp.exponents, "maximize_on_grid", recording)

    def want(f, grid, rates):
        return np.array([f(ch, x) for x in grid.tolist()])[None, :] - grid * rates[:, None]

    for rate in (0.05, 0.2):
        random_coding_exponent(ch, rate)
        assert np.array_equal(seen[-1][1], want(e0, seen[-1][0], np.array([rate])))
        expurgated_exponent(ch, rate)
        assert np.array_equal(seen[-1][1], want(ex_function, seen[-1][0], np.array([rate])))
    rates = np.linspace(0.01, 0.3, 7)
    sweep(ch, rates)
    assert np.array_equal(seen[-2][1], want(e0, seen[-2][0], rates))
    assert np.array_equal(seen[-1][1], want(ex_function, seen[-1][0], 2.0 * rates))
    assert len(seen) == 6


def test_sweep_evaluates_the_e0_grid_once_per_pass(monkeypatch):
    # one batched E0 call for the grid, then one per lockstep iteration
    calls = []
    real = cqexp.exponents.e0

    def counting(channel, s):
        calls.append(np.size(s))
        return real(channel, s)

    monkeypatch.setattr(cqexp.exponents, "e0", counting)
    ch = pauli_channel(0.9)
    rates = np.linspace(0.0, 0.6, 50)
    sweep(ch, rates)
    first = list(calls)
    assert first[0] == cqexp.exponents.S_GRID_POINTS
    assert len(first) - 1 <= cqexp.search.MAX_ITER + 4
    assert max(first[1:]) <= rates.size
    calls.clear()
    sweep(ch, rates)
    assert calls == first


# --- thresholds and diagnostics ----------------------------------------------


def test_crossover_rate_anchors():
    assert crossover_rate(pauli_channel(0.95)) == pytest.approx(0.044, abs=0.002)
    assert crossover_rate(pauli_channel(0.9)) == pytest.approx(0.025, abs=0.002)
    assert crossover_rate(pauli_channel(0.7)) == pytest.approx(0.003, abs=0.002)


def test_crossover_rate_matches_finite_difference():
    rng = np.random.default_rng(61)
    step = 1e-5
    channels = [pauli_channel(0.95), pauli_channel(0.8)] + [
        random_channel(rng, 3, 2) for _ in range(4)
    ]
    for ch in channels:
        fd = 0.5 * (ex_function(ch, 1 + step) - ex_function(ch, 1 - step)) / (2 * step)
        assert abs(crossover_rate(ch) - fd) < 1e-6


def test_divergence_rate():
    assert expurgated_divergence_rate(pauli_channel(0.95)) == 0.0
    assert expurgated_divergence_rate(orthogonal_channel()) == pytest.approx(0.5, abs=1e-12)
    # three orthogonal pure states, uniform inputs: P[g > 0] = 1/3
    states = tuple(DensityOperator.from_pure(v) for v in np.eye(3))
    ch = CQChannel(states, InputDistribution.uniform(3))
    assert expurgated_divergence_rate(ch) == pytest.approx(0.5 * math.log2(3), abs=1e-12)


def test_overlap_exponent_moments():
    ch = pauli_channel(0.95)
    g = pauli_pair_overlap(0.95, math.pi / 6)
    assert overlap_exponent_mean(ch) == pytest.approx(-0.5 * math.log2(g), abs=1e-12)
    assert overlap_exponent_mean(ch) == pytest.approx(0.5188, abs=1e-4)
    x = math.log2(g)
    var = 0.5 * x * x - (0.5 * x) ** 2
    assert overlap_exponent_half_var(ch) == pytest.approx(0.5 * var, abs=1e-12)


def test_overlap_exponent_moments_degenerate():
    assert overlap_exponent_mean(identical_channel()) == 0.0
    assert overlap_exponent_half_var(identical_channel()) == 0.0
    assert math.isinf(overlap_exponent_mean(orthogonal_channel()))
    assert math.isinf(overlap_exponent_half_var(orthogonal_channel()))


def test_optimal_tilt_estimate_formula():
    ch = pauli_channel(0.95)
    halfvar = overlap_exponent_half_var(ch)
    n = 64
    # single message, gamma = 2^n: denominator is exactly 1
    assert optimal_tilt_estimate(ch, 1, n, 2.0 ** n) == pytest.approx(math.sqrt(halfvar), abs=1e-12)
    # gamma = 1, M = 2^(nR): denominator is exactly 2R
    rate = 0.25
    got = optimal_tilt_estimate(ch, 2 ** int(n * rate), n, 1.0)
    assert got == pytest.approx(math.sqrt(halfvar / (2 * rate)), abs=1e-12)


def test_optimal_tilt_estimate_growth_exponent():
    # fixed M, gamma = n^2: the estimate grows like sqrt(n / log gamma)
    ch = pauli_channel(0.95)
    ns = [10 ** 2, 10 ** 3, 10 ** 4]
    xs, ys = [], []
    for n in ns:
        gamma = float(n) ** 2
        xs.append(math.log(n / math.log2(gamma)))
        ys.append(math.log(optimal_tilt_estimate(ch, 4, n, gamma)))
    slope = np.polyfit(xs, ys, 1)[0]
    assert slope == pytest.approx(0.5, abs=0.05)


def test_optimal_tilt_estimate_edge_cases():
    ch = pauli_channel(0.95)
    assert math.isnan(optimal_tilt_estimate(orthogonal_channel(), 4, 8, 2.0))
    assert math.isnan(optimal_tilt_estimate(identical_channel(), 4, 8, 2.0))
    assert math.isinf(optimal_tilt_estimate(ch, 1, 8, 1.0))
    with pytest.raises(ValueError):
        optimal_tilt_estimate(ch, 0, 8, 2.0)
    with pytest.raises(ValueError):
        optimal_tilt_estimate(ch, 4, 0, 2.0)
    with pytest.raises(ValueError):
        optimal_tilt_estimate(ch, 4, 8, 0.5)


@pytest.mark.parametrize("m, n", [(math.nan, 8), (math.inf, 8), (2.5, 8), (4, math.inf),
                                  (4, math.nan), (4, 7.5)],
                         ids=["m-nan", "m-inf", "m-fraction", "n-inf", "n-nan", "n-fraction"])
def test_optimal_tilt_estimate_refuses_bad_sizes(m, n):
    with pytest.raises(ValueError, match="must be a positive integer"):
        optimal_tilt_estimate(pauli_channel(0.95), m, n, 2.0)


def test_channel_thresholds_invariants():
    for ch in (pauli_channel(0.95), pauli_channel(0.7), orthogonal_channel()):
        th = channel_thresholds(ch)
        assert 0.0 <= th.r_star <= th.capacity_at_q + 1e-12
        assert th.r_inf >= 0.0
    th = channel_thresholds(orthogonal_channel())
    assert th.r_star == pytest.approx(0.5, abs=1e-12)
    assert th.r_inf == pytest.approx(0.5, abs=1e-12)
    assert th.capacity_at_q == pytest.approx(1.0, abs=1e-12)
