"""The lane-wise searches against the scalar oracle: a sweep refines every rate
in lockstep and must give, field by field, what one scalar search per rate gives."""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cqexp.exponents
from cqexp import (
    CQChannel,
    channel_from_config,
    e0,
    ex_function,
    expurgated_exponent,
    holevo_information,
    random_coding_exponent,
    sweep,
    trc_lower_bound,
)
from cqexp.search import _lanewise, golden_section_maximize, maximize_on_grid
from helpers import (
    golden_section_maximize as scalar_golden,
    pauli_channel,
    random_channel,
    scalar_expurgated,
    scalar_random_coding,
    scalar_rate_point,
)

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
SHIPPED = ("pauli_mu070", "pauli_mu090", "pauli_mu095", "bsc_p010")


def sweep_rates(channel, count: int) -> np.ndarray:
    """R = 0 (s_opt = 1), the crossover region, and rates past capacity (s_opt = 0)."""
    return np.linspace(0.0, 1.25 * max(holevo_information(channel), 0.4), count)


def assert_sweep_equals_oracle(channel, rates):
    curve = sweep(channel, rates)
    assert len(curve) == len(rates)
    for point, rate in zip(curve, rates.tolist()):
        want = scalar_rate_point(channel, rate)
        for name, got in vars(point).items():
            ref = vars(want)[name]
            assert np.array_equal(got, ref), (name, rate, got, ref)
    return curve


@pytest.mark.parametrize("stem", SHIPPED)
def test_sweep_equals_per_rate_oracle_on_shipped_configs(stem):
    channel = channel_from_config(json.loads((CONFIGS / f"{stem}.json").read_text()))
    curve = assert_sweep_equals_oracle(channel, sweep_rates(channel, 40))
    assert any(p.s_opt == 0.0 for p in curve)
    assert curve[0].s_opt == 1.0
    if stem != "bsc_p010":  # every overlap positive: E_ex(0) is the truncated limit
        assert curve[0].r_opt == 1e4


def test_sweep_equals_per_rate_oracle_with_divergent_rows():
    channel = pauli_channel(1.0, 0.0)  # orthogonal pure states: divergent below R = 0.5
    rates = np.concatenate([np.linspace(0.0, 0.49, 8), [0.5, 0.6, 1.0, 1.3]])
    curve = assert_sweep_equals_oracle(channel, rates)
    assert [p.divergent for p in curve] == [True] * 8 + [False] * 4
    assert all(math.isinf(p.e_trc_lb) and p.r_opt == math.inf for p in curve[:8])
    assert curve[-1].s_opt == 0.0


@settings(max_examples=20)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(2, 3))
def test_sweep_equals_per_rate_oracle_on_random_channels(seed, k, d):
    channel = random_channel(np.random.default_rng(seed), k, d)
    assert_sweep_equals_oracle(channel, sweep_rates(channel, 16))


def test_sweep_is_invariant_to_the_lanes_per_pass(monkeypatch):
    channel = random_channel(np.random.default_rng(5), 3, 2)
    rates = sweep_rates(channel, 23)
    whole = sweep(channel, rates)
    monkeypatch.setattr("cqexp.exponents._SWEEP_LANES", 4)  # passes of 4, 4, 4, 4, 4, 3 lanes
    sizes, real = [], cqexp.exponents.e0
    monkeypatch.setattr(cqexp.exponents, "e0", lambda c, t: sizes.append(np.size(t)) or real(c, t))
    assert sweep(channel, rates) == whole
    grid = cqexp.exponents.S_GRID_POINTS
    assert sizes.count(grid) == 6  # each pass evaluates its own E0 grid
    assert max(n for n in sizes if n != grid) <= 4


@pytest.mark.parametrize("rate", [0.0, 0.02, 0.1, 0.25, 0.49, 0.5, 0.7, 1.3])
@pytest.mark.parametrize("mu, theta", [(0.95, math.pi / 6), (1.0, 0.0)])
def test_single_rate_functions_are_the_one_lane_case(mu, theta, rate):
    channel = pauli_channel(mu, theta)
    rc = random_coding_exponent(channel, rate)
    assert (rc.value, rc.maximizer, rc.converged) == (*scalar_random_coding(channel, rate), True)
    ex = expurgated_exponent(channel, rate)
    assert (ex.value, ex.maximizer, ex.converged) == scalar_expurgated(channel, rate)
    assert trc_lower_bound(channel, rate) == scalar_rate_point(channel, rate)


def test_lanes_equal_scalar_search_lane_by_lane():
    # brackets of very different widths, so lanes freeze at different iterations,
    # one empty bracket frozen from the start, and maxima inside, at and past the ends
    lo = np.array([0.0, 0.0, -3.0, 1.0, 0.2, 5.0])
    hi = np.array([1.0, 1e-3, 40.0, 1.0, 0.3, 700.0])
    peak = np.array([0.37, 2.0, 11.1, 1.0, 0.1, 123.456])
    calls = []

    def f(x):
        calls.append(np.count_nonzero(~np.isnan(x)))
        return _lanewise(lambda x, t: -np.abs(x - t) ** 1.5, peak)(x)

    x, fx = golden_section_maximize(f, lo, hi)
    for i in range(lo.size):
        want = scalar_golden(lambda v, t=peak[i]: -abs(v - t) ** 1.5, lo[i], hi[i])
        assert (x[i], fx[i]) == want
    assert calls[:4] == [lo.size] * 4 and 0 < calls[-1] < lo.size


def test_maximize_on_grid_equals_scalar_search_lane_by_lane():
    grid = np.linspace(-1.0, 2.0, 31)
    peaks = np.array([-1.0, -0.37, 0.5, 1.234, 2.0, 3.0])
    values = -(grid[None, :] - peaks[:, None]) ** 2
    x, fx = maximize_on_grid(_lanewise(lambda x, t: -(x - t) ** 2, peaks), grid, values)
    for i, t in enumerate(peaks.tolist()):
        k = int(np.argmax(values[i]))
        xs, fs = scalar_golden(lambda v: -(v - t) ** 2, grid[max(k - 1, 0)],
                               grid[min(k + 1, grid.size - 1)])
        want = (grid[k], values[i, k]) if values[i, k] >= fs else (xs, fs)
        assert (x[i], fx[i]) == want


def test_a_tie_with_the_grid_optimum_keeps_the_grid_point():
    grid = np.linspace(0.0, 1.0, 11)
    plateau = _lanewise(lambda x: np.where(np.abs(x - 0.5) < 0.25, 1.0, 0.0))
    values = plateau(grid)[None, :]  # the grid optimum is 0.3; the refinement's is 0.4
    x, fx = maximize_on_grid(plateau, grid, values)
    assert (x[0], fx[0]) == (grid[3], 1.0)


def test_empty_interval_is_refused():
    with pytest.raises(ValueError, match="empty search interval"):
        golden_section_maximize(_lanewise(lambda x: -x * x), [0.0, 1.0], [1.0, 0.5])


base_function_channels = pytest.mark.parametrize("channel", [
    pauli_channel(0.95), pauli_channel(1.0, 0.0),
    random_channel(np.random.default_rng(3), 3, 3), random_channel(np.random.default_rng(4), 8, 4),
    # numpy's array pow rounds g**2 (6x4) and g**0.5 (8x2) off the square and sqrt that
    # scalar ** takes, and here that moves Ex at r = 0.5 and r = 2
    random_channel(np.random.default_rng(10), 6, 4), random_channel(np.random.default_rng(0), 8, 2),
], ids=["pauli095", "orthogonal", "random3x3", "random8x4", "random6x4", "random8x2"])


@base_function_channels
def test_batched_e0_equals_scalar_e0_lane_by_lane(channel):
    s = np.concatenate([np.linspace(0.0, 1.0, 65),
                        np.random.default_rng(9).uniform(0.0, 1.0, 40)])
    got = e0(channel, s)
    assert got.shape == s.shape
    assert np.array_equal(got, [e0(channel, x) for x in s.tolist()])
    assert np.array_equal(e0(channel, s.reshape(5, 21)), got.reshape(5, 21))
    assert isinstance(e0(channel, 0.3), float)


@pytest.mark.parametrize("bad", [math.nan, -1.0, -2.5, math.inf])
def test_one_bad_tilt_in_an_array_raises_like_the_scalar_call(bad):
    channel = pauli_channel(0.9)
    with pytest.raises(ValueError) as scalar:
        e0(channel, bad)
    with pytest.raises(ValueError) as batched:
        e0(channel, np.array([0.1, 0.5, bad, 0.7]))
    assert str(batched.value) == str(scalar.value)


def ex_orders(rng, extra=()) -> np.ndarray:
    """The r grid, the orders where scalar ** takes numpy's square (0.5) and sqrt (2)
    shortcuts, and random orders in [0.1, 1e4]."""
    return np.concatenate([cqexp.exponents._R_GRID, [0.5, 1.0, 2.0, 4.0, 1e4],
                           10.0 ** rng.uniform(-1.0, 4.0, 40), extra])


def assert_ex_is_the_per_order_formula(channel, r):
    got = ex_function(channel, r)
    assert got.shape == r.shape
    assert np.array_equal(got, [ex_function(channel, x) for x in r.tolist()])
    q, g = channel.q.probabilities, channel.overlap_gram
    want = [-x * np.log2((q @ g ** (1.0 / x)) @ q) for x in r.tolist()]
    bad = got != np.array(want)
    assert not bad.any(), (r[bad].tolist(), got[bad].tolist(), np.array(want)[bad].tolist())
    return got


@base_function_channels
def test_batched_ex_equals_scalar_ex_lane_by_lane(channel):
    r = ex_orders(np.random.default_rng(9))
    got = assert_ex_is_the_per_order_formula(channel, r)
    for shape in [(2, 151), (151, 1, 2)]:
        assert np.array_equal(ex_function(channel, r.reshape(shape)), got.reshape(shape))
    assert isinstance(ex_function(channel, 2.0), float)
    assert ex_function(channel, np.array([])).shape == (0,)


@settings(max_examples=40)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.integers(1, 4), st.integers(-1, 7),
       st.lists(st.floats(0.1, 1e4), max_size=8))
def test_batched_ex_is_the_per_order_formula_on_random_channels(seed, k, d, zero, orders):
    rng = np.random.default_rng(seed)
    channel = random_channel(rng, k, d)
    if k > 1 and 0 <= zero < k:  # a zero-probability letter
        q = channel.q.probabilities.copy()
        q[zero] = 0.0
        channel = CQChannel(channel.states, q / q.sum())
    assert_ex_is_the_per_order_formula(channel, ex_orders(rng, orders))


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf])
def test_one_bad_order_in_an_array_raises_like_the_scalar_call(bad):
    channel = pauli_channel(0.9)
    with pytest.raises(ValueError) as scalar:
        ex_function(channel, bad)
    with pytest.raises(ValueError) as batched:
        ex_function(channel, np.array([1.0, 3.5, bad, 40.0]))
    assert str(batched.value) == str(scalar.value)


@settings(max_examples=30)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 3),
       st.lists(st.floats(-0.99, 2.0), max_size=6), st.lists(st.floats(0.1, 1e4), max_size=6))
def test_repeated_and_permuted_arguments_equal_the_scalar_calls(seed, k, d, tilts, orders):
    # each distinct argument is computed once and scattered back: how often an argument
    # repeats, where it sits and the sign of a zero tilt change no bit
    rng = np.random.default_rng(seed)
    channel = random_channel(rng, k, d)
    for f, args in ((e0, [0.0, -0.0, 0.5, 1.0, 2.0, *tilts]),
                    (ex_function, [0.5, 1.0, 2.0, 1e4, *orders])):
        x = rng.permutation(np.repeat(args, rng.integers(1, 4, len(args))))
        want = np.array([f(channel, v) for v in x.tolist()])
        assert f(channel, x).tobytes() == want.tobytes()
        assert f(channel, x[::-1].reshape(-1, 1)).tobytes() == want[::-1].tobytes()


def test_each_distinct_argument_is_computed_once(monkeypatch):
    channel = random_channel(np.random.default_rng(4), 8, 4)
    decomposed, powered = [], []
    eigvalsh, power = np.linalg.eigvalsh, np.power
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: decomposed.append(len(a)) or eigvalsh(a))
    monkeypatch.setattr(np, "power", lambda g, p, **kw: powered.append(len(p)) or power(g, p, **kw))
    e0(channel, np.array([1.0, 0.0, 0.25, 1.0, -0.0, 0.25, 1.0, 0.7]))
    ex_function(channel, np.array([[2.0, 1.0, 2.0], [1e4, 1.0, 2.0]]))
    assert (decomposed, powered) == ([4], [3])  # -0.0 is 0.0
    decomposed.clear()
    entries, distinct, real = [], [], cqexp.exponents.e0

    def counting(c, s):
        entries.append(np.size(s))
        distinct.append(len(set(np.ravel(s).tolist())))
        return real(c, s)

    monkeypatch.setattr(cqexp.exponents, "e0", counting)
    sweep(channel, sweep_rates(channel, 60))
    assert decomposed == distinct and sum(distinct) < sum(entries)  # lanes share end points


def test_sweep_refuses_more_rates_than_the_cap(monkeypatch):
    monkeypatch.setattr(cqexp.exponents, "e0", lambda *_: pytest.fail("E0 was evaluated"))
    cap = cqexp.exponents.RATE_CAP
    with pytest.raises(ValueError, match=f"^{cap + 1} rates exceed the cap {cap} of one sweep$"):
        sweep(pauli_channel(0.9), np.zeros(cap + 1))
