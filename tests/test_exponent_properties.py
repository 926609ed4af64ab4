"""Properties of the exponent functions on random channels: the shape of E_r
along a sweep, invariance under one unitary applied to every state, and the
classical formulas on embedded DMCs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from cqexp import (
    CQChannel,
    DensityOperator,
    channel_thresholds,
    e0,
    ex_function,
    from_classical_dmc,
    holevo_information,
    random_coding_exponent,
    sweep,
)
from helpers import classical_e0, classical_ex, classical_mi, random_channel, random_dmc, \
    random_unitary

TOL = 1e-12
CLASSICAL_TOL = 1e-10

seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def channels(draw):
    """A random channel with 2 to 4 full-rank states of dimension 2 or 3."""
    k, d = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    return random_channel(np.random.default_rng(draw(seeds)), k, d)


@st.composite
def dmcs(draw):
    """A random DMC with 2 to 4 inputs and outputs, all entries and inputs positive."""
    kx, ky = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    return random_dmc(np.random.default_rng(draw(seeds)), kx, ky)


@settings(max_examples=25)
@given(channels())
def test_random_coding_exponent_is_nonincreasing_and_convex_in_rate(channel):
    rates = np.linspace(0.0, 1.25 * holevo_information(channel), 41)
    curve = sweep(channel, rates)
    e_r = np.array([p.e_r for p in curve])
    assert np.all(np.diff(e_r) <= TOL)
    assert np.all(e_r[:-2] - 2.0 * e_r[1:-1] + e_r[2:] >= -TOL)  # uniform grid
    assert all(p.e_trc_lb >= p.e_r for p in curve)


@settings(max_examples=25)
@given(channels(), seeds)
def test_one_unitary_on_every_state_changes_no_exponent(channel, seed):
    u = random_unitary(np.random.default_rng(seed), channel.dim)
    rotated = CQChannel(tuple(DensityOperator(u @ s.matrix @ u.conj().T) for s in channel.states),
                        channel.q)
    s = np.linspace(0.0, 1.0, 11)
    assert np.max(np.abs(e0(rotated, s) - e0(channel, s))) <= TOL
    for r in (1.0, 2.5, 10.0):
        assert abs(ex_function(rotated, r) - ex_function(channel, r)) <= TOL
    for rate in (0.0, 0.5 * holevo_information(channel)):
        assert abs(random_coding_exponent(rotated, rate).value
                   - random_coding_exponent(channel, rate).value) <= TOL
    got, want = channel_thresholds(rotated), channel_thresholds(channel)
    for name, value in vars(got).items():
        assert abs(value - vars(want)[name]) <= TOL


@given(dmcs(), st.floats(0.0, 1.0), st.floats(1.0, 100.0))
def test_exponents_match_classical_formulas(dmc, s, r):
    w, q = dmc
    ch = from_classical_dmc(w, q)
    for tilt in (0.0, 0.25, 0.5, 1.0, s):
        assert abs(e0(ch, tilt) - classical_e0(w, q, tilt)) <= CLASSICAL_TOL
    for order in (1.0, 2.0, 4.0, r):
        assert abs(ex_function(ch, order) - classical_ex(w, q, order)) <= CLASSICAL_TOL
    assert abs(holevo_information(ch) - classical_mi(w, q)) <= CLASSICAL_TOL
