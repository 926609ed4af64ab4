"""Channel constructors, validation, Holevo information, input optimization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqexp import (
    CQChannel,
    ChannelValidationError,
    DensityOperator,
    InputDistribution,
    PauliChannelParams,
    average_state,
    binary_pauli,
    channel_from_config,
    channel_to_config,
    from_classical_dmc,
    holevo_information,
    optimize_input,
)
from helpers import binary_entropy, classical_mi, pauli_channel, random_channel, random_dmc


def test_input_distribution_uniform():
    q = InputDistribution.uniform(4)
    assert np.allclose(q.probabilities, 0.25)
    assert len(q) == 4


def test_input_distribution_validation():
    with pytest.raises(ValueError, match="sums to"):
        InputDistribution([0.6, 0.5])
    with pytest.raises(ValueError, match="negative"):
        InputDistribution([1.2, -0.2])
    with pytest.raises(ValueError, match="at least one"):
        InputDistribution([])


def test_non_finite_distributions_are_rejected():
    for q in ([math.nan, 1.0], [math.nan, math.nan], [math.inf, 0.0], [1.0, -math.inf]):
        with pytest.raises(ValueError, match="not finite"):
            InputDistribution(q)
    with pytest.raises(ValueError):
        from_classical_dmc([[math.nan, 1.0], [0.5, 0.5]], [0.5, 0.5])
    with pytest.raises(ValueError):
        channel_from_config({"kind": "classical", "w": [[0.9, math.nan], [0.1, 0.9]]})


def test_channel_valid_orthogonal():
    ch = CQChannel(
        (DensityOperator.from_pure([1, 0]), DensityOperator.from_pure([0, 1])),
        InputDistribution.uniform(2),
    )
    assert ch.alphabet_size == 2
    assert ch.dim == 2


def test_channel_accepts_raw_distribution():
    ch = CQChannel((DensityOperator.maximally_mixed(2),) * 2, [0.3, 0.7])
    assert np.allclose(ch.q.probabilities, [0.3, 0.7])


def test_channel_dimension_mismatch():
    states = (DensityOperator.maximally_mixed(2), DensityOperator.maximally_mixed(3))
    with pytest.raises(ChannelValidationError, match="mixed dimensions"):
        CQChannel(states, InputDistribution.uniform(2))


def test_channel_distribution_sum_error():
    states = (DensityOperator.maximally_mixed(2),) * 2
    with pytest.raises(ChannelValidationError, match="sums to"):
        CQChannel(states, [0.6, 0.5])


def test_channel_collects_multiple_problems():
    states = (DensityOperator.maximally_mixed(2), DensityOperator.maximally_mixed(3))
    with pytest.raises(ChannelValidationError) as err:
        CQChannel(states, [0.5, 0.25, 0.25])
    msg = str(err.value)
    assert "mixed dimensions" in msg
    assert "3 entries for 2 states" in msg


def test_channel_rejects_non_density_state():
    with pytest.raises(ChannelValidationError, match="not a DensityOperator"):
        CQChannel((np.eye(2) / 2,), InputDistribution.uniform(1))


def test_channel_rejects_a_state_that_is_not_psd():
    # hermitian with unit trace, so DensityOperator itself accepts it (its spectrum is lazy)
    bad = DensityOperator(np.diag([1.5, -0.5]))
    with pytest.raises(ChannelValidationError, match="state 0: .*not positive semidefinite"):
        CQChannel((bad, DensityOperator.maximally_mixed(2)), None)
    doc = {"kind": "generic",
           "states": [{"re": [[1.5, 0], [0, -0.5]]}, {"re": [[0.5, 0], [0, 0.5]]}]}
    with pytest.raises(ChannelValidationError, match="state 0: .*not positive semidefinite"):
        channel_from_config(doc)


def test_pauli_params_range():
    with pytest.raises(ValueError, match="purity"):
        PauliChannelParams(mu=0.4, theta=0.0)
    with pytest.raises(ValueError, match="purity"):
        PauliChannelParams(mu=1.1, theta=0.0)
    assert PauliChannelParams(mu=0.95, theta=0.0).bloch_length == pytest.approx(math.sqrt(0.9))


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_pauli_params_refuse_a_non_finite_angle(theta):
    with pytest.raises(ValueError, match="theta must be finite"):
        PauliChannelParams(mu=0.95, theta=theta)


def test_binary_pauli_eigenvalues():
    ch = pauli_channel(0.95)
    a = math.sqrt(0.9)
    for state in ch.states:
        assert state.eigenvalues[0] == pytest.approx((1 + a) / 2, abs=1e-12)
        assert state.eigenvalues[1] == pytest.approx((1 - a) / 2, abs=1e-12)
    assert np.allclose(ch.q.probabilities, 0.5)


def test_binary_pauli_orthogonal_limit():
    ch = binary_pauli(PauliChannelParams(mu=1.0, theta=0.0))
    assert np.allclose(ch.states[0].matrix, np.diag([1.0, 0.0]))
    assert np.allclose(ch.states[1].matrix, np.diag([0.0, 1.0]))


def test_binary_pauli_fully_mixed_limit():
    ch = binary_pauli(PauliChannelParams(mu=0.5, theta=1.0))
    for state in ch.states:
        assert np.allclose(state.matrix, np.eye(2) / 2)


def test_binary_pauli_purity():
    # Tr{sigma^2} must equal mu at any angle
    for mu in (0.5, 0.6, 0.75, 0.9, 0.95, 1.0):
        for theta in (0.0, math.pi / 6, math.pi / 3):
            ch = binary_pauli(PauliChannelParams(mu=mu, theta=theta))
            for s in ch.states:
                purity = float(np.trace(s.matrix @ s.matrix).real)
                assert abs(purity - mu) < 1e-12


def test_binary_pauli_average_state():
    # the z components cancel, leaving Bloch vector (A sin(theta), 0, 0)
    ch = pauli_channel(0.95)
    avg = average_state(ch)
    a = math.sqrt(0.9)
    expected = 0.5 * np.array([[1.0, a / 2], [a / 2, 1.0]])
    assert np.max(np.abs(avg.matrix - expected)) < 1e-12
    assert 2 * avg.matrix[0, 1].real == pytest.approx(0.47434, abs=1e-5)


def test_from_classical_dmc_states_are_diagonal():
    w = np.array([[0.9, 0.1], [0.2, 0.8]])
    ch = from_classical_dmc(w, [0.5, 0.5])
    assert np.allclose(ch.states[0].matrix, np.diag([0.9, 0.1]))
    assert np.allclose(ch.states[1].matrix, np.diag([0.2, 0.8]))


def test_from_classical_dmc_validation():
    with pytest.raises(ValueError, match="row 1"):
        from_classical_dmc([[0.5, 0.5], [0.6, 0.5]], [0.5, 0.5])
    with pytest.raises(ValueError, match="negative"):
        from_classical_dmc([[1.1, -0.1], [0.5, 0.5]], [0.5, 0.5])


def test_average_state_orthogonal():
    ch = binary_pauli(PauliChannelParams(mu=1.0, theta=0.0))
    assert np.allclose(average_state(ch).matrix, np.eye(2) / 2)


def test_holevo_identical_states_is_zero():
    ch = CQChannel((DensityOperator.maximally_mixed(2),) * 2, InputDistribution.uniform(2))
    assert holevo_information(ch) == 0.0


def test_holevo_orthogonal_pure_is_one_bit():
    ch = binary_pauli(PauliChannelParams(mu=1.0, theta=0.0))
    assert holevo_information(ch) == pytest.approx(1.0, abs=1e-12)


def test_holevo_pauli_anchor():
    assert holevo_information(pauli_channel(0.95)) == pytest.approx(0.659, abs=0.005)


def test_holevo_matches_classical_mutual_information():
    rng = np.random.default_rng(41)
    for _ in range(10):
        w, q = random_dmc(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        ch = from_classical_dmc(w, q)
        assert abs(holevo_information(ch) - classical_mi(w, q)) < 1e-10


def test_optimize_input_symmetric_binary():
    ch = pauli_channel(0.95)
    q_opt, value = optimize_input(ch)
    # grid-search oracle over Q(0)
    grid = np.linspace(0.0, 1.0, 101)
    vals = [holevo_information(CQChannel(ch.states, [t, 1 - t])) for t in grid]
    assert value >= max(vals) - 1e-9
    assert q_opt.probabilities[0] == pytest.approx(0.5, abs=1e-3)


def test_optimize_input_bsc_anchor():
    ch = from_classical_dmc([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5])
    _, value = optimize_input(ch)
    assert value == pytest.approx(1.0 - binary_entropy(0.1), abs=1e-6)
    assert value == pytest.approx(0.5310, abs=1e-4)


def test_optimize_input_never_below_uniform():
    rng = np.random.default_rng(43)
    for k in (2, 3, 4):
        w, _ = random_dmc(rng, k, 3)
        ch = from_classical_dmc(w, InputDistribution.uniform(k))
        _, value = optimize_input(ch)
        assert value >= holevo_information(ch) - 1e-9


def test_optimize_input_identical_states():
    ch = CQChannel((DensityOperator.maximally_mixed(2),) * 3, InputDistribution.uniform(3))
    _, value = optimize_input(ch)
    assert value == pytest.approx(0.0, abs=1e-9)


def test_optimize_input_single_symbol():
    ch = CQChannel((DensityOperator.maximally_mixed(2),), [1.0])
    q_opt, value = optimize_input(ch)
    assert q_opt.probabilities.tolist() == [1.0]
    assert value == 0.0


def test_optimize_input_z_channel_closed_form():
    _, value = optimize_input(from_classical_dmc([[1.0, 0.0], [0.3, 0.7]], None))
    assert abs(value - math.log2(1.0 + 0.7 * 0.3 ** (3.0 / 7.0))) < 1e-6


def test_optimize_input_beats_a_simplex_grid():
    w, _ = random_dmc(np.random.default_rng(44), 3, 3)
    _, value = optimize_input(from_classical_dmc(w, None))
    ticks = np.linspace(0.0, 1.0, 121)
    best = max(classical_mi(w, [a, b, max(0.0, 1.0 - a - b)])
               for a in ticks for b in ticks if a + b <= 1.0 + 1e-12)
    assert value >= best - 1e-6


@settings(max_examples=25)
@given(st.integers(2, 5), st.integers(2, 3), st.integers(0, 2 ** 32 - 1))
def test_optimize_input_never_below_uniform_on_random_channels(k, d, seed):
    ch = random_channel(np.random.default_rng(seed), k, d)
    q_opt, value = optimize_input(ch)
    assert value >= holevo_information(CQChannel(ch.states, None)) - 1e-12
    assert value == holevo_information(CQChannel(ch.states, q_opt))


def test_optimize_input_accepts_nine_symbols():
    w, _ = random_dmc(np.random.default_rng(45), 9, 3)
    q_opt, value = optimize_input(from_classical_dmc(w, None))
    q = q_opt.probabilities
    assert value >= classical_mi(w, np.full(9, 1.0 / 9)) - 1e-12
    # classical capacity gap at the returned Q: max_x D(W(.|x) || QW) - I(Q)
    divergences = (w * np.log2(w / (q @ w))).sum(axis=1)
    assert divergences.max() - classical_mi(w, q) < 1e-6


def test_config_pauli():
    ch = channel_from_config({"kind": "pauli", "mu": 0.95, "theta": math.pi / 6})
    assert holevo_information(ch) == pytest.approx(0.659, abs=0.005)


def test_config_pauli_default_theta():
    a = channel_from_config({"kind": "pauli", "mu": 0.9})
    b = pauli_channel(0.9)
    assert np.allclose(a.states[0].matrix, b.states[0].matrix)


def test_config_classical():
    ch = channel_from_config({"kind": "classical", "w": [[0.9, 0.1], [0.1, 0.9]]})
    assert np.allclose(ch.q.probabilities, 0.5)


@pytest.mark.parametrize("kind", ["pauli", "classical", "generic"])
@pytest.mark.parametrize("q", ["omitted", None])
def test_config_default_distribution_is_uniform(kind, q):
    docs = {
        "pauli": {"kind": "pauli", "mu": 0.9},
        "classical": {"kind": "classical", "w": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1],
                                                  [0.1, 0.1, 0.8]]},
        "generic": channel_to_config(pauli_channel(0.9)),
    }
    doc = dict(docs[kind])
    doc.pop("q", None)
    if q is None:
        doc["q"] = None
    ch = channel_from_config(doc)
    k = ch.alphabet_size
    assert np.array_equal(ch.q.probabilities, InputDistribution.uniform(k).probabilities)


def test_config_bad_distribution_is_a_channel_error():
    for doc in ({"kind": "pauli", "mu": 0.9, "q": [0.2, 0.9]},
                {"kind": "classical", "w": [[1.0, 0.0], [0.0, 1.0]], "q": [0.2, 0.9]},
                {**channel_to_config(pauli_channel(0.9)), "q": [0.2, 0.9]}):
        with pytest.raises(ChannelValidationError, match="sums to 1.1"):
            channel_from_config(doc)


def test_config_generic_round_trip():
    original = pauli_channel(0.9)
    doc = channel_to_config(original)
    rebuilt = channel_from_config(doc)
    for a, b in zip(original.states, rebuilt.states):
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-15
    assert np.allclose(original.q.probabilities, rebuilt.q.probabilities)


def test_config_unknown_kind():
    with pytest.raises(ValueError, match="unknown channel kind"):
        channel_from_config({"kind": "nope"})


def test_config_generic_collects_state_problems():
    doc = {
        "kind": "generic",
        "states": [
            {"re": [[1.0, 0.0], [0.0, 1.0]]},          # trace 2
            {"re": [[0.5, 0.5], [0.0, 0.5]]},          # not Hermitian
        ],
        "q": [0.5, 0.5],
    }
    with pytest.raises(ChannelValidationError) as err:
        channel_from_config(doc)
    msg = str(err.value)
    assert "state 0" in msg
    assert "state 1" in msg
