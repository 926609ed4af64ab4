"""Invariances of the square-root-measurement error under codebook and
channel symmetries (the orbit decoder relies on the message, column, letter-symmetry
and constant-column ones), and the Helstrom lower bound for two codewords, checked
through the public slow path (product_state -> pgm_povm -> error_probability)
on random qubit channels."""

import math

import numpy as np
from hypothesis import given, strategies as st

from cqexp import (
    CQChannel,
    Codebook,
    DensityOperator,
    error_probability,
    from_classical_dmc,
    helstrom_error,
    pgm_povm,
    product_state,
)
from cqexp.ensemble import _letter_symmetries
from helpers import pauli_channel, random_channel, random_unitary

TOL = 1e-12


def average_error(channel, words) -> float:
    words = np.asarray(words)
    book = Codebook(m=words.shape[0], n=words.shape[1], codewords=words,
                    provenance=("sampled", 0))
    povm = pgm_povm([product_state(channel, w) for w in book.codewords])
    return error_probability(channel, book, povm).average_error


@st.composite
def channels_and_codebooks(draw, ms=st.integers(2, 4)):
    """A random qubit channel (2 or 3 symbols) and an M x n codebook, M, n <= 4."""
    k = draw(st.integers(2, 3))
    channel = random_channel(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), k, 2)
    m, n = draw(ms), draw(st.integers(1, 4))
    words = draw(st.lists(st.lists(st.integers(0, k - 1), min_size=n, max_size=n),
                          min_size=m, max_size=m))
    return channel, np.array(words)


@given(channels_and_codebooks(), st.data())
def test_permuting_columns_keeps_the_error(case, data):
    channel, words = case
    perm = data.draw(st.permutations(range(words.shape[1])))
    assert abs(average_error(channel, words[:, perm]) - average_error(channel, words)) <= TOL


SYMMETRIC_CHANNELS = st.one_of(
    st.builds(pauli_channel, st.floats(0.5, 1.0), st.floats(-math.pi, math.pi)),
    st.builds(lambda p: from_classical_dmc([[1.0 - p, p], [p, 1.0 - p]], None),
              st.floats(0.0, 1.0)),  # a BSC
)


@given(SYMMETRIC_CHANNELS, st.data())
def test_a_letter_symmetry_on_one_column_keeps_the_error(channel, data):
    letters = np.array([s.matrix for s in channel.states])
    group = _letter_symmetries(letters)
    assert len(group) == 2 or np.array_equal(*letters)  # the swap, unless the letters are equal
    m, n = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 4))
    words = np.array(data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                                        min_size=m, max_size=m)))
    col, pi = data.draw(st.integers(0, n - 1)), data.draw(st.sampled_from(list(group)))
    moved = words.copy()
    moved[:, col] = pi[words[:, col]]
    assert abs(average_error(channel, moved) - average_error(channel, words)) <= TOL


@given(channels_and_codebooks(), st.data())
def test_permuting_messages_keeps_the_error(case, data):
    channel, words = case
    perm = data.draw(st.permutations(range(words.shape[0])))
    assert abs(average_error(channel, words[perm]) - average_error(channel, words)) <= TOL


@given(channels_and_codebooks(), st.data())
def test_constant_columns_drop_out(case, data):
    channel, words = case
    m, n = words.shape
    constant = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    words[:, constant] = words[0, constant]  # make the chosen columns constant
    pe = average_error(channel, words)
    varying = words[:, ~np.all(words == words[0], axis=0)]
    expected = 1.0 - 1.0 / m if varying.shape[1] == 0 else average_error(channel, varying)
    assert abs(pe - expected) <= TOL


@given(channels_and_codebooks(), st.integers(0, 2 ** 32 - 1))
def test_conjugating_every_state_by_one_unitary_keeps_the_error(case, seed):
    channel, words = case
    u = random_unitary(np.random.default_rng(seed), 2)
    rotated = CQChannel(tuple(DensityOperator(u @ s.matrix @ u.conj().T) for s in channel.states),
                        channel.q)
    assert abs(average_error(rotated, words) - average_error(channel, words)) <= TOL


@given(channels_and_codebooks(ms=st.just(2)))
def test_two_codeword_error_is_at_least_the_helstrom_error(case):
    channel, words = case
    first, second = (product_state(channel, w) for w in words)
    assert average_error(channel, words) >= helstrom_error(first, second) - TOL
