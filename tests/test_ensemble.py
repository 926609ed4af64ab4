"""Finite-blocklength ensemble runs: codebooks, decoding, bound verdicts."""

import collections
import itertools
import json
import math
import pathlib
import re
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cqexp import (
    BoundCheck,
    CQChannel,
    Codebook,
    DensityOperator,
    EnsembleReport,
    InputDistribution,
    PauliChannelParams,
    binary_pauli,
    channel_from_config,
    e0,
    enumerate_codebooks,
    error_probability,
    from_classical_dmc,
    helstrom_error,
    optimal_tilt_estimate,
    pgm_povm,
    product_state,
    random_coding_exponent,
    run_ensemble,
    sample_codebook,
    verify_markov_bound,
)
from cqexp.ensemble import (
    DECODE_CHUNK_BYTES,
    _codeword_chunks,
    _decode_ensemble,
    _entropy,
    _letter_symmetries,
    _orbit_members,
    _pgm_hits,
    _rc_mean_bound,
    _seed_states,
    _uniforms,
)
from helpers import (
    char_poly_eigs_2x2,
    pauli_channel,
    product_codebooks,
    random_channel,
    random_density,
    tracemalloc_peaks,
)


def orthogonal_channel():
    return binary_pauli(PauliChannelParams(mu=1.0, theta=0.0))


def identical_channel(k=2):
    return CQChannel((DensityOperator.maximally_mixed(2),) * k, InputDistribution.uniform(k))


def biased_channel(q0, q1):
    params = PauliChannelParams(mu=0.9, theta=math.pi / 6)
    return binary_pauli(params, q=InputDistribution((q0, q1)))


def pair_channel(a, b):
    return CQChannel((a, b), InputDistribution.uniform(2))


# --- codebooks ---------------------------------------------------------------


def test_codebook_shape_validation():
    Codebook(m=2, n=3, codewords=np.zeros((2, 3), dtype=int), provenance=("sampled", 0))
    with pytest.raises(ValueError, match="shape"):
        Codebook(m=2, n=3, codewords=np.zeros((3, 2), dtype=int), provenance=("sampled", 0))


def test_codebook_words_are_read_only():
    book = Codebook(m=2, n=2, codewords=np.zeros((2, 2), dtype=int),
                    provenance=("sampled", 0))
    with pytest.raises(ValueError):
        book.codewords[0, 0] = 1


def test_codebook_leaves_the_callers_array_writable():
    words = np.zeros((2, 2), dtype=np.int64)
    book = Codebook(m=2, n=2, codewords=words, provenance=("sampled", 0))
    assert words.flags.writeable
    words[0, 0] = 1
    assert book.codewords[0, 0] == 0


@pytest.mark.parametrize("bad", [[[0.7, 1.2], [1.9, 0.0]], [[0.0, 1.0], [1.0, math.nan]],
                                 [[0.0, 1.0], [math.inf, 0.0]]])
def test_codebook_refuses_non_integral_symbols(bad):
    with pytest.raises(ValueError, match="must be integers"):
        Codebook(m=2, n=2, codewords=bad, provenance=("sampled", 0))
    book = Codebook(m=2, n=2, codewords=[[0.0, 1.0], [1.0, 0.0]], provenance=("sampled", 0))
    assert book.codewords.dtype == np.int64  # integral floats are accepted
    assert book.codewords.tolist() == [[0, 1], [1, 0]]


def test_sample_codebook_deterministic():
    ch = pauli_channel(0.9)
    a = sample_codebook(ch, 4, 5, seed=123)
    b = sample_codebook(ch, 4, 5, seed=123)
    c = sample_codebook(ch, 4, 5, seed=124)
    assert np.array_equal(a.codewords, b.codewords)
    assert not np.array_equal(a.codewords, c.codewords)
    assert a.provenance == ("sampled", 123)


def test_sample_codebook_validation():
    ch = pauli_channel(0.9)
    with pytest.raises(ValueError, match="'m' must be an integer >= 2"):
        sample_codebook(ch, 1, 4, seed=0)
    with pytest.raises(ValueError, match="cap"):
        sample_codebook(ch, 2, 13, seed=0)  # 2**13 > 4096
    sample_codebook(ch, 2, 12, seed=0)  # 2**12 == 4096 is allowed
    with pytest.raises(ValueError, match="'n' must be an integer >= 1"):
        sample_codebook(ch, 2, 0, seed=0)


def test_sample_codebook_deterministic_input_distribution():
    ch = biased_channel(1.0, 0.0)
    book = sample_codebook(ch, 3, 6, seed=5)
    assert np.all(book.codewords == 0)


def test_sample_codebook_symbol_frequencies():
    ch = biased_channel(0.25, 0.75)
    book = sample_codebook(ch, 50, 10, seed=17)
    frac_ones = book.codewords.mean()
    assert abs(frac_ones - 0.75) < 0.1  # 5 sigma for 500 draws


def test_enumerate_codebooks_small():
    ch = biased_channel(0.3, 0.7)
    pairs = list(enumerate_codebooks(ch, 2, 1))
    assert len(pairs) == 4
    q = [0.3, 0.7]
    for book, prob in pairs:
        w = book.codewords
        assert prob == pytest.approx(q[w[0, 0]] * q[w[1, 0]], abs=1e-15)
        assert book.provenance[0] == "enumerated"


def test_enumerate_codebooks_probabilities_sum_to_one():
    ch = biased_channel(0.2, 0.8)
    pairs = list(enumerate_codebooks(ch, 2, 2))
    assert len(pairs) == 16
    assert sum(p for _, p in pairs) == pytest.approx(1.0, abs=1e-12)


def test_exhaustive_mode_needs_two_codewords():
    ch = pauli_channel(0.9)
    with pytest.raises(ValueError, match="'m' must be an integer >= 2"):
        next(enumerate_codebooks(ch, 1, 2))
    with pytest.raises(ValueError, match="'m' must be an integer >= 2"):
        run_ensemble(ch, 1, 2, exhaustive=True)


@pytest.mark.parametrize("call", [
    lambda ch: run_ensemble(ch, 2, 10 ** 30, trials=5),
    lambda ch: run_ensemble(ch, 2, 10 ** 30, exhaustive=True),
    lambda ch: sample_codebook(ch, 2, 10 ** 30, 0),
    lambda ch: next(enumerate_codebooks(ch, 10 ** 12, 1)),
], ids=["monte-carlo-n", "exhaustive-n", "sample-n", "enumerate-m"])
def test_a_huge_size_is_refused_without_building_its_power(call):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds the cap"):
        call(pauli_channel(0.9))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("bad", [2.5, math.nan, True, np.float64(3.0), None],
                         ids=["fraction", "nan", "bool", "numpy-float", "none"])
def test_a_count_that_is_not_an_integer_is_refused(monkeypatch, bad):
    monkeypatch.setattr("cqexp.ensemble._pgm_hits",
                        lambda states: pytest.fail("a codebook was decoded before the refusal"))
    ch = pauli_channel(0.9)
    calls = [
        ("'m' must be an integer >= 2", lambda: run_ensemble(ch, bad, 3, trials=10)),
        ("'m' must be an integer >= 2", lambda: run_ensemble(ch, bad, 2, exhaustive=True)),
        ("'m' must be an integer >= 2", lambda: sample_codebook(ch, bad, 3, 0)),
        ("'m' must be an integer >= 2", lambda: next(enumerate_codebooks(ch, bad, 2))),
        ("'n' must be an integer >= 1", lambda: run_ensemble(ch, 2, bad, trials=10)),
        ("'n' must be an integer >= 1", lambda: run_ensemble(ch, 2, bad, exhaustive=True)),
        ("'n' must be an integer >= 1", lambda: sample_codebook(ch, 2, bad, 0)),
        ("'n' must be an integer >= 1", lambda: next(enumerate_codebooks(ch, 2, bad))),
        ("'trials' must be an integer >= 2", lambda: run_ensemble(ch, 2, 3, trials=bad)),
        ("message count must be a positive integer",
         lambda: optimal_tilt_estimate(ch, bad, 8, 2.0)),
        ("block length must be a positive integer",
         lambda: optimal_tilt_estimate(ch, 4, bad, 2.0)),
    ]
    for rule, call in calls:
        with pytest.raises(ValueError, match=f"{re.escape(rule)}.*, got {re.escape(repr(bad))}$"):
            call()


def channel_with_q(q):
    rng = np.random.default_rng(len(q))
    return CQChannel(tuple(random_density(rng, 2) for _ in q), InputDistribution(q))


@pytest.mark.parametrize("q, m, n", [
    ((0.3, 0.7), 2, 1),
    ((0.3, 0.7), 4, 3),
    ((0.1, 0.2, 0.7), 2, 2),
    ((0.1, 0.2, 0.7), 2, 3),
    ((0.0, 0.35, 0.65), 2, 2),  # weight-0 codebooks stay enumerated
    ((0.1, 0.15, 0.2, 0.25, 0.3), 2, 2),
])
def test_enumeration_equals_the_itertools_oracle(q, m, n):
    ch = channel_with_q(np.array(q))
    oracle = list(product_codebooks(ch, m, n))
    pairs = list(enumerate_codebooks(ch, m, n))
    assert len(pairs) == len(oracle) == len(q) ** (m * n)
    for (book, prob), (want, want_prob) in zip(pairs, oracle):
        assert np.array_equal(book.codewords, want.codewords)
        assert book.provenance == want.provenance
        assert type(prob) is float and prob == want_prob
    oracle_weights = np.array([prob for _, prob in oracle])
    assert bool((oracle_weights == 0.0).any()) is (0.0 in q)
    if ch.dim ** n * m <= 64:
        weights, _ = _decode_ensemble(ch, m, n)
        assert np.array_equal(weights, oracle_weights)
    for chunk in (1, 7, len(oracle)):
        words, weights = map(np.concatenate, zip(*_codeword_chunks(ch, m, n, chunk)))
        assert words.dtype == np.int64
        assert np.array_equal(words, [book.codewords for book, _ in oracle])
        assert np.array_equal(weights, oracle_weights)


def test_enumerate_codebooks_cap():
    ch = pauli_channel(0.9)
    with pytest.raises(ValueError, match="cap"):
        next(enumerate_codebooks(ch, 3, 7))  # 2**21 books


# --- product states ----------------------------------------------------------


def test_product_state_single_symbol():
    ch = pauli_channel(0.95)
    st = product_state(ch, [1])
    assert np.allclose(st.matrix, ch.states[1].matrix, atol=1e-15)


def test_product_state_kron_order():
    ch = pauli_channel(0.95)
    st = product_state(ch, [0, 1])
    expected = np.kron(ch.states[0].matrix, ch.states[1].matrix)
    assert np.allclose(st.matrix, expected, atol=1e-15)
    assert st.dim == 4
    assert np.trace(st.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_product_state_validation():
    ch = pauli_channel(0.95)
    with pytest.raises(ValueError, match="empty"):
        product_state(ch, [])
    with pytest.raises(ValueError, match="must be integers"):
        product_state(ch, [0.7, 1.9])  # not truncated to [0, 1]
    assert np.array_equal(product_state(ch, [0.0, 1.0]).matrix, product_state(ch, [0, 1]).matrix)
    with pytest.raises(ValueError, match="symbols"):
        product_state(ch, [0, 2])
    with pytest.raises(ValueError, match="cap"):
        product_state(ch, [0] * 13)
    with pytest.raises(ValueError, match=r"one row of symbols, got shape \(2, 2\)"):
        product_state(ch, [[0, 1], [1, 0]])  # a codebook, not one word of four symbols
    with pytest.raises(ValueError, match=r"one row of symbols, got shape \(\)"):
        product_state(ch, 1)  # a scalar, not the word [1]


# --- square-root measurement -------------------------------------------------


def test_pgm_orthogonal_states_decode_perfectly():
    ch = orthogonal_channel()
    book = Codebook(m=2, n=1, codewords=np.array([[0], [1]]), provenance=("sampled", 0))
    states = [product_state(ch, w) for w in book.codewords]
    povm = pgm_povm(states)
    for elem, st in zip(povm, states):
        assert np.allclose(elem, st.matrix, atol=1e-10)
    res = error_probability(ch, book, povm)
    assert res.average_error < 1e-10


@pytest.mark.parametrize("m", [2, 3, 4])
def test_pgm_identical_states_error(m):
    ch = identical_channel(m)
    book = Codebook(m=m, n=1, codewords=np.arange(m).reshape(m, 1),
                    provenance=("sampled", 0))
    states = [product_state(ch, w) for w in book.codewords]
    res = error_probability(ch, book, pgm_povm(states))
    assert np.allclose(res.per_message_error, 1.0 - 1.0 / m, atol=1e-12)


def test_pgm_completeness_and_positivity():
    rng = np.random.default_rng(71)
    states = [random_density(rng, 4) for _ in range(3)]
    povm = pgm_povm(states)
    total = sum(povm)
    # full-rank states: the support projector is the identity
    assert np.allclose(total, np.eye(4), atol=1e-9)
    for elem in povm:
        assert np.allclose(elem, elem.conj().T, atol=1e-10)
        assert np.linalg.eigvalsh(elem).min() > -1e-10


def test_pgm_validation():
    with pytest.raises(ValueError, match="at least one"):
        pgm_povm([])
    with pytest.raises(ValueError, match="mixed dimensions"):
        pgm_povm([np.eye(2) / 2, np.eye(3) / 3])


def test_error_probability_povm_count_mismatch():
    ch = pauli_channel(0.95)
    book = Codebook(m=2, n=1, codewords=np.array([[0], [1]]), provenance=("sampled", 0))
    states = [product_state(ch, w) for w in book.codewords]
    povm = pgm_povm(states)
    with pytest.raises(ValueError, match="POVM"):
        error_probability(ch, book, povm + [np.eye(2)])
    with pytest.raises(ValueError, match="POVM element dimension"):
        error_probability(ch, book, [np.eye(4), np.eye(4)])


def test_error_probability_duplicate_codewords():
    # two copies of the same word are indistinguishable: each errs exactly 1/2
    ch = pauli_channel(0.95)
    book = Codebook(m=2, n=1, codewords=np.array([[0], [0]]), provenance=("sampled", 0))
    states = [product_state(ch, w) for w in book.codewords]
    res = error_probability(ch, book, pgm_povm(states))
    assert res.average_error == pytest.approx(0.5, abs=1e-12)


# --- two-state oracle --------------------------------------------------------


def test_helstrom_extremes():
    mm = DensityOperator.maximally_mixed(2)
    assert helstrom_error(mm, mm) == pytest.approx(0.5, abs=1e-15)
    a = DensityOperator.from_pure([1.0, 0.0])
    b = DensityOperator.from_pure([0.0, 1.0])
    assert helstrom_error(a, b) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError, match="dimensions"):
        helstrom_error(mm, DensityOperator.maximally_mixed(3))


def test_helstrom_matches_characteristic_polynomial():
    rng = np.random.default_rng(73)
    for _ in range(50):
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        lam = char_poly_eigs_2x2(a.matrix - b.matrix)
        expected = 0.5 * (1.0 - 0.5 * sum(abs(x) for x in lam))
        assert helstrom_error(a, b) == pytest.approx(expected, abs=1e-10)


def test_pgm_never_beats_helstrom():
    rng = np.random.default_rng(79)
    book = Codebook(m=2, n=1, codewords=np.array([[0], [1]]), provenance=("sampled", 0))
    for _ in range(100):
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        ch = pair_channel(a, b)
        states = [product_state(ch, w) for w in book.codewords]
        res = error_probability(ch, book, pgm_povm(states))
        assert res.average_error >= helstrom_error(a, b) - 1e-10


# --- ensemble runs -----------------------------------------------------------


def test_run_ensemble_exhaustive_passes():
    report = run_ensemble(pauli_channel(0.95), 2, 2, exhaustive=True)
    assert report.exhaustive
    assert report.trials is None and report.seed is None
    assert report.decoder == "pgm"
    assert 0.0 < report.mean_pe < 1.0
    names = [c.verdict for c in report.bound_checks]
    assert names and all(v == "PASS" for v in names)
    assert report.all_passed
    assert {c.name for c in report.bound_checks} == {
        "mean_error_bound", "tilted_mean_bound_r1",
        "tilted_mean_bound_r2", "tilted_mean_bound_r4",
    }
    assert report.tilted_means[1.0] == pytest.approx(report.mean_pe, abs=1e-15)
    assert len(report.exponent_samples) == 16


def assert_same_report(a, b):
    """Equal structure, strings and flags; floats within 1e-12."""
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_same_report(a[key], b[key])
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_report(x, y)
    elif isinstance(a, float):
        assert isinstance(b, float) and b == pytest.approx(a, rel=0, abs=1e-12)
    else:
        assert a == b


SWAP = np.array([[0, 1], [1, 0]])  # the letter symmetries of every pauli channel and BSC


def orbit_key(words, group=None) -> tuple:
    """A codebook's orbit under message and position permutations and, given a group of
    alphabet permutations (one per row), its letter symmetries on any column: its least
    column-sorted form over every message order, each column at its least image under
    the group (brute force, small M only)."""
    image = tuple if group is None else (lambda col: min(tuple(g[col]) for g in group))
    return min(tuple(sorted(map(image, words[list(rows)].T)))
               for rows in itertools.permutations(range(len(words))))


def varying_columns(words) -> np.ndarray:
    return words[:, ~np.all(words == words[0], axis=0)]


def block_dims(member, d) -> list[int]:
    """Dimensions of the distinct block problems of an orbit member (its varying columns, as
    orbit_key gives them): c equal columns make c // 2 pairs, and q pairs of one column give
    q + 1 distinct blocks, s of the pairs on the symmetric d(d+1)/2 vectors and q - s on the
    antisymmetric d(d-1)/2; a column left over is a d-dimensional factor."""
    dims = [1]
    for c in collections.Counter(member).values():
        dims = [x * (d * (d + 1) // 2) ** s * (d * (d - 1) // 2) ** (c // 2 - s) * d ** (c % 2)
                for x in dims for s in range(c // 2 + 1)]
    return dims


def test_decoding_builds_each_product_state_once(monkeypatch):
    ch, m, n = pauli_channel(0.95), 2, 3
    words, decoded = [], []

    def counting_product_state(channel, codeword):
        words.append(tuple(codeword))
        return product_state(channel, codeword)

    def recording_pgm_hits(states):
        decoded.extend(states)
        return _pgm_hits(states)

    monkeypatch.setattr("cqexp.ensemble.product_state", counting_product_state)
    monkeypatch.setattr("cqexp.ensemble._pgm_hits", recording_pgm_hits)
    report = run_ensemble(ch, m, n, exhaustive=True, gamma=4.0)
    assert words == []  # products come from the channel's validated matrices
    books = [book.codewords for book, _ in enumerate_codebooks(ch, m, n)]
    orbits = {orbit_key(varying_columns(w), SWAP) for w in books if varying_columns(w).size}
    # up to the letter swap every varying column of an M = 2 book is (0, 1), so the orbits
    # are 1, 2 and 3 equal columns: a 2-dimensional problem; the symmetric and antisymmetric
    # blocks of a pair (3 and 1); and the same beside a single column (6 and 2).  Each distinct
    # block problem is decoded once; the 8 all-constant codebooks are not decoded
    assert sorted(len(states[0]) for states in decoded) == [1, 2, 2, 3, 6]
    assert sorted(sum((block_dims(orbit, 2) for orbit in orbits), [])) == [1, 2, 2, 3, 6]
    assert len({states.tobytes() for states in decoded}) == len(decoded)
    # the blocks of a member hold the whole trace of its states: over the three members, each
    # message's traces add to 3
    traces = sum(np.trace(states, axis1=1, axis2=2).real for states in decoded)
    np.testing.assert_allclose(traces, [3.0, 3.0], rtol=0, atol=1e-14)
    monkeypatch.undo()

    def slow_decode(channel, m, n, **_):
        pairs = list(enumerate_codebooks(channel, m, n))
        pes = [error_probability(channel, book, pgm_povm(
            [product_state(channel, w) for w in book.codewords])).average_error
            for book, _ in pairs]
        return np.array([weight for _, weight in pairs]), np.array(pes)

    monkeypatch.setattr("cqexp.ensemble._decode_ensemble", slow_decode)
    slow = run_ensemble(ch, m, n, exhaustive=True, gamma=4.0)
    assert_same_report(slow.to_json_dict(), report.to_json_dict())


def test_each_column_histogram_is_mapped_once(monkeypatch):
    # P_e depends on a codebook only through its column histogram (its columns sorted), so
    # the orbit map sees each distinct histogram once, and books that share one share P_e
    mapped = []

    def recording_orbit_members(words, group):
        mapped.append(len(words))
        return _orbit_members(words, group)

    monkeypatch.setattr("cqexp.ensemble._orbit_members", recording_orbit_members)
    bsc = channel_from_config(json.loads((CONFIGS / "bsc_p010.json").read_text()))
    run_ensemble(bsc, 3, 3, exhaustive=True, gamma=16.0)  # the 512 codebooks of exact-markov
    assert sum(mapped) == math.comb(8 + 2, 3)  # 3 columns from 8 column types: 120
    ch, m, n = pauli_channel(0.95), 2, 6
    mapped.clear()
    _, pes = _decode_ensemble(ch, m, n)
    values = {}
    for (book, _), pe in zip(product_codebooks(ch, m, n), pes):
        values.setdefault(tuple(sorted(map(tuple, book.codewords.T))), set()).add(pe)
    assert sum(mapped) == len(values) < 2 ** (m * n)
    assert all(len(pe) == 1 for pe in values.values())  # bit-identical on a histogram


def letters_of(channel) -> np.ndarray:
    return np.array([s.matrix for s in channel.states])


def pure_channel(seed=4, k=2, d=2):
    rng = np.random.default_rng(seed)
    return CQChannel(tuple(DensityOperator.from_pure(rng.normal(size=d) + 1j * rng.normal(size=d))
                           for _ in range(k)), None)


PAULI_095, PAULI_1 = pauli_channel(0.95), pauli_channel(1.0)


@pytest.mark.parametrize("exhaustive", [True, False])
@pytest.mark.parametrize("ch, m, n, deficient", [
    (random_channel(np.random.default_rng(2), 3, 2), 2, 2, False),
    # M < d**n pure products: every state sum is rank deficient (the SUPPORT_TOL branch)
    (pure_channel(), 3, 2, True),
    pytest.param(random_channel(np.random.default_rng(2), 3, 2), 3, 2, False,
                 id="complex-3-letter"),
    pytest.param(random_channel(np.random.default_rng(6), 3, 3), 2, 2, False,
                 id="complex-3-letter-qutrit"),
    pytest.param(PAULI_095, 3, 2, False, id="pauli-0.95"),
    pytest.param(PAULI_1, 4, 2, False, id="pauli-1"),  # rank-one letters
])
def test_decoder_equals_public_slow_path(ch, m, n, deficient, exhaustive):
    trials, seed = 30, 5
    weights, pes = _decode_ensemble(ch, m, n, exhaustive=exhaustive, trials=trials, seed=seed)
    if exhaustive:
        pairs = list(enumerate_codebooks(ch, m, n))
    else:
        sub_seeds = np.random.SeedSequence(seed).generate_state(trials)
        pairs = [(sample_codebook(ch, m, n, int(s)), 1.0 / trials) for s in sub_seeds]
    expected = [error_probability(ch, book, pgm_povm(
        [product_state(ch, w) for w in book.codewords])).average_error for book, _ in pairs]
    assert np.array_equal(weights, [weight for _, weight in pairs])
    np.testing.assert_allclose(pes, expected, rtol=0, atol=1e-12)
    ranks = [np.linalg.matrix_rank(sum(product_state(ch, w).matrix for w in book.codewords))
             for book, _ in pairs]
    assert all(rank < ch.dim ** n for rank in ranks) is deficient
    words = [book.codewords for book, _ in pairs]
    assert any(len(np.unique(w, axis=0)) < m for w in words)  # repeated codewords
    assert any(not varying_columns(w).size for w in words)  # all-constant codebooks
    group = SWAP if ch in (PAULI_095, PAULI_1) else None  # the letter swap, else none
    want = np.arange(ch.alphabet_size)[None] if group is None else group
    assert np.array_equal(_letter_symmetries(letters_of(ch)), want)
    values = {}
    for w, pe in zip(words, pes):
        values.setdefault(orbit_key(w, group), []).append(pe)
    assert max(map(len, values.values())) > 1
    assert all(len(set(pe)) == 1 for pe in values.values())  # bit-identical on an orbit


def decode_books(monkeypatch, ch, books) -> np.ndarray:
    """P_e of each given (M, n) codebook by the fast decoder, which sees them as one chunk."""
    books = np.array(books)
    with monkeypatch.context() as patch:
        patch.setattr("cqexp.ensemble._codeword_chunks",
                      lambda *_: iter([(books, np.full(len(books), 1.0 / len(books)))]))
        return _decode_ensemble(ch, books.shape[1], books.shape[2], exhaustive=False,
                                trials=len(books))[1]  # not enumerated: not priced as such


def oracle_errors(ch, books) -> list[float]:
    return [error_probability(ch, Codebook(m=len(w), n=len(w[0]), codewords=w,
                                           provenance=("sampled", 0)),
                              pgm_povm([product_state(ch, x) for x in w])).average_error
            for w in map(np.array, books)]


def from_columns(*columns) -> np.ndarray:
    return np.array(columns).T


# six of the 7 column types of 4 messages up to the letter swap, two of them given as their
# swapped images; the swap maps (1, 1, 0, 0) to A
A, OTHERS = (0, 0, 1, 1), [(0, 1, 0, 1), (0, 1, 1, 0), (0, 0, 0, 1), (1, 0, 1, 1), (1, 1, 0, 1)]
QUTRIT_LETTERS = random_channel(np.random.default_rng(6), 3, 3)  # complex, no letter symmetry


@pytest.mark.parametrize("ch, books", [
    *[pytest.param(PAULI_095, [from_columns(*[A] * (c - 1), (1, 1, 0, 0), *OTHERS[:7 - c]),
                               from_columns(*OTHERS[:7 - c], *[A] * c),
                               from_columns(*[A] * c, (1, 1, 1, 1), *OTHERS[:6 - c])],
                   id=f"run-of-{c}") for c in (2, 3, 4, 5)],
    # two runs of two and a single column; the antisymmetric qubit block is 1 x 1
    pytest.param(PAULI_095, [from_columns(A, A, (0, 1, 0, 1), (1, 0, 1, 0), (0, 0, 0, 1))],
                 id="two-pairs"),
    # qutrit pairs split into blocks of 6 and 3; four equal columns are two pairs whose
    # (symmetric, antisymmetric) and (antisymmetric, symmetric) blocks are one problem
    pytest.param(QUTRIT_LETTERS, [from_columns((0, 1, 2), (0, 1, 2), (2, 0, 1), (1, 1, 0)),
                                  from_columns(*[(0, 1, 2)] * 3, (2, 2, 1)),
                                  from_columns(*[(2, 0, 1)] * 4)], id="qutrit"),
    # M = 2: up to the swap every varying column is (0, 1), so a width-L member is one run
    pytest.param(PAULI_095, [from_columns(*[(0, 1), (1, 0)] * 4),
                             from_columns(*[(1, 0)] * 7, (1, 1)),
                             from_columns((0, 0), (0, 1), (1, 0), (1, 1), (0, 1), (0, 1), (1, 0),
                                          (1, 1))], id="m2-one-type"),
])
def test_equal_columns_decode_as_the_oracle(monkeypatch, ch, books):
    np.testing.assert_allclose(decode_books(monkeypatch, ch, books), oracle_errors(ch, books),
                               rtol=0, atol=1e-12)


def test_equal_columns_decode_on_their_blocks(monkeypatch):
    seen = []

    def recording_pgm_hits(states):
        seen.extend([states.shape[-1]] * len(states))
        return _pgm_hits(states)

    monkeypatch.setattr("cqexp.ensemble._pgm_hits", recording_pgm_hits)
    _decode_ensemble(PAULI_095, 2, 8)  # every codebook: a width-L member is one run, L <= 8
    assert sorted(seen) == sorted(sum((block_dims([(0, 1)] * width, 2) for width in range(1, 9)),
                                      []))  # each distinct block problem once
    assert max(seen) == 81  # 3**4, never 2**8
    seen.clear()
    doc = json.loads((CONFIGS / "simulate_mu095.json").read_text())
    _decode_ensemble(channel_from_config(doc["channel"]), doc["m"], doc["n"], exhaustive=False,
                     trials=1000, seed=1)
    assert seen.count(64) == 2  # only 2 of the 60 width-6 members have no equal pair
    assert max(seen) == 64 and 48 in seen and 36 in seen


CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("ch", [
    *[pytest.param(channel_from_config(json.loads((CONFIGS / f"{stem}.json").read_text())),
                   id=stem) for stem in ("pauli_mu070", "pauli_mu090", "pauli_mu095", "bsc_p010")],
    pytest.param(PAULI_1, id="pauli-1"),
    pytest.param(pauli_channel(1.0 - 1e-9), id="pauli-near-pure"),
    # (I +- X/2)/2: only the sign flip diag(1, -1) maps one letter onto the other
    pytest.param(pair_channel(DensityOperator(np.array([[0.5, 0.25], [0.25, 0.5]])),
                              DensityOperator(np.array([[0.5, -0.25], [-0.25, 0.5]]))),
                 id="sign-flip"),
])
def test_letter_swap_is_found(ch):
    assert np.array_equal(_letter_symmetries(letters_of(ch)), SWAP)
    assert np.array_equal(_letter_symmetries(letters_of(ch).real), SWAP)  # as the decoder reads


@pytest.mark.parametrize("seed, k, d", [(1, 3, 2), (2, 3, 2), (2, 3, 3), (3, 2, 2), (4, 3, 2),
                                        (6, 3, 3)])
def test_random_channels_have_no_letter_symmetry(seed, k, d):
    ch = random_channel(np.random.default_rng(seed), k, d)
    assert np.array_equal(_letter_symmetries(letters_of(ch)), [list(range(k))])


def test_letter_symmetries_are_exact():
    letters = letters_of(pauli_channel(0.95)).real
    letters[1, 0, 0] = np.nextafter(letters[1, 0, 0], 1.0)  # one ulp off the swapped letter
    assert np.array_equal(_letter_symmetries(letters), [[0, 1]])
    # equal letters give the identity alone
    assert np.array_equal(_letter_symmetries(letters_of(identical_channel(3))), [[0, 1, 2]])


def test_symmetric_dmc_has_every_letter_permutation():
    w = np.full((3, 3), 0.1) + 0.7 * np.eye(3)
    found = _letter_symmetries(letters_of(from_classical_dmc(w, None)))
    assert found.tolist() == sorted(map(list, itertools.permutations(range(3))))


@pytest.mark.parametrize("d, found", [(4, SWAP), (5, [[0, 1]])])
def test_letter_symmetries_are_searched_up_to_dimension_four(d, found):
    sigma = random_density(np.random.default_rng(7), d).matrix
    swapped = sigma[[1, 0, *range(2, d)]][:, [1, 0, *range(2, d)]]  # a transposition
    assert np.array_equal(_letter_symmetries(np.array([sigma, swapped])), found)


THREE_QUBIT_LETTERS = CQChannel(tuple(random_density(np.random.default_rng(3), 2)
                                      for _ in range(3)), None)  # complex, uniform Q


@pytest.mark.parametrize("ch, m, n, trials, seed, split_dim", [
    # 7 of these 8 draws have 7 distinct varying columns (no letter symmetry, no equal pair):
    # 128-dimensional complex problems of 4 words (1 MiB each), over the 256 KiB budget, so
    # each goes in a chunk of its own, no budget patched
    pytest.param(THREE_QUBIT_LETTERS, 4, 7, 8, 7, 128, id="blocks"),
    pytest.param(pauli_channel(1.0 - 1e-9), 4, 5, 200, 2, None, id="near-pure",
                 marks=pytest.mark.xfail(
        strict=True, reason="near-pure letters: the SUPPORT_TOL cut on the state sum is "
        "ill-conditioned, and the fast and public paths differ by up to 1.15e-11 (over 1e-12 "
        "on 132 of the 200 codebooks)")),
])
def test_fast_decode_matches_the_oracle(monkeypatch, ch, m, n, trials, seed, split_dim):
    seen = []

    def recording_pgm_hits(states):
        seen.append((len(states), states.shape[-1]))  # problems and dimension of each call
        return _pgm_hits(states)

    monkeypatch.setattr("cqexp.ensemble._pgm_hits", recording_pgm_hits)
    _, pes = _decode_ensemble(ch, m, n, exhaustive=False, trials=trials, seed=seed)
    if split_dim:
        assert m * split_dim ** 2 * 16 > DECODE_CHUNK_BYTES
        assert [call for call in seen if call[1] == split_dim] == [(1, split_dim)] * 7
    books = [sample_codebook(ch, m, n, int(s))
             for s in np.random.SeedSequence(seed).generate_state(trials)]
    expected = [error_probability(ch, book, pgm_povm(
        [product_state(ch, w) for w in book.codewords])).average_error for book in books]
    np.testing.assert_allclose(pes, expected, rtol=0, atol=1e-12)


ONE_DIMENSIONAL = CQChannel((DensityOperator(np.ones((1, 1))),) * 2, None)
# a qutrit's letters and antisymmetric pair blocks share dimension 3; one-dimensional letters
# have an empty antisymmetric pair block
CHUNK_CHANNELS = (pauli_channel(0.95), random_channel(np.random.default_rng(1), 3, 2),
                  random_channel(np.random.default_rng(2), 3, 3), ONE_DIMENSIONAL)


# explicit ids keep the Monte-Carlo cases' names (ch0, ch1) stable
@pytest.mark.parametrize("ch, exhaustive", [
    pytest.param(ch, exhaustive, id=f"ch{i}" + "-exhaustive" * exhaustive)
    for exhaustive in (False, True) for i, ch in enumerate(CHUNK_CHANNELS)])
@pytest.mark.parametrize("chunk_bytes", [1, 2 ** 30])
def test_decoding_is_chunking_invariant(monkeypatch, ch, exhaustive, chunk_bytes):
    # 37 draws of 16x16 products, and the 729 M=2 n=3 codebooks of the 3-letter
    # channel, leave a partial last chunk at the default size; a 1-byte chunk
    # holds one block problem's states, so each has a chunk of its own
    m, n = (2, 3) if exhaustive else (4, 4)
    default = _decode_ensemble(ch, m, n, exhaustive=exhaustive, trials=37, seed=8)
    monkeypatch.setattr("cqexp.ensemble.DECODE_CHUNK_BYTES", chunk_bytes)
    weights, pes = _decode_ensemble(ch, m, n, exhaustive=exhaustive, trials=37, seed=8)
    assert np.array_equal(weights, default[0])
    assert np.array_equal(pes, default[1])


def test_one_dimensional_letters_decode_as_the_oracle():
    # every pair's antisymmetric block problem is empty: its symmetric one holds all the hits
    weights, pes = _decode_ensemble(ONE_DIMENSIONAL, 3, 3)
    books = list(enumerate_codebooks(ONE_DIMENSIONAL, 3, 3))
    expected = [error_probability(ONE_DIMENSIONAL, book, pgm_povm(
        [product_state(ONE_DIMENSIONAL, w) for w in book.codewords])).average_error
        for book, _ in books]
    np.testing.assert_allclose(pes, expected, rtol=0, atol=1e-12)
    assert np.array_equal(weights, [prob for _, prob in books])


def test_all_constant_codebooks_are_exact():
    # every codeword equal: the square-root measurement guesses, P_e = 1 - 1/M with no rounding
    report = run_ensemble(pauli_channel(0.95), 2, 2, exhaustive=True)
    assert [report.exponent_samples[i] for i in (0, 5, 10, 15)] == [0.5] * 4


@pytest.mark.parametrize("q", [(0.2, 0.0, 0.8), (0.5, 0.15, 0.35)])
def test_monte_carlo_draws_are_generator_choice(q):
    # the oracle is numpy's own choice: a numpy change that moves its stream fails here
    ch, m, n = CQChannel((DensityOperator.maximally_mixed(2),) * 3, InputDistribution(q)), 3, 5
    seeds = np.random.SeedSequence(21).generate_state(150)
    words, weights = map(np.concatenate, zip(*_codeword_chunks(ch, m, n, 64, seeds)))
    want = [np.random.default_rng(int(s)).choice(3, size=(m, n), p=np.array(q)) for s in seeds]
    assert np.array_equal(words, want) and words.dtype == np.int64
    assert np.array_equal(weights, np.full(150, 1.0 / 150))
    assert set(np.unique(words)) == ({0, 2} if 0.0 in q else {0, 1, 2})


# --- the in-house stream, bit for bit against numpy.random as the oracle ---


@pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 200 + 12345])
@pytest.mark.parametrize("trials", [2, 3, 5, 1000, 4097])
def test_sub_seeds_are_seed_sequence_state(seed, trials):
    got = _seed_states(_entropy(seed), trials)
    want = np.random.SeedSequence(seed).generate_state(trials)
    assert got.shape == (1, trials) and got.dtype == np.uint32
    assert np.array_equal(got[0], want)


@given(st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=20), st.integers(1, 4),
       st.integers(1, 6))
def test_draws_are_generator_random(seeds, m, n):
    seeds = np.array(seeds + [0, 2 ** 32 - 1], dtype=np.uint32)
    want = [np.random.default_rng(int(s)).random((m, n)) for s in seeds]
    assert np.array_equal(_uniforms(seeds[:, None], m * n).reshape(-1, m, n), want)


@pytest.mark.parametrize("seed", [2 ** 32, 2 ** 32 + 9, 2 ** 64 + 5, 2 ** 128 + 1, 2 ** 200 + 12345,
                                  np.uint32(7), np.int64(2 ** 40), np.uint64(2 ** 64 - 1)])
def test_big_and_numpy_seeds_draw_generator_choice(seed):
    ch = biased_channel(0.3, 0.7)
    want = np.random.default_rng(seed).choice(2, size=(4, 6), p=ch.q.probabilities)
    book = sample_codebook(ch, 4, 6, seed)
    assert np.array_equal(book.codewords, want)
    assert book.provenance == ("sampled", int(seed)) and type(book.provenance[1]) is int


@pytest.mark.parametrize("seed", [1.5, True, -1, "3", None])
def test_seed_that_is_not_a_non_negative_integer_is_refused(seed):
    ch = pauli_channel(0.9)
    for call in (lambda: sample_codebook(ch, 2, 3, seed),
                 lambda: run_ensemble(ch, 2, 3, trials=5, seed=seed)):
        with pytest.raises(ValueError, match=f"'seed' must be a non-negative integer, got "
                                             f"{re.escape(repr(seed))}$"):
            call()


def test_ensemble_runs_build_no_codebook(monkeypatch):
    ch = pauli_channel(0.95)
    want = (run_ensemble(ch, 2, 2, exhaustive=True, gamma=4.0).to_json_dict(),
            run_ensemble(ch, 3, 2, trials=20, seed=3).to_json_dict(),
            verify_markov_bound(ch, 2, 2, 2.0, 4.0))

    def no_codebook(**_):
        raise AssertionError("a Codebook was built")

    monkeypatch.setattr("cqexp.ensemble.Codebook", no_codebook)
    assert (run_ensemble(ch, 2, 2, exhaustive=True, gamma=4.0).to_json_dict(),
            run_ensemble(ch, 3, 2, trials=20, seed=3).to_json_dict(),
            verify_markov_bound(ch, 2, 2, 2.0, 4.0)) == want


@pytest.mark.parametrize("exhaustive", [True, False])
def test_one_codebook_memory_cap(monkeypatch, exhaustive):
    real = pauli_channel(0.95)  # every letter is real: 8-byte entries
    complex_ch = random_channel(np.random.default_rng(3), 2, 2)  # 16-byte entries
    # exactly at the cap: the product states of M=2, n=2, real (256 bytes), or in Monte-Carlo
    # mode one draw's price 8 M (2 n + 1) + 250 = 330 bytes, over the states'
    cap = 2 * 4 ** 2 * 8 if exhaustive else 330
    monkeypatch.setattr("cqexp.ensemble.BOOK_BYTES_CAP", cap)
    _decode_ensemble(real, 2, 2, exhaustive=exhaustive, trials=1)

    def no_draw(*_, **__):
        raise AssertionError("codebooks were drawn or enumerated")

    monkeypatch.setattr("cqexp.ensemble._codeword_chunks", no_draw)
    if not exhaustive:  # three draws' codewords alone (96 bytes) would fit
        for trials, held in ((2, 660), (3, 990)):
            with pytest.raises(ValueError,
                               match=f"{trials} draws of 2 x 2 codewords take {held} bytes, over"):
                _decode_ensemble(real, 2, 2, exhaustive=False, trials=trials)
    for ch, m in ((real, 3), (complex_ch, 2)):  # 384 and 512 bytes of product states
        with pytest.raises(ValueError, match=f"over the cap {cap}"):
            _decode_ensemble(ch, m, 2, exhaustive=exhaustive, trials=3)
        with pytest.raises(ValueError, match="over the cap"):
            run_ensemble(ch, m, 2, exhaustive=exhaustive, trials=None if exhaustive else 3)


def test_one_codebook_is_priced_at_once_by_every_caller(monkeypatch):
    # sample_codebook, enumerate_codebooks and both modes of run_ensemble share one gate: a
    # codebook's codeword array, product states and message distances for every caller, the
    # enumeration where it enumerates and the draws in Monte-Carlo mode; a one-letter
    # alphabet passes the enumeration cap
    calls = {"sample": lambda ch, m, trials: sample_codebook(ch, m, 1, 0),
             # refused by the call, not by next()
             "enumerate": lambda ch, m, trials: enumerate_codebooks(ch, m, 1),
             "monte-carlo": lambda ch, m, trials: run_ensemble(ch, m, 1, trials=trials),
             "exhaustive": lambda ch, m, trials: run_ensemble(ch, m, 1, exhaustive=True)}
    one_letter, m = identical_channel(1), 10 ** 12
    refusals = [  # callers, cap, channel, M, trials, message
        (calls, 2 ** 30, one_letter, m, 2,
         f"the {m} x 1 codewords of one codebook take {8 * m} bytes, over the cap 1073741824"),
        (calls, 64, PAULI_095, 3, 2,  # M = 2 real qubit states are at the cap
         "the 3 product states of one codebook take 96 bytes, over the cap 64"),
        (calls, 2 ** 20, one_letter, 512, 2, "the 512 x 512 message distances of one codebook "
                                             "take 4194304 bytes, over the cap 1048576"),
        (["enumerate", "exhaustive"], 2 ** 30, PAULI_095, 21, 2,
         "enumeration space 2**21 exceeds the cap 2**20"),
        (["monte-carlo"], 2 ** 30, PAULI_095, 2, m,
         f"{m} draws of 2 x 1 codewords take {298 * m} bytes, over the cap 1073741824"),
    ]
    with monkeypatch.context() as patch:
        patch.setattr("cqexp.ensemble._codeword_chunks",
                      lambda *_: pytest.fail("codebooks were drawn or enumerated"))
        for callers, cap, ch, books, trials, message in refusals:
            patch.setattr("cqexp.ensemble.BOOK_BYTES_CAP", cap)
            for name in callers:
                start = time.perf_counter()
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    calls[name](ch, books, trials)
                assert time.perf_counter() - start < 1.0, name
    monkeypatch.setattr("cqexp.ensemble.BOOK_BYTES_CAP", 64)  # at the cap: drawn and enumerated
    assert sample_codebook(PAULI_095, 2, 1, 0).codewords.shape == (2, 1)
    assert len(list(enumerate_codebooks(PAULI_095, 2, 1))) == 4


@pytest.mark.parametrize("exhaustive", [True, False])
def test_message_distances_are_priced(monkeypatch, exhaustive):
    # the orbit map holds (M, M) int64 message distances and their sorted copy, 16 M**2 bytes
    # for even one codebook, which the states' and the draws' prices miss at n = 1
    monkeypatch.setattr("cqexp.ensemble.BOOK_BYTES_CAP", 2 ** 20)
    if not exhaustive:  # 16 * 256**2 bytes is the cap: admitted
        _decode_ensemble(PAULI_095, 256, 1, exhaustive=False, trials=2)

    def no_draw(*_, **__):
        raise AssertionError("codebooks were drawn or enumerated")

    monkeypatch.setattr("cqexp.ensemble._codeword_chunks", no_draw)
    want = ("enumeration space 2**512 exceeds the cap 2**20" if exhaustive  # priced first
            else "the 512 x 512 message distances of one codebook take 4194304 bytes, over the "
                 "cap 1048576")
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        _decode_ensemble(PAULI_095, 512, 1, exhaustive=exhaustive, trials=2)


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("m", [2, 3, 4, 16])
def test_mean_bound_is_taken_at_the_random_coding_maximizer(m, n):
    # 2 (M-1)^s 2^(-n E0(s)) = 2 * 2^(-n E_r(log2(M-1)/n)) at E_r's own maximizer, in scalar
    # powers; no looser than the minimum over a 65-point s grid, and equal to it where the
    # maximizer is an endpoint, which that grid holds
    for ch in (pauli_channel(0.95), from_classical_dmc([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5]),
               random_channel(np.random.default_rng(2), 3, 3)):
        s = random_coding_exponent(ch, math.log2(m - 1) / n).maximizer
        bound = _rc_mean_bound(ch, m, n)
        assert bound == 2.0 * (m - 1) ** s * (2.0 ** (-e0(ch, s))) ** n
        grid = min(2.0 * (m - 1) ** t * (2.0 ** (-e0(ch, t))) ** n
                   for t in np.linspace(0.0, 1.0, 65).tolist())
        assert bound <= grid
        if s in (0.0, 1.0):
            assert bound == grid


def test_run_ensemble_identical_states_exact():
    # indistinguishable states: mean error is exactly 1 - 1/M, the mean-error
    # bound degrades to 2 for M = 2, and the verdicts still hold
    report = run_ensemble(identical_channel(), 2, 1, exhaustive=True)
    assert report.mean_pe == pytest.approx(0.5, abs=1e-12)
    rc = next(c for c in report.bound_checks if c.name == "mean_error_bound")
    assert rc.bound == pytest.approx(2.0, abs=1e-12)
    assert report.all_passed


def test_run_ensemble_monte_carlo_matches_exhaustive():
    ch = pauli_channel(0.95)
    exact = run_ensemble(ch, 2, 2, exhaustive=True)
    mc = run_ensemble(ch, 2, 2, trials=3000, seed=11)
    assert mc.trials == 3000 and mc.seed == 11
    assert abs(mc.mean_pe - exact.mean_pe) < 0.02
    assert mc.all_passed
    for r in (1.0, 2.0, 4.0):
        assert abs(mc.tilted_means[r] - exact.tilted_means[r]) < 0.02


def test_run_ensemble_deterministic_reruns():
    ch = pauli_channel(0.9)
    a = run_ensemble(ch, 2, 2, trials=60, seed=5)
    b = run_ensemble(ch, 2, 2, trials=60, seed=5)
    c = run_ensemble(ch, 2, 2, trials=60, seed=6)
    text_a = json.dumps(a.to_json_dict(), sort_keys=True)
    text_b = json.dumps(b.to_json_dict(), sort_keys=True)
    text_c = json.dumps(c.to_json_dict(), sort_keys=True)
    assert text_a == text_b
    assert text_a != text_c


def test_run_ensemble_validation(monkeypatch):
    monkeypatch.setattr("cqexp.ensemble._pgm_hits",
                        lambda states: pytest.fail("a codebook was decoded before the refusal"))
    ch = pauli_channel(0.9)
    with pytest.raises(ValueError, match="'trials'"):
        run_ensemble(ch, 2, 2)
    with pytest.raises(ValueError, match=">= 1"):
        run_ensemble(ch, 2, 2, trials=100, r_list=(0.5,))
    with pytest.raises(ValueError, match="finite"):
        run_ensemble(ch, 2, 2, trials=100, r_list=(1.0, math.nan))
    with pytest.raises(ValueError, match="exhaustive"):
        run_ensemble(ch, 2, 2, trials=100, gamma=4.0)
    with pytest.raises(ValueError, match="at least 1"):
        run_ensemble(ch, 2, 2, exhaustive=True, gamma=0.5)
    # a bool or a string is refused, not read as 1 or as the number it spells
    for gamma in (True, "4"):
        with pytest.raises(ValueError, match=f"^'gamma' must be a number, got {gamma!r}$"):
            run_ensemble(ch, 2, 2, exhaustive=True, gamma=gamma)
    for r_list, bad in (((True, "2"), "True"), ((1.0, "2"), "'2'"), ((None,), "None")):
        with pytest.raises(ValueError, match=f"^'r_list' must be a list of numbers, got .*{bad}"):
            run_ensemble(ch, 2, 2, exhaustive=True, r_list=r_list)
    # the report keys tilted means and names checks by f"{r:g}": such orders would merge
    with pytest.raises(ValueError, match="distinct"):
        run_ensemble(ch, 2, 2, trials=100, r_list=(1.0000001, 1.0000002))
    with pytest.raises(ValueError, match="distinct"):
        run_ensemble(ch, 2, 2, exhaustive=True, r_list=(1.0, 4.0, 4))
    # each run value is refused as a whole under its key, with nothing decoded
    for key, kwargs in (("exhaustive", {"exhaustive": "false"}), ("exhaustive", {"exhaustive": 1}),
                        ("r_list", {"trials": 100, "r_list": 4}),
                        ("r_list", {"trials": 100, "r_list": "124"}),
                        ("r_list", {"trials": 100, "r_list": {}}),
                        ("trials", {"exhaustive": True, "trials": "many"})):
        with pytest.raises(ValueError, match=f"'{key}'"):
            run_ensemble(ch, 2, 2, **kwargs)


def test_numpy_numbers_are_accepted_as_gamma_and_tilt_orders():
    ch = pauli_channel(0.9)
    want = run_ensemble(ch, 2, 1, exhaustive=True, r_list=(1, 2.0), gamma=4).to_json_dict()
    got = run_ensemble(ch, 2, 1, exhaustive=True, r_list=(np.int64(1), np.float32(2.0)),
                       gamma=np.float64(4.0)).to_json_dict()
    assert got == want
    assert optimal_tilt_estimate(ch, 4, 6, np.int64(4)) == optimal_tilt_estimate(ch, 4, 6, 4.0)


PLAIN_RUNS = {"exhaustive": dict(m=2, n=2, exhaustive=True, gamma=4),
              "monte-carlo": dict(m=2, n=2, trials=20, seed=3)}


@pytest.mark.parametrize("mode, key, value", [
    ("exhaustive", "m", np.int64(2)), ("exhaustive", "n", np.int64(2)),
    ("exhaustive", "gamma", np.int64(4)), ("exhaustive", "gamma", np.float32(4.0)),
    ("monte-carlo", "trials", np.int64(20)), ("monte-carlo", "n", np.int32(2))],
    ids=["m-int64", "n-int64", "gamma-int64", "gamma-float32", "trials-int64", "mc-n-int32"])
def test_report_fields_are_python_numbers(mode, key, value):
    # a numpy count or gamma is stored as the int or float it stands for, so the document dumps
    ch = pauli_channel(0.9)
    want = run_ensemble(ch, **PLAIN_RUNS[mode]).to_json_dict()
    got = run_ensemble(ch, **{**PLAIN_RUNS[mode], key: value}).to_json_dict()
    assert got == want
    assert json.dumps(got) == json.dumps(want)


def test_monte_carlo_refuses_one_draw(monkeypatch):
    # one draw has sample variance 0, so three standard errors of slack are 0 and the
    # verdict would rest on a single codebook: seed 13 gave a FAIL that way
    ch = pauli_channel(0.95)
    with monkeypatch.context() as patch:
        patch.setattr("cqexp.ensemble._pgm_hits",
                      lambda states: pytest.fail("a codebook was decoded before the refusal"))
        for trials in (None, 0, 1):
            with pytest.raises(ValueError, match=f"'trials' must be an integer >= 2.*got {trials}"):
                run_ensemble(ch, 2, 6, trials=trials, seed=13)
    assert run_ensemble(ch, 2, 6, trials=2, seed=13).trials == 2


def test_monte_carlo_memory_stays_within_its_price():
    # tracemalloc peaks of a small and a big run, after a warm-up run: their slope per trial
    # leaves out the chunk-bounded transients, which both runs hold.  At M=64, n=3 almost
    # every draw is a distinct orbit member with its own key, stack and ids.
    for m, n, small, big in ((2, 1, 20_000, 50_000), (64, 3, 400, 1_600)):
        low, high = tracemalloc_peaks(
            "from cqexp import channel_from_config, run_ensemble\n"
            "ch = channel_from_config({'kind': 'pauli', 'mu': 0.95})\n"
            f"run_ensemble(ch, {m}, {n}, trials=100)",
            [f"run_ensemble(ch, {m}, {n}, trials={trials})" for trials in (small, big)])
        assert high - low <= (big - small) * (8 * m * (2 * n + 1) + 250)


def test_decoding_holds_one_chunk_of_product_states():
    # at M=4, n=8 a kind's block problems fill many 256 KiB chunks; only one chunk's product
    # states may be held at a time
    peak, = tracemalloc_peaks(
        "from cqexp import run_ensemble\nfrom helpers import pauli_channel\n"
        "ch = pauli_channel(0.95)\nrun_ensemble(ch, 4, 8, trials=200, seed=5)",
        ["run_ensemble(ch, 4, 8, trials=2000, seed=5)"])
    assert peak <= 6 * 2 ** 20


def test_large_m_transients_stay_small():
    # at n = 1 a run holds at most M + 1 distinct members, so its peak is nearly all chunk
    # transients: the orbit map's (M, M) message distances, sized with its images, and the
    # draw's lanes; with and without a letter symmetry
    peaks = tracemalloc_peaks(
        "import numpy as np\nfrom cqexp import run_ensemble\n"
        "from cqexp.ensemble import _letter_symmetries\n"
        "from helpers import pauli_channel, random_channel\n"
        "pauli, plain = pauli_channel(0.95), random_channel(np.random.default_rng(3), 2, 2)\n"
        "assert len(_letter_symmetries(np.array([s.matrix for s in plain.states]))) == 1\n"
        "run_ensemble(pauli, 4, 1, trials=100)",
        [f"run_ensemble({ch}, {m}, 1, trials=200)" for ch in ("pauli", "plain")
         for m in (64, 128, 256)])
    assert max(peaks) <= 4 * 2 ** 20


def test_draw_seeding_stays_within_the_chunk_budget(monkeypatch):
    # a lane's seeding holds about 180 bytes beside its M n doubles, so at small M n the
    # draw chunk is sized by the seeding, not by the codewords
    calls = set()

    def recording_uniforms(entropy, count):
        calls.add((len(entropy), count))
        return _uniforms(entropy, count)

    monkeypatch.setattr("cqexp.ensemble._uniforms", recording_uniforms)
    for m, n, trials in ((2, 1, 20_000), (3, 2, 20_000), (4, 6, 2_000)):
        run_ensemble(pauli_channel(0.95), m, n, trials=trials)
    peaks = tracemalloc_peaks(
        "from cqexp.ensemble import _entropy, _seed_states, _uniforms\n"
        "entropy = _seed_states(_entropy(0), 20_000)[0].reshape(-1, 1)\n"
        "_uniforms(entropy[:100], 1)",
        [f"_uniforms(entropy[:{lanes}], {count})" for lanes, count in sorted(calls)])
    for (lanes, count), peak in zip(sorted(calls), peaks):
        assert 8 * lanes * count <= DECODE_CHUNK_BYTES  # the doubles returned
        assert peak - 8 * lanes * count <= DECODE_CHUNK_BYTES  # the seeding


def test_run_ensemble_infinite_exponent_samples():
    # orthogonal states: books with distinct constant words decode perfectly,
    # giving P_e = 0 and an infinite finite-n exponent sample
    report = run_ensemble(orthogonal_channel(), 2, 1, exhaustive=True)
    assert any(math.isinf(x) for x in report.exponent_samples)
    assert any(math.isfinite(x) for x in report.exponent_samples)
    doc = report.to_json_dict()
    assert "inf" in doc["exponent_samples"]
    json.dumps(doc)  # remains serializable


def test_report_json_dict_shapes():
    report = run_ensemble(pauli_channel(0.9), 2, 1, exhaustive=True, r_list=(1.0, 2.0))
    doc = report.to_json_dict()
    assert doc["m"] == 2 and doc["n"] == 1 and doc["exhaustive"] is True
    assert set(doc["tilted_means"]) == {"1", "2"}
    for check in doc["bound_checks"]:
        assert set(check) == {"name", "bound", "empirical", "slack", "verdict"}
        assert check["verdict"] in ("PASS", "FAIL")


# --- quantile bound ----------------------------------------------------------


def test_markov_bound_grid():
    ch = pauli_channel(0.95)
    for r, gamma in itertools.product((1.0, 2.0, 4.0), (1.0, 4.0, 16.0)):
        check = verify_markov_bound(ch, 2, 2, r, gamma)
        assert check.verdict == "PASS"
        assert check.bound == pytest.approx(1.0 / gamma, abs=1e-15)
        assert check.empirical <= check.bound + 1e-12


def test_markov_bound_deterministic_inputs():
    # all probability on one book: the threshold gamma^r P_e exceeds P_e
    ch = biased_channel(1.0, 0.0)
    check = verify_markov_bound(ch, 2, 2, 2.0, 4.0)
    assert check.empirical == 0.0
    assert check.verdict == "PASS"


def test_markov_bound_gamma_one_trivial():
    check = verify_markov_bound(pauli_channel(0.9), 2, 1, 1.0, 1.0)
    assert check.bound == 1.0
    assert check.verdict == "PASS"


def test_markov_bound_validation():
    ch = pauli_channel(0.9)
    with pytest.raises(ValueError, match=">= 1"):
        verify_markov_bound(ch, 2, 2, 0.0, 2.0)
    with pytest.raises(ValueError, match="at least 1"):
        verify_markov_bound(ch, 2, 2, 1.0, 0.5)


@pytest.mark.parametrize("ch, m, n", [
    (pauli_channel(0.95), 2, 2),
    (from_classical_dmc([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5]), 3, 2),
])
def test_run_ensemble_markov_checks_match_verify_markov_bound(ch, m, n):
    r_list, gamma = (1.0, 2.0, 4.0), 16.0
    report = run_ensemble(ch, m, n, exhaustive=True, r_list=r_list, gamma=gamma)
    assert [r for r, _ in report.markov_checks] == list(r_list)
    for r, check in report.markov_checks:
        assert check == verify_markov_bound(ch, m, n, r, gamma)
    with_gamma = report.to_json_dict()
    assert [c["r"] for c in with_gamma.pop("markov_checks")] == list(r_list)
    assert with_gamma == run_ensemble(ch, m, n, exhaustive=True, r_list=r_list).to_json_dict()


def _brute_force_quantile_mass(ch, m, n, r, gamma):
    """P[P_e >= (gamma E[P_e^(1/r)])^r] from every codebook of product_codebooks, decoded
    one by one with product_state, pgm_povm and error_probability, compared in logs so
    that no power overflows or underflows."""
    books = [(prob, error_probability(ch, book, pgm_povm(
        [product_state(ch, w) for w in book.codewords])).average_error)
        for book, prob in product_codebooks(ch, m, n)]
    tilted = math.fsum(prob * pe ** (1.0 / r) for prob, pe in books)
    log_threshold = r * math.log(gamma * tilted)
    return math.fsum(prob for prob, pe in books if pe > 0.0 and math.log(pe) >= log_threshold)


@pytest.mark.parametrize("ch, m, n, r_list, gamma, want", [
    (pauli_channel(0.95), 2, 2, (1.0, 2.0), 1.5, (0.25, 0.25)),
    (from_classical_dmc([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5]), 3, 2, (1.0,), 1.5, (0.0625,)),
    (random_channel(np.random.default_rng(4), 3, 2), 2, 2, (1.0, 2.0), 1.5, (0.284, 0.1448)),
    # P_e is 1/2, or an ulp above: at gamma = 1, r = 1 the threshold is their mean, 1/2,
    # and the books at exactly 1/2 count
    (identical_channel(), 2, 2, (1.0,), 1.0, (1.0,)),
    # P_e is 0 or 1/2; (gamma T)^r underflows, but P_e = 0 stays below it
    (orthogonal_channel(), 2, 1, (1e4,), 1.5, (0.5,)),
], ids=["pauli", "bsc", "random", "identical-equality", "orthogonal-underflow"])
def test_quantile_mass_equals_the_brute_force_oracle(ch, m, n, r_list, gamma, want):
    report = run_ensemble(ch, m, n, exhaustive=True, r_list=r_list, gamma=gamma)
    for (r, check), approx in zip(report.markov_checks, want):
        oracle = _brute_force_quantile_mass(ch, m, n, r, gamma)
        assert abs(check.empirical - oracle) <= 1e-12
        assert check.empirical == pytest.approx(approx, abs=5e-4)


def test_markov_threshold_is_one_power_of_gamma_times_the_tilted_mean():
    # gamma^r alone overflows a float, (gamma T)^r does not: P_e is 0 or 1/2, T < 1/2
    ch, r, gamma = orthogonal_channel(), 2000.0, 1.5
    with pytest.raises(OverflowError):
        gamma ** r
    report = run_ensemble(ch, 2, 1, exhaustive=True, r_list=(r,), gamma=gamma)
    assert report.markov_checks == ((r, BoundCheck("markov_bound_r2000", 1.0 / gamma, 0.5, 1e-12)),)
    # (gamma T)^r itself overflows: the threshold is +inf and no codebook reaches it
    (_, check), = run_ensemble(ch, 2, 1, exhaustive=True, r_list=(2.0,),
                               gamma=1e200).markov_checks
    assert check == BoundCheck("markov_bound_r2", 1e-200, 0.0, 1e-12)


@pytest.mark.parametrize("empirical, verdict", [
    (0.75, "PASS"), (math.nextafter(0.75, 1.0), "FAIL"), (math.nan, "FAIL")],
    ids=["equality", "above", "nan"])
def test_bound_check_verdict_is_empirical_at_most_bound_plus_slack(empirical, verdict):
    assert BoundCheck("check", bound=0.25, empirical=empirical, slack=0.5).verdict == verdict


def test_report_all_passed_covers_markov_checks():
    report = run_ensemble(pauli_channel(0.95), 2, 1, exhaustive=True, r_list=(1.0,), gamma=4.0)
    assert report.all_passed
    failed = BoundCheck("markov_bound_r1", bound=0.25, empirical=0.5, slack=1e-12)
    broken = EnsembleReport(**{**vars(report), "markov_checks": ((1.0, failed),)})
    assert not broken.all_passed
    assert broken.to_json_dict()["markov_checks"][0]["verdict"] == "FAIL"
