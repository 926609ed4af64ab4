"""Finite-blocklength ensemble runs: codebooks, decoding, bound verdicts."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from cqexp import (
    CQChannel,
    Codebook,
    DensityOperator,
    InputDistribution,
    MarkovCheck,
    PauliChannelParams,
    binary_pauli,
    enumerate_codebooks,
    error_probability,
    from_classical_dmc,
    helstrom_error,
    pgm_povm,
    product_state,
    run_ensemble,
    sample_codebook,
    verify_markov_bound,
)
from helpers import char_poly_eigs_2x2, pauli_channel, random_density


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
    with pytest.raises(ValueError, match="two codewords"):
        sample_codebook(ch, 1, 4, seed=0)
    with pytest.raises(ValueError, match="cap"):
        sample_codebook(ch, 2, 13, seed=0)  # 2**13 > 4096
    sample_codebook(ch, 2, 12, seed=0)  # 2**12 == 4096 is allowed
    with pytest.raises(ValueError, match="block length must be positive"):
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
    with pytest.raises(ValueError, match="need at least two codewords"):
        next(enumerate_codebooks(ch, 1, 2))
    with pytest.raises(ValueError, match="need at least two codewords"):
        run_ensemble(ch, 1, 2, exhaustive=True)


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
    with pytest.raises(ValueError, match="symbols"):
        product_state(ch, [0, 2])
    with pytest.raises(ValueError, match="cap"):
        product_state(ch, [0] * 13)


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


def test_decoding_builds_each_product_state_once(monkeypatch):
    ch = pauli_channel(0.95)
    words = []

    def counting_product_state(channel, codeword):
        words.append(tuple(codeword))
        return product_state(channel, codeword)

    monkeypatch.setattr("cqexp.ensemble.product_state", counting_product_state)
    report = run_ensemble(ch, 2, 1, exhaustive=True, gamma=4.0)
    assert len(words) == 2 * 4  # M states for each of the 2**2 codebooks
    monkeypatch.undo()

    def slow_decode(channel, m, n, **_):
        pairs = list(enumerate_codebooks(channel, m, n))
        pes = [error_probability(channel, book, pgm_povm(
            [product_state(channel, w) for w in book.codewords])).average_error
            for book, _ in pairs]
        return np.array([weight for _, weight in pairs]), np.array(pes)

    monkeypatch.setattr("cqexp.ensemble._decode_ensemble", slow_decode)
    slow = run_ensemble(ch, 2, 1, exhaustive=True, gamma=4.0)
    assert slow.to_json_dict() == report.to_json_dict()


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


def test_run_ensemble_validation():
    ch = pauli_channel(0.9)
    with pytest.raises(ValueError, match="trials"):
        run_ensemble(ch, 2, 2)
    with pytest.raises(ValueError, match=">= 1"):
        run_ensemble(ch, 2, 2, trials=100, r_list=(0.5,))
    with pytest.raises(ValueError, match="finite"):
        run_ensemble(ch, 2, 2, trials=100, r_list=(1.0, math.nan))
    with pytest.raises(ValueError, match="exhaustive"):
        run_ensemble(ch, 2, 2, trials=100, gamma=4.0)
    with pytest.raises(ValueError, match="at least 1"):
        run_ensemble(ch, 2, 2, exhaustive=True, gamma=0.5)


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
        assert check.passed
        assert check.bound == pytest.approx(1.0 / gamma, abs=1e-15)
        assert check.lhs_probability <= check.bound + 1e-12


def test_markov_bound_deterministic_inputs():
    # all probability on one book: the threshold gamma^r P_e exceeds P_e
    ch = biased_channel(1.0, 0.0)
    check = verify_markov_bound(ch, 2, 2, 2.0, 4.0)
    assert check.lhs_probability == 0.0
    assert check.passed


def test_markov_bound_gamma_one_trivial():
    check = verify_markov_bound(pauli_channel(0.9), 2, 1, 1.0, 1.0)
    assert check.bound == 1.0
    assert check.passed


def test_markov_bound_validation():
    ch = pauli_channel(0.9)
    with pytest.raises(ValueError, match="positive"):
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


def test_report_all_passed_covers_markov_checks():
    report = run_ensemble(pauli_channel(0.95), 2, 1, exhaustive=True, r_list=(1.0,), gamma=4.0)
    assert report.all_passed
    failed = MarkovCheck(lhs_probability=0.5, bound=0.25, passed=False)
    broken = dataclasses.replace(report, markov_checks=((1.0, failed),))
    assert not broken.all_passed
    assert broken.to_json_dict()["markov_checks"][0]["verdict"] == "FAIL"
