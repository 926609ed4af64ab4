"""Hermitian calculus: eigendecomposition, powers, overlap, entropy, products."""

import math

import numpy as np
import pytest

import cqexp
from cqexp import (
    DensityOperator,
    InputDistribution,
    hermitian_eig,
    hermitianize,
    kron,
    matrix_power,
    overlap,
    require_hermitian,
    von_neumann_entropy,
)
from helpers import (
    binary_entropy,
    bloch_vector,
    char_poly_eigs_2x2,
    pauli_channel,
    pauli_pair_overlap,
    qubit_overlap_from_bloch,
    random_density,
    random_unitary,
)


def test_hermitianize_returns_hermitian_part():
    a = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex)
    h = hermitianize(a)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(h, [[1.0, 1.0], [1.0, 3.0]])


def test_require_hermitian_symmetrizes_small_drift():
    a = np.array([[1.0, 0.5 + 1e-13], [0.5, 2.0]], dtype=complex)
    h = require_hermitian(a)
    assert np.allclose(h, h.conj().T)


def test_require_hermitian_rejects_large_drift():
    a = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(a)


def test_require_hermitian_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        require_hermitian(np.zeros((2, 3)))


def test_hermitian_eig_identity():
    spec = hermitian_eig(np.eye(2))
    assert np.allclose(spec.eigenvalues, [1.0, 1.0])


def test_hermitian_eig_descending_diagonal():
    spec = hermitian_eig(np.diag([0.3, 0.7]))
    assert np.allclose(spec.eigenvalues, [0.7, 0.3])


def test_hermitian_eig_matches_characteristic_polynomial():
    # Bloch matrix with |r| = sqrt(0.9): eigenvalues (1 +- 0.94868...)/2
    a = math.sqrt(0.9)
    theta = math.pi / 6
    m = 0.5 * np.array([
        [1 + a * math.cos(theta), a * math.sin(theta)],
        [a * math.sin(theta), 1 - a * math.cos(theta)],
    ], dtype=complex)
    spec = hermitian_eig(m)
    expected = char_poly_eigs_2x2(m)
    assert spec.eigenvalues[0] == pytest.approx(expected[0], abs=1e-12)
    assert spec.eigenvalues[1] == pytest.approx(expected[1], abs=1e-12)
    assert spec.eigenvalues[0] == pytest.approx((1 + a) / 2, abs=1e-12)


def test_hermitian_eig_reconstructs_and_is_orthonormal():
    rng = np.random.default_rng(7)
    for d in (2, 3, 5, 8):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = hermitianize(g)
        spec = hermitian_eig(h)
        recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        assert np.max(np.abs(recon - h)) < 1e-9
        gram = spec.eigenvectors.conj().T @ spec.eigenvectors
        assert np.max(np.abs(gram - np.eye(d))) < 1e-10
        assert np.all(np.diff(spec.eigenvalues) <= 1e-12)


def test_density_operator_validation():
    with pytest.raises(ValueError, match="trace"):
        DensityOperator(np.eye(2))
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))
    # eigenvalue -0.1 is far below the clamp window
    bad = np.diag([1.1, -0.1]).astype(complex)
    with pytest.raises(ValueError, match="positive semidefinite"):
        DensityOperator(bad).spectrum


@pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, math.nan)])
def test_non_finite_matrices_are_rejected(entry):
    m = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
    m[0, 0] = entry
    with pytest.raises(ValueError):
        require_hermitian(m)
    with pytest.raises(ValueError):
        DensityOperator(m)


def test_density_operator_clamps_tiny_negatives():
    rho = DensityOperator(np.diag([1.0 + 5e-11, -5e-11]).astype(complex))
    assert rho.eigenvalues[1] == 0.0
    assert np.all(rho.eigenvalues >= 0.0)


def test_density_operator_is_immutable():
    rho = DensityOperator(np.eye(2) / 2)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 5.0


def test_from_pure_and_maximally_mixed():
    rho = DensityOperator.from_pure([1.0, 1.0])
    assert np.allclose(rho.matrix, np.full((2, 2), 0.5))
    assert np.allclose(DensityOperator.maximally_mixed(4).eigenvalues, 0.25)


def test_matrix_power_diagonal():
    rho = DensityOperator(np.diag([0.9, 0.1]).astype(complex))
    assert np.allclose(matrix_power(rho, 0.5), np.diag([math.sqrt(0.9), math.sqrt(0.1)]))
    assert np.allclose(matrix_power(rho, 2.0), np.diag([0.81, 0.01]))


def test_matrix_power_projector_is_idempotent():
    # 0**p == 0 and 1**p == 1: projectors are fixed points for every p > 0
    proj = DensityOperator.from_pure([1.0, 1.0j])
    for p in (0.25, 0.5, 1.0, 3.0):
        assert np.max(np.abs(matrix_power(proj, p) - proj.matrix)) < 1e-12


def test_matrix_power_composition():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rho = random_density(rng, 3)
        for p, q in ((0.5, 0.5), (2.0, 0.25), (0.3, 1.7)):
            once = matrix_power(matrix_power(rho, p), q)
            direct = matrix_power(rho, p * q)
            assert np.max(np.abs(once - direct)) < 1e-8


def test_matrix_power_rejects_nonpositive_exponent():
    rho = DensityOperator(np.eye(2) / 2)
    with pytest.raises(ValueError):
        matrix_power(rho, 0.0)
    with pytest.raises(ValueError):
        matrix_power(rho, -1.0)


@pytest.mark.parametrize("p", [math.inf, math.nan])
def test_matrix_power_rejects_non_finite_exponent(p):
    with pytest.raises(ValueError, match="finite p > 0"):
        matrix_power(DensityOperator(np.diag([0.9, 0.1])), p)


def test_overlap_extremes():
    zero = DensityOperator.from_pure([1.0, 0.0])
    one = DensityOperator.from_pure([0.0, 1.0])
    assert overlap(zero, one) == pytest.approx(0.0, abs=1e-12)
    assert overlap(zero, zero) == pytest.approx(1.0, abs=1e-12)
    # Tr{sqrt(rho) sqrt(rho)} = Tr{rho} = 1 for every state
    rng = np.random.default_rng(11)
    rho = random_density(rng, 4)
    assert overlap(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_overlap_symmetry():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        for _ in range(30):
            a, b = random_density(rng, d), random_density(rng, d)
            assert abs(overlap(a, b) - overlap(b, a)) <= 1e-10


def test_overlap_matches_bloch_closed_form():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a, b = random_density(rng, 2), random_density(rng, 2)
        expected = qubit_overlap_from_bloch(bloch_vector(a.matrix), bloch_vector(b.matrix))
        assert overlap(a, b) == pytest.approx(expected, abs=1e-10)


def test_overlap_known_value():
    ch = pauli_channel(0.95)
    got = overlap(ch.states[0], ch.states[1])
    assert got == pytest.approx(pauli_pair_overlap(0.95, math.pi / 6), abs=1e-12)
    assert got == pytest.approx(0.48717, abs=1e-5)


def test_overlap_commuting_is_bhattacharyya():
    rng = np.random.default_rng(17)
    for _ in range(20):
        pa = rng.dirichlet(np.ones(4))
        pb = rng.dirichlet(np.ones(4))
        a = DensityOperator(np.diag(pa).astype(complex))
        b = DensityOperator(np.diag(pb).astype(complex))
        assert overlap(a, b) == pytest.approx(float(np.sqrt(pa * pb).sum()), abs=1e-10)


def test_overlap_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        overlap(DensityOperator(np.eye(2) / 2), DensityOperator(np.eye(3) / 3))


def test_entropy_pure_and_mixed():
    assert von_neumann_entropy(DensityOperator.from_pure([1.0, 0.0])) == 0.0
    assert von_neumann_entropy(DensityOperator.maximally_mixed(2)) == pytest.approx(1.0, abs=1e-12)
    assert von_neumann_entropy(DensityOperator.maximally_mixed(8)) == pytest.approx(3.0, abs=1e-12)


def test_entropy_known_value():
    ch = pauli_channel(0.95)
    p_minus = (1.0 - math.sqrt(0.9)) / 2.0
    assert von_neumann_entropy(ch.states[0]) == pytest.approx(binary_entropy(p_minus), abs=1e-12)


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(23)
    for d in (2, 4):
        for _ in range(10):
            rho = random_density(rng, d)
            u = random_unitary(rng, d)
            rotated = DensityOperator(u @ rho.matrix @ u.conj().T)
            assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-8


def test_entropy_range():
    rng = np.random.default_rng(29)
    for _ in range(20):
        rho = random_density(rng, 5)
        h = von_neumann_entropy(rho)
        assert 0.0 <= h <= math.log2(5) + 1e-12


def test_kron_values_and_trace():
    a = np.diag([0.7, 0.3]).astype(complex)
    b = np.diag([0.6, 0.4]).astype(complex)
    out = kron(a, b)
    assert out.shape == (4, 4)
    assert np.allclose(np.diag(out), [0.42, 0.28, 0.18, 0.12])
    rng = np.random.default_rng(31)
    x, y = random_density(rng, 2), random_density(rng, 3)
    assert np.trace(kron(x, y)).real == pytest.approx(1.0, abs=1e-12)


def test_kron_of_densities_is_density():
    rng = np.random.default_rng(37)
    a, b = random_density(rng, 2), random_density(rng, 2)
    prod = DensityOperator(kron(a, b))
    assert np.all(prod.eigenvalues >= 0.0)
    assert float(prod.eigenvalues.sum()) == pytest.approx(1.0, abs=1e-9)


def test_kron_dimension_cap():
    a = np.eye(64, dtype=complex)
    b = np.eye(65, dtype=complex)
    with pytest.raises(ValueError, match="cap"):
        kron(a, b)
    # 64 * 64 == 4096 is exactly within the cap
    assert kron(a, np.eye(64, dtype=complex)).shape == (4096, 4096)


# --- records -------------------------------------------------------------------

HALF = np.eye(2) / 2
CHECK = cqexp.BoundCheck("mean_error_bound", 0.5, 0.25, 1e-12)
# each public record: its fields in declaration order, and whether it compares by value
RECORDS = {
    "Spectrum": ({"eigenvalues": np.array([1.0, 0.0]), "eigenvectors": np.eye(2)}, False),
    "DensityOperator": ({"matrix": HALF}, False),
    "InputDistribution": ({"probabilities": np.array([0.25, 0.75])}, False),
    "CQChannel": ({"states": (DensityOperator(HALF),), "q": None}, False),
    "PauliChannelParams": ({"mu": 0.9, "theta": 0.5}, True),
    "ExponentValue": ({"value": 0.1, "maximizer": 0.5, "converged": True}, True),
    "RatePoint": ({"rate": 0.1, "e_r": 0.2, "e_ex_shifted": 0.3, "e_trc_lb": 0.3, "s_opt": 0.5,
                   "r_opt": 2.0, "divergent": False}, True),
    "ChannelThresholds": ({"capacity_at_q": 0.5, "r_star": 0.1, "r_inf": 0.05, "nu0": 1.0,
                           "nu1": 0.5, "e_x_at_1": 0.2}, True),
    "Codebook": ({"m": 2, "n": 1, "codewords": np.array([[0], [1]]),
                  "provenance": ("sampled", 0)}, False),
    "DecodingResult": ({"per_message_error": np.array([0.1, 0.2]), "average_error": 0.15}, False),
    "BoundCheck": ({"name": "mean_error_bound", "bound": 0.5, "empirical": 0.25,
                    "slack": 1e-12}, True),
    "EnsembleReport": ({"decoder": "pgm", "m": 2, "n": 1, "exhaustive": True, "trials": None,
                        "seed": None, "mean_pe": 0.25, "tilted_means": {1.0: 0.25},
                        "exponent_samples": (2.0,), "bound_checks": (CHECK,), "gamma": None,
                        "markov_checks": ()}, False),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    cls, (fields, by_value) = getattr(cqexp, name), RECORDS[name]
    record, twin = cls(**fields), cls(*fields.values())
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    shown = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields)
    assert repr(record) == f"{name}({shown})"
    if by_value:  # the fields, in order, are all the state: cli and to_json_dict read vars()
        assert list(vars(record)) == list(fields)
        assert record == twin and hash(record) == hash(twin) and record != fields
    else:
        assert record != twin and record == record and hash(record) == object.__hash__(record)


def test_record_construction_runs_the_hook_and_orders_the_fields(monkeypatch):
    # __post_init__ validates and normalizes, and is looked up per call, as a tracer patches it
    assert InputDistribution([1.0 + 1e-13, -1e-13]).probabilities.tolist() == [1.0 + 1e-13, 0.0]
    with pytest.raises(ValueError, match="purity"):
        cqexp.PauliChannelParams(0.4, 0.0)
    hooks = []
    original = DensityOperator.__post_init__
    monkeypatch.setattr(DensityOperator, "__post_init__",
                        lambda self: hooks.append(original(self)))
    DensityOperator(HALF)
    assert len(hooks) == 1
    # keywords in any order, positions and keywords mixed, and defaults give declaration order
    fields = RECORDS["RatePoint"][0]
    point = cqexp.RatePoint(**dict(reversed(fields.items())))
    assert list(vars(point)) == list(fields) and point == cqexp.RatePoint(*fields.values())
    report = RECORDS["EnsembleReport"][0]
    later = {k: v for k, v in report.items() if k not in ("decoder", "gamma", "markov_checks")}
    assert vars(cqexp.EnsembleReport("pgm", **dict(reversed(later.items())))) == report
    for args, kwargs in [((0.1,), {}), ((0.1, 0.2, 0.3, 0.3, 0.5, 2.0, False, 1), {}),
                         ((0.1,), {**fields}), ((), {**fields, "extra": 1})]:
        with pytest.raises(TypeError):
            cqexp.RatePoint(*args, **kwargs)
