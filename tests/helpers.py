"""Independent oracles shared by the test modules.

Everything here is deliberately computed along a different route than the
package: 2x2 eigenvalues from the characteristic polynomial, qubit overlaps
from Bloch-vector closed forms, exponent functions from their classical
scalar formulas on diagonal embeddings, the exponent searches one rate and
one scalar probe at a time, the codebook enumeration one itertools.product
tuple at a time.  Agreement between the two routes is what the tests assert.
"""

from __future__ import annotations

import itertools
import math
import os
import pathlib
import subprocess
import sys
from functools import lru_cache
from typing import Iterator

import numpy as np

from cqexp import (
    CQChannel,
    Codebook,
    DensityOperator,
    InputDistribution,
    PauliChannelParams,
    RatePoint,
    binary_pauli,
    e0,
    ex_function,
    expurgated_divergence_rate,
)
from cqexp.ensemble import _check_book
from cqexp.exponents import _R_GRID, _S_GRID, DIVERGENCE_MARGIN
from cqexp.search import GOLDEN, MAX_ITER, PARAM_TOL

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def pauli_channel(mu: float, theta: float = math.pi / 6) -> CQChannel:
    return binary_pauli(PauliChannelParams(mu=mu, theta=theta))


def char_poly_eigs_2x2(h) -> tuple[float, float]:
    """2x2 Hermitian eigenvalues from the characteristic polynomial (descending)."""
    h = np.asarray(h, dtype=complex)
    mean = (h[0, 0].real + h[1, 1].real) / 2.0
    disc = math.sqrt(((h[0, 0].real - h[1, 1].real) / 2.0) ** 2 + abs(h[0, 1]) ** 2)
    return mean + disc, mean - disc


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def bloch_vector(m) -> np.ndarray:
    """Bloch components of a 2x2 density matrix: r_k = Tr(m sigma_k)."""
    m = np.asarray(m, dtype=complex)
    return np.array([np.trace(m @ p).real for p in PAULI])


def qubit_overlap_from_bloch(ra, rb) -> float:
    """Closed-form Tr{sqrt(a) sqrt(b)} for qubits with Bloch vectors ra, rb.

    With u_i = sqrt(p+) + sqrt(p-) and v_i = sqrt(p+) - sqrt(p-) for the
    eigenvalues (1 +- |r_i|)/2, the overlap is (u1 u2 + v1 v2 cos phi) / 2.
    """
    ra, rb = np.asarray(ra, float), np.asarray(rb, float)
    la, lb = np.linalg.norm(ra), np.linalg.norm(rb)

    def uv(l):
        return math.sqrt((1 + l) / 2) + math.sqrt((1 - l) / 2), \
               math.sqrt((1 + l) / 2) - math.sqrt((1 - l) / 2)

    ua, va = uv(la)
    ub, vb = uv(lb)
    cos_phi = float(ra @ rb) / (la * lb) if la > 0 and lb > 0 else 0.0
    return 0.5 * (ua * ub + va * vb * cos_phi)


def pauli_pair_overlap(mu: float, theta: float) -> float:
    """Overlap of the two binary-channel states: closed form in mu and theta."""
    a2 = 2.0 * mu - 1.0
    root = math.sqrt(1.0 - a2)
    return (1.0 + root) / 2.0 - math.cos(2.0 * theta) * (1.0 - root) / 2.0


# --- classical scalar formulas (oracles for the diagonal embedding) ----------


def classical_e0(w, q, s: float) -> float:
    w, q = np.asarray(w, float), np.asarray(q, float)
    inner = (q[:, None] * w ** (1.0 / (1.0 + s))).sum(axis=0)
    return float(-np.log2(np.sum(inner ** (1.0 + s))))


def classical_ex(w, q, r: float) -> float:
    w, q = np.asarray(w, float), np.asarray(q, float)
    bh = np.sqrt(w) @ np.sqrt(w).T  # pairwise Bhattacharyya kernel
    return float(-r * np.log2(q @ (bh ** (1.0 / r)) @ q))


def classical_mi(w, q) -> float:
    w, q = np.asarray(w, float), np.asarray(q, float)

    def ent(p):
        p = p[p > 0]
        return float(-(p * np.log2(p)).sum())

    return ent(q @ w) - float(sum(qx * ent(row) for qx, row in zip(q, w)))


# --- random instances --------------------------------------------------------


def random_dmc(rng: np.random.Generator, kx: int, ky: int) -> tuple[np.ndarray, np.ndarray]:
    """Random row-stochastic matrix and input distribution (strictly positive)."""
    w = rng.dirichlet(np.ones(ky) * 2.0, size=kx)
    q = rng.dirichlet(np.ones(kx) * 2.0)
    return w, q


def random_density(rng: np.random.Generator, d: int) -> DensityOperator:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    qmat, r = np.linalg.qr(g)
    return qmat * (np.diag(r) / np.abs(np.diag(r)))


def random_channel(rng: np.random.Generator, k: int, d: int) -> CQChannel:
    states = tuple(random_density(rng, d) for _ in range(k))
    q = InputDistribution(rng.dirichlet(np.ones(k) * 2.0))
    return CQChannel(states, q)


# --- scalar search (oracle for the lane-wise search) -------------------------


def golden_section_maximize(f, lo: float, hi: float) -> tuple[float, float]:
    """Maximize a unimodal f on [lo, hi] to within 1e-9 in the argument.

    Returns (x, f(x)) for the best point seen, interior probes and both
    endpoints included, so a maximum sitting exactly on the boundary is
    never lost to interval shrinkage.
    """
    a, b = float(lo), float(hi)
    if b < a:
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    best_x, best_f = a, f(a)
    fb_end = f(b)
    if fb_end > best_f:
        best_x, best_f = b, fb_end
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(MAX_ITER):
        if b - a <= PARAM_TOL:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    for x, fx in ((c, fc), (d, fd)):
        if fx > best_f:
            best_x, best_f = x, fx
    return best_x, best_f


def scalar_maximize_on_grid(f, grid, values) -> tuple[float, float]:
    """One rate's grid scan plus scalar golden-section refinement."""
    k = int(np.argmax(values))
    lo = grid[k - 1] if k > 0 else grid[0]
    hi = grid[k + 1] if k + 1 < grid.size else grid[-1]
    x, fx = golden_section_maximize(f, lo, hi)
    if values[k] >= fx:
        return float(grid[k]), float(values[k])
    return float(x), float(fx)


@lru_cache(maxsize=8)
def scalar_grids(channel: CQChannel) -> tuple[np.ndarray, np.ndarray]:
    """E0 and Ex on the package's search grids, one scalar call per point."""
    return (np.array([e0(channel, s) for s in _S_GRID.tolist()]),
            np.array([ex_function(channel, r) for r in _R_GRID.tolist()]))


def scalar_random_coding(channel: CQChannel, rate: float) -> tuple[float, float]:
    """(E_r, s_opt) at one rate, one scalar E0 call per probe."""
    e0_grid, _ = scalar_grids(channel)
    s_opt, e_r = scalar_maximize_on_grid(lambda s: e0(channel, s) - s * rate, _S_GRID,
                                         e0_grid - _S_GRID * rate)
    return (0.0, 0.0) if e_r <= 0.0 or s_opt <= 1e-12 else (e_r, s_opt)


def scalar_expurgated(channel: CQChannel, rate: float) -> tuple[float, float, bool]:
    """(E_ex, r_opt, converged) at one rate, one scalar Ex call per probe."""
    _, ex_grid = scalar_grids(channel)
    vals = ex_grid - _R_GRID * rate
    if int(np.argmax(vals)) == _R_GRID.size - 1 and vals[-1] > vals[-2]:
        if rate < 2.0 * expurgated_divergence_rate(channel) - DIVERGENCE_MARGIN:
            return math.inf, math.inf, True
        return float(vals[-1]), float(_R_GRID[-1]), False
    r_opt, e_ex = scalar_maximize_on_grid(lambda r: ex_function(channel, r) - r * rate,
                                          _R_GRID, vals)
    return e_ex, r_opt, True


def scalar_rate_point(channel: CQChannel, rate: float) -> RatePoint:
    """max(E_r(R), E_ex(2R) + R) at one rate from the two scalar searches."""
    e_r, s_opt = scalar_random_coding(channel, rate)
    e_ex, r_opt, _ = scalar_expurgated(channel, 2.0 * rate)
    shifted = e_ex + rate
    return RatePoint(rate=float(rate), e_r=e_r, e_ex_shifted=shifted,
                     e_trc_lb=max(e_r, shifted), s_opt=s_opt, r_opt=r_opt,
                     divergent=math.isinf(shifted))


# --- codebook enumeration (oracle for the mixed-radix codeword arrays) --------


def product_codebooks(channel: CQChannel, m: int, n: int
                      ) -> Iterator[tuple[Codebook, float]]:
    """Yield every codebook with its product probability under Q x ... x Q."""
    _check_book(channel, m, n, enumerated=True)
    q = channel.q.probabilities
    for idx, flat in enumerate(itertools.product(range(channel.alphabet_size), repeat=m * n)):
        words = np.reshape(flat, (m, n))
        prob = float(np.prod(q[list(flat)]))
        yield Codebook(m=m, n=n, codewords=words, provenance=("enumerated", idx)), prob


# --- memory probe ------------------------------------------------------------


def tracemalloc_peaks(setup: str, statements) -> list[int]:
    """Tracemalloc peak, in bytes, of each statement, run in order in a fresh interpreter
    after ``setup``, which is not traced (imports and a warm-up run go there).  The child
    imports cqexp from this checkout and these helpers as ``helpers``.  (ru_maxrss would not
    do: a child starts with its parent's, here the test process's.)"""
    traced = "".join(f"tracemalloc.start()\n{statement}\n"
                     "print(tracemalloc.get_traced_memory()[1])\ntracemalloc.stop()\n"
                     for statement in statements)
    tests = pathlib.Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    done = subprocess.run([sys.executable, "-c", f"import tracemalloc\n{setup}\n{traced}"],
                          env=env, check=True, capture_output=True, text=True)
    return [int(line) for line in done.stdout.split()]
