"""Acceptance gate: one test per shipped guarantee.

Each test prints exactly one "[PASS] criterion N: ..." or "[FAIL] ..." line
(run with -s to see them all) and then asserts.  Criterion 9 is a coverage
statement: it requires criteria 3, 6 and 7 to have passed in the same run.
"""

import math
import time

import numpy as np

from cqexp import (
    PauliChannelParams,
    binary_pauli,
    crossover_rate,
    e0,
    ex_function,
    expurgated_divergence_rate,
    from_classical_dmc,
    holevo_information,
    random_coding_exponent,
    run_ensemble,
    sweep,
    verify_markov_bound,
)
from helpers import (
    classical_e0,
    classical_ex,
    classical_mi,
    pauli_channel,
    random_channel,
    random_dmc,
)

_RESULTS: dict[int, bool] = {}


def _record(num: int, ok: bool, detail: str) -> bool:
    _RESULTS[num] = bool(ok)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return bool(ok)


def test_criterion_1_capacity_anchor():
    cap = holevo_information(pauli_channel(0.95))
    ok = abs(cap - 0.659) <= 0.005
    assert _record(1, ok, f"capacity at uniform inputs = {cap:.6f} bits "
                          f"(target 0.659 +- 0.005)")


def test_criterion_2_crossover_anchors():
    targets = {0.95: 0.044, 0.90: 0.025, 0.70: 0.003}
    got = {mu: crossover_rate(pauli_channel(mu)) for mu in targets}
    ok = all(abs(got[mu] - t) <= 0.002 for mu, t in targets.items())
    detail = ", ".join(f"mu={mu:g}: {got[mu]:.4f}" for mu in targets)
    assert _record(2, ok, f"crossover rates {detail} "
                          f"(targets 0.044 / 0.025 / 0.003, +- 0.002)")


def test_criterion_3_curve_structure():
    ch = pauli_channel(0.95)
    start = time.perf_counter()
    curve = sweep(ch, np.linspace(0.0, 0.7, 200))
    elapsed = time.perf_counter() - start
    r_star = crossover_rate(ch)
    cap = holevo_information(ch)
    below = [p for p in curve if p.rate < r_star - 1e-3]
    above = [p for p in curve if p.rate > r_star + 1e-3]
    tail = [p for p in curve if p.rate >= cap + 1e-3]
    dominates = all(p.e_trc_lb >= p.e_r for p in curve)
    strict = all(p.e_trc_lb - p.e_r > 1e-6 for p in below)
    equal = all(p.e_trc_lb - p.e_r < 1e-9 for p in above)
    vanish = all(p.e_trc_lb < 1e-9 and p.e_r < 1e-9 for p in tail)
    timed = elapsed < 10.0
    ok = dominates and strict and equal and vanish and timed and below and above and tail
    assert _record(3, bool(ok),
                   f"200-point curve: lower bound dominates ({dominates}), strict gap "
                   f"below the crossover ({strict}), equality above it ({equal}), both "
                   f"branches vanish past capacity ({vanish}), {elapsed:.2f}s < 10s")


def test_criterion_4_classical_oracle_equivalence():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        kx = int(rng.integers(2, 5))
        ky = int(rng.integers(2, 5))
        w, q = random_dmc(rng, kx, ky)
        ch = from_classical_dmc(w, q)
        for s in (0.0, 0.3, 0.7, 1.0):
            worst = max(worst, abs(e0(ch, s) - classical_e0(w, q, s)))
        for r in (1.0, 2.0, 4.0):
            worst = max(worst, abs(ex_function(ch, r) - classical_ex(w, q, r)))
        worst = max(worst, abs(holevo_information(ch) - classical_mi(w, q)))
    ok = worst < 1e-10
    assert _record(4, ok, f"20 random diagonal embeddings: largest deviation from the "
                          f"classical scalar formulas = {worst:.2e} (< 1e-10)")


def test_criterion_5_orthogonal_closed_forms():
    ch = binary_pauli(PauliChannelParams(mu=1.0, theta=0.0))
    e0_err = max(abs(e0(ch, float(s)) - s) for s in np.linspace(0.0, 1.0, 21))
    er_err = max(abs(random_coding_exponent(ch, float(r)).value - (1.0 - r))
                 for r in np.linspace(0.0, 1.0, 21))
    cap_err = abs(holevo_information(ch) - 1.0)
    rinf_err = abs(expurgated_divergence_rate(ch) - 0.5)
    ok = e0_err <= 1e-10 and er_err <= 1e-9 and cap_err <= 1e-10 and rinf_err <= 1e-12
    assert _record(5, ok, f"orthogonal pure states: |E0(s)-s| <= {e0_err:.1e}, "
                          f"|Er(R)-(1-R)| <= {er_err:.1e}, |capacity-1| = {cap_err:.1e}, "
                          f"|divergence rate-0.5| = {rinf_err:.1e}")


def test_criterion_6_exact_quantile_bound():
    ch = pauli_channel(0.95)
    checks = [verify_markov_bound(ch, 2, 2, r, g)
              for r in (1.0, 2.0, 4.0) for g in (1.0, 2.0, 4.0, 16.0)]
    ok = all(c.verdict == "PASS" for c in checks)
    margin = min(c.bound - c.empirical for c in checks)
    assert _record(6, ok, f"exhaustive m=2 n=2 quantile bound holds at all 12 (r, gamma) "
                          f"pairs, smallest margin {margin:.4f}")


def test_criterion_7_finite_blocklength_bounds():
    ch = pauli_channel(0.95)
    start = time.perf_counter()
    reports = [run_ensemble(ch, 2, 2, exhaustive=True),
               run_ensemble(ch, 4, 4, trials=2000, seed=7),
               run_ensemble(ch, 4, 6, trials=2000, seed=7)]
    elapsed = time.perf_counter() - start
    num_checks = sum(len(r.bound_checks) for r in reports)
    ok = all(r.all_passed for r in reports) and elapsed < 60.0
    assert _record(7, ok, f"ensemble bounds: {num_checks} checks over one exhaustive and "
                          f"two sampled instances, all PASS, {elapsed:.1f}s < 60s")


def test_criterion_8_slope_identity():
    rng = np.random.default_rng(4242)
    step = 1e-5
    worst = 0.0
    for _ in range(10):
        ch = random_channel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        slope = (e0(ch, step) - e0(ch, -step)) / (2.0 * step)
        worst = max(worst, abs(slope - holevo_information(ch)))
    ok = worst < 1e-5
    assert _record(8, ok, f"slope of E0 at s=0 matches the capacity formula on 10 random "
                          f"channels, worst deviation {worst:.2e} (< 1e-5)")


def test_criterion_9_concentration_coverage():
    covered = (3, 6, 7)
    missing = [n for n in covered if n not in _RESULTS]
    ok = not missing and all(_RESULTS[n] for n in covered)
    if missing:
        detail = (f"criteria {missing} did not run; the concentration property is only "
                  f"certified by a full-module run")
    else:
        detail = ("asymptotic concentration has no desk-scale test; certified via curve "
                  "structure (3), the exact quantile bound (6) and the ensemble-average "
                  "bounds (7), which passed in this run")
    assert _record(9, ok, detail)
