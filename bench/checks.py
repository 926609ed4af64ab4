"""Output checks for the benchmark's cqexp invocations.

Each check takes what one invocation produced (exit code and output text)
and returns a list of problems; an empty list means the output is correct.
References in ``reference/`` were recorded from the CLI at the commit named
in README.md; shipped-config outputs must match them to 1e-12 (``inf``
exactly).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
CSV_HEADER = "R,E_r,E_ex_2R_plus_R,E_trc_lb,s_opt,r_opt,divergent_flag"
THRESHOLD_KEYS = {"capacity_at_q", "r_star", "r_inf", "nu0", "nu1", "e_x_at_1"}
TOL = 1e-12
# Acceptance anchors of the Pauli mu = 0.95 channel: (value, tolerance).
PAULI_095_ANCHORS = {"capacity_at_q": (0.659, 0.005), "r_star": (0.044, 0.002)}


def num(x) -> float:
    """A JSON or CSV number, with the CLI's "inf" spelling."""
    return math.inf if x == "inf" else float(x)


def close(a: float, b: float, tol: float = TOL) -> bool:
    """Equal within tol (relative above magnitude 1); infinities must match exactly."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(b))


def reference_text(name: str) -> str | None:
    path = REFERENCE_DIR / name
    return path.read_text(encoding="utf-8") if path.exists() else None


def parse_curve(text: str) -> tuple[str, np.ndarray]:
    lines = text.splitlines()
    rows = [[num(x) for x in line.split(",")] for line in lines[1:]]
    return (lines[0] if lines else ""), np.array(rows, dtype=float).reshape(len(rows), -1)


def check_curve(text: str, rates: np.ndarray, capacity: float,
                reference: str | None) -> list[str]:
    """`cqexp exponents` CSV: structure, branch maximum, E_r shape, reference."""
    try:
        header, rows = parse_curve(text)
    except ValueError as exc:
        return [f"unparsable CSV: {exc}"]
    if header != CSV_HEADER:
        return [f"header {header!r} differs from {CSV_HEADER!r}"]
    if rows.shape != (rates.size, 7):
        return [f"CSV has shape {rows.shape}, expected ({rates.size}, 7)"]
    problems = []
    rate, e_r, e_ex, lb, _, _, flag = rows.T
    if np.isnan(rows).any():
        problems.append("CSV holds NaN")
    if not all(close(a, b) for a, b in zip(rate, rates)):
        problems.append("rate column differs from the requested grid")
    if not np.array_equal(lb, np.maximum(e_r, e_ex)):
        problems.append("E_trc_lb != max(E_r, E_ex_2R_plus_R)")
    if not np.array_equal(flag == 1.0, np.isinf(e_ex)):
        problems.append("divergent_flag disagrees with an infinite E_ex_2R_plus_R")
    if np.any(np.diff(e_r) > TOL):
        problems.append("E_r increases with the rate")
    if np.any(e_r[rate >= capacity] != 0.0):
        problems.append("E_r is not 0 at rates >= capacity_at_q")
    if reference is not None:
        _, ref = parse_curve(reference)
        same = ref.shape == rows.shape and all(
            close(a, b) for a, b in zip(rows.ravel(), ref.ravel()))
        if not same:
            problems.append("curve differs from the reference output beyond 1e-12")
    return problems


def check_thresholds(text: str, reference: str | None, anchors: dict | None = None,
                     capacity: float | None = None) -> list[str]:
    """`cqexp thresholds` JSON: keys, finiteness, reference and anchors.

    ``capacity`` is an independent Holevo value the output must match to 1e-9.
    """
    try:
        doc = {k: num(v) for k, v in json.loads(text).items()}
    except (ValueError, AttributeError, TypeError) as exc:
        return [f"unparsable thresholds JSON: {exc}"]
    if set(doc) != THRESHOLD_KEYS:
        return [f"thresholds keys {sorted(doc)} differ from {sorted(THRESHOLD_KEYS)}"]
    problems = []
    if any(math.isnan(v) for v in doc.values()):
        problems.append("thresholds hold NaN")
    if reference is not None:
        ref = {k: num(v) for k, v in json.loads(reference).items()}
        bad = [k for k in THRESHOLD_KEYS if not close(doc[k], ref[k])]
        if bad:
            problems.append(f"thresholds {bad} differ from the reference beyond 1e-12")
    for key, (value, tol) in (anchors or {}).items():
        if not abs(doc[key] - value) <= tol:
            problems.append(f"{key} = {doc[key]} misses the anchor {value} +- {tol}")
    if capacity is not None and not abs(doc["capacity_at_q"] - capacity) <= 1e-9:
        problems.append(f"capacity_at_q {doc['capacity_at_q']} != independent {capacity}")
    return problems


def check_validate(exit_code: int, text: str) -> list[str]:
    if exit_code != 0:
        return [f"validate exited {exit_code}"]
    return [] if text.startswith("OK: ") else ["validate output does not start with 'OK: '"]


def _verdict_problems(doc: dict) -> list[str]:
    problems = []
    for chk in doc["bound_checks"]:
        expected = "PASS" if num(chk["empirical"]) <= num(chk["bound"]) + chk["slack"] else "FAIL"
        if chk["verdict"] != expected:
            problems.append(
                f"{chk['name']}: verdict {chk['verdict']} but the numbers say {expected}")
    return problems


def check_monte_carlo(text: str, exit_code: int, channel_doc: dict, m: int, n: int,
                      trials: int, seed: int, oracle_trials) -> list[str]:
    """`cqexp simulate` Monte-Carlo report.

    Exit 0 or 2 must agree with the verdicts, every verdict with its
    numbers, the means with the samples, and the listed trials with the
    public slow path (sample_codebook, product_state, pgm_povm,
    error_probability) to 1e-12.  A 3-sigma FAIL is a correct output.
    """
    try:
        doc = json.loads(text)
        samples = np.array([num(x) for x in doc["exponent_samples"]])
        tilted = {float(r): num(v) for r, v in doc["tilted_means"].items()}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable simulate report: {exc}"]
    shape = (doc.get("decoder"), doc.get("m"), doc.get("n"), doc.get("trials"),
             doc.get("seed"), doc.get("exhaustive"), samples.size)
    if shape != ("pgm", m, n, trials, seed, False, trials):
        return [f"report header {shape} does not describe the requested run"]
    problems = _verdict_problems(doc)
    any_fail = any(c["verdict"] != "PASS" for c in doc["bound_checks"])
    if exit_code != (2 if any_fail else 0):
        problems.append(f"exit code {exit_code} disagrees with the verdicts")
    pes = np.exp2(-n * samples)
    if not close(doc["mean_pe"], float(pes.mean())):
        problems.append("mean_pe differs from the mean of the sampled errors")
    for r, value in tilted.items():
        if not close(value, float((pes ** (1.0 / r)).mean())):
            problems.append(f"tilted mean r={r:g} differs from the samples")
    problems += _oracle_problems(samples, channel_doc, m, n, trials, seed, oracle_trials)
    return problems


def _oracle_problems(samples, channel_doc, m, n, trials, seed, oracle_trials) -> list[str]:
    from cqexp import (channel_from_config, error_probability, pgm_povm, product_state,
                       sample_codebook)

    channel = channel_from_config(channel_doc)
    sub_seeds = np.random.SeedSequence(seed).generate_state(trials)
    problems = []
    for i in oracle_trials:
        book = sample_codebook(channel, m, n, int(sub_seeds[i]))
        states = [product_state(channel, w) for w in book.codewords]
        pe = error_probability(channel, book, pgm_povm(states)).average_error
        expected = -math.log2(pe) / n if pe > 0.0 else math.inf
        if not close(float(samples[i]), expected):
            problems.append(f"trial {i}: exponent sample {samples[i]} != oracle {expected}")
    return problems


def check_exhaustive_markov(text: str, exit_code: int, reference: str) -> list[str]:
    """`cqexp simulate --exhaustive --gamma` report: all PASS, numbers as recorded."""
    try:
        doc = json.loads(text)
        ref = json.loads(reference)
        pairs = [("mean_pe", doc["mean_pe"], ref["mean_pe"])]
        pairs += [(f"tilted r={r}", num(doc["tilted_means"][r]), num(v))
                  for r, v in ref["tilted_means"].items()]
        pairs += [(f"lhs_probability r={b['r']:g}", a["lhs_probability"], b["lhs_probability"])
                  for a, b in zip(doc["markov_checks"], ref["markov_checks"], strict=True)]
        verdicts = [c["verdict"] for c in doc["bound_checks"] + doc["markov_checks"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable exhaustive report: {exc}"]
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    if not verdicts or any(v != "PASS" for v in verdicts):
        problems.append(f"verdicts {verdicts} are not all PASS")
    if (doc.get("m"), doc.get("n"), doc.get("exhaustive")) != (ref["m"], ref["n"], True):
        problems.append("report does not describe the recorded exhaustive run")
    problems += _verdict_problems(doc)
    problems += [f"{name} = {a} differs from the reference {b}"
                 for name, a, b in pairs if not close(num(a), num(b))]
    return problems
