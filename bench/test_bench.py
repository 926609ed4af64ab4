"""Self-tests of the benchmark: tracer transparency, self-time accounting,
metric names, and output checks that reject corrupted outputs.

Run from the repository root: ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, orbit_share  # noqa: E402

import cqexp  # noqa: E402
from cqexp import cli, ensemble, qlinalg  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _perturb(x: float) -> float:
    return x + 1e-9


# --- tracer --------------------------------------------------------------------


def test_wrapped_calls_return_the_same_values():
    channel = cqexp.channel_from_config(json.loads(Path("configs/pauli_mu095.json").read_text()))
    a, b = channel.states
    original = qlinalg.kron
    plain = (qlinalg.kron(a, b), cqexp.e0(channel, 0.3),
             list(cqexp.enumerate_codebooks(channel, 2, 1)))
    tracer = Tracer()
    with tracer.installed():
        assert ensemble.kron is not original and qlinalg.kron is not original
        traced = (ensemble.kron(a, b), cqexp.e0(channel, 0.3),
                  list(ensemble.enumerate_codebooks(channel, 2, 1)))
    assert np.array_equal(plain[0], traced[0])
    assert plain[1] == traced[1]
    assert [(bk.codewords.tolist(), p) for bk, p in plain[2]] == \
        [(bk.codewords.tolist(), p) for bk, p in traced[2]]
    table = tracer.span_table()
    assert table["qlinalg.kron"]["calls"] == 1
    assert table["ensemble.enumerate_codebooks"]["calls"] == len(plain[2]) + 1  # last next stops
    assert ensemble.kron is original and qlinalg.kron is original


@pytest.mark.parametrize("call", [
    lambda: qlinalg.kron(np.eye(64), np.eye(128)),
    lambda: qlinalg.hermitian_eig([[0.0, 1.0], [0.0, 0.0]]),
    lambda: qlinalg.DensityOperator(np.eye(2)),
    lambda: list(ensemble.enumerate_codebooks(
        cqexp.from_classical_dmc([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5]), 8, 3)),
])
def test_wrapped_calls_raise_the_same_exception(call):
    with pytest.raises(Exception) as plain:
        call()
    with Tracer().installed():
        with pytest.raises(Exception) as traced:
            call()
    assert type(traced.value) is type(plain.value)
    assert str(traced.value) == str(plain.value)


def test_self_times_sum_to_the_traced_wall_time(tmp_path):
    argvs = [
        ["thresholds", "--config", "configs/pauli_mu095.json", "--out", str(tmp_path / "t.json")],
        ["exponents", "--config", "configs/bsc_p010.json", "--grid", "0:0.5:40",
         "--out", str(tmp_path / "c.csv")],
        ["simulate", "--config", "configs/bsc_p010.json", "--m", "2", "--n", "3", "--exhaustive",
         "--gamma", "4", "--out", str(tmp_path / "s.json")],
    ]
    tracer = Tracer()
    start = time.perf_counter()
    with tracer.installed():
        codes = [cli.main(a) for a in argvs]
    wall = time.perf_counter() - start
    assert codes == [0, 0, 0]
    self_sum = sum(v["self_s"] for v in tracer.span_table().values())
    assert self_sum == pytest.approx(wall, rel=0.03)
    assert self_sum == pytest.approx(tracer.root_seconds(), rel=1e-9)


def test_orbit_share_counts_the_87_orbits_of_the_binary_4x3_ensemble():
    books = [np.reshape(flat, (4, 3)) for flat in itertools.product(range(2), repeat=12)]
    assert orbit_share(books) == pytest.approx(1.0 - 87 / 4096)
    # a coordinate permutation and a message permutation of one codebook share its orbit
    book = np.array([[0, 1, 1], [1, 0, 0]])
    assert orbit_share([book, book[::-1][:, [2, 0, 1]]]) == 0.5


# --- metric names --------------------------------------------------------------


def test_every_metric_name_is_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


def test_layer_metrics_match_the_declared_per_layer_set(tmp_path):
    tracer = Tracer()
    with tracer.installed():
        cli.main(["thresholds", "--config", "configs/bsc_p010.json", "--out", str(tmp_path / "t")])
    metrics = run.layer_metrics([tracer.summary()], [1.0], [1.1])
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert all(NAME.fullmatch(n) for n in metrics)


def test_end_to_end_metrics_match_the_declared_set(tmp_path):
    thr = run._thresholds("configs/bsc_p010.json", tmp_path / "t.json", "bsc_p010")
    thr.items = 1
    wl = run.Workload(["configs/bsc_p010.json"], [[thr]])
    tally = run.Tally()
    metrics, detail = run.measure_end_to_end(wl, 0.0, tally)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert tally.failed == 0 and tally.attempted == run.VALIDATES_PER_ROUND + 1
    assert detail["passes"] == 1 and detail["thresholds_s"] > 0
    assert all(v > 0 for v, _ in metrics.values())


def test_a_timed_out_or_crashing_invocation_counts_as_failed(tmp_path, monkeypatch):
    thr = run._thresholds("configs/bsc_p010.json", tmp_path / "t.json", "bsc_p010")
    monkeypatch.setattr(run, "INVOCATION_TIMEOUT_S", 0.01)
    tally = run.Tally()
    run.timed_invocation(thr, run._env(), tally)
    assert (tally.attempted, tally.failed) == (1, 1)

    def crash(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "main", crash)
    tally = run.Tally()
    run._inprocess_pass(run.Workload([], [[thr]]), tally)
    assert (tally.attempted, tally.failed) == (1, 1)


# --- output checks reject corrupted outputs ------------------------------------


def test_curve_check_rejects_a_perturbed_value(tmp_path):
    out = tmp_path / "c.csv"
    assert cli.main(["exponents", "--config", "configs/pauli_mu095.json", "--grid",
                     run.CURVE_GRID, "--out", str(out)]) == 0
    text = out.read_text()
    rates = run._grid(run.CURVE_GRID)
    reference = checks.reference_text("pauli_mu095.csv")
    capacity = json.loads(checks.reference_text("pauli_mu095.json"))["capacity_at_q"]
    assert checks.check_curve(text, rates, capacity, reference) == []

    lines = text.splitlines()
    fields = lines[5].split(",")
    fields[1] = "%.12e" % _perturb(float(fields[1]))
    corrupted = "\n".join(lines[:5] + [",".join(fields)] + lines[6:]) + "\n"
    assert checks.check_curve(corrupted, rates, capacity, reference)
    assert checks.check_curve(text.replace("E_trc_lb", "E_lb"), rates, capacity, reference)


def test_thresholds_check_rejects_a_perturbed_value():
    text = checks.reference_text("pauli_mu095.json")
    assert checks.check_thresholds(text, text, checks.PAULI_095_ANCHORS) == []
    doc = json.loads(text)
    doc["r_star"] = _perturb(doc["r_star"])
    assert checks.check_thresholds(json.dumps(doc), text, checks.PAULI_095_ANCHORS)


def test_monte_carlo_check_rejects_a_flipped_verdict_or_perturbed_sample(tmp_path):
    out = tmp_path / "mc.json"
    m, n, trials, seed = 4, 2, 40, 11
    code = cli.main(["simulate", "--config", "configs/simulate_mu095.json", "--m", str(m),
                     "--n", str(n), "--trials", str(trials), "--seed", str(seed),
                     "--out", str(out)])
    channel_doc = json.loads(Path("configs/simulate_mu095.json").read_text())["channel"]
    oracle = [0, 7, trials - 1]

    def check(doc, exit_code=code):
        return checks.check_monte_carlo(json.dumps(doc), exit_code, channel_doc, m, n,
                                        trials, seed, oracle)

    doc = json.loads(out.read_text())
    assert check(doc) == []

    flipped = json.loads(out.read_text())
    first = flipped["bound_checks"][0]
    first["verdict"] = "FAIL" if first["verdict"] == "PASS" else "PASS"
    assert check(flipped)
    assert check(doc, exit_code=2 if code == 0 else 0)

    for key in ("sample", "mean"):
        bad = json.loads(out.read_text())
        if key == "sample":
            bad["exponent_samples"][7] = _perturb(bad["exponent_samples"][7])
        else:
            bad["mean_pe"] = _perturb(bad["mean_pe"])
        assert check(bad), key


def test_exhaustive_markov_check_rejects_a_flipped_verdict_or_perturbed_value():
    reference = checks.reference_text("exact_markov.json")
    assert checks.check_exhaustive_markov(reference, 0, reference) == []
    assert checks.check_exhaustive_markov(reference, 2, reference)

    flipped = json.loads(reference)
    flipped["markov_checks"][1]["verdict"] = "FAIL"
    assert checks.check_exhaustive_markov(json.dumps(flipped), 0, reference)

    for path in (("mean_pe",), ("tilted_means", "2"), ("markov_checks", 0, "lhs_probability")):
        bad = json.loads(reference)
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = _perturb(node[path[-1]])
        assert checks.check_exhaustive_markov(json.dumps(bad), 0, reference), path


def test_generated_channel_is_seeded_and_its_capacity_is_independent():
    doc, capacity = run.generated_channel(5)
    assert run.generated_channel(5)[0] == doc
    assert run.generated_channel(6)[0] != doc
    channel = cqexp.channel_from_config(doc)
    assert channel.dim == run.GENERATED_DIM and channel.alphabet_size == run.GENERATED_STATES
    assert np.abs(channel.states[0].matrix.imag).max() > 0  # complex, not real
    assert min(float(s.eigenvalues.min()) for s in channel.states) > 0.0  # full rank
    assert math.isclose(cqexp.holevo_information(channel), capacity, abs_tol=1e-12)
