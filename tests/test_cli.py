"""Command-line interface: output formats, flag handling, exit codes."""

import gc
import importlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import cqexp
from cqexp import (
    BoundCheck,
    EnsembleReport,
    crossover_rate,
    channel_from_config,
    ex_function,
    holevo_information,
    overlap_exponent_half_var,
    overlap_exponent_mean,
    product_state,
    run_ensemble,
    sweep,
)
from cqexp import cli

HEADER = "R,E_r,E_ex_2R_plus_R,E_trc_lb,s_opt,r_opt,divergent_flag"

PAULI_DOC = {"kind": "pauli", "mu": 0.95, "theta": 0.5235987755982988, "q": [0.5, 0.5]}
ORTHO_DOC = {"kind": "pauli", "mu": 1.0, "theta": 0.0}
ROOT = pathlib.Path(__file__).resolve().parent.parent


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# --- exponents ---------------------------------------------------------------


def test_exponents_csv_shape(tmp_path):
    cfg = write_config(tmp_path, PAULI_DOC)
    out = tmp_path / "curve.csv"
    assert cli.main(["exponents", "--config", cfg, "--grid", "0:0.5:21",
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 22
    assert all(len(line.split(",")) == 7 for line in lines[1:])


def test_exponents_values_round_trip(tmp_path):
    cfg = write_config(tmp_path, PAULI_DOC)
    out = tmp_path / "curve.csv"
    cli.main(["exponents", "--config", cfg, "--grid", "0:0.5:11", "--out", str(out)])
    channel = channel_from_config(PAULI_DOC)
    curve = sweep(channel, np.linspace(0.0, 0.5, 11))
    for line, point in zip(out.read_text().splitlines()[1:], curve):
        fields = line.split(",")
        assert float(fields[0]) == pytest.approx(point.rate, rel=1e-10, abs=1e-12)
        assert float(fields[1]) == pytest.approx(point.e_r, rel=1e-10, abs=1e-12)
        assert float(fields[3]) == pytest.approx(point.e_trc_lb, rel=1e-10, abs=1e-12)
        assert int(fields[6]) == int(point.divergent)


def test_exponents_divergent_rows(tmp_path):
    cfg = write_config(tmp_path, ORTHO_DOC)
    out = tmp_path / "curve.csv"
    assert cli.main(["exponents", "--config", cfg, "--grid", "0:0.8:5",
                     "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    # doubled rate below 1 bit: the shifted branch diverges
    for fields in rows[:3]:  # R = 0, 0.2, 0.4
        assert fields[2] == "inf" and fields[3] == "inf" and fields[5] == "inf"
        assert fields[6] == "1"
    for fields in rows[3:]:  # R = 0.6, 0.8
        assert fields[2] != "inf"
        assert fields[6] == "0"


def test_exponents_stdout_default(tmp_path, capsys):
    cfg = write_config(tmp_path, PAULI_DOC)
    assert cli.main(["exponents", "--config", cfg, "--grid", "0:0.2:3"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(HEADER + "\n")


def test_exponents_rates_from_config(tmp_path):
    doc = {"channel": PAULI_DOC, "rates": [0.1, 0.2, 0.3]}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "curve.csv"
    assert cli.main(["exponents", "--config", cfg, "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [0.1, 0.2, 0.3]
    # the flag wins over config rates
    assert cli.main(["exponents", "--config", cfg, "--grid", "0:0.1:2",
                     "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3


def test_exponents_grid_from_config(tmp_path):
    doc = {"channel": PAULI_DOC, "grid": {"min": 0.0, "max": 0.3, "count": 4}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "curve.csv"
    assert cli.main(["exponents", "--config", cfg, "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == pytest.approx([0.0, 0.1, 0.2, 0.3])


@pytest.mark.parametrize("grid", ["-0.1:0.5:10", "0:0.5:1", "0.5:0.1:10", "abc", "0:1",
                                  "a:b:c"])
def test_exponents_bad_grid_flag(tmp_path, capsys, grid):
    cfg = write_config(tmp_path, PAULI_DOC)
    # "=" form so values with a leading dash survive argparse
    assert cli.main(["exponents", "--config", cfg, f"--grid={grid}"]) == 1
    assert "grid" in capsys.readouterr().err


def test_exponents_non_finite_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, {"channel": PAULI_DOC,
                                  "grid": {"min": 0.0, "max": math.inf, "count": 3}})
    assert cli.main(["exponents", "--config", cfg]) == 1
    assert "grid" in capsys.readouterr().err
    for grid in ("0:inf:3", "nan:0.5:3", "0:nan:3"):
        assert cli.main(["exponents", "--config", cfg, f"--grid={grid}"]) == 1
        assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize("doc, needle", [
    ({"rates": "abc"}, "'rates'"),
    ({"rates": [0.1, [0.2, 0.3]]}, "'rates'"),
    ({"rates": {"a": 0.1}}, "'rates'"),
    ({"rates": []}, "empty"),
    ({"rates": [0.3, 0.1]}, "sorted"),
    ({"grid": {"min": "zero", "max": 0.5, "count": 3}}, "'grid'"),
    ({"grid": {"min": 0.0, "max": 0.5}}, "'grid'"),
    ({"grid": {"min": 0.0, "max": 0.5, "count": 2.7}}, "'grid'"),
    ({"grid": {"min": 0.0, "max": 0.5, "count": math.inf}}, "'grid'"),
    ({"rates": [False, True]}, "'rates'"),
    ({"rates": [0.1, "0.2"]}, "'rates'"),
    ({"rates": [10 ** 400]}, "'rates'"),
    ({"grid": {"min": False, "max": 0.5, "count": 3}}, "'grid'"),
    ({"grid": {"min": 0.0, "max": True, "count": 3}}, "'grid'"),
])
def test_exponents_malformed_config_grid(tmp_path, capsys, doc, needle):
    cfg = write_config(tmp_path, {"channel": PAULI_DOC, **doc})
    assert cli.main(["exponents", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err
    if "rates" in doc:  # the CLI prints the library's own message
        with pytest.raises(ValueError) as exc:
            sweep(channel_from_config(PAULI_DOC), doc["rates"])
        assert err == f"error: {exc.value}\n"


@pytest.mark.parametrize("given", ["flag", "config-grid", "config-rates"])
def test_a_rate_grid_over_the_cap_is_refused_before_it_is_built(tmp_path, capsys, monkeypatch,
                                                                given):
    cap = cqexp.exponents.RATE_CAP
    doc = {"channel": PAULI_DOC, "grid": {"min": 0.0, "max": 0.5, "count": cap + 1},
           "rates": [0.25] * (cap + 1)}
    cfg = write_config(tmp_path, {"channel": PAULI_DOC} if given == "flag" else
                       {key: doc[key] for key in ("channel", given.split("-")[1])})
    flags = ["--grid", f"0:0.5:{cap + 1}"] if given == "flag" else []
    monkeypatch.setattr(np, "linspace", lambda *_: pytest.fail("the grid was built"))
    # config rates reach sweep, which refuses them before any rate is evaluated
    started = "cqexp.exponents." + ("_points" if given == "config-rates" else "sweep")
    monkeypatch.setattr(started, lambda *_: pytest.fail("the sweep started"))
    assert cli.main(["exponents", "--config", cfg, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(f"{cap + 1} rates exceed the cap {cap} of one sweep\n")


def test_a_rate_grid_at_the_cap_reaches_the_sweep(tmp_path, monkeypatch):
    cap, seen = cqexp.exponents.RATE_CAP, []
    monkeypatch.setattr("cqexp.exponents.sweep", lambda ch, rates: seen.append(len(rates)) or [])
    cfg = write_config(tmp_path, PAULI_DOC)
    assert cli.main(["exponents", "--config", cfg, "--grid", f"0:0.5:{cap}",
                     "--out", str(tmp_path / "curve.csv")]) == 0
    assert seen == [cap]


def test_exponents_no_grid_anywhere(tmp_path, capsys):
    cfg = write_config(tmp_path, PAULI_DOC)
    assert cli.main(["exponents", "--config", cfg]) == 1
    assert "no rate grid" in capsys.readouterr().err


# --- thresholds --------------------------------------------------------------


@pytest.mark.parametrize("stem", ["pauli_mu070", "pauli_mu090", "pauli_mu095", "bsc_p010"])
def test_shipped_outputs_equal_the_bench_references(tmp_path, stem):
    cfg = str(ROOT / "configs" / f"{stem}.json")
    argvs = {".csv": ["exponents", "--config", cfg, "--grid", "0:0.7:200"],
             ".json": ["thresholds", "--config", cfg]}
    for suffix, argv in argvs.items():
        out = tmp_path / f"{stem}{suffix}"
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == (ROOT / "bench" / "reference" / f"{stem}{suffix}").read_bytes()


EXACT_MARKOV_ARGV = ["--config", str(ROOT / "configs" / "bsc_p010.json"), "--m", "3", "--n", "3",
                     "--exhaustive", "--gamma", "16", "--r-list", "1,2,4"]


# recorded from the command line; a change that moves a sample on purpose re-records them
@pytest.mark.parametrize("name, argv", [
    ("simulate_mu095", ["--config", str(ROOT / "configs" / "simulate_mu095.json")]),
    ("exact_markov_bsc_p010", EXACT_MARKOV_ARGV),
])
def test_shipped_simulate_outputs_equal_the_recorded_ones(tmp_path, name, argv):
    out = tmp_path / f"{name}.json"
    assert cli.main(["simulate", *argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (ROOT / "tests" / "reference" / f"{name}.json").read_bytes()


def test_thresholds_json_values(tmp_path):
    cfg = write_config(tmp_path, PAULI_DOC)
    out = tmp_path / "thresholds.json"
    assert cli.main(["thresholds", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"capacity_at_q", "r_star", "r_inf", "nu0", "nu1", "e_x_at_1"}
    channel = channel_from_config(PAULI_DOC)
    assert doc["capacity_at_q"] == holevo_information(channel)
    assert doc["r_star"] == crossover_rate(channel)
    assert doc["r_inf"] == 0.0
    assert doc["nu0"] == overlap_exponent_mean(channel)
    assert doc["nu1"] == overlap_exponent_half_var(channel)
    assert doc["e_x_at_1"] == ex_function(channel, 1.0)


def test_thresholds_orthogonal_inf_strings(tmp_path):
    cfg = write_config(tmp_path, ORTHO_DOC)
    out = tmp_path / "thresholds.json"
    assert cli.main(["thresholds", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["nu0"] == "inf"
    assert doc["nu1"] == "inf"
    assert doc["r_star"] == pytest.approx(0.5, abs=1e-12)
    assert doc["r_inf"] == pytest.approx(0.5, abs=1e-12)


# --- simulate ----------------------------------------------------------------


def test_simulate_exhaustive_with_quantile_check(tmp_path):
    doc = {"channel": PAULI_DOC, "m": 2, "n": 2, "exhaustive": True}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "report.json"
    assert cli.main(["simulate", "--config", cfg, "--gamma", "16",
                     "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["exhaustive"] is True
    assert all(c["verdict"] == "PASS" for c in report["bound_checks"])
    markov = report["markov_checks"]
    assert [c["r"] for c in markov] == [1.0, 2.0, 4.0]
    for c in markov:
        assert c["verdict"] == "PASS"
        assert c["bound"] == pytest.approx(1 / 16, abs=1e-15)
        assert c["lhs_probability"] <= 1 / 16 + 1e-12


def test_simulate_monte_carlo_byte_identical(tmp_path):
    cfg = write_config(tmp_path, PAULI_DOC)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    argv = ["simulate", "--config", cfg, "--m", "2", "--n", "1",
            "--trials", "40", "--seed", "3"]
    assert cli.main(argv + ["--out", str(out_a)]) == 0
    assert cli.main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    report = json.loads(out_a.read_text())
    assert report["trials"] == 40 and report["seed"] == 3


def test_simulate_flag_overrides_config(tmp_path):
    doc = {"channel": PAULI_DOC, "m": 2, "n": 1, "trials": 10, "seed": 1}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "report.json"
    assert cli.main(["simulate", "--config", cfg, "--trials", "25", "--seed", "9",
                     "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["trials"] == 25 and report["seed"] == 9
    cfg = write_config(tmp_path, {**doc, "exhaustive": False})
    assert cli.main(["simulate", "--config", cfg, "--exhaustive", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["exhaustive"] is True and report["trials"] is None


def test_simulate_gamma_requires_exhaustive(tmp_path, capsys):
    cfg = write_config(tmp_path, PAULI_DOC)
    code = cli.main(["simulate", "--config", cfg, "--m", "2", "--n", "1",
                     "--trials", "10", "--gamma", "4"])
    assert code == 1
    assert "exhaustive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--trials", "300", "--gamma", "4"],
    ["--exhaustive", "--gamma", "0.5"],
    ["--exhaustive", "--gamma", "nan"],
    ["--exhaustive", "--r-list", "1,nan"],
    ["--exhaustive", "--m", "1"],
    ["--trials", "5", "--out", "/nonexistent/dir/r.json"],
    ["--exhaustive", "--r-list", "1.0000001,1.0000002"],
    ["--trials", "1000000000000"],  # its codewords would take 32 TB, drawn before decoding
    ["--trials", "5", "--n", str(10 ** 30)],  # 2**n is never built to compare with the cap
    ["--exhaustive", "--n", str(10 ** 30)],
])
def test_simulate_refuses_before_decoding(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr("cqexp.ensemble._pgm_hits",
                        lambda states: pytest.fail("a codebook was decoded before the refusal"))
    cfg = write_config(tmp_path, PAULI_DOC)
    assert cli.main(["simulate", "--config", cfg, "--m", "2", "--n", "2"] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_simulate_refuses_message_distances_over_the_cap(tmp_path, capsys, monkeypatch):
    # 512 messages take 16 * 512**2 = 4 MiB of orbit-map distances, over a 1 MiB cap, while
    # their states (16 KiB) and two draws (25 KB) fit; at the real cap --m 16384 asks 4 GiB
    monkeypatch.setattr("cqexp.ensemble.BOOK_BYTES_CAP", 2 ** 20)
    monkeypatch.setattr("cqexp.ensemble._codeword_chunks",
                        lambda *_: pytest.fail("codebooks were drawn before the refusal"))
    cfg = write_config(tmp_path, PAULI_DOC)
    assert cli.main(["simulate", "--config", cfg, "--m", "512", "--n", "1", "--trials", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the 512 x 512 message distances") and err.count("\n") == 1


def test_simulate_refuses_a_closed_stdout_before_drawing(tmp_path, capsys, monkeypatch):
    # fd 1 closed at start leaves sys.stdout None: with no --out, nothing is drawn or decoded
    monkeypatch.setattr("cqexp.ensemble._codeword_chunks",
                        lambda *_: pytest.fail("codebooks were drawn before the refusal"))
    cfg = write_config(tmp_path, PAULI_DOC)
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", None)
        code = cli.main(["simulate", "--config", cfg, "--m", "2", "--n", "8", "--exhaustive"])
    assert code == 1
    assert capsys.readouterr().err == "error: cannot write stdout: file descriptor 1 is closed\n"


@pytest.mark.parametrize("key, value", [
    ("m", "three"), ("n", [2]), ("trials", "many"), ("seed", math.inf),
    ("gamma", "big"), ("r_list", ["1", "two"]), ("r_list", 4),
    ("exhaustive", "false"), ("exhaustive", 1),
    ("m", 2.7), ("n", True), ("trials", 2.9), ("seed", 1.5), ("seed", math.nan),
    ("gamma", "16"), ("gamma", True), ("r_list", "124"), ("r_list", [True]),
    ("r_list", ""), ("r_list", {}), ("seed", -3),
    ("m", math.nan), ("m", True), ("n", math.nan), ("trials", math.nan), ("trials", True),
    ("m", 4.0), ("seed", 2.0),
])
def test_simulate_non_numeric_config_value(tmp_path, capsys, key, value):
    # gamma is only accepted with exhaustive enumeration: refuse it for its type alone
    doc = {"channel": PAULI_DOC, "m": 2, "n": 1, "trials": 5, "exhaustive": key == "gamma",
           key: value}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{key}'" in err
    # one rule: the CLI passes the document's values on and prints the library's refusal
    run = json.loads(pathlib.Path(cfg).read_text())
    with pytest.raises(ValueError) as exc:
        run_ensemble(channel_from_config(run.pop("channel")), **run)
    assert err == f"error: {exc.value}\n"


def test_simulate_json_number_gamma_and_r_list(tmp_path):
    doc = {"channel": PAULI_DOC, "m": 2, "n": 1, "exhaustive": True, "gamma": 16,
           "r_list": [1, 2.5]}
    out = tmp_path / "report.json"
    assert cli.main(["simulate", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [c["r"] for c in report["markov_checks"]] == [1.0, 2.5]
    assert {c["gamma"] for c in report["markov_checks"]} == {16.0}


def test_simulate_powers_that_overflow_saturate(tmp_path, capsys):
    # gamma^2 and T^(1e308) overflow a float: the threshold and the bound are +inf
    cfg = str(ROOT / "configs" / "pauli_mu095.json")
    out = tmp_path / "report.json"
    assert cli.main(["simulate", "--config", cfg, "--m", "2", "--n", "2", "--exhaustive",
                     "--gamma", "1e200", "--r-list", "1e308,2", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    tilted = {c["name"]: c for c in report["bound_checks"]}["tilted_mean_bound_r1e+308"]
    assert tilted["bound"] == "inf" and tilted["verdict"] == "PASS"
    assert [(c["lhs_probability"], c["verdict"]) for c in report["markov_checks"]] == [
        (0.0, "PASS"), (0.0, "PASS")]


def test_simulate_products_of_states_within_trace_tolerance(tmp_path, capsys):
    # each state's trace is within 1e-9 of 1, but a product's trace is not
    doc = {"kind": "generic", "states": [{"re": [[0.9000000009, 0], [0, 0.1]]},
                                         {"re": [[0.2, 0], [0, 0.8]]}]}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["validate", "--config", cfg]) == 0
    assert cli.main(["simulate", "--config", cfg, "--m", "2", "--n", "2", "--exhaustive"]) == 0
    assert capsys.readouterr().err == ""
    with pytest.raises(ValueError, match="trace"):
        product_state(channel_from_config(doc), [0, 0])


def test_unwritable_out_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, PAULI_DOC)
    out = tmp_path / "missing" / "thresholds.json"
    assert cli.main(["thresholds", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1


def test_simulate_missing_block_parameters(tmp_path, capsys):
    cfg = write_config(tmp_path, PAULI_DOC)
    assert cli.main(["simulate", "--config", cfg, "--n", "2", "--trials", "5"]) == 1
    assert "'m'" in capsys.readouterr().err


def failed_report(*args, **kwargs) -> EnsembleReport:
    """A run_ensemble stand-in: a report whose one bound check fails, so simulate exits 2."""
    return EnsembleReport(
        decoder="pgm", m=2, n=1, exhaustive=True, trials=None, seed=None,
        mean_pe=0.9, tilted_means={1.0: 0.9}, exponent_samples=(0.1,),
        bound_checks=(BoundCheck(name="mean_error_bound", bound=0.5,
                                 empirical=0.9, slack=0.0),),
    )


def test_simulate_failed_verdict_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr("cqexp.ensemble.run_ensemble", failed_report)
    cfg = write_config(tmp_path, PAULI_DOC)
    out = tmp_path / "report.json"
    code = cli.main(["simulate", "--config", cfg, "--m", "2", "--n", "1",
                     "--exhaustive", "--out", str(out)])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["bound_checks"][0]["verdict"] == "FAIL"


def test_simulate_refuses_one_draw(tmp_path, capsys, monkeypatch):
    # one draw has sample variance 0, so its verdicts would have no slack at all
    monkeypatch.setattr("cqexp.ensemble._pgm_hits",
                        lambda states: pytest.fail("a codebook was decoded before the refusal"))
    cfg = write_config(tmp_path, PAULI_DOC)
    assert cli.main(["simulate", "--config", cfg, "--m", "2", "--n", "6", "--trials", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "'trials' must be an integer >= 2" in err


def test_simulate_bad_r_list(tmp_path, capsys):
    cfg = write_config(tmp_path, PAULI_DOC)
    code = cli.main(["simulate", "--config", cfg, "--m", "2", "--n", "1",
                     "--trials", "5", "--r-list", "1,zap"])
    assert code == 1
    assert "r-list" in capsys.readouterr().err


# --- validate and config errors ----------------------------------------------


def test_validate_ok(tmp_path, capsys):
    cfg = write_config(tmp_path, PAULI_DOC)
    assert cli.main(["validate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK: 2 states of dimension 2")
    assert "q = [0.5, 0.5]" in out
    assert "state 0 eigenvalues" in out and "state 1 eigenvalues" in out


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "pauli",\n  "mu": }')
    assert cli.main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "invalid JSON" in err and "line 2" in err


def test_validate_rejects_bad_state(tmp_path, capsys):
    doc = {"kind": "generic", "states": [{"re": [[0.9, 0.0], [0.0, 0.0]]}]}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["validate", "--config", cfg]) == 1
    assert "invalid channel config" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "thresholds"])
def test_state_that_is_not_psd_exits_1(tmp_path, capsys, command):
    doc = {"kind": "generic",
           "states": [{"re": [[1.5, 0], [0, -0.5]]}, {"re": [[0.5, 0], [0, 0.5]]}]}
    assert cli.main([command, "--config", write_config(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid channel config: ") and err.count("\n") == 1
    assert "state 0" in err and "not positive semidefinite" in err


@pytest.mark.parametrize("doc, named", [
    ({**PAULI_DOC, "theta": math.inf}, "Bloch angle theta must be finite, got inf"),
    ({**PAULI_DOC, "theta": math.nan}, "Bloch angle theta must be finite, got nan"),
    ({**PAULI_DOC, "q": [math.nan, 0.5]}, "input distribution has an entry that is not finite: nan"),
    ({"kind": "classical", "w": [[0.9, 0.1], [0.1, 0.9]], "q": [0.5, math.inf]},
     "input distribution has an entry that is not finite: inf"),
    ({"kind": "classical", "w": [[0.9, 0.1], [math.nan, 0.9]]},
     "transition matrix has an entry that is not finite: nan"),
    ({"kind": "classical", "w": [[0.9, 0.1], [math.inf, 0.9]]},
     "transition matrix has an entry that is not finite: inf"),
], ids=["theta-inf", "theta-nan", "q-nan", "q-inf", "w-nan", "w-inf"])
def test_validate_names_a_non_finite_channel_field(tmp_path, capsys, doc, named):
    assert cli.main(["validate", "--config", write_config(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid channel config: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("doc, field", [
    ({"kind": "pauli", "mu": True}, "'mu' must be a number, got True"),
    ({"kind": "pauli", "mu": "0.95"}, "'mu' must be a number, got '0.95'"),
    ({"kind": "pauli", "mu": 10 ** 400}, "'mu' must be a number"),
    ({**PAULI_DOC, "theta": "0.5"}, "'theta' must be a number, got '0.5'"),
    ({"kind": "classical", "w": [[True, False], [False, True]]}, "'w' must be a list of lists"),
    ({"kind": "classical", "w": [["0.9", "0.1"], ["0.1", "0.9"]]}, "'w' must be a list of lists"),
    ({**PAULI_DOC, "q": [True, False]}, "'q' must be a list of numbers, got [True, False]"),
    ({"kind": "generic", "states": [{"re": [[True, 0], [0, False]]}]},
     "state 0: 're' must be a list of lists"),
], ids=["mu-bool", "mu-str", "mu-huge-int", "theta-str", "w-bool", "w-str", "q-bool",
        "re-bool"])
def test_validate_refuses_a_channel_number_that_is_not_a_json_number(tmp_path, capsys, doc,
                                                                      field):
    assert cli.main(["validate", "--config", write_config(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid channel config: ") and err.count("\n") == 1
    assert field in err


@pytest.mark.parametrize("command, doc, named", [
    ("thresholds", {"kind": "pauli", "mu": 0.95, "thet": 0.1}, "'thet'"),
    ("validate", {"kind": "classical", "w": [[1, 0], [0, 1]], "mu": 0.9}, "'mu'"),
    ("validate", {"kind": "generic", "states": [{"re": [[1, 0], [0, 0]], "imag": 0}]}, "'imag'"),
    ("simulate", {"channel": PAULI_DOC, "m": 2, "n": 1, "exhaustive": True, "gama": 16}, "'gama'"),
    *[(command, {"channel": PAULI_DOC, "grid": {"min": 0, "max": 0.5, "count": 3}, "m": 2,
                 "n": 1, "trials": 5, "gama": 16}, "'gama'")
      for command in ("exponents", "thresholds", "validate")],
], ids=["pauli-thet", "classical-mu", "generic-imag", "simulate-gama", "exponents-gama",
        "thresholds-gama", "validate-gama"])
def test_unknown_config_key_exits_1_naming_it(tmp_path, capsys, command, doc, named):
    assert cli.main([command, "--config", write_config(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize("doc, named", [
    ({"kind": "pauli", "theta": 0.5}, "pauli channel config needs 'mu'"),
    ({"kind": "classical", "q": [0.5, 0.5]}, "classical channel config needs 'w'"),
    ({"kind": "generic"}, "generic channel config needs 'states'"),
    ({"kind": "generic", "states": 5}, "generic channel config needs a non-empty 'states' list"),
    ({"kind": "generic", "states": {"re": [[1, 0], [0, 0]]}},
     "generic channel config needs a non-empty 'states' list"),
    ({"kind": "generic", "states": ["re"]}, "state 0: needs an object with 're'"),
    ({"kind": "generic", "states": [{"im": [[0, 0], [0, 0]]}]},
     "state 0: needs an object with 're'"),
], ids=["no-mu", "no-w", "no-states", "states-number", "states-object", "state-string",
        "state-without-re"])
def test_malformed_channel_document_is_a_value_error(tmp_path, capsys, doc, named):
    with pytest.raises(ValueError) as refused:
        channel_from_config(doc)
    assert named in str(refused.value)
    assert cli.main(["validate", "--config", write_config(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid channel config: ") and err.count("\n") == 1
    assert named in err


def test_unknown_kind(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "telepathy"})
    assert cli.main(["thresholds", "--config", cfg]) == 1
    assert "unknown channel kind" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert cli.main(["validate", "--config", str(tmp_path / "nope.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_config_must_be_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert "JSON object" in capsys.readouterr().err


def test_channel_must_be_object(tmp_path, capsys):
    cfg = write_config(tmp_path, {"channel": [1, 2]})
    assert cli.main(["validate", "--config", cfg]) == 1
    assert "invalid channel config: channel config must be a JSON object" in \
        capsys.readouterr().err


def test_config_needs_kind_or_channel(tmp_path, capsys):
    cfg = write_config(tmp_path, {"m": 2})
    assert cli.main(["validate", "--config", cfg]) == 1
    assert "'kind'" in capsys.readouterr().err


def test_shipped_configs_validate():
    root = ROOT / "configs"
    for name in ("pauli_mu095.json", "pauli_mu090.json", "pauli_mu070.json",
                 "bsc_p010.json", "simulate_mu095.json"):
        assert cli.main(["validate", "--config", str(root / name)]) == 0


# --- exit codes: usage errors are refusals, exit 2 is only a failed verdict ----


@pytest.mark.parametrize("argv, needle", [
    (["simulate", "--config", "CFG", "--m", "abc"], "--m"),
    (["simulate", "--config", "CFG", "--trials", "1.5"], "--trials"),
    (["simulate", "--config", "CFG", "--gamma", "x"], "--gamma"),
    (["simulate", "--m", "2", "--n", "2"], "--config"),
    (["exponents", "--config", "CFG", "--grid", "0:0.5:3", "--bogus"], "--bogus"),
    (["frobnicate", "--config", "CFG"], "frobnicate"),
    ([], "command"),
    (["simulate", "--config", "CFG", "--m", "2", "--n", "1", "--trials", "5", "--seed", "-1"],
     "'seed'"),
])
def test_usage_errors_exit_1_with_one_line(tmp_path, capsys, argv, needle):
    cfg = write_config(tmp_path, PAULI_DOC)
    assert cli.main([cfg if a == "CFG" else a for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "usage:" not in err and needle in err


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


# --- start-up: each subcommand loads only the modules it runs -----------------


def _env(buffered: bool = False) -> dict[str, str]:
    """The environment of a fresh interpreter on the package's sources.  buffered drops
    PYTHONUNBUFFERED (a bench host sets it), so that stdout to a pipe is block-buffered."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    return env


def _python(*args, check: bool = True, buffered: bool = False) -> subprocess.CompletedProcess:
    """A fresh interpreter on the package's sources, in the repo root; output as bytes."""
    return subprocess.run([sys.executable, *args], env=_env(buffered), cwd=ROOT, check=check,
                          capture_output=True)


def _loaded_after(code: str, package: str = "cqexp") -> set[str]:
    """The package's modules in sys.modules after running code in a fresh interpreter."""
    names = f"' '.join(m for m in sys.modules if m.startswith({package!r}))"
    return set(_python("-c", f"import sys\n{code}\nprint({names})").stdout.decode().split())


def _subcommand_call(tmp_path, argv) -> list[str]:
    """The argv that runs one subcommand on PAULI_DOC, writing to a file in tmp_path."""
    cfg, out = write_config(tmp_path, PAULI_DOC), str(tmp_path / "out")
    return argv[:1] + ["--config", cfg, "--out", out] + argv[1:]


def _subcommand_run(tmp_path, argv) -> str:
    """Code that runs one subcommand on PAULI_DOC through cli.main."""
    return f"from cqexp import cli\nassert cli.main({_subcommand_call(tmp_path, argv)!r}) == 0"


BASE_MODULES = {"cqexp", "cqexp.qlinalg", "cqexp.channels", "cqexp.cli"}
EXPONENT_MODULES = {"cqexp.search", "cqexp.exponents"}
SUBCOMMANDS = [["validate"], ["thresholds"], ["exponents", "--grid", "0:0.5:3"],
               ["simulate", "--m", "2", "--n", "1", "--exhaustive"]]


@pytest.mark.parametrize("argv, extra", zip(SUBCOMMANDS, [
    set(), EXPONENT_MODULES, EXPONENT_MODULES, EXPONENT_MODULES | {"cqexp.ensemble"}]))
def test_subcommand_loads_only_its_modules(tmp_path, argv, extra):
    assert _loaded_after(_subcommand_run(tmp_path, argv)) == BASE_MODULES | extra


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=[argv[0] for argv in SUBCOMMANDS])
def test_subcommand_never_loads_dataclasses(tmp_path, argv):
    # records are plain frozen classes: a dataclass compiles 4-6 methods per class at each start
    assert _loaded_after(_subcommand_run(tmp_path, argv), "dataclasses") == set()


def _at_exit(call: str, probe: str) -> tuple[int, list[bytes]]:
    """The exit status of a fresh interpreter that imports cli, registers an atexit handler
    printing the items of probe (an expression) as stdout's last line, and runs call; and those
    items.  stdout is block-buffered, so the line shows only if the exit flushes after the
    handlers run, whether cli.run() ends the process through os._exit or through SystemExit."""
    code = ("import atexit, gc, sys\nfrom cqexp import cli\n"
            f"atexit.register(lambda: print('atexit:', *{probe}))\n{call}")
    done = _python("-c", code, check=False, buffered=True)
    last = (done.stdout.splitlines() or [b""])[-1].split()
    assert last[:1] == [b"atexit:"], (done.stdout[-200:], done.stderr)
    return done.returncode, last[1:]


def _gc_at_exit(call: str) -> tuple[bool, int, bool]:
    """gc.isenabled(), gc.get_freeze_count() and whether no collection ran since call began,
    read at exit by a fresh interpreter that imports cli and runs call, exiting with status 0."""
    status, (enabled, frozen, untouched) = _at_exit(
        f"totals = lambda: [s['collections'] for s in gc.get_stats()]\nbefore = totals()\n{call}",
        "(gc.isenabled(), gc.get_freeze_count(), totals() == before)")
    assert status == 0
    return enabled == b"True", int(frozen), untouched == b"True"


@pytest.mark.parametrize("argv", [*SUBCOMMANDS, ["--help"]],
                         ids=[argv[0] for argv in SUBCOMMANDS] + ["help"])
def test_only_the_console_entry_freezes_the_gc(tmp_path, argv):
    # run() ends the process: it turns the collector off before numpy loads, so no collection
    # runs, and freezes what is left for the exit collections to skip; main() is also the
    # library entry and leaves the collector as it found it
    call = argv if argv == ["--help"] else _subcommand_call(tmp_path, argv)
    enabled, frozen, untouched = _gc_at_exit(f"sys.argv = ['cqexp', *{call!r}]\ncli.run()")
    assert not enabled and frozen > 0 and untouched
    enabled, frozen, _ = _gc_at_exit(f"sys.exit(cli.main({call!r}))")
    assert enabled and frozen == 0


@pytest.mark.parametrize("argv, status", [
    (["--help"], 0), (["simulate", "--config", "CFG", "--trials", "1.5"], 1)],
    ids=["help", "refusal"])
def test_help_and_refusals_load_no_numpy(tmp_path, argv, status):
    # cli imports only the stdlib: argparse answers before numpy or a channel loads.  The probe
    # reads sys.modules at exit, as the refusal's run() ends the process without returning
    call = [write_config(tmp_path, PAULI_DOC) if a == "CFG" else a for a in argv]
    loaded = "[m for m in sys.modules if m.startswith('numpy') or m == 'cqexp.channels']"
    assert _at_exit(f"sys.argv = ['cqexp', *{call!r}]\ncli.run()", loaded) == (status, [])


@pytest.mark.parametrize("small, large", [
    (lambda ch: run_ensemble(ch, 2, 2, exhaustive=True),
     lambda ch: run_ensemble(ch, 2, 8, exhaustive=True)),
    (lambda ch: run_ensemble(ch, 4, 6, trials=10),
     lambda ch: run_ensemble(ch, 4, 6, trials=10_000)),
    (lambda ch: sweep(ch, np.linspace(0, 0.7, 10)),
     lambda ch: sweep(ch, np.linspace(0, 0.7, 10_000))),
], ids=["exhaustive", "monte-carlo", "sweep"])
def test_cyclic_garbage_does_not_grow_with_the_work(small, large):
    # run() leaves the collector off for the whole process, which is sound only while a run
    # leaves a fixed few unreachable cycles whatever its size; it leaves none, its channel
    # config included (a recursive closure in _numbers once left one cycle a call)
    gc.collect()
    gc.disable()
    try:
        for work in (small, large):
            work(channel_from_config(PAULI_DOC))
            assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("mode", [["--trials", "20"], ["--exhaustive"]])
def test_simulate_never_loads_numpy_random(tmp_path, mode):
    # the Monte-Carlo stream is computed in the package; numpy.random is only its test oracle
    cfg, out = write_config(tmp_path, PAULI_DOC), str(tmp_path / "out")
    call = ["simulate", "--config", cfg, "--out", out, "--m", "2", "--n", "2", *mode]
    assert _loaded_after(f"from cqexp import cli\nassert cli.main({call!r}) == 0",
                         "numpy.random") == set()


def test_exponents_loads_no_new_numpy_submodule(tmp_path):
    # e0 and ex_function find their distinct arguments with a sort: np.unique would load numpy.ma
    cfg, out = write_config(tmp_path, PAULI_DOC), str(tmp_path / "out")
    call = ["exponents", "--config", cfg, "--out", out, "--grid", "0:0.5:20"]
    assert _loaded_after(f"from cqexp import cli\nassert cli.main({call!r}) == 0", "numpy") == \
        _loaded_after("import numpy\nfrom cqexp import cli", "numpy")


# --- the process: `python -m cqexp.cli`, as the bench spawns it -------------------


def test_process_stdout_equals_main_in_process(capsys):
    argv = ["validate", "--config", str(ROOT / "configs" / "pauli_mu095.json")]
    done = _python("-m", "cqexp.cli", *argv)
    assert cli.main(argv) == 0
    assert done.stdout == capsys.readouterr().out.encode() and done.stderr == b""


def test_process_refusal_is_one_error_line_and_exit_1(tmp_path):
    argv = ["simulate", "--config", write_config(tmp_path, PAULI_DOC), "--trials", "1.5"]
    done = _python("-m", "cqexp.cli", *argv, check=False)
    assert done.returncode == 1 and done.stdout == b""
    assert done.stderr.startswith(b"error: ") and done.stderr.count(b"\n") == 1


def test_process_output_equals_the_recorded_one(tmp_path):
    name = "exact_markov_bsc_p010.json"
    _python("-m", "cqexp.cli", "simulate", *EXACT_MARKOV_ARGV, "--out", str(tmp_path / name))
    assert (tmp_path / name).read_bytes() == (ROOT / "tests" / "reference" / name).read_bytes()


# more rows than a 64 KiB pipe holds
LONG_CURVE = ["exponents", "--config", str(ROOT / "configs" / "pauli_mu095.json"),
              "--grid", "0:0.7:4000"]


def test_process_buffered_stdout_is_complete_through_a_pipe(capsys):
    # run() ends with os._exit, which flushes nothing: what is buffered is flushed before it
    done = _python("-m", "cqexp.cli", *LONG_CURVE, buffered=True)
    assert cli.main(LONG_CURVE) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) > 65536 and done.stdout == out and done.stderr == b""


@pytest.mark.parametrize("argv, read", [
    (["validate", "--config", str(ROOT / "configs" / "pauli_mu095.json")], 0),
    (LONG_CURVE, 10)], ids=["closed-before-output", "closed-mid-output"])
def test_process_closed_stdout_is_one_error_line_and_exit_1(argv, read):
    # a reader that stops early, as `| head -c 10` does, gets the one-line refusal that an
    # unwritable --out gets, and no BrokenPipeError from the write or from the exit's flush
    with subprocess.Popen([sys.executable, "-m", "cqexp.cli", *argv], env=_env(buffered=True),
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert len(child.stdout.read(read)) == read
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 1
    assert err.startswith(b"error: cannot write stdout: ") and err.count(b"\n") == 1
    assert b"Traceback" not in err


def _failed_verdict(argv: list[str]) -> str:
    """Code that runs cli.run() on argv with run_ensemble replaced by failed_report."""
    return ("sys.path.insert(0, 'tests')\nimport cqexp.ensemble\n"
            "from test_cli import failed_report\ncqexp.ensemble.run_ensemble = failed_report\n"
            f"sys.argv = ['cqexp', *{argv!r}]\ncli.run()")


def test_process_failed_verdict_exits_2_with_its_whole_report(tmp_path, monkeypatch):
    argv = ["simulate", "--config", write_config(tmp_path, PAULI_DOC), "--m", "2", "--n", "1",
            "--exhaustive", "--out"]
    assert _at_exit(_failed_verdict(argv + [str(tmp_path / "run.json")]), "()") == (2, [])
    monkeypatch.setattr("cqexp.ensemble.run_ensemble", failed_report)
    assert cli.main(argv + [str(tmp_path / "main.json")]) == 2
    assert (tmp_path / "run.json").read_bytes() == (tmp_path / "main.json").read_bytes()


@pytest.mark.parametrize("status", [0, 1, 2])
def test_process_runs_the_exit_handlers_on_every_exit_code(tmp_path, status):
    cfg, out = write_config(tmp_path, PAULI_DOC), str(tmp_path / "out")
    call = {0: f"sys.argv = ['cqexp', 'validate', '--config', {cfg!r}]\ncli.run()",
            1: f"sys.argv = ['cqexp', 'validate', '--config', {out!r}]\ncli.run()",
            2: _failed_verdict(["simulate", "--config", cfg, "--m", "2", "--n", "1",
                                "--exhaustive", "--out", out])}[status]
    assert _at_exit(call, "['handler', 'ran']") == (status, [b"handler", b"ran"])


def _closed_stdout(argv: list[str]) -> subprocess.CompletedProcess:
    """`python -m cqexp.cli argv` with fd 1 closed before the interpreter starts, so that
    sys.stdout is None; stderr as bytes."""
    return subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m", "cqexp.cli",
                           *argv], env=_env(), cwd=ROOT, capture_output=True)


def test_process_with_stdout_closed_at_start_writes_its_out_file(tmp_path):
    out = tmp_path / "validate.txt"
    done = _closed_stdout(["validate", "--config", str(ROOT / "configs" / "pauli_mu095.json"),
                           "--out", str(out)])
    assert done.returncode == 0 and done.stderr == b""
    assert out.read_text().startswith("OK: 2 states of dimension 2\n")


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=[argv[0] for argv in SUBCOMMANDS])
def test_process_with_stdout_closed_at_start_and_no_out_is_one_error_line(tmp_path, argv):
    # nowhere to write the output: the one-line refusal of a closed pipe, not a traceback
    done = _closed_stdout(argv[:1] + ["--config", write_config(tmp_path, PAULI_DOC)] + argv[1:])
    assert done.returncode == 1
    assert done.stderr == b"error: cannot write stdout: file descriptor 1 is closed\n"


def test_process_exception_from_main_is_a_traceback_and_exit_1():
    # only a code returned by main takes the fast exit: anything raised finalizes as usual
    code = ("from cqexp import cli\ndef main():\n    raise RuntimeError('not a refusal')\n"
            "cli.main = main\ncli.run()")
    done = _python("-c", code, check=False)
    assert done.returncode == 1 and done.stderr.startswith(b"Traceback (most recent call last)")
    assert done.stderr.endswith(b"RuntimeError: not a refusal\n")


def test_bare_import_loads_no_submodule():
    assert _loaded_after("import cqexp") == {"cqexp"}


def test_public_names_are_their_home_objects():
    for name in cqexp.__all__:
        home = importlib.import_module(f"cqexp.{cqexp._HOMES[name]}")
        assert getattr(cqexp, name) is vars(home)[name], name


def test_public_name_follows_its_home_module(monkeypatch):
    # a tracer or a test that patches the home module is seen through the package too
    original = cqexp.sweep
    with monkeypatch.context() as patch:
        patch.setattr("cqexp.exponents.sweep", lambda *a: None)
        assert cqexp.sweep is not original and cqexp.sweep is cqexp.exponents.sweep
    assert cqexp.sweep is original


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from cqexp import *", namespace)
    assert all(namespace[name] is getattr(cqexp, name) for name in cqexp.__all__)
    assert set(dir(cqexp)) >= set(cqexp.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'cqexp' has no attribute 'no_such_name'"):
        cqexp.no_such_name
    assert not hasattr(cqexp, "no_such_name")
