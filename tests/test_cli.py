"""Command-line interface: output formats, flag handling, exit codes."""

import json
import math

import numpy as np
import pytest

from cqexp import (
    BoundCheck,
    EnsembleReport,
    crossover_rate,
    channel_from_config,
    ex_function,
    holevo_information,
    overlap_exponent_half_var,
    overlap_exponent_mean,
    sweep,
)
from cqexp import cli

HEADER = "R,E_r,E_ex_2R_plus_R,E_trc_lb,s_opt,r_opt,divergent_flag"

PAULI_DOC = {"kind": "pauli", "mu": 0.95, "theta": 0.5235987755982988, "q": [0.5, 0.5]}
ORTHO_DOC = {"kind": "pauli", "mu": 1.0, "theta": 0.0}


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
])
def test_exponents_malformed_config_grid(tmp_path, capsys, doc, needle):
    cfg = write_config(tmp_path, {"channel": PAULI_DOC, **doc})
    assert cli.main(["exponents", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


def test_exponents_no_grid_anywhere(tmp_path, capsys):
    cfg = write_config(tmp_path, PAULI_DOC)
    assert cli.main(["exponents", "--config", cfg]) == 1
    assert "no rate grid" in capsys.readouterr().err


# --- thresholds --------------------------------------------------------------


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
])
def test_simulate_refuses_before_decoding(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr("cqexp.ensemble.pgm_povm",
                        lambda states: pytest.fail("a codebook was decoded before the refusal"))
    cfg = write_config(tmp_path, PAULI_DOC)
    assert cli.main(["simulate", "--config", cfg, "--m", "2", "--n", "2"] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("key, value", [
    ("m", "three"), ("n", [2]), ("trials", "many"), ("seed", math.inf),
    ("gamma", "big"), ("r_list", ["1", "two"]), ("r_list", 4),
    ("exhaustive", "false"), ("exhaustive", 1),
    ("m", 2.7), ("n", True), ("trials", 2.9), ("seed", 1.5), ("seed", math.nan),
])
def test_simulate_non_numeric_config_value(tmp_path, capsys, key, value):
    doc = {"channel": PAULI_DOC, "m": 2, "n": 1, "trials": 5, key: value}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{key}'" in err


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


def test_simulate_failed_verdict_exit_code(tmp_path, monkeypatch):
    fake = EnsembleReport(
        decoder="pgm", m=2, n=1, exhaustive=True, trials=None, seed=None,
        mean_pe=0.9, tilted_means={1.0: 0.9}, exponent_samples=(0.1,),
        bound_checks=(BoundCheck(name="mean_error_bound", bound=0.5,
                                 empirical=0.9, slack=0.0, verdict="FAIL"),),
    )
    monkeypatch.setattr(cli, "run_ensemble", lambda *a, **k: fake)
    cfg = write_config(tmp_path, PAULI_DOC)
    out = tmp_path / "report.json"
    code = cli.main(["simulate", "--config", cfg, "--m", "2", "--n", "1",
                     "--exhaustive", "--out", str(out)])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["bound_checks"][0]["verdict"] == "FAIL"


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
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "configs"
    for name in ("pauli_mu095.json", "pauli_mu090.json", "pauli_mu070.json",
                 "bsc_p010.json", "simulate_mu095.json"):
        assert cli.main(["validate", "--config", str(root / name)]) == 0
