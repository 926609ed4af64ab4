"""Command-line interface: exponent curves, threshold tables, ensemble reports.

Subcommands::

    cqexp exponents  --config ch.json --grid 0:0.7:200 --out curve.csv
    cqexp thresholds --config ch.json --out thresholds.json
    cqexp simulate   --config run.json --trials 2000 --seed 7 --out report.json
    cqexp validate   --config ch.json

The config file is either a bare channel document ({"kind": ...}) or a run
document with a "channel" key plus defaults for grid / m / n / trials /
seed / r_list / gamma / exhaustive.  Command-line flags override config
values.  Exit codes: 0 success, 1 invalid configuration or unwritable
output, 2 a bound verdict failed.  Output is deterministic: identical
configs and seeds give byte-identical files.  Infinities are written "inf".
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .channels import channel_from_config
from .ensemble import _json_real, run_ensemble
from .exponents import (
    channel_thresholds,
    ex_function,
    overlap_exponent_half_var,
    overlap_exponent_mean,
    sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERDICT = 2

CSV_HEADER = "R,E_r,E_ex_2R_plus_R,E_trc_lb,s_opt,r_opt,divergent_flag"


class CliError(Exception):
    """Configuration or usage problem; maps to exit code 1."""


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise CliError(f"{path}: config must be a JSON object")
    return doc


def _split_config(doc: dict) -> tuple[dict, dict]:
    """Return (channel document, run parameters)."""
    if "kind" in doc:
        return doc, {}
    if "channel" in doc:
        return doc["channel"], {k: v for k, v in doc.items() if k != "channel"}
    raise CliError("config needs either a top-level 'kind' or a 'channel' object")


def _load_channel(args):
    """Read --config; return (validated channel, run parameters)."""
    channel_doc, run = _split_config(_load_json(args.config))
    try:
        return channel_from_config(channel_doc), run
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"invalid channel config: {exc}") from exc


def _integer(value) -> int:
    """int(value) for an integral number; booleans and fractions are refused."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _grid_from_parts(lo: float, hi: float, count: int) -> np.ndarray:
    if not 0 <= lo < math.inf:
        raise CliError(f"grid min must be finite and nonnegative, got {lo}")
    if not lo < hi < math.inf:
        raise CliError(f"grid max must be finite and exceed min, got [{lo}, {hi}]")
    if count < 2:
        raise CliError(f"grid needs at least 2 points, got {count}")
    return np.linspace(lo, hi, count)


def _parse_grid_flag(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"--grid expects min:max:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise CliError(f"--grid expects min:max:count, got {text!r}") from exc
    return _grid_from_parts(lo, hi, count)


def _rates(args, run: dict) -> np.ndarray:
    if args.grid is not None:
        return _parse_grid_flag(args.grid)
    if "rates" in run:
        try:
            return np.asarray(run["rates"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise CliError(f"config 'rates' must be a list of numbers: {exc}") from exc
    if "grid" in run:
        g = run["grid"]
        try:
            return _grid_from_parts(float(g["min"]), float(g["max"]), _integer(g["count"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CliError(f"config 'grid' needs numeric min/max/count: {exc}") from exc
    raise CliError("no rate grid: pass --grid min:max:count or put grid/rates in the config")


def _check_out(out: str | None) -> None:
    """Refuse an unwritable --out before any work, without creating the file."""
    if out is None:
        return
    target = out if os.path.exists(out) else os.path.dirname(os.path.abspath(out))
    if os.path.isdir(out) or not os.access(target, os.W_OK):
        raise CliError(f"cannot write {out}: not a writable file path")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}") from exc


def _fmt(x: float) -> str:
    return "inf" if math.isinf(x) else "%.12e" % x


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_exponents(args) -> int:
    channel, run = _load_channel(args)
    rates = _rates(args, run)
    try:
        curve = sweep(channel, rates)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    lines = [CSV_HEADER]
    for p in curve:
        lines.append(",".join([
            _fmt(p.rate), _fmt(p.e_r), _fmt(p.e_ex_shifted), _fmt(p.e_trc_lb),
            _fmt(p.s_opt), _fmt(p.r_opt), str(int(p.divergent)),
        ]))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_thresholds(args) -> int:
    channel, _ = _load_channel(args)
    th = channel_thresholds(channel)
    doc = {
        "capacity_at_q": th.capacity_at_q,
        "r_star": _json_real(th.r_star),
        "r_inf": _json_real(th.r_inf),
        "nu0": _json_real(overlap_exponent_mean(channel)),
        "nu1": _json_real(overlap_exponent_half_var(channel)),
        "e_x_at_1": ex_function(channel, 1.0),
    }
    _emit(_json_text(doc), args.out)
    return EXIT_OK


def _param(run: dict, key: str, flag, convert=_integer, required: bool = False):
    """Flag value if given, else the config value, converted; None if neither."""
    value = flag if flag is not None else run.get(key)
    if value is None:
        if required:
            raise CliError(f"simulate needs '{key}' in the config or as a flag")
        return None
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        kind = "an integer" if convert is _integer else "numeric"
        raise CliError(f"'{key}' (--{key.replace('_', '-')}) must be {kind}, got {value!r}") from exc


def cmd_simulate(args) -> int:
    channel, run = _load_channel(args)
    m = _param(run, "m", args.m, required=True)
    n = _param(run, "n", args.n, required=True)
    seed = _param(run, "seed", args.seed) or 0
    trials = _param(run, "trials", args.trials)
    exhaustive = args.exhaustive or run.get("exhaustive", False)
    if not isinstance(exhaustive, bool):
        raise CliError(f"'exhaustive' must be true or false, got {exhaustive!r}")
    r_flag = None if args.r_list is None else args.r_list.split(",")
    r_list = _param(run, "r_list", r_flag, convert=lambda v: tuple(float(t) for t in v))
    gamma = _param(run, "gamma", args.gamma, convert=float)

    try:
        report = run_ensemble(channel, m, n, trials=trials, exhaustive=exhaustive,
                              r_list=(1.0, 2.0, 4.0) if r_list is None else r_list,
                              seed=seed, gamma=gamma)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _emit(_json_text(report.to_json_dict()), args.out)
    return EXIT_OK if report.all_passed else EXIT_VERDICT


def cmd_validate(args) -> int:
    channel, _ = _load_channel(args)
    lines = [f"OK: {channel.alphabet_size} states of dimension {channel.dim}"]
    q = ", ".join("%.6g" % x for x in channel.q.probabilities)
    lines.append(f"q = [{q}]")
    for i, state in enumerate(channel.states):
        ev = ", ".join("%.12g" % x for x in state.eigenvalues)
        lines.append(f"state {i} eigenvalues: [{ev}]")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cqexp",
        description="Error exponents and ensemble checks for classical-quantum channels",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON channel or run config")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("exponents", help="rate sweep of both exponent branches (CSV)")
    common(p)
    p.add_argument("--grid", default=None, help="rate grid as min:max:count")

    p = sub.add_parser("thresholds", help="capacity, crossover and divergence rates (JSON)")
    common(p)

    p = sub.add_parser("simulate", help="finite-blocklength ensemble bound checks (JSON)")
    common(p)
    p.add_argument("--m", type=int, default=None, help="codewords per codebook")
    p.add_argument("--n", type=int, default=None, help="block length")
    p.add_argument("--trials", type=int, default=None, help="Monte-Carlo codebook draws")
    p.add_argument("--exhaustive", action="store_true", help="enumerate every codebook exactly")
    p.add_argument("--seed", type=int, default=None, help="master seed for sampling")
    p.add_argument("--r-list", default=None, help="comma-separated tilt orders (default 1,2,4)")
    p.add_argument("--gamma", type=float, default=None,
                   help="quantile parameter for the exact Markov-type check")

    p = sub.add_parser("validate", help="check a channel config and print its spectra")
    common(p)

    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "exponents": cmd_exponents,
        "thresholds": cmd_thresholds,
        "simulate": cmd_simulate,
        "validate": cmd_validate,
    }
    try:
        _check_out(args.out)
        return handlers[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
