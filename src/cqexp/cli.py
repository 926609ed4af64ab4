"""Command-line interface: exponent curves, threshold tables, ensemble reports.

Subcommands::

    cqexp exponents  --config ch.json --grid 0:0.7:200 --out curve.csv
    cqexp thresholds --config ch.json --out thresholds.json
    cqexp simulate   --config run.json --trials 2000 --seed 7 --out report.json
    cqexp validate   --config ch.json

The config file is either a bare channel document ({"kind": ...}) or a run
document with a "channel" key plus defaults for the RUN_KEYS (any other key is
refused); the given flags are merged over them once, --grid as 'rates'.
Exit codes: 0 success, 1 a refusal (a usage error, an invalid configuration
or value, an unwritable output; every subcommand reports it as one
"error: ..." line on stderr), 2 a bound verdict failed.  Output is
deterministic: identical configs and seeds give byte-identical files.
Infinities are written "inf".
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy and the package load in the functions that use them, once main runs
    import numpy as np

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERDICT = 2

CSV_HEADER = "R,E_r,E_ex_2R_plus_R,E_trc_lb,s_opt,r_opt,divergent_flag"
CSV_ROW = ",".join(["%.12e"] * 6 + ["%d"])  # a RatePoint's fields; "%.12e" % inf is "inf"
RUN_KEYS = ("grid", "rates", "m", "n", "trials", "seed", "r_list", "gamma", "exhaustive")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return doc


def _load_channel(args):
    """Read --config, a bare channel document or a run document with a 'channel' object;
    return the validated channel and the run document with the given flags merged over it."""
    doc = _load_json(args.config)
    if "kind" in doc:
        channel_doc, run = doc, {}
    elif "channel" in doc:
        channel_doc, run = doc["channel"], {k: v for k, v in doc.items() if k != "channel"}
    else:
        raise ValueError("config needs either a top-level 'kind' or a 'channel' object")
    if set(run) - set(RUN_KEYS):
        raise ValueError(f"unknown run keys {sorted(set(run) - set(RUN_KEYS))}: a run document "
                         f"holds 'channel' and {', '.join(RUN_KEYS)}")
    from .channels import channel_from_config

    try:
        channel = channel_from_config(channel_doc)
    except ValueError as exc:
        raise ValueError(f"invalid channel config: {exc}") from exc
    flags = {k: getattr(args, k) for k in RUN_KEYS if getattr(args, k, None) is not None}
    return channel, {**run, **flags}


def _grid_from_parts(lo: float, hi: float, count: int) -> np.ndarray:
    if not 0 <= lo < math.inf:
        raise ValueError(f"grid min must be finite and nonnegative, got {lo}")
    if not lo < hi < math.inf:
        raise ValueError(f"grid max must be finite and exceed min, got [{lo}, {hi}]")
    if count < 2:
        raise ValueError(f"grid needs at least 2 points, got {count}")
    import numpy as np

    from .exponents import _check_rate_count  # only `exponents` reads a rate grid

    _check_rate_count(count)
    return np.linspace(lo, hi, count)


def _grid_flag(text: str) -> list[float]:
    """--grid min:max:count as its list of rates, parsed by argparse."""
    try:
        lo, hi, count = text.split(":")
        return _grid_from_parts(float(lo), float(hi), int(count)).tolist()
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expects min:max:count, got {text!r}: {exc}") from exc


def _tilt_orders(text: str) -> list[float]:
    """--r-list as comma-separated numbers, parsed by argparse."""
    try:
        return [float(t) for t in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expects comma-separated numbers, got {text!r}") from exc


def _rates(run: dict):
    if run.get("rates") is not None:  # the --grid rates, or the config's, win over its 'grid'
        return run["rates"]  # unconverted: sweep refuses them, naming 'rates'
    from .channels import _count, _numbers

    g = run.get("grid")
    if g is not None:
        try:
            lo, hi, count = *_numbers([g["min"], g["max"]]), g["count"]
            _count(count, 2, "'count' must be an integer >= 2")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"config 'grid' needs numeric min/max/count: {exc}") from exc
        return _grid_from_parts(lo, hi, count)
    raise ValueError("no rate grid: pass --grid min:max:count or put grid/rates in the config")


def _check_out(out: str | None) -> None:
    """Refuse an unwritable --out, or with none a closed stdout, before any work, without
    creating the file."""
    if out is None:
        if sys.stdout is None:  # its fd was closed at start, as with `>&-`
            raise ValueError("cannot write stdout: file descriptor 1 is closed")
        return
    target = out if os.path.exists(out) else os.path.dirname(os.path.abspath(out))
    if os.path.isdir(out) or not os.access(target, os.W_OK):
        raise ValueError(f"cannot write {out}: not a writable file path")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:  # a reader gone, say: the exit then flushes the rest to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise ValueError(f"cannot write stdout: {exc}") from exc
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc}") from exc


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_exponents(args) -> int:
    from .exponents import sweep

    channel, run = _load_channel(args)
    rows = [CSV_ROW % tuple(vars(p).values()) for p in sweep(channel, _rates(run))]
    _emit("\n".join([CSV_HEADER, *rows]) + "\n", args.out)
    return EXIT_OK


def cmd_thresholds(args) -> int:
    from .exponents import _json_real, channel_thresholds

    channel, _ = _load_channel(args)
    doc = {key: _json_real(x) for key, x in vars(channel_thresholds(channel)).items()}
    _emit(_json_text(doc), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    """run_ensemble on the given run keys (null is not given), unconverted: it refuses each."""
    from .ensemble import run_ensemble

    channel, run = _load_channel(args)
    given = {key: run[key] for key in RUN_KEYS[2:] if run.get(key) is not None}  # not the rates
    if {"m", "n"} - set(given):
        raise ValueError(f"simulate needs {sorted({'m', 'n'} - set(given))} in the config or flags")
    report = run_ensemble(channel, **given)
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is refused like any other value
        raise ValueError(message)


def _parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="cqexp",
        description="Error exponents and ensemble checks for classical-quantum channels",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, handler, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="JSON channel or run config")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.set_defaults(handler=handler)
        return p

    p = command("exponents", cmd_exponents, "rate sweep of both exponent branches (CSV)")
    p.add_argument("--grid", dest="rates", type=_grid_flag, metavar="MIN:MAX:COUNT",
                   help="rate grid (wins over config rates and grid)")

    command("thresholds", cmd_thresholds, "capacity, crossover and divergence rates (JSON)")
    p = command("simulate", cmd_simulate, "finite-blocklength ensemble bound checks (JSON)")
    p.add_argument("--m", type=int, default=None, help="codewords per codebook")
    p.add_argument("--n", type=int, default=None, help="block length")
    p.add_argument("--trials", type=int, default=None, help="Monte-Carlo codebook draws")
    p.add_argument("--exhaustive", action="store_const", const=True,
                   help="enumerate every codebook exactly")
    p.add_argument("--seed", type=int, default=None, help="master seed for sampling")
    p.add_argument("--r-list", type=_tilt_orders, help="tilt orders r1,r2,... (default 1,2,4)")
    p.add_argument("--gamma", type=float, default=None,
                   help="quantile parameter for the exact Markov-type check")

    command("validate", cmd_validate, "check a channel config and print its spectra")
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        _check_out(args.out)
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> None:
    gc.disable()  # a run leaves a few cyclic objects: collections while numpy loads free nothing
    try:
        code = main()
    finally:  # where the process finalizes, its exit collections skip what is frozen
        gc.freeze()
    # main returned: do what finalization would and skip its teardown.  That is sound because
    # cqexp starts no Python threads and every file it writes is closed by a `with` block
    # before main returns, so what is left is the exit functions and the standard streams.
    # An exception from main, --help's SystemExit included, finalizes as usual.
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when its fd was closed at start, as with `>&-`
                stream.flush()
    except OSError:  # finalization flushes again and reports it, as without the fast exit
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
