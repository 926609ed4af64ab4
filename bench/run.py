#!/usr/bin/env python3
"""cqexp benchmark: three CLI workloads, end-to-end metrics, and a traced run.

Run from the repository root::

    python3 bench/run.py --workload curves --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload's ``cqexp`` invocations as subprocesses (one
client, closed loop) and reports the end-to-end metrics.  ``--trace 1``
repeats the same argv in-process through ``cqexp.cli.main``, untraced and
then under the outside-in tracer, and reports the per-layer metrics.  Every
output is checked.  The last stdout line is the result object; the line
before it carries the run manifest and the detailed figures.  README.md in
this directory explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("curves", "mc-decode", "exact-markov")
SHIPPED_CURVES = ("pauli_mu070", "pauli_mu090", "pauli_mu095", "bsc_p010")
CURVE_GRID = "0:0.7:200"
GENERATED_STATES = 8
GENERATED_DIM = 4
GRID_POINTS = 200
VALIDATES_PER_ROUND = 3     # one-shot validate calls per round, at least
ORACLE_TRIALS = 4           # Monte-Carlo trials recomputed through the slow public path
INVOCATION_TIMEOUT_S = 150
# pass sizes chosen so that a run holds at least five passes even on a slow host
MC_TRIALS = 1000            # mc-decode: Monte-Carlo codebook draws at M=4, n=6
EXACT_M, EXACT_N = 3, 3     # exact-markov: 2**9 = 512 codebooks

# Host-speed calibration.  The host this was tuned on drifts in speed by up to
# 1.5x over minutes, and every invocation slows with it.  A fixed process that
# never imports cqexp (interpreter start, numpy import, Python loops and small
# eigendecompositions, like a cqexp call) is timed before and after each
# timed block, and the block is scaled by CALIBRATION_NOMINAL_S over the mean
# of those two.  A change to cqexp cannot move the calibration, so it moves
# the scaled metrics fully.
CALIBRATION = """
import numpy as np
rng = np.random.default_rng(0)
small = rng.standard_normal((8, 8)); small = small + small.T
big = rng.standard_normal((64, 64)); big = big + big.T
acc = 0
for i in range(100000):
    acc += i % 7
for _ in range(200):
    np.linalg.eigh(small); np.kron(small, small)
for _ in range(10):
    np.linalg.eigh(big)
"""
CALIBRATION_NOMINAL_S = 0.25


@dataclass
class Invocation:
    """One `cqexp` call: argv, where it writes, how its output is checked."""

    kind: str
    argv: list[str]
    out: Path
    check: Callable[[int, str], list[str]]
    items: int = 0  # rate rows or ensemble members it produces


@dataclass
class Workload:
    configs: list[str]         # channel configs, each validated once per round
    groups: list[list[Invocation]]  # one pass of the workload, in order; see measure_end_to_end

    @property
    def passes(self) -> list[Invocation]:
        return [inv for group in self.groups for inv in group]


# --- inputs ---------------------------------------------------------------------


def random_states(rng, count: int, dim: int) -> np.ndarray:
    """Full-rank complex density matrices, exactly Hermitian, unit trace."""
    shape = (count, dim, dim)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rho = a @ a.conj().transpose(0, 2, 1)
    rho = (rho + rho.conj().transpose(0, 2, 1)) / 2
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def generated_channel(seed: int) -> tuple[dict, float]:
    """A generic channel from the seed: full-rank complex 4x4 states, uniform Q.

    Returns the config document and its Holevo information, computed here
    with numpy alone so the CLI's capacity can be checked against it.
    """
    rho = random_states(np.random.default_rng(seed), GENERATED_STATES, GENERATED_DIM)

    def entropy(m):
        w = np.linalg.eigvalsh(m)
        w = w[w > 0.0]
        return float(-np.sum(w * np.log2(w)))

    capacity = entropy(rho.mean(axis=0)) - float(np.mean([entropy(r) for r in rho]))
    doc = {
        "kind": "generic",
        "states": [{"re": r.real.tolist(), "im": r.imag.tolist()} for r in rho],
        "q": [1.0 / GENERATED_STATES] * GENERATED_STATES,
    }
    return doc, capacity


def _grid(spec: str) -> np.ndarray:
    lo, hi, count = spec.split(":")
    return np.linspace(float(lo), float(hi), int(count))


def _exit0(check):
    def checked(code: int, text: str) -> list[str]:
        return [f"exit code {code}, expected 0"] if code != 0 else check(text)
    return checked


def _curve_pair(config: str, out_stem: Path, grid: str, capacity: float,
                reference: str | None, anchors=None, independent: float | None = None):
    rates = _grid(grid)
    ref_text = reference and checks.reference_text(f"{reference}.csv")
    exponents = Invocation(
        "exponents", ["exponents", "--config", config, "--grid", grid, "--out", f"{out_stem}.csv"],
        Path(f"{out_stem}.csv"),
        _exit0(lambda text: checks.check_curve(text, rates, capacity, ref_text)),
        items=rates.size,
    )
    return [exponents, _thresholds(config, Path(f"{out_stem}.json"), reference, anchors, independent)]


def _thresholds(config: str, out: Path, reference: str | None, anchors=None,
                independent: float | None = None) -> Invocation:
    ref_text = reference and checks.reference_text(f"{reference}.json")
    return Invocation(
        "thresholds", ["thresholds", "--config", config, "--out", str(out)], out,
        _exit0(lambda text: checks.check_thresholds(text, ref_text, anchors, independent)),
    )


def build_workload(name: str, seed: int, work: Path) -> Workload:
    if name == "curves":
        doc, capacity = generated_channel(seed)
        generated = work / f"generated_{seed}.json"
        generated.write_text(json.dumps(doc), encoding="utf-8")
        groups, configs = [], []
        for stem in SHIPPED_CURVES:
            cfg = f"configs/{stem}.json"
            ref = json.loads(checks.reference_text(f"{stem}.json"))
            ref_capacity = checks.num(ref["capacity_at_q"])
            anchors = checks.PAULI_095_ANCHORS if stem == "pauli_mu095" else None
            groups.append(_curve_pair(cfg, work / stem, CURVE_GRID, ref_capacity, stem, anchors))
            configs.append(cfg)
        grid = f"0:{1.25 * capacity:.6f}:{GRID_POINTS}"
        groups.append(_curve_pair(str(generated), work / "generated", grid, capacity,
                                  None, None, capacity))
        configs.append(str(generated))
        return Workload(configs, groups)

    if name == "mc-decode":
        cfg = "configs/simulate_mu095.json"
        run_doc = json.loads((ROOT / cfg).read_text(encoding="utf-8"))
        m, n, trials = run_doc["m"], run_doc["n"], MC_TRIALS
        rng = np.random.default_rng(seed)
        drawn = rng.choice(trials, ORACLE_TRIALS - 2, replace=False).tolist()
        oracle = sorted({0, trials - 1, *drawn})
        out = work / "mc_decode.json"
        sim = Invocation(
            "simulate", ["simulate", "--config", cfg, "--trials", str(trials), "--seed", str(seed),
                         "--out", str(out)], out,
            lambda code, text: checks.check_monte_carlo(
                text, code, run_doc["channel"], m, n, trials, seed, oracle),
            items=trials,
        )
        return Workload([cfg], [[sim]])

    if name == "exact-markov":
        cfg = "configs/bsc_p010.json"
        m, n = EXACT_M, EXACT_N
        out = work / "exact_markov.json"
        argv = ["simulate", "--config", cfg, "--m", str(m), "--n", str(n), "--exhaustive",
                "--gamma", "16", "--r-list", "1,2,4", "--out", str(out)]
        reference = checks.reference_text("exact_markov.json")
        sim = Invocation(
            "simulate", argv, out,
            lambda code, text: checks.check_exhaustive_markov(text, code, reference),
            items=2 ** (m * n),  # k**(M n) codebooks for the binary input alphabet
        )
        return Workload([cfg], [[sim]])

    raise ValueError(f"unknown workload {name!r}")


# --- running invocations --------------------------------------------------------


class Tally:
    """Attempted and failed invocations, with the first few problems kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, inv_kind: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{inv_kind}: " + "; ".join(problems))


def _read_output(path: Path) -> str:
    return path.read_text(encoding="utf-8") if path.exists() else ""


def _check(inv: Invocation, code: int, text: str) -> list[str]:
    try:
        return inv.check(code, text)
    except Exception as exc:  # a malformed output must count as a failure, not end the run
        return [f"output check raised {type(exc).__name__}: {exc}"]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class _Timeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise _Timeout


def run_subprocess(argv: list[str], env: dict) -> tuple[int, float, str, int]:
    """Exit code, wall seconds, stdout and peak resident KiB of one `cqexp` call."""
    return _spawn([sys.executable, "-m", "cqexp.cli", *argv], env)


def _spawn(cmd: list[str], env: dict) -> tuple[int, float, str, int]:
    """Run cmd and block in wait4 until it ends.

    wait4 returns the moment the child exits (subprocess's own timed wait
    polls in steps of up to 50 ms) and gives the child's own peak RSS.  A
    process that runs past INVOCATION_TIMEOUT_S is killed and reads as code -9.
    """
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=subprocess.DEVNULL)
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL, INVOCATION_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            code = os.waitstatus_to_exitcode(status)
        except _Timeout:
            proc.kill()
            _, _, usage = os.wait4(proc.pid, 0)
            code = -9
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        proc.returncode = code  # reaped here, so Popen must not wait for it again
        out.seek(0)
        return code, wall, out.read().decode("utf-8", "replace"), usage.ru_maxrss


def timed_invocation(inv: Invocation, env: dict, tally: Tally) -> tuple[float, int]:
    inv.out.unlink(missing_ok=True)
    code, wall, _, rss_kib = run_subprocess(inv.argv, env)
    tally.record(inv.kind, _check(inv, code, _read_output(inv.out)))
    return wall, rss_kib


def calibrate(env: dict) -> float:
    """Wall seconds of one host-speed calibration process (see CALIBRATION)."""
    code, wall, _, _ = _spawn([sys.executable, "-c", CALIBRATION], env)
    if code != 0:
        raise RuntimeError(f"calibration process exited with {code}")
    return wall


def run_inprocess(argv: list[str]) -> int:
    from cqexp import cli

    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects argv this way
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed invocation, checked like any other
        return 1


# --- the two modes --------------------------------------------------------------


def measure_end_to_end(wl: Workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Rounds of validate calls and one pass, between calibration calls, until the time is up.

    A round runs a calibration, the validate calls, a calibration, and then
    each group of the pass followed by a calibration.  Each timed block is
    scaled by CALIBRATION_NOMINAL_S over the mean of the two calibrations
    around it, so changes in host speed that last a few seconds cancel.  The
    validate calls are spread over the whole run rather than bunched at its
    start, so every metric sees the same stretch of machine time.  Check time
    is excluded: walls sum the subprocesses only.
    """
    env = _env()
    start = time.perf_counter()
    raw = {"setup": [], "pass": [], "items": [], "thresholds": []}
    scaled = {"setup": [], "pass": [], "items": []}
    calibration, round_walls = [calibrate(env)], []
    peak_kib = 0
    items = sum(inv.items for inv in wl.passes)
    repeats = math.ceil(VALIDATES_PER_ROUND / len(wl.configs))

    def scale() -> float:
        return 2.0 * CALIBRATION_NOMINAL_S / (calibration[-2] + calibration[-1])

    while True:
        round_start = time.perf_counter()
        setup = []
        for cfg in wl.configs * repeats:
            code, wall, text, rss_kib = run_subprocess(["validate", "--config", cfg], env)
            tally.record("validate", checks.check_validate(code, text))
            setup.append(wall)
            peak_kib = max(peak_kib, rss_kib)
        calibration.append(calibrate(env))
        raw["setup"] += setup
        scaled["setup"] += [w * scale() for w in setup]
        pass_wall = pass_scaled = item_wall = item_scaled = 0.0
        for group in wl.groups:
            walls = []
            for inv in group:
                wall, rss_kib = timed_invocation(inv, env, tally)
                walls.append(wall)
                peak_kib = max(peak_kib, rss_kib)
            calibration.append(calibrate(env))
            raw["thresholds"] += [w for inv, w in zip(group, walls) if inv.kind == "thresholds"]
            work = sum(w for inv, w in zip(group, walls) if inv.items)
            pass_wall += sum(walls)
            pass_scaled += sum(walls) * scale()
            item_wall += work
            item_scaled += work * scale()
        raw["pass"].append(pass_wall)
        scaled["pass"].append(pass_scaled)
        raw["items"].append(items / item_wall)
        scaled["items"].append(items / item_scaled)
        round_walls.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(round_walls) > seconds:
            break

    median = statistics.median
    metrics = {
        "wall_s": (median(scaled["pass"]), "s"),
        "setup_s": (median(scaled["setup"]), "s"),
        "items_per_s": (median(scaled["items"]), "1/s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
    }
    detail = {"passes": len(raw["pass"]),
              "unscaled": {"wall_s": median(raw["pass"]), "setup_s": median(raw["setup"]),
                           "items_per_s": median(raw["items"])},
              "pass_walls_s": raw["pass"], "setup_samples_s": raw["setup"],
              "items_per_s_samples": raw["items"], "calibration_samples_s": calibration,
              "thresholds_samples_s": raw["thresholds"],
              "thresholds_s": median(raw["thresholds"]) if raw["thresholds"] else None}
    return metrics, detail


def _inprocess_pass(wl: Workload, tally: Tally, tracer: Tracer | None = None) -> float:
    for inv in wl.passes:
        inv.out.unlink(missing_ok=True)
    codes = []
    start = time.perf_counter()
    if tracer is None:
        codes = [run_inprocess(inv.argv) for inv in wl.passes]
    else:
        with tracer.installed():
            codes = [run_inprocess(inv.argv) for inv in wl.passes]
    wall = time.perf_counter() - start
    for inv, code in zip(wl.passes, codes):
        tally.record(inv.kind, _check(inv, code, _read_output(inv.out)))
    return wall


def measure_layers(wl: Workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    import cqexp.cli  # noqa: F401  (imported before timing)

    start = time.perf_counter()
    summaries, traced_walls, ratios = [], [], []
    while True:
        t0 = time.perf_counter()
        tracer = Tracer()
        # alternate which pass of the pair runs first, so warm-up favours neither
        if len(ratios) % 2 == 0:
            untraced = _inprocess_pass(wl, tally)
            traced = _inprocess_pass(wl, tally, tracer)
        else:
            traced = _inprocess_pass(wl, tally, tracer)
            untraced = _inprocess_pass(wl, tally)
        summaries.append(tracer.summary())
        traced_walls.append(traced)
        ratios.append(traced / untraced)
        pair = time.perf_counter() - t0
        if time.perf_counter() - start + pair > seconds:
            break
    return layer_metrics(summaries, traced_walls, ratios), {
        "pairs": len(ratios), "traced_walls_s": traced_walls, "overhead_ratios": ratios,
        "first_traced_pass": summaries[0],
    }


LAYER_COUNTS = {
    "qlinalg.kron.calls": "qlinalg.kron",
    "qlinalg.DensityOperator.calls": "qlinalg.DensityOperator",
    "qlinalg.hermitian_eig.calls": "qlinalg.hermitian_eig",
    "qlinalg.matrix_power.calls": "qlinalg.matrix_power",
    "qlinalg.overlap.calls": "qlinalg.overlap",
    "search.maximize_on_grid.calls": "search.maximize_on_grid",
    "search.golden_section_maximize.calls": "search.golden_section_maximize",
    "exponents.e0.calls": "exponents.e0",
    "exponents.random_coding_exponent.calls": "exponents.random_coding_exponent",
    "exponents.expurgated_exponent.calls": "exponents.expurgated_exponent",
    "exponents.ex_function.calls": "exponents.ex_function",
    "channels.holevo_information.calls": "channels.holevo_information",
    "ensemble.product_state.calls": "ensemble.product_state",
    "ensemble.pgm_povm.calls": "ensemble.pgm_povm",
    "ensemble.error_probability.calls": "ensemble.error_probability",
    "ensemble.sample_codebook.calls": "ensemble.sample_codebook",
    "ensemble.verify_markov_bound.calls": "ensemble.verify_markov_bound",
}
LAYER_SELF = (
    "qlinalg.kron", "qlinalg.DensityOperator", "qlinalg.hermitian_eig",
    "exponents.e0", "exponents.random_coding_exponent", "exponents.expurgated_exponent",
    "exponents.sweep", "exponents.channel_thresholds",
    "channels.channel_from_config", "channels.holevo_information",
    "ensemble.product_state", "ensemble.pgm_povm", "ensemble.error_probability",
    "ensemble.sample_codebook", "ensemble.enumerate_codebooks", "ensemble.run_ensemble",
    "ensemble.verify_markov_bound",
)
LAYER_DERIVED = {  # metric -> (summary key, unit)
    "qlinalg.hermitian_eig.max_dim": ("eig_max_dim", "count"),
    "search.objective_evals": ("objective_evals", "count"),
    "exponents.expurgated_exponent.unconverged": ("ex_unconverged", "count"),
    "exponents.expurgated_exponent.divergent": ("ex_divergent", "count"),
    "ensemble.product_state.useful_ratio": ("product_state_useful_ratio", "ratio"),
    "ensemble.distinct_codewords": ("distinct_codewords", "count"),
    "ensemble.decode.useful_ratio": ("decode_useful_ratio", "ratio"),
    "ensemble.orbit_share": ("orbit_share", "ratio"),
    "ensemble.enumerate_codebooks.yielded": ("enumerate_yielded", "count"),
}


def layer_metrics(summaries: list[dict], traced_walls: list[float], ratios: list[float]) -> dict:
    """Counts from the first traced pass; times as medians over traced passes."""
    first = summaries[0]

    def median_of(fn):
        return statistics.median(fn(s) for s in summaries)

    metrics = {name: (first["spans"][span]["calls"], "count")
               for name, span in LAYER_COUNTS.items()}
    for span in LAYER_SELF:
        metrics[f"{span}.self_s"] = (
            median_of(lambda s, span=span: s["spans"][span]["self_s"]), "s")
    metrics["cli.self_s"] = (median_of(lambda s: s["spans"]["cli.main"]["self_s"]), "s")
    for name, (key, unit) in LAYER_DERIVED.items():
        metrics[name] = (first[key], unit)
    metrics["ensemble.verify_markov_bound.wall_share"] = (statistics.median(
        s["spans"]["ensemble.verify_markov_bound"]["total_s"] / w
        for s, w in zip(summaries, traced_walls)), "ratio")
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    return metrics


# --- manifest and entry point ---------------------------------------------------


def blas_info() -> dict:
    """BLAS library build string and thread count of the numpy in use."""
    info = {"library": None, "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return info
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is None or config is None:
                    continue
                getter.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                return {"library": config().decode(), "threads": getter()}
    return info


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(seed: int, configs: list[str]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(),
        "seed": seed,
        "config_sha256": {c: hashlib.sha256((ROOT / c).read_bytes()).hexdigest() for c in configs},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "cqexp" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no cqexp sources under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    work = WORK_DIR / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        wl = build_workload(args.workload, args.seed, work.relative_to(ROOT))
        if args.trace:
            metrics, detail = measure_layers(wl, args.seconds, tally)
        else:
            metrics, detail = measure_end_to_end(wl, args.seconds, tally)
        detail["manifest"] = manifest(args.seed, wl.configs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    detail.update(workload=args.workload, trace=args.trace,
                  attempted=tally.attempted, failed=tally.failed,
                  failed_share=tally.failed / tally.attempted, problems=tally.problems)
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
