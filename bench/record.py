#!/usr/bin/env python3
"""Record a results file: layer microtimings plus one run of every workload.

Run from the repository root::

    python3 bench/record.py --out bench/results/<commit>.json

The microtimings call the public functions directly (no CLI, no tracer);
each workload is then run once with ``--trace 0`` and once with
``--trace 1`` through bench/run.py, with seed 1 and the run length of
BENCHMARK.json.  The file keeps the run manifest, every metric and the
detail line of each run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from cqexp import (DensityOperator, channel_from_config, e0, expurgated_exponent,  # noqa: E402
                   hermitian_eig, matrix_power, overlap, pgm_povm, product_state,
                   random_coding_exponent, run_ensemble, sweep)

BATCHES = 5
PAULI = "configs/pauli_mu095.json"
SIMULATE = "configs/simulate_mu095.json"
BSC = "configs/bsc_p010.json"


def per_call(fn, args_list) -> float:
    """Median over BATCHES of the mean seconds per call across args_list."""
    times = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for args in args_list:
            fn(*args)
        times.append((time.perf_counter() - start) / len(args_list))
    return statistics.median(times)


def once(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def microtimings() -> dict:
    rng = np.random.default_rng(0)
    out = {}
    for d, reps in ((2, 2000), (8, 2000), (64, 100)):
        mats = list(run.random_states(rng, 8, d))
        calls = [(mats[i % 8],) for i in range(reps)]
        out[f"qlinalg.hermitian_eig.d{d}_s"] = per_call(hermitian_eig, calls)
        out[f"qlinalg.matrix_power.d{d}_s"] = per_call(matrix_power, [(m, 0.5) for (m,) in calls])
        # fresh operators, so each overlap pays for both square roots
        pairs = [(DensityOperator(mats[i % 8]), DensityOperator(mats[(i + 1) % 8]))
                 for i in range(reps * BATCHES)]
        it = iter(pairs)
        out[f"qlinalg.overlap.d{d}_s"] = per_call(lambda: overlap(*next(it)), [()] * reps)

    pauli = channel_from_config(json.loads((ROOT / PAULI).read_text()))
    mc_channel = channel_from_config(json.loads((ROOT / SIMULATE).read_text())["channel"])
    bsc = channel_from_config(json.loads((ROOT / BSC).read_text()))
    out["exponents.e0_s"] = per_call(e0, [(pauli, 0.5)] * 200)
    out["exponents.random_coding_exponent.R0.1_s"] = per_call(random_coding_exponent,
                                                              [(pauli, 0.1)] * 20)
    out["exponents.expurgated_exponent.R0.1_s"] = per_call(expurgated_exponent, [(pauli, 0.1)] * 20)
    out["exponents.sweep.200_rates_s"] = once(sweep, pauli, run._grid(run.CURVE_GRID))

    words = np.random.default_rng(1).integers(0, 2, size=(500, 6))
    out["ensemble.product_state.n6_s"] = per_call(product_state, [(mc_channel, w) for w in words])
    books = [[product_state(mc_channel, w) for w in words[4 * i:4 * i + 4]] for i in range(25)]
    out["ensemble.pgm_povm.m4_d64_s"] = per_call(pgm_povm, [(b,) for b in books])
    for n in (4, 6):
        out[f"ensemble.run_ensemble.m4_n{n}_2000_s"] = once(run_ensemble, mc_channel, 4, n,
                                                            trials=2000, seed=7)
    out["ensemble.run_ensemble.exhaustive_m4_n3_s"] = once(run_ensemble, bsc, 4, 3, exhaustive=True)
    return out


def bench_run(workload: str, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    *_, detail, result = proc.stdout.strip().splitlines()
    return {"result": json.loads(result), "detail": json.loads(detail)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    doc = {"manifest": run.manifest(1, [PAULI, SIMULATE, BSC]), "microtimings": microtimings(),
           "workloads": {}}
    for workload in run.WORKLOADS:
        doc["workloads"][workload] = {
            "end_to_end": bench_run(workload, seconds, 0),
            "per_layer": bench_run(workload, seconds, 1),
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
