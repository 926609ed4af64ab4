"""Outside-in tracer for cqexp: wraps public functions from outside the package.

The tracer replaces each traced function in every ``cqexp`` module namespace
that holds it, so a call such as ``ensemble -> kron`` (bound there by
``from .qlinalg import kron``) lands in its own span.  Each call records one
span: function id, parent span, start and end.  Spans are kept in compact
arrays and turned into per-function figures only after the run, together
with the few recorded arguments that the ratios need, so that this work
stays outside the timed spans.

Usage::

    tracer = Tracer()
    with tracer.installed():
        cqexp.cli.main(argv)
    figures = tracer.summary()
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Public functions wrapped per module.  require_hermitian and hermitianize
# are left out: they are the elementwise validation that DensityOperator
# and hermitian_eig run, and their time belongs to those callers' self time.
TARGETS = {
    "qlinalg": ("hermitian_eig", "matrix_power", "overlap", "von_neumann_entropy", "kron"),
    "search": ("golden_section_maximize", "maximize_on_grid"),
    "channels": ("binary_pauli", "from_classical_dmc", "average_state", "holevo_information",
                 "optimize_input", "channel_from_config", "channel_to_config"),
    "exponents": ("e0", "random_coding_exponent", "ex_function", "expurgated_exponent",
                  "trc_lower_bound", "sweep", "crossover_rate", "expurgated_divergence_rate",
                  "overlap_exponent_mean", "overlap_exponent_half_var",
                  "optimal_tilt_estimate", "channel_thresholds"),
    "ensemble": ("sample_codebook", "product_state", "pgm_povm", "error_probability",
                 "helstrom_error", "run_ensemble", "verify_markov_bound"),
    "cli": ("main",),
}
GENERATORS = {"ensemble": ("enumerate_codebooks",)}
# Validation of every density operator happens in this dataclass hook.
POST_INIT = ("qlinalg", "DensityOperator")

# Arguments (or results) kept for the ratios computed after the run.
RECORD_ARG = {
    "ensemble.product_state": 1,      # the codeword
    "ensemble.error_probability": 1,  # the decoded codebook
}
RECORD_RESULT = ("exponents.expurgated_exponent",)
OBJECTIVE_TAKERS = ("search.golden_section_maximize", "search.maximize_on_grid")


class Tracer:
    """Span recorder plus the patching that routes cqexp calls through it."""

    def __init__(self):
        self.names: list[str] = []
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.recorded: dict[str, list] = {}
        self.eig_dims = array("i")
        self.objective_evals = 0
        self.yielded = 0

    # --- wrappers -----------------------------------------------------------

    def _open(self, fid: int) -> int:
        idx = len(self.span_start)
        self.span_fn.append(fid)
        self.span_parent.append(self.stack[-1])
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self.stack.pop()
        self.span_start[idx] = start
        self.span_end[idx] = end

    def _counted(self, f):
        if getattr(f, "_bench_counted", False):
            return f

        def objective(x):
            self.objective_evals += 1
            return f(x)

        objective._bench_counted = True
        return objective

    def wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        record_arg = RECORD_ARG.get(name)
        record_result = name in RECORD_RESULT
        takes_objective = name in OBJECTIVE_TAKERS
        is_eig = name == "qlinalg.hermitian_eig"
        if record_arg is not None or record_result:
            sink = self.recorded.setdefault(name, [])
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if takes_objective:
                args = (self._counted(args[0]),) + args[1:]
            if is_eig:
                self.eig_dims.append(len(args[0]))
            idx = self._open(fid)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, start, perf())
            if record_arg is not None:
                sink.append(args[record_arg])
            elif record_result:
                sink.append(result)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn):
        """Time each ``next`` of a generator as one span; count the items."""
        fid = len(self.names)
        self.names.append(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(fid)
                start = perf()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx, start, perf())
                self.yielded += 1
                yield item

        return wrapper

    # --- installation -------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every cqexp namespace for the duration of the block."""
        modules = [importlib.import_module("cqexp")]
        modules += [importlib.import_module(f"cqexp.{m}") for m in TARGETS]
        replacements = {}
        for targets, wrap in ((TARGETS, self.wrap), (GENERATORS, self.wrap_generator)):
            for short, names in targets.items():
                mod = importlib.import_module(f"cqexp.{short}")
                for attr in names:
                    fn = getattr(mod, attr)
                    replacements[id(fn)] = (fn, wrap(f"{short}.{attr}", fn))
        patched = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        cls = getattr(importlib.import_module(f"cqexp.{POST_INIT[0]}"), POST_INIT[1])
        original_post_init = cls.__post_init__
        cls.__post_init__ = self.wrap(".".join(POST_INIT), original_post_init)
        try:
            yield self
        finally:
            cls.__post_init__ = original_post_init
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    # --- analysis after the run --------------------------------------------

    def span_table(self) -> dict[str, dict[str, float]]:
        """Per function: calls, inclusive seconds and self seconds."""
        fn = np.asarray(self.span_fn, dtype=np.int32)
        parent = np.asarray(self.span_parent, dtype=np.int32)
        start = np.asarray(self.span_start, dtype=float)
        end = np.asarray(self.span_end, dtype=float)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(fn, minlength=k)
        total = np.bincount(fn, weights=dur, minlength=k)
        self_s = np.bincount(fn, weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def root_seconds(self) -> float:
        """Summed duration of the spans without a parent."""
        parent = np.asarray(self.span_parent, dtype=np.int32)
        dur = np.asarray(self.span_end, dtype=float) - np.asarray(self.span_start, dtype=float)
        return float(dur[parent < 0].sum())

    def summary(self) -> dict:
        """Span table plus the counts and ratios computed from recorded arguments."""
        table = self.span_table()
        words = self.recorded.get("ensemble.product_state", [])
        books = self.recorded.get("ensemble.error_probability", [])
        ex_values = self.recorded.get("exponents.expurgated_exponent", [])
        pgm_calls = table["ensemble.pgm_povm"]["calls"]

        distinct_books = {}
        for book in books:
            distinct_books.setdefault(np.asarray(book.codewords).tobytes(), book.codewords)
        decoded_codewords = sum(book.m for book in books)
        return {
            "spans": table,
            "span_count": len(self.span_fn),
            "root_s": self.root_seconds(),
            "objective_evals": self.objective_evals,
            "eig_max_dim": max(self.eig_dims) if len(self.eig_dims) else 0,
            "enumerate_yielded": self.yielded,
            "ex_unconverged": sum(1 for v in ex_values if not v.converged),
            "ex_divergent": sum(1 for v in ex_values if v.divergent),
            "distinct_codewords": len({np.asarray(w).tobytes() for w in words}),
            "decoded_codebooks": len(books),
            "distinct_codebooks": len(distinct_books),
            "product_state_useful_ratio": decoded_codewords / len(words) if words else 0.0,
            "decode_useful_ratio": len(distinct_books) / pgm_calls if pgm_calls else 0.0,
            "orbit_share": orbit_share(list(distinct_books.values())),
        }


def orbit_share(codebooks) -> float:
    """Share of codebooks whose message x coordinate permutation orbit came earlier.

    Two codebooks share an orbit when one becomes the other by reordering its
    codewords and applying one permutation to the coordinates of all of them;
    both leave the PGM error of the codebook unchanged.
    """
    if not codebooks:
        return 0.0
    seen = set()
    repeats = 0
    perm_cache = {}
    for words in codebooks:
        words = np.asarray(words, dtype=np.int64)
        n = words.shape[1]
        if n not in perm_cache:
            perm_cache[n] = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
        perms = perm_cache[n]
        base = int(words.max()) + 1
        place = base ** np.arange(n - 1, -1, -1, dtype=np.int64)
        # codes[p, i]: codeword i under coordinate permutation p, as one integer
        codes = np.sort(words[:, perms] @ place, axis=0).T
        best = codes[np.lexsort(codes.T[::-1])[0]]
        key = (base, best.tobytes())
        if key in seen:
            repeats += 1
        else:
            seen.add(key)
    return repeats / len(codebooks)
