"""Finite-blocklength laboratory for i.i.d. code ensembles.

Codebooks of M codewords of length n are drawn i.i.d. from Q (or enumerated
exhaustively with their product probabilities) as integer codeword arrays,
encoded into tensor-product states, and decoded with the square-root (pretty
good) measurement.  The module evaluates the ensemble-average error bound,
the tilted-moment bound built from pairwise overlaps, and the Markov-type
quantile bound, each as a BoundCheck, PASS iff its empirical value is at most the
bound plus slack: 1e-12 when exact, three standard errors in Monte-Carlo mode.

The error of a codebook is the same on its orbit under message and position permutations
and exact letter symmetries, and a constant column is a common tensor factor, so the decoder
maps each distinct column histogram once to one orbit member (none varies: error 1 - 1/M).
Two equal columns give each message a factor sigma (x) sigma that keeps symmetric and
antisymmetric two-site vectors apart: p pairs split a member into 2**p block problems.

Caps: _check_book refuses a run past one before anything is drawn or enumerated (dimension
d**n <= 4096, enumeration |X|**(M n) <= 2**20, 2**30 bytes of a codebook or of a run's draws);
256 KiB per chunk of codewords or keys, and of one kind's block problems' product states.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from typing import Iterator

import numpy as np

from .channels import CQChannel, _count, _numbers
from .exponents import _check_gamma, _json_real, _random_coding_lanes, e0, ex_function
from .qlinalg import DensityOperator, DIM_CAP, _eigh, _Record, _reject_drift, hermitian_eig, kron

ENUM_CAP = 2 ** 20
BOOK_BYTES_CAP = 2 ** 30  # one codebook's codewords, states or distances; a run's draws
DECODE_CHUNK_BYTES = 2 ** 18  # states or codewords held at once (one problem or codebook at least)
SUPPORT_TOL = 1e-10  # eigenvalues of the state sum below this are not inverted
EXACT_SLACK = 1e-12
MC_SIGMAS = 3.0


class Codebook(_Record):
    """M codewords of length n over the input alphabet, with provenance.

    ``provenance`` is ("sampled", seed) or ("enumerated", index).
    """

    m: int
    n: int
    codewords: np.ndarray
    provenance: tuple[str, int]

    def __post_init__(self):
        words = _symbols(self.codewords)  # a copy: the caller's stays writable
        if words.shape != (self.m, self.n):
            raise ValueError(f"codewords shape {words.shape} does not match ({self.m}, {self.n})")
        words.setflags(write=False)
        object.__setattr__(self, "codewords", words)


class DecodingResult(_Record):
    """Per-message error probabilities (clamped to [0, 1]) and their average."""

    per_message_error: np.ndarray
    average_error: float


class BoundCheck(_Record, eq=True):
    """One bound comparison, and the one verdict rule: PASS iff empirical <= bound + slack."""

    name: str
    bound: float
    empirical: float
    slack: float

    @property
    def verdict(self) -> str:
        return "PASS" if self.empirical <= self.bound + self.slack else "FAIL"


class EnsembleReport(_Record):
    """Full record of one ensemble run, JSON-serializable via to_json_dict."""

    decoder: str
    m: int
    n: int
    exhaustive: bool
    trials: int | None
    seed: int | None
    mean_pe: float
    tilted_means: dict[float, float]
    exponent_samples: tuple[float, ...]
    bound_checks: tuple[BoundCheck, ...]
    gamma: float | None = None
    markov_checks: tuple[tuple[float, BoundCheck], ...] = ()  # (r, check) per tilt order

    @property
    def all_passed(self) -> bool:
        checks = self.bound_checks + tuple(c for _, c in self.markov_checks)
        return all(c.verdict == "PASS" for c in checks)

    def to_json_dict(self) -> dict:
        doc = {
            "decoder": self.decoder,
            "m": self.m,
            "n": self.n,
            "exhaustive": self.exhaustive,
            "trials": self.trials,
            "seed": self.seed,
            "mean_pe": self.mean_pe,
            "tilted_means": {f"{r:g}": _json_real(v) for r, v in self.tilted_means.items()},
            "exponent_samples": [_json_real(x) for x in self.exponent_samples],
            "bound_checks": [{**vars(c), "verdict": c.verdict, "bound": _json_real(c.bound),
                              "empirical": _json_real(c.empirical)} for c in self.bound_checks],
        }
        if self.gamma is not None:
            doc["markov_checks"] = [
                {"r": r, "gamma": self.gamma, "lhs_probability": c.empirical,
                 "bound": c.bound, "verdict": c.verdict}
                for r, c in self.markov_checks
            ]
        return doc


def _check_dims(channel: CQChannel, n: int) -> None:
    _count(n, 1, "'n' must be an integer >= 1")
    if channel.dim ** min(int(n), DIM_CAP.bit_length()) > DIM_CAP:  # no huge power for huge n
        raise ValueError(f"product-state dimension {channel.dim}**{n} exceeds the cap {DIM_CAP}")


def _check_book(channel: CQChannel, m: int, n: int, *, enumerated: bool = False,
                trials: int | None = None) -> None:
    """Refuse, before anything is drawn or enumerated, a run past a cap, in this order: M >= 2,
    n >= 1 and the dimension d**n; with ``enumerated`` the k**(M n) codebooks; then against
    BOOK_BYTES_CAP the bytes of one codebook's codeword array, its product states (real when
    every letter is) and the orbit map's (M, M) int64 message distances and their sorted copy,
    and with ``trials`` a Monte-Carlo run's draws.  A draw holds a distinct member, then its
    block problem, as a key and stacked (16 M n), the block problem's M hits (8 M), and 250
    bytes: a key's header and dict entry, a seed, orbit ids, weights, P_e."""
    _count(m, 2, "'m' must be an integer >= 2")
    _check_dims(channel, n)
    m, n, k = int(m), int(n), channel.alphabet_size
    if enumerated and k ** min(m * n, ENUM_CAP.bit_length()) > ENUM_CAP:  # no huge power
        raise ValueError(f"enumeration space {k}**{m * n} exceeds the cap 2**20")
    itemsize = 16 if any(s.matrix.imag.any() for s in channel.states) else 8
    one = "of one codebook"
    for size, what in ((8 * m * n, f"the {m} x {n} codewords {one}"),
                       (m * channel.dim ** (2 * n) * itemsize, f"the {m} product states {one}"),
                       (16 * m * m, f"the {m} x {m} message distances {one}"),
                       ((trials or 0) * (8 * m * (2 * n + 1) + 250),  # 0 without trials
                        f"{trials} draws of {m} x {n} codewords")):
        if size > BOOK_BYTES_CAP:
            raise ValueError(f"{what} take {size} bytes, over the cap {BOOK_BYTES_CAP}")


def _symbols(codewords) -> np.ndarray:
    """Codeword symbols as a new int64 array; a symbol that is not integral is refused."""
    raw = np.asarray(codewords)
    with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage, then fail the comparison
        words = raw.astype(np.int64)
    if not np.array_equal(words, raw):
        raise ValueError(f"codeword symbols must be integers, got {raw.tolist()}")
    return words


def _entropy(seed) -> np.ndarray:
    """(1, w) uint32 words of a seed, least significant first, as SeedSequence reads it;
    anything but a non-negative integer (a bool included) is refused."""
    _count(seed, 0, "'seed' must be a non-negative integer")
    words = range(0, max(int(seed).bit_length(), 1), 32)
    return np.array([[int(seed) >> s & 0xFFFFFFFF for s in words]], dtype=np.uint32)


def _seed_states(entropy: np.ndarray, words: int) -> np.ndarray:
    """(T, words) uint32: SeedSequence(e).generate_state(words) for each row e of a (T, w)
    uint32 entropy array, in lockstep.  Every step wraps mod 2**32 as numpy's does."""
    fold = lambda x: x ^ (x >> 16)  # noqa: E731
    hashed = lambda value, consts: fold((value ^ consts[0]) * consts[1])  # noqa: E731
    mixed = lambda x, y: fold(x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715))  # noqa: E731

    def powers(first, mult, count):  # first * mult**i mod 2**32, i = 0 .. count
        return np.cumprod(np.r_[first, np.full(count, mult)].astype(np.uint32), dtype=np.uint32)

    entropy = np.pad(entropy, ((0, 0), (0, max(0, 4 - entropy.shape[1]))))  # zeros hash alike
    consts = powers(0x43B0D7E5, 0x931E8875, 4 * entropy.shape[1] + 12)
    calls = zip(consts, consts[1:])  # hashmix's constant before and after its update
    pool = [hashed(entropy[:, i], next(calls)) for i in range(4)]
    for src, dst in itertools.permutations(range(4), 2):  # late words reach early ones
        pool[dst] = mixed(pool[dst], hashed(pool[src], next(calls)))
    for src, dst in itertools.product(range(4, entropy.shape[1]), range(4)):  # words past 4
        pool[dst] = mixed(pool[dst], hashed(entropy[:, src], next(calls)))
    consts = powers(0x8B51F9DD, 0x58F38DED, words)
    state = np.tile(np.stack(pool, axis=1), -(-words // 4))[:, :words]  # in place: one copy held
    state ^= consts[:-1]
    state *= consts[1:]
    state ^= state >> 16
    return state


def _uniforms(entropy: np.ndarray, count: int) -> np.ndarray:
    """(T, count) doubles: default_rng(e).random(count) for each row e of a (T, w) uint32
    entropy array.  PCG64 (XSL-RR output) is seeded from generate_state(4, uint64) and
    stepped on (hi, lo) uint64 lanes; each double is (next64 >> 11) 2**-53."""
    def plus(a, b):
        lo = a[1] + b[1]
        return a[0] + b[0] + (lo < b[1]), lo

    def step(hi, lo):  # (hi, lo) * 0x2360ed051fc65da44385df649fccf645 + inc, mod 2**128
        a0, a1, b0, b1 = lo & 0xFFFFFFFF, lo >> 32, 0x9FCCF645, 0x4385DF64
        p01, p10 = a0 * b1, a1 * b0
        mid = (a0 * b0 >> 32) + (p01 & 0xFFFFFFFF) + (p10 & 0xFFFFFFFF)
        carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)  # high word of lo * mult
        return plus((carry + lo * 0x2360ED051FC65DA4 + hi * 0x4385DF649FCCF645,
                     lo * 0x4385DF649FCCF645), inc)

    init_hi, init_lo, seq_hi, seq_lo = _seed_states(entropy, 8).astype("<u4").view("<u8").T
    inc = (seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)
    state = step(*plus(inc, (init_hi, init_lo)))  # from 0: step (to inc), add, step
    out = np.empty((count, len(entropy)))
    for row in out:
        hi, lo = state = step(*state)
        x, rot = hi ^ lo, hi >> 58
        row[:] = ((x >> rot | x << ((64 - rot) & 63)) >> 11) * 2.0 ** -53
    return out.T


def _codeword_chunks(channel: CQChannel, m: int, n: int, chunk: int,
                     seeds=None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(B, M, n) int64 codeword arrays, B <= chunk, with their (B,) weights: each codebook
    in itertools.product order (its index's mixed-radix digits) with its probability, or
    per uint32 seed, or (T, w) entropy row, the default_rng(seed).choice(k, (M, n), p=Q) that
    _uniforms draws a chunk at a time, weighted 1/len(seeds).  The caller prices the run
    (_check_book)."""
    k, q = channel.alphabet_size, channel.q.probabilities
    if seeds is not None:
        entropy, cdf = np.asarray(seeds, dtype=np.uint32).reshape(len(seeds), -1), np.cumsum(q)
        for lo in range(0, len(entropy), chunk):
            uniforms = _uniforms(entropy[lo:lo + chunk], m * n).reshape(-1, m, n)
            drawn = np.searchsorted(cdf / cdf[-1], uniforms, side="right")
            yield drawn, np.full(len(drawn), 1.0 / len(entropy))
        return
    places = k ** np.arange(m * n - 1, -1, -1)
    for lo in range(0, k ** (m * n), chunk):
        digits = np.arange(lo, min(lo + chunk, k ** (m * n)))[:, None] // places % k
        yield digits.reshape(-1, m, n), np.prod(q[digits], axis=1)


def sample_codebook(channel: CQChannel, m: int, n: int, seed: int) -> Codebook:
    """Draw M codewords of length n i.i.d. from Q as default_rng(seed).choice(k, (M, n), p=Q)
    does, from numpy's stream computed in integer arithmetic; the seed is a non-negative int."""
    entropy = _entropy(seed)
    _check_book(channel, m, n)
    (words,), _ = next(_codeword_chunks(channel, m, n, 1, entropy))
    return Codebook(m=m, n=n, codewords=words, provenance=("sampled", int(seed)))


def enumerate_codebooks(channel: CQChannel, m: int, n: int
                        ) -> Iterator[tuple[Codebook, float]]:
    """Every codebook with its product probability under Q x ... x Q, lazily; a size past a
    cap is refused by the call, before the first codebook."""
    _check_book(channel, m, n, enumerated=True)
    return ((Codebook(m=m, n=n, codewords=words, provenance=("enumerated", idx)), float(prob))
            for idx, ((words,), (prob,)) in enumerate(_codeword_chunks(channel, m, n, 1)))


def product_state(channel: CQChannel, codeword) -> DensityOperator:
    """Tensor product of the per-symbol states along one codeword, a 1-D row of symbols."""
    if np.ndim(codeword) != 1:
        raise ValueError(f"a codeword must be one row of symbols, got shape {np.shape(codeword)}")
    word = _symbols(codeword)
    if word.size == 0:
        raise ValueError("codeword is empty")
    if word.min() < 0 or word.max() >= channel.alphabet_size:
        raise ValueError(
            f"codeword symbols must lie in [0, {channel.alphabet_size}), got {word.tolist()}"
        )
    _check_dims(channel, word.size)
    mats = [channel.states[x].matrix for x in word]
    return DensityOperator(reduce(kron, mats))


def pgm_povm(states) -> list[np.ndarray]:
    """Square-root measurement for a list of states: S^-1/2 sigma_m S^-1/2.

    S is the plain sum of the states; its pseudo-inverse square root acts on
    the support only (eigenvalues below 1e-10 are dropped).  The returned
    elements sum to the support projector; the complement I - sum is an
    implicit extra outcome counted as an error for every message.
    """
    mats = [s.matrix if isinstance(s, DensityOperator) else np.asarray(s, dtype=complex)
            for s in states]
    if not mats:
        raise ValueError("square-root measurement needs at least one state")
    dims = {m.shape[0] for m in mats}
    if len(dims) > 1:
        raise ValueError(f"states have mixed dimensions {sorted(dims)}")
    total = reduce(lambda a, b: a + b, mats)
    spec = hermitian_eig(total)
    w = spec.eigenvalues
    inv_sqrt = np.where(w > SUPPORT_TOL, 1.0 / np.sqrt(np.where(w > SUPPORT_TOL, w, 1.0)), 0.0)
    b = (spec.eigenvectors * inv_sqrt) @ spec.eigenvectors.conj().T
    return [b @ m @ b for m in mats]


def error_probability(channel: CQChannel, book: Codebook, povm) -> DecodingResult:
    """Per-message and average error of a POVM on the codebook's product states.

    Error for message m is 1 - Tr{Pi_m sigma_m}; mass landing in the
    complement outcome therefore counts against every message.
    """
    if len(povm) != book.m:
        raise ValueError(f"POVM has {len(povm)} elements for {book.m} codewords")
    states = [product_state(channel, w).matrix for w in book.codewords]
    if any(elem.shape != state.shape for state, elem in zip(states, povm)):
        raise ValueError("POVM element dimension does not match the product state")
    hits = [complex(np.einsum("ij,ji->", elem, state)).real
            for state, elem in zip(states, povm)]
    errs = np.clip(1.0 - np.array(hits), 0.0, 1.0)
    errs.setflags(write=False)
    return DecodingResult(per_message_error=errs, average_error=float(errs.mean()))


def helstrom_error(a: DensityOperator, b: DensityOperator) -> float:
    """Optimal equiprobable two-state discrimination error (1 - ||a-b||_1/2)/2.

    Lower-bounds the square-root-measurement error of any M = 2 codebook, so
    it serves as the independent oracle for the decoding pipeline.
    """
    if a.dim != b.dim:
        raise ValueError(f"states have different dimensions {a.dim} and {b.dim}")
    w = np.linalg.eigvalsh(a.matrix - b.matrix)
    trace_norm = float(np.abs(w).sum())
    return float(min(max(0.5 * (1.0 - 0.5 * trace_norm), 0.0), 0.5))


def _pgm_hits(states: np.ndarray) -> np.ndarray:
    """(B, M) square-root-measurement hits Tr{(B sigma_m)^2} = Tr{Pi_m sigma_m} in a (B, M, D, D)
    stack: pgm_povm batched, with B = S^-1/2 on the support of S = sum_m sigma_m."""
    total = reduce(np.add, states.swapaxes(0, 1))  # message order, as pgm_povm sums
    _reject_drift(total)
    w, v = _eigh(total)
    inv_sqrt = np.where(w > SUPPORT_TOL, 1.0 / np.sqrt(np.where(w > SUPPORT_TOL, w, 1.0)), 0.0)
    b = (v * inv_sqrt[:, None, :]) @ v.conj().swapaxes(-1, -2)
    c = b[:, None] @ states
    return np.einsum("bmij,bmji->bm", c, c).real


def _pair_blocks(letters: np.ndarray) -> list[np.ndarray]:
    """(k, ., .) factor stacks of kinds 0 to 3: 1, the letters, and sigma_x (x) sigma_x on the
    symmetric and antisymmetric two-site vectors (real orthonormal bases), sizes d(d +- 1)/2."""
    k, d = letters.shape[:2]
    e, (i, j), (p, q) = np.eye(d * d), np.triu_indices(d), np.triu_indices(d, 1)
    sym = (e[i * d + j] + e[j * d + i]) / np.sqrt(np.where(i == j, 4.0, 2.0))[:, None]
    anti = (e[p * d + q] - e[q * d + p]) / math.sqrt(2.0)
    two = (letters[:, :, None, :, None] * letters[:, None, :, None, :]).reshape(k, d * d, -1)
    return [np.ones((k, 1, 1)), letters, sym @ two @ sym.T, anti @ two @ anti.T]


def _block_problems(members: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(P, M, n) block problems of members, and the member of each: adjacent equal varying columns
    pair up, the first coded k + x (symmetric block) or 2k + x, the second -1; columns sorted."""
    problems, owner = members, np.arange(len(members))
    for j in range(members.shape[2] - 1):
        pair = (problems[:, :, j] == problems[:, :, j + 1]).all(axis=1) & (problems[:, 0, j] >= 0)
        split = np.repeat(problems[pair][None], 2, axis=0)
        split[..., j] += k * np.array([1, 2])[:, None, None]
        split[..., j + 1] = -1
        problems = np.concatenate([problems[~pair], *split])
        owner = np.concatenate([owner[~pair], owner[pair], owner[pair]])
    order = np.lexsort(problems.transpose(1, 0, 2)[::-1], axis=-1)
    return np.take_along_axis(problems, order[:, None], axis=2), owner


def _letter_symmetries(letters: np.ndarray) -> np.ndarray:
    """(|G|, k) alphabet permutations pi, identity first, for which a signed permutation
    matrix U (U, -U alike; all tried when d <= 4, else none) maps the k distinct letters onto
    letters exactly: U sigma_x U^T, formed by indexing and sign flips, == sigma_pi(x) entrywise.
    pi on a column conjugates one factor of every product state by U: P_e does not change."""
    k, d = letters.shape[:2]
    rows = lambda mats: list(map(tuple, mats.reshape(-1, d * d).tolist()))  # noqa: E731
    where = {row: x for x, row in enumerate(rows(letters))}
    if d > 4 or len(where) < k:  # equal letters: the identity alone
        return np.arange(k)[None]
    diagonals = itertools.product((1.0,), *[(1.0, -1.0)] * (d - 1))  # U = diag(v) P, v[0] = 1
    signs = np.array([np.outer(v, v) for v in diagonals])[:, None]  # on U sigma U^T's entries
    found = set()
    for perm in map(list, itertools.permutations(range(d))):
        images = [where.get(row) for row in rows(signs * letters[:, perm][:, :, perm])]
        found.update(tuple(images[lo:lo + k]) for lo in range(0, len(images), k)
                     if None not in images[lo:lo + k])
    return np.array(sorted(found))  # the identity is the least permutation


def _orbit_members(words: np.ndarray, group: np.ndarray) -> np.ndarray:
    """One member of each (M, n) codebook's orbit under message and position permutations
    and the letter symmetries ``group`` on any column, in a (B, M, n) stack: constant columns
    become -1 (an all-constant book becomes all -1, of width 0).  The message whose sorted
    distances to the others (no symmetry moves them) are least goes first, each column its
    least image, first entry first (itself under the identity alone); then the columns and
    rows are sorted twice, each keyed first by its sorted entries, which the other sort keeps."""
    m = words.shape[1]
    words = np.where((words == words[:, :1]).all(axis=1)[:, None, :], -1, words)
    far = np.sort(sum(c[:, :, None] != c[:, None] for c in np.moveaxis(words, 2, 0)), axis=2)
    first = np.lexsort(np.flip(far, 2).transpose(2, 0, 1))[:, :1]
    words = words[np.arange(len(words))[:, None], (np.arange(m) + first) % m]
    images = np.pad(group, ((0, 0), (0, 1)), constant_values=-1)[:, words]  # (|G|, B, M, n)
    least = np.lexsort(np.flip(images, 2).transpose(2, 0, 1, 3), axis=0)[:1, :, None]
    words = np.take_along_axis(images, least, axis=0)[0]
    for _ in range(2):  # a third round would move members of channels with no symmetry
        for lines, entries in ((2, 1), (1, 2)):  # columns, then rows
            keys = np.concatenate([np.flip(words, entries),
                                   np.flip(np.sort(words, axis=entries), entries)], axis=entries)
            order = np.lexsort(np.moveaxis(keys, entries, 0), axis=-1)
            words = np.take_along_axis(words, np.expand_dims(order, entries), axis=lines)
    return words


def _member_ids(members: np.ndarray, reps: dict) -> np.ndarray:
    """Index of each row (an (M, n) book or block problem) in ``reps``, new ones last."""
    keys = members.reshape(len(members), -1).view(f"V{members[0].size * 8}").ravel().tolist()
    return np.array([reps.setdefault(key, len(reps)) for key in keys])


def _decode_ensemble(channel: CQChannel, m: int, n: int, *, exhaustive: bool = True,
                     trials: int | None = None, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Decode each enumerated (or drawn) codebook; return codebook probabilities and average
    errors.  Each distinct column histogram (a codebook's columns sorted) is mapped once by
    _orbit_members, each distinct member split once by _block_problems, and each distinct block
    problem decoded once, batched by kind: each column's factor, none, a letter, or a pair's
    symmetric or antisymmetric block (no factor at all: P_e = 1 - 1/M exactly).  A kind's
    problems go in chunks of DECODE_CHUNK_BYTES // (M state bytes) problems (one at least),
    each built by one Kronecker chain of the validated letters' (real when all are) factors and
    decoded by one _pgm_hits call; no other states are held."""
    _check_book(channel, m, n, enumerated=exhaustive, trials=None if exhaustive else trials)
    letters = np.array([s.matrix for s in channel.states])  # (k, d, d)
    if not letters.imag.any():
        letters = letters.real
    group = _letter_symmetries(letters)
    seeds = None if exhaustive else _seed_states(_entropy(seed), trials)[0]
    reps, orbits, weights = {}, [], []  # column histogram bytes -> histogram index
    # codebooks of codewords or keys at once; a lane's seeding holds about 24 words (180 bytes)
    chunk = max(1, DECODE_CHUNK_BYTES // (8 * max(m * n, 24)))
    for words, weight in _codeword_chunks(channel, m, n, chunk, seeds):
        columns = np.ascontiguousarray(words.swapaxes(1, 2)).view(f"V{8 * m}")  # (B, n, 1)
        orbits.append(_member_ids(np.sort(columns, axis=1).view(np.int64).swapaxes(1, 2), reps))
        weights.append(weight)
    keys, reps = np.frombuffer(b"".join(reps), dtype=np.int64).reshape(len(reps), m, n), {}
    step = max(1, DECODE_CHUNK_BYTES // (8 * m * max(n * len(group), m)))  # images, distances
    orbits = np.concatenate([_member_ids(_orbit_members(keys[lo:lo + step], group), reps)
                             for lo in range(0, len(keys), step)])[np.concatenate(orbits)]
    del keys  # not held beside the members' keys and their stack
    members, reps = np.frombuffer(b"".join(reps), dtype=np.int64).reshape(len(reps), m, n), {}
    k, owners, ids = len(letters), [], []
    for lo in range(0, len(members), chunk):
        problems, owner = _block_problems(members[lo:lo + chunk], k)
        owners.append(owner + lo)
        ids.append(_member_ids(problems, reps))
    constant = (members[:, 0] < 0).all(axis=1)  # the all-constant member, of width 0
    del members  # not held beside the block problems' keys and their stack
    problems, reps = np.frombuffer(b"".join(reps), dtype=np.int64).reshape(len(reps), m, n), {}
    kinds, blocks = problems[:, 0] // k + 1, _pair_blocks(letters)  # a column's kind, 0 to 3
    hits = np.zeros((len(problems), m))  # no factor, or an empty antisymmetric block: no hits
    for kind in {tuple(row) for row in kinds[kinds.any(axis=1)].tolist()}:
        dim = math.prod(blocks[c].shape[1] for c in kind)
        if dim == 0:
            continue
        todo = np.flatnonzero((kinds == kind).all(axis=1))
        step = max(1, DECODE_CHUNK_BYTES // (m * dim ** 2 * letters.itemsize))  # problems per chunk
        for rows in np.split(todo, range(step, len(todo), step)):
            states = np.ones((len(rows) * m, 1, 1))
            for col in np.flatnonzero(kind):  # Kronecker chain, left to right
                right = blocks[kind[col]][problems[rows, :, col].ravel() % k][:, None, :, None, :]
                outer = states[:, :, None, :, None] * right
                states = outer.reshape(len(outer), outer.shape[1] * outer.shape[2], -1)
            hits[rows] = _pgm_hits(states.reshape(len(rows), m, dim, dim))
    errors = np.ones((len(constant), m))  # a member's hits add over its block problems
    np.subtract.at(errors, np.concatenate(owners), hits[np.concatenate(ids)])
    pes = np.where(constant, 1.0 - 1.0 / m, errors.clip(0.0, 1.0, out=errors).mean(axis=1))
    return np.concatenate(weights), pes[orbits]


def _rc_mean_bound(channel: CQChannel, m: int, n: int) -> float:
    """Ensemble-average error bound 2 (M-1)^s T(s)^n = 2 * 2**(-n E_r(log2(M-1)/n)), with T(s)
    the single-letter trace 2**-E0(s) and s the maximizer that random_coding_exponent and sweep
    report at that rate (every s in [0, 1] gives a valid bound); the powers are scalar, as
    numpy's array pow rounds differently."""
    s = float(_random_coding_lanes(channel, np.array([math.log2(m - 1) / n]))[1][0])
    return float(2.0 * (m - 1) ** s * (2.0 ** (-e0(channel, s))) ** n)


def _tilted_bound(channel: CQChannel, m: int, n: int, r: float) -> float:
    """Pairwise-overlap bound on E[P_e^(1/r)]: M^(1-1/r) (M-1) Z(1/r)^n."""
    z = 2.0 ** (-ex_function(channel, r) / r)
    return float(m ** (1.0 - 1.0 / r) * (m - 1) * z ** n)


def _power(base: float, r: float) -> float:
    """base ** r for base >= 0, +inf where the float power overflows."""
    try:
        return base ** r
    except OverflowError:
        return math.inf


def run_ensemble(channel: CQChannel, m: int, n: int, *, trials: int | None = None,
                 exhaustive: bool = False, r_list=(1.0, 2.0, 4.0),
                 seed: int = 0, gamma: float | None = None) -> EnsembleReport:
    """Estimate E[P_e] and the tilted means E[P_e^(1/r)] under square-root
    measurement decoding and check them against the ensemble bounds: E[P_e] against
    2 * 2**(-n E_r(log2(M-1)/n)), E[P_e^(1/r)] against the pairwise-overlap bound.

    Exhaustive mode enumerates every codebook and weights by its product
    probability; expectations are exact and verdicts use slack 1e-12.
    Monte-Carlo mode draws ``trials`` >= 2 codebooks (one sub-seed per trial
    derived from ``seed`` >= 0) and verdicts allow three standard errors; one
    draw is refused, as its sample variance, and so its slack, is 0.
    With ``gamma`` (exhaustive mode only) the report also carries, for each r,
    the exact quantile check P[P_e >= (gamma E[P_e^(1/r)])^r] against 1/gamma.
    A bound or threshold whose r-th power overflows a float is +inf; a threshold
    that underflows is the least positive float.

    Each run value is refused here, before anything is decoded, by a ValueError naming its key
    in quotes: ``exhaustive`` a bool, ``r_list`` a list, tuple or 1-D array of finite orders
    >= 1 distinct as printed (%g), integers ``seed`` >= 0, ``trials`` >= 2 when given, ``m``
    >= 2 and ``n`` >= 1 (within _check_book's caps), and ``gamma`` finite and >= 1.
    """
    if not isinstance(exhaustive, bool):
        raise ValueError(f"'exhaustive' must be True or False, got {exhaustive!r}")
    if isinstance(r_list, (tuple, np.ndarray)) and getattr(r_list, "ndim", 1) == 1:
        r_list = list(r_list)  # one rule for the three forms; any other value is refused whole
    r_list = tuple(_numbers(r_list, 1, "'r_list'"))
    if not all(1.0 <= r < math.inf for r in r_list):
        raise ValueError(f"tilt orders 'r_list' must be finite and >= 1, got {r_list}")
    if len({f"{r:g}" for r in r_list}) < len(r_list):  # the report keys orders by %g
        raise ValueError(f"tilt orders 'r_list' must be distinct as printed (%g), got {r_list}")
    _entropy(seed)  # refuses a seed that is not a non-negative integer
    if trials is not None or not exhaustive:
        _count(trials, 2, "'trials' must be an integer >= 2 (or None with exhaustive=True)")
    if gamma is not None:
        if not exhaustive:
            raise ValueError("the quantile check 'gamma' needs exhaustive enumeration: it is exact")
        gamma = _check_gamma(gamma)
    weights, pes = _decode_ensemble(channel, m, n, exhaustive=exhaustive,
                                    trials=trials, seed=seed)

    def check(name: str, bound: float, r: float) -> tuple[float, BoundCheck]:
        """E[P_e^(1/r)] and the verdict on its r-th power; r = 1 is the mean check."""
        tilted = pes ** (1.0 / r)
        mean = float(weights @ tilted)
        if exhaustive:
            slack = EXACT_SLACK
        else:
            var = float(weights @ (tilted - mean) ** 2) * trials / (trials - 1)
            # delta method: d(x^r)/dx at the tilted mean scales the 3-sigma slack
            slack = MC_SIGMAS * math.sqrt(var / trials) * r * mean ** (r - 1.0)
        return mean, BoundCheck(name, bound, mean ** r, slack)

    mean_pe, mean_check = check("mean_error_bound", _rc_mean_bound(channel, m, n), 1.0)
    checks, tilted_means, markov_checks = [mean_check], {}, []
    for r in r_list:
        tilted_means[r], tilted_check = check(
            f"tilted_mean_bound_r{r:g}", _power(_tilted_bound(channel, m, n, r), r), r)
        checks.append(tilted_check)
        if gamma is not None:  # (gamma T)^r > 0: a book of M equal words has P_e = 1 - 1/M
            threshold = _power(gamma * tilted_means[r], r) or math.ulp(0.0)
            mass = float(weights[pes >= threshold].sum())
            markov_checks.append((r, BoundCheck(f"markov_bound_r{r:g}", 1.0 / gamma, mass,
                                                EXACT_SLACK)))

    # math.log2: numpy's SIMD np.log2 differs in the last bit on some doubles (moves samples)
    samples = tuple(-math.log2(p) / n if p > 0.0 else math.inf for p in pes.tolist())
    return EnsembleReport(  # Python numbers, so the JSON document takes numpy counts too
        decoder="pgm", m=int(m), n=int(n), exhaustive=exhaustive,
        trials=None if exhaustive else int(trials), seed=None if exhaustive else int(seed),
        mean_pe=mean_pe, tilted_means=tilted_means, exponent_samples=samples,
        bound_checks=tuple(checks), gamma=gamma, markov_checks=tuple(markov_checks))


def verify_markov_bound(channel: CQChannel, m: int, n: int, r: float,
                        gamma: float) -> BoundCheck:
    """Exact check of P[P_e >= (gamma E[P_e^(1/r)])^r] <= 1/gamma for one order r >= 1:
    run_ensemble's exhaustive check with r_list=(r,); a bad r is refused here, as 'r'."""
    if not 1.0 <= (r := _numbers(r, 0, "'r'")) < math.inf:
        raise ValueError(f"'r' must be finite and >= 1, got {r}")
    return run_ensemble(channel, m, n, exhaustive=True, r_list=(r,),
                        gamma=gamma).markov_checks[0][1]
