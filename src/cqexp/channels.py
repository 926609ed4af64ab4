"""Classical-quantum channel model: states, input distributions, constructors.

A channel is a finite input alphabet together with one density operator per
symbol and an input distribution Q.  Three constructions are supported: a
generic list of states, the binary channel whose two outputs are equal-purity
qubit states symmetric about the x axis of the Bloch sphere, and the diagonal
embedding of a classical discrete memoryless channel (which makes every
quantum functional reduce to its classical counterpart and is used as a
cross-validation oracle throughout the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qlinalg import DensityOperator, overlap, von_neumann_entropy
from .search import golden_section_maximize

DIST_TOL = 1e-12
ROW_TOL = 1e-12
ASCENT_TOL = 1e-6  # coordinate ascent stops when a full sweep gains less (bits)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class ChannelValidationError(ValueError):
    """All channel validation failures, collected and reported together."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("invalid channel: " + "; ".join(self.problems))


@dataclass(frozen=True, eq=False)
class InputDistribution:
    """Probability vector over the input alphabet (entries >= 0, sum 1 +- 1e-12)."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float).ravel()
        if p.size == 0:
            raise ValueError("input distribution must have at least one symbol")
        if not float(p.min()) >= -DIST_TOL:
            raise ValueError(f"input distribution has a negative entry: {float(p.min()):.3e}")
        p = np.where(p < 0.0, 0.0, p)
        total = float(p.sum())
        if not abs(total - 1.0) <= DIST_TOL:
            raise ValueError(f"input distribution sums to {total:.12g}, not 1 within {DIST_TOL:g}")
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    @classmethod
    def uniform(cls, k: int) -> "InputDistribution":
        return cls(np.full(k, 1.0 / k))

    @property
    def size(self) -> int:
        return self.probabilities.size

    def __len__(self) -> int:
        return self.size


@dataclass(frozen=True, eq=False)
class CQChannel:
    """Validated classical-quantum channel: one density operator per symbol.

    Construction collects every structural failure (empty state list, mixed
    dimensions, alphabet/distribution length mismatch) into a single
    ChannelValidationError.  ``q`` may be given as a raw probability sequence,
    or as None for the uniform distribution.
    """

    states: tuple[DensityOperator, ...]
    q: InputDistribution

    def __post_init__(self):
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        problems = []
        if not states:
            problems.append("channel needs at least one state")
        for i, s in enumerate(states):
            if not isinstance(s, DensityOperator):
                problems.append(f"state {i} is not a DensityOperator")
        if not problems:
            dims = {s.dim for s in states}
            if len(dims) > 1:
                problems.append(f"states have mixed dimensions {sorted(dims)}")
        q = self.q
        if q is None and states:
            q = InputDistribution.uniform(len(states))
        if not isinstance(q, InputDistribution):
            try:
                q = InputDistribution(q)
            except ValueError as exc:
                problems.append(str(exc))
                q = None
        object.__setattr__(self, "q", q)
        if q is not None and states and len(q) != len(states):
            problems.append(f"distribution has {len(q)} entries for {len(states)} states")
        if problems:
            raise ChannelValidationError(problems)

    @property
    def alphabet_size(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    @cached_property
    def overlap_gram(self) -> np.ndarray:
        """Pairwise square-root overlaps Tr{sqrt(s_x) sqrt(s_x')}, symmetric in [0,1]."""
        k = self.alphabet_size
        g = np.empty((k, k))
        for i in range(k):
            g[i, i] = overlap(self.states[i], self.states[i])
            for j in range(i + 1, k):
                g[i, j] = g[j, i] = overlap(self.states[i], self.states[j])
        g.setflags(write=False)
        return g


@dataclass(frozen=True)
class PauliChannelParams:
    """Purity mu in [0.5, 1] and Bloch half-angle theta for the binary qubit channel."""

    mu: float
    theta: float

    def __post_init__(self):
        if not 0.5 <= self.mu <= 1.0:
            raise ValueError(f"purity mu must lie in [0.5, 1], got {self.mu}")

    @property
    def bloch_length(self) -> float:
        """Common Bloch-vector length A = sqrt(2 mu - 1)."""
        return math.sqrt(2.0 * self.mu - 1.0)


def binary_pauli(params: PauliChannelParams, q: InputDistribution | None = None) -> CQChannel:
    """Two qubit states of purity mu at Bloch angles +-theta from the z axis.

    sigma_x = (I + A sin(theta) X +- A cos(theta) Z) / 2 with A = sqrt(2 mu - 1).
    Both states have purity Tr{sigma^2} = mu; at mu = 1, theta = 0 they are
    the orthogonal z projectors.  Default input distribution is uniform.
    """
    a = params.bloch_length
    hx = a * math.sin(params.theta) * PAULI_X
    hz = a * math.cos(params.theta) * PAULI_Z
    eye = np.eye(2, dtype=complex)
    first = DensityOperator((eye + hx + hz) / 2)
    second = DensityOperator((eye + hx - hz) / 2)
    return CQChannel((first, second), q)


def from_classical_dmc(w, q) -> CQChannel:
    """Embed a classical DMC row-stochastic matrix W as diagonal states.

    w[x, y] = W(y|x); state x is diag(W(.|x)).  All states commute, so every
    functional of the channel equals its classical counterpart.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise ValueError(f"transition matrix must be 2-d, got shape {w.shape}")
    if not float(w.min()) >= 0.0:
        raise ValueError(f"transition matrix has a negative entry: {float(w.min()):.3e}")
    rows = w.sum(axis=1)
    bad = ~(np.abs(rows - 1.0) <= ROW_TOL)
    if bad.any():
        idx = int(np.argmax(bad))
        raise ValueError(f"row {idx} of the transition matrix sums to {rows[idx]:.12g}, not 1")
    states = tuple(DensityOperator(np.diag(row).astype(complex)) for row in w)
    return CQChannel(states, q)


def average_state(channel: CQChannel) -> DensityOperator:
    """Q-average output state sum_x Q(x) sigma_x."""
    acc = np.zeros((channel.dim, channel.dim), dtype=complex)
    for qx, state in zip(channel.q.probabilities, channel.states):
        acc += qx * state.matrix
    return DensityOperator(acc)


def holevo_information(channel: CQChannel) -> float:
    """Holevo information H(avg) - sum_x Q(x) H(sigma_x) in bits.

    This is the capacity of the channel at the fixed input distribution Q
    and the slope of the random-coding exponent base function at s = 0.
    """
    h_avg = von_neumann_entropy(average_state(channel))
    h_cond = sum(
        qx * von_neumann_entropy(s)
        for qx, s in zip(channel.q.probabilities, channel.states)
        if qx > 0.0
    )
    return max(0.0, h_avg - h_cond)


def _with_distribution(channel: CQChannel, p: np.ndarray) -> CQChannel:
    p = np.where(p < 0.0, 0.0, p)
    p = p / p.sum()
    return CQChannel(channel.states, InputDistribution(p))


def optimize_input(channel: CQChannel) -> tuple[InputDistribution, float]:
    """Maximize Holevo information over the input simplex (alphabets up to 8).

    Pairwise-exchange coordinate ascent from the uniform distribution, one
    golden-section search per pair of symbols: Holevo information is concave
    in Q, so each search is exact, and the result is never below the
    uniform-Q value.
    """
    k = channel.alphabet_size
    if k > 8:
        raise ValueError(f"input optimization supports at most 8 symbols, got {k}")

    def value(p: np.ndarray) -> float:
        return holevo_information(_with_distribution(channel, p))

    p = np.full(k, 1.0 / k)
    best = value(p)
    for _ in range(200):
        gained = 0.0
        for i in range(k):
            for j in range(i + 1, k):
                span = p[i] + p[j]
                if span <= 0.0:
                    continue

                def move(t, i=i, j=j, span=span):
                    trial = p.copy()
                    trial[i] = t
                    trial[j] = span - t
                    return value(trial)

                t, ft = golden_section_maximize(move, 0.0, span)
                if ft > best:
                    gained += ft - best
                    best = ft
                    p[i], p[j] = t, span - t
        if gained < ASCENT_TOL:
            break
    return InputDistribution(p), float(best)


# --- configuration documents -------------------------------------------------
#
# {"kind": "pauli",     "mu": 0.95, "theta": 0.5235987755982988, "q": [0.5, 0.5]}
# {"kind": "classical", "w": [[0.9, 0.1], [0.1, 0.9]],           "q": [0.5, 0.5]}
# {"kind": "generic",   "states": [{"re": [[...]], "im": [[...]]}, ...], "q": [...]}
#
# For every kind "q" may be omitted or null for the uniform distribution.
# theta defaults to pi/6.


def channel_from_config(doc: dict) -> CQChannel:
    """Build a channel from a configuration dictionary (see schema above)."""
    if not isinstance(doc, dict):
        raise ValueError("channel config must be a JSON object")
    kind = doc.get("kind")
    if kind == "pauli":
        params = PauliChannelParams(
            mu=float(doc["mu"]), theta=float(doc.get("theta", math.pi / 6))
        )
        return binary_pauli(params, doc.get("q"))
    if kind == "classical":
        return from_classical_dmc(doc["w"], doc.get("q"))
    if kind == "generic":
        raw = doc.get("states")
        if not raw:
            raise ChannelValidationError(["generic channel config needs a non-empty 'states' list"])
        problems = []
        states = []
        for i, entry in enumerate(raw):
            try:
                re = np.asarray(entry["re"], dtype=float)
                im = np.asarray(entry.get("im", np.zeros_like(re)), dtype=float)
                states.append(DensityOperator(re + 1j * im))
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"state {i}: {exc}")
        if problems:
            raise ChannelValidationError(problems)
        return CQChannel(tuple(states), doc.get("q"))
    raise ValueError(f"unknown channel kind {kind!r} (expected pauli, classical, or generic)")


def channel_to_config(channel: CQChannel) -> dict:
    """Export any channel as a generic configuration document."""
    return {
        "kind": "generic",
        "states": [
            {"re": s.matrix.real.tolist(), "im": s.matrix.imag.tolist()}
            for s in channel.states
        ],
        "q": channel.q.probabilities.tolist(),
    }
