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
from functools import cached_property

import numpy as np

from .qlinalg import DensityOperator, _eigh, _Record, overlap, von_neumann_entropy

DIST_TOL = 1e-12
ROW_TOL = 1e-12
ASCENT_TOL = 1e-6  # optimize_input stops when its capacity gap is below this (bits)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class ChannelValidationError(ValueError):
    """All channel validation failures, collected and reported together."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("invalid channel: " + "; ".join(self.problems))


class InputDistribution(_Record):
    """Probability vector over the input alphabet (entries >= 0, sum 1 +- 1e-12)."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float).ravel()
        if p.size == 0:
            raise ValueError("input distribution must have at least one symbol")
        bad = p[~np.isfinite(p)]
        if bad.size:
            raise ValueError(f"input distribution has an entry that is not finite: {bad[0]}")
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


class CQChannel(_Record):
    """Validated classical-quantum channel: one density operator per symbol.

    Construction collects every failure (empty state list, a state that is
    not positive semidefinite, mixed dimensions, alphabet/distribution length
    mismatch) into a single ChannelValidationError.  ``q`` may be given as a
    raw probability sequence, or as None for the uniform distribution.
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
                continue
            try:
                s.spectrum  # cached on the state; refuses one that is not PSD
            except ValueError as exc:
                problems.append(f"state {i}: {exc}")
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


class PauliChannelParams(_Record, eq=True):
    """Purity mu in [0.5, 1] and Bloch half-angle theta for the binary qubit channel."""

    mu: float
    theta: float

    def __post_init__(self):
        if not 0.5 <= self.mu <= 1.0:
            raise ValueError(f"purity mu must lie in [0.5, 1], got {self.mu}")
        if not math.isfinite(self.theta):
            raise ValueError(f"Bloch angle theta must be finite, got {self.theta}")

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
    bad = w[~np.isfinite(w)]
    if bad.size:
        raise ValueError(f"transition matrix has an entry that is not finite: {bad[0]}")
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


def optimize_input(channel: CQChannel) -> tuple[InputDistribution, float]:
    """Maximize Holevo information over the input simplex (Blahut-Arimoto).

    The CQ Blahut-Arimoto iteration Q(x) <- Q(x) 2^D(sigma_x||rho_Q) / norm from the
    uniform distribution (Nagaoka 1998).  I(Q) never decreases along it, so the result
    is never below the uniform-Q value.  It stops once the capacity gap
    max_x D(sigma_x||rho_Q) - I(Q), an upper bound on capacity minus I(Q), is below
    ASCENT_TOL bits.
    """
    entropies = np.array([von_neumann_entropy(s) for s in channel.states])
    stack = np.array([s.matrix for s in channel.states])
    p = np.full(channel.alphabet_size, 1.0 / channel.alphabet_size)
    for _ in range(100_000):
        w, v = _eigh(np.tensordot(p, stack, 1))  # rho_Q
        logs = np.log2(w, out=np.zeros_like(w), where=w > 0.0)  # log2 rho_Q on its support
        log_rho = (v * logs) @ v.conj().T
        d = -entropies - np.einsum("xjk,kj->x", stack, log_rho).real  # D(sigma_x||rho_Q)
        if d.max() - p @ d < ASCENT_TOL:
            break
        p = p * np.exp2(d - d.max())
        p = p / p.sum()
    at_p = CQChannel(channel.states, InputDistribution(p))
    return at_p.q, holevo_information(at_p)


# --- configuration documents -------------------------------------------------
#
# {"kind": "pauli",     "mu": 0.95, "theta": 0.5235987755982988, "q": [0.5, 0.5]}
# {"kind": "classical", "w": [[0.9, 0.1], [0.1, 0.9]],           "q": [0.5, 0.5]}
# {"kind": "generic",   "states": [{"re": [[...]], "im": [[...]]}, ...], "q": [...]}
#
# For every kind "q" may be omitted or null for the uniform distribution.
# theta defaults to pi/6.  Every number must be a JSON number (see _numbers), and
# any other key, in the document or in a generic state, is refused.


def _floats(v, depth: int):
    """v as floats nested depth lists deep; TypeError for anything else.  A module function,
    not a closure in _numbers: a recursive closure is a reference cycle only the GC frees."""
    if depth:
        if not isinstance(v, list):
            raise TypeError
        return [_floats(x, depth - 1) for x in v]
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        raise TypeError
    return float(v)  # OverflowError for an integer beyond the float range


def _numbers(value, ndim: int = 1, name: str = "value"):
    """A number (ndim 0: an int or float, numpy's included), list of numbers (1) or list of
    such lists (2), as floats nested alike; booleans, strings, null, objects and any other
    nesting are refused under the given name, on one line (each whitespace run of the repr one
    space).  The one rule for numbers in configs, run documents, gamma, tilts, orders and rates."""
    try:
        return _floats(value, ndim)
    except (TypeError, OverflowError):
        kind = ("a number", "a list of numbers", "a list of lists of numbers")[ndim]
        raise ValueError(f"{name} must be {kind}, got {' '.join(repr(value).split())}") from None


def _count(value, least: int, rule: str) -> None:
    """Refuse anything but an int or numpy integer (not a bool) >= least: the one count rule."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{rule}, got {value!r}")


def channel_from_config(doc: dict) -> CQChannel:
    """Build a channel from a configuration dictionary (see schema above)."""
    if not isinstance(doc, dict):
        raise ValueError("channel config must be a JSON object")
    kind = doc.get("kind")
    fields = {"pauli": ("mu", "theta"), "classical": ("w",), "generic": ("states",)}
    if not isinstance(kind, str) or kind not in fields:
        raise ValueError(f"unknown channel kind {kind!r} (expected pauli, classical, or generic)")
    unknown = sorted(set(doc) - set(fields[kind]) - {"kind", "q"})
    if unknown:
        raise ValueError(f"unknown {kind} channel keys {unknown}")
    if fields[kind][0] not in doc:  # each kind's first field is required
        raise ValueError(f"{kind} channel config needs '{fields[kind][0]}'")
    q = None if doc.get("q") is None else _numbers(doc["q"], 1, "'q'")
    if kind == "pauli":
        params = PauliChannelParams(
            mu=_numbers(doc["mu"], 0, "'mu'"),
            theta=_numbers(doc.get("theta", math.pi / 6), 0, "'theta'"),
        )
        return binary_pauli(params, q)
    if kind == "classical":
        return from_classical_dmc(_numbers(doc["w"], 2, "'w'"), q)
    raw = doc["states"]
    if not isinstance(raw, list) or not raw:
        raise ChannelValidationError(["generic channel config needs a non-empty 'states' list"])
    problems = []
    states = []
    for i, entry in enumerate(raw):
        try:
            if not isinstance(entry, dict) or "re" not in entry:
                raise ValueError(f"needs an object with 're' and optional 'im', got {entry!r}")
            if set(entry) - {"re", "im"}:
                raise ValueError(f"unknown keys {sorted(set(entry) - {'re', 'im'})}")
            re = np.asarray(_numbers(entry["re"], 2, "'re'"))
            im = np.asarray(_numbers(entry["im"], 2, "'im'")) if "im" in entry else 0.0
            states.append(DensityOperator(re + 1j * im))
        except ValueError as exc:
            problems.append(f"state {i}: {exc}")
    if problems:
        raise ChannelValidationError(problems)
    return CQChannel(tuple(states), q)


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
