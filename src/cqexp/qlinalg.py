"""Hermitian matrix calculus backing the channel and exponent computations.

Everything is eigendecomposition based.  Numerical conventions shared by the
whole package:

* logarithms are base 2,
* eigenvalues in [-1e-10, 0) are treated as exact zeros, anything more
  negative is rejected as not positive semidefinite,
* 0**p == 0 for every p > 0, so fractional powers act only on the support,
* Kronecker products refuse to build matrices larger than 4096 x 4096.

Every record of the package derives from _Record, a frozen-record base that,
unlike a dataclass, builds no methods when a record class is defined.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

HERMITIAN_TOL = 1e-12
EIGENVALUE_CLAMP = 1e-10
TRACE_TOL = 1e-9
DIM_CAP = 4096


class _Record:
    """Frozen record that generates no code: a subclass's annotated names are its fields, in
    order, and a class attribute of the same name is a default.  The fields are taken by
    position or keyword, then self.__post_init__() runs (looked up per call, so a patched hook
    runs too).  Records compare by identity, or with ``eq=True`` by their fields, hashed alike."""

    def __init_subclass__(cls, eq: bool = False):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        if eq:  # a value record holds its fields and nothing else
            cls.__eq__ = lambda a, b: vars(a) == vars(b) if type(b) is type(a) else NotImplemented
            cls.__hash__ = lambda a: hash(tuple(vars(a).values()))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) == len(fields) and not kwargs:
            self.__dict__.update(zip(fields, args))
        else:  # all by keyword in declaration order, or else bound like a call, with defaults
            if args or tuple(kwargs) != fields:
                from inspect import Parameter, Signature
                bound = Signature([Parameter(name, Parameter.POSITIONAL_OR_KEYWORD,
                                             default=vars(type(self)).get(name, Parameter.empty))
                                   for name in fields]).bind(*args, **kwargs)
                bound.apply_defaults()
                kwargs = bound.arguments
            self.__dict__.update(kwargs)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (a + a^dagger) / 2."""
    return (a + a.conj().T) / 2


def _reject_drift(m: np.ndarray) -> None:
    """Refuse anti-Hermitian residue above 1e-12 in a matrix or a stack of them."""
    with np.errstate(invalid="ignore"):  # any non-finite entry leaves an inf or NaN drift
        drift = float(np.max(np.abs(m - m.conj().swapaxes(-1, -2)))) if m.size else 0.0
    if not drift <= HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian or not finite: max |a - a^dagger| = {drift:.3e}")


def require_hermitian(a) -> np.ndarray:
    """Coerce to a complex square matrix, symmetrizing drift up to 1e-12.

    Anti-Hermitian residue larger than 1e-12 is an input error, not noise,
    and is rejected.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    _reject_drift(m)
    return hermitianize(m)


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh (ascending, stacks too), naming the matrix size if it fails."""
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        d = h.shape[-1]
        raise np.linalg.LinAlgError(
            f"eigendecomposition did not converge for a {d}x{d} Hermitian matrix") from exc


class Spectrum(_Record):
    """Eigenvalues in descending order with the matching eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m) -> Spectrum:
    """Spectral decomposition of a Hermitian matrix, eigenvalues descending."""
    w, v = _eigh(require_hermitian(m))
    # eigh sorts ascending; flip to descending
    w = np.ascontiguousarray(w[::-1])
    v = np.ascontiguousarray(v[:, ::-1])
    w.setflags(write=False)
    v.setflags(write=False)
    return Spectrum(w, v)


def _clamp_psd(w: np.ndarray, context: str) -> np.ndarray:
    """Zero out eigenvalues in [-1e-10, 0); reject anything more negative."""
    if w.size and not float(w.min()) >= -EIGENVALUE_CLAMP:
        raise ValueError(
            f"{context}: eigenvalue {float(w.min()):.3e} is below -{EIGENVALUE_CLAMP:.0e}; "
            "matrix is not positive semidefinite"
        )
    return np.where(w < 0.0, 0.0, w)


class DensityOperator(_Record):
    """Hermitian, positive semidefinite, unit-trace matrix.

    Hermiticity and trace are checked eagerly; the spectrum is computed on
    first use and cached, with the clamping convention applied there.  The
    stored matrix is made read-only so instances are immutable.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = require_hermitian(self.matrix)
        tr = float(np.trace(m).real)
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"density operator trace {tr:.12g} is not 1 within {TRACE_TOL:g}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def spectrum(self) -> Spectrum:
        spec = hermitian_eig(self.matrix)
        w = _clamp_psd(spec.eigenvalues, "density operator")
        w.setflags(write=False)
        return Spectrum(w, spec.eigenvectors)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectrum.eigenvalues

    @property
    def eigenvectors(self) -> np.ndarray:
        return self.spectrum.eigenvectors

    @cached_property
    def sqrt(self) -> np.ndarray:
        """Matrix square root on the support."""
        return matrix_power(self, 0.5)

    @classmethod
    def from_pure(cls, vec) -> "DensityOperator":
        """Projector onto a state vector (normalized internally)."""
        v = np.asarray(vec, dtype=complex).ravel()
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("zero vector has no associated pure state")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(np.eye(dim, dtype=complex) / dim)


def matrix_power(rho, p: float) -> np.ndarray:
    """Fractional matrix power V diag(lambda_i**p) V^dagger for PSD input.

    Accepts a DensityOperator (cached spectrum reused) or any PSD Hermitian
    array.  Zero eigenvalues stay zero: the power acts on the support only.
    """
    if not 0 < p < math.inf:
        raise ValueError(f"matrix power expects a finite p > 0, got {p}")
    if isinstance(rho, DensityOperator):
        spec = rho.spectrum
    else:
        raw = hermitian_eig(rho)
        spec = Spectrum(_clamp_psd(raw.eigenvalues, "matrix_power"), raw.eigenvectors)
    w = spec.eigenvalues ** p  # 0.0**p == 0.0 for p > 0
    return (spec.eigenvectors * w) @ spec.eigenvectors.conj().T


def overlap(a: DensityOperator, b: DensityOperator) -> float:
    """Square-root overlap Tr{sqrt(a) sqrt(b)}, clamped to [0, 1].

    The trace of a product of PSD matrices is real; any imaginary residue
    (below 1e-10 for valid inputs) is discarded.
    """
    if a.dim != b.dim:
        raise ValueError(f"overlap needs equal dimensions, got {a.dim} and {b.dim}")
    val = complex(np.einsum("ij,ji->", a.sqrt, b.sqrt))
    return float(min(max(val.real, 0.0), 1.0))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Von Neumann entropy -sum(lambda log2 lambda) in bits, with 0 log 0 = 0."""
    w = rho.eigenvalues
    pos = w[w > 0.0]
    return float(max(0.0, -np.sum(pos * np.log2(pos))))


def kron(a, b) -> np.ndarray:
    """Kronecker product with a hard output-dimension cap of 4096."""
    am = a.matrix if isinstance(a, DensityOperator) else np.asarray(a, dtype=complex)
    bm = b.matrix if isinstance(b, DensityOperator) else np.asarray(b, dtype=complex)
    out = am.shape[0] * bm.shape[0]
    if out > DIM_CAP:
        raise ValueError(f"Kronecker product dimension {out} exceeds the cap {DIM_CAP}")
    return np.kron(am, bm)
