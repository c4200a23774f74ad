"""Dense Hermitian-operator utilities: validation, spectra, trace norms.

Everything downstream (channels, divisibility scans, witness searches) sits
on these few primitives, so the tolerance story lives here:

* Hermiticity is checked against ``TAU_HERM`` (max-entry deviation).
* Eigenvalues within ``TAU_EIG * max|lambda|`` of zero are clamped to zero
  before any sign-dependent logic runs. Trace norms and Jordan splits would
  otherwise flip on 1e-16 noise around degenerate zeros.

Vectorization is column-stacking throughout: ``vec(A X B) = kron(B.T, A) vec(X)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._errors import DimensionMismatch, NonHermitianInput

TAU_HERM = 1e-10
TAU_EIG = 1e-8
TAU_SLOPE = 1e-6
RCOND = 1e-10


def require_hermitian(x: np.ndarray, atol: float = TAU_HERM) -> np.ndarray:
    """Validate Hermiticity and return the exactly-Hermitian part (X + X*)/2.

    Raises NonHermitianInput when max|X - X*| exceeds atol, and
    DimensionMismatch for non-square input.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {x.shape}")
    dev = float(np.max(np.abs(x - x.conj().T))) if x.size else 0.0
    if dev > atol:
        raise NonHermitianInput(f"matrix deviates from Hermitian by {dev:.3e} (atol={atol:.1e})")
    return (x + x.conj().T) / 2


def clamp_eigenvalues(vals: np.ndarray, rtol: float = TAU_EIG) -> np.ndarray:
    """Zero out eigenvalues with |lambda| <= rtol * max|lambda|."""
    vals = np.asarray(vals, dtype=float)
    if vals.size == 0:
        return vals
    floor = rtol * float(np.max(np.abs(vals)))
    out = vals.copy()
    out[np.abs(out) <= floor] = 0.0
    return out


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix with clamped eigenvalues.

    values are ascending and real; vectors[:, i] is the unit eigenvector for
    values[i]. reconstruct() returns V diag(values) V*.
    """

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.conj().T

    def positive_part(self) -> np.ndarray:
        pos = np.where(self.values > 0, self.values, 0.0)
        return (self.vectors * pos) @ self.vectors.conj().T

    def negative_part(self) -> np.ndarray:
        """PSD matrix N with X = P - N."""
        neg = np.where(self.values < 0, -self.values, 0.0)
        return (self.vectors * neg) @ self.vectors.conj().T


def spectral(x: np.ndarray, atol: float = TAU_HERM, rtol: float = TAU_EIG) -> SpectralDecomposition:
    xh = require_hermitian(x, atol=atol)
    vals, vecs = np.linalg.eigh(xh)
    return SpectralDecomposition(values=clamp_eigenvalues(vals, rtol=rtol), vectors=vecs)


def trace_norm(x: np.ndarray, atol: float = TAU_HERM) -> float:
    """Trace norm of a Hermitian matrix: the sum of |eigenvalues|.

    Hermitian-only on purpose; every witness this package evaluates is
    Hermitian, and the eigenvalue route is both cheaper and exact for the
    Jordan decomposition bookkeeping.
    """
    xh = require_hermitian(x, atol=atol)
    return float(np.sum(np.abs(np.linalg.eigvalsh(xh))))


def trace_norms(xs: np.ndarray, atol: float = TAU_HERM) -> np.ndarray:
    """Trace norms of a stack of Hermitian matrices, shape (N, D, D), from
    one stacked eigensolve.

    Applies require_hermitian's check to the whole stack: NonHermitianInput
    when any max|X - X*| exceeds atol, DimensionMismatch for a stack that is
    not of square matrices.
    """
    xs = np.asarray(xs, dtype=complex)
    if xs.ndim != 3 or xs.shape[1] != xs.shape[2]:
        raise DimensionMismatch(f"expected a stack of square matrices, got shape {xs.shape}")
    xh = xs.conj().swapaxes(1, 2)
    dev = float(np.max(np.abs(xs - xh))) if xs.size else 0.0
    if dev > atol:
        raise NonHermitianInput(f"matrix deviates from Hermitian by {dev:.3e} (atol={atol:.1e})")
    xh += xs
    xh *= 0.5
    return np.sum(np.abs(np.linalg.eigvalsh(xh)), axis=-1)


def jordan_split(x: np.ndarray, atol: float = TAU_HERM) -> tuple[np.ndarray, np.ndarray]:
    """Split Hermitian X into PSD parts (P, N) with X = P - N and P N = 0."""
    dec = spectral(x, atol=atol)
    return dec.positive_part(), dec.negative_part()


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(x).reshape(-1, order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v).reshape((d, d), order="F")


def sandwich_super(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator of X -> A X B under column-stacking: kron(B.T, A)."""
    return np.kron(np.asarray(b).T, np.asarray(a))


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    """GUE-style Hermitian sample, normalized to unit trace norm."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2
    tn = float(np.sum(np.abs(np.linalg.eigvalsh(h))))
    return h / tn if tn > 0 else h


def random_projector_difference(d: int, rng: np.random.Generator, rank: int = 1) -> np.ndarray:
    """psi psi* - phi phi* style witness with Haar-ish random ranges."""
    g = rng.standard_normal((d, 2 * rank)) + 1j * rng.standard_normal((d, 2 * rank))
    q, _ = np.linalg.qr(g)
    p1 = q[:, :rank] @ q[:, :rank].conj().T
    p2 = q[:, rank : 2 * rank] @ q[:, rank : 2 * rank].conj().T
    return p1 - p2
