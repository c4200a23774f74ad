"""Dense Hermitian-operator utilities: validation, trace norms, random
witnesses.

Everything downstream (channels, divisibility scans, witness searches) sits
on these few primitives. Hermiticity is checked against ``TAU_HERM``
(max-entry deviation) before any eigensolve.

Vectorization is column-stacking throughout: ``vec(A X B) = kron(B.T, A) vec(X)``.
"""

from __future__ import annotations

import numpy as np

from ._errors import DimensionMismatch, NonHermitianInput

TAU_HERM = 1e-10
TAU_SLOPE = 1e-6


def _inexact(x) -> np.ndarray:
    """x as an array of its own float or complex dtype, at least float64:
    real data stays real, so its products and eigensolves run in dgemm and
    dsyevd rather than zgemm and zheevd."""
    x = np.asarray(x)
    return x.astype(np.result_type(x, np.float64), copy=False)


def require_hermitian(x: np.ndarray, atol: float = TAU_HERM) -> np.ndarray:
    """Validate Hermiticity and return the exactly-Hermitian part (X + X*)/2.

    Raises NonHermitianInput when max|X - X*| exceeds atol, and
    DimensionMismatch for non-square input. Real input stays real.
    """
    x = _inexact(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {x.shape}")
    dev = float(np.max(np.abs(x - x.conj().T))) if x.size else 0.0
    if dev > atol:
        raise NonHermitianInput(f"matrix deviates from Hermitian by {dev:.3e} (atol={atol:.1e})")
    return (x + x.conj().T) / 2


def trace_norm(x: np.ndarray, atol: float = TAU_HERM) -> float:
    """Trace norm of a Hermitian matrix: the sum of |eigenvalues|.

    Hermitian-only on purpose: every witness this package evaluates is
    Hermitian, and eigvalsh is cheaper than a singular-value decomposition.
    """
    xh = require_hermitian(x, atol=atol)
    return float(np.sum(np.abs(np.linalg.eigvalsh(xh))))


def trace_norms(xs: np.ndarray, atol: float = TAU_HERM) -> np.ndarray:
    """Trace norms of a stack of Hermitian matrices, shape (N, D, D), from
    one stacked eigensolve.

    Applies require_hermitian's check to the whole stack: NonHermitianInput
    when any max|X - X*| exceeds atol, DimensionMismatch for a stack that is
    not of square matrices. A real stack is taken as it is, so its
    eigensolve is the real symmetric one.
    """
    xs = _inexact(xs)
    if xs.ndim != 3 or xs.shape[1] != xs.shape[2]:
        raise DimensionMismatch(f"expected a stack of square matrices, got shape {xs.shape}")
    xh = xs.conj().swapaxes(1, 2)  # a view of xs itself when xs is real
    dev = float(np.max(np.abs(xs - xh))) if xs.size else 0.0
    if dev > atol:
        raise NonHermitianInput(f"matrix deviates from Hermitian by {dev:.3e} (atol={atol:.1e})")
    sym = xs + xh
    sym *= 0.5
    return np.sum(np.abs(np.linalg.eigvalsh(sym)), axis=-1)


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(x).reshape(-1, order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v).reshape((d, d), order="F")


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    """GUE-style Hermitian sample, normalized to unit trace norm."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2
    tn = trace_norm(h)
    return h / tn if tn > 0 else h


def random_projector_difference(d: int, rng: np.random.Generator) -> np.ndarray:
    """psi psi* - phi phi* for orthonormal Haar-ish random psi, phi."""
    g = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
    q, _ = np.linalg.qr(g)
    return q[:, :1] @ q[:, :1].conj().T - q[:, 1:] @ q[:, 1:].conj().T
