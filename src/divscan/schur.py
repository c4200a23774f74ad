"""Entrywise-product (Schur) dynamical maps with a tridiagonal Toeplitz mask.

Lambda_t(X) = A_t o X where A_t has ones on the diagonal and t on the first
off-diagonals. Unit diagonal makes the map TP for every t; it is CP exactly
when A_t is PSD, i.e. for t in [0, 1/2] (the truncated mask's eigenvalues are
1 + 2t cos(k pi/(n+1)) > 0 there). The canonical witness is the hopping
matrix itself: Lambda_t maps it to t times itself, so its trace norm grows
linearly with the constant slope 2 sum_k |cos(k pi/(n+1))| and the family is
not even P-divisible despite being CPTP at every t. Nothing here takes a
norm: the `schur` command's table is its P scan's own rows for this witness
(canonical-0), and the closed-form slope is the number they are checked
against.

The superoperator of Lambda_t is diag(vec(A_t)). It is formed from the n
diagonal Kraus operators that certify CP, by an n x n Gram product, so its
off-diagonal zeros are exact (its diagonal is A_t up to rounding), and the
scan engine, finding it diagonal, applies it to witness stacks as the
entrywise product with that diagonal rather than as a d^2 x d^2 matmul.
"""

from __future__ import annotations

import numpy as np

from ._errors import DimensionMismatch, OutsideValidityWindow
from .channels import Channel
from .divisibility import DOMAIN_ATOL, DynamicalFamily, make_dynamical_family
from .operators import _is_count

# Not called here; perfbench/tracing.py wraps it under this name.
from .operators import trace_norm  # noqa: F401


def toeplitz_a(n: int, t: float) -> np.ndarray:
    """The mask matrix: ones on the diagonal, t on the off-diagonals."""
    if not _is_count(n, 2):
        raise DimensionMismatch(f"need n >= 2 as an integer, got n={n!r}")
    if not t >= 0:
        raise OutsideValidityWindow(f"need t >= 0, got {t}")
    a = np.eye(n)
    idx = np.arange(n - 1)
    a[idx, idx + 1] = t
    a[idx + 1, idx] = t
    return a


def toeplitz_spectrum(n: int, t: float) -> np.ndarray:
    """Eigenvalues 1 + 2 t cos(k pi/(n+1)), k = 1..n, ascending."""
    k = np.arange(1, n + 1)
    return np.sort(1.0 + 2.0 * t * np.cos(k * np.pi / (n + 1)))


def cosine_abs_sum(n: int) -> float:
    k = np.arange(1, n + 1)
    return float(np.sum(np.abs(np.cos(k * np.pi / (n + 1)))))


def hopping_witness(n: int) -> np.ndarray:
    """Zero diagonal, ones on the first off-diagonals; eigenvalues
    2 cos(k pi/(n+1))."""
    return toeplitz_a(n, 1.0) - np.eye(n)


def cp_block_witness(n: int) -> np.ndarray:
    """The doubled-space witness: the hopping matrix embedded in the top
    corner block of H (x) H. (I (x) Lambda_t) maps it to t times itself."""
    e00 = np.zeros((n, n))
    e00[0, 0] = 1.0
    return np.kron(e00, hopping_witness(n))


def schur_channel(n: int, t: float) -> Channel:
    """X -> A_t o X, built from the Kraus operators sqrt(v_i) diag(u_i), one
    per eigenpair (v_i, u_i) of A_t and written as one stack, that certify
    it CP. Raises OutsideValidityWindow for t outside [0, 1/2], where the
    mask stops being PSD."""
    if not -DOMAIN_ATOL <= t <= 0.5 + DOMAIN_ATOL:
        raise OutsideValidityWindow(f"t={t} outside the CP window [0, 0.5]")
    a = toeplitz_a(n, max(t, 0.0))
    vals, vecs = np.linalg.eigh(a)
    vals = np.clip(vals, 0.0, None)  # boundary t=1/2: clip eigensolver noise
    kraus = np.zeros((n, n * n))
    kraus[:, :: n + 1] = (vecs * np.sqrt(vals)).T  # row i: the diagonal of K_i
    return Channel(d=n, kraus=kraus.reshape(n, n, n))


def make_schur_family(n: int) -> DynamicalFamily:
    """The Schur family on C^n over its whole CP window [0, 1/2]."""
    return make_dynamical_family(
        lambda t: schur_channel(n, t),
        d=n,
        t_domain=(0.0, 0.5),
        name=f"schur(n={n})",
        witnesses=(hopping_witness(n),),
        cp_witnesses=(cp_block_witness(n),),
    )
