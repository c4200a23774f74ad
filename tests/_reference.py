"""Test inputs and reference routes that the library itself never calls.

The maps and samplers here feed the tests (the transpose map, random
symplectic matrices), and the dense or generic routes are what the tests
compare the library's closed forms against. They live beside the tests so
that `divscan` holds only what its scans, closed forms and CLI use.
"""

import numpy as np

from divscan._errors import DimensionMismatch, HypothesisViolated
from divscan.channels import Channel, stacked_apply
from divscan.gaussian import VALID_ATOL, symplectic_deviation
from divscan.idempotent import IdempotentParams, phi
from divscan.operators import _inexact
from divscan.schur import toeplitz_a


def transpose_channel(d: int) -> Channel:
    """X -> X^T; the standard example of a positive map that is not CP."""
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[i + d * j, j + d * i] = 1.0
    return Channel(d=d, super_matrix=s)


def kraus_to_super_full(kraus) -> np.ndarray:
    """sum_m kron(conj(K_m), K_m) from the full Gram matrix F^H F of the
    flattened K_m (row m of F is K_m), permuted into place:
    (F^H F)[(i, j), (k, l)] is the kron entry ((i, k), (j, l)).
    kraus_to_super, which multiplies only the occupied columns of F, must
    equal this build bit for bit."""
    f = _inexact(np.stack([np.asarray(k) for k in kraus]))
    r, d_out, d_in = f.shape
    f = f.reshape(r, d_out * d_in)
    g = (f.conj().T @ f).reshape(d_out, d_in, d_out, d_in)
    return g.transpose(0, 2, 1, 3).reshape(d_out * d_out, d_in * d_in)


def hp_deviation_by_difference(s: np.ndarray, d: int) -> float:
    """max |S[(i,j),(k,l)] - conj(S[(j,i),(l,k)])| as one plain expression
    over the reshaped superoperator. Channel.hp_deviation, which forms the
    difference in one buffer, must equal it bit for bit."""
    s = s.reshape((d,) * 4)
    return float(np.max(np.abs(s - s.transpose(1, 0, 3, 2).conj())))


def schur_kraus_by_diag(n: int, t: float) -> list[np.ndarray]:
    """The Schur member's Kraus operators built one np.diag at a time, from
    the same eigendecomposition of the mask as schur_channel."""
    vals, vecs = np.linalg.eigh(toeplitz_a(n, max(t, 0.0)))
    vals = np.clip(vals, 0.0, None)
    return [np.diag(np.sqrt(v) * vecs[:, i]) for i, v in enumerate(vals)]


def two_positive_probe_choi(params: IdempotentParams) -> np.ndarray:
    """Dense route for the 2-positivity conditions: the Choi matrix of
    I_2 (x) Phi compressed to the span of two basis vectors inside one block,
    (I_2 (x) Phi)(Y) for the 2d x 2d operand Y whose block (i, j) is E_ij.
    Its spectrum is {2a+2b+c/k+d/nk (x1), c/k+d/nk (x 2k-1), d/nk (x 2k(n-1))}.
    """
    if params.k < 2:
        raise HypothesisViolated("probe needs two basis vectors in one block (k >= 2)")
    d = params.n * params.k
    omega = np.zeros(2 * d)
    omega[[0, d + 1]] = 1.0  # e_0 (x) e_0 + e_1 (x) e_1
    return stacked_apply(phi(params).super, d, np.outer(omega, omega)[None])[0]


def idempotent_product(x, y):
    """Coefficients of p(x) p(y) over a decreasing idempotent family:
    z_i = y_i * Sx_i + x_i * Sy_{i-1} with S the partial-sum operator."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionMismatch(f"coefficient vectors differ in length: {x.shape} vs {y.shape}")
    sx = np.cumsum(x)
    sy = np.concatenate(([0.0], np.cumsum(y)[:-1]))
    return y * sx + x * sy


def is_symplectic(r: np.ndarray) -> bool:
    return symplectic_deviation(r) <= VALID_ATOL


def squeeze_diag(s) -> np.ndarray:
    """diag(s_1..s_m, 1/s_1..1/s_m); symplectic for any nonzero s_i."""
    s = np.asarray(s, dtype=float)
    return np.diag(np.concatenate([s, 1.0 / s]))


def planar_rotation(m: int, i: int, j: int, theta: float) -> np.ndarray:
    """Orthogonal rotation of modes i, j applied identically to q and p;
    [[O, 0], [0, O]] is symplectic for orthogonal O."""
    o = np.eye(m)
    c, s = np.cos(theta), np.sin(theta)
    o[i, i] = o[j, j] = c
    o[i, j], o[j, i] = -s, s
    z = np.zeros((m, m))
    return np.block([[o, z], [z, o]])


def random_symplectic(m: int, rng: np.random.Generator) -> np.ndarray:
    """Product of six random planar rotations and squeezers."""
    r = np.eye(2 * m)
    for _ in range(6):
        if m >= 2 and rng.random() < 0.5:
            i, j = rng.choice(m, size=2, replace=False)
            r = r @ planar_rotation(m, int(i), int(j), float(rng.uniform(0, 2 * np.pi)))
        else:
            r = r @ squeeze_diag(np.exp(rng.uniform(-0.5, 0.5, size=m)))
    return r
