"""Finite-dimensional channels: each held as its superoperator (Kraus
operators kept, as one stack, only as the CP certificate), Choi matrices,
composition, inversion, and the contractivity-based positivity probe. Every
application of a superoperator goes through stacked_apply's routes (_apply,
which the divisibility scan calls directly): I_m (x) Lambda on a stack of
(m d) x (m d) operands, m read from their shape, so Lambda and I (x) Lambda
share a route.

Conventions (column-stacking, fixed package-wide):

* superoperator of X -> K X L*  is  kron(conj(L), K)
* Choi matrix C has block (i, j) equal to Lambda(|i><j|); equivalently
  C = S.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d*d, d*d)
* Lambda is CP iff C is PSD; TP iff the partial trace of C over the output
  factor is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from ._errors import (
    DimensionMismatch,
    HypothesisViolated,
    SingularChannel,
)
from .operators import _check_seed, _inexact, _is_count, random_projector_difference, trace_norms, unvec, vec

# Not called here; perfbench/tracing.py wraps it under this name.
from .operators import trace_norm  # noqa: F401

CP_ATOL = 1e-9
TP_ATOL = 1e-9
TP_HYPOTHESIS_ATOL = 1e-8  # TP check of family members and of probed maps
RCOND = 1e-10  # rank cut-off relative to the largest singular value
GROWTH_ATOL = 1e-9  # trace-norm growth that certifies non-positivity
PROBE_HERM_ATOL = 1e-8  # Hermiticity slack of probed images


def _kraus_stack(kraus, d: int | None = None) -> np.ndarray:
    """The Kraus set as one (m, d_out, d_in) array, converted once by
    _inexact: the form Channel keeps and kraus_to_super reads, so a stack
    passes through unchanged. Raises DimensionMismatch unless there is at
    least one K_m and all are matrices of one shape, d x d when d is given;
    a ragged set, which numpy refuses with ValueError, is one of these."""
    try:
        stack = _inexact(kraus)
    except ValueError:  # numpy's error for a ragged set
        stack = None
    if stack is None or stack.ndim != 3 or not len(stack) or d is not None and stack.shape[1:] != (d, d):
        got = "a ragged set" if stack is None else f"a stack of shape {stack.shape}, operator shape {stack.shape[1:]}"
        where = "" if d is None else f", which does not match d={d}"
        raise DimensionMismatch(f"need at least one Kraus operator, all matrices of one shape; got {got}{where}")
    return stack


def kraus_to_super(kraus) -> np.ndarray:
    """sum_m kron(conj(K_m), K_m) from the Gram matrix of the entries the
    K_m occupy: with F_C[m, p] = K_m[i_p, j_p] over the positions (i_p, j_p)
    where some K_m is nonzero (or NaN), (F_C^H F_C)[p, q] is the kron entry
    ((i_p, i_q), (j_p, j_q)) and goes straight there; the rest is exact
    zeros. The product is a gemm over two buffers, conj(F_C) and F_C: numpy
    sends a.T @ a on one real buffer to syrk, which rounds differently. Real
    Kraus operators give a real superoperator. The K_m are read as one
    stack (_kraus_stack), with its DimensionMismatch."""
    stack = _kraus_stack(kraus)
    _, d_out, d_in = stack.shape
    i, j = np.nonzero(stack.any(axis=0))
    fc = stack[:, i, j]
    s = np.zeros((d_out, d_out, d_in, d_in), dtype=stack.dtype)
    s[i[:, None], i, j[:, None], j] = np.conjugate(fc).T @ fc
    return s.reshape(d_out * d_out, d_in * d_in)


class Channel:
    """A linear map on d x d matrices, held as its d^2 x d^2 superoperator
    `super`, formed once at construction; every computation runs on it.
    Exactly one form is given, and d >= 1, else DimensionMismatch: Kraus
    operators build `super` and are kept as `kraus`, one (m, d, d) array
    (_kraus_stack, with its DimensionMismatch), only to certify CP, so they
    certify no map but the one built from them.
    Real Kraus operators or a real superoperator stay float64, and so does
    apply() of a real operand.
    """

    def __init__(self, d: int, kraus=None, super_matrix=None):
        self.d = int(d)
        if (kraus is None) == (super_matrix is None) or self.d < 1:
            raise DimensionMismatch(f"need d >= 1 and exactly one of Kraus operators and a superoperator; d={d}")
        self.kraus = None if kraus is None else _kraus_stack(kraus, self.d)
        self.super = _inexact(super_matrix) if self.kraus is None else kraus_to_super(self.kraus)
        if self.super.shape != (d * d, d * d):
            raise DimensionMismatch(f"superoperator shape {self.super.shape} does not match d={d}")

    def apply(self, x: np.ndarray) -> np.ndarray:
        return stacked_apply(self.super, self.d, np.asarray(x)[None])[0]

    def tp_deviation(self) -> float:
        """max |Lambda^*(I) - I|, entrywise; zero exactly when the map is TP."""
        vi = vec(np.eye(self.d))
        return float(np.max(np.abs(self.super.conj().T @ vi - vi)))

    def hp_deviation(self) -> float:
        """max |S[(i,j),(k,l)] - conj(S[(j,i),(l,k)])|, entrywise; zero exactly
        when the map is Hermiticity preserving (its Choi matrix is Hermitian),
        NaN for a non-finite S. Kraus operators built S and certify CP,
        hence HP: 0.0. The difference is formed in one C-ordered buffer,
        whose absolute value is taken in place when real: at d = 16 a fresh
        d^4 temporary costs more in page faults than its arithmetic."""
        if self.kraus is not None:
            return 0.0
        s = self.super.reshape((self.d,) * 4)  # s[j, i, l, k] = S[(i,j),(k,l)]
        diff = s.transpose(1, 0, 3, 2).copy()
        real = diff.dtype.kind == "f"
        if not real:
            np.conjugate(diff, out=diff)
        diff -= s  # exactly -(s - conj(s^T)): the same absolute values
        return float(np.abs(diff, out=diff if real else None).max())

    def is_tp(self, atol: float = TP_ATOL) -> bool:
        return self.tp_deviation() <= atol

    def is_cp(self) -> bool:
        """Kraus operators certify CP; otherwise the Choi matrix is PSD."""
        return self.kraus is not None or choi(self).is_psd()


def kraus_channel(kraus) -> Channel:
    """The channel of a Kraus set, d read from its operators' rows."""
    stack = _kraus_stack(kraus)
    return Channel(d=stack.shape[1], kraus=stack)


def super_channel(s: np.ndarray, d: int) -> Channel:
    return Channel(d=d, super_matrix=s)


@dataclass(frozen=True)
class ChoiMatrix:
    matrix: np.ndarray
    d: int

    def is_psd(self) -> bool:
        """Hermitian within CP_ATOL (max entry of C - C*), no eigenvalue below -CP_ATOL."""
        c = self.matrix
        herm = np.max(np.abs(c - c.conj().T)) <= CP_ATOL
        return bool(herm and np.linalg.eigvalsh((c + c.conj().T) / 2).min() >= -CP_ATOL)


def choi_from_super(s: np.ndarray, d: int) -> np.ndarray:
    return s.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


def choi(ch: Channel) -> ChoiMatrix:
    return ChoiMatrix(matrix=choi_from_super(ch.super, ch.d), d=ch.d)


def compose(after: Channel, before: Channel) -> Channel:
    """after . before, i.e. apply `before` first."""
    if after.d != before.d:
        raise DimensionMismatch(f"dimensions differ: {after.d} vs {before.d}")
    return Channel(d=after.d, super_matrix=after.super @ before.super)


def inverse(ch: Channel) -> Channel:
    """Exact superoperator inverse.

    Raises SingularChannel (with the singular-value report) when the smallest
    singular value falls below RCOND times the largest.
    """
    s = ch.super
    sv = np.linalg.svd(s, compute_uv=False)
    if sv[-1] <= RCOND * sv[0]:
        raise SingularChannel(
            f"superoperator is singular at rcond={RCOND:.1e}: "
            f"smallest/largest singular value = {sv[-1]:.3e}/{sv[0]:.3e}",
            singular_values=sv,
        )
    return Channel(d=ch.d, super_matrix=np.linalg.solve(s, np.eye(s.shape[0])))


def extend_channel(ch: Channel) -> Channel:
    """I (x) Lambda on the doubled space, as its d^4 x d^4 superoperator:
    column v is the stacked_apply image of the d^2 x d^2 matrix unit
    unvec(e_v), vectorized. A reference route for tests and small checks.
    """
    dd = ch.d * ch.d
    units = np.eye(dd * dd).reshape(dd * dd, dd, dd).transpose(0, 2, 1)
    images = stacked_apply(ch.super, ch.d, units)
    return Channel(d=dd, super_matrix=images.transpose(0, 2, 1).reshape(dd * dd, dd * dd).T)


def stacked_apply(s: np.ndarray, d: int, ys: np.ndarray) -> np.ndarray:
    """Apply I_m (x) Lambda, Lambda the channel on C^d with superoperator s,
    to a stack ys of shape (N, m*d, m*d), any m >= 1: s acts on every d x d
    block of each operand, so m = 1 is Lambda itself and m = d is the
    extension to C^d (x) C^d, which is never built. Raises DimensionMismatch
    for an s that is not d^2 x d^2, and for a stack that is not 3-D, not
    square, or whose side is not a positive multiple of d.

    The route is read from J = _support(s), the vec positions whose row or
    column of s holds a nonzero off-diagonal entry (exact zeros only):
    - J covers all d^2 positions: one matmul over the column-stacked vec of
      every block.
    - J is empty: s is the Schur multiplier X -> A o X, A = unvec(diag(s)),
      applied as an entrywise product on every block. Each entry y_ij S_rr
      (r = i + d*j) is the one nonzero term of the matmul's sum, so the
      result equals the matmul's.
    - otherwise: the same entrywise product, after which S[J, J] is applied
      to the J entries of every block, so only a |J| x |J| matrix is
      multiplied.
    In either matmul the complex rows of a real s take two real matmuls on
    their real and imaginary parts. The result has the dtype of ys @ s.T,
    so a real s on a real stack stays real. Nothing here checks that s
    preserves Hermiticity; DynamicalFamily.channel checks each family
    member, and the divisibility scan reads J once per stencil time and
    calls _apply on its witness stacks cut to their nonzero blocks.
    """
    if d < 1 or np.shape(s) != (d * d, d * d):
        raise DimensionMismatch(f"superoperator shape {np.shape(s)}, expected ({d * d}, {d * d}) with d >= 1")
    ys = _inexact(ys)
    if ys.ndim != 3 or ys.shape[1] != ys.shape[2] or ys.shape[2] % d or not ys.shape[2]:
        raise DimensionMismatch(f"operand stack shape {ys.shape}, expected (N, m*{d}, m*{d}) with m >= 1")
    return _apply(s, d, ys, _support(s))


def _support(s: np.ndarray) -> np.ndarray:
    """J, the vec positions whose row or column of s holds a nonzero
    off-diagonal entry; only exact zeros count. Off J, s is diagonal."""
    nonzero = s != 0
    np.fill_diagonal(nonzero, False)
    return np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))


def _apply(s: np.ndarray, d: int, ys: np.ndarray, support: np.ndarray) -> np.ndarray:
    """stacked_apply's routes without its checks: s acts on every d x d
    block of each (m d) x (m d) operand of ys, any m >= 0 (the scan's cut
    of an all-zero stack has m = 0), with support = _support(s)."""
    n, m = len(ys), ys.shape[-1] // d
    if support.size == d * d:
        # Y[a*d + i, b*d + j] -> row (a, b), column i + d*j: the column-stacked
        # vec of block (a, b), so s acts on every block of every operand at once
        v = ys.reshape(n, m, d, m, d).transpose(0, 1, 3, 4, 2).reshape(n * m * m, d * d)
        out = _times(v, s).reshape(n, m, m, d, d)
        return out.transpose(0, 1, 4, 2, 3).reshape(n, m * d, m * d)
    out = ys * np.tile(unvec(np.diagonal(s), d), (m, m))
    out += 0.0  # y * 0 is -0 for y < 0; a real matmul's sum gives +0
    if support.size:
        i, j = support % d, support // d  # vec position r = i + d*j
        v = ys.reshape(n, m, d, m, d).transpose(0, 1, 3, 2, 4)[..., i, j].reshape(-1, support.size)
        blocks = out.reshape(n, m, d, m, d).transpose(0, 1, 3, 2, 4)  # a view of out
        blocks[..., i, j] = _times(v, s[np.ix_(support, support)]).reshape(n, m, m, support.size)
    return out


def _times(v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """v @ s.T; complex rows v and a real s take two real matmuls."""
    if np.iscomplexobj(v) and not np.iscomplexobj(s):
        w = np.empty((len(v), len(s)), dtype=np.result_type(v, s))
        w.real = v.real @ s.T
        w.imag = v.imag @ s.T
        return w
    return v @ s.T


def positivity_by_contractivity(ch: Channel, n_samples: int = 400, seed: int = 7):
    """Probe positivity of a TP map through trace-norm contractivity.

    A positive TP map cannot increase any Hermitian trace norm, so a single
    operand X with ||Lambda(X)||_1 > ||X||_1 + GROWTH_ATOL certifies
    non-positivity. Projectors are sound probes here: for a TP map, a PSD
    input whose image is not PSD already has ||Lambda(X)||_1 > tr X = ||X||_1.

    The operands go through as at most two stacks, each taking one
    stacked_apply and one trace_norms call on its inputs and one on its
    images: the deterministic sweep (rank-1 basis projectors, rank-1 and
    rank-2 projector differences) capped at n_samples, then, only if it
    shows no growth, random operands up to n_samples (a rank-1 projector
    difference at an even index of the whole sequence, a Hermitian sample
    at an odd one), from a generator seeded with seed that is made only
    then. The witness is the first growing operand. Every image of a stack
    must be Hermitian within PROBE_HERM_ATOL, those after the witness too,
    else NonHermitianInput.

    Returns a dict with keys `positive_evidence`, `witness`, `input_norm`,
    `output_norm`, `n_checked`. No witness means evidence of positivity, not
    proof. Raises HypothesisViolated for non-TP input, a seed _check_seed
    refuses, or an n_samples below 1, since an empty probe is no evidence.
    """
    _check_seed(seed)
    if not _is_count(n_samples, 1):
        raise HypothesisViolated(
            f"contractivity probe needs at least one sample: n_samples must be an integer >= 1, got {n_samples!r}"
        )
    if not ch.is_tp(atol=TP_HYPOTHESIS_ATOL):
        raise HypothesisViolated("contractivity probe requires a trace-preserving map")
    d = ch.d

    def sweep():
        eye = np.eye(d)
        yield from (np.outer(e, e) for e in eye)
        yield from (np.diag(eye[i] - eye[j]) for i in range(d) for j in range(i + 1, d))
        # rank-2 projector differences over disjoint index pairs
        pairs = range(0, d - 1, 2)
        yield from (np.diag(eye[i] + eye[i + 1] - eye[j] - eye[j + 1]) for i in pairs for j in pairs if j > i)

    def random_operand(index):  # rng is made when the random stage runs
        if index % 2 == 0:
            return random_projector_difference(d, rng)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return (g + g.conj().T) / 2

    def first_growth(start, operands):
        xs = np.stack(operands)
        nin = trace_norms(xs)
        nout = trace_norms(stacked_apply(ch.super, d, xs), PROBE_HERM_ATOL)
        grows = np.flatnonzero(nout > nin + GROWTH_ATOL)
        if grows.size:
            i = int(grows[0])
            return {"positive_evidence": False, "witness": xs[i], "input_norm": float(nin[i]),
                    "output_norm": float(nout[i]), "n_checked": start + i + 1}
        return None

    swept = list(islice(sweep(), n_samples))
    found = first_growth(0, swept)
    if found is None and len(swept) < n_samples:  # the random stage runs only when the sweep shows no growth
        rng = np.random.default_rng(seed)
        found = first_growth(len(swept), [random_operand(i) for i in range(len(swept), n_samples)])
    return found or {
        "positive_evidence": True, "witness": None, "input_norm": None, "output_norm": None, "n_checked": n_samples
    }


def _matrix_to_json(m: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]
