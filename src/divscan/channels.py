"""Finite-dimensional channels: Kraus/superoperator forms, Choi matrices,
composition, inversion, and the contractivity-based positivity probe.

Conventions (column-stacking, fixed package-wide):

* superoperator of X -> K X L*  is  kron(conj(L), K)
* Choi matrix C has block (i, j) equal to Lambda(|i><j|); equivalently
  C = S.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d*d, d*d)
* Lambda is CP iff C is PSD; TP iff the partial trace of C over the output
  factor is the identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._errors import (
    DimensionMismatch,
    HypothesisViolated,
    SingularChannel,
)
from .operators import trace_norm, vec

CP_ATOL = 1e-9
TP_ATOL = 1e-9


def kraus_to_super(kraus) -> np.ndarray:
    ks = [np.asarray(k, dtype=complex) for k in kraus]
    d_out, d_in = ks[0].shape
    s = np.zeros((d_out * d_out, d_in * d_in), dtype=complex)
    for k in ks:
        if k.shape != (d_out, d_in):
            raise DimensionMismatch("Kraus operators must share one shape")
        s += np.kron(k.conj(), k)
    return s


class Channel:
    """A linear map on d x d matrices, held as Kraus operators, a
    superoperator, or both.

    apply() prefers the Kraus form (cheaper and exact for large d); the
    superoperator is materialized lazily and cached. Channels built from
    Kraus operators are CP by construction.
    """

    def __init__(self, d: int, kraus=None, super_matrix=None):
        if kraus is None and super_matrix is None:
            raise DimensionMismatch("need Kraus operators or a superoperator")
        self.d = int(d)
        self.kraus = None if kraus is None else tuple(np.asarray(k, dtype=complex) for k in kraus)
        self._super = None if super_matrix is None else np.asarray(super_matrix, dtype=complex)
        if self._super is not None and self._super.shape != (d * d, d * d):
            raise DimensionMismatch(
                f"superoperator shape {self._super.shape} does not match d={d}"
            )
        if self.kraus is not None:
            for k in self.kraus:
                if k.shape != (d, d):
                    raise DimensionMismatch(f"Kraus shape {k.shape} does not match d={d}")

    @property
    def super(self) -> np.ndarray:
        if self._super is None:
            self._super = kraus_to_super(self.kraus)
        return self._super

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.d, self.d):
            raise DimensionMismatch(f"operand shape {x.shape}, channel dimension {self.d}")
        if self.kraus is not None:
            out = np.zeros_like(x)
            for k in self.kraus:
                out += k @ x @ k.conj().T
            return out
        v = self.super @ x.reshape(-1, order="F")
        return v.reshape((self.d, self.d), order="F")

    def tp_deviation(self) -> float:
        """max |Lambda^*(I) - I|, entrywise; zero exactly when the map is TP."""
        if self.kraus is not None:
            acc = sum(k.conj().T @ k for k in self.kraus)
            return float(np.max(np.abs(acc - np.eye(self.d))))
        vi = vec(np.eye(self.d))
        return float(np.max(np.abs(self.super.conj().T @ vi - vi)))

    def is_tp(self, atol: float = TP_ATOL) -> bool:
        return self.tp_deviation() <= atol

    def is_cp(self, atol: float = CP_ATOL) -> bool:
        return choi(self).is_psd(atol=atol)


def kraus_channel(kraus) -> Channel:
    ks = [np.asarray(k, dtype=complex) for k in kraus]
    return Channel(d=ks[0].shape[0], kraus=ks)


def super_channel(s: np.ndarray, d: int) -> Channel:
    return Channel(d=d, super_matrix=s)


@dataclass(frozen=True)
class ChoiMatrix:
    matrix: np.ndarray
    d: int

    def is_psd(self, atol: float = CP_ATOL) -> bool:
        vals = np.linalg.eigvalsh((self.matrix + self.matrix.conj().T) / 2)
        return bool(vals.min() >= -atol)

    def output_trace(self) -> np.ndarray:
        """Partial trace over the output factor; equals I_d iff the map is TP."""
        c = self.matrix.reshape(self.d, self.d, self.d, self.d)
        return np.trace(c, axis1=1, axis2=3)


def choi_from_super(s: np.ndarray, d: int) -> np.ndarray:
    return s.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


def choi(ch: Channel) -> ChoiMatrix:
    return ChoiMatrix(matrix=choi_from_super(ch.super, ch.d), d=ch.d)


def compose(after: Channel, before: Channel) -> Channel:
    """after . before, i.e. apply `before` first."""
    if after.d != before.d:
        raise DimensionMismatch(f"dimensions differ: {after.d} vs {before.d}")
    if after.kraus is not None and before.kraus is not None:
        ks = [a @ b for a in after.kraus for b in before.kraus]
        return Channel(d=after.d, kraus=ks)
    return Channel(d=after.d, super_matrix=after.super @ before.super)


def inverse(ch: Channel, rcond: float = 1e-10) -> Channel:
    """Exact superoperator inverse.

    Raises SingularChannel (with the singular-value report) when the smallest
    singular value falls below rcond times the largest.
    """
    s = ch.super
    sv = np.linalg.svd(s, compute_uv=False)
    if sv[-1] <= rcond * sv[0]:
        raise SingularChannel(
            f"superoperator is singular at rcond={rcond:.1e}: "
            f"smallest/largest singular value = {sv[-1]:.3e}/{sv[0]:.3e}",
            singular_values=sv,
        )
    return Channel(d=ch.d, super_matrix=np.linalg.solve(s, np.eye(s.shape[0], dtype=complex)))


def _interleave_perm(d: int) -> np.ndarray:
    """Index map w(v) sending the composite vec index of C^d (x) C^d to the
    (ancilla-pair, local-pair) grouping used by extend_super."""
    dd = d * d
    perm = np.empty(dd * dd, dtype=int)
    for v in range(dd * dd):
        r, c = v % dd, v // dd
        a, i = divmod(r, d)
        b, j = divmod(c, d)
        perm[v] = (a + d * b) * dd + (i + d * j)
    return perm


def extend_super(s: np.ndarray, d: int) -> np.ndarray:
    """Superoperator of I (x) Lambda on (C^d (x) C^d), built from kron of
    superoperators plus the index-interleaving permutation."""
    big = np.kron(np.eye(d * d, dtype=complex), s)
    perm = _interleave_perm(d)
    return big[perm][:, perm]


def extend_channel(ch: Channel) -> Channel:
    """I (x) Lambda on the doubled space, as its d^4 x d^4 superoperator.

    This materializes the extension, so it is a reference route for tests
    and small checks; the scans apply I (x) Lambda blockwise through
    stacked_apply(..., extended=True) without building it.
    """
    return Channel(d=ch.d * ch.d, super_matrix=extend_super(ch.super, ch.d))


def stacked_apply(s: np.ndarray, d: int, ys: np.ndarray, extended: bool = False) -> np.ndarray:
    """Apply the superoperator s of a channel on C^d to a stack of operands
    in one matmul.

    ys has shape (N, d, d), or with extended=True shape (N, d*d, d*d): each
    operand then lives on C^d (x) C^d and s acts on every d x d block, which
    is (I (x) Lambda)(Y) without building I (x) Lambda. Raises
    DimensionMismatch for any other shape.
    """
    m = d if extended else 1
    ys = np.asarray(ys, dtype=complex)
    if ys.ndim != 3 or ys.shape[1:] != (m * d, m * d):
        raise DimensionMismatch(f"operand stack shape {ys.shape}, expected (N, {m * d}, {m * d})")
    n = ys.shape[0]
    # Y[a*d + i, b*d + j] -> row (a, b), column i + d*j: the column-stacked
    # vec of block (a, b), so s acts on every block of every operand at once
    v = ys.reshape(n, m, d, m, d).transpose(0, 1, 3, 4, 2).reshape(n * m * m, d * d)
    out = (v @ s.T).reshape(n, m, m, d, d)
    return out.transpose(0, 1, 4, 2, 3).reshape(n, m * d, m * d)


def transpose_channel(d: int) -> Channel:
    """X -> X^T; the standard example of a positive map that is not CP."""
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[i + d * j, j + d * i] = 1.0
    return Channel(d=d, super_matrix=s)


def positivity_by_contractivity(
    ch: Channel,
    n_samples: int = 400,
    seed: int = 7,
    tol: float = 1e-9,
    rng: np.random.Generator | None = None,
):
    """Probe positivity of a TP map through trace-norm contractivity.

    A positive TP map cannot increase any Hermitian trace norm, so a single
    operand X with ||Lambda(X)||_1 > ||X||_1 + tol certifies non-positivity.
    The search runs a deterministic sweep first (rank-1 basis projectors,
    rank-1 and rank-2 projector differences), then random rank-1 differences
    and random Hermitian samples until n_samples operands have been checked.
    Projectors are sound probes here: for a TP map, a PSD input whose image
    is not PSD already has ||Lambda(X)||_1 > tr X = ||X||_1.

    Returns a dict with keys `positive_evidence`, `witness`, `input_norm`,
    `output_norm`, `n_checked`. No witness means evidence of positivity, not
    proof. Raises HypothesisViolated for non-TP input.
    """
    if not ch.is_tp(atol=1e-8):
        raise HypothesisViolated("contractivity probe requires a trace-preserving map")
    if rng is None:
        rng = np.random.default_rng(seed)
    d = ch.d

    def sweep():
        eye = np.eye(d)
        for i in range(d):
            yield np.outer(eye[i], eye[i])
        for i in range(d):
            for j in range(i + 1, d):
                yield np.diag(eye[i] - eye[j])
        # rank-2 projector differences over disjoint index pairs
        for i in range(0, d - 1, 2):
            for j in range(i + 2, d - 1, 2):
                e = np.zeros(d)
                e[[i, i + 1]] = 1.0
                f = np.zeros(d)
                f[[j, j + 1]] = 1.0
                yield np.diag(e - f)

    checked = 0
    candidates = sweep()
    while checked < n_samples:
        x = next(candidates, None)
        if x is None:
            if checked % 2 == 0:
                g = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
                q, _ = np.linalg.qr(g)
                x = np.outer(q[:, 0], q[:, 0].conj()) - np.outer(q[:, 1], q[:, 1].conj())
            else:
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                x = (g + g.conj().T) / 2
        checked += 1
        nin = trace_norm(x)
        nout = trace_norm(ch.apply(x), atol=1e-8)
        if nout > nin + tol:
            return {
                "positive_evidence": False,
                "witness": x,
                "input_norm": nin,
                "output_norm": nout,
                "n_checked": checked,
            }
    return {
        "positive_evidence": True,
        "witness": None,
        "input_norm": None,
        "output_norm": None,
        "n_checked": checked,
    }


def _matrix_to_json(m: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def channel_to_json(ch: Channel) -> dict:
    obj = {"dim_in": ch.d, "dim_out": ch.d}
    if ch.kraus is not None:
        obj["kraus"] = [_matrix_to_json(k) for k in ch.kraus]
    else:
        obj["super"] = _matrix_to_json(ch.super)
    return obj


def channel_from_json(obj: dict) -> Channel:
    d = int(obj["dim_in"])
    if int(obj["dim_out"]) != d:
        raise DimensionMismatch("only square channels are supported")
    if "kraus" in obj:
        return Channel(d=d, kraus=[_matrix_from_json(k) for k in obj["kraus"]])
    return Channel(d=d, super_matrix=_matrix_from_json(obj["super"]))


def save_channel(ch: Channel, path) -> None:
    Path(path).write_text(json.dumps(channel_to_json(ch)))


def load_channel(path) -> Channel:
    return channel_from_json(json.loads(Path(path).read_text()))
