"""Dense Hermitian-operator utilities: validation, trace norms, random
witnesses.

Everything downstream (channels, divisibility scans, witness searches) sits
on these few primitives. ``trace_norm`` and ``trace_norms`` check
Hermiticity against ``TAU_HERM`` (max-entry deviation; a non-finite entry
fails it) before any eigensolve. Every trace norm then comes from one route,
which reads the exact zeros of each matrix: a diagonal one is summed without
an eigensolve, and the others take one stacked eigensolve at full size. The
divisibility scan calls that route directly on its images, already cut to
their nonzero blocks: it checks its witnesses and each channel once instead,
and the eigensolve reads one triangle of each image, so no image is checked
or copied. The scan's large stacks are solved on one worker thread while
it builds the next member (_on_worker); bits do not change.

Vectorization is column-stacking throughout: ``vec(A X B) = kron(B.T, A) vec(X)``.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from ._errors import DimensionMismatch, NonHermitianInput

TAU_HERM = 1e-10
TAU_SLOPE = 1e-6
OVERLAP_SIZE = 1.5e5  # N D^3 of an eigensolve stack from which the scan solves it on the worker thread


def _inexact(x) -> np.ndarray:
    """x as an array of its own float or complex dtype, at least float64:
    real data stays real, so its products and eigensolves run in dgemm and
    dsyevd rather than zgemm and zheevd."""
    x = np.asarray(x)
    return x.astype(np.result_type(x, np.float64), copy=False)


def require_hermitian(x: np.ndarray, atol: float = TAU_HERM) -> np.ndarray:
    """Validate Hermiticity and return the exactly-Hermitian part (X + X*)/2
    of a matrix, or of every matrix in a stack of shape (..., D, D).

    Raises NonHermitianInput when max|X - X*| over all entries exceeds atol
    or is NaN, as it is for any non-finite entry, and DimensionMismatch for
    non-square input. Real input stays real.
    No conjugate is copied, so the peak is one array the size of X: the
    squared deviation (Re X - Re X^T)^2 + (Im X + Im X^T)^2 is summed in
    place from the real and imaginary views, freed before the output is
    allocated, and its largest entry takes one square root. X* is written
    straight into the output, which then takes X and the factor 1/2 in place.
    """
    x = _inexact(x)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {x.shape}")
    xt = x.swapaxes(-1, -2)
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, which fails the test below
        dev = x.real - xt.real
    dev *= dev
    if np.iscomplexobj(x):
        im = x.imag + xt.imag
        im *= im
        dev += im
        del im
    dev = float(np.sqrt(dev.max())) if x.size else 0.0
    if not dev <= atol:  # a non-finite entry makes dev NaN
        raise NonHermitianInput(
            f"matrix deviates from Hermitian by {dev:.3e} (atol={atol:.1e}); nan means a non-finite entry"
        )
    if np.iscomplexobj(x):
        sym = np.conjugate(xt, out=np.empty_like(x))
        sym += x
    else:
        sym = x + xt
    sym *= 0.5
    return sym


def trace_norm(x: np.ndarray, atol: float = TAU_HERM) -> float:
    """Trace norm of a Hermitian matrix: the sum of |eigenvalues|.

    Hermitian-only on purpose: every witness this package evaluates is
    Hermitian, and eigvalsh is cheaper than a singular-value decomposition.
    It is trace_norms on a stack of one, so it takes the same routes and
    raises the same DimensionMismatch and NonHermitianInput.
    """
    return float(trace_norms(np.asarray(x)[None], atol)[0])


def trace_norms(xs: np.ndarray, atol: float = TAU_HERM) -> np.ndarray:
    """Trace norms of a stack of Hermitian matrices, shape (N, D, D), as
    float64 in row order.

    Applies require_hermitian to the whole stack: NonHermitianInput when
    any max|X - X*| exceeds atol, DimensionMismatch for a stack that is not
    of square matrices. The symmetrized stack then takes _trace_norms.
    """
    xs = np.asarray(xs)
    if xs.ndim != 3:
        raise DimensionMismatch(f"expected a stack of square matrices, got shape {xs.shape}")
    return _trace_norms(require_hermitian(xs, atol))


def _trace_norms(xs: np.ndarray, overlap: bool = False):
    """The trace-norm route, unchecked: each matrix of the (N, D, D) stack
    is taken as Hermitian, and only its diagonal and lower triangle are
    read. Each row's route comes from its exact zeros:
    - a row whose off-diagonal entries are all zero (a zero matrix too) is
      diagonal, and its norm is sum|Re diag|, with no eigensolve;
    - the other rows take one stacked eigensolve at full D, on a copy only
      when some rows are diagonal. A stack with no zero entry skips the
      mask and goes to the eigensolve as it is.
    A real stack is taken as it is, so its eigensolve is the real symmetric
    one. Cutting zero rows and columns is the caller's: the scan cuts its
    stacks to their nonzero blocks before the apply.

    Returns the norms, float64 in row order; with overlap=True, a stack
    of at least OVERLAP_SIZE (N D^3) to eigensolve goes to the worker
    thread, and the return is then a function that waits for the norms
    (_on_worker).
    """
    out, rows = np.empty(len(xs)), slice(None)
    if np.count_nonzero(xs) < xs.size:  # with no zero entry, every row is eigensolved as it is
        nonzero = xs != 0
        rows = np.flatnonzero(nonzero.sum(axis=(1, 2)) > nonzero.trace(axis1=1, axis2=2))
        out = np.abs(xs.diagonal(0, 1, 2).real).sum(axis=-1)
        if not rows.size:
            return out
        if rows.size == len(xs):  # a view, not a copy
            rows = slice(None)
    stack = xs[rows]
    if overlap and stack.size * stack.shape[-1] >= OVERLAP_SIZE and (jobs := _worker()) is not None:
        return _on_worker(jobs, stack, out, rows)
    out[rows] = np.sum(np.abs(_eigvalsh(stack)), axis=-1)
    return out


def _eigvalsh(stack: np.ndarray) -> np.ndarray:
    """The one eigensolve of every trace norm, run here or on the worker."""
    return np.linalg.eigvalsh(stack)


def _on_worker(jobs, stack: np.ndarray, out: np.ndarray, rows):
    """Send stack to the worker with a reply slot of its own, and return a
    function that waits for the reply and returns out with the norms of
    rows written. A reply never read (a scan that raised) reaches no one.
    A stack whose eigensolve raised on the worker comes back and is solved
    here, so the caller gets the serial path's error."""
    from queue import SimpleQueue  # already imported by _worker

    reply = SimpleQueue()
    jobs.put((stack, reply))

    def norms():
        w = reply.get()
        out[rows] = np.sum(np.abs(w if w.ndim == 2 else _eigvalsh(w)), axis=-1)
        return out

    return norms


def _worker():
    """The worker's job queue, its thread started by the first call, or
    None when the process may run on one CPU only (or the platform cannot
    tell): a scan uses min(2, CPUs) threads, the calling one and the worker."""
    global _jobs
    with _lock:
        if _jobs is None and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2:
            from queue import SimpleQueue  # here, so that a process with no worker never imports it

            _jobs = SimpleQueue()
            threading.Thread(target=_serve, args=(_jobs,), name="divscan-eigvalsh", daemon=True).start()
        return _jobs


def _serve(jobs) -> None:
    """The worker thread: puts the eigenvalues of each (stack, reply) job,
    in order, in its reply, or the stack itself when its eigensolve raised,
    and drops the stack as soon as it is solved."""
    while True:
        stack, reply = jobs.get()
        try:
            reply.put(_eigvalsh(stack))
        except Exception:  # raised again by the caller's own eigensolve
            reply.put(stack)
        del stack, reply


def _forked() -> None:
    """A forked child has no worker thread: its first stack starts one."""
    global _jobs, _lock
    _jobs, _lock = None, threading.Lock()


_jobs = None
_lock = threading.Lock()
os.register_at_fork(after_in_child=_forked)


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
