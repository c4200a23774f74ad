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
or copied. Each witness slice of a scan solves its large stacks on a
one-thread ThreadPoolExecutor of its own while it builds the next member,
and ends it when the slice's norms are read (_worker); bits do not change.

Vectorization is column-stacking throughout: ``vec(A X B) = kron(B.T, A) vec(X)``.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from functools import partial

import numpy as np

from ._errors import DimensionMismatch, HypothesisViolated, NonHermitianInput

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


def _trace_norms(xs: np.ndarray, pool=None):
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

    Returns the norms, float64 in row order; given a pool (_worker), a
    stack of at least OVERLAP_SIZE (N D^3) to eigensolve goes to it, and
    the return is then a function that reads the eigenvalues from their
    Future and returns the norms.
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
    eigvals = lambda: np.linalg.eigvalsh(stack)  # noqa: E731 - the one eigensolve, here or on the worker
    if pool is not None and stack.size * stack.shape[-1] >= OVERLAP_SIZE:
        # the worker runs the eigensolve alone: each numpy call after it would
        # release the GIL and wait to take it back from the calling thread
        return partial(_write, out, rows, pool.submit(eigvals).result)
    return _write(out, rows, eigvals)


def _write(out: np.ndarray, rows, eigvals) -> np.ndarray:
    """out with the norms of rows written from their eigenvalues, eigvals()."""
    out[rows] = np.sum(np.abs(eigvals()), axis=-1)
    return out


def _worker(size):
    """The eigensolve worker of one witness slice, to be entered with
    `with`: a one-thread executor, or a null context (no pool) when size,
    the largest N D^3 the slice can send, is below OVERLAP_SIZE, or the
    process may run on one CPU only (or the platform cannot tell): a scan
    uses min(2, CPUs) threads, the calling one and the worker. Its Futures
    raise the eigensolve's own error in the caller, and leaving the block
    joins the thread."""
    if size < OVERLAP_SIZE or not (hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2):
        return nullcontext()
    # here, so that a process with no worker never imports it, nor the logging it imports
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(1, thread_name_prefix="divscan-eigvalsh")


def _is_count(x, least: int) -> bool:
    """True for an int or numpy integer x >= least; a bool is not a count."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= least


def _check_seed(seed) -> None:
    """HypothesisViolated unless seed is a count >= 0 or a Generator; makes none."""
    if not (_is_count(seed, 0) or isinstance(seed, np.random.Generator)):  # an int seed loads no numpy.random
        raise HypothesisViolated(f"seed must be an integer >= 0 or a numpy Generator, got {seed!r}")


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
