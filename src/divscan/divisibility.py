"""Divisibility scans for dynamical families.

The workhorse criterion: along a P-divisible family the trace norm of every
Hermitian witness is non-increasing, and along a CP-divisible family the same
holds for witnesses on the doubled space under I (x) Lambda_t. A witness whose
norm curve has positive slope certifies NOT divisible; absence of growth over
a witness library is evidence, not proof (the converse direction needs
surjectivity, which a numerical scan cannot establish).

Derivatives are central differences with stencil width h; a flagged slope
counts only if its re-check at h/10 stays above tau_slope/2, which filters
stencil artifacts near kinks. Flagged slopes are re-checked largest first
(witness by witness with early stop) until one is confirmed, and that one
is the pick: a flagged slope ranked below it is neither re-checked nor
noted.

P and CP scans run one engine on one path. At each stencil time tau (t and
t +/- h, plus t +/- h/10 where a re-check runs) it builds the d^2 x d^2
superoperator S_tau once per witness stack and applies I_m (x) Lambda_tau
to the whole stack, m read from the witnesses' shape: m = 1 in P mode, and
m = d in CP mode, so I (x) Lambda_t is never built. With early_stop=True
the library goes through as stacks of 1, 2, 4, ... witnesses, each with
its own pass over the stencil times, so S_tau is built once per stencil
time in every chunk: scan-p --preset unitary builds 342 channels for 57
stencil times in 6 chunks. Members are built in that order, t, t + h,
t - h at each grid point, on the calling thread, and one stencil time is
in flight: the eigensolves of a stencil time run while the member at the
next one is built, checked and applied, and nothing is kept past the
stencil time after the one that built it (_norms). An eigensolve stack
of at least operators.OVERLAP_SIZE goes to a one-thread executor, made by
the first such stack where the process may use two CPUs, and its
eigenvalues are read from their Future; the worker runs only
np.linalg.eigvalsh, so bits do not depend on it, and there is no setting.
The default library is drawn chunk by chunk as the scan reads it, so
memory grows with the largest chunk read x D^2 (D the witness
dimension), not with grid length: early_stop=False reads the whole
library as one stack, while scan-cp --preset schur stops at the first
canonical witness and draws no random witness.

Hermiticity is checked once per input, never per image: each chunk's
stack passes require_hermitian once (a non-finite witness fails it), and
each S_tau once per stencil time, in DynamicalFamily.channel, which checks
every member for every consumer: a non-finite S_tau raises InvalidFamily,
one that is not Hermiticity preserving (HP) NonHermitianInput; Kraus
operators certify CP, hence HP. An HP map sends the symmetrized witnesses
to Hermitian images, so the images go straight to operators._trace_norms,
whose eigensolve reads one triangle.

Real maps and real witnesses run in float64 throughout. The stack is split
by value into its real rows and its complex rows, once per stack; each part
takes one apply and one trace-norm call (dsyevd for a real map on the real
part), and the norms go back in the original row order, so rows, verdicts
and the argmax do not depend on the split. Each stack is first cut to the
block rows and columns R where some witness has a nonzero d x d block
(_nonzero_blocks), so I_|R| (x) Lambda_t acts on the R x R blocks alone:
the Schur CP witness kron(E00, H) is applied and solved at n x n. A P
stack is cut only when all its witnesses are zero. This is the scan's one
support cut; _trace_norms cuts no rows or columns of its own.
The apply route (stacked_apply's) is read from the off-diagonal support J
of S_tau, once per stencil time: J empty (a Schur multiplier such as
A_t o X) is an entrywise product, J short of all d^2 positions (an
idempotent map) multiplies only S_tau[J, J], and a full J takes one matmul;
the complex rows of a real S_tau take two real matmuls (dgemm).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice, repeat

import numpy as np

from ._errors import DimensionMismatch, DomainExceeded, HypothesisViolated, InvalidFamily, NonHermitianInput
from .channels import RCOND, TP_HYPOTHESIS_ATOL, Channel, _apply, _matrix_to_json, _support
from .operators import TAU_SLOPE, _trace_norms, random_hermitian, random_projector_difference, require_hermitian

# Neither is called here; perfbench/tracing.py wraps each under this name.
from .channels import extend_channel  # noqa: F401
from .operators import trace_norm  # noqa: F401

NOT_P_DIVISIBLE = "NOT_P_DIVISIBLE"
NOT_CP_DIVISIBLE = "NOT_CP_DIVISIBLE"
P_EVIDENCE = "P_EVIDENCE"
CP_EVIDENCE = "CP_EVIDENCE"
DIVISIBLE_KERNEL_OK = "DIVISIBLE_KERNEL_OK"
NOT_DIVISIBLE = "NOT_DIVISIBLE"

STENCIL_WIDTH = 1e-4  # default h, relative to the span of the domain or grid
DOMAIN_ATOL = 1e-12  # slack of every time-in-domain check
SCAN_HERM_ATOL = 1e-7  # Hermiticity slack of scanned witnesses and of every family member
KERNEL_ATOL = 1e-8  # kernel-inclusion residual, relative to ||Lambda_t||_2


def _check_time(t: float, domain: tuple[float, float], what: str = "t") -> None:
    lo, hi = domain
    if not lo - DOMAIN_ATOL <= t <= hi + DOMAIN_ATOL:
        raise DomainExceeded(f"{what}={t} outside domain [{lo}, {hi}]")


def _check_stencil(grid: np.ndarray, h, domain: tuple[float, float]) -> None:
    """The stencil rule: a non-empty grid and a finite h > 0, else
    HypothesisViolated; every t +/- h in the domain, else DomainExceeded."""
    if len(grid) == 0 or not (np.isfinite(h) and h > 0):
        raise HypothesisViolated(f"a scan needs a non-empty grid and a finite h > 0; got {len(grid)} times, h={h}")
    _check_time(float(np.min(grid)) - h, domain, what="stencil point t - h")
    _check_time(float(np.max(grid)) + h, domain, what="stencil point t + h")


@dataclass
class DynamicalFamily:
    """Time-indexed family of channels on a fixed d-dimensional system.

    channel_at(t) must return a Channel for every t in t_domain. Canonical
    witnesses travel with the family so scans probe the operators the family
    was designed around, on top of the generic library.
    """

    d: int
    t_domain: tuple[float, float]
    channel_at: object
    name: str = ""
    witnesses: tuple = ()
    cp_witnesses: tuple = ()

    def channel(self, t: float) -> Channel:
        """channel_at(t), checked here for every consumer: DomainExceeded
        outside t_domain, DimensionMismatch for a member on another
        dimension than d, InvalidFamily naming t for a non-finite
        superoperator, and NonHermitianInput naming t for one that is not
        Hermiticity preserving (hp_deviation above SCAN_HERM_ATOL), for
        which the trace-norm criterion says nothing."""
        _check_time(t, self.t_domain)
        ch = self.channel_at(t)
        if ch.d != self.d:
            raise DimensionMismatch(f"channel at t={t} has dimension {ch.d}, family dimension {self.d}")
        if not np.isfinite(ch.super).all():
            raise InvalidFamily(f"{self.name or 'family'} has a non-finite superoperator at t={t}", t=t)
        dev = ch.hp_deviation()
        if dev > SCAN_HERM_ATOL:
            raise NonHermitianInput(
                f"channel at t={t} is not Hermiticity preserving: deviation {dev:.3e} (atol={SCAN_HERM_ATOL:.1e})",
                t=t,
            )
        return ch


def make_dynamical_family(
    channel_at,
    d: int,
    t_domain: tuple[float, float],
    name: str = "",
    witnesses=(),
    cp_witnesses=(),
    validate: bool = True,
) -> DynamicalFamily:
    """Build a family and check CP + TP on a 21-point validation grid.

    Each member comes through DynamicalFamily.channel, with its checks
    (dimension, finite, HP: NonHermitianInput naming t), and is then checked
    for TP (at TP_HYPOTHESIS_ATOL) and CP: Kraus operators certify CP, a
    member given only as a superoperator needs a Choi PSD test (at CP_ATOL).
    Raises InvalidFamily with the first offending t.
    """
    fam = DynamicalFamily(
        d=d,
        t_domain=(float(t_domain[0]), float(t_domain[1])),
        channel_at=channel_at,
        name=name,
        witnesses=tuple(witnesses),
        cp_witnesses=tuple(cp_witnesses),
    )
    if validate:
        for t in np.linspace(fam.t_domain[0], fam.t_domain[1], 21):
            ch = fam.channel(float(t))
            if not ch.is_tp(atol=TP_HYPOTHESIS_ATOL):
                raise InvalidFamily(f"{name or 'family'} not TP at t={t}", t=float(t))
            if not ch.is_cp():
                raise InvalidFamily(f"{name or 'family'} not CP at t={t}", t=float(t))
    return fam


def default_witnesses(d: int, rng: np.random.Generator, n_proj: int = 20, n_herm: int = 20, pair_cap: int = 300):
    """The generic witness library: all E_ii - E_jj diagonal differences
    (seeded subsample above pair_cap), random rank-1 projector differences,
    and random Hermitian samples. Returns (id, matrix) pairs, the whole of
    what _draws(d, rng, ...) yields; the scan streams _draws instead."""
    return list(_draws(d, rng, n_proj, n_herm, pair_cap))


def _draws(d: int, seed, n_proj: int, n_herm: int, pair_cap: int):
    """default_witnesses' (id, matrix) pairs, one at a time, in its order:
    min(d(d-1)/2, pair_cap) diagonal differences, n_proj projector
    differences, n_herm Hermitian samples. The generator
    np.random.default_rng(seed) (seed itself if it is a Generator) is made
    at the first random draw, the pair subsample or the first projector
    difference, so a reader that stops before it makes none."""
    rng = None
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    if len(pairs) > pair_cap:
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(pairs), size=pair_cap, replace=False)
        pairs = [pairs[i] for i in sorted(idx)]
    for i, j in pairs:
        e = np.zeros(d)
        e[i], e[j] = 1.0, -1.0
        yield f"diag({i}-{j})", np.diag(e)
    rng = np.random.default_rng(seed) if rng is None else rng
    for r in range(n_proj):
        yield f"projdiff-{r}", random_projector_difference(d, rng)
    for r in range(n_herm):
        yield f"herm-{r}", random_hermitian(d, rng)


@dataclass
class DivisibilityReport:
    verdict: str
    mode: str
    witness_id: str | None = None
    witness_t: float | None = None
    derivative: float | None = None
    witness_matrix: np.ndarray | None = None
    rows: list = field(default_factory=list)  # (t, witness_id, trace_norm, derivative) per point per witness
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        wm = None if self.witness_matrix is None else _matrix_to_json(self.witness_matrix)
        return {
            "verdict": self.verdict,
            "mode": self.mode,
            "witness_id": self.witness_id,
            "witness_t": self.witness_t,
            "derivative": self.derivative,
            "witness_matrix": wm,
            "notes": list(self.notes),
        }


def _by_dtype(ws: np.ndarray):
    """Split a witness stack by value into (rows, stack) parts: the real
    rows held as float64, then the complex rows. Empty parts are dropped."""
    real = ~np.any(ws.imag, axis=(1, 2))
    parts = ((np.flatnonzero(real), ws[real].real), (np.flatnonzero(~real), ws[~real]))
    return [(rows, ys) for rows, ys in parts if rows.size]


def _nonzero_blocks(ys: np.ndarray, d: int) -> np.ndarray:
    """The stack ys of (m d) x (m d) operands, m read from its shape, cut to
    R x R blocks, R the block rows and columns where some operand has a
    nonzero d x d block; ys itself when R is all of 0..m-1. I_m (x) Lambda
    maps a zero block to a zero block, so the dropped rows and columns of
    every image only add zero eigenvalues; an all-zero stack is cut to
    (N, 0, 0), with norms 0."""
    n, m = len(ys), ys.shape[-1] // d
    nonzero = (ys != 0).reshape(n, m, d, m, d).any(axis=(0, 2, 4))
    keep = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    if keep.size == m:
        return ys
    return ys.reshape(n, m, d, m, d)[:, keep][:, :, :, keep].reshape(n, keep.size * d, keep.size * d)


def _norms(fam, ys: np.ndarray, taus):
    """The trace norms of I_m (x) Lambda_tau on the checked stack ys of N
    witnesses, P or CP, for each tau in taus, in order and in row order:
    the scan's one norm route.

    The stack is cut to its nonzero blocks and split by dtype once; each
    tau builds and checks S_tau once and applies it to the real and to the
    complex rows. A part whose eigensolve went to the worker (_trace_norms
    with overlap) gives a function that waits for its norms, and the norms
    at a tau are read once the member at the next tau is built, checked
    and applied: at most two stencil times are in flight, and nothing
    outlives them.
    """
    parts = _by_dtype(_nonzero_blocks(ys, fam.d))

    def read(held):
        out = np.empty(len(ys))
        for rows, norms in held:
            out[rows] = norms() if callable(norms) else norms
        return out

    held = []
    for tau in taus:
        s = fam.channel(tau).super
        support = _support(s)
        held.append([(rows, _trace_norms(_apply(s, fam.d, part, support), overlap=True)) for rows, part in parts])
        if len(held) == 2:
            yield read(held.pop(0))
    yield from map(read, held)


def _scan(fam, grid, h, witnesses, seed, tau_slope, mode, early_stop) -> DivisibilityReport:
    """The one scan engine, one path for both modes: Lambda_t on witnesses
    on C^d (P), I (x) Lambda_t on witnesses on C^d (x) C^d (CP); the mode
    sets only the witness dimension, the default library and the verdicts.

    The library is one stream, read in slices of 1, 2, 4, ... witnesses
    with early stop (all at once without) until a slice is empty:
    witnesses=None streams the canonical witnesses, then _draws(dim, seed,
    ...), each witness drawn as its slice is read. A given library is
    listed and every shape checked before the first row.

    A slice's norms all come from _norms. Its flagged cells (t, witness)
    are re-checked in (-slope, witness, t) order, (witness, -slope, t) with
    early stop, up to the first one confirmed, the pick: the first strict
    maximum in (witness, t) order, as the full pass found it. The first
    cell at a grid point re-checks every witness flagged there, so none is
    re-checked twice."""
    cp = mode == "CP"
    lo, hi = fam.t_domain
    if h is None:
        h = STENCIL_WIDTH * (hi - lo)
    grid = np.linspace(lo + h, hi - h, 51) if grid is None else np.asarray(grid, dtype=float)
    _check_stencil(grid, h, fam.t_domain)
    dim = fam.d * fam.d if cp else fam.d
    drawn = ()
    if witnesses is None:
        canonical = fam.cp_witnesses if cp else fam.witnesses
        witnesses = [(f"canonical-{i}", w) for i, w in enumerate(canonical)]
        n_proj, n_herm, pair_cap = (10, 10, 60) if cp else (20, 20, 300)
        drawn = _draws(dim, seed, n_proj, n_herm, pair_cap)
    witnesses = list(witnesses)
    for wid, w in witnesses:
        if np.shape(w) != (dim, dim):
            raise DimensionMismatch(f"witness {wid} has shape {np.shape(w)}, expected {(dim, dim)}")

    source, size = chain(witnesses, drawn), 1
    ts = grid.tolist()
    rows = []
    notes = []
    best = None  # (derivative, t, id, matrix)
    while (best is None or not early_stop) and (chunk := list(islice(source, size if early_stop else None))):
        ws = require_hermitian(np.stack([np.asarray(w) for _, w in chunk]), SCAN_HERM_ATOL)
        # members at t, t + h, t - h for each grid point in turn
        taus = chain.from_iterable((t, t + h, t - h) for t in ts)
        values, ups, downs = np.reshape(list(_norms(fam, ws, taus)), (len(ts), 3, -1)).transpose(1, 0, 2)
        derivs = (ups - downs) / (2 * h)
        flagged = derivs > tau_slope
        ks, ns = np.nonzero(flagged)
        order = np.lexsort((ks, -derivs[ks, ns], ns) if early_stop else (ks, ns, -derivs[ks, ns]))
        fine, missed, read = {}, [], len(chunk)  # grid point -> {witness: h/10 slope}
        for k, n in zip(ks[order].tolist(), ns[order].tolist()):
            if k not in fine:
                cols = np.flatnonzero(flagged[k])
                up, down = _norms(fam, ws[cols], (ts[k] + h / 10, ts[k] - h / 10))
                slopes = (up - down) / (2 * (h / 10))
                fine[k] = dict(zip(cols.tolist(), slopes.tolist()))
            if fine[k][n] > tau_slope / 2:
                best = (float(derivs[k, n]), ts[k], *chunk[n])
                if early_stop:
                    # later witnesses cannot change the verdict, only the argmax
                    read = n + 1
                break
            missed.append((n, k))
        for (wid, _), vs, ds in zip(chunk[:read], values.T.tolist(), derivs.T.tolist()):
            rows += zip(ts, repeat(wid), vs, ds)
        notes += [
            f"slope {derivs[k, n]:.3e} at t={ts[k]} (witness {chunk[n][0]}) not confirmed at h/10; ignored"
            for n, k in sorted(missed)
        ]
        if best is not None and early_stop:
            notes.append("stopped at first violating witness")
        size *= 2
    if not rows:
        raise HypothesisViolated("the witness library is empty; an empty scan is no evidence")

    if best is None:
        notes.append("no witness growth found; evidence of divisibility, not proof")
    deriv, t, wid, w = best or (None, None, None, None)
    found, evidence = (NOT_CP_DIVISIBLE, CP_EVIDENCE) if cp else (NOT_P_DIVISIBLE, P_EVIDENCE)
    return DivisibilityReport(
        verdict=evidence if best is None else found,
        mode=mode,
        witness_id=wid,
        witness_t=t,
        derivative=deriv,
        witness_matrix=w,
        rows=rows,
        notes=notes,
    )


def p_divisibility_scan(
    fam: DynamicalFamily,
    grid=None,
    h: float | None = None,
    witnesses=None,
    seed: int = 11,
    tau_slope: float = TAU_SLOPE,
    early_stop: bool = True,
) -> DivisibilityReport:
    """Scan d/dt ||Lambda_t(X)||_1 over a witness library.

    h defaults to STENCIL_WIDTH times the domain span. HypothesisViolated
    for an empty grid or library or an h that is not finite and positive;
    DomainExceeded when a stencil point t +/- h leaves the family domain.
    witnesses=None selects the canonical witnesses, then the default library.
    """
    return _scan(fam, grid, h, witnesses, seed, tau_slope, mode="P", early_stop=early_stop)


def cp_divisibility_scan(
    fam: DynamicalFamily,
    grid=None,
    h: float | None = None,
    witnesses=None,
    seed: int = 11,
    tau_slope: float = TAU_SLOPE,
    early_stop: bool = True,
) -> DivisibilityReport:
    """Same scan under I (x) Lambda_t; witnesses live on the doubled space."""
    return _scan(fam, grid, h, witnesses, seed, tau_slope, mode="CP", early_stop=early_stop)


def central_difference(f, t: float, h: float):
    return (f(t + h) - f(t - h)) / (2 * h)


def _null_basis(s: np.ndarray) -> np.ndarray:
    _, sv, vh = np.linalg.svd(s)
    if sv[0] == 0.0:
        return vh.conj().T  # zero map: everything is kernel
    rank = int(np.sum(sv > RCOND * sv[0]))
    return vh[rank:].conj().T


def kernel_inclusion_divisible(fam: DynamicalFamily, s: float, t: float) -> bool:
    """Exact divisibility test: some Phi with Lambda_t = Phi Lambda_s exists
    iff Ker(Lambda_s) is contained in Ker(Lambda_t).

    Decided from an SVD null-space basis of Lambda_s: the rank cut-off RCOND
    and the residual bound KERNEL_ATOL are relative to each map's 2-norm.
    """
    if t < s:
        raise DomainExceeded(f"need s <= t, got s={s}, t={t}")
    ss = fam.channel(s).super
    st = fam.channel(t).super
    return float(np.max(np.abs(st @ _null_basis(ss)), initial=0.0)) <= KERNEL_ATOL * float(np.linalg.norm(st, 2))


def kernel_inclusion_report(fam: DynamicalFamily, s: float, t: float) -> DivisibilityReport:
    ok = kernel_inclusion_divisible(fam, s, t)
    return DivisibilityReport(
        verdict=DIVISIBLE_KERNEL_OK if ok else NOT_DIVISIBLE,
        mode="kernel",
        witness_t=t,
        notes=[f"kernel inclusion Ker(L_{s}) in Ker(L_{t}): {ok}"],
    )


def intermediate_map(fam: DynamicalFamily, s: float, t: float, seed: int = 7) -> dict:
    """Phi_{t,s} = Lambda_t . Lambda_s^{-1} through the superoperator inverse.

    Returns {"map": Channel, "cp": bool, "p": ...} where "p" is the
    sampling-based contractivity report for the connecting map (evidence,
    not proof). Propagates SingularChannel (with the singular-value
    report) when Lambda_s is not invertible at RCOND; the CLI reports it
    and exits 1. Falling back to kernel_inclusion_report there is open
    (ROADMAP item 9, step 1).
    """
    from .channels import compose, inverse, positivity_by_contractivity

    if t < s:
        raise DomainExceeded(f"need s <= t, got s={s}, t={t}")
    ch_s = fam.channel(s)
    ch_t = fam.channel(t)
    mid = compose(ch_t, inverse(ch_s))
    contr = positivity_by_contractivity(mid, seed=seed)
    return {"map": mid, "cp": bool(mid.is_cp()), "p": contr}
