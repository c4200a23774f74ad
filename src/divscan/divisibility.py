"""Divisibility scans for dynamical families.

The workhorse criterion: along a P-divisible family the trace norm of every
Hermitian witness is non-increasing, and along a CP-divisible family the same
holds for witnesses on the doubled space under I (x) Lambda_t. A witness whose
norm curve has positive slope certifies NOT divisible; absence of growth over
a witness library is evidence, not proof (the converse direction needs
surjectivity, which a numerical scan cannot establish).

Derivatives are central differences with stencil width h; any flagged slope
is re-checked at h/10 and must stay above tau_slope/2 to count, which filters
stencil artifacts near kinks.

P and CP scans run one engine. At each stencil time tau (t and t +/- h, plus
t +/- h/10 for a re-check) it builds the d^2 x d^2 superoperator S_tau once
and applies it to the whole witness stack in one matmul: to each witness in P
mode, and to every d x d block of each doubled-space witness in CP mode, so
I (x) Lambda_t is never built. One stacked eigensolve then gives every trace
norm. Nothing is kept past the stencil time that built it, so memory grows
with library size x D^2 (D the witness dimension), not with grid length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._errors import DimensionMismatch, DomainExceeded, InvalidFamily
from .channels import Channel, _matrix_to_json, stacked_apply
from .operators import TAU_SLOPE, random_hermitian, random_projector_difference, trace_norms

# Neither is called here; perfbench/tracing.py wraps each under this name.
from .channels import extend_channel  # noqa: F401
from .operators import trace_norm  # noqa: F401

NOT_P_DIVISIBLE = "NOT_P_DIVISIBLE"
NOT_CP_DIVISIBLE = "NOT_CP_DIVISIBLE"
P_EVIDENCE = "P_EVIDENCE"
CP_EVIDENCE = "CP_EVIDENCE"
DIVISIBLE_KERNEL_OK = "DIVISIBLE_KERNEL_OK"
NOT_DIVISIBLE = "NOT_DIVISIBLE"


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
        lo, hi = self.t_domain
        if t < lo - 1e-12 or t > hi + 1e-12:
            raise DomainExceeded(f"t={t} outside domain [{lo}, {hi}]")
        return self.channel_at(t)


def make_dynamical_family(
    channel_at,
    d: int,
    t_domain: tuple[float, float],
    name: str = "",
    witnesses=(),
    cp_witnesses=(),
    validate: bool = True,
    grid_points: int = 21,
    cp_atol: float = 1e-9,
    tp_atol: float = 1e-8,
) -> DynamicalFamily:
    """Build a family and check CP + TP on a validation grid.

    Kraus-form channels are CP by construction and only get the TP check;
    super-only channels get a dense Choi PSD test. Raises InvalidFamily with
    the first offending t.
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
        for t in np.linspace(fam.t_domain[0], fam.t_domain[1], grid_points):
            ch = fam.channel(float(t))
            if not ch.is_tp(atol=tp_atol):
                raise InvalidFamily(f"{name or 'family'} not TP at t={t}", t=float(t))
            if ch.kraus is None and not ch.is_cp(atol=cp_atol):
                raise InvalidFamily(f"{name or 'family'} not CP at t={t}", t=float(t))
    return fam


def default_witnesses(d: int, rng: np.random.Generator, n_proj: int = 20, n_herm: int = 20, pair_cap: int = 300):
    """The generic witness library: all E_ii - E_jj diagonal differences
    (seeded subsample above pair_cap), random rank-1 projector differences,
    and random Hermitian samples. Returns (id, matrix) pairs."""
    out = []
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    if len(pairs) > pair_cap:
        idx = rng.choice(len(pairs), size=pair_cap, replace=False)
        pairs = [pairs[i] for i in sorted(idx)]
    for i, j in pairs:
        e = np.zeros(d)
        e[i], e[j] = 1.0, -1.0
        out.append((f"diag({i}-{j})", np.diag(e).astype(complex)))
    for r in range(n_proj):
        out.append((f"projdiff-{r}", random_projector_difference(d, rng)))
    for r in range(n_herm):
        out.append((f"herm-{r}", random_hermitian(d, rng)))
    return out


@dataclass
class DivisibilityReport:
    verdict: str
    mode: str
    witness_id: str | None = None
    witness_t: float | None = None
    derivative: float | None = None
    witness_matrix: np.ndarray | None = None
    rows: list = field(default_factory=list)
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

    def csv_rows(self):
        """(t, witness_id, trace_norm, derivative) per grid point per witness."""
        return list(self.rows)


def _default_grid(fam: DynamicalFamily, h: float, points: int = 51) -> np.ndarray:
    lo, hi = fam.t_domain
    return np.linspace(lo + h, hi - h, points)


def _check_grid(fam: DynamicalFamily, grid: np.ndarray, h: float) -> None:
    lo, hi = fam.t_domain
    for t in grid:
        if t - h < lo - 1e-12 or t + h > hi + 1e-12:
            raise DomainExceeded(
                f"stencil point {t} +/- {h} leaves the family domain [{lo}, {hi}]"
            )


def _chunks(n: int, early_stop: bool):
    """Witness index ranges: all at once, or 1, 2, 4, ... with early stop so
    that a violation among the first witnesses ends the scan early."""
    if not early_stop:
        yield 0, n
        return
    start, size = 0, 1
    while start < n:
        yield start, min(start + size, n)
        start += size
        size *= 2


def _curves(fam, grid, h, ws, tau_slope, extended):
    """Norms, central-difference slopes and h/10 re-check slopes, each of
    shape (len(grid), N), for one stack of N witnesses.

    S_tau is built once per stencil time and applied to the whole stack;
    nothing outlives the stencil time that built it. Re-check slopes are
    NaN where the slope did not exceed tau_slope.
    """

    def norms(tau: float, ys: np.ndarray) -> np.ndarray:
        out = stacked_apply(fam.channel(tau).super, fam.d, ys, extended=extended)
        return trace_norms(out, atol=1e-7)

    shape = (len(grid), len(ws))
    values, derivs, fine = np.empty(shape), np.empty(shape), np.full(shape, np.nan)
    for k, t in enumerate(grid.tolist()):
        values[k] = norms(t, ws)
        derivs[k] = (norms(t + h, ws) - norms(t - h, ws)) / (2 * h)
        flagged = np.flatnonzero(derivs[k] > tau_slope)
        if flagged.size:
            sub = ws[flagged]
            fine[k, flagged] = (norms(t + h / 10, sub) - norms(t - h / 10, sub)) / (2 * h / 10)
    return values, derivs, fine


def _scan(fam, grid, h, witnesses, seed, tau_slope, mode, early_stop) -> DivisibilityReport:
    """The one scan engine. P mode applies Lambda_t to witnesses on C^d; CP
    mode applies I (x) Lambda_t blockwise to witnesses on C^d (x) C^d."""
    extended = mode == "CP"
    lo, hi = fam.t_domain
    if h is None:
        h = 1e-4 * (hi - lo)
    grid = _default_grid(fam, h) if grid is None else np.asarray(grid, dtype=float)
    _check_grid(fam, grid, h)
    dim = fam.d * fam.d if extended else fam.d
    if witnesses is None:
        rng = np.random.default_rng(seed)
        canonical = fam.cp_witnesses if extended else fam.witnesses
        witnesses = [(f"canonical-{i}", w) for i, w in enumerate(canonical)]
        if extended:
            witnesses += default_witnesses(dim, rng, n_proj=10, n_herm=10, pair_cap=60)
        else:
            witnesses += default_witnesses(dim, rng)
    witnesses = list(witnesses)
    for wid, w in witnesses:
        if np.shape(w) != (dim, dim):
            raise DimensionMismatch(f"witness {wid} has shape {np.shape(w)}, expected {(dim, dim)}")

    rows = []
    notes = []
    best = None  # (derivative, t, id, matrix)
    for start, stop in _chunks(len(witnesses), early_stop):
        chunk = witnesses[start:stop]
        ws = np.stack([np.asarray(w, dtype=complex) for _, w in chunk])
        values, derivs, fine = _curves(fam, grid, h, ws, tau_slope, extended)
        for n, (wid, w) in enumerate(chunk):
            for k, t in enumerate(grid):
                t, deriv = float(t), float(derivs[k, n])
                rows.append((t, wid, float(values[k, n]), deriv))
                if deriv > tau_slope:
                    if fine[k, n] > tau_slope / 2:
                        if best is None or deriv > best[0]:
                            best = (deriv, t, wid, w)
                    else:
                        notes.append(
                            f"slope {deriv:.3e} at t={t} (witness {wid}) not confirmed at h/10; ignored"
                        )
            if best is not None and early_stop:
                # the flagged witness's full curve is in rows already; later
                # witnesses cannot change the verdict, only the argmax
                notes.append("stopped at first violating witness")
                break
        if best is not None and early_stop:
            break

    if best is not None:
        deriv, t, wid, w = best
        verdict = NOT_CP_DIVISIBLE if extended else NOT_P_DIVISIBLE
        return DivisibilityReport(
            verdict=verdict,
            mode=mode,
            witness_id=wid,
            witness_t=t,
            derivative=deriv,
            witness_matrix=w,
            rows=rows,
            notes=notes,
        )
    verdict = CP_EVIDENCE if extended else P_EVIDENCE
    notes.append("no witness growth found; evidence of divisibility, not proof")
    return DivisibilityReport(verdict=verdict, mode=mode, rows=rows, notes=notes)


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

    Requires every stencil point t +/- h to stay inside the family domain
    (DomainExceeded otherwise). witnesses=None selects the family's canonical
    witnesses followed by the default library.
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


def central_difference(f, t: float, h: float) -> float:
    return (f(t + h) - f(t - h)) / (2 * h)


def _null_basis(s: np.ndarray, rcond: float) -> np.ndarray:
    _, sv, vh = np.linalg.svd(s)
    if sv.size == 0 or sv[0] == 0.0:
        return vh.conj().T  # zero map: everything is kernel
    rank = int(np.sum(sv > rcond * sv[0]))
    return vh[rank:].conj().T


def kernel_inclusion_divisible(fam: DynamicalFamily, s: float, t: float, rcond: float = 1e-10) -> bool:
    """Exact divisibility test: some Phi with Lambda_t = Phi Lambda_s exists
    iff Ker(Lambda_s) is contained in Ker(Lambda_t).

    Decided from an SVD null-space basis of the source superoperator; rank
    thresholds use rcond relative to the largest singular value.
    """
    if t < s:
        raise DomainExceeded(f"need s <= t, got s={s}, t={t}")
    ss = fam.channel(s).super
    st = fam.channel(t).super
    null = _null_basis(ss, rcond)
    if null.shape[1] == 0:
        return True
    scale = float(np.linalg.norm(st, 2))
    if scale == 0.0:
        return True
    return float(np.max(np.abs(st @ null))) <= 1e-8 * scale


def kernel_inclusion_report(fam: DynamicalFamily, s: float, t: float, rcond: float = 1e-10) -> DivisibilityReport:
    ok = kernel_inclusion_divisible(fam, s, t, rcond=rcond)
    return DivisibilityReport(
        verdict=DIVISIBLE_KERNEL_OK if ok else NOT_DIVISIBLE,
        mode="kernel",
        witness_t=t,
        notes=[f"kernel inclusion Ker(L_{s}) in Ker(L_{t}): {ok}"],
    )


def intermediate_map(fam: DynamicalFamily, s: float, t: float, rcond: float = 1e-10,
                     n_samples: int = 400, seed: int = 7) -> dict:
    """Phi_{t,s} = Lambda_t . Lambda_s^{-1} through the superoperator inverse.

    Returns {"map": Channel, "cp": bool, "p": ...} where "p" is the
    sampling-based contractivity report for the connecting map (evidence,
    not proof). Propagates SingularChannel (with the singular-value
    report) when Lambda_s is not invertible at rcond; callers should fall
    back to kernel_inclusion_report in that case.
    """
    from .channels import compose, inverse, positivity_by_contractivity

    if t < s:
        raise DomainExceeded(f"need s <= t, got s={s}, t={t}")
    ch_s = fam.channel(s)
    ch_t = fam.channel(t)
    mid = compose(ch_t, inverse(ch_s, rcond=rcond))
    contr = positivity_by_contractivity(mid, n_samples=n_samples, seed=seed)
    return {"map": mid, "cp": bool(mid.is_cp()), "p": contr}
