import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divscan.channels
import divscan.operators
from divscan._errors import (
    DimensionMismatch,
    DomainExceeded,
    HypothesisViolated,
    InvalidFamily,
    NonHermitianInput,
    SingularChannel,
)
from divscan.channels import (
    choi,
    compose,
    extend_channel,
    inverse,
    kraus_channel,
    super_channel,
)
from divscan.divisibility import (
    ROUNDING,
    STENCIL_WIDTH,
    DynamicalFamily,
    central_difference,
    cp_divisibility_scan,
    default_witnesses,
    intermediate_map,
    kernel_inclusion_divisible,
    kernel_inclusion_report,
    make_dynamical_family,
    p_divisibility_scan,
)
from divscan.idempotent import IdempotentParams, divisor_coeffs, phi
from divscan.operators import random_hermitian, trace_norm, vec
from divscan.presets import (
    DESIGNATED_PAIR,
    FAMILY_PRESETS,
    generic_noncp_family,
    idempotent_coeff_fns,
    idempotent_family_preset,
    paired_difference_witness,
    unitary_family,
)
from divscan.schur import cp_block_witness, hopping_witness, make_schur_family

from _reference import transpose_channel

D = 4
DEPOL = np.outer(vec(np.eye(D)), vec(np.eye(D)).conj()) / D


def collapse_channel(t):
    """Interpolates identity -> full depolarizer; rank collapses at t=1."""
    w = min(t, 1.0)
    return super_channel((1 - w) * np.eye(D * D, dtype=complex) + w * DEPOL, D)


def resurrect_channel(t):
    # same path up to t=1.5, then walks back toward the identity
    w = min(t, 1.0) if t <= 1.5 else 1.0 - (t - 1.5)
    return super_channel((1 - w) * np.eye(D * D, dtype=complex) + w * DEPOL, D)


def stacked_rank_oracle(fam, s, t):
    # Ker(L_s) included in Ker(L_t) iff stacking L_t under L_s adds no rank
    ss, st = fam.channel(s).super, fam.channel(t).super
    return bool(
        np.linalg.matrix_rank(np.vstack([ss, st]), tol=1e-8)
        == np.linalg.matrix_rank(ss, tol=1e-8)
    )


def test_constant_family_is_clean_evidence_with_zero_derivatives():
    ch = kraus_channel([np.eye(3)])
    fam = DynamicalFamily(d=3, t_domain=(0.0, 1.0), channel_at=lambda t: ch, name="const")
    report = p_divisibility_scan(fam, grid=np.linspace(0.1, 0.9, 5), h=1e-4)
    assert report.verdict == "P_EVIDENCE"
    assert all(abs(row[3]) <= 1e-6 for row in report.rows)


def test_unitary_family_clean_in_both_modes():
    fam = unitary_family()
    grid = np.linspace(0.2, 1.8, 9)
    assert p_divisibility_scan(fam, grid=grid, h=1e-4).verdict == "P_EVIDENCE"
    assert cp_divisibility_scan(fam, grid=grid, h=1e-4).verdict == "CP_EVIDENCE"


def test_mixing_family_fails_cp_scan_with_slope_four():
    fam = generic_noncp_family()
    report = cp_divisibility_scan(fam, grid=np.linspace(0.1, 0.9, 9), h=1e-5)
    assert report.verdict == "NOT_CP_DIVISIBLE"
    assert abs(report.derivative - 4.0) < 1e-4


def test_paired_difference_witness_norm_is_linear_in_t():
    from divscan.channels import extend_channel
    from divscan.operators import trace_norm

    fam = generic_noncp_family()
    y = paired_difference_witness(4)
    for t in (0.1, 0.35, 0.8):
        val = trace_norm(extend_channel(fam.channel(t)).apply(y))
        assert abs(val - 4.0 * t) < 1e-9


def test_verdict_evidence_wording_not_proof():
    fam = unitary_family()
    report = p_divisibility_scan(fam, grid=np.linspace(0.2, 1.8, 5), h=1e-4)
    assert "evidence" in " ".join(report.notes).lower()


def test_scan_respects_domain():
    fam = unitary_family()
    with pytest.raises(DomainExceeded):
        p_divisibility_scan(fam, grid=np.array([1.95, 2.5]), h=1e-4)


@pytest.mark.parametrize(
    "grid, h, tau_slope, witnesses",
    [
        ([0.5], 0.0, 1e-6, None),
        ([0.5], -1e-4, 1e-6, None),
        ([0.5], np.nan, 1e-6, None),
        ([0.5], np.inf, 1e-6, None),
        ([], 1e-4, 1e-6, None),
        ([[0.5, 0.6]], 1e-4, 1e-6, None),
        ([0.5], 1e-4, 0.0, None),
        ([0.5], 1e-4, -1.0, None),
        ([0.5], 1e-4, np.nan, None),
        ([0.5], 1e-4, np.inf, None),
        ([0.5], 1e-4, 1e-6, []),
    ],
    ids=["h-zero", "h-negative", "h-nan", "h-inf", "empty-grid", "grid-2d", "tau-zero", "tau-negative", "tau-nan",
         "tau-inf", "no-witnesses"],
)
@pytest.mark.parametrize("scan", [p_divisibility_scan, cp_divisibility_scan])
def test_scan_without_a_stencil_or_witnesses_is_no_evidence(scan, grid, h, tau_slope, witnesses):
    """With h=0 the CP scan of generic-noncp used to read CP_EVIDENCE from a
    NaN slope, and an empty grid or library gave evidence from zero rows. A
    2-D grid used to raise a bare TypeError; tau_slope=0 or -1 flagged
    rounding noise as growth, and nan or inf gave P_EVIDENCE."""
    with pytest.raises(HypothesisViolated):
        scan(generic_noncp_family(), grid=np.array(grid, dtype=float), h=h, tau_slope=tau_slope, witnesses=witnesses)


def test_scan_soundness_recheck_at_finer_h():
    """A NOT verdict must survive re-evaluation at h/10 above tau/2."""
    fam = generic_noncp_family()
    report = cp_divisibility_scan(fam, grid=np.linspace(0.1, 0.9, 9), h=1e-4)
    assert report.verdict == "NOT_CP_DIVISIBLE"
    t = report.witness_t
    finer = central_difference(_extended_norm(fam, t + 1e-5), _extended_norm(fam, t - 1e-5), 1e-5)
    assert finer > 1e-6 / 2


def _extended_norm(fam, t):
    from divscan.channels import extend_channel
    from divscan.operators import trace_norm

    return trace_norm(extend_channel(fam.channel(t)).apply(paired_difference_witness(4)))


def test_default_witness_library_shapes_and_determinism():
    rng = np.random.default_rng(21)
    lib = default_witnesses(3, rng)
    ids = [wid for wid, _ in lib]
    assert any(wid.startswith("diag") for wid in ids)
    assert any(wid.startswith("projdiff") for wid in ids)
    assert any(wid.startswith("herm") for wid in ids)
    lib2 = default_witnesses(3, np.random.default_rng(21))
    for (i1, m1), (i2, m2) in zip(lib, lib2):
        assert i1 == i2
        assert np.array_equal(m1, m2)


def test_kernel_inclusion_collapse_true_resurrect_false():
    fa = DynamicalFamily(d=D, t_domain=(0.0, 2.5), channel_at=collapse_channel, name="a")
    fb = DynamicalFamily(d=D, t_domain=(0.0, 2.5), channel_at=resurrect_channel, name="b")
    assert kernel_inclusion_divisible(fa, 1.0, 2.0) is True
    assert kernel_inclusion_divisible(fb, 1.0, 2.0) is False
    # SVD-rank oracle agrees
    assert stacked_rank_oracle(fa, 1.0, 2.0) is True
    assert stacked_rank_oracle(fb, 1.0, 2.0) is False


def test_kernel_inclusion_trivial_for_invertible_start():
    fa = DynamicalFamily(d=D, t_domain=(0.0, 2.5), channel_at=collapse_channel, name="a")
    assert kernel_inclusion_divisible(fa, 0.25, 2.0) is True


def test_kernel_inclusion_report_verdicts():
    fa = DynamicalFamily(d=D, t_domain=(0.0, 2.5), channel_at=collapse_channel, name="a")
    fb = DynamicalFamily(d=D, t_domain=(0.0, 2.5), channel_at=resurrect_channel, name="b")
    assert kernel_inclusion_report(fa, 1.0, 2.0).verdict == "DIVISIBLE_KERNEL_OK"
    assert kernel_inclusion_report(fb, 1.0, 2.0).verdict == "NOT_DIVISIBLE"


def test_kernel_inclusion_reads_the_zero_map_as_all_kernel():
    """Ker(0) is the whole space: Lambda_t = Phi Lambda_s has a solution
    after a zero Lambda_s only when Lambda_t is zero too, and after the
    identity always. A pair with s > t is a DomainExceeded."""
    zero, one = super_channel(np.zeros((D * D, D * D)), D), super_channel(np.eye(D * D), D)
    fam = DynamicalFamily(d=D, t_domain=(0.0, 1.0), channel_at=lambda t: zero if t < 0.5 else one, name="zero-one")
    gone = DynamicalFamily(d=D, t_domain=(0.0, 1.0), channel_at=lambda t: one if t < 0.5 else zero, name="one-zero")
    assert kernel_inclusion_divisible(fam, 0.1, 0.2) is True
    assert kernel_inclusion_divisible(fam, 0.2, 0.8) is False
    assert kernel_inclusion_divisible(gone, 0.2, 0.8) is True
    assert kernel_inclusion_divisible(gone, 0.6, 0.8) is True
    with pytest.raises(DomainExceeded, match="need s <= t"):
        kernel_inclusion_divisible(fam, 0.8, 0.2)


def test_intermediate_map_unitary_is_cp_and_exact():
    fam = unitary_family()
    out = intermediate_map(fam, 0.3, 0.8)
    assert out["cp"] is True
    assert out["p"]["positive_evidence"] is True
    recomposed = compose(out["map"], fam.channel(0.3)).super
    assert np.max(np.abs(recomposed - fam.channel(0.8).super)) < 1e-8
    # TP within 1e-8
    vi = vec(np.eye(fam.d))
    assert np.max(np.abs(out["map"].super.conj().T @ vi - vi)) < 1e-8


def test_intermediate_map_same_time_is_identity():
    fam = unitary_family()
    out = intermediate_map(fam, 0.5, 0.5)
    assert np.max(np.abs(out["map"].super - np.eye(16))) < 1e-9
    assert out["cp"] is True


def test_intermediate_map_rejects_reversed_pair_and_singular_start():
    fam = unitary_family()
    with pytest.raises(DomainExceeded):
        intermediate_map(fam, 0.8, 0.3)
    fa = DynamicalFamily(d=D, t_domain=(0.0, 2.5), channel_at=collapse_channel, name="a")
    with pytest.raises(SingularChannel):
        intermediate_map(fa, 1.0, 2.0)


def test_make_dynamical_family_validates_grid():
    """A member that is not TP, and a TP member given only as a
    superoperator that is not CP (the transpose map), each fail validation
    with the check they fail."""
    not_tp = np.eye(4, dtype=complex)
    not_tp[0, 0] = 2.0
    for member, reason in ((super_channel(not_tp, 2), "not TP"), (transpose_channel(2), "not CP")):
        with pytest.raises(InvalidFamily, match=reason):
            make_dynamical_family(d=2, t_domain=(0.0, 1.0), channel_at=lambda t, m=member: m, name="bad")


@pytest.mark.parametrize("member_d", [2, 3])
def test_member_of_another_dimension_fails_at_construction(member_d):
    """A channel_at that returns a channel on another dimension than the
    family's d is caught by validation, and by every later fam.channel, with
    a DimensionMismatch naming t and both dimensions, not by numpy's
    reshape error inside a scan."""
    member = kraus_channel([np.eye(member_d)])
    with pytest.raises(DimensionMismatch, match=f"t=0.0 has dimension {member_d}, family dimension 4"):
        make_dynamical_family(d=4, t_domain=(0.0, 1.0), channel_at=lambda t: member, name="mixed")
    fam = make_dynamical_family(d=4, t_domain=(0.0, 1.0), channel_at=lambda t: member, validate=False)
    for scan in (p_divisibility_scan, cp_divisibility_scan):
        with pytest.raises(DimensionMismatch, match=f"dimension {member_d}, family dimension 4"):
            scan(fam, grid=np.linspace(0.2, 0.8, 3), h=1e-4)


def test_kraus_members_are_certified_cp_without_a_choi_eigensolve(monkeypatch):
    """Kraus operators are the CP certificate: a Kraus-built family
    validates with channels.choi unavailable, while a channel given only as
    a superoperator still needs it."""

    def no_choi(ch):
        raise AssertionError("Choi matrix built for a certified member")

    monkeypatch.setattr(divscan.channels, "choi", no_choi)
    fam = make_schur_family(4)
    assert fam.channel(0.3).kraus is not None
    with pytest.raises(AssertionError):
        super_channel(fam.channel(0.3).super, 4).is_cp()


def test_reports_serialize_to_json_and_csv():
    fam = generic_noncp_family()
    report = cp_divisibility_scan(fam, grid=np.linspace(0.1, 0.9, 5), h=1e-4)
    obj = report.to_json()
    assert obj["verdict"] == "NOT_CP_DIVISIBLE"
    assert obj["witness_t"] is not None
    assert obj["derivative"] is not None
    assert isinstance(obj["witness_matrix"], list)
    rows = report.rows
    assert len(rows) > 0
    assert all(len(r) == 4 for r in rows)


def reference_scan(fam, grid, h, witnesses, tau_slope, mode, early_stop):
    """Witness-by-witness reference for the batched engine: one channel (or
    extended channel) application and one trace_norm per witness and
    stencil time. Returns (confirmed, rows, notes), confirmed holding
    (deriv, t, id) for every flagged cell: a slope above tau_slope whose
    norm rose from t - h to t + h by more than ROUNDING x the witness side
    x the larger of the two norms."""
    extended = mode == "CP"
    channels = {}

    def norm_at(tau, w):
        if tau not in channels:
            ch = fam.channel(tau)
            channels[tau] = extend_channel(ch) if extended else ch
        return trace_norm(channels[tau].apply(w), atol=1e-7)

    rows, notes, confirmed = [], [], []
    for wid, w in witnesses:
        for t in grid:
            t = float(t)
            f0 = norm_at(t, w)
            up, down = norm_at(t + h, w), norm_at(t - h, w)
            deriv = (up - down) / (2 * h)
            rows.append((t, wid, f0, deriv))
            if deriv > tau_slope and up - down > ROUNDING * len(w) * max(abs(up), abs(down)):
                confirmed.append((deriv, t, wid))
        if confirmed and early_stop:
            notes.append("stopped at first violating witness")
            break
    if not confirmed:
        notes.append("no witness growth found; evidence of divisibility, not proof")
    return confirmed, rows, notes


def _library(fam, mode, seed=11):
    rng = np.random.default_rng(seed)
    if mode == "P":
        lib = [(f"canonical-{i}", w) for i, w in enumerate(fam.witnesses)]
        return lib + default_witnesses(fam.d, rng)
    lib = [(f"canonical-{i}", w) for i, w in enumerate(fam.cp_witnesses)]
    return lib + default_witnesses(fam.d * fam.d, rng, n_proj=10, n_herm=10, pair_cap=60)


def _late_violator_witnesses(n, mode):
    """Schur witnesses whose first violation is the fifth witness, in the
    middle of the third early-stop chunk (witnesses 3..6), followed by a
    steeper one that early stop must not reach."""
    dim = n if mode == "P" else n * n
    growing = hopping_witness(n) if mode == "P" else cp_block_witness(n)
    flat = []
    for i, j in ((0, 1), (1, 2), (2, 3), (0, 3)):
        e = np.zeros(dim)
        e[i], e[j] = 1.0, -1.0
        flat.append((f"diag({i}-{j})", np.diag(e)))
    return flat + [("grows", growing), ("grows-twice", 2.0 * growing), ("diag-tail", flat[0][1])]


def _block_sparse_witnesses(d, mode):
    """CP witnesses kron((E_ab + E_ba)/2, H), kron(E_aa, H) for a = b, whose
    nonzero d x d blocks lie in block rows and columns {1, 2} only, so the
    CP scan applies I_2 (x) Lambda to a cut stack. H is in turn the hopping
    matrix (which grows under the Schur family), a complex and a real
    random Hermitian matrix. P mode takes the H alone."""
    rng = np.random.default_rng(12)
    hs = [("hop", hopping_witness(d)), ("herm", random_hermitian(d, rng)), ("real", random_hermitian(d, rng).real)]
    if mode == "P":
        return hs
    out = []
    for (a, b), (name, h) in zip([(2, 2), (1, 2), (1, 1)], hs):
        e = np.zeros((d, d))
        e[a, b] = e[b, a] = 1.0 if a == b else 0.5
        out.append((f"kron(E{a}{b},{name})", np.kron(e, h)))
    return out


EQUIVALENCE_CASES = {
    "generic-noncp": (generic_noncp_family, np.linspace(0.1, 0.9, 5), None),
    "idempotent-p-not-cp": (
        lambda: idempotent_family_preset("idempotent-p-not-cp", n=2, k=2),
        np.linspace(0.05, 0.95, 5),
        None,
    ),
    "schur-4": (lambda: make_schur_family(4), np.linspace(0.05, 0.45, 5), None),
    "schur-4-late-violator": (lambda: make_schur_family(4), np.linspace(0.05, 0.45, 5), _late_violator_witnesses),
    "schur-4-block-sparse": (lambda: make_schur_family(4), np.linspace(0.05, 0.45, 5), _block_sparse_witnesses),
    "idempotent-p-not-cp-block-sparse": (
        lambda: idempotent_family_preset("idempotent-p-not-cp", n=2, k=2),
        np.linspace(0.05, 0.95, 5),
        _block_sparse_witnesses,
    ),
}


@pytest.mark.parametrize("early_stop", [True, False])
@pytest.mark.parametrize("mode", ["P", "CP"])
@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_batched_engine_matches_witness_by_witness_reference(case, mode, early_stop):
    build, grid, witness_fn = EQUIVALENCE_CASES[case]
    fam = build()
    h = 1e-4 * (fam.t_domain[1] - fam.t_domain[0])
    witnesses = _library(fam, mode) if witness_fn is None else witness_fn(fam.d, mode)
    scan = p_divisibility_scan if mode == "P" else cp_divisibility_scan
    report = scan(fam, grid=grid, h=h, witnesses=witnesses, early_stop=early_stop)
    confirmed, rows, notes = reference_scan(fam, grid, h, witnesses, 1e-6, mode, early_stop)

    assert report.notes == notes
    assert [(t, wid) for t, wid, _, _ in report.rows] == [(t, wid) for t, wid, _, _ in rows]
    got = np.array([(v, d) for _, _, v, d in report.rows]).reshape(-1, 2)
    want = np.array([(v, d) for _, _, v, d in rows]).reshape(-1, 2)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-9
    if not confirmed:
        assert report.verdict == ("P_EVIDENCE" if mode == "P" else "CP_EVIDENCE")
        assert report.witness_id is None and report.witness_t is None
        return
    assert report.verdict == ("NOT_P_DIVISIBLE" if mode == "P" else "NOT_CP_DIVISIBLE")
    top = max(d for d, _, _ in confirmed)
    assert abs(report.derivative - top) <= 1e-9
    # the pick is the reference's first maximum; slopes tied with it to
    # within 1e-9 differ by rounding alone, so any of them may win
    ties = [(wid, t) for d, t, wid in confirmed if d >= top - 1e-9]
    assert (report.witness_id, report.witness_t) in ties
    if witness_fn is _late_violator_witnesses:
        assert report.witness_id == ("grows" if early_stop else "grows-twice")


# a real Kraus map, a real Kraus map with a CP witness, and a complex one
MIXED_FAMILIES = {
    "schur-3": lambda: make_schur_family(3),
    "generic-noncp": generic_noncp_family,
    "unitary": unitary_family,
}


@st.composite
def _mixed_libraries(draw):
    """A small library whose real and complex rows interleave: a random
    real/complex mask over random Hermitian rows (a real row is the real
    part of one), with the family's canonical witnesses inserted at random
    places so that some rows grow."""
    fam = MIXED_FAMILIES[draw(st.sampled_from(sorted(MIXED_FAMILIES)))]()
    mode = draw(st.sampled_from(["P", "CP"]))
    dim = fam.d if mode == "P" else fam.d * fam.d
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    witnesses = []
    for i, real in enumerate(draw(st.lists(st.booleans(), min_size=2, max_size=6))):
        w = random_hermitian(dim, rng)
        witnesses.append((f"real-{i}", w.real) if real else (f"complex-{i}", w))
    for i, w in enumerate(fam.witnesses if mode == "P" else fam.cp_witnesses):
        witnesses.insert(draw(st.integers(0, len(witnesses))), (f"canonical-{i}", w))
    return fam, mode, witnesses


@settings(max_examples=40)
@given(_mixed_libraries(), st.booleans())
def test_split_by_dtype_keeps_row_order_and_matches_the_complex_reference(case, early_stop):
    """The engine splits each stack into its real and its complex rows; the
    rows come back in library order, and values, slopes and the pick match
    the witness-by-witness reference run on all-complex casts."""
    fam, mode, witnesses = case
    lo, hi = fam.t_domain
    grid = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 3)
    h = 1e-4 * (hi - lo)
    scan = p_divisibility_scan if mode == "P" else cp_divisibility_scan
    report = scan(fam, grid=grid, h=h, witnesses=witnesses, early_stop=early_stop)
    as_complex = [(wid, np.asarray(w, dtype=complex)) for wid, w in witnesses]
    confirmed, rows, notes = reference_scan(fam, grid, h, as_complex, 1e-6, mode, early_stop)

    assert report.notes == notes
    assert [(t, wid) for t, wid, _, _ in report.rows] == [(t, wid) for t, wid, _, _ in rows]
    got = np.array([(v, d) for _, _, v, d in report.rows])
    want = np.array([(v, d) for _, _, v, d in rows])
    assert np.max(np.abs(got - want)) <= 1e-9
    if not confirmed:
        assert report.witness_id is None and report.witness_t is None
        return
    top = max(d for d, _, _ in confirmed)
    assert abs(report.derivative - top) <= 1e-9
    # slopes within 1e-9 of the top differ by rounding alone (the canonical
    # Schur witness's slope is constant in t), so any of them may win
    ties = [(wid, t) for d, t, wid in confirmed if d >= top - 1e-9]
    assert any(wid == report.witness_id and abs(t - report.witness_t) <= 1e-9 for wid, t in ties)


KINK_GRID, KINK_H = np.array([0.2, 0.4, 0.6, 0.8]), 0.01


def _kinked_dephasing(built=None):
    """Dephasing X -> diag(X) + c(t) offdiag(X) on C^2, so sigma_x has trace
    norm 2 c(t), with c piecewise linear: flat up to 0.205, then steep, so
    the norm rises over (0.19, 0.21) with slope 5.56; slope 1 through
    t=0.4 (norm slope 2); flat up to 0.605, then gentle, so t=0.6 flags
    0.263. Each member's t goes to built."""

    def channel_at(t):
        if built is not None:
            built.append(t)
        c = np.interp(t, [0.0, 0.205, 0.25, 0.35, 0.45, 0.605, 0.7, 1.0], [0.1, 0.1, 0.6, 0.6, 0.7, 0.7, 0.75, 0.75])
        return super_channel(np.diag([1.0, c, c, 1.0]), 2)

    return DynamicalFamily(d=2, t_domain=(0.0, 1.0), channel_at=channel_at, name="kinked")


KINK_LIBRARY = [("x", np.array([[0.0, 1.0], [1.0, 0.0]])), ("z", np.diag([1.0, -1.0]))]


@pytest.mark.parametrize("early_stop", [True, False])
def test_largest_flagged_slope_is_the_pick_and_no_slope_is_noted(early_stop):
    """The norm of x rises over (0.19, 0.21), which alone proves NOT, so the
    largest flagged slope (t=0.2, across a kink of c) is the pick, and no
    note names a slope."""
    report = p_divisibility_scan(_kinked_dephasing(), grid=KINK_GRID, h=KINK_H, witnesses=KINK_LIBRARY,
                                 early_stop=early_stop)
    slopes = {t: d for t, wid, _, d in report.rows if wid == "x"}
    assert slopes[0.2] > slopes[0.4] > slopes[0.6] > 1e-6 >= slopes[0.8]
    assert report.verdict == "NOT_P_DIVISIBLE"
    assert (report.witness_id, report.witness_t) == ("x", 0.2)
    assert report.derivative == slopes[0.2] and abs(report.derivative - 50 / 9) <= 1e-9
    assert report.notes == (["stopped at first violating witness"] if early_stop else [])


@pytest.mark.parametrize("early_stop", [True, False])
def test_scan_builds_only_its_stencil_members(early_stop):
    """The scan builds the members at t and t +/- h of each grid point and
    no other: 12 on the kinked family. Without early stop the flat witness
    z is read too, in the same stack, but early stop ends the scan at x."""
    built = []
    report = p_divisibility_scan(_kinked_dephasing(built), grid=KINK_GRID, h=KINK_H, witnesses=KINK_LIBRARY,
                                 early_stop=early_stop)
    assert sorted(built) == sorted(t + s for t in KINK_GRID.tolist() for s in (-KINK_H, 0.0, KINK_H))
    assert [wid for _, wid, _, _ in report.rows[:: len(KINK_GRID)]] == (["x"] if early_stop else ["x", "z"])


@pytest.mark.parametrize("early_stop", [True, False])
def test_equal_slopes_pick_the_first_witness_then_the_first_time(early_stop):
    """The hopping witness twice under the Schur family: each time gives the
    two the same slope bit for bit, and the slope is constant in t up to
    rounding. The pick is the first largest slope in (witness, t) order:
    hop-a at the first t that reaches the maximum. A flat witness first puts
    both in the second early-stop chunk."""
    fam = make_schur_family(4)
    flat = np.diag([1.0, -1.0, 0.0, 0.0])
    hop = hopping_witness(4)
    library = [("flat", flat), ("hop-a", hop), ("hop-b", hop.copy())]
    report = p_divisibility_scan(fam, grid=np.linspace(0.05, 0.45, 21), h=5e-5, witnesses=library,
                                 early_stop=early_stop)
    slopes = {wid: [d for _, w, _, d in report.rows if w == wid] for wid in ("hop-a", "hop-b")}
    if not early_stop:
        assert slopes["hop-a"] == slopes["hop-b"]
    top = max(slopes["hop-a"])
    first = next(t for t, wid, _, d in report.rows if wid == "hop-a" and d == top)
    assert (report.witness_id, report.witness_t, report.derivative) == ("hop-a", first, top)
    assert [wid for _, wid, _, _ in report.rows[::21]] == ["flat", "hop-a"] + ([] if early_stop else ["hop-b"])


@pytest.mark.parametrize("early_stop", [True, False])
@pytest.mark.parametrize("mode", ["P", "CP"])
def test_schur_scan_builds_three_members_per_grid_point(monkeypatch, mode, early_stop):
    """Every grid point of the Schur n=8 preset flags its canonical witness,
    the pick: the scan builds the three stencil members of its 41 grid
    points, 123 members, and no other."""
    fam = make_schur_family(8)
    builds = []
    channel = DynamicalFamily.channel
    monkeypatch.setattr(DynamicalFamily, "channel", lambda self, t: builds.append(t) or channel(self, t))
    scan = p_divisibility_scan if mode == "P" else cp_divisibility_scan
    report = scan(fam, grid=np.linspace(0.05, 0.45, 41), h=STENCIL_WIDTH * 0.5, early_stop=early_stop)
    monkeypatch.undo()
    assert report.witness_id == "canonical-0"
    assert len(builds) == 3 * 41


# family builder, and whether the family is divisible
NOISE_FAMILIES = {
    "unitary": (unitary_family, True),
    "idempotent-cp": (FAMILY_PRESETS["idempotent-cp"]["build"], True),
    "generic-noncp": (generic_noncp_family, False),
    "schur-4": (lambda: make_schur_family(4), False),
}


@pytest.mark.parametrize("scan", [p_divisibility_scan, cp_divisibility_scan])
@pytest.mark.parametrize("case", sorted(NOISE_FAMILIES))
def test_verdict_does_not_depend_on_a_tiny_h(case, scan):
    """At h = 1e-12 or 1e-10 the stencil values of a divisible family differ
    by rounding alone, which can exceed tau_slope x 2h; the scan flags only
    a rise above the rounding bound, so unitary and idempotent-cp give
    EVIDENCE at every h, as generic-noncp and Schur n=4 give NOT."""
    build, divisible = NOISE_FAMILIES[case]
    fam = build()
    lo, hi = fam.t_domain
    grid = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 19)
    verdicts = {
        (seed, h): scan(fam, grid=grid, h=h, seed=seed).verdict
        for seed in (11, 12, 13)
        for h in (1e-12, 1e-10, 1e-8, 1e-6)
    }
    assert {v.endswith("_EVIDENCE") for v in verdicts.values()} == {divisible}, verdicts


def _skewing_family():
    """Super-only X -> A X: TP-free and not Hermiticity preserving."""
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    ch = super_channel(np.kron(np.eye(2), a), 2)
    return DynamicalFamily(d=2, t_domain=(0.0, 1.0), channel_at=lambda t: ch, name="skew")


@pytest.mark.parametrize("scan", [p_divisibility_scan, cp_divisibility_scan])
def test_non_hermiticity_preserving_channel_raises_typed_error(scan):
    with pytest.raises(NonHermitianInput):
        scan(_skewing_family(), grid=np.linspace(0.2, 0.8, 3), h=1e-4)


@pytest.mark.parametrize("scan", [p_divisibility_scan, cp_divisibility_scan])
def test_non_hp_map_raises_even_where_the_images_are_hermitian(scan):
    """X -> X + i(X - X^T) is TP but not Hermiticity preserving, yet it maps
    every real diagonal witness (and, blockwise, every real diagonal
    doubled-space witness) to itself. The scan reads the map, not its
    images, so it raises NonHermitianInput naming t."""
    d = 3
    s = np.eye(d * d) + 1j * (np.eye(d * d) - transpose_channel(d).super)
    ch = super_channel(s, d)
    fam = DynamicalFamily(d=d, t_domain=(0.0, 1.0), channel_at=lambda t: ch, name="i-skew")
    dim = d if scan is p_divisibility_scan else d * d
    witnesses = [("diag", np.diag(np.linspace(-1.0, 1.0, dim))), ("e0", np.diag(np.eye(dim)[0]))]
    assert np.array_equal(ch.apply(np.diag([1.0, 2.0, -3.0])), np.diag([1.0, 2.0, -3.0]))
    with pytest.raises(NonHermitianInput, match="t=0.2"):
        scan(fam, grid=np.linspace(0.2, 0.8, 3), h=1e-4, witnesses=witnesses)


def test_non_hp_member_raises_non_hermitian_input_in_every_consumer():
    """X -> X + i(X - X^T) on C^3 is TP but not Hermiticity preserving (HP
    deviation 2.0), so the trace-norm criterion says nothing about it.
    DynamicalFamily.channel checks every member, so the validation of
    make_dynamical_family, the kernel inclusion test and the intermediate
    map each raise NonHermitianInput naming t, as the scans do, rather
    than accept it as CP."""
    d = 3
    ch = super_channel(np.eye(d * d) + 1j * (np.eye(d * d) - transpose_channel(d).super), d)
    assert ch.hp_deviation() == 2.0 and ch.is_tp()
    with pytest.raises(NonHermitianInput, match="t=0.0 is not Hermiticity preserving"):
        make_dynamical_family(lambda t: ch, d=d, t_domain=(0.0, 1.0), name="i-skew")
    fam = DynamicalFamily(d=d, t_domain=(0.0, 1.0), channel_at=lambda t: ch, name="i-skew")
    for consumer in (kernel_inclusion_divisible, kernel_inclusion_report, intermediate_map):
        with pytest.raises(NonHermitianInput, match="t=0.2 is not Hermiticity preserving") as err:
            consumer(fam, 0.2, 0.7)
        assert err.value.t == 0.2


@pytest.mark.parametrize("scan", [p_divisibility_scan, cp_divisibility_scan])
def test_member_that_is_nan_at_one_stencil_point_raises_invalid_family(scan):
    """A superoperator-only family that is NaN near t = 0.33 passes the
    21-point validation grid, which misses that point, but the scan reaches
    it as the stencil point 0.3 + h and raises InvalidFamily naming it,
    rather than giving evidence from NaN slopes."""
    d = 2
    mix = np.outer(vec(np.eye(d)), vec(np.eye(d))) / d

    def member(t):
        s = (1 - t) * np.eye(d * d) + t * mix
        return super_channel(np.full_like(s, np.nan) if abs(t - 0.33) < 1e-9 else s, d)

    fam = make_dynamical_family(member, d=d, t_domain=(0.0, 1.0), name="nan-at-0.33")
    with pytest.raises(InvalidFamily, match="t=0.33") as err:
        scan(fam, grid=np.linspace(0.1, 0.9, 9), h=0.03)
    assert abs(err.value.t - 0.33) < 1e-9


def test_non_finite_member_raises_invalid_family_in_every_consumer():
    """A superoperator-only family that is NaN for t > 0.5, and one whose
    channel_at returns a bare array for t > 0.5: the kernel inclusion test,
    the intermediate map and both scans reach the bad member through
    DynamicalFamily.channel, which raises InvalidFamily naming t rather
    than letting numpy's SVD raise LinAlgError, or the read of ch.d raise
    AttributeError; so does the validation of make_dynamical_family, at
    its first grid point past 0.5."""
    d = 2
    mix = np.outer(vec(np.eye(d)), vec(np.eye(d))) / d

    def nan_member(t):
        s = (1 - t) * np.eye(d * d) + t * mix
        return super_channel(np.full_like(s, np.nan) if t > 0.5 else s, d)

    def array_member(t):
        s = (1 - t) * np.eye(d * d) + t * mix
        return s if t > 0.5 else super_channel(s, d)

    for member, what in ((nan_member, "non-finite superoperator"), (array_member, "gave a ndarray, not a Channel,")):
        fam = DynamicalFamily(d=d, t_domain=(0.0, 1.0), channel_at=member, name="bad-after-0.5")
        for consumer, s, t in ((kernel_inclusion_divisible, 0.2, 0.7), (kernel_inclusion_report, 0.2, 0.7),
                               (intermediate_map, 0.7, 0.8)):
            with pytest.raises(InvalidFamily, match=f"{what} at t=0.7") as err:
                consumer(fam, s, t)
            assert err.value.t == 0.7
        for scan in (p_divisibility_scan, cp_divisibility_scan):
            with pytest.raises(InvalidFamily, match=f"{what} at t=0.7") as err:
                scan(fam, grid=[0.45], h=0.25, early_stop=False)
            assert err.value.t == 0.7
        assert kernel_inclusion_divisible(fam, 0.2, 0.4)
        with pytest.raises(InvalidFamily, match=f"{what} at t=0.55") as err:
            make_dynamical_family(member, d=d, t_domain=(0.0, 1.0), name="bad-after-0.5")
        assert err.value.t == 0.55
    with pytest.raises(InvalidFamily, match="gave a ndarray, not a Channel, at t=0.0") as err:
        make_dynamical_family(lambda t: np.eye(4), 2, (0, 1))
    assert err.value.t == 0.0


@pytest.mark.parametrize("mode", ["P", "CP"])
def test_zero_witness_alone_in_its_chunk_gives_rows_of_norm_zero(mode):
    """With early stop the first witness is a chunk of its own; a zero
    witness cuts that stack to no blocks at all (shape (1, 0, 0), in P mode
    as in CP), and its rows read norm 0 and slope 0. The growing witness
    after it still gives the reference's verdict, rows and notes."""
    fam = make_schur_family(4)
    dim = fam.d if mode == "P" else fam.d * fam.d
    zero = np.zeros((dim, dim))
    assert divscan.divisibility._nonzero_blocks(zero[None], fam.d).shape == (1, 0, 0)
    grows = hopping_witness(4) if mode == "P" else cp_block_witness(4)
    witnesses = [("zero", zero), ("grows", grows)]
    grid = np.linspace(0.05, 0.45, 5)
    scan = p_divisibility_scan if mode == "P" else cp_divisibility_scan
    report = scan(fam, grid=grid, h=1e-4, witnesses=witnesses)
    zero_rows = [row for row in report.rows if row[1] == "zero"]
    assert len(zero_rows) == len(grid) and all(row[2:] == (0.0, 0.0) for row in zero_rows)
    assert report.verdict == f"NOT_{mode}_DIVISIBLE" and report.witness_id == "grows"
    _, rows, notes = reference_scan(fam, grid, 1e-4, witnesses, 1e-6, mode, True)
    assert report.notes == notes
    assert [row[:2] for row in report.rows] == [row[:2] for row in rows]
    got = np.array([row[2:] for row in report.rows])
    assert np.max(np.abs(got - np.array([row[2:] for row in rows]))) <= 1e-9


@pytest.mark.parametrize("early_stop", [True, False])
@pytest.mark.parametrize("scan, dim", [(p_divisibility_scan, 4), (cp_divisibility_scan, 16)])
def test_non_finite_witness_raises_non_hermitian_input(scan, dim, early_stop):
    """A witness with a NaN off-diagonal entry, or an infinite one, fails
    the witness check as its chunk is stacked, with NonHermitianInput
    rather than numpy's LinAlgError."""
    fam = unitary_family()
    good = np.diag([1.0] + [0.0] * (dim - 2) + [-1.0])
    for value in (np.nan, np.inf):
        bad = good.copy()
        bad[0, 1] = bad[1, 0] = value
        with pytest.raises(NonHermitianInput):
            scan(fam, grid=np.linspace(0.2, 1.8, 3), h=1e-4, witnesses=[("bad", bad), ("good", good)],
                 early_stop=early_stop)


@pytest.mark.parametrize("early_stop", [True, False])
@pytest.mark.parametrize("mode", ["P", "CP"])
def test_scan_checks_each_input_once(monkeypatch, mode, early_stop):
    """Hermiticity is checked once per input: require_hermitian runs once
    per chunk of witnesses and never on an image, and each member the scan
    reads (one per stencil time of a chunk) takes the one hp_deviation test
    of DynamicalFamily.channel."""
    fam = idempotent_family_preset("idempotent-p-not-cp", n=2, k=2)
    witnesses = _library(fam, mode)
    calls = dict.fromkeys(["require_hermitian", "hp_deviation", "channel", "_apply"], 0)

    def counted(owner, name):
        orig = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner in (divscan.operators, divscan.divisibility):
        counted(owner, "require_hermitian")
    counted(divscan.channels.Channel, "hp_deviation")
    counted(DynamicalFamily, "channel")
    counted(divscan.divisibility, "_apply")
    scan = p_divisibility_scan if mode == "P" else cp_divisibility_scan
    grid = np.linspace(0.05, 0.95, 5)
    report = scan(fam, grid=grid, h=1e-4, witnesses=witnesses, early_stop=early_stop)
    monkeypatch.undo()

    scanned = len(report.rows) // len(grid)
    # slices of 1, 2, 4, ... with early stop: k of them hold 2^k - 1 witnesses
    chunks = scanned.bit_length() if early_stop else 1
    assert calls["require_hermitian"] == chunks
    assert calls["hp_deviation"] == calls["channel"] >= 3 * len(grid) * chunks
    assert calls["_apply"] >= calls["channel"]


@pytest.mark.parametrize("early_stop", [True, False])
@pytest.mark.parametrize("scan, dim", [(p_divisibility_scan, 4), (cp_divisibility_scan, 16)])
def test_witness_of_wrong_shape_raises_dimension_mismatch(scan, dim, early_stop):
    fam = unitary_family()
    good = np.diag([1.0] + [0.0] * (dim - 2) + [-1.0])
    for bad in (np.eye(dim + 1), np.eye(dim)[:, :-1], np.zeros(dim)):
        with pytest.raises(DimensionMismatch):
            scan(fam, grid=np.linspace(0.2, 1.8, 3), h=1e-4,
                 witnesses=[("good", good), ("bad", bad)], early_stop=early_stop)


@pytest.mark.parametrize("mode", ["P", "CP"])
def test_one_shot_library_gives_the_report_of_its_list(monkeypatch, mode):
    """A caller's library is listed before the scan reads it, so a one-shot
    iterator gives the report its list gives, and a bad shape anywhere in
    it raises DimensionMismatch before the first row, even behind the
    witness where early stop ends the scan."""
    fam = make_schur_family(4)
    witnesses = _late_violator_witnesses(4, mode)
    dim = fam.d if mode == "P" else fam.d * fam.d
    scan = p_divisibility_scan if mode == "P" else cp_divisibility_scan
    grid = np.linspace(0.05, 0.45, 5)
    listed = scan(fam, grid=grid, h=1e-4, witnesses=witnesses)
    streamed = scan(fam, grid=grid, h=1e-4, witnesses=iter(witnesses))
    assert listed.verdict == f"NOT_{mode}_DIVISIBLE" and listed.witness_id == "grows"
    assert streamed.to_json() == listed.to_json() and streamed.rows == listed.rows
    members = []
    monkeypatch.setattr(DynamicalFamily, "channel", lambda self, t: members.append(t))
    with pytest.raises(DimensionMismatch):
        scan(fam, grid=grid, h=1e-4, witnesses=iter(witnesses + [("bad", np.eye(dim + 1))]))
    assert members == []


def _cp_scan_peak_bytes(points):
    fam = make_schur_family(6)
    rng = np.random.default_rng(3)
    witnesses = [("canonical", cp_block_witness(6))]
    witnesses += [(f"herm-{i}", random_hermitian(36, rng)) for i in range(3)]
    grid = np.linspace(0.05, 0.45, points)
    tracemalloc.start()
    try:
        cp_divisibility_scan(fam, grid=grid, h=1e-5, witnesses=witnesses, early_stop=False)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cp_scan_memory_does_not_grow_with_grid_length():
    _cp_scan_peak_bytes(3)  # first-call allocations stay out of the comparison
    short, long = _cp_scan_peak_bytes(5), _cp_scan_peak_bytes(41)
    assert long <= 1.5 * short, (short, long)


def test_preset_cp_witness_is_pulled_back_blockwise_in_small_memory():
    """The idempotent-p-not-cp witness pulls v v* back through
    (I (x) Lambda_s)^{-1} blockwise; building that extension as a
    d^4 x d^4 matrix peaked at 77 MiB for n=3, k=2. The built extension
    stays the reference for the witness itself."""
    n, k = 3, 2
    tracemalloc.start()
    try:
        fam = idempotent_family_preset("idempotent-p-not-cp", n=n, k=k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20, peak

    fns = idempotent_coeff_fns("idempotent-p-not-cp")
    s, t = DESIGNATED_PAIR
    div = IdempotentParams(n, k, *divisor_coeffs(*fns(s), *fns(t)))
    v = np.linalg.eigh(choi(phi(div)).matrix)[1][:, 0]
    y = extend_channel(inverse(phi(IdempotentParams(n, k, *fns(s))))).apply(np.outer(v, v.conj()))
    (w,) = fam.cp_witnesses
    assert np.max(np.abs(w - (y + y.conj().T) / 2)) < 1e-12


def test_cp_schur_scan_solves_only_the_witness_block(monkeypatch):
    """The Schur CP witness kron(E00, H) maps to kron(E00, A_t o H), whose
    only nonzero block is n x n: the early-stop scan of the default library
    stops at that witness and solves nothing larger, and its rows, verdict
    and witness_t are those of the built extension with a dense eigensolve
    on the whole n^2 x n^2 image."""
    n = 6
    fam = make_schur_family(n)
    lo, hi = fam.t_domain
    h = STENCIL_WIDTH * (hi - lo)
    w = cp_block_witness(n)

    def dense_norm(tau):
        y = extend_channel(fam.channel(tau)).apply(w)
        return float(np.sum(np.abs(np.linalg.eigvalsh((y + y.conj().T) / 2))))

    rows, best = [], None
    for t in np.linspace(lo + h, hi - h, 51).tolist():
        deriv = (dense_norm(t + h) - dense_norm(t - h)) / (2 * h)
        rows.append((t, dense_norm(t), deriv))
        if deriv > 1e-6 and (best is None or deriv > best[0]):
            best = (deriv, t)

    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def logged(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(divscan.operators.np.linalg, "eigvalsh", logged)
    report = cp_divisibility_scan(fam)  # draws no random witness, whose normalization would log a solve
    monkeypatch.undo()

    assert shapes and max(shape[-1] for shape in shapes) <= n
    assert report.verdict == "NOT_CP_DIVISIBLE" and report.witness_id == "canonical-0"
    assert report.witness_t == best[1]
    assert [(t, wid) for t, wid, _, _ in report.rows] == [(t, "canonical-0") for t, _, _ in rows]
    got = np.array([(v, d) for _, _, v, d in report.rows])
    want = np.array([(v, d) for _, v, d in rows])
    assert np.max(np.abs(got - want)) <= 1e-12


def test_early_stopped_cp_scan_holds_only_the_witnesses_it_reads():
    """The default library is drawn chunk by chunk as the scan reads it: the
    early-stopped CP scan of make_schur_family(16) stops at its canonical
    witness and never draws the 80 default witnesses of 256 x 256, which
    drawn whole before the first chunk peaked at 52.3 MiB."""
    fam = make_schur_family(16)
    tracemalloc.start()
    try:
        report = cp_divisibility_scan(fam, grid=np.linspace(0.05, 0.45, 9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.witness_id == "canonical-0"
    assert peak < 8 * 2**20, peak


def test_default_library_is_drawn_only_as_the_scan_reads_it(monkeypatch):
    """A CP scan of the Schur preset stops at its canonical witness and draws
    no random witness; a P_EVIDENCE scan of idempotent-cp reads the whole
    library and draws each of its 40 random witnesses once."""
    fam = idempotent_family_preset("idempotent-cp", n=2, k=2)
    library = _library(fam, "P")  # drawn here, before the count
    draws = []

    def counted(name):
        orig = getattr(divscan.divisibility, name)

        def wrapper(*args, **kwargs):
            draws.append(name)
            return orig(*args, **kwargs)

        monkeypatch.setattr(divscan.divisibility, name, wrapper)

    counted("random_hermitian")
    counted("random_projector_difference")
    report = cp_divisibility_scan(make_schur_family(8), grid=np.linspace(0.05, 0.45, 9))
    assert report.witness_id == "canonical-0" and draws == []

    grid = np.linspace(0.05, 0.95, 3)
    report = p_divisibility_scan(fam, grid=grid)
    assert report.verdict == "P_EVIDENCE"
    assert [wid for _, wid, _, _ in report.rows[:: len(grid)]] == [wid for wid, _ in library]
    assert sorted(draws) == ["random_hermitian"] * 20 + ["random_projector_difference"] * 20


def test_cp_scan_stopping_at_a_canonical_witness_never_imports_numpy_random():
    """The random generator is created at the first random draw, so a scan
    that stops inside the canonical witnesses does not load numpy.random."""
    code = (
        "import sys, numpy as np\n"
        "from divscan.divisibility import cp_divisibility_scan\n"
        "from divscan.schur import make_schur_family\n"
        "report = cp_divisibility_scan(make_schur_family(4), grid=np.linspace(0.05, 0.45, 3))\n"
        "print(report.witness_id, 'numpy.random' in sys.modules)\n"
    )
    src = str(Path(divscan.divisibility.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["canonical-0", "False"]


@pytest.mark.parametrize("preset", sorted(FAMILY_PRESETS))
def test_default_library_scan_equals_the_explicit_library_scan(preset):
    """witnesses=None draws the library lazily, chunk by chunk; its rows,
    verdict, witness id and witness_t are those of a scan given the same
    library built whole by default_witnesses, in both modes, with and
    without early stop, for seeds 11-15."""
    entry = FAMILY_PRESETS[preset]
    fam = entry["build"]()
    lo, hi, _ = entry["default_grid"]
    grid = np.linspace(lo, hi, 2)
    for mode, scan in (("P", p_divisibility_scan), ("CP", cp_divisibility_scan)):
        for early_stop in (True, False):
            for seed in range(11, 16):
                lazy = scan(fam, grid=grid, seed=seed, early_stop=early_stop)
                whole = scan(fam, grid=grid, witnesses=_library(fam, mode, seed), early_stop=early_stop)
                case = (mode, early_stop, seed)
                assert lazy.rows == whole.rows, case
                assert (lazy.verdict, lazy.witness_id, lazy.witness_t) == (
                    whole.verdict, whole.witness_id, whole.witness_t), case
