import tracemalloc

import numpy as np
import pytest

from divscan._errors import (
    DimensionMismatch,
    DomainExceeded,
    InvalidFamily,
    NonHermitianInput,
    SingularChannel,
)
from divscan.channels import choi, compose, extend_channel, inverse, kraus_channel, super_channel
from divscan.divisibility import (
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
    generic_noncp_family,
    idempotent_coeff_fns,
    idempotent_family_preset,
    paired_difference_witness,
    unitary_family,
)
from divscan.schur import cp_block_witness, hopping_witness, make_schur_family

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
    assert all(abs(row[3]) <= 1e-6 for row in report.csv_rows())


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


def test_scan_soundness_recheck_at_finer_h():
    """A NOT verdict must survive re-evaluation at h/10 above tau/2."""
    fam = generic_noncp_family()
    report = cp_divisibility_scan(fam, grid=np.linspace(0.1, 0.9, 9), h=1e-4)
    assert report.verdict == "NOT_CP_DIVISIBLE"
    finer = central_difference(
        lambda t: _extended_norm(fam, t), report.witness_t, 1e-5
    )
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
    bad = np.eye(4, dtype=complex)
    bad[0, 0] = 2.0  # not TP

    def gen(t):
        return super_channel(bad, 2)

    with pytest.raises(InvalidFamily):
        make_dynamical_family(d=2, t_domain=(0.0, 1.0), channel_at=gen, name="bad")


def test_reports_serialize_to_json_and_csv():
    fam = generic_noncp_family()
    report = cp_divisibility_scan(fam, grid=np.linspace(0.1, 0.9, 5), h=1e-4)
    obj = report.to_json()
    assert obj["verdict"] == "NOT_CP_DIVISIBLE"
    assert obj["witness_t"] is not None
    assert obj["derivative"] is not None
    assert isinstance(obj["witness_matrix"], list)
    rows = report.csv_rows()
    assert len(rows) > 0
    assert all(len(r) == 4 for r in rows)


def reference_scan(fam, grid, h, witnesses, tau_slope, mode, early_stop):
    """Witness-by-witness reference for the batched engine: one channel (or
    extended channel) application and one trace_norm per witness and
    stencil time. Returns (confirmed, rows, notes), confirmed holding
    (deriv, t, id) for every slope that survived the h/10 re-check."""
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
            deriv = (norm_at(t + h, w) - norm_at(t - h, w)) / (2 * h)
            rows.append((t, wid, f0, deriv))
            if deriv > tau_slope:
                fine = (norm_at(t + h / 10, w) - norm_at(t - h / 10, w)) / (2 * h / 10)
                if fine > tau_slope / 2:
                    confirmed.append((deriv, t, wid))
                else:
                    notes.append(
                        f"slope {deriv:.3e} at t={t} (witness {wid}) not confirmed at h/10; ignored"
                    )
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


EQUIVALENCE_CASES = {
    "generic-noncp": (generic_noncp_family, np.linspace(0.1, 0.9, 5), None),
    "idempotent-p-not-cp": (
        lambda: idempotent_family_preset("idempotent-p-not-cp", n=2, k=2),
        np.linspace(0.05, 0.95, 5),
        None,
    ),
    "schur-4": (lambda: make_schur_family(4), np.linspace(0.05, 0.45, 5), None),
    "schur-4-late-violator": (lambda: make_schur_family(4), np.linspace(0.05, 0.45, 5), _late_violator_witnesses),
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
    if witness_fn is not None:
        assert report.witness_id == ("grows" if early_stop else "grows-twice")


def _skewing_family():
    """Super-only X -> A X: TP-free and not Hermiticity preserving."""
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    ch = super_channel(np.kron(np.eye(2), a), 2)
    return DynamicalFamily(d=2, t_domain=(0.0, 1.0), channel_at=lambda t: ch, name="skew")


@pytest.mark.parametrize("scan", [p_divisibility_scan, cp_divisibility_scan])
def test_non_hermiticity_preserving_channel_raises_typed_error(scan):
    with pytest.raises(NonHermitianInput):
        scan(_skewing_family(), grid=np.linspace(0.2, 0.8, 3), h=1e-4)


@pytest.mark.parametrize("early_stop", [True, False])
@pytest.mark.parametrize("scan, dim", [(p_divisibility_scan, 4), (cp_divisibility_scan, 16)])
def test_witness_of_wrong_shape_raises_dimension_mismatch(scan, dim, early_stop):
    fam = unitary_family()
    good = np.diag([1.0] + [0.0] * (dim - 2) + [-1.0])
    for bad in (np.eye(dim + 1), np.eye(dim)[:, :-1], np.zeros(dim)):
        with pytest.raises(DimensionMismatch):
            scan(fam, grid=np.linspace(0.2, 1.8, 3), h=1e-4,
                 witnesses=[("good", good), ("bad", bad)], early_stop=early_stop)


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
