import numpy as np
import pytest

from divscan._errors import DimensionMismatch, HypothesisViolated, SingularChannel
from divscan.channels import (
    Channel,
    blockwise_extend_apply,
    channel_from_json,
    channel_to_json,
    choi,
    choi_from_super,
    compose,
    extend_channel,
    extend_super,
    inverse,
    kraus_channel,
    kraus_to_super,
    load_channel,
    positivity_by_contractivity,
    save_channel,
    stacked_apply,
    super_channel,
    transpose_channel,
)
from divscan.operators import random_hermitian, trace_norm, unvec, vec


def random_cptp(d, n_kraus, rng):
    g = rng.normal(size=(n_kraus * d, d)) + 1j * rng.normal(size=(n_kraus * d, d))
    q, _ = np.linalg.qr(g)
    return kraus_channel([q[i * d : (i + 1) * d, :] for i in range(n_kraus)])


def test_kraus_super_apply_agree():
    rng = np.random.default_rng(10)
    ch = random_cptp(3, 2, rng)
    x = random_hermitian(3, rng)
    direct = sum(k @ x @ k.conj().T for k in ch.kraus)
    via_super = unvec(ch.super @ vec(x), 3)
    assert np.max(np.abs(direct - via_super)) < 1e-12
    assert np.max(np.abs(ch.apply(x) - direct)) < 1e-12


def test_random_stinespring_channels_are_cptp():
    rng = np.random.default_rng(11)
    for _ in range(5):
        ch = random_cptp(4, 3, rng)
        assert ch.is_tp()
        assert ch.is_cp()


def test_choi_of_identity_is_maximally_entangled():
    d = 3
    ch = kraus_channel([np.eye(d)])
    c = choi(ch).matrix
    omega = np.outer(vec(np.eye(d)), vec(np.eye(d)).conj())
    assert np.max(np.abs(c - omega)) < 1e-12


def test_choi_trace_and_output_trace_for_tp():
    """TP forces Tr C = d and the partial trace over the output leg = I."""
    rng = np.random.default_rng(12)
    ch = random_cptp(3, 4, rng)
    cm = choi(ch)
    assert abs(np.trace(cm.matrix).real - 3.0) < 1e-10
    assert np.max(np.abs(cm.output_trace() - np.eye(3))) < 1e-10


def test_dephasing_choi_statement():
    # X -> (X + ZXZ)/2 on one qubit: Choi diag in Bell-adjacent basis, PSD
    z = np.diag([1.0, -1.0])
    ch = kraus_channel([np.eye(2) / np.sqrt(2), z / np.sqrt(2)])
    assert ch.is_cp() and ch.is_tp()
    ev = np.sort(np.linalg.eigvalsh(choi(ch).matrix))
    assert np.max(np.abs(ev - np.array([0.0, 0.0, 1.0, 1.0]))) < 1e-12


def test_compose_is_matrix_product_in_right_order():
    rng = np.random.default_rng(13)
    a = random_cptp(3, 2, rng)
    b = random_cptp(3, 2, rng)
    x = random_hermitian(3, rng)
    lhs = compose(a, b).apply(x)
    rhs = a.apply(b.apply(x))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_inverse_roundtrip_and_singular_report():
    rng = np.random.default_rng(14)
    # unitary conjugation is invertible
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u, _ = np.linalg.qr(g)
    ch = kraus_channel([u])
    inv = inverse(ch)
    ident = compose(ch, inv).super
    assert np.max(np.abs(ident - np.eye(9))) < 1e-10

    # full depolarizer has a 1-dimensional range
    s = np.outer(vec(np.eye(2)), vec(np.eye(2)).conj()) / 2
    with pytest.raises(SingularChannel) as err:
        inverse(super_channel(s, 2))
    assert err.value.singular_values is not None


def test_extend_super_matches_kron_kraus_route():
    rng = np.random.default_rng(15)
    ch = random_cptp(3, 2, rng)
    ext_kraus = extend_channel(ch)
    ext_super = super_channel(extend_super(ch.super, 3), 9)
    y = random_hermitian(9, rng)
    assert np.max(np.abs(ext_kraus.apply(y) - ext_super.apply(y))) < 1e-12


def test_blockwise_extension_agrees_with_extended_channel():
    rng = np.random.default_rng(16)
    ch = random_cptp(3, 3, rng)
    y = random_hermitian(9, rng)
    assert np.max(np.abs(extend_channel(ch).apply(y) - blockwise_extend_apply(ch, y))) < 1e-12


def test_stacked_apply_agrees_with_apply_and_blockwise_extension():
    rng = np.random.default_rng(17)
    ch = random_cptp(3, 2, rng)
    xs = np.stack([random_hermitian(3, rng) for _ in range(4)])
    ys = np.stack([random_hermitian(9, rng) for _ in range(4)])
    out = stacked_apply(ch.super, 3, xs)
    ext = stacked_apply(ch.super, 3, ys, extended=True)
    for x, y, o, e in zip(xs, ys, out, ext):
        assert np.max(np.abs(o - ch.apply(x))) < 1e-12
        assert np.max(np.abs(e - blockwise_extend_apply(ch, y))) < 1e-12
    with pytest.raises(DimensionMismatch):
        stacked_apply(ch.super, 3, ys)
    with pytest.raises(DimensionMismatch):
        stacked_apply(ch.super, 3, xs[0], extended=True)


def test_transpose_map_is_tp_not_cp():
    tc = transpose_channel(3)
    assert tc.is_tp()
    assert not tc.is_cp()


def test_transpose_extension_detects_negativity_on_entangled_input():
    """I (x) T applied to the maximally entangled projector goes negative."""
    d = 3
    tc = transpose_channel(d)
    omega = np.outer(vec(np.eye(d)), vec(np.eye(d)).conj()) / d
    out = blockwise_extend_apply(tc, omega)
    assert np.min(np.linalg.eigvalsh(out)) < -1e-3


def test_contractivity_probe_passes_cptp_channels():
    rng = np.random.default_rng(17)
    ch = random_cptp(3, 2, rng)
    out = positivity_by_contractivity(ch, n_samples=100, seed=3)
    assert out["positive_evidence"]
    assert out["witness"] is None
    assert out["n_checked"] == 100


def test_contractivity_probe_witnesses_nonpositive_tp_map():
    # X -> (2/3)tr(X)I - X at d=3 is TP but sends projectors negative
    d = 3
    trace_block = np.outer(vec(np.eye(d)), vec(np.eye(d)).conj())
    ch = super_channel((2.0 / d) * trace_block - np.eye(d * d), d)
    assert ch.is_tp()
    out = positivity_by_contractivity(ch, n_samples=200, seed=5)
    assert not out["positive_evidence"]
    assert out["output_norm"] > out["input_norm"] + 1e-9


def test_contractivity_probe_requires_tp():
    ch = kraus_channel([np.eye(2) * 0.5])
    with pytest.raises(HypothesisViolated):
        positivity_by_contractivity(ch)


def test_json_roundtrip_preserves_super_exactly():
    rng = np.random.default_rng(18)
    ch = random_cptp(3, 2, rng)
    back = channel_from_json(channel_to_json(ch))
    assert np.max(np.abs(back.super - ch.super)) < 1e-12
    assert back.d == 3


def test_save_load_channel(tmp_path):
    rng = np.random.default_rng(19)
    ch = random_cptp(2, 2, rng)
    p = tmp_path / "ch.json"
    save_channel(ch, p)
    back = load_channel(p)
    assert np.max(np.abs(back.super - ch.super)) < 1e-12


def test_super_only_channel_roundtrips_without_kraus():
    s = np.eye(4, dtype=complex)
    obj = channel_to_json(super_channel(s, 2))
    assert "kraus" not in obj or obj["kraus"] is None
    back = channel_from_json(obj)
    assert np.max(np.abs(back.super - s)) < 1e-15


def test_choi_from_super_block_structure():
    """Choi blocks are the images of matrix units: C[i::d, j::d]-style identity.

    Built directly from the reshape convention: C = sum_ij Phi(E_ij) (x) E_ij
    arranged so that is_cp <=> PSD.
    """
    rng = np.random.default_rng(20)
    ch = random_cptp(2, 2, rng)
    c = choi_from_super(ch.super, 2)
    d = 2
    for i in range(d):
        for j in range(d):
            eij = np.zeros((d, d), dtype=complex)
            eij[i, j] = 1.0
            img = unvec(ch.super @ vec(eij), d)
            block = c[i * d : (i + 1) * d, j * d : (j + 1) * d]
            assert np.max(np.abs(block - img)) < 1e-12
