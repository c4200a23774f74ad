import numpy as np
import pytest

from divscan._errors import (
    DimensionMismatch,
    InvalidChannel,
    InvalidDilation,
    InvalidFamily,
    InvalidState,
    NotSymplectic,
    SingularX,
)
from divscan.gaussian import (
    GaussianFamily,
    GaussianPair,
    apply_to_covariance,
    block_r,
    compose_pairs,
    det_criterion_scan,
    det_x,
    dilation_channel,
    dilation_report,
    is_symplectic,
    is_valid_state,
    jmat,
    make_gaussian_family,
    make_pair,
    planar_rotation,
    random_symplectic,
    squeeze_diag,
    symplectic_deviation,
)
from divscan.presets import GAUSSIAN_PRESETS, gaussian_pair_at


def dilation_2x1(t):
    return gaussian_pair_at("dilation-2x1", t)


def printed_l_2x1(t):
    # frozen closed form of the reconstructed 4x4 dilation matrix (qqpp order)
    u = 1.0 / t
    return np.array(
        [
            [1 + u, 1 - u, 1 + u, -1 + u],
            [t + 1, t - 1, -t - 1, t - 1],
            [-t - 1, -t + 1, t + 1, -t + 1],
            [1 + u, 1 - u, 1 + u, -1 + u],
        ]
    ) / (2 * np.sqrt(2))


def test_jmat_and_symplectic_basics():
    j = jmat(2)
    assert np.array_equal(j, np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]))
    assert is_symplectic(np.eye(4))
    assert is_symplectic(squeeze_diag([2.0, 0.5]))
    assert not is_symplectic(np.diag([2.0, 2.0, 2.0, 2.0]))
    with pytest.raises(DimensionMismatch):
        symplectic_deviation(np.eye(3))


def test_rotations_and_products_stay_symplectic():
    rng = np.random.default_rng(60)
    r = planar_rotation(2, 0, 1, 0.7)
    assert is_symplectic(r)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        assert is_symplectic(random_symplectic(m, rng) @ random_symplectic(m, rng))


def test_symplectic_inverse_via_j_conjugation():
    rng = np.random.default_rng(61)
    r = random_symplectic(2, rng)
    j = jmat(2)
    rinv = -j @ r.T @ j
    assert np.max(np.abs(r @ rinv - np.eye(4))) < 1e-9


def test_make_pair_guards():
    with pytest.raises(DimensionMismatch):
        make_pair(np.eye(3), np.eye(3))
    with pytest.raises(InvalidChannel):
        make_pair(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
    # X = 2I needs Y to cover the squeezing gap; Y = 0 violates validity
    with pytest.raises(InvalidChannel):
        make_pair(2.0 * np.eye(2), np.zeros((2, 2)))


def test_identity_pair_leaves_states_alone():
    pair = make_pair(np.eye(2), np.zeros((2, 2)))
    s = 0.5 * np.eye(2)
    assert np.max(np.abs(apply_to_covariance(pair, s) - s)) < 1e-15


def test_attenuator_preserves_state_validity():
    """X = sqrt(eta) I with Y = (1-eta) I is a valid channel on the vacuum."""
    eta = 0.36
    pair = make_pair(np.sqrt(eta) * np.eye(2), (1 - eta) * np.eye(2))
    out = apply_to_covariance(pair, 0.5 * np.eye(2))
    assert is_valid_state(out)


def test_apply_rejects_invalid_state():
    pair = make_pair(np.eye(2), np.zeros((2, 2)))
    with pytest.raises(InvalidState):
        apply_to_covariance(pair, 0.1 * np.eye(2))  # below the uncertainty floor


def test_state_validity_threshold():
    assert is_valid_state(0.5 * np.eye(2))
    assert not is_valid_state(0.49 * np.eye(2))


def test_full_keep_dilation_is_symplectic_conjugation():
    rng = np.random.default_rng(62)
    r1, r2 = random_symplectic(2, rng), random_symplectic(2, rng)
    t = squeeze_diag([1.0, 2.0])
    rep = dilation_report(r1, t, r2, m_keep=2)
    pair = rep["pair"]
    assert np.max(np.abs(pair.y)) == 0.0
    assert is_symplectic(pair.x)
    assert abs(np.linalg.det(pair.x) - 1.0) < 1e-9
    assert rep["pair_valid"]


def test_identity_dilation_keep_one_is_identity_channel():
    rep = dilation_report(np.eye(4), np.eye(4), np.eye(4), m_keep=1)
    assert np.max(np.abs(rep["pair"].x - np.eye(2))) < 1e-15
    assert np.max(np.abs(rep["pair"].y)) < 1e-15


def test_dilation_report_flags_but_never_raises():
    rep = dilation_2x1(2.0)
    assert rep["symplectic"]["R1"] is False
    assert rep["symplectic"]["T"] is True
    assert rep["symplectic"]["R2"] is True
    assert rep["deviations"]["R1"] > 0.1


def test_strict_dilation_names_offending_factor():
    from divscan.presets import _DIL2_R1, _DIL2_R2, _dil2_t

    with pytest.raises(NotSymplectic) as err:
        dilation_channel(_DIL2_R1, _dil2_t(2.0), _DIL2_R2, m_keep=1)
    assert err.value.factor == "R1"
    assert err.value.deviation > 0.1


def test_strict_dilation_rejects_validity_violations():
    # symplectic inputs, but a 2-of-3 keep lands outside the checked inequality
    rng = np.random.default_rng(77)
    r1, r2 = random_symplectic(3, rng), random_symplectic(3, rng)
    t = squeeze_diag([1.0, 1.3, 0.8])
    with pytest.raises(InvalidDilation):
        dilation_channel(r1, t, r2, m_keep=2)


def test_dilation_keep_range_checked():
    with pytest.raises(DimensionMismatch):
        dilation_report(np.eye(4), np.eye(4), np.eye(4), m_keep=3)


def test_reconstructed_l_matches_frozen_closed_form():
    from divscan.presets import _DIL2_R1, _DIL2_R2, _dil2_t

    for t in (0.5, 1.0, 2.0):
        l = _DIL2_R1 @ _dil2_t(t) @ _DIL2_R2
        assert np.max(np.abs(l - printed_l_2x1(t))) < 1e-12


def test_det_x_closed_form_for_two_mode_dilation():
    fam = GaussianFamily(m=1, generator=lambda t: dilation_2x1(t)["pair"], t_domain=(0.05, 5.0), name="d21")
    for t in (0.5, 1.0, 2.0, 3.0):
        assert abs(det_x(fam, t) - (2.0 + t + 1.0 / t) / 4.0) < 1e-12


def test_det_scan_constant_family_clean():
    pair = make_pair(np.eye(2), np.eye(2))
    fam = GaussianFamily(m=1, generator=lambda t: pair, t_domain=(0.0, 2.0), name="const")
    rows = det_criterion_scan(fam, np.linspace(0.2, 1.8, 7))
    assert all(not r["violation"] for r in rows)
    assert all(abs(r["ddet"]) < 1e-6 for r in rows)


def test_det_scan_flags_growth_after_one():
    fam = GaussianFamily(m=1, generator=lambda t: dilation_2x1(t)["pair"], t_domain=(0.05, 5.0), name="d21")
    rows = det_criterion_scan(fam, np.linspace(0.5, 2.0, 16))
    for r in rows:
        assert r["violation"] == (r["t"] > 1.0 + 1e-9), r
    # derivative changes sign inside [0.99, 1.01]
    lo, hi = 0.5, 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        d = (det_x(fam, mid + 1e-6) - det_x(fam, mid - 1e-6)) / 2e-6
        if d < 0:
            lo = mid
        else:
            hi = mid
    assert 0.99 <= 0.5 * (lo + hi) <= 1.01


def test_det_scan_raises_on_singular_x():
    def gen(t):
        return make_pair((1.5 - t) * np.eye(2), np.eye(2) * 3.0, check=False)

    fam = GaussianFamily(m=1, generator=gen, t_domain=(0.0, 3.0), name="sing")
    with pytest.raises(SingularX):
        det_criterion_scan(fam, np.linspace(1.0, 2.0, 11))


def test_compose_pairs_matches_sequential_action():
    eta1, eta2 = 0.5, 0.7
    p1 = make_pair(np.sqrt(eta1) * np.eye(2), (1 - eta1) * np.eye(2))
    p2 = make_pair(np.sqrt(eta2) * np.eye(2), (1 - eta2) * np.eye(2))
    s = 0.8 * np.eye(2)
    lhs = apply_to_covariance(compose_pairs(p2, p1), s)
    rhs = apply_to_covariance(p2, apply_to_covariance(p1, s))
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert abs(np.linalg.det(compose_pairs(p2, p1).x) - eta1 * eta2) < 1e-12


def test_composition_built_family_has_nonincreasing_det():
    """Repeated composition with one fixed attenuator: divisible by design."""
    eta = 0.8
    step = make_pair(np.sqrt(eta) * np.eye(2), (1 - eta) * np.eye(2))
    pairs = [make_pair(np.eye(2), np.zeros((2, 2)))]
    for _ in range(10):
        pairs.append(compose_pairs(step, pairs[-1]))
    dets = [float(np.linalg.det(p.x)) for p in pairs]
    assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(dets, dets[1:]))


def test_make_gaussian_family_validates_grid():
    def bad(t):
        return make_pair(2.0 * np.eye(2), np.zeros((2, 2)), check=False)

    with pytest.raises(InvalidFamily):
        make_gaussian_family(bad, m=1, t_domain=(0.0, 1.0), name="bad")


def test_three_mode_preset_reports_defective_inputs():
    rep = gaussian_pair_at("dilation-3x2", 1.0)
    assert rep["symplectic"]["R1"] is False
    assert rep["symplectic"]["R2"] is False
    assert rep["symplectic"]["T"] is True
    assert rep["pair_valid"] is False
    assert rep["validity_min_eig"] < -0.1


def test_three_mode_preset_det_is_constant_in_t():
    fam = GaussianFamily(
        m=2, generator=lambda t: gaussian_pair_at("dilation-3x2", t)["pair"], t_domain=(0.05, 5.0), name="d32"
    )
    vals = [det_x(fam, t) for t in np.linspace(0.3, 2.0, 12)]
    assert max(vals) - min(vals) < 1e-9
    assert abs(vals[0] - 1.65868924781) < 1e-9


def test_gaussian_preset_registry_domains():
    for name, entry in GAUSSIAN_PRESETS.items():
        lo, hi, pts = entry["default_grid"]
        dl, dh = entry["t_domain"]
        assert dl <= lo < hi <= dh
        assert pts >= 2
