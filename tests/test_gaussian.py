import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from divscan._errors import (
    DimensionMismatch,
    DomainExceeded,
    HypothesisViolated,
    InvalidChannel,
    InvalidFamily,
    InvalidState,
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
    dilation_report,
    is_valid_state,
    jmat,
    make_gaussian_family,
    make_pair,
    symplectic_deviation,
)
from divscan.presets import GAUSSIAN_PRESETS, gaussian_family, gaussian_pair_at

from _reference import is_symplectic, planar_rotation, random_symplectic, squeeze_diag


def dilation_2x1(t):
    return gaussian_pair_at("dilation-2x1", t)


def dilation_2x1_family():
    return GaussianFamily(m=1, generator=lambda t: dilation_2x1(t)["pair"], t_domain=(0.05, 5.0), name="d21")


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


def test_symplectic_dilations_are_valid():
    """L J L^T = J gives J - X J X^T = L12 J L12^T, so the validity matrix
    Y + i(J - X J X^T) is L12 (I + iJ) L12^T, which is PSD."""
    rng = np.random.default_rng(77)
    for m_total, m_keep in ((2, 1), (3, 1), (3, 2), (4, 2), (4, 3)):
        keep = list(range(m_keep)) + list(range(m_total, m_total + m_keep))
        env = [i for i in range(2 * m_total) if i not in keep]
        for _ in range(20):
            r1, r2 = random_symplectic(m_total, rng), random_symplectic(m_total, rng)
            t = squeeze_diag(np.exp(rng.uniform(-1.0, 1.0, size=m_total)))
            rep = dilation_report(r1, t, r2, m_keep)
            l12 = rep["L"][np.ix_(keep, env)]
            factored = l12 @ (np.eye(len(env)) + 1j * jmat(m_total - m_keep)) @ l12.T
            assert np.max(np.abs(rep["pair"].validity_matrix() - factored)) < 1e-9
            assert rep["validity_min_eig"] >= -1e-12
            assert all(rep["symplectic"].values()) and rep["pair_valid"]


def test_validity_inequality_rejects_invalid_pairs():
    """One mode, X = 2I: Y + i(J - X J X^T) = Y - 3iJ, PSD for Y = yI iff
    y >= 3. Two modes: with X^T in place of X the matrix is the complex
    conjugate of Y - i(J - X^T J X), the form the check used to apply,
    which a valid 2-of-3 dilation pair fails."""
    with pytest.raises(InvalidChannel):
        make_pair(2.0 * np.eye(2), 2.9 * np.eye(2))
    assert make_pair(2.0 * np.eye(2), 3.0 * np.eye(2)).is_valid()
    rng = np.random.default_rng(77)
    r1, r2 = random_symplectic(3, rng), random_symplectic(3, rng)
    pair = dilation_report(r1, squeeze_diag([1.0, 1.3, 0.8]), r2, m_keep=2)["pair"]
    assert make_pair(pair.x, pair.y).is_valid()
    with pytest.raises(InvalidChannel):
        make_pair(pair.x.T, pair.y)


@st.composite
def _dilation_inputs(draw):
    m_total = draw(st.sampled_from([2, 3, 4]))
    m_keep = draw(st.integers(1, m_total - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    squeeze = draw(st.lists(st.floats(-1.0, 1.0), min_size=m_total, max_size=m_total))
    return rng, m_total, m_keep, squeeze_diag(np.exp(squeeze))


@given(_dilation_inputs())
def test_dilations_and_their_compositions_stay_valid(inputs):
    rng, m_total, m_keep, t = inputs
    first, second = (
        dilation_report(random_symplectic(m_total, rng), t, random_symplectic(m_total, rng), m_keep)
        for _ in range(2)
    )
    assert first["pair_valid"] and second["pair_valid"]
    assert compose_pairs(second["pair"], first["pair"]).is_valid()


def test_dilation_keep_range_checked():
    with pytest.raises(DimensionMismatch):
        dilation_report(np.eye(4), np.eye(4), np.eye(4), m_keep=3)


@pytest.mark.parametrize("m_keep", [1.5, True])
def test_dilation_keep_must_be_an_integer(m_keep):
    """A non-integer mode count, a bool included, is a DimensionMismatch,
    not range's TypeError."""
    with pytest.raises(DimensionMismatch, match="m_keep"):
        dilation_report(np.eye(4), np.eye(4), np.eye(4), m_keep=m_keep)


def test_reconstructed_l_matches_frozen_closed_form():
    from divscan.presets import _DIL2_R1, _DIL2_R2, _dil2_t

    for t in (0.5, 1.0, 2.0):
        l = _DIL2_R1 @ _dil2_t(t) @ _DIL2_R2
        assert np.max(np.abs(l - printed_l_2x1(t))) < 1e-12


def test_det_x_closed_form_for_two_mode_dilation():
    fam = dilation_2x1_family()
    for t in (0.5, 1.0, 2.0, 3.0):
        assert abs(det_x(fam, t) - (2.0 + t + 1.0 / t) / 4.0) < 1e-12


def test_det_scan_constant_family_clean():
    pair = make_pair(np.eye(2), np.eye(2))
    fam = GaussianFamily(m=1, generator=lambda t: pair, t_domain=(0.0, 2.0), name="const")
    rows = det_criterion_scan(fam, np.linspace(0.2, 1.8, 7))
    assert all(not r["violation"] for r in rows)
    assert all(abs(r["ddet"]) < 1e-6 for r in rows)


def test_det_scan_flags_growth_after_one():
    fam = dilation_2x1_family()
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


def test_det_scan_flags_the_cp_divisible_amplifier():
    """A flag is not a proof: the one-mode amplifier X_t = e^{t/2} I,
    Y_t = (e^t - 1) I has a valid s -> t pair for every s < t, so it is
    CP-divisible, yet det X_t = e^t rises and every grid point is flagged."""
    fam = GaussianFamily(
        m=1, generator=lambda t: make_pair(np.exp(t / 2) * np.eye(2), np.expm1(t) * np.eye(2)), t_domain=(0.0, 3.0)
    )
    ts = np.linspace(0.1, 2.9, 20)
    for i, s in enumerate(ts):
        for t in ts[i + 1:]:
            x = fam.pair(t).x @ np.linalg.inv(fam.pair(s).x)
            assert GaussianPair(m=1, x=x, y=fam.pair(t).y - x @ fam.pair(s).y @ x.T).is_valid()
    rows = det_criterion_scan(fam, ts)
    assert all(r["violation"] and r["valid"] for r in rows)


def test_det_scan_reports_the_validity_of_each_pair():
    """The scan's valid flags agree with the dilation report's pair_valid."""
    for name in GAUSSIAN_PRESETS:
        ts = np.linspace(*GAUSSIAN_PRESETS[name]["default_grid"])
        rows = det_criterion_scan(gaussian_family(name), ts)
        assert [r["valid"] for r in rows] == [gaussian_pair_at(name, t)["pair_valid"] for t in ts]


def test_gaussian_family_pairs_equal_the_dilation_report_pairs():
    """The family extracts each pair without a report; the pairs are the
    report's own, bit for bit, at grid and stencil times."""
    for name, cfg in GAUSSIAN_PRESETS.items():
        fam = gaussian_family(name)
        grid = np.linspace(*cfg["default_grid"])
        h = 1e-4 * (grid[-1] - grid[0])
        for t in np.concatenate([grid, grid + h, grid - h]).tolist():
            pair, expect = fam.pair(t), gaussian_pair_at(name, t)["pair"]
            assert np.array_equal(pair.x, expect.x) and np.array_equal(pair.y, expect.y)
            assert pair.m == expect.m == cfg["m_keep"]


def test_det_scan_raises_on_singular_x():
    def gen(t):
        return GaussianPair(m=1, x=(1.5 - t) * np.eye(2), y=np.eye(2) * 3.0)

    fam = GaussianFamily(m=1, generator=gen, t_domain=(0.0, 3.0), name="sing")
    with pytest.raises(SingularX):
        det_criterion_scan(fam, np.linspace(1.0, 2.0, 11))

    def singular_at(times):  # X_t = 0 exactly at the given times
        return GaussianFamily(m=1, generator=lambda t: GaussianPair(m=1, x=(t not in times) * np.eye(2), y=np.eye(2)),
                              t_domain=(0.0, 2.0))

    # the stencil points are checked in the order t + h, t - h, t
    for times, named in (({1.5, 0.5, 1.0}, 1.5), ({0.5, 1.0}, 0.5), ({1.0}, 1.0)):
        with pytest.raises(SingularX, match=f"at t={named};"):
            det_criterion_scan(singular_at(times), [1.0], h=0.5)


def test_det_scan_extracts_one_pair_per_stencil_time():
    """Three generator calls per grid time, at t + h, t - h and t: det and
    valid at t read one pair. The rows equal det_x's central difference and
    the validity of the pair at t."""
    calls = []

    def gen(t):
        calls.append(t)
        return dilation_2x1(t)["pair"]

    grid = np.linspace(*GAUSSIAN_PRESETS["dilation-2x1"]["default_grid"])
    h = 1e-4 * (grid[-1] - grid[0])
    rows = det_criterion_scan(GaussianFamily(m=1, generator=gen, t_domain=(0.05, 5.0)), grid, h)
    assert calls == [tau for t in grid.tolist() for tau in (t + h, t - h, t)]
    ref = dilation_2x1_family()
    ddets = [(det_x(ref, t + h) - det_x(ref, t - h)) / (2 * h) for t in grid.tolist()]
    assert rows == [
        {"t": t, "det": det_x(ref, t), "ddet": dd, "violation": dd > 1e-6, "valid": ref.pair(t).is_valid()}
        for t, dd in zip(grid.tolist(), ddets)
    ]


@pytest.mark.parametrize(
    "call",
    [
        lambda: is_valid_state(np.eye(3)),
        lambda: is_valid_state(np.ones(4)),
        lambda: is_valid_state(np.ones((2, 4))),
        lambda: dilation_report(np.eye(4), np.eye(2), np.eye(4), 1),
    ],
    ids=["odd-state", "flat-state", "rect-state", "mixed-dilation"],
)
def test_shapes_that_are_not_one_square_even_shape_raise_dimension_mismatch(call):
    """A covariance, a pair or a dilation whose matrices are not square,
    even-sided and of one shape is a typed error, not a numpy ValueError or
    a False."""
    with pytest.raises(DimensionMismatch, match="2m x 2m"):
        call()


@pytest.mark.parametrize("t", [0.0, 0.05 - 1e-9, 5.0 + 1e-9, 6.0, np.nan])
def test_gaussian_family_pair_checks_the_domain(t):
    fam = dilation_2x1_family()
    fam.pair(0.05)
    fam.pair(5.0)
    with pytest.raises(DomainExceeded):
        fam.pair(t)


@pytest.mark.parametrize(
    "grid, h, tau_slope, error",
    [
        ([0.0, 1.0], None, 1e-6, DomainExceeded),
        ([6.0, 7.0], None, 1e-6, DomainExceeded),
        ([1.0], None, 1e-6, HypothesisViolated),
        ([], None, 1e-6, HypothesisViolated),
        ([], 1e-4, 1e-6, HypothesisViolated),
        ([1.0, 2.0], 0.0, 1e-6, HypothesisViolated),
        ([1.0, 2.0], -1e-4, 1e-6, HypothesisViolated),
        ([1.0, 2.0], np.nan, 1e-6, HypothesisViolated),
        ([[1.0, 2.0]], None, 1e-6, HypothesisViolated),
        ([1.0, 2.0], None, 0.0, HypothesisViolated),
        ([1.0, 2.0], None, -1.0, HypothesisViolated),
        ([1.0, 2.0], None, np.nan, HypothesisViolated),
        ([1.0, 2.0], None, np.inf, HypothesisViolated),
    ],
    ids=["below-domain", "above-domain", "one-point-default-h", "empty-default-h", "empty",
         "h-zero", "h-negative", "h-nan", "grid-2d", "tau-zero", "tau-negative", "tau-nan", "tau-inf"],
)
def test_det_scan_checks_its_stencil(grid, h, tau_slope, error):
    """The domain is [0.05, 5]: t=0 used to raise ZeroDivisionError inside
    the generator and t=6 was scanned without complaint. A one-point grid
    has no span, so no default h; the scan used to make one up from a span
    of 1. A 2-D grid used to raise a bare TypeError, and tau_slope=nan
    flagged no row."""
    with pytest.raises(error):
        det_criterion_scan(dilation_2x1_family(), grid, h=h, tau_slope=tau_slope)


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
        return GaussianPair(m=1, x=2.0 * np.eye(2), y=np.zeros((2, 2)))

    with pytest.raises(InvalidFamily):
        make_gaussian_family(bad, m=1, t_domain=(0.0, 1.0), name="bad")


def test_make_gaussian_family_returns_a_valid_family():
    """The attenuator X_t = sqrt(e^-t) I_2, Y_t = (1 - e^-t) I_2 is valid at
    every t, so make_gaussian_family returns it with its domain as floats."""

    def attenuator(t):
        return make_pair(np.sqrt(np.exp(-t)) * np.eye(2), (1 - np.exp(-t)) * np.eye(2))

    fam = make_gaussian_family(attenuator, m=1, t_domain=(0, 1), name="attenuator")
    assert isinstance(fam, GaussianFamily) and fam.t_domain == (0.0, 1.0) and fam.m == 1
    assert det_x(fam, 0.5) == pytest.approx(np.exp(-0.5), abs=1e-15)


@pytest.mark.parametrize(
    "m, t_domain, error, match",
    [
        (True, (0.0, 1.0), DimensionMismatch, "integer m >= 1, got m=True"),
        (0, (0.0, 1.0), DimensionMismatch, "integer m >= 1, got m=0"),
        (2.5, (0.0, 1.0), DimensionMismatch, "integer m >= 1, got m=2.5"),
        (1, (1, 0), InvalidFamily, "lo < hi, got \\(1.0, 0.0\\)"),
        (1, (0, np.nan), InvalidFamily, "two finite times"),
        (1, 1.0, InvalidFamily, "two finite times lo < hi, got 1.0"),
        (1, ("a", 1), InvalidFamily, "two finite times lo < hi, got \\('a', 1\\)"),
        (1, "12", InvalidFamily, "two finite times lo < hi, got '12'"),
    ],
    ids=[
        "m-bool", "m-zero", "m-float", "domain-reversed", "domain-nan", "domain-scalar", "domain-string", "domain-text"
    ],
)
@pytest.mark.parametrize("build", [GaussianFamily, make_gaussian_family])
def test_gaussian_family_checks_its_mode_count_and_domain_however_it_is_built(build, m, t_domain, error, match):
    """Both routes raise the family's own typed error before any pair is
    built, with the domain rule of DynamicalFamily: a reversed domain used
    to fail with DomainExceeded at its first pair, and m=True was kept."""

    def never(t):
        raise AssertionError("pair built")

    with pytest.raises(error, match=match):
        build(m=m, generator=never, t_domain=t_domain, name="")


@pytest.mark.parametrize(
    "m, generator, error",
    [
        (1, lambda t: (np.eye(2), np.eye(2)), InvalidFamily),
        (2, lambda t: make_pair(np.eye(2), np.zeros((2, 2))), DimensionMismatch),
        (1, lambda t: GaussianPair(m=1, x=np.full((2, 2), np.nan), y=np.eye(2)), InvalidFamily),
        (1, lambda t: GaussianPair(m=1, x=np.eye(2), y=np.full((2, 2), np.inf)), InvalidFamily),
    ],
    ids=["not-a-pair", "one-mode-pairs-of-a-two-mode-family", "nan-x", "inf-y"],
)
def test_det_scan_refuses_a_member_that_fails_the_family_checks(m, generator, error):
    """GaussianFamily.pair checks each member for every consumer, as
    DynamicalFamily.channel does: a member that is not a GaussianPair used to
    raise AttributeError, one-mode pairs of an m=2 family were scanned with
    the rise rule sized 2m = 4, and a non-finite X gave NaN rows that read
    as no violation. Each is now a typed error, the InvalidFamily naming t."""
    fam = GaussianFamily(m=m, generator=generator, t_domain=(0.0, 1.0), name="bad")
    with pytest.raises(error, match="t=0.6") as err:
        det_criterion_scan(fam, [0.5], h=0.1)
    assert error is DimensionMismatch or err.value.t == 0.6


def test_covariance_maps_reject_mismatched_or_invalid_inputs():
    """apply_to_covariance checks the covariance's shape against the pair,
    then the pair's validity; compose_pairs checks the mode counts."""
    one, two = make_pair(np.eye(2), np.zeros((2, 2))), make_pair(np.eye(4), np.zeros((4, 4)))
    with pytest.raises(DimensionMismatch, match="covariance shape"):
        apply_to_covariance(one, 0.5 * np.eye(4))
    with pytest.raises(InvalidChannel, match="validity inequality"):
        apply_to_covariance(GaussianPair(m=1, x=2.0 * np.eye(2), y=np.zeros((2, 2))), 0.5 * np.eye(2))
    with pytest.raises(DimensionMismatch, match="mode counts differ: 2 vs 1"):
        compose_pairs(two, one)


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
