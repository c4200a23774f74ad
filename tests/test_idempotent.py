import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divscan._errors import DegenerateDenominator, DimensionMismatch, HypothesisViolated, InvalidFamily
from divscan.channels import choi, compose
from divscan.idempotent import (
    COEFF_ATOL,
    IdempotentParams,
    choi_spectrum_closed_form,
    classify_regime,
    cp_condition,
    divisor_coeffs,
    l_positive_condition,
    make_family,
    phi,
    solve_left_divisor,
    truncation_report,
    two_positive_necessary,
)
from divscan.operators import vec
from divscan.presets import idempotent_family_preset

from _reference import idempotent_product, two_positive_probe_choi


def spectrum_as_sorted_array(pairs):
    return np.sort(np.concatenate([np.full(mult, val) for val, mult in pairs]))


def random_tp_tuple(rng):
    a, b, c = rng.normal(size=3)
    return a, b, c, 1.0 - a - b - c


UNIT_TUPLES = {"I": (1, 0, 0, 0), "E": (0, 1, 0, 0), "B": (0, 0, 1, 0), "D": (0, 0, 0, 1)}


def unit_channels(n, k):
    """The four basis maps I, E, B, D as phi at the unit coefficient tuples."""
    return {name: phi(IdempotentParams(n, k, *unit)) for name, unit in UNIT_TUPLES.items()}


def block_projectors(n, k):
    return [np.kron(np.diag(np.eye(n)[i]), np.eye(k)) for i in range(n)]


def basis_sum_super(n, k, a, b, c, d):
    """Reference S = a S_I + b S_E + c S_B + d S_D, each basis superoperator
    summed over the block projectors P_i (kron(P_i, P_i) for E,
    vec(P_i) vec(P_i)^T / k for B, vec(I) vec(I)^T / nk for D)."""
    dim = n * k
    projs = block_projectors(n, k)
    s_i = np.eye(dim * dim)
    s_e = sum(np.kron(p, p) for p in projs)
    s_b = sum(np.outer(vec(p), vec(p)) / k for p in projs)
    vi = vec(np.eye(dim))
    s_d = np.outer(vi, vi) / dim
    return a * s_i + b * s_e + c * s_b + d * s_d


def test_basis_channels_are_tp_idempotents():
    for n, k in [(2, 2), (3, 2), (2, 3)]:
        for name, ch in unit_channels(n, k).items():
            assert ch.is_tp(), name
            assert np.max(np.abs(ch.super @ ch.super - ch.super)) < 1e-12, name


def test_basis_products_collapse_to_the_coarser_projection():
    """Products follow p_i p_j = p_max(i,j) in the order (id, E, B, D)."""
    supers = [ch.super for ch in unit_channels(2, 2).values()]
    for i in range(4):
        for j in range(4):
            expect = supers[max(i, j)]
            assert np.max(np.abs(supers[i] @ supers[j] - expect)) < 1e-12


@pytest.mark.parametrize("n, k", [(0, 2), (2, 0), (-1, 2), (2.5, 2), (2, 2.0), (True, 2), (2, True)])
def test_phi_rejects_empty_or_negative_block_counts(n, k):
    """IdempotentParams itself rejects the block counts, so every closed
    form raises DimensionMismatch, not a ZeroDivisionError, nor the
    TypeError of slicing with a non-integer count."""
    s, t = (0.5, 0.2, 0.2, 0.1), (0.3, 0.2, 0.3, 0.2)
    for call in (
        lambda: phi(IdempotentParams(n, k, 0.25, 0.25, 0.25, 0.25)),
        lambda: cp_condition(IdempotentParams(n, k, 0.25, 0.25, 0.25, 0.25)),
        lambda: choi_spectrum_closed_form(IdempotentParams(n, k, 0.25, 0.25, 0.25, 0.25)),
        lambda: classify_regime(n, k, s, t),
        lambda: truncation_report(s, t, k, [2, n]),
    ):
        with pytest.raises(DimensionMismatch, match="need n, k >= 1"):
            call()


@st.composite
def _phi_inputs(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    coeffs = draw(st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n * k, n * k)) + 1j * rng.normal(size=(n * k, n * k))
    return n, k, coeffs, x


@settings(max_examples=60)
@given(_phi_inputs())
def test_phi_is_the_basis_sum_and_acts_by_the_definition(inputs):
    """phi(p) applies aX + b sum P_i X P_i + c sum tr(P_i X)/k P_i
    + d tr(X)/(nk) I, and its superoperator has the bits of the explicit
    basis sum."""
    n, k, (a, b, c, d), x = inputs
    ch = phi(IdempotentParams(n, k, a, b, c, d))
    assert np.array_equal(ch.super, basis_sum_super(n, k, a, b, c, d))
    dim = n * k
    projs = block_projectors(n, k)
    want = (
        a * x
        + b * sum(p @ x @ p for p in projs)
        + c * sum(np.trace(p @ x) / k * p for p in projs)
        + d * np.trace(x) / dim * np.eye(dim)
    )
    assert np.max(np.abs(ch.apply(x) - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_phi_superoperator_eigenvalues_are_partial_sums():
    """The map acts by the partial sums s1..s4 on its four eigenspaces."""
    rng = np.random.default_rng(31)
    n, k = 2, 2
    a, b, c, d = random_tp_tuple(rng)
    s1, s2, s3, s4 = a, a + b, a + b + c, a + b + c + d
    ev = np.sort(np.linalg.eigvals(phi(IdempotentParams(n, k, a, b, c, d)).super).real)
    d2 = (n * k) ** 2
    expect = np.sort(
        np.concatenate(
            [
                np.full(d2 - n * k * k, s1),
                np.full(n * k * k - n, s2),
                np.full(n - 1, s3),
                np.full(1, s4),
            ]
        )
    )
    assert np.max(np.abs(ev - expect)) < 1e-10


def test_phi_is_tp_for_unit_sum_coefficients():
    rng = np.random.default_rng(32)
    for _ in range(5):
        params = IdempotentParams(3, 2, *random_tp_tuple(rng))
        assert phi(params).is_tp()


def test_closed_form_choi_spectrum_matches_dense_eigensolve():
    rng = np.random.default_rng(33)
    for n, k in [(2, 2), (2, 3), (3, 2)]:
        for _ in range(5):
            params = IdempotentParams(n, k, *random_tp_tuple(rng))
            dense = np.sort(np.linalg.eigvalsh(choi(phi(params)).matrix))
            closed = spectrum_as_sorted_array(choi_spectrum_closed_form(params))
            assert np.max(np.abs(dense - closed)) < 1e-9


def test_basis_choi_spectra_closed_values():
    # identity: one eigenvalue nk; E: eigenvalue k with multiplicity n;
    # B: eigenvalue 1/k with multiplicity nk^2; D: flat spectrum 1/(nk)
    for n, k in [(2, 2), (3, 2)]:
        basis = unit_channels(n, k)
        d = n * k
        ev_i = np.linalg.eigvalsh(choi(basis["I"]).matrix)
        assert abs(ev_i[-1] - d) < 1e-12 and np.max(np.abs(ev_i[:-1])) < 1e-12
        ev_e = np.linalg.eigvalsh(choi(basis["E"]).matrix)
        assert np.max(np.abs(ev_e[-n:] - k)) < 1e-12 and np.max(np.abs(ev_e[:-n])) < 1e-12
        ev_b = np.linalg.eigvalsh(choi(basis["B"]).matrix)
        nz = ev_b[np.abs(ev_b) > 1e-12]
        assert len(nz) == n * k * k
        assert np.max(np.abs(nz - 1.0 / k)) < 1e-12
        ev_d = np.linalg.eigvalsh(choi(basis["D"]).matrix)
        assert np.max(np.abs(ev_d - 1.0 / d)) < 1e-12


def test_cp_condition_matches_dense_psd_check():
    rng = np.random.default_rng(34)
    agree = 0
    for _ in range(40):
        params = IdempotentParams(2, 2, *random_tp_tuple(rng))
        dense = bool(np.min(np.linalg.eigvalsh(choi(phi(params)).matrix)) >= -1e-9)
        assert cp_condition(params, atol=1e-9) == dense
        agree += 1
    assert agree == 40


def test_two_positive_necessary_matches_probe_eigenvalue():
    rng = np.random.default_rng(35)
    for _ in range(30):
        params = IdempotentParams(2, 2, *random_tp_tuple(rng))
        probe_min = float(np.min(np.linalg.eigvalsh(two_positive_probe_choi(params))))
        assert two_positive_necessary(params, atol=1e-9) == (probe_min >= -1e-9)


def test_two_positive_probe_needs_blocks_of_size_two():
    with pytest.raises(HypothesisViolated):
        two_positive_probe_choi(IdempotentParams(2, 1, 0.2, 0.2, 0.3, 0.3))


def test_l_positive_condition_default_norm_and_guards():
    # at l=1 the operator norm of the compressed complement map is k
    p = IdempotentParams(2, 2, -0.1, -0.2, 0.9, 0.4)
    assert l_positive_condition(p) == (p.b * 2 + p.a + p.c + p.d >= 0)
    with pytest.raises(HypothesisViolated):
        l_positive_condition(IdempotentParams(2, 2, 0.1, -0.2, 0.7, 0.4))


def test_contractivity_probe_passes_positive_idempotent_maps():
    """a, d >= 0, b <= 0 and W = b + c/k + d/(nk) >= 0 make Phi positive:
    for PSD X, b X_i >= b tr(X_i) I on each diagonal block and tr X >= tr X_i,
    so Phi(X) >= a X + sum_i W tr(X_i) P_i >= 0. The probe finds no witness."""
    from divscan.channels import positivity_by_contractivity

    rng = np.random.default_rng(36)
    n, k = 2, 2
    for _ in range(15):
        a, c, d = rng.uniform(0.05, 1.0, size=3)
        b = -rng.uniform(0.0, 1.0) * (c / k + d / (n * k))  # keeps W >= 0
        s = a + b + c + d
        params = IdempotentParams(n, k, a / s, b / s, c / s, d / s)
        assert positivity_by_contractivity(phi(params), n_samples=60, seed=9)["positive_evidence"], params


def test_divisor_coeffs_equals_recursive_solver():
    rng = np.random.default_rng(37)
    for _ in range(20):
        xs = rng.uniform(0.1, 1.0, size=4)
        xs /= xs.sum()
        zs = rng.uniform(0.1, 1.0, size=4)
        zs /= zs.sum()
        direct = np.array(divisor_coeffs(*xs, *zs))
        recursive = np.array(solve_left_divisor(tuple(xs), tuple(zs)))
        assert np.max(np.abs(direct - recursive)) < 1e-12


def test_divisor_composes_back_to_target():
    rng = np.random.default_rng(38)
    n, k = 2, 2
    for _ in range(10):
        xs = rng.uniform(0.1, 1.0, size=4)
        xs /= xs.sum()
        zs = rng.uniform(0.1, 1.0, size=4)
        zs /= zs.sum()
        div = divisor_coeffs(*xs, *zs)
        lhs = compose(phi(IdempotentParams(n, k, *div)), phi(IdempotentParams(n, k, *xs))).super
        rhs = phi(IdempotentParams(n, k, *zs)).super
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_uniform_divisor_example():
    y = solve_left_divisor((1.0, 1.0, 1.0, 1.0), (1.0, 3.0, 5.0, 7.0))
    assert np.max(np.abs(np.array(y) - 1.0)) < 1e-12
    z = idempotent_product((1.0, 1.0, 1.0, 1.0), y)
    assert np.max(np.abs(np.array(z) - np.array([1.0, 3.0, 5.0, 7.0]))) < 1e-12


def test_product_is_commutative_with_identity_element():
    rng = np.random.default_rng(39)
    x = tuple(rng.normal(size=4))
    y = tuple(rng.normal(size=4))
    assert np.max(np.abs(np.array(idempotent_product(x, y)) - np.array(idempotent_product(y, x)))) < 1e-12
    ident = (1.0, 0.0, 0.0, 0.0)
    assert np.max(np.abs(np.array(idempotent_product(ident, x)) - np.array(x))) < 1e-15


def test_product_matches_channel_composition():
    rng = np.random.default_rng(40)
    n, k = 2, 2
    x = rng.normal(size=4)
    y = rng.normal(size=4)
    z = idempotent_product(tuple(x), tuple(y))
    lhs = compose(phi(IdempotentParams(n, k, *y)), phi(IdempotentParams(n, k, *x))).super
    rhs = phi(IdempotentParams(n, k, *z)).super
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_degenerate_denominator_names_the_vanishing_sum():
    # a_s = 0 makes the first partial sum vanish
    with pytest.raises(DegenerateDenominator) as err:
        divisor_coeffs(0.0, 0.3, 0.3, 0.4, 0.2, 0.2, 0.3, 0.3)
    assert "a_s" in str(err.value)
    # a+b = 0 kills the second
    with pytest.raises(DegenerateDenominator) as err:
        divisor_coeffs(0.3, -0.3, 0.5, 0.5, 0.2, 0.2, 0.3, 0.3)
    assert "a_s+b_s" in str(err.value)


def test_solve_left_divisor_rejects_mismatched_or_degenerate_vectors():
    with pytest.raises(DimensionMismatch, match="differ in length"):
        solve_left_divisor((1.0, 1.0, 1.0), (1.0, 3.0, 5.0, 7.0))
    # x_1 + x_2 = 0 kills the second partial sum
    with pytest.raises(DegenerateDenominator, match="through index 1"):
        solve_left_divisor((0.5, -0.5, 0.5, 0.5), (1.0, 3.0, 5.0, 7.0))


def test_divisor_outside_the_hypothesis_is_undetermined():
    """The divisor (2.25, -1.25, 0, 0) fails the CP condition, and alpha > 0
    puts it outside the a, b <= 0 hypothesis of the P condition."""
    s_coeffs, t_coeffs = (0.4, 0.3, 0.2, 0.1), (0.9, -0.2, 0.2, 0.1)
    assert np.allclose(divisor_coeffs(*s_coeffs, *t_coeffs), (2.25, -1.25, 0.0, 0.0), rtol=0, atol=1e-12)
    assert classify_regime(2, 2, s_coeffs, t_coeffs) == "undetermined"


def test_make_family_rejects_non_unit_sum():
    def fns(t):
        return (0.5, 0.2, 0.2, 0.2)  # sums to 1.1

    with pytest.raises(InvalidFamily):
        make_family(fns, 2, 2, (0.0, 1.0), name="bad-sum")


@pytest.mark.parametrize("t_domain", [(1.0, 0.0), (0.0, np.inf)])
def test_make_family_refuses_a_domain_that_is_not_an_interval(t_domain):
    """make_family builds its DynamicalFamily directly, so the family's own
    domain check runs before the closed forms: a reversed domain used to be
    accepted."""

    def fns(t):
        return (0.25, 0.25, 0.25, 0.25)

    with pytest.raises(InvalidFamily, match="two finite times lo < hi"):
        make_family(fns, 2, 2, t_domain)


def test_make_family_rejects_non_cp_instants():
    def fns(t):
        # negative Choi weight at every t
        return (1.4, -0.2, -0.1, -0.1)

    with pytest.raises(InvalidFamily):
        make_family(fns, 2, 2, (0.0, 1.0), name="bad-cp")


def test_truncation_report_and_classify_regime_share_the_hypothesis_rule():
    """A divisor with 0 < alpha <= COEFF_ATOL is inside the a, b <= 0
    hypothesis for both: each size's l1 entry gives its regime."""
    s_coeffs = (0.1, 0.05, 0.45, 0.4)
    t_coeffs = (5e-14, -0.075, 0.615, 0.46 - 5e-14)
    rows = truncation_report(s_coeffs, t_coeffs, 2, [2, 3, 4, 8])
    assert 0 < rows[0]["alpha"] <= COEFF_ATOL and rows[0]["beta"] <= 0
    for r in rows:
        assert not r["cp"] and r["l1"] is not None
        assert classify_regime(r["n"], 2, s_coeffs, t_coeffs) == ("P-not-CP" if r["l1"] else "not-P")


def test_truncation_report_tracks_divisor_conditions_across_sizes():
    s_coeffs = (0.1, 0.05, 0.45, 0.4)
    t_coeffs = (0.05, 0.1, 0.45, 0.4)
    rows = truncation_report(s_coeffs, t_coeffs, 2, np.array([2, 3, 4, 8]))
    assert [r["n"] for r in rows] == [2, 3, 4, 8]
    for r in rows:
        assert set(r) >= {"n", "alpha", "beta", "gamma", "delta", "cp", "two_positive", "l1"}
        # divisor coefficients are n-independent in this parametrization
        assert abs(r["alpha"] - rows[0]["alpha"]) < 1e-12


@pytest.mark.parametrize("n, k", [(1, 1), (0, 1), (2, 1), (3, 1)])
def test_not_p_preset_without_room_for_its_witness_raises_dimension_mismatch(n, k):
    """idempotent-not-p's canonical witness E_00 - E_11 needs one block of
    k >= 2: below that the preset raises DimensionMismatch naming the rule,
    not the IndexError of writing w[1, 1] nor, at k = 1, a family whose
    designated step is CP; the other presets build at n = k = 1."""
    with pytest.raises(DimensionMismatch, match=r"n >= 1 and k >= 2"):
        idempotent_family_preset("idempotent-not-p", n, k)
    assert idempotent_family_preset("idempotent-not-p", 1, 2).d == 2
    for kind in ("idempotent-cp", "idempotent-p-not-cp"):
        assert idempotent_family_preset(kind, 1, 1).d == 1
