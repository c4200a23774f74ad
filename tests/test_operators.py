import numpy as np
import pytest

from divscan._errors import DimensionMismatch, NonHermitianInput
from divscan.operators import (
    random_hermitian,
    random_projector_difference,
    require_hermitian,
    trace_norm,
    trace_norms,
    unvec,
    vec,
)


def test_require_hermitian_symmetrizes_within_tolerance():
    x = np.array([[1.0, 1e-12j], [-1e-12j, 2.0]])
    out = require_hermitian(x)
    assert np.max(np.abs(out - out.conj().T)) == 0.0


def test_require_hermitian_rejects_skew_part():
    with pytest.raises(NonHermitianInput):
        require_hermitian(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_require_hermitian_rejects_rectangles():
    with pytest.raises(DimensionMismatch):
        require_hermitian(np.ones((2, 3)))


def test_trace_norm_matches_singular_values():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = random_hermitian(5, rng)
        sv = np.linalg.svd(x, compute_uv=False)
        assert abs(trace_norm(x) - sv.sum()) < 1e-12


def test_trace_norms_of_a_stack_match_trace_norm_and_keep_its_checks():
    rng = np.random.default_rng(2)
    xs = np.stack([random_hermitian(5, rng) for _ in range(6)])
    assert np.array_equal(trace_norms(xs), [trace_norm(x) for x in xs])
    xs[3, 0, 1] += 1e-6
    with pytest.raises(NonHermitianInput):
        trace_norms(xs, atol=1e-7)
    with pytest.raises(DimensionMismatch):
        trace_norms(np.ones((2, 2, 3)))


def test_trace_norm_of_difference_of_orthogonal_projectors_is_two():
    rng = np.random.default_rng(1)
    x = random_projector_difference(6, rng)
    assert abs(trace_norm(x) - 2.0) < 1e-12


def test_trace_norm_is_positive_minus_negative_eigen_mass():
    """tr|X| = tr X+ + tr X- for the Jordan parts of X, which is the nuclear
    norm; the stacked trace_norms agrees witness by witness."""
    rng = np.random.default_rng(3)
    xs = np.stack([random_hermitian(6, rng) for _ in range(3)])
    for x, stacked in zip(xs, trace_norms(xs)):
        ev = np.linalg.eigvalsh(x)
        jordan = ev[ev > 0].sum() - ev[ev < 0].sum()
        assert abs(trace_norm(x) - jordan) < 1e-12
        assert abs(trace_norm(x) - np.linalg.norm(x, "nuc")) < 1e-12
        assert abs(stacked - jordan) < 1e-12


def test_vec_unvec_roundtrip_column_order():
    x = np.arange(9, dtype=complex).reshape(3, 3)
    v = vec(x)
    # column stacking: first column first
    assert np.array_equal(v[:3], x[:, 0])
    assert np.array_equal(unvec(v, 3), x)


def test_vec_turns_a_sandwich_into_a_kron_product():
    """vec(A X B) = (B^T (x) A) vec(X) in the column-major convention that
    kraus_to_super and stacked_apply build on."""
    rng = np.random.default_rng(4)
    a, b, x = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3))
    assert np.max(np.abs(np.kron(b.T, a) @ vec(x) - vec(a @ x @ b))) < 1e-12


def test_random_hermitian_unit_trace_norm_and_seeded():
    rng = np.random.default_rng(5)
    x = random_hermitian(4, rng)
    assert abs(trace_norm(x) - 1.0) < 1e-12
    y = random_hermitian(4, np.random.default_rng(5))
    assert np.array_equal(x, y)
