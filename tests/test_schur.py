import numpy as np
import pytest

from divscan._errors import DimensionMismatch, OutsideValidityWindow
from divscan.channels import choi, kraus_to_super
from divscan.divisibility import cp_divisibility_scan, p_divisibility_scan
from divscan.operators import trace_norm, vec
from divscan.schur import (
    cosine_abs_sum,
    cp_block_witness,
    hopping_witness,
    make_schur_family,
    schur_channel,
    toeplitz_a,
    toeplitz_spectrum,
)

from _reference import schur_kraus_by_diag

N8_SLOPE = 9.51754096628727  # 2 sum |2cos(k pi/9)|/... frozen from the closed form
N4_SLOPE = 2.0 * np.sqrt(5.0)


def test_toeplitz_matrix_shape_and_guards():
    a = toeplitz_a(3, 0.2)
    assert np.array_equal(toeplitz_a(np.int64(3), 0.2), a)
    assert np.array_equal(np.diag(a), np.ones(3))
    assert a[0, 1] == 0.2 and a[1, 0] == 0.2 and a[0, 2] == 0.0
    with pytest.raises(DimensionMismatch):
        toeplitz_a(1, 0.2)
    with pytest.raises(OutsideValidityWindow):
        toeplitz_a(3, -0.1)


@pytest.mark.parametrize("n", [2.5, 3.0, "3", None])
def test_schur_size_must_be_an_integer(n):
    """Every Schur builder reads n through toeplitz_a, which refuses a size
    that is not an integer with DimensionMismatch, not numpy's TypeError."""
    calls = ((toeplitz_a, (n, 0.1)), (schur_channel, (n, 0.1)), (hopping_witness, (n,)), (make_schur_family, (n,)))
    for build, args in calls:
        with pytest.raises(DimensionMismatch, match="as an integer"):
            build(*args)


def test_spectrum_formula_matches_eigensolve_up_to_n_100():
    for n in (2, 5, 17, 50, 100):
        for t in (0.0, 0.25, 0.5):
            formula = toeplitz_spectrum(n, t)
            dense = np.linalg.eigvalsh(toeplitz_a(n, t))
            assert np.max(np.abs(np.sort(formula) - dense)) < 1e-10


def test_channel_is_entrywise_product():
    rng = np.random.default_rng(50)
    n, t = 5, 0.3
    ch = schur_channel(n, t)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    x = (x + x.conj().T) / 2
    assert np.max(np.abs(ch.apply(x) - toeplitz_a(n, t) * x)) < 1e-12


def test_channel_cptp_inside_window_pinches_at_zero():
    # the zero-coupling endpoint multiplies by I entrywise: a diagonal pinch
    rng = np.random.default_rng(51)
    ch0 = schur_channel(4, 0.0)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    x = (x + x.conj().T) / 2
    assert np.max(np.abs(ch0.apply(x) - np.diag(np.diag(x)))) < 1e-12
    assert ch0.is_cp() and ch0.is_tp()
    ch = schur_channel(6, 0.3)
    assert ch.is_tp()
    assert ch.is_cp()
    with pytest.raises(OutsideValidityWindow):
        schur_channel(4, 0.51)
    with pytest.raises(OutsideValidityWindow):
        schur_channel(4, -0.01)


def test_window_checks_reject_nan():
    """A NaN time fails both window checks: schur_channel used to raise
    numpy's LinAlgError from its eigensolve, and toeplitz_a to return a
    NaN mask."""
    with pytest.raises(OutsideValidityWindow):
        schur_channel(4, np.nan)
    with pytest.raises(OutsideValidityWindow):
        toeplitz_a(4, np.nan)


def test_kraus_factorization_reproduces_superoperator():
    ch = schur_channel(5, 0.22)
    assert ch.kraus is not None
    assert np.max(np.abs(kraus_to_super(ch.kraus) - ch.super)) < 1e-12
    # diagonal Kraus operators: a Schur multiplier structural signature
    for k in ch.kraus:
        assert np.max(np.abs(k - np.diag(np.diag(k)))) < 1e-12


@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("t", [0.0, 0.3, 0.5])
def test_superoperator_is_the_diagonal_of_the_vectorized_mask(n, t):
    """X -> A_t o X multiplies vec(X) entrywise by vec(A_t), so the
    superoperator built from the Kraus form is diag(vec(A_t))."""
    s = schur_channel(n, t).super
    assert np.max(np.abs(s - np.diag(np.diag(s)))) < 1e-13
    assert np.max(np.abs(s - np.diag(vec(toeplitz_a(n, t))))) < 1e-13


def test_choi_spectrum_is_toeplitz_spectrum_plus_zeros():
    n, t = 6, 0.3
    ev = np.sort(np.linalg.eigvalsh(choi(schur_channel(n, t)).matrix))
    assert np.max(np.abs(ev[-n:] - toeplitz_spectrum(n, t))) < 1e-10
    assert np.max(np.abs(ev[:-n])) < 1e-10


def test_hopping_witness_trace_norm_is_exactly_linear():
    for n in (2, 4, 8):
        slope = 2.0 * cosine_abs_sum(n)
        for t in (0.1, 0.3, 0.45):
            val = trace_norm(schur_channel(n, t).apply(hopping_witness(n)))
            assert abs(val - slope * t) < 1e-10


def test_scan_slope_matches_closed_form_n4_and_n8():
    for n, expect in ((4, N4_SLOPE), (8, N8_SLOPE)):
        fam = make_schur_family(n)
        report = p_divisibility_scan(fam, grid=np.linspace(0.05, 0.45, 9), h=1e-5)
        assert report.verdict == "NOT_P_DIVISIBLE"
        assert abs(report.derivative - expect) < 1e-6


def test_cp_scan_flags_block_witness_with_same_slope():
    fam = make_schur_family(4)
    report = cp_divisibility_scan(fam, grid=np.linspace(0.05, 0.45, 9), h=1e-5)
    assert report.verdict == "NOT_CP_DIVISIBLE"
    assert abs(report.derivative - N4_SLOPE) < 1e-6


def test_block_witness_is_embedded_hopping():
    y = cp_block_witness(3)
    assert y.shape == (9, 9)
    assert np.max(np.abs(y[:3, :3] - hopping_witness(3))) < 1e-15
    assert np.max(np.abs(y[3:, :])) == 0.0


def test_verdict_stable_under_growing_truncation():
    """Growing n keeps the verdict and strictly increases the derivative."""
    slopes = []
    for n in (4, 14):
        fam = make_schur_family(n)
        report = p_divisibility_scan(fam, grid=np.linspace(0.1, 0.4, 5), h=1e-5)
        assert report.verdict == "NOT_P_DIVISIBLE"
        slopes.append(report.derivative)
    assert slopes[1] > slopes[0] + 1.0


@pytest.mark.parametrize("n", [8, 12, 16])
def test_real_kraus_superoperator_is_bitwise_the_complex_build(n):
    """Schur's Kraus operators are real, and kraus_to_super of them in
    float64 equals the build from the same operators cast to complex bit
    for bit: the real parts are equal and the imaginary part is exactly
    zero. This is what keeps Schur witness_t where the benchmark goldens
    put it. The hopping witness's slope is constant in t, so witness_t is
    the argmax of slopes that differ by rounding alone, and a superoperator
    that moved by one ulp could move it."""
    for t in np.linspace(0.0, 0.5, 201):
        ks = schur_channel(n, float(t)).kraus
        real = kraus_to_super(ks)
        cplx = kraus_to_super([k.astype(complex) for k in ks])
        assert real.dtype == np.float64
        assert np.array_equal(cplx.real, real), t
        assert not np.any(cplx.imag), t


@pytest.mark.parametrize("n", [2, 8, 16])
def test_kraus_stack_is_the_one_diag_at_a_time_build(n):
    """schur_channel writes its n diagonal Kraus operators as one stack;
    each equals np.diag(sqrt(v_i) * vecs[:, i]) bit for bit."""
    for t in np.linspace(0.0, 0.5, 21):
        got, want = schur_channel(n, float(t)).kraus, schur_kraus_by_diag(n, float(t))
        assert len(got) == n
        assert all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got, want)), t
