import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divscan.operators
from divscan._errors import DimensionMismatch, NonHermitianInput
from divscan.divisibility import default_witnesses
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
    stacked = require_hermitian(np.stack([x, x.conj(), 2 * x]))
    assert np.array_equal(stacked, [out, out.conj(), 2 * out])


def test_require_hermitian_rejects_skew_part():
    with pytest.raises(NonHermitianInput):
        require_hermitian(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_require_hermitian_rejects_rectangles():
    with pytest.raises(DimensionMismatch):
        require_hermitian(np.ones((2, 3)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)], ids=["nan", "inf", "-inf", "nan-j"])
@pytest.mark.parametrize("where", [(1, 1), (0, 2)], ids=["diagonal", "off-diagonal"])
def test_non_finite_entry_fails_the_hermiticity_check(value, where):
    """A NaN or infinite entry, on the diagonal or mirrored off it, makes
    the deviation NaN, which fails the check at any atol, so trace_norm
    raises NonHermitianInput rather than numpy's LinAlgError or a NaN norm."""
    x = np.eye(3, dtype=type(value) if isinstance(value, complex) else float)
    i, j = where
    x[i, j] = value
    x[j, i] = np.conj(value)
    with pytest.raises(NonHermitianInput, match="nan"):
        require_hermitian(x, atol=np.inf)
    with pytest.raises(NonHermitianInput):
        trace_norm(x)


@pytest.mark.parametrize("dtype", [float, complex])
def test_require_hermitian_reads_the_modulus_of_the_deviation(dtype):
    """The deviation is the modulus of X - X*: an entry pair off by 3 in its
    real part and by 4i in its imaginary part deviates by exactly 5, and a
    real pair off by 3 by exactly 3, so atol splits at that value."""
    x = np.zeros((2, 3, 3), dtype=dtype)
    x[1, 0, 2] = 3.0 + (4j if dtype is complex else 0)
    dev = 5.0 if dtype is complex else 3.0
    assert require_hermitian(x, atol=dev).dtype == dtype
    with pytest.raises(NonHermitianInput, match=re.escape(f"{dev:.3e}")):
        require_hermitian(x, atol=np.nextafter(dev, 0.0))


def _symmetrized_by_conjugate_copy(x, atol):
    """The formula require_hermitian replaced: a conjugate copy, its
    difference and the difference's modulus, then (X + X*) * 0.5."""
    xh = x.conj().swapaxes(-1, -2)
    dev = float(np.max(np.abs(x - xh))) if x.size else 0.0
    if dev > atol:
        return None
    sym = x + xh
    sym *= 0.5
    return sym


def test_require_hermitian_keeps_the_bits_of_the_conjugate_copy_formula():
    """Real and complex stacks, near-Hermitian or not, with signed zeros:
    require_hermitian raises where the old formula's deviation exceeds
    atol, and otherwise returns its array bit for bit, sign bits
    included. (The square root of the summed squares and numpy's complex
    modulus may differ in the last bit, so only a deviation within an ulp
    of atol could split them.)"""
    rng = np.random.default_rng(5)
    for case in range(400):
        d, n = int(rng.integers(1, 7)), int(rng.integers(0, 4))
        x = rng.standard_normal((n, d, d)) * 10.0 ** int(rng.integers(-3, 4))
        if case % 2:
            x = x + 1j * rng.standard_normal((n, d, d))
        x[rng.random(x.shape) < 0.2] = -0.0 if case % 3 else 0.0
        if case % 4 < 2:
            x = x + x.conj().swapaxes(-1, -2) * (1 + 1e-13 * rng.random())
        for atol in (1e-10, 1e-3):
            expect = _symmetrized_by_conjugate_copy(x, atol)
            if expect is None:
                with pytest.raises(NonHermitianInput):
                    require_hermitian(x, atol)
                continue
            out = require_hermitian(x, atol)
            assert out.dtype == expect.dtype and out.shape == expect.shape
            assert np.array_equal(np.ascontiguousarray(out).view(np.uint8), np.ascontiguousarray(expect).view(np.uint8))


@pytest.mark.parametrize("dtype", [float, complex])
def test_hermiticity_check_peaks_at_its_output(dtype):
    """No conjugate or difference is kept beside the output: the tracemalloc
    peak of require_hermitian, and of trace_norms on a stack with no zero
    entry, is at most 1.25x the stack (the conjugate-copy formula took
    2.5x complex and 2.0x real)."""
    rng = np.random.default_rng(13)
    g = rng.standard_normal((20, 64, 64)) + (1j * rng.standard_normal((20, 64, 64)) if dtype is complex else 0)
    xs = g + g.conj().swapaxes(-1, -2)
    assert xs.dtype == dtype
    trace_norms(xs)  # first-call allocations stay out of the measurement
    for f in (require_hermitian, trace_norms):
        tracemalloc.start()
        try:
            f(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * xs.nbytes, (f.__name__, peak / xs.nbytes)


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


@pytest.mark.parametrize("shape", [(3, 3), (9,), (1, 1, 3, 3)], ids=["matrix", "vector", "4d"])
def test_trace_norms_rejects_what_is_not_a_stack(shape):
    """trace_norms takes a stack (N, D, D): a single matrix, a vector or a
    4-D array is a DimensionMismatch."""
    with pytest.raises(DimensionMismatch, match="expected a stack of square matrices"):
        trace_norms(np.ones(shape))


def test_real_stacks_stay_real_and_match_the_complex_route():
    """A real symmetric stack is taken as it is (dsyevd, not zheevd): its
    norms are float64 and agree with the complex cast's within 1e-12, and
    require_hermitian keeps the dtype it is given."""
    rng = np.random.default_rng(41)
    g = rng.normal(size=(5, 6, 6))
    xs = g + g.transpose(0, 2, 1)
    xs[:, 0, 1] += 1e-12  # within the slack; the caller's stack must not be symmetrized
    before = xs.copy()
    norms = trace_norms(xs)
    assert np.array_equal(xs, before)
    assert norms.dtype == np.float64
    assert np.max(np.abs(norms - trace_norms(xs.astype(complex)))) <= 1e-12
    assert abs(trace_norm(xs[0]) - norms[0]) <= 1e-12
    assert require_hermitian(xs[0]).dtype == np.float64
    assert require_hermitian(xs[0] + 0j).dtype == complex


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


@pytest.fixture
def eigensolves(monkeypatch):
    """The shape of every eigvalsh call trace_norms makes, in call order."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def logged(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(divscan.operators.np.linalg, "eigvalsh", logged)
    return shapes


def _dense_norms(xs):
    return np.sum(np.abs(np.linalg.eigvalsh(xs)), axis=-1)


@pytest.mark.parametrize("dtype", [float, complex])
def test_diagonal_stack_runs_no_eigensolve(eigensolves, dtype):
    """A row whose off-diagonal entries are all zero, a zero matrix among
    them, has norm sum|diag| with no eigensolve."""
    rng = np.random.default_rng(6)
    xs = np.stack([np.diag(rng.normal(size=7)) for _ in range(4)] + [np.zeros((7, 7))]).astype(dtype)
    norms = trace_norms(xs)
    assert eigensolves == []
    assert norms.dtype == np.float64
    assert np.array_equal(norms, np.sum(np.abs(np.diagonal(xs, 0, 1, 2)), axis=-1))
    assert norms[-1] == 0.0
    assert trace_norm(xs[0]) == norms[0]


@pytest.mark.parametrize("dtype", [float, complex])
def test_mixed_stack_keeps_row_order(eigensolves, dtype):
    """Diagonal and zero rows skip the eigensolve, the block-supported and
    dense rows share one; every norm goes back to its own row, in any
    order of the rows."""
    d = 6
    rng = np.random.default_rng(8)
    dense = random_hermitian(d, rng)
    block = np.zeros((d, d), dtype=complex)
    block[np.ix_([1, 3], [1, 3])] = random_hermitian(2, rng)
    rows = [np.diag(rng.normal(size=d)), block, np.zeros((d, d)), dense, np.diag(np.arange(d) - 2.5)]
    xs = np.stack([r.real if dtype is float else r for r in rows]).astype(dtype)
    eigensolves.clear()  # random_hermitian's own normalization
    norms = trace_norms(xs)
    assert eigensolves == [(2, d, d)]
    assert np.max(np.abs(norms - _dense_norms(xs))) <= 1e-12
    assert norms[2] == 0.0
    for order in ([4, 3, 2, 1, 0], [1, 0, 3, 4, 2]):
        assert np.array_equal(trace_norms(xs[order]), norms[order])


def test_asymmetric_entry_in_a_dropped_row_still_raises(eigensolves):
    """Hermiticity is checked on the whole stack before any route is read:
    a skew entry whose symmetrized row would be diagonal, and an asymmetric
    entry outside the support of the rest, both raise."""
    d = 5
    skew = np.diag(np.arange(d, dtype=float))
    skew[0, 1], skew[1, 0] = 1e-3, -1e-3  # (X + X*)/2 is exactly diagonal
    with pytest.raises(NonHermitianInput):
        trace_norms(np.stack([np.eye(d), skew]))
    outside = np.zeros((d, d))
    outside[:2, :2] = [[1.0, 2.0], [2.0, -1.0]]
    outside[d - 1, 0] = 1e-3  # alone in row d-1, whose column is zero
    with pytest.raises(NonHermitianInput):
        trace_norms(np.stack([outside, np.eye(d)]))
    with pytest.raises(NonHermitianInput):
        trace_norm(outside)
    with pytest.raises(DimensionMismatch):
        trace_norm(np.ones((2, 3)))
    assert eigensolves == []


@st.composite
def _sparse_hermitian_stacks(draw):
    """Random Hermitian stacks, real or complex, whose rows are dense, zero
    on a random index set (rows and columns), diagonal only, or zero."""
    d = draw(st.integers(1, 7))
    kinds = draw(st.lists(st.sampled_from(["dense", "zeroed", "diagonal", "zero"]), min_size=1, max_size=5))
    complex_ = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in kinds:
        g = rng.normal(size=(d, d)) + (1j * rng.normal(size=(d, d)) if complex_ else 0.0)
        x = g + g.conj().T
        if kind == "zeroed":
            drop = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
            x[drop, :] = 0.0
            x[:, drop] = 0.0
        elif kind == "diagonal":
            x = np.diag(np.diag(x))
        elif kind == "zero":
            x = np.zeros_like(x)
        rows.append(x)
    return np.stack(rows)


@settings(max_examples=80)
@given(_sparse_hermitian_stacks())
def test_trace_norms_match_the_dense_eigensolve(xs):
    norms = trace_norms(xs)
    for norm, x in zip(norms, xs):
        assert abs(norm - np.sum(np.abs(np.linalg.eigvalsh(x)))) <= 1e-12 * max(1.0, norm)


@pytest.mark.parametrize("d", [16, 36, 144])
def test_default_witnesses_keep_their_bits(monkeypatch, d):
    """random_hermitian normalizes by trace_norm, so every library rests
    on it: a dense matrix takes the full eigensolve, and the library is
    bit-for-bit the one a plain eigvalsh trace norm gives."""
    libraries = [default_witnesses(d, np.random.default_rng(seed)) for seed in range(11, 16)]

    def plain(x, atol=divscan.operators.TAU_HERM):
        return float(np.sum(np.abs(np.linalg.eigvalsh((x + x.conj().T) / 2))))

    monkeypatch.setattr(divscan.operators, "trace_norm", plain)
    for seed, library in zip(range(11, 16), libraries):
        reference = default_witnesses(d, np.random.default_rng(seed))
        assert [wid for wid, _ in library] == [wid for wid, _ in reference]
        assert all(np.array_equal(w, r) for (_, w), (_, r) in zip(library, reference))
