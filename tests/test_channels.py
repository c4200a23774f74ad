import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divscan.channels
from divscan._errors import DimensionMismatch, HypothesisViolated, InvalidFamily, SingularChannel
from divscan.channels import (
    Channel,
    choi,
    choi_from_super,
    compose,
    extend_channel,
    inverse,
    kraus_channel,
    kraus_to_super,
    positivity_by_contractivity,
    stacked_apply,
    super_channel,
)
from divscan.divisibility import STENCIL_WIDTH, DynamicalFamily, intermediate_map
from divscan.operators import random_hermitian, random_projector_difference, trace_norm, unvec, vec
from divscan.presets import DESIGNATED_PAIR, FAMILY_PRESETS, IDEMPOTENT_BLOCKS, _mix_kraus, idempotent_family_preset
from divscan.schur import schur_channel

from _reference import hp_deviation_by_difference, kraus_to_super_full, transpose_channel


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


def _blockwise(s, d, y):
    """unvec(S @ vec(B)) on every d x d block B of y: the image of y under
    Lambda (one block) or I (x) Lambda, computed without stacked_apply."""
    m = y.shape[0] // d
    out = np.empty(y.shape, dtype=np.result_type(s, y))
    for a in range(m):
        for b in range(m):
            block = (slice(a * d, (a + 1) * d), slice(b * d, (b + 1) * d))
            out[block] = unvec(s @ vec(y[block]), d)
    return out


def _random_kraus(rng, r, d_out, d_in):
    return [rng.normal(size=(d_out, d_in)) + 1j * rng.normal(size=(d_out, d_in)) for _ in range(r)]


@pytest.mark.parametrize(
    "r, d_out, d_in",
    [(5, 4, 4), (3, 7, 7), (1, 5, 5), (4, 2, 6), (3, 5, 3)],
    ids=["square-5x4", "square-3x7", "single", "rect-2x6", "rect-5x3"],
)
def test_kraus_to_super_is_the_sum_of_krons(r, d_out, d_in):
    rng = np.random.default_rng(100 + 10 * r + d_out + d_in)
    ks = _random_kraus(rng, r, d_out, d_in)
    expected = sum(np.kron(k.conj(), k) for k in ks)
    s = kraus_to_super(ks)
    assert s.shape == (d_out * d_out, d_in * d_in)
    assert np.max(np.abs(s - expected)) < 1e-13


@pytest.mark.parametrize(
    "shapes",
    [[(3, 3), (3, 4)], [(2, 3), (3, 2)], [(3, 3), (3, 3), (2, 2)], [(3,), (3,)], []],
    ids=["columns", "transposed", "third", "vectors", "empty"],
)
def test_kraus_to_super_rejects_mixed_shapes_with_a_typed_error(shapes):
    """Shapes are checked before the operators are stacked, so the error is
    DimensionMismatch rather than numpy's ValueError."""
    with pytest.raises(DimensionMismatch):
        kraus_to_super([np.ones(shape) for shape in shapes])


def _sparse_kraus_sets():
    rng = np.random.default_rng(41)
    single = np.zeros((3, 3))
    single[1, 2] = 0.7
    rect = rng.normal(size=(2, 3, 5)) + 1j * rng.normal(size=(2, 3, 5))
    rect[:, :, [1, 3]] = 0.0
    return {
        "diagonal": [np.diag(rng.normal(size=4)) for _ in range(3)],
        "single-entry": [single],
        "mix-kraus": list(_mix_kraus(4)),
        "rect-zero-columns": list(rect),
        "all-zero": [np.zeros((3, 3))],
        "with-zero-operator": [np.zeros((3, 3)), rng.normal(size=(3, 3))],
    }


SPARSE_KRAUS = _sparse_kraus_sets()


@pytest.mark.parametrize("name", SPARSE_KRAUS)
def test_sparse_kraus_set_is_the_sum_of_krons_with_exact_zeros(name):
    """Only the entries some K_m occupies enter the Gram matrix; the result
    is still sum kron(conj K_m, K_m), of the input's real or complex dtype,
    and every entry that no kron term reaches is an exact zero."""
    ks = SPARSE_KRAUS[name]
    expected = sum(np.kron(k.conj(), k) for k in ks)
    reached = sum(np.kron(k != 0, k != 0).astype(int) for k in ks) > 0
    s = kraus_to_super(ks)
    assert s.shape == expected.shape and s.dtype == np.result_type(*ks, np.float64)
    assert np.max(np.abs(s - expected)) < 1e-13
    assert not np.any(s[~reached])


def test_nan_kraus_entry_gives_a_non_finite_member_named_by_t():
    """A NaN entry counts as occupied: the superoperator holds NaN, but only
    where a kron term reaches (it stays an exact zero elsewhere), and
    DynamicalFamily.channel raises InvalidFamily naming t."""
    bad = np.diag([np.nan, 1.0, 0.5])
    s = kraus_to_super([bad])
    reached = np.kron(bad != 0, bad != 0)
    assert np.isnan(s).any() and not np.any(s[~reached])
    fam = DynamicalFamily(
        d=3, t_domain=(0.0, 1.0), channel_at=lambda t: kraus_channel([bad if t > 0.5 else np.eye(3)]), name="nan-kraus"
    )
    assert fam.channel(0.2).is_tp()
    with pytest.raises(InvalidFamily, match="non-finite superoperator at t=0.7") as err:
        fam.channel(0.7)
    assert err.value.t == 0.7


def _kraus_members(case):
    """Schur n at 201 times in its window, or a Kraus preset at the times
    t, t +/- h/10, t +/- h around its default grid."""
    if case.startswith("schur-"):
        return [schur_channel(int(case[6:]), float(t)) for t in np.linspace(0.0, 0.5, 201)]
    entry = FAMILY_PRESETS[case]
    fam = entry["build"]()
    lo, hi = fam.t_domain
    offsets = STENCIL_WIDTH * (hi - lo) * np.array([-1.0, -0.1, 0.0, 0.1, 1.0])
    times = np.clip(np.linspace(*entry["default_grid"])[:, None] + offsets, lo, hi)
    return [fam.channel(float(t)) for t in times.ravel()]


@pytest.mark.parametrize("case", ["schur-8", "schur-12", "schur-16", "unitary", "generic-noncp"])
def test_kraus_superoperator_is_bitwise_the_full_gram_build(case):
    """kraus_to_super multiplies only the occupied columns of F, and the
    result equals the full F^H F route bit for bit, signs of zero included.
    Schur witness_t is an argmax of slopes that differ by rounding alone, so
    one ulp here could move it; a Gram product sent to syrk rounds
    differently and fails this."""
    for ch in _kraus_members(case):
        want = kraus_to_super_full(ch.kraus)
        assert ch.super.dtype == want.dtype and ch.super.shape == want.shape
        assert ch.super.tobytes() == want.tobytes(), "differs from the full Gram build"


@pytest.mark.parametrize("d", [1, 2, 3, 4, 16])
def test_hp_deviation_is_bitwise_the_plain_difference(d):
    """Channel.hp_deviation gives the plain expression's float bit for bit
    on real and complex superoperators that are HP, nearly HP or far from
    it, and NaN for a superoperator with a NaN entry."""
    rng = np.random.default_rng(d)
    shape = (d * d, d * d)
    for _ in range(4):
        for s in (rng.normal(size=shape), rng.normal(size=shape) + 1j * rng.normal(size=shape)):
            s4 = s.reshape((d,) * 4)
            hp = ((s4 + s4.transpose(1, 0, 3, 2).conj()) / 2).reshape(d * d, d * d)
            for m in (s, hp, hp + 1e-12 * s):
                got = Channel(d, super_matrix=m).hp_deviation()
                assert np.float64(got).tobytes() == np.float64(hp_deviation_by_difference(m, d)).tobytes()
            assert Channel(d, super_matrix=hp).hp_deviation() == 0.0
            bad = s.copy()
            bad[0, -1] = np.nan
            assert np.isnan(Channel(d, super_matrix=bad).hp_deviation())


def test_real_input_stays_float64_and_matches_the_complex_route():
    """Real Kraus operators give a float64 superoperator from kraus_to_super
    and Channel.super, a real superoperator stays float64 in a Channel, and
    stacked_apply of a real map on a real stack is float64 on d x d and on
    doubled-space operands; each agrees with the same computation on
    complex casts."""
    rng = np.random.default_rng(31)
    ks = [rng.normal(size=(3, 3)) for _ in range(3)]
    s = kraus_to_super(ks)
    s_complex = kraus_to_super([k.astype(complex) for k in ks])
    assert s.dtype == np.float64
    assert np.max(np.abs(s - s_complex)) <= 1e-12
    assert Channel(3, kraus=ks).super.dtype == np.float64
    assert Channel(3, super_matrix=s).super.dtype == np.float64
    assert np.max(np.abs(Channel(3, kraus=ks).super - s_complex)) <= 1e-12
    for stack in (rng.normal(size=(4, 3, 3)), rng.normal(size=(4, 9, 9))):
        out = stacked_apply(s, 3, stack)
        assert out.dtype == np.float64
        want = stacked_apply(s_complex, 3, stack.astype(complex))
        assert np.max(np.abs(out - want)) <= 1e-12


def test_apply_keeps_real_operands_real():
    """A real map on a real operand is applied in float64, whether the map
    was given as Kraus operators or as a superoperator, and agrees with the
    same application on complex casts."""
    rng = np.random.default_rng(33)
    ks = [rng.normal(size=(3, 3)) for _ in range(2)]
    x = rng.normal(size=(3, 3))
    x = x + x.T
    want = sum(k.astype(complex) @ x.astype(complex) @ k.T for k in ks)
    for ch in (kraus_channel(ks), super_channel(kraus_to_super(ks), 3)):
        out = ch.apply(x)
        assert out.dtype == np.float64
        assert np.max(np.abs(out - want)) <= 1e-12
        via_complex = unvec(ch.super.astype(complex) @ vec(x.astype(complex)), 3)
        assert np.max(np.abs(out - via_complex)) <= 1e-12


def test_complex_or_mixed_input_stays_complex():
    rng = np.random.default_rng(32)
    real = rng.normal(size=(3, 3))
    cplx = real + 1j * rng.normal(size=(3, 3))
    assert kraus_to_super([real, cplx]).dtype == complex
    assert Channel(3, kraus=[real, cplx]).super.dtype == complex
    assert Channel(3, super_matrix=kraus_to_super([cplx])).super.dtype == complex
    s_real, s_complex = kraus_to_super([real]), kraus_to_super([cplx])
    for dim in (3, 9):
        xs_real = rng.normal(size=(2, dim, dim))
        xs_complex = xs_real + 1j * rng.normal(size=(2, dim, dim))
        assert stacked_apply(s_real, 3, xs_complex).dtype == complex
        assert stacked_apply(s_complex, 3, xs_real).dtype == complex


def test_empty_kraus_set_is_rejected_at_construction():
    """An empty Kraus set is no channel: both constructors raise
    DimensionMismatch before any superoperator is built, saying so before
    kraus_channel's d = 0 is read as a bad dimension."""
    with pytest.raises(DimensionMismatch, match="need at least one Kraus operator"):
        kraus_channel([])
    with pytest.raises(DimensionMismatch, match="need at least one Kraus operator"):
        Channel(2, kraus=[])
    with pytest.raises(DimensionMismatch):
        Channel(2, kraus=(), super_matrix=np.eye(4))


@pytest.mark.parametrize("k", [np.float64(1.0), 1.0], ids=["numpy", "python"])
def test_zero_dimensional_kraus_operator_is_rejected(k):
    """kraus_channel reads d from its first operator's shape, so a 0-D
    operator raises DimensionMismatch naming its shape (), not numpy's
    IndexError."""
    with pytest.raises(DimensionMismatch, match=r"shape \(\)"):
        kraus_channel([k])


def test_channel_takes_exactly_one_form_on_a_positive_dimension():
    """A Kraus set certifies only the superoperator built from it: given
    both forms, the transpose map would pass as CP and HP under the
    identity's Kraus operator, so Channel raises DimensionMismatch. So it
    does for d = 0, where is_tp, hp_deviation, is_cp and inverse have no
    map to read."""
    with pytest.raises(DimensionMismatch, match="exactly one"):
        Channel(2, kraus=[np.eye(2)], super_matrix=transpose_channel(2).super)
    with pytest.raises(DimensionMismatch, match="d >= 1"):
        Channel(0, super_matrix=np.zeros((0, 0)))
    with pytest.raises(DimensionMismatch, match="d >= 1"):
        Channel(0, kraus=[np.zeros((0, 0))])


@pytest.mark.parametrize(
    "build",
    [
        lambda: Channel(2, kraus=[np.eye(3)]),
        lambda: Channel(2, kraus=[np.eye(2), np.ones((2, 3))]),
        lambda: Channel(2, super_matrix=np.eye(3)),
        lambda: Channel(2, super_matrix=np.eye(8)),
        lambda: compose(super_channel(np.eye(4), 2), super_channel(np.eye(9), 3)),
    ],
    ids=["kraus-3x3", "kraus-2x3", "super-3x3", "super-8x8", "compose-2-3"],
)
def test_operators_of_another_dimension_raise_dimension_mismatch(build):
    """A Kraus operator that is not d x d, a superoperator that is not
    d^2 x d^2, and a composition of channels on different d are typed
    errors, not a channel of the wrong size or numpy's matmul error."""
    with pytest.raises(DimensionMismatch, match="does not match d=2|dimensions differ: 2 vs 3"):
        build()


def test_non_hp_map_is_not_cp():
    """The Choi matrix of X -> X + i(X - X^T) is not Hermitian, so it is not
    PSD, though its Hermitian part is; a Choi matrix within CP_ATOL of
    Hermitian is still tested by its spectrum."""
    d = 3
    skew = np.eye(d * d) - transpose_channel(d).super
    ch = super_channel(np.eye(d * d) + 1j * skew, d)
    c = choi(ch).matrix
    assert np.linalg.eigvalsh((c + c.conj().T) / 2).min() >= -1e-12
    assert not ch.is_cp() and not choi(ch).is_psd()
    assert super_channel(np.eye(d * d) + 1e-12j * skew, d).is_cp()


def test_kraus_to_super_peak_memory_stays_near_its_output():
    """16 Kraus operators of size 16 x 16 give a 256 x 256 complex output;
    the build may not hold a temporary of r * d^4 entries on the way."""
    rng = np.random.default_rng(23)
    ks = _random_kraus(rng, 16, 16, 16)
    out_bytes = 256 * 256 * np.dtype(complex).itemsize
    kraus_to_super(ks)  # first-call allocations stay out of the measurement
    tracemalloc.start()
    try:
        s = kraus_to_super(ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.nbytes == out_bytes
    assert peak <= 3 * out_bytes, peak


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
    output_trace = np.trace(cm.matrix.reshape(3, 3, 3, 3), axis1=1, axis2=3)
    assert np.max(np.abs(output_trace - np.eye(3))) < 1e-10


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
    products = kraus_to_super([ak @ bk for ak in a.kraus for bk in b.kraus])
    assert np.max(np.abs(compose(a, b).super - products)) < 1e-12


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


def test_extension_super_matches_kron_kraus_route():
    """extend_channel(ch) applies sum_j (I (x) K_j) Y (I (x) K_j)*."""
    rng = np.random.default_rng(15)
    ch = random_cptp(3, 2, rng)
    y = random_hermitian(9, rng)
    ext = [np.kron(np.eye(3), k) for k in ch.kraus]
    direct = sum(e @ y @ e.conj().T for e in ext)
    assert extend_channel(ch).kraus is None
    assert np.max(np.abs(extend_channel(ch).apply(y) - direct)) < 1e-12
    assert np.max(np.abs(extend_channel(ch).super - kraus_to_super(ext))) < 1e-12


def test_stacked_apply_agrees_with_apply_and_extended_channel():
    """stacked_apply reads the block count m from its operands: on 3 x 3,
    6 x 6 and 9 x 9 stacks it gives the Kraus sums of K_j, I_2 (x) K_j and
    I_3 (x) K_j, and Channel.apply and the built extension agree with it."""
    rng = np.random.default_rng(17)
    ch = random_cptp(3, 2, rng)
    for m in (1, 2, 3):
        ys = np.stack([random_hermitian(3 * m, rng) for _ in range(4)])
        lifted = [np.kron(np.eye(m), k) for k in ch.kraus]
        for y, e in zip(ys, stacked_apply(ch.super, 3, ys)):
            want = sum(k @ y @ k.conj().T for k in lifted)
            assert np.max(np.abs(e - want)) < 1e-12
            assert np.max(np.abs(ch.apply(y) - want)) < 1e-12
            if m == 3:
                assert np.max(np.abs(extend_channel(ch).apply(y) - want)) < 1e-12


@pytest.mark.parametrize(
    "shape",
    [(9, 9), (2, 4, 4), (2, 8, 8), (2, 3, 6), (2, 6, 3), (2, 0, 0), (1, 2, 3, 3), ()],
    ids=["2d", "side-4", "side-8", "wide", "tall", "side-0", "4d", "scalar"],
)
def test_operand_stack_of_another_shape_raises_a_typed_error(shape):
    """At d = 3 an operand stack must be (N, 3m, 3m) with m >= 1: a 2-D or
    4-D array, a non-square stack, or a side that is not a positive
    multiple of 3 raises DimensionMismatch, not numpy's reshape error."""
    with pytest.raises(DimensionMismatch, match="operand stack shape"):
        stacked_apply(transpose_channel(3).super, 3, np.zeros(shape))


def test_extension_of_a_super_only_channel_agrees_blockwise():
    """extend_channel has one route for every channel form: for a channel
    given only by its superoperator, the built extension and the blockwise
    stacked_apply agree with unvec(S @ vec(B)) on every block B of a stack
    of doubled-space inputs."""
    rng = np.random.default_rng(16)
    ch = super_channel(random_cptp(3, 3, rng).super, 3)
    assert ch.kraus is None
    ys = np.stack([random_hermitian(9, rng) for _ in range(3)])
    ext = extend_channel(ch)
    for y, e in zip(ys, stacked_apply(ch.super, 3, ys)):
        want = _blockwise(ch.super, 3, y)
        assert np.max(np.abs(e - want)) < 1e-12
        assert np.max(np.abs(ext.apply(y) - want)) < 1e-12


class _MatmulLog(np.ndarray):
    """A superoperator that records the dtype of every stack multiplied
    into it as a matrix (v @ s.T) in `log`, and the shape of the matrix it
    multiplies by in `shapes`, then multiplies as a plain ndarray. Slices
    and transposes of it record into the same lists."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)
        self.shapes = getattr(obj, "shapes", None)

    def __rmatmul__(self, other):
        self.log.append(np.asarray(other).dtype)
        self.shapes.append(self.shape)
        return np.asarray(other) @ self.view(np.ndarray)


def _logged(s):
    out = np.asarray(s).view(_MatmulLog)
    out.log, out.shapes = [], []
    return out


def _dense_apply(s, d, ys):
    """The dense reference: one v @ s.T over the column-stacked vec of every
    d x d block of every (m d) x (m d) operand, m read from the shape."""
    n, m = len(ys), ys.shape[-1] // d
    v = ys.reshape(n, m, d, m, d).transpose(0, 1, 3, 4, 2).reshape(n * m * m, d * d)
    out = (v @ s.T).reshape(n, m, m, d, d)
    return out.transpose(0, 1, 4, 2, 3).reshape(n, m * d, m * d)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("cp", [False, True], ids=["P", "CP"])
@pytest.mark.parametrize("n", [3, 8, 16])
def test_schur_multiplier_is_applied_entrywise_with_the_matmul_bits(n, cp, kind):
    """schur_channel's superoperator is diagonal, so stacked_apply never
    multiplies it as a matrix, and the entrywise product equals the dense
    v @ s.T exactly."""
    rng = np.random.default_rng(40 + n)
    s = schur_channel(n, 0.3).super
    dim = n * n if cp else n
    ys = np.stack([random_hermitian(dim, rng) for _ in range(3)])
    if kind == "real":
        ys = ys.real.copy()
    logged = _logged(s)
    out = stacked_apply(logged, n, ys)
    assert logged.log == []
    assert out.dtype == ys.dtype
    assert np.array_equal(out, _dense_apply(s, n, ys))


def test_sparse_support_is_multiplied_on_its_rows_and_columns():
    """A diagonal superoperator plus one nonzero off-diagonal entry, and the
    transpose map, have off-diagonal support J of 2 and of 6 of the 9 vec
    positions: only S[J, J] is multiplied as a matrix (two real matmuls per
    complex stack), and the result agrees with unvec(S @ vec(.)) on every
    operand and on every block of every doubled-space operand."""
    rng = np.random.default_rng(43)
    s = schur_channel(3, 0.3).super.copy()
    s[0, 4] = 0.25
    xs = np.stack([random_hermitian(3, rng) for _ in range(4)])
    ys = np.stack([random_hermitian(9, rng) for _ in range(4)])
    for ch, size in ((super_channel(s, 3), 2), (transpose_channel(3), 6)):
        logged = _logged(ch.super)
        out = stacked_apply(logged, 3, xs)
        ext = stacked_apply(logged, 3, ys)
        assert logged.shapes == [(size, size)] * 4
        for x, o in zip(xs, out):
            assert np.max(np.abs(o - _blockwise(ch.super, 3, x))) < 1e-12
        for y, e in zip(ys, ext):
            assert np.max(np.abs(e - _blockwise(ch.super, 3, y))) < 1e-12


@st.composite
def _sparse_superoperators(draw):
    """A random d^2 x d^2 superoperator, real or complex, whose off-diagonal
    entries are nonzero at a random density (none, a few, half or all) and
    whose diagonal holds some exact zeros, with a random stack of
    (m d) x (m d) operands, real or complex, m drawn from {1, 2, d}."""
    d = draw(st.integers(1, 4))
    m = draw(st.sampled_from([1, 2, d]))
    complex_s, complex_ys = draw(st.booleans()), draw(st.booleans())
    density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def sample(shape, complex_):
        return rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_ else 0.0)

    s = sample((d * d, d * d), complex_s) * (rng.random((d * d, d * d)) < density)
    np.fill_diagonal(s, sample(d * d, complex_s) * (rng.random(d * d) < 0.8))
    return s, d, sample((draw(st.integers(1, 4)), m * d, m * d), complex_ys)


@settings(max_examples=120)
@given(_sparse_superoperators())
def test_sparse_support_route_matches_the_dense_matmul(case):
    """Whatever its off-diagonal support J, stacked_apply agrees with the
    dense v @ s.T within 1e-12 of the image's scale, keeps its dtype, and
    multiplies no matrix larger than S[J, J]: J empty takes no matmul, J
    short of all d^2 positions only |J| x |J| ones."""
    s, d, ys = case
    offdiagonal = (s != 0) & ~np.eye(d * d, dtype=bool)
    support = np.flatnonzero(offdiagonal.any(axis=0) | offdiagonal.any(axis=1))
    logged = _logged(s)
    out = stacked_apply(logged, d, ys)
    want = _dense_apply(s, d, ys)
    assert out.dtype == want.dtype
    assert np.max(np.abs(out - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    assert all(shape == (support.size, support.size) for shape in logged.shapes)
    assert bool(logged.shapes) == bool(support.size)


@pytest.mark.parametrize("cp", [False, True], ids=["P", "CP"])
@pytest.mark.parametrize("shape", [(4, 4), (16, 16), (9, 4), (81,)], ids=["d2", "d4", "rect", "vector"])
def test_superoperator_of_another_dimension_raises_a_typed_error(shape, cp):
    """An s that is not d^2 x d^2 is rejected before any operand is read,
    with DimensionMismatch rather than numpy's reshape ValueError."""
    dim = 9 if cp else 3
    with pytest.raises(DimensionMismatch, match="superoperator shape"):
        stacked_apply(np.ones(shape), 3, np.zeros((1, dim, dim)))


def test_apply_rejects_an_operand_of_another_dimension():
    """Channel.apply is a stack of one on stacked_apply's route, so an
    operand whose side is not a multiple of d, a non-square one, a vector
    or a stack raises its DimensionMismatch; a 9 x 9 operand at d = 3 is
    the doubled space, where it applies I (x) Lambda."""
    ch = transpose_channel(3)
    for x in (np.eye(2), np.eye(8), np.ones((3, 6)), np.ones(3), np.ones((2, 3, 3))):
        with pytest.raises(DimensionMismatch):
            ch.apply(x)
    y = random_hermitian(9, np.random.default_rng(46))
    assert np.array_equal(ch.apply(y), _blockwise(ch.super, 3, y))


def test_zero_superoperator_returns_zeros():
    """The zero map is diagonal; its image of any stack is +0 everywhere,
    also where an operand entry is negative and its product with 0 is -0."""
    rng = np.random.default_rng(44)
    for dim in (3, 6, 9):
        real = rng.normal(size=(2, dim, dim))
        for ys in (real, real + 1j * rng.normal(size=(2, dim, dim))):
            out = stacked_apply(np.zeros((9, 9)), 3, ys)
            assert out.shape == ys.shape and out.dtype == ys.dtype
            assert not np.any(out)
            assert not np.any(np.signbit(out.real)) and not np.any(np.signbit(out.imag))


@pytest.mark.parametrize("cp", [False, True], ids=["P", "CP"])
def test_complex_rows_of_a_real_map_take_two_real_matmuls(cp):
    """A real, non-diagonal superoperator on a complex stack multiplies only
    real matrices (the real and the imaginary parts), returns complex, and
    equals the complex-cast matmul within 1e-12."""
    rng = np.random.default_rng(45)
    s = kraus_to_super([rng.normal(size=(3, 3)) for _ in range(2)])
    assert s.dtype == np.float64
    dim = 9 if cp else 3
    ys = np.stack([random_hermitian(dim, rng) for _ in range(4)])
    logged = _logged(s)
    out = stacked_apply(logged, 3, ys)
    assert out.dtype == complex
    assert logged.log == [np.float64, np.float64]
    assert np.max(np.abs(out - _dense_apply(s.astype(complex), 3, ys))) <= 1e-12


def test_tp_deviation_reads_the_trace_defect_in_both_forms():
    rng = np.random.default_rng(19)
    ch = random_cptp(3, 2, rng)
    assert ch.tp_deviation() < 1e-12 and ch.is_tp()
    scaled = kraus_channel([np.sqrt(0.9) * k for k in ch.kraus])
    defect = float(np.max(np.abs(sum(k.conj().T @ k for k in scaled.kraus) - np.eye(3))))
    assert abs(scaled.tp_deviation() - defect) < 1e-12
    for form in (scaled, super_channel(scaled.super, 3)):
        assert abs(form.tp_deviation() - 0.1) < 1e-12
        assert not form.is_tp()
        assert form.is_tp(atol=0.2)


def test_transpose_map_is_tp_not_cp():
    tc = transpose_channel(3)
    assert tc.is_tp()
    assert not tc.is_cp()


def test_transpose_extension_detects_negativity_on_entangled_input():
    """I (x) T applied to the maximally entangled projector goes negative:
    the built extension and the blockwise stacked_apply both give its
    partial transpose, each d x d block transposed."""
    d = 3
    tc = transpose_channel(d)
    omega = np.outer(vec(np.eye(d)), vec(np.eye(d)).conj()) / d
    partial_transpose = omega.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)
    assert np.min(np.linalg.eigvalsh(partial_transpose)) < -1e-3
    out = extend_channel(tc).apply(omega)
    assert np.max(np.abs(out - partial_transpose)) < 1e-12
    stacked = stacked_apply(tc.super, d, omega[None])[0]
    assert np.max(np.abs(stacked - partial_transpose)) < 1e-12


def test_contractivity_probe_passes_cptp_channels():
    rng = np.random.default_rng(17)
    ch = random_cptp(3, 2, rng)
    out = positivity_by_contractivity(ch, n_samples=100, seed=3)
    assert out["positive_evidence"]
    assert out["witness"] is None
    assert out["n_checked"] == 100


@pytest.mark.parametrize("n_samples", [0, -1, 1.5, 2.0, "3"])
def test_contractivity_probe_without_samples_is_no_evidence(n_samples):
    """A probe that checks no operand has found nothing: it raises instead
    of reporting positive evidence with n_checked 0."""
    ch = random_cptp(3, 2, np.random.default_rng(18))
    with pytest.raises(HypothesisViolated, match="at least one sample"):
        positivity_by_contractivity(ch, n_samples=n_samples)


def test_contractivity_probe_witnesses_nonpositive_tp_map():
    # X -> (2/3)tr(X)I - X at d=3 is TP but sends projectors negative
    d = 3
    trace_block = np.outer(vec(np.eye(d)), vec(np.eye(d)).conj())
    ch = super_channel((2.0 / d) * trace_block - np.eye(d * d), d)
    assert ch.is_tp()
    out = positivity_by_contractivity(ch, n_samples=200, seed=5)
    assert not out["positive_evidence"]
    assert out["output_norm"] > out["input_norm"] + 1e-9


def test_contractivity_probe_settled_by_its_sweep_creates_no_generator(monkeypatch):
    """The idempotent-not-p intermediate map at the default pair grows the
    first basis projector (trace norm 1 -> 1.55), so the deterministic
    sweep settles the probe: it creates no random generator and returns
    the dict of an unpatched probe."""
    fam = idempotent_family_preset("idempotent-not-p", *IDEMPOTENT_BLOCKS)
    mid = intermediate_map(fam, *DESIGNATED_PAIR)["map"]
    want = positivity_by_contractivity(mid)

    def no_generator(*args, **kwargs):
        raise AssertionError("random generator created")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    got = positivity_by_contractivity(mid)
    assert not got["positive_evidence"] and got["n_checked"] == 1
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[key], want[key]) for key in want)


def _reference_probe(ch, n_samples, seed):
    """The probe one operand at a time: one Channel.apply and two trace_norm
    calls per operand, in the probe's order (the deterministic sweep, then
    random rank-1 projector differences at even and random Hermitian
    samples at odd indices). Returns the probe's dict and the sweep's
    length."""
    rng = np.random.default_rng(seed)
    d = ch.d
    eye = np.eye(d)
    swept = [np.outer(eye[i], eye[i]) for i in range(d)]
    swept += [np.diag(eye[i] - eye[j]) for i in range(d) for j in range(i + 1, d)]
    for i in range(0, d - 1, 2):
        for j in range(i + 2, d - 1, 2):
            e, f = np.zeros(d), np.zeros(d)
            e[[i, i + 1]] = f[[j, j + 1]] = 1.0
            swept.append(np.diag(e - f))
    for checked in range(n_samples):
        if checked < len(swept):
            x = swept[checked]
        elif checked % 2 == 0:
            x = random_projector_difference(d, rng)
        else:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            x = (g + g.conj().T) / 2
        nin, nout = trace_norm(x), trace_norm(ch.apply(x), atol=1e-8)
        if nout > nin + 1e-9:
            found = {"positive_evidence": False, "witness": x, "input_norm": nin, "output_norm": nout}
            return found | {"n_checked": checked + 1}, len(swept)
    empty = dict.fromkeys(["witness", "input_norm", "output_norm"])
    return empty | {"positive_evidence": True, "n_checked": n_samples}, len(swept)


def _probe_maps(d, rng):
    """Random CPTP maps (Kraus and superoperator form), transpose mixtures
    w T + (1 - w) id (positive for w in [0, 1]; otherwise they grow only on
    non-diagonal operands, so only random ones find it) and the TP map
    X -> (2/d) tr(X) I - X (non-positive for d >= 3 on the sweep's
    projectors)."""
    eye = np.eye(d * d)
    maps = {"kraus": random_cptp(d, 2, rng), "super": super_channel(random_cptp(d, 3, rng).super, d)}
    for w in (0.5, 1.3, -0.2):
        maps[f"transpose-{w}"] = super_channel(w * transpose_channel(d).super + (1 - w) * eye, d)
    maps["reduction"] = super_channel((2.0 / d) * np.outer(vec(np.eye(d)), vec(np.eye(d))) - eye, d)
    return maps


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_stacked_probe_matches_the_per_operand_loop(monkeypatch, d):
    """The probe applies its operands as at most two stacks, the sweep and
    then, only if the sweep shows no growth, the random operands: it
    agrees with the per-operand loop in evidence, n_checked and the
    witness's bits, and in the norms within 1e-12."""
    calls = []

    def counted(*args):
        calls.append(len(args[2]))
        return stacked_apply(*args)

    for name, ch in _probe_maps(d, np.random.default_rng(50 + d)).items():
        for n_samples in (1, 5, 50, 400):
            for seed in (7, 3):
                calls.clear()
                monkeypatch.setattr(divscan.channels, "stacked_apply", counted)
                got = positivity_by_contractivity(ch, n_samples=n_samples, seed=seed)
                monkeypatch.undo()
                want, n_swept = _reference_probe(ch, n_samples, seed)
                case = (name, n_samples, seed)
                assert got["positive_evidence"] == want["positive_evidence"], case
                assert got["n_checked"] == want["n_checked"], case
                swept_growth = not want["positive_evidence"] and want["n_checked"] <= n_swept
                assert len(calls) == (1 if swept_growth or n_samples <= n_swept else 2), case
                assert sum(calls) <= n_samples
                if want["witness"] is None:
                    assert got["witness"] is None and got["input_norm"] is None and got["output_norm"] is None
                    continue
                assert got["witness"].dtype == want["witness"].dtype, case
                assert np.array_equal(got["witness"], want["witness"]), case
                for key in ("input_norm", "output_norm"):
                    assert abs(got[key] - want[key]) <= 1e-12 * max(1.0, want[key]), case


def test_contractivity_probe_requires_tp():
    ch = kraus_channel([np.eye(2) * 0.5])
    with pytest.raises(HypothesisViolated):
        positivity_by_contractivity(ch)


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
