"""Named dynamical-family presets for the CLI and the test suite.

Family presets (P/CP scannable):

* unitary            conjugation by a one-parameter unitary group; both
                     trace-norm derivatives vanish identically
* generic-noncp      three-Kraus mixing family on C^4 whose doubled-space
                     witness grows linearly with slope 4
* idempotent-cp      smooth coefficient decay; every divisor is CP
* idempotent-p-not-cp  coefficient jump at t0=0.5 engineered so every divisor
                     is a positive map but the cross-jump divisor is not CP
* idempotent-not-p   harder jump; the cross-jump divisor is not even positive
                     and a diagonal witness grows
* schur              tridiagonal entrywise-product family (not P-divisible)

Gaussian presets (determinant criterion):

* dilation-2x1       two-mode symplectic dilation, keep one mode; det X_t
                     changes slope sign at t = 1
* dilation-3x2       three-mode dilation, keep two; the printed input factors
                     fail symplectic validation, which the pipeline reports

The idempotent jump designs: with partial sums s1 = a, s2 = a+b, s3 = a+b+c,
the divisor for s -> t has coefficients built from the ratios s_i(t)/s_i(s).
s1(t) = 0.1*max(1-2t, 0) hits zero exactly at the jump point, so cross-jump
divisors have alpha = 0 and block-level positivity can be certified in closed
form. A smooth sign change of s2 would instead force divergent divisor
coefficients near the crossing; the jump is what makes the regime reachable.
"""

from __future__ import annotations

import numpy as np

from ._errors import DimensionMismatch
from .channels import Channel, choi, inverse, stacked_apply

# Not called here; perfbench/tracing.py wraps it under this name.
from .channels import extend_channel  # noqa: F401
from .divisibility import DynamicalFamily, make_dynamical_family
from .gaussian import GaussianFamily, block_r, dilate, dilation_report
from .idempotent import IdempotentParams, divisor_coeffs, make_family, phi
from .schur import make_schur_family


def default_pair(domain) -> tuple[float, float]:
    """The points at 25% and 75% of the domain: the time pair `idempotent`
    and `intermediate` read when no --pair is given."""
    lo, hi = domain
    return lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)


T_JUMP = 0.5
IDEMPOTENT_DOMAIN = (0.0, 1.0)
DESIGNATED_PAIR = default_pair(IDEMPOTENT_DOMAIN)  # where the CP witnesses are built
IDEMPOTENT_BLOCKS = (2, 2)  # (n, k): every idempotent preset acts on n blocks of size k


# ---------------------------------------------------------------- unitary

def unitary_family() -> DynamicalFamily:
    """Lambda_t(X) = U_t X U_t* on C^4, t in [0, 2], for U_t = exp(-i t H)
    with a fixed random H (seed 5)."""
    d = 4
    rng = np.random.default_rng(5)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2
    w, v = np.linalg.eigh(h)

    def channel_at(t: float) -> Channel:
        u = (v * np.exp(-1j * w * t)) @ v.conj().T
        return Channel(d=d, kraus=[u])

    return make_dynamical_family(channel_at, d=d, t_domain=(0.0, 2.0), name="unitary")


# ----------------------------------------------------------- generic-noncp

def _mix_kraus(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Swap-plus-projection Kraus triple on C^d (d >= 2): a swap of the first
    two basis states and two rank-structured operators on that 2-space, all
    padded with the identity on the remaining d-2 dimensions."""
    e1 = np.eye(d)
    e1[[0, 1]] = e1[[1, 0]]
    e2 = np.eye(d)
    e2[:2, :2] = np.array([[1.0, 1.0], [1.0, 1.0]]) / np.sqrt(2)
    e3 = np.eye(d)
    e3[:2, :2] = np.array([[-1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    return e1, e2, e3


def paired_difference_witness(d: int) -> np.ndarray:
    """psi psi* - phi phi* on C^d (x) C^d with psi = |00> + |11> and
    phi = |01> + |10> (unnormalized)."""
    psi = np.zeros(d * d)
    psi[0] = psi[d + 1] = 1.0
    ph = np.zeros(d * d)
    ph[1] = ph[d] = 1.0
    return np.outer(psi, psi) - np.outer(ph, ph)


def generic_noncp_family() -> DynamicalFamily:
    """Mixing weights (t, (1-t)/2, (1-t)/2) over the Kraus triple on C^4;
    CPTP on [0, 1], with ||(I (x) Lambda_t)(Y)||_1 = 4t for the
    paired-difference witness, hence never CP-divisible on (0, 1)."""
    d = 4
    e1, e2, e3 = _mix_kraus(d)

    def channel_at(t: float) -> Channel:
        return Channel(d=d, kraus=[np.sqrt(t) * e1, np.sqrt((1 - t) / 2) * e2, np.sqrt((1 - t) / 2) * e3])

    return make_dynamical_family(
        channel_at,
        d=d,
        t_domain=(0.0, 1.0),
        name="generic-noncp",
        cp_witnesses=(paired_difference_witness(d),),
    )


# ------------------------------------------------------- idempotent presets

def _coeffs_from_sums(s1: float, s2: float, s3: float):
    return (s1, s2 - s1, s3 - s2, 1.0 - s3)


def _jump_sums(s2_after: float):
    """Partial sums that jump at T_JUMP, s2 falling from 0.15 to s2_after."""

    def sums(t: float):
        s1 = 0.1 * max(1.0 - 2.0 * t, 0.0)
        return (s1, 0.15, 0.6) if t < T_JUMP else (s1, s2_after, 0.54)

    return sums


def cp_sums(t: float):
    return np.exp(-3.0 * t), np.exp(-2.0 * t), np.exp(-1.0 * t)


_IDEMPOTENT_SUMS = {
    "idempotent-cp": cp_sums,
    "idempotent-p-not-cp": _jump_sums(-0.075),
    "idempotent-not-p": _jump_sums(-0.225),
}


def idempotent_coeff_fns(kind: str):
    sums = _IDEMPOTENT_SUMS[kind]
    return lambda t: _coeffs_from_sums(*sums(t))


def _choi_negative_witness(n: int, k: int, s_coeffs, t_coeffs) -> np.ndarray:
    """Doubled-space witness for a non-CP divisor: take the most negative
    eigenvector v of the divisor's Choi matrix and pull v v* back through
    (I (x) Lambda_s)^{-1}, applied blockwise. At time s its image is PSD with
    trace norm 1; at time t the image is (I (x) divisor)(v v*), which has a
    negative part, so the norm exceeds 1 and the scan sees growth."""
    alpha, beta, gamma, delta = divisor_coeffs(*s_coeffs, *t_coeffs)
    div_choi = choi(phi(IdempotentParams(n, k, alpha, beta, gamma, delta))).matrix
    vals, vecs = np.linalg.eigh(div_choi)
    v = vecs[:, 0]  # most negative direction
    vv = np.outer(v, v.conj())
    lam_s_inv = inverse(phi(IdempotentParams(n, k, *s_coeffs)))
    y = stacked_apply(lam_s_inv.super, n * k, vv[None])[0]
    return (y + y.conj().T) / 2


def idempotent_family_preset(kind: str, n: int, k: int) -> DynamicalFamily:
    """The idempotent family `kind` on C^(nk). DimensionMismatch for
    idempotent-not-p at n < 1 or k < 2, where its canonical witness
    E_00 - E_11 does not fit in one k x k block (at k = 1 the family is CP)."""
    if kind == "idempotent-not-p" and (n < 1 or k < 2):
        raise DimensionMismatch(
            f"idempotent-not-p needs n >= 1 and k >= 2 for its witness E_00 - E_11 in one block, got n={n}, k={k}"
        )
    fns = idempotent_coeff_fns(kind)
    cp_witnesses = ()
    if kind in ("idempotent-p-not-cp", "idempotent-not-p"):
        s, t = DESIGNATED_PAIR
        cp_witnesses = (_choi_negative_witness(n, k, fns(s), fns(t)),)
    witnesses = ()
    if kind == "idempotent-not-p":
        w = np.zeros((n * k, n * k))
        w[0, 0], w[1, 1] = 1.0, -1.0  # same-block diagonal difference
        witnesses = (w,)
    return make_family(
        fns, n, k, IDEMPOTENT_DOMAIN, name=kind, witnesses=witnesses, cp_witnesses=cp_witnesses
    )


# --------------------------------------------------------- gaussian presets

_SQ2 = np.sqrt(2.0)
_SQ3 = np.sqrt(3.0)

# two-mode dilation factors: a balanced mixer with antisymmetric coupling and
# a correlated two-mode rotation
_DIL2_R1 = block_r(np.eye(2) / _SQ2, np.array([[0.0, 1.0], [-1.0, 0.0]]) / _SQ2)
_DIL2_R2 = block_r(np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([[0.5, -0.5], [-0.5, 0.5]]))


def _dil2_t(t: float) -> np.ndarray:
    return np.diag([1.0, t, 1.0, 1.0 / t])


# three-mode dilation factors
_DIL3_R1 = block_r(
    np.array(
        [
            [1.0, 1.0, 1.0],
            [1.0, -_SQ3 / 2, -_SQ3 / 2],
            [1.0, -_SQ3 / 2, -_SQ3 / 2],
        ]
    )
    / _SQ3,
    np.array(
        [
            [0.0, 0.0, 0.0],
            [0.0, 0.5, -0.5],
            [0.0, -0.5, 0.5],
        ]
    )
    / _SQ3,
)
_DIL3_R2 = block_r(
    np.array(
        [
            [1.0 / _SQ2, 1.0 / _SQ2, 0.0],
            [1.0 / _SQ2, 1.0 / _SQ2, 0.0],
            [0.0, 0.0, 1.0],
        ]
    ),
    np.array(
        [
            [1.0, -1.0, 0.0],
            [-1.0, 1.0, 0.0],
            [0.0, 0.0, 0.0],
        ]
    )
    / _SQ2,
)


def _dil3_t(t: float) -> np.ndarray:
    return np.diag([1.0, t, t * t, 1.0, 1.0 / t, 1.0 / (t * t)])


GAUSSIAN_PRESETS = {
    "dilation-2x1": {
        "factors": lambda t: (_DIL2_R1, _dil2_t(t), _DIL2_R2),
        "m_keep": 1,
        "t_domain": (0.05, 5.0),
        "default_grid": (1.1, 3.0, 20),
    },
    "dilation-3x2": {
        "factors": lambda t: (_DIL3_R1, _dil3_t(t), _DIL3_R2),
        "m_keep": 2,
        "t_domain": (0.05, 5.0),
        "default_grid": (0.1, 2.0, 20),
    },
}


def gaussian_pair_at(preset: str, t: float) -> dict:
    cfg = GAUSSIAN_PRESETS[preset]
    r1, tt, r2 = cfg["factors"](t)
    return dilation_report(r1, tt, r2, cfg["m_keep"])


def gaussian_family(preset: str) -> GaussianFamily:
    """The preset's dilated pairs (X_t, Y_t) as a family on its kept modes;
    each pair is extracted from the dilation, and only GaussianFamily.pair's
    member checks run: the pair's validity is reported, not checked."""
    cfg = GAUSSIAN_PRESETS[preset]
    factors, m_keep = cfg["factors"], cfg["m_keep"]
    return GaussianFamily(m_keep, lambda t: dilate(*factors(t), m_keep)[1], cfg["t_domain"], preset)


# A family preset: "build" makes it (from a size n if "takes_n") to scan on
# "default_grid"; an idempotent one adds what its closed forms read.
def _idempotent_entry(kind: str) -> dict:
    return {
        "build": lambda: idempotent_family_preset(kind, *IDEMPOTENT_BLOCKS),
        "default_grid": (0.05, 0.95, 19),
        "blocks": IDEMPOTENT_BLOCKS,
        "coeff_fns": idempotent_coeff_fns(kind),
        "t_domain": IDEMPOTENT_DOMAIN,
    }


IDEMPOTENT_PRESETS = {kind: _idempotent_entry(kind) for kind in _IDEMPOTENT_SUMS}
SCHUR_PRESET = {"build": lambda n=8: make_schur_family(n), "default_grid": (0.05, 0.45, 41), "takes_n": True}

FAMILY_PRESETS = {
    "unitary": {"build": unitary_family, "default_grid": (0.1, 1.9, 19)},
    "generic-noncp": {"build": generic_noncp_family, "default_grid": (0.1, 0.9, 17)},
    **IDEMPOTENT_PRESETS,
    "schur": SCHUR_PRESET,
}


def list_presets() -> list[str]:
    return sorted(list(FAMILY_PRESETS) + list(GAUSSIAN_PRESETS))
