"""The four-channel idempotent algebra on C^(nk) and its divisor calculus.

The Hilbert space splits into n blocks of dimension k. Four commuting TP
channels form a decreasing idempotent family (p_i p_j = p_max(i,j)):

    I : identity
    E : X -> sum_i P_i X P_i            (keep block-diagonal part)
    B : X -> sum_i (tr(P_i X)/k) P_i    (dephase inside each block)
    D : X -> (tr X / nk) I              (dephase everything)

Phi(a,b,c,d) = aI + bE + cB + dD. Its superoperator is written straight
from the four coefficients (see phi); no basis matrices are formed or kept.
Closed-form Choi spectrum, the CP condition, a necessary 2-positivity
condition, the l = 1 positivity condition, and the left-divisor
coefficients for families Lambda_t = Phi(a_t,b_t,c_t,d_t) all live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._errors import DegenerateDenominator, DimensionMismatch, HypothesisViolated, InvalidFamily
from .channels import TP_ATOL, Channel
from .divisibility import DynamicalFamily, make_dynamical_family
from .operators import vec

COEFF_ATOL = 1e-12  # sign slack of closed-form coefficients and partial sums


@dataclass(frozen=True)
class IdempotentParams:
    n: int
    k: int
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or not isinstance(self.k, (int, np.integer)):
            raise DimensionMismatch(f"need n, k >= 1 as integers, got n={self.n!r}, k={self.k!r}")
        if self.n < 1 or self.k < 1:
            raise DimensionMismatch(f"need n, k >= 1, got n={self.n}, k={self.k}")

    def coeffs(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


def phi(params: IdempotentParams) -> Channel:
    """aI + bE + cB + dD as a superoperator-backed channel (coefficients may
    be negative, so no Kraus form is attached). With M the 0/1 block mask,
    E is the Schur multiplier by M, so aI + bE is the diagonal a + b vec(M);
    B and D act only between the vec positions j(nk+1) of X's diagonal,
    where they add c/k on M's support and d/(nk) everywhere.
    """
    n, k = params.n, params.k
    a, b, c, d = params.coeffs()
    blocks = np.arange(n * k) // k
    mask = (blocks[:, None] == blocks).astype(float)
    s = np.diag(a + b * vec(mask))
    sub = s[:: n * k + 1, :: n * k + 1]  # a view: rows and columns j(nk+1)
    # terms added in the order a, b, c, d with 1/k and 1/(nk) rounded first:
    # each entry is the float sum of a S_I + b S_E + c S_B + d S_D
    sub += (c * (1.0 / k)) * mask
    sub += d * (1.0 / (n * k))
    return Channel(d=n * k, super_matrix=s)


def choi_spectrum_closed_form(params: IdempotentParams):
    """Choi spectrum of Phi(a,b,c,d) as four (eigenvalue, multiplicity) pairs:

        nk a + k b + c/k + d/(nk)   x 1
        k b + c/k + d/(nk)          x (n-1)
        c/k + d/(nk)                x n(k^2-1)
        d/(nk)                      x nk^2(n-1)

    Multiplicities sum to (nk)^2.
    """
    n, k = params.n, params.k
    a, b, c, d = params.coeffs()
    tail = c / k + d / (n * k)
    return [
        (n * k * a + k * b + tail, 1),
        (k * b + tail, n - 1),
        (tail, n * (k * k - 1)),
        (d / (n * k), n * k * k * (n - 1)),
    ]


def cp_condition(params: IdempotentParams, atol: float = COEFF_ATOL) -> bool:
    """CP iff all four closed-form Choi eigenvalues are nonnegative."""
    return all(val >= -atol for val, _ in choi_spectrum_closed_form(params))


def two_positive_necessary(params: IdempotentParams, atol: float = COEFF_ATOL) -> bool:
    """Necessary conditions for 2-positivity (no converse implemented)."""
    n, k = params.n, params.k
    a, b, c, d = params.coeffs()
    tail = c / k + d / (n * k)
    return bool((2 * a + 2 * b + tail >= -atol) and (tail >= -atol) and (d >= -atol))


def l_positive_condition(params: IdempotentParams) -> bool:
    """The l = 1 case of b*||C_E||_S(l) + c + d + a*l >= 0, stated for
    a, b <= 0: with ||C_E||_S(1) = k it reads b*k + a + c + d >= 0. The
    Schmidt-rank-constrained norm for l >= 2 is not computed. Raises
    HypothesisViolated when a > 0 or b > 0.
    """
    a, b, c, d = params.coeffs()
    if a > COEFF_ATOL or b > COEFF_ATOL:
        raise HypothesisViolated(f"condition stated for a, b <= 0; got a={a}, b={b}")
    return bool(b * params.k + c + d + a >= -COEFF_ATOL)


_SUM_NAMES = ("a_s", "a_s+b_s", "a_s+b_s+c_s", "a_s+b_s+c_s+d_s")


def divisor_coeffs(a_s, b_s, c_s, d_s, a_t, b_t, c_t, d_t):
    """Closed-form left-divisor coefficients: Phi(out) . Phi(s) = Phi(t).

        alpha = a_t/a_s
        beta  = (a_s b_t - b_s a_t) / (a_s (a_s+b_s))
        gamma = ((a_s+b_s) c_t - c_s (a_t+b_t)) / ((a_s+b_s)(a_s+b_s+c_s))
        delta = ((a_s+b_s+c_s) d_t - d_s (a_t+b_t+c_t))
                 / ((a_s+b_s+c_s)(a_s+b_s+c_s+d_s))

    Raises DegenerateDenominator naming the vanished partial sum.
    """
    sums = np.cumsum((a_s, b_s, c_s, d_s), dtype=float).tolist()
    for name, val in zip(_SUM_NAMES, sums):
        if abs(val) <= COEFF_ATOL:
            raise DegenerateDenominator(f"partial sum {name} vanishes ({val:.3e})")
    s1, s2, s3, s4 = sums
    alpha = a_t / s1
    beta = (s1 * b_t - b_s * a_t) / (s1 * s2)
    gamma = (s2 * c_t - c_s * (a_t + b_t)) / (s2 * s3)
    delta = (s3 * d_t - d_s * (a_t + b_t + c_t)) / (s3 * s4)
    return (alpha, beta, gamma, delta)


def solve_left_divisor(x, z):
    """Solve p(y) p(x) = p(z) for y over a decreasing idempotent family,
    where the product has coefficients z_i = x_i Sy_i + y_i Sx_{i-1}, S the
    partial-sum operator (Sx_0 = 0).

    Triangular recursion: y_1 = z_1/x_1 and
    y_i = z_i/Sx_i - x_i Sz_{i-1} / (Sx_{i-1} Sx_i); equivalently the partial
    sums satisfy Sy_i = Sz_i / Sx_i. Requires every Sx_i nonzero.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.shape != z.shape:
        raise DimensionMismatch(f"coefficient vectors differ in length: {x.shape} vs {z.shape}")
    sx = np.cumsum(x)
    for i, val in enumerate(sx):
        if abs(val) <= COEFF_ATOL:
            raise DegenerateDenominator(f"partial sum of x through index {i} vanishes ({val:.3e})")
    sz = np.cumsum(z)
    y = np.empty_like(x)
    y[0] = z[0] / x[0]
    for i in range(1, len(x)):
        y[i] = z[i] / sx[i] - x[i] * sz[i - 1] / (sx[i - 1] * sx[i])
    return y


def make_family(coeff_fns, n: int, k: int, t_domain, name: str = "",
                witnesses=(), cp_witnesses=()) -> DynamicalFamily:
    """Family Lambda_t = Phi(a_t, b_t, c_t, d_t) on C^(nk).

    coeff_fns maps t to the coefficient 4-tuple. Validity at construction:
    coefficients sum to 1 (TP) and the CP condition holds at each of 41 grid
    points; InvalidFamily carries the first offending t.
    """
    lo, hi = float(t_domain[0]), float(t_domain[1])
    for t in np.linspace(lo, hi, 41):
        a, b, c, d = coeff_fns(float(t))
        if abs(a + b + c + d - 1.0) > TP_ATOL:
            raise InvalidFamily(f"coefficients do not sum to 1 at t={t}", t=float(t))
        if not cp_condition(IdempotentParams(n, k, a, b, c, d)):
            raise InvalidFamily(f"CP condition fails at t={t}", t=float(t))

    def channel_at(t: float) -> Channel:
        a, b, c, d = coeff_fns(t)
        return phi(IdempotentParams(n, k, a, b, c, d))

    return make_dynamical_family(
        channel_at,
        d=n * k,
        t_domain=(lo, hi),
        name=name or f"idempotent(n={n},k={k})",
        witnesses=witnesses,
        cp_witnesses=cp_witnesses,
        validate=False,  # already validated through the closed forms above
    )


def _row(n: int, k: int, coeffs) -> dict:
    """The conditions on the divisor Phi(coeffs) at n blocks of dimension
    k: CP, the necessary 2-positivity conditions, and the l = 1 condition
    within the a, b <= 0 hypothesis (None outside it)."""
    div = IdempotentParams(n, k, *coeffs)
    l1 = l_positive_condition(div) if div.a <= COEFF_ATOL and div.b <= COEFF_ATOL else None
    return {"n": int(n), "alpha": div.a, "beta": div.b, "gamma": div.c, "delta": div.d,
            "cp": cp_condition(div), "two_positive": two_positive_necessary(div), "l1": l1}


def classify_regime(n: int, k: int, s_coeffs, t_coeffs) -> str:
    """Divisor-based regime label for the step s -> t.

    'CP' when the divisor meets the CP condition; within the a,b <= 0
    hypothesis, 'P-not-CP' when k*beta + alpha + gamma + delta >= 0 and
    'not-P' when it is negative; 'undetermined' otherwise.
    """
    row = _row(n, k, divisor_coeffs(*s_coeffs, *t_coeffs))
    if row["cp"]:
        return "CP"
    if row["l1"] is None:
        return "undetermined"
    return "P-not-CP" if row["l1"] else "not-P"


def truncation_report(s_coeffs, t_coeffs, k: int, n_list):
    """Divisor conditions as the number of blocks grows (fixed k): the finite
    stand-in for the infinite-dimensional limit. Divisor coefficients do not
    depend on n; the positivity conditions do."""
    coeffs = divisor_coeffs(*s_coeffs, *t_coeffs)
    return [_row(n, k, coeffs) for n in n_list]
