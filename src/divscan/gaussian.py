"""Covariance-level Gaussian channels, symplectic dilations, and the
determinant criterion for P-divisibility.

Phase-space ordering is qq..pp throughout: the symplectic form is
J = [[0, I_m], [-I_m, 0]]. A channel is the pair (X, Y) acting on covariance
matrices as S -> X S X^T + Y/2, valid iff the Hermitian matrix
Y + i(J - X J X^T) is PSD (Heinosaari, Holevo & Wolf, QIC 10, 619 (2010)).
A state covariance S is valid iff 2S + iJ is PSD. A dilation R1 T R2 is
checked by dilation_report, which flags a factor that is not symplectic and
a pair that is not valid, and raises on neither.

The determinant scan flags each grid point where the central-difference
slope of det X_t exceeds tau_slope and det X_t rose over the stencil by
more than its rounding bound, the rule of the P/CP scans. A flag is not a proof: det X_t = e^t
rises along the CP-divisible one-mode amplifier X_t = e^{t/2} I,
Y_t = (e^t - 1) I, which is flagged everywhere. ROADMAP item 1 settles this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._errors import DimensionMismatch, InvalidChannel, InvalidFamily, InvalidState, SingularX
from .divisibility import STENCIL_WIDTH, _check_stencil, _check_time, _rose, central_difference
from .operators import TAU_SLOPE

VALID_ATOL = 1e-9
DET_FLOOR = 1e-12  # |det X_t| at or below this: X_t counts as singular


def _mode_count(names: str, *arrays) -> int:
    """m >= 1 for arrays that share one 2m x 2m shape; DimensionMismatch
    otherwise."""
    shapes = [np.shape(a) for a in arrays]
    m = shapes[0][0] // 2 if len(shapes[0]) == 2 else 0
    if m < 1 or any(shape != (2 * m, 2 * m) for shape in shapes):
        got = ", ".join(map(str, shapes))
        raise DimensionMismatch(f"{names}: expected one 2m x 2m shape with m >= 1, got {got}")
    return m


def jmat(m: int) -> np.ndarray:
    j = np.zeros((2 * m, 2 * m))
    j[:m, m:] = np.eye(m)
    j[m:, :m] = -np.eye(m)
    return j


def symplectic_deviation(r: np.ndarray) -> float:
    r = np.asarray(r, dtype=float)
    j = jmat(_mode_count("R", r))
    return float(np.max(np.abs(r @ j @ r.T - j)))


def block_r(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Embed a mode-space pair into phase space: [[X, Y], [-Y, X]]."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.block([[x, y], [-y, x]])


@dataclass(frozen=True)
class GaussianPair:
    """Channel (X, Y) on m modes; Y symmetric."""

    m: int
    x: np.ndarray
    y: np.ndarray

    def validity_matrix(self) -> np.ndarray:
        j = jmat(self.m)
        return self.y.astype(complex) + 1j * (j - self.x @ j @ self.x.T)

    def min_validity_eig(self) -> float:
        v = self.validity_matrix()
        return float(np.linalg.eigvalsh((v + v.conj().T) / 2).min())

    def is_valid(self) -> bool:
        return self.min_validity_eig() >= -VALID_ATOL


def make_pair(x: np.ndarray, y: np.ndarray) -> GaussianPair:
    """GaussianPair(...) checked: InvalidChannel unless Y is symmetric and valid."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = _mode_count("X, Y", x, y)
    if np.max(np.abs(y - y.T)) > VALID_ATOL:
        raise InvalidChannel("Y must be symmetric")
    pair = GaussianPair(m=m, x=x, y=(y + y.T) / 2)
    if not pair.is_valid():
        raise InvalidChannel(
            f"validity matrix has min eigenvalue {pair.min_validity_eig():.3e}"
        )
    return pair


def is_valid_state(s_cov: np.ndarray) -> bool:
    s_cov = np.asarray(s_cov, dtype=float)
    h = 2 * s_cov.astype(complex) + 1j * jmat(_mode_count("S", s_cov))
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2).min()) >= -VALID_ATOL


def apply_to_covariance(pair: GaussianPair, s_cov: np.ndarray) -> np.ndarray:
    """S -> X S X^T + Y/2, for a valid pair and a valid state."""
    s_cov = np.asarray(s_cov, dtype=float)
    if s_cov.shape != pair.x.shape:
        raise DimensionMismatch(f"covariance shape {s_cov.shape} vs channel {pair.x.shape}")
    if not pair.is_valid():
        raise InvalidChannel("channel pair fails the validity inequality")
    if not is_valid_state(s_cov):
        raise InvalidState("input covariance fails 2S + iJ >= 0")
    return pair.x @ s_cov @ pair.x.T + pair.y / 2


def _keep_env_indices(m_total: int, m_keep: int):
    keep = list(range(m_keep)) + list(range(m_total, m_total + m_keep))
    env = list(range(m_keep, m_total)) + list(range(m_total + m_keep, 2 * m_total))
    return keep, env


def dilate(r1, t, r2, m_keep: int) -> tuple[np.ndarray, GaussianPair]:
    """L = R1 T R2 in qq..pp ordering and the pair (X, Y) = (L11, L12 L12^T)
    it gives on the first m_keep modes, the environment in the vacuum-like
    state (1/2) I. Checks nothing; dilation_report validates."""
    l_full = np.asarray(r1, dtype=float) @ np.asarray(t, dtype=float) @ np.asarray(r2, dtype=float)
    keep, env = _keep_env_indices(l_full.shape[0] // 2, m_keep)
    l12 = l_full[np.ix_(keep, env)]
    return l_full, GaussianPair(m=m_keep, x=l_full[np.ix_(keep, keep)], y=l12 @ l12.T)


def dilation_report(r1, t, r2, m_keep: int) -> dict:
    """Run the dilation pipeline without raising: dilate, then check each
    factor and the extracted pair. Returns the pair plus every validation
    flag so defective inputs are reported rather than fatal. Only shapes
    raise: DimensionMismatch unless R1, T and R2 share one 2m x 2m shape
    and 1 <= m_keep <= m."""
    m_total = _mode_count("R1, T, R2", r1, t, r2)
    if not 1 <= m_keep <= m_total:
        raise DimensionMismatch(f"need 1 <= m_keep <= {m_total}, got {m_keep}")
    devs = {
        "R1": symplectic_deviation(r1),
        "T": symplectic_deviation(t),
        "R2": symplectic_deviation(r2),
    }
    l_full, pair = dilate(r1, t, r2, m_keep)
    min_eig = pair.min_validity_eig()
    return {
        "pair": pair,
        "L": l_full,
        "deviations": devs,
        "symplectic": {name: dev <= VALID_ATOL for name, dev in devs.items()},
        "pair_valid": min_eig >= -VALID_ATOL,
        "validity_min_eig": min_eig,
    }


@dataclass
class GaussianFamily:
    m: int
    generator: object  # t -> GaussianPair
    t_domain: tuple[float, float]
    name: str = ""

    def pair(self, t: float) -> GaussianPair:
        _check_time(t, self.t_domain)
        return self.generator(t)


def make_gaussian_family(generator, m: int, t_domain, name: str = "") -> GaussianFamily:
    """GaussianFamily(...) checked: InvalidFamily at its first invalid pair of 9."""
    fam = GaussianFamily(m=m, generator=generator, t_domain=(float(t_domain[0]), float(t_domain[1])), name=name)
    for t in np.linspace(fam.t_domain[0], fam.t_domain[1], 9):
        p = fam.pair(float(t))
        if not p.is_valid():
            raise InvalidFamily(
                f"{name or 'gaussian family'} pair invalid at t={t} "
                f"(min eigenvalue {p.min_validity_eig():.3e})",
                t=float(t),
            )
    return fam


def det_x(fam: GaussianFamily, t: float) -> float:
    return float(np.linalg.det(fam.pair(t).x))


def det_criterion_scan(fam: GaussianFamily, grid, h: float | None = None,
                       tau_slope: float = TAU_SLOPE) -> list[dict]:
    """Central-difference derivative of det X_t over the grid; h defaults
    to STENCIL_WIDTH times the grid span, checked as in the P/CP scans.

    violation=True where it exceeds tau_slope and det X rose from t - h to
    t + h above the rounding bound of _rose, size 2m the side of X_t (not a
    proof; see above), and valid=True where the pair at t is valid. Raises
    SingularX when |det| falls to DET_FLOOR anywhere on the stencil,
    checked at t + h, t - h, then t. Each stencil time extracts one pair:
    det and valid at t share theirs.
    """
    grid = np.asarray(grid, dtype=float)
    if h is None and grid.size:
        h = STENCIL_WIDTH * float(grid.flat[-1] - grid.flat[0])
    _check_stencil(grid, h, tau_slope, fam.t_domain)

    def det(pair: GaussianPair, tau: float) -> float:
        dv = float(np.linalg.det(pair.x))
        if abs(dv) <= DET_FLOOR:
            raise SingularX(f"det X_t = {dv:.3e} at t={tau}; criterion needs invertible X_t")
        return dv

    rows = []
    for t in grid.tolist():
        up, down = det(fam.pair(t + h), t + h), det(fam.pair(t - h), t - h)
        ddet = central_difference(up, down, h)
        violation = bool(ddet > tau_slope and _rose(up, down, 2 * fam.m))
        pair = fam.pair(t)
        rows.append({"t": t, "det": det(pair, t), "ddet": ddet, "violation": violation, "valid": pair.is_valid()})
    return rows


def compose_pairs(after: GaussianPair, before: GaussianPair) -> GaussianPair:
    """(X2, Y2) . (X1, Y1) = (X2 X1, X2 Y1 X2^T + Y2)."""
    if after.m != before.m:
        raise DimensionMismatch(f"mode counts differ: {after.m} vs {before.m}")
    return GaussianPair(
        m=after.m,
        x=after.x @ before.x,
        y=after.x @ before.y @ after.x.T + after.y,
    )
