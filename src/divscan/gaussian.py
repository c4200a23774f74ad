"""Covariance-level Gaussian channels, symplectic dilations, and the
determinant criterion for P-divisibility.

Phase-space ordering is qq..pp throughout: the symplectic form is
J = [[0, I_m], [-I_m, 0]]. A channel is the pair (X, Y) acting on covariance
matrices as S -> X S X^T + Y/2, valid iff the Hermitian matrix
Y - i(J - X^T J X) is PSD. A state covariance S is valid iff 2S + iJ is PSD.

For a P-divisible family with invertible X_t, det X_t cannot increase; the
scan flags any grid point where its central-difference derivative is
positive. The scalar stand-in for the trace norm of a displaced-operator
image is phi(0,0) * det X_t, so the same slope machinery applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._errors import (
    DimensionMismatch,
    InvalidChannel,
    InvalidDilation,
    InvalidFamily,
    InvalidState,
    NotSymplectic,
    SingularX,
)

VALID_ATOL = 1e-9


def jmat(m: int) -> np.ndarray:
    j = np.zeros((2 * m, 2 * m))
    j[:m, m:] = np.eye(m)
    j[m:, :m] = -np.eye(m)
    return j


def symplectic_deviation(r: np.ndarray) -> float:
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1] or r.shape[0] % 2:
        raise DimensionMismatch(f"expected a square even-dimensional matrix, got {r.shape}")
    j = jmat(r.shape[0] // 2)
    return float(np.max(np.abs(r @ j @ r.T - j)))


def is_symplectic(r: np.ndarray, atol: float = VALID_ATOL) -> bool:
    return symplectic_deviation(r) <= atol


def block_r(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Embed a mode-space pair into phase space: [[X, Y], [-Y, X]]."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.block([[x, y], [-y, x]])


def squeeze_diag(s) -> np.ndarray:
    """diag(s_1..s_m, 1/s_1..1/s_m); symplectic for any nonzero s_i."""
    s = np.asarray(s, dtype=float)
    return np.diag(np.concatenate([s, 1.0 / s]))


def planar_rotation(m: int, i: int, j: int, theta: float) -> np.ndarray:
    """Orthogonal rotation of modes i, j applied identically to q and p;
    [[O, 0], [0, O]] is symplectic for orthogonal O."""
    o = np.eye(m)
    c, s = np.cos(theta), np.sin(theta)
    o[i, i] = o[j, j] = c
    o[i, j], o[j, i] = -s, s
    z = np.zeros((m, m))
    return np.block([[o, z], [z, o]])


def random_symplectic(m: int, rng: np.random.Generator, n_factors: int = 6) -> np.ndarray:
    """Product of random planar rotations and squeezers."""
    r = np.eye(2 * m)
    for _ in range(n_factors):
        if m >= 2 and rng.random() < 0.5:
            i, j = rng.choice(m, size=2, replace=False)
            r = r @ planar_rotation(m, int(i), int(j), float(rng.uniform(0, 2 * np.pi)))
        else:
            r = r @ squeeze_diag(np.exp(rng.uniform(-0.5, 0.5, size=m)))
    return r


@dataclass(frozen=True)
class GaussianPair:
    """Channel (X, Y) on m modes; Y symmetric."""

    m: int
    x: np.ndarray
    y: np.ndarray

    def validity_matrix(self) -> np.ndarray:
        j = jmat(self.m)
        return self.y.astype(complex) - 1j * (j - self.x.T @ j @ self.x)

    def min_validity_eig(self) -> float:
        v = self.validity_matrix()
        return float(np.linalg.eigvalsh((v + v.conj().T) / 2).min())

    def is_valid(self, atol: float = VALID_ATOL) -> bool:
        return self.min_validity_eig() >= -atol


def make_pair(x: np.ndarray, y: np.ndarray, check: bool = True, atol: float = VALID_ATOL) -> GaussianPair:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] % 2:
        raise DimensionMismatch(f"X, Y must share a square even shape; got {x.shape}, {y.shape}")
    if np.max(np.abs(y - y.T)) > 1e-9:
        raise InvalidChannel("Y must be symmetric")
    pair = GaussianPair(m=x.shape[0] // 2, x=x, y=(y + y.T) / 2)
    if check and not pair.is_valid(atol=atol):
        raise InvalidChannel(
            f"validity matrix has min eigenvalue {pair.min_validity_eig():.3e}"
        )
    return pair


def is_valid_state(s_cov: np.ndarray, atol: float = VALID_ATOL) -> bool:
    s_cov = np.asarray(s_cov, dtype=float)
    m = s_cov.shape[0] // 2
    h = 2 * s_cov.astype(complex) + 1j * jmat(m)
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2).min()) >= -atol


def apply_to_covariance(pair: GaussianPair, s_cov: np.ndarray, check: bool = True) -> np.ndarray:
    """S -> X S X^T + Y/2."""
    s_cov = np.asarray(s_cov, dtype=float)
    if s_cov.shape != pair.x.shape:
        raise DimensionMismatch(f"covariance shape {s_cov.shape} vs channel {pair.x.shape}")
    if check:
        if not pair.is_valid():
            raise InvalidChannel("channel pair fails the validity inequality")
        if not is_valid_state(s_cov):
            raise InvalidState("input covariance fails 2S + iJ >= 0")
    return pair.x @ s_cov @ pair.x.T + pair.y / 2


def _keep_env_indices(m_total: int, m_keep: int):
    keep = list(range(m_keep)) + list(range(m_total, m_total + m_keep))
    env = list(range(m_keep, m_total)) + list(range(m_total + m_keep, 2 * m_total))
    return keep, env


def dilation_report(r1, t, r2, m_keep: int, atol: float = VALID_ATOL) -> dict:
    """Run the dilation pipeline without raising: L = R1 T R2 in qq..pp
    ordering, keep the first m_keep modes, environment in the vacuum-like
    state (1/2) I. Returns the extracted pair plus every validation flag so
    defective inputs are reported rather than fatal."""
    r1 = np.asarray(r1, dtype=float)
    t = np.asarray(t, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    m_total = r1.shape[0] // 2
    if not 1 <= m_keep <= m_total:
        raise DimensionMismatch(f"need 1 <= m_keep <= {m_total}, got {m_keep}")
    devs = {
        "R1": symplectic_deviation(r1),
        "T": symplectic_deviation(t),
        "R2": symplectic_deviation(r2),
    }
    l_full = r1 @ t @ r2
    keep, env = _keep_env_indices(m_total, m_keep)
    x = l_full[np.ix_(keep, keep)]
    l12 = l_full[np.ix_(keep, env)]
    pair = GaussianPair(m=m_keep, x=x, y=l12 @ l12.T)
    return {
        "pair": pair,
        "L": l_full,
        "deviations": devs,
        "symplectic": {name: dev <= atol for name, dev in devs.items()},
        "pair_valid": pair.is_valid(atol=atol),
        "validity_min_eig": pair.min_validity_eig(),
    }


def dilation_channel(r1, t, r2, m_keep: int, atol: float = VALID_ATOL) -> GaussianPair:
    """Strict form of the dilation: raises NotSymplectic naming the first
    offending factor, and InvalidDilation when the extracted pair violates
    the validity inequality."""
    rep = dilation_report(r1, t, r2, m_keep, atol=atol)
    for name in ("R1", "T", "R2"):
        if not rep["symplectic"][name]:
            raise NotSymplectic(
                f"{name} is not symplectic (max deviation {rep['deviations'][name]:.3e})",
                factor=name,
                deviation=rep["deviations"][name],
            )
    if not rep["pair_valid"]:
        raise InvalidDilation(
            f"extracted pair violates validity (min eigenvalue {rep['validity_min_eig']:.3e})"
        )
    return rep["pair"]


@dataclass
class GaussianFamily:
    m: int
    generator: object  # t -> GaussianPair
    t_domain: tuple[float, float]
    name: str = ""

    def pair(self, t: float) -> GaussianPair:
        return self.generator(t)


def make_gaussian_family(generator, m: int, t_domain, name: str = "", grid_points: int = 9,
                         validate: bool = True, atol: float = VALID_ATOL) -> GaussianFamily:
    fam = GaussianFamily(m=m, generator=generator, t_domain=(float(t_domain[0]), float(t_domain[1])), name=name)
    if validate:
        for t in np.linspace(fam.t_domain[0], fam.t_domain[1], grid_points):
            p = fam.pair(float(t))
            if not p.is_valid(atol=atol):
                raise InvalidFamily(
                    f"{name or 'gaussian family'} pair invalid at t={t} "
                    f"(min eigenvalue {p.min_validity_eig():.3e})",
                    t=float(t),
                )
    return fam


def det_x(fam: GaussianFamily, t: float) -> float:
    return float(np.linalg.det(fam.pair(t).x))


def det_criterion_scan(fam: GaussianFamily, grid, h: float | None = None,
                       tau_slope: float = 1e-6, det_floor: float = 1e-12) -> list[dict]:
    """Central-difference derivative of det X_t over the grid.

    violation=True where the derivative exceeds tau_slope (a P-divisible
    family with invertible X_t cannot have increasing determinant). Raises
    SingularX when |det| falls below det_floor anywhere on the stencil.
    """
    grid = np.asarray(grid, dtype=float)
    if h is None:
        span = float(grid[-1] - grid[0]) if len(grid) > 1 else 1.0
        h = 1e-4 * span
    rows = []
    for t in grid:
        t = float(t)
        dets = {tau: det_x(fam, tau) for tau in (t - h, t, t + h)}
        for tau, dv in dets.items():
            if abs(dv) <= det_floor:
                raise SingularX(f"det X_t = {dv:.3e} at t={tau}; criterion needs invertible X_t")
        ddet = (dets[t + h] - dets[t - h]) / (2 * h)
        rows.append({"t": t, "det": dets[t], "ddet": ddet, "violation": bool(ddet > tau_slope)})
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
