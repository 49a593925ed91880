"""Generators: the quadratic forms cz*Jz^2 + cx*Jx^2 + cy*Jy^2, each named by
its coefficient triple (cz, cx, cy), and the modulated drive with the Bessel
coefficient of its high-frequency average.

Internal convention is dimensionless: chi = 1 and time means chi*t unless a
caller converts units at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import j0 as _scipy_j0

from .dicke import ladder_values, m_values
from .errors import DomainError


@dataclass(frozen=True)
class DriveEnvelope:
    """Modulated drive Omega(t) = omega0 * cos(omega*t + phase)."""

    omega0: float
    omega: float
    phase: float = 0.0

    def __post_init__(self):
        if not self.omega > 0:
            raise DomainError(f"omega must be positive, got {self.omega}")
        if self.omega0 < 0:
            raise DomainError(f"omega0 must be nonnegative, got {self.omega0}")
        if not abs(self.phase) <= 2 * np.pi:  # far out, cos(omega*t + phase) loses omega*t to rounding
            raise DomainError(f"phase {self.phase} lies outside [-2pi, 2pi]")

    @property
    def period(self) -> float:
        return 2 * np.pi / self.omega


def drive_value(env: DriveEnvelope, t: float) -> float:
    return env.omega0 * np.cos(env.omega * t + env.phase)


def drive_integral(env: DriveEnvelope, t0: float, t1: float) -> float:
    """Exact antiderivative of the envelope over [t0, t1]."""
    r = env.omega0 / env.omega
    return r * (np.sin(env.omega * t1 + env.phase) - np.sin(env.omega * t0 + env.phase))


def bessel_j0(x: float) -> float:
    """Zeroth-order Bessel function of the first kind.

    Delegates to scipy's vetted routine; the 1e-12 absolute accuracy
    contract is pinned by tests against an independent power-series oracle.
    """
    if not np.isfinite(x):
        raise DomainError("bessel_j0 requires finite x")
    return float(_scipy_j0(x))


def alpha0(omega0_over_omega: float) -> float:
    """Mixing coefficient [1 + J0(2*omega0/omega)] / 2 of the averaged model."""
    return 0.5 * (1.0 + bessel_j0(2.0 * omega0_over_omega))


def quadratic_bands(j: float, cz: float, cx: float, cy: float) -> tuple:
    """(diagonal, band) of cz*Jz^2 + cx*Jx^2 + cy*Jy^2, built in O(dim).

    The generator couples m only to m +- 2: the diagonal is
    cz*m^2 + (cx + cy)*(j(j+1) - m^2)/2, and band entry k, coupling basis
    indices k and k+2, is (cx - cy)/4 times the ladder values of k and k+1.
    So each parity of the basis index is a real symmetric tridiagonal block.
    """
    m2 = m_values(j) ** 2
    lad = ladder_values(j)
    return cz * m2 + (cx + cy) * (j * (j + 1) - m2) / 2, (cx - cy) / 4 * lad[:-1] * lad[1:]


def matrix(j: float, cz: float, cx: float, cy: float) -> np.ndarray:
    """Dense real cz*Jz^2 + cx*Jx^2 + cy*Jy^2, assembled from quadratic_bands; a reference for tests."""
    diag, band = quadratic_bands(j, cz, cx, cy)
    return np.diag(diag) + np.diag(band, 2) + np.diag(band, -2)


@lru_cache(maxsize=8)
def quadratic_matrix(j: float, axis: str) -> np.ndarray:
    """Dense real J_axis^2; a reference for tests."""
    if axis not in ("x", "y", "z"):
        raise DomainError(f"axis must be x, y or z, got {axis!r}")
    mat = matrix(j, *(float(axis == a) for a in "zxy"))
    mat.setflags(write=False)
    return mat


def time_averaged_trig_moments(
    omega0: float, omega: float, phase: float, quadrature_points: int = 4096
) -> tuple[float, float, float]:
    """Period averages of cos^2, sin^2, and sin*cos of the accumulated
    rotation angle theta1(t) = (omega0/omega) * sin(omega*t + phase).

    Uniform midpoint quadrature over one period; spectrally accurate for
    this periodic integrand. Serves as the independent check that the
    averaged model's coefficients are the Bessel values.
    """
    if quadrature_points < 64:
        raise DomainError("need at least 64 quadrature points")
    if not omega > 0:
        raise DomainError("omega must be positive")
    period = 2 * np.pi / omega
    t = (np.arange(quadrature_points) + 0.5) * (period / quadrature_points)
    theta1 = (omega0 / omega) * np.sin(omega * t + phase)
    c, s = np.cos(theta1), np.sin(theta1)
    return (
        float(np.mean(c * c)),
        float(np.mean(s * s)),
        float(np.mean(s * c)),
    )
