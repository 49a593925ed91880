"""Generators: the quadratic forms cz*Jz^2 + cx*Jx^2 + cy*Jy^2, each named by
its coefficient triple (cz, cx, cy), and the modulated drive with the Bessel
coefficient of its high-frequency average.

Internal convention is dimensionless: chi = 1 and time means chi*t unless a
caller converts units at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dicke import ladder_values, m_values
from .errors import DomainError


@dataclass(frozen=True)
class DriveEnvelope:
    """Modulated drive Omega(t) = omega0 * cos(omega*t + phase)."""

    omega0: float
    omega: float
    phase: float = 0.0

    def __post_init__(self):
        if not 0 < self.omega < np.inf:  # NaN fails too; an infinite omega has a zero period
            raise DomainError(f"omega must be positive and finite, got {self.omega}")
        if not 0 <= self.omega0 < np.inf:  # NaN fails too
            raise DomainError(f"omega0 must be nonnegative and finite, got {self.omega0}")
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


_J0_SINES = np.sin((np.arange(64) + 0.5) * (np.pi / 64))  # midpoint nodes of [0, pi]


def bessel_j0(x: float) -> float:
    """J0(x) for finite x. For |x| <= 25, the 64-node midpoint rule on (1/pi) int_0^pi cos(x sin phi)
    dphi, whose error on this periodic analytic integrand is of order J_128(x), below rounding. Beyond,
    Hankel's asymptotic series sqrt(2/(pi x)) (P cos chi - Q sin chi), chi = x - pi/4 (Abramowitz &
    Stegun 9.2.5), summed as P + iQ over 31 terms. Within 1e-14 absolute of scipy's j0 on the whole
    line (5e-16 measured)."""
    if not np.isfinite(x):
        raise DomainError("bessel_j0 requires finite x")
    x = abs(float(x))
    if x <= 25.0:
        return float(np.cos(x * _J0_SINES).mean())
    term = total = 1.0
    for k in range(1, 31):
        term *= -1j * (2 * k - 1) ** 2 / (8 * k * x)
        total += term
    chi = x - math.pi / 4
    return math.sqrt(2 / (math.pi * x)) * (total.real * math.cos(chi) - total.imag * math.sin(chi))


def alpha0(omega0_over_omega: float) -> float:
    """Mixing coefficient [1 + J0(2*omega0/omega)] / 2 of the averaged model."""
    return 0.5 * (1.0 + bessel_j0(2.0 * omega0_over_omega))


def quadratic_bands(j: float, cz: float, cx: float, cy: float) -> tuple:
    """(diagonal, band) of cz*Jz^2 + cx*Jx^2 + cy*Jy^2, built in O(dim).

    The generator couples m only to m +- 2: the diagonal is
    cz*m^2 + (cx + cy)*(j(j+1) - m^2)/2, and band entry k, coupling basis
    indices k and k+2, is (cx - cy)/4 times the ladder values of k and k+1.
    So each parity of the basis index is a real symmetric tridiagonal block.
    Both are exactly symmetric under the reversal m -> -m (the ladder product
    is taken first), as the spectral classes assume.
    """
    m2 = m_values(j) ** 2
    lad = ladder_values(j)
    return cz * m2 + (cx + cy) * (j * (j + 1) - m2) / 2, (cx - cy) / 4 * (lad[:-1] * lad[1:])


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
