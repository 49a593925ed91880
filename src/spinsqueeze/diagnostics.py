"""Observables: squeezing parameter and angle, mean spin, Husimi field,
Jz-projection distribution, optimum detection, and scaling fits."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .dicke import DickeState, css_amplitudes, ladder_parts, m_values, spin_action
from .errors import DegenerateDirectionError, DomainError

MEAN_SPIN_FLOOR = 1e-9  # times j; below this the perpendicular plane is undefined
ISOTROPY_EPS = 1e-12


@dataclass(frozen=True)
class SqueezingReport:
    """Squeezing parameter xi^2 = var_min / (N/4) and the geometry behind it.

    theta_min is the angle of the minimal-variance direction in the
    deterministic perpendicular frame (n1, n2), mapped to [0, pi);
    isotropic is set when the perpendicular variance has no direction
    dependence (coherent states). A report of a block (squeezing_columns) or
    a run (RunRecord) holds one array entry per column or sample in every
    field, mean_spin as a (3, count) array; column(r) picks one.
    """

    xi2: float
    theta_min: float
    mean_spin: tuple
    var_min: float
    var_max: float
    isotropic: bool = False

    def column(self, r: int) -> "SqueezingReport":
        xi2, theta, lo, hi = (float(f[r]) for f in (self.xi2, self.theta_min, self.var_min, self.var_max))
        spin = tuple(float(c[r]) for c in self.mean_spin)
        return SqueezingReport(xi2, theta, spin, lo, hi, bool(self.isotropic[r]))


def _mean_spin(x: np.ndarray, parts: tuple) -> np.ndarray:
    """(3, R) mean spin of the columns of x; <J+> = <Jx> + i<Jy>."""
    jp = (x[:-1].conj() * parts[1]).sum(axis=0)
    return np.array([jp.real, jp.imag, (x.conj() * parts[0]).real.sum(axis=0)])


def mean_spin(state: DickeState) -> np.ndarray:
    """(<Jx>, <Jy>, <Jz>)."""
    x = state.amplitudes[:, None]
    return _mean_spin(x, ladder_parts(state.j, x))[:, 0]


def perpendicular_frame(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal pair perpendicular to a unit direction:
    n1 = normalize(z x n) unless n is within 1e-6 of +-z, then n1 = x, and
    n2 = n x n1. A (3, R) array gives the pair for each of its columns."""
    n = np.asarray(direction, dtype=float)
    cross = np.hypot(n[0], n[1])  # |z x n|
    polar = cross < 1e-6
    safe = np.where(polar, 1.0, cross)
    n1 = np.array([np.where(polar, 1.0, -n[1] / safe), np.where(polar, 0.0, n[0] / safe), 0.0 * cross])
    return n1, np.array([-n[2] * n1[1], n[2] * n1[0], n[0] * n1[1] - n[1] * n1[0]])


def squeezing_columns(j: float, x: np.ndarray) -> SqueezingReport:
    """Squeezing report of every column of a (dim, R) block at once.

    The minimal perpendicular variance is in closed form: with
    A = <J1^2 - J2^2> and B = <{J1, J2}> the variance along
    cos(t) n1 + sin(t) n2 is [<J1^2+J2^2> + A cos(2t) + B sin(2t)] / 2
    (mean values vanish perpendicular to the mean spin), minimized at
    2t = atan2(-B, -A). Every operation acts on each column alone.
    """
    parts = ladder_parts(j, x)
    ms = _mean_spin(x, parts)
    length = np.sqrt((ms**2).sum(axis=0))
    if np.any(length <= MEAN_SPIN_FLOOR * j):
        raise DegenerateDirectionError(
            f"mean spin length {length.min():.3e} too short to define a direction"
        )
    n1, n2 = perpendicular_frame(ms / length)
    v1 = spin_action(n1, parts)
    v2 = spin_action(n2, parts)
    e11 = (v1.real**2 + v1.imag**2).sum(axis=0)
    e22 = (v2.real**2 + v2.imag**2).sum(axis=0)
    e12 = (v1.real * v2.real + v1.imag * v2.imag).sum(axis=0)
    a, b = e11 - e22, 2.0 * e12
    r = np.hypot(a, b)
    var_min = (e11 + e22 - r) / 2.0
    isotropic = r < ISOTROPY_EPS * np.maximum(e11 + e22, 1.0)
    theta = 0.5 * np.arctan2(-b, -a)
    theta = np.where(theta < 0, theta + np.pi, theta)
    theta = np.where(theta >= np.pi, theta - np.pi, theta)
    return SqueezingReport(
        xi2=var_min / (2.0 * j / 4.0),
        theta_min=np.where(isotropic, 0.0, theta),
        mean_spin=ms,
        var_min=var_min,
        var_max=(e11 + e22 + r) / 2.0,
        isotropic=isotropic,
    )


def squeezing_report(state: DickeState) -> SqueezingReport:
    """Squeezing report of one state; see squeezing_columns."""
    return squeezing_columns(state.j, state.amplitudes[:, None]).column(0)


@dataclass(frozen=True)
class MDistribution:
    m: np.ndarray
    p: np.ndarray
    mean: float
    var: float


def m_distribution(state: DickeState) -> MDistribution:
    """|c_m|^2 over the Jz ladder, with its first two moments."""
    p = np.abs(state.amplitudes) ** 2
    m = m_values(state.j)
    mean = float(p @ m)
    var = float(p @ (m - mean) ** 2)
    return MDistribution(m=m.copy(), p=p, mean=mean, var=var)


def husimi_q(
    state: DickeState, theta_count: int, phi_count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Q(theta, phi) = |<css(theta, phi)|state>|^2 on a cell-centered grid.

    Returns (theta, phi, Q) with Q shaped (theta_count, phi_count); the
    quadrature sum Q * sin(theta) * dtheta * dphi * (2j+1)/(4pi) is 1 up to
    grid error.
    """
    if theta_count < 16 or phi_count < 32:
        raise DomainError("husimi grid must be at least 16 x 32")
    j = state.j
    thetas = (np.arange(theta_count) + 0.5) * (np.pi / theta_count)
    phis = (np.arange(phi_count) + 0.5) * (2 * np.pi / phi_count)
    m = m_values(j)
    # <css|psi> = sum_m conj(c_m) psi_m with c_m = mag_m(theta) e^{-im phi}
    mags = np.stack([np.abs(css_amplitudes(j, t, 0.0)) for t in thetas])
    phase = np.exp(1j * np.outer(m, phis))
    overlaps = (mags * state.amplitudes[None, :]) @ phase
    return thetas, phis, np.abs(overlaps) ** 2


@dataclass
class RunRecord:
    """Time series of squeezing reports plus run provenance.

    chi_t holds the strictly increasing sample times and report their
    columns. parameters echoes what produced the run (N, model, noise
    seed); events collects freeze decisions and renormalizations.
    """

    chi_t: np.ndarray
    report: SqueezingReport
    parameters: dict = field(default_factory=dict)
    events: list = field(default_factory=list)

    def __post_init__(self):
        self.chi_t = np.asarray(self.chi_t, dtype=float)
        if np.any(np.diff(self.chi_t) <= 0):
            raise DomainError("sample times must be strictly increasing")

    def add_event(self, kind: str, **data) -> None:
        self.events.append({"kind": kind, **data})

    def times(self) -> np.ndarray:
        return self.chi_t

    def xi2(self) -> np.ndarray:
        return self.report.xi2

    def report_at(self, chi_t: float) -> SqueezingReport:
        return self.report.column(int(np.argmin(np.abs(self.chi_t - chi_t))))


def run_records(times, tiles, parameters, width: int = 1) -> list:
    """One RunRecord per entry of parameters from the report tiles of a block
    of width columns sampled at times: (report, used) pairs in sample order,
    whose first used columns hold width columns per sample, the rest padding.
    Run r takes the columns r, r + width, r + 2 width, ... of their join."""
    none = np.empty(0)
    parts = [(SqueezingReport(none, none, np.empty((3, 0)), none, none, none.astype(bool)), 0), *tiles]
    cols = [np.concatenate([getattr(rep, f.name)[..., :used] for rep, used in parts], axis=-1)
            for f in fields(SqueezingReport)]
    reports = [SqueezingReport(*(c[..., r::width] for c in cols)) for r in range(len(parameters))]
    return [RunRecord(times, rep, p) for rep, p in zip(reports, parameters)]


@dataclass(frozen=True)
class OptimumResult:
    chi_t: float
    xi2: float
    at_boundary: bool = False


def find_optimum(record) -> OptimumResult:
    """Refined minimum of a xi^2 time series.

    Accepts a RunRecord or a (times, values) pair. Around the sampled
    minimum a parabola through the three neighboring points gives the
    refined vertex; a minimum on the first or last sample is returned as-is
    with at_boundary set.
    """
    if isinstance(record, RunRecord):
        times, values = record.times(), record.xi2()
    else:
        times, values = (np.asarray(a, dtype=float) for a in record)
    if len(times) < 3:
        raise DomainError("need at least 3 samples")
    k = int(np.argmin(values))
    if k == 0 or k == len(times) - 1:
        return OptimumResult(float(times[k]), float(values[k]), at_boundary=True)
    t0, t1, t2 = times[k - 1 : k + 2]
    v0, v1, v2 = values[k - 1 : k + 2]
    denom = (t0 - t1) * (t0 - t2) * (t1 - t2)
    a = (t2 * (v1 - v0) + t1 * (v0 - v2) + t0 * (v2 - v1)) / denom
    b = (t2**2 * (v0 - v1) + t1**2 * (v2 - v0) + t0**2 * (v1 - v2)) / denom
    if a <= 0:  # degenerate curvature, keep the sampled point
        return OptimumResult(float(t1), float(v1))
    tv = -b / (2 * a)
    if not (t0 <= tv <= t2):
        return OptimumResult(float(t1), float(v1))
    c = v1 - (a * t1 * t1 + b * t1)
    return OptimumResult(float(tv), float(a * tv * tv + b * tv + c))


def scaling_fit(points) -> tuple[float, float, float]:
    """Least-squares power law through (N, xi2_min) points.

    Returns (exponent, prefactor, rms residual of log values).
    """
    pts = [(float(n), float(v)) for n, v in points]
    if len({n for n, _ in pts}) < 3:
        raise DomainError("need at least 3 distinct N values")
    logn = np.log([n for n, _ in pts])
    logv = np.log([v for _, v in pts])
    exponent, intercept = np.polyfit(logn, logv, 1)
    resid = logv - (exponent * logn + intercept)
    return float(exponent), float(np.exp(intercept)), float(np.sqrt(np.mean(resid**2)))
