"""Observables: squeezing parameter and angle, mean spin, Husimi field,
Jz-projection distribution, optimum detection, and scaling fits."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .dicke import DickeState, check_memory, css_amplitudes, ladder_values, m_values
from .errors import DegenerateDirectionError, DomainError

MEAN_SPIN_FLOOR = 1e-6  # times j; below it xi^2 is not resolved, and a sample's squeezing fields read NaN
ISOTROPY_EPS = 1e-12
TAIL_COLUMNS = 4096  # columns per squeezing tail: a record's tail temporaries stay at a few MB


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

    def columns(self, picked) -> "SqueezingReport":
        """The report of the columns an index or slice picks."""
        return SqueezingReport(*(getattr(self, f.name)[..., picked] for f in fields(self)))

    @staticmethod
    def joined(reports) -> "SqueezingReport":
        """The reports' columns side by side."""
        return SqueezingReport(*(np.concatenate([getattr(r, f.name) for r in reports], axis=-1)
                                 for f in fields(SqueezingReport)))


@lru_cache(maxsize=32)  # nine dim-vectors of floats each: 90 kB at N = 1250
def _moment_weights(j: float) -> tuple:
    """Weights of the per-column sums that spin_moments reads: m, m^2 and j(j+1) - m^2 on |x_k|^2;
    J+'s ladder entry and that entry times (m_k + m_(k+1)) on conj(x_k) x_(k+1); and the product
    of two consecutive ladder entries on conj(x_k) x_(k+2). The last two are stored complex, so
    their products cast nothing."""
    m, lad = m_values(j), ladder_values(j)
    weights = (np.stack([m, m * m, j * (j + 1) - m * m], axis=1),
               np.stack([lad, lad * (m[:-1] + m[1:])], axis=1).astype(complex),
               (lad[:-1] * lad[1:])[:, None].astype(complex))
    for w in weights:
        w.setflags(write=False)
    return weights


def spin_moments(j: float, x: np.ndarray) -> tuple:
    """Mean spin (3, R) and second moments S_ab = <J_a J_b + J_b J_a>/2 (3, 3, R) of the columns
    of a (dim, R) block, from <Jz>, <Jz^2> and <Jx^2 + Jy^2> (weighted |x_k|^2), <J+> and
    <J+ Jz + Jz J+> (conj(x_k) x_(k+1)) and <J+^2> (conj(x_k) x_(k+2)). Each column's sums are
    their own (1, n) @ (n, k) product, so its bits do not depend on the other columns."""
    w0, w1, w2 = _moment_weights(j)
    xt = np.ascontiguousarray(x.T)
    c = xt.conj()
    jz, z2, t = ((xt.real**2 + xt.imag**2)[:, None] @ w0)[:, 0].T
    jp, q = ((c[:, :-1] * xt[:, 1:])[:, None] @ w1)[:, 0].T
    p = ((c[:, :-2] * xt[:, 2:])[:, None] @ w2)[:, 0, 0]
    sxy, sxz, syz = p.imag / 2.0, q.real / 2.0, q.imag / 2.0  # J+^2 = Jx^2 - Jy^2 + i{Jx, Jy}
    s = np.array([[(t + p.real) / 2.0, sxy, sxz], [sxy, (t - p.real) / 2.0, syz], [sxz, syz, z2]])
    return np.array([jp.real, jp.imag, jz]), s


def mean_spin(state: DickeState) -> np.ndarray:
    """(<Jx>, <Jy>, <Jz>)."""
    return spin_moments(state.j, state.amplitudes[:, None])[0][:, 0]


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
    """Squeezing report of every column of a (dim, R) block: its spin_moments through _squeezing_tail."""
    return _squeezing_tail(j, *spin_moments(j, x))


def _squeezing_tail(j: float, ms: np.ndarray, s: np.ndarray) -> SqueezingReport:
    """Squeezing report of columns given by their mean spin ms (3, R) and second moments s (3, 3, R).

    The minimal perpendicular variance is in closed form: with
    A = <J1^2 - J2^2> and B = <{J1, J2}> the variance along
    cos(t) n1 + sin(t) n2 is [<J1^2+J2^2> + A cos(2t) + B sin(2t)] / 2
    (mean values vanish perpendicular to the mean spin), minimized at
    2t = atan2(-B, -A). <J1^2>, <J2^2> and <{J1, J2}>/2 are n1.S n1, n2.S n2
    and n1.S n2. Every operation acts on each column alone, so a column's
    report does not depend on the columns that share the call.
    """
    length = np.sqrt((ms**2).sum(axis=0))
    defined = length > MEAN_SPIN_FLOOR * j
    n1, n2 = perpendicular_frame(ms / np.where(defined, length, 1.0))
    s1, s2 = (s * n1).sum(axis=1), (s * n2).sum(axis=1)
    e11, e22, e12 = (n1 * s1).sum(axis=0), (n2 * s2).sum(axis=0), (n1 * s2).sum(axis=0)
    a, b = e11 - e22, 2.0 * e12
    r = np.hypot(a, b)
    var_min = (e11 + e22 - r) / 2.0
    isotropic = r < ISOTROPY_EPS * np.maximum(e11 + e22, 1.0)
    theta = 0.5 * np.arctan2(-b, -a)
    theta = np.where(theta < 0, theta + np.pi, theta)
    theta = np.where(theta >= np.pi, theta - np.pi, theta)
    var_min, var_max, theta = (np.where(defined, v, np.nan) for v in (var_min, (e11 + e22 + r) / 2.0, theta))
    return SqueezingReport(
        xi2=var_min / (2.0 * j / 4.0),
        theta_min=np.where(isotropic, 0.0, theta),
        mean_spin=ms,
        var_min=var_min,
        var_max=var_max,
        isotropic=isotropic & defined,
    )


def squeezing_report(state: DickeState) -> SqueezingReport:
    """Squeezing report of one state (see squeezing_columns); an undefined direction raises."""
    report = squeezing_columns(state.j, state.amplitudes[:, None]).column(0)
    if np.isnan(report.xi2):
        raise DegenerateDirectionError(f"mean spin {report.mean_spin} too short to define a direction")
    return report


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
    j, dim = state.j, state.dim
    folds = -(-dim // phi_count)  # an FFT of folds * phi_count >= dim points holds every m
    # real theta x phi values, and one theta row's complex FFT and its input
    check_memory(j, theta_count * phi_count + 4 * folds * phi_count, "Husimi grid")
    thetas = (np.arange(theta_count) + 0.5) * (np.pi / theta_count)
    phis = (np.arange(phi_count) + 0.5) * (2 * np.pi / phi_count)
    # <css|psi>(phi_p) e^{-i j phi_p}: entry folds p of the length folds P FFT of mag_n psi_n e^{-i pi n / P}
    tilted = state.amplitudes * np.exp(-1j * np.pi / phi_count * np.arange(dim))
    q = np.empty((theta_count, phi_count))
    for row, theta in zip(q, thetas):
        terms = np.abs(css_amplitudes(j, theta, 0.0)) * tilted
        row[:] = np.abs(np.fft.fft(terms, folds * phi_count)[::folds]) ** 2
    return thetas, phis, q


@dataclass
class RunRecord:
    """Time series of squeezing reports plus the run's events.

    chi_t holds the strictly increasing sample times and report their
    columns; events collects freeze decisions and renormalizations.
    """

    chi_t: np.ndarray
    report: SqueezingReport
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


def run_records(j: float, times, tiles, runs: int, width: int = 1) -> list:
    """A RunRecord for each of the first runs columns of a block of width columns sampled at
    times, from the spin_moments of its samples' columns in tiles, in sample order. Run r takes
    the columns r, r + width, r + 2 width, ... of their join. One _squeezing_tail serves every
    record, TAIL_COLUMNS columns at a time."""
    ms, s = (np.concatenate(p, axis=-1) for p in zip((np.empty((3, 0)), np.empty((3, 3, 0))), *tiles))
    order = np.arange(len(times) * width).reshape(-1, width)[:, :runs].T.ravel()  # run by run
    chunks = np.split(order, range(TAIL_COLUMNS, len(order), TAIL_COLUMNS))
    report = SqueezingReport.joined([_squeezing_tail(j, ms[:, c], s[..., c]) for c in chunks])
    return [RunRecord(times, report.columns(slice(r * len(times), (r + 1) * len(times)))) for r in range(runs)]


@dataclass(frozen=True)
class OptimumResult:
    chi_t: float
    xi2: float
    at_boundary: bool = False


def find_optimum(record) -> OptimumResult:
    """Refined minimum of a xi^2 time series.

    Accepts a RunRecord or a (times, values) pair. Around the sampled
    minimum (NaN samples skipped; all NaN gives the first) a parabola through
    the three neighboring points gives the refined vertex; a minimum on the
    first or last sample, or next to a NaN, is returned as-is, at_boundary set
    on an end.
    """
    if isinstance(record, RunRecord):
        times, values = record.times(), record.xi2()
    else:
        times, values = (np.asarray(a, dtype=float) for a in record)
    if len(times) < 3:
        raise DomainError("need at least 3 samples")
    k = int(np.argmin(np.nan_to_num(values, nan=np.inf)))
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
