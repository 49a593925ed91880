"""Dicke-basis states, the tridiagonal spin action, and exact rotations.

Everything lives in the maximal-spin symmetric subspace of N spin-1/2
particles: dimension N+1 instead of 2^N. States are amplitude vectors over
the Jz eigenbasis |j,m> ordered m = j, j-1, ..., -j (index 0 is the north
pole |j,j>).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla

from .errors import DomainError, ResourceError

NORM_TOL = 1e-8
UNIT_AXIS_TOL = 1e-12

BASIS_LABEL = "Jz-descending"
# the machine's physical memory in bytes, which no eigenbasis may outgrow; unknown (infinite) off POSIX
PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") if os.name == "posix" else np.inf


def _check_j(j: float) -> float:
    j = float(j)
    twoj = 2.0 * j
    if not np.isfinite(j) or j <= 0 or abs(twoj - round(twoj)) > 1e-9:
        raise DomainError(f"j must be a positive half-integer, got {j}")
    return j


def dim_for(j: float) -> int:
    return int(round(2 * _check_j(j))) + 1


@lru_cache(maxsize=32)  # one dim-vector each: 10 kB at N = 1250
def m_values(j: float) -> np.ndarray:
    """Eigenvalues of Jz in basis order: j, j-1, ..., -j."""
    j = _check_j(j)
    m = j - np.arange(dim_for(j), dtype=float)
    m.setflags(write=False)
    return m


@lru_cache(maxsize=32)  # one dim-vector each: 10 kB at N = 1250
def ladder_values(j: float) -> np.ndarray:
    """sqrt(j(j+1) - m(m+1)) for the raising transition m -> m+1.

    Entry k couples basis index k+1 (value m) to index k (value m+1),
    matching the descending-m ordering.
    """
    m = m_values(j)[1:]
    lad = np.sqrt(j * (j + 1) - m * (m + 1))
    lad.setflags(write=False)
    return lad


@dataclass(frozen=True)
class DickeState:
    """Pure symmetric collective-spin state.

    amplitudes[k] is the coefficient of |j, m=j-k>. The vector must be
    normalized; instances are immutable and safe to share between threads.
    """

    j: float
    amplitudes: np.ndarray

    def __post_init__(self):
        j = _check_j(self.j)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.shape[0] != dim_for(j):
            raise DomainError(
                f"amplitude vector must have length {dim_for(j)} for j={j}"
            )
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_TOL:  # a NaN norm fails too
            raise DomainError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        if abs(norm - 1.0) > 1e-13:  # keep already-normalized vectors bit-stable
            amps = amps / norm
        amps.setflags(write=False)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def n_particles(self) -> int:
        return int(round(2 * self.j))

    def norm_error(self) -> float:
        return abs(float(np.linalg.norm(self.amplitudes)) - 1.0)

    def to_snapshot_json(self) -> str:
        """Snapshot as JSON text.

        Amplitudes are written with 18 significant decimal digits, which
        round-trips float64 bit-exactly.
        """
        rows = ",".join(
            f"[{c.real:.17e},{c.imag:.17e}]" for c in self.amplitudes
        )
        return (
            f'{{"N": {self.n_particles}, "j": {self.j!r}, '
            f'"basis": "{BASIS_LABEL}", "amplitudes": [{rows}]}}'
        )

    @staticmethod
    def from_snapshot(data: dict) -> "DickeState":
        if not isinstance(data, dict):
            raise DomainError("snapshot must be a JSON object")
        if data.get("basis") != BASIS_LABEL:
            raise DomainError(f"unsupported basis {data.get('basis')!r}")

        def field(key, convert):
            if key not in data:
                raise DomainError(f"snapshot has no {key!r} field")
            try:
                return convert(data[key])
            except (TypeError, ValueError, OverflowError):
                raise DomainError(f"snapshot field {key!r} is malformed") from None

        def whole(value) -> int:  # an integral number, not a boolean
            if isinstance(value, bool) or not float(value).is_integer():
                raise ValueError
            return int(value)

        amps = field("amplitudes", lambda rows: np.array([complex(float(a), float(b)) for a, b in rows]))
        state = DickeState(field("j", float), amps)
        if field("N", whole) != state.n_particles:
            raise DomainError("snapshot N inconsistent with j")
        return state

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_snapshot_json())

    @staticmethod
    def load(path) -> "DickeState":
        """Read a snapshot file; a file that is not JSON, or not a valid
        snapshot, raises DomainError naming the file."""
        try:
            with open(path) as fh:
                data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise DomainError(f"snapshot {path} is not JSON: {exc}") from None
        try:
            return DickeState.from_snapshot(data)
        except DomainError as exc:
            raise DomainError(f"snapshot {path}: {exc}") from None


def ladder_parts(j: float, x: np.ndarray) -> tuple:
    """Jz x and the nonzero rows of J+ x (rows 0..dim-2) and of J- x (rows
    1..dim-1) for a (dim, R) block; spin_action combines them."""
    lad = ladder_values(j)[:, None]
    return m_values(j)[:, None] * x, lad * x[1:], lad * x[:-1]


def spin_action(coeffs, parts: tuple) -> np.ndarray:
    """(cx*Jx + cy*Jy + cz*Jz) on a block, from its ladder_parts; each
    coefficient is a real scalar or one value per column."""
    cx, cy, cz = coeffs
    zx, up, down = parts
    out = cz * zx
    out[:-1] += (cx - 1j * cy) / 2.0 * up  # J+ coefficient
    out[1:] += (cx + 1j * cy) / 2.0 * down  # J- coefficient
    return out


def apply_spin(j: float, coeffs, vec: np.ndarray) -> np.ndarray:
    """Apply (cx*Jx + cy*Jy + cz*Jz) to a raw amplitude vector.

    Tridiagonal action, O(dim); coefficients may be any reals.
    """
    return spin_action(coeffs, ladder_parts(j, vec[:, None]))[:, 0]


def spin_matrix(j: float, coeffs) -> np.ndarray:
    """Dense cx*Jx + cy*Jy + cz*Jz from spin_action: a test reference, like
    hamiltonians.matrix; the package itself never forms it."""
    return spin_action(coeffs, ladder_parts(j, np.eye(dim_for(j), dtype=complex)))


@dataclass(frozen=True)
class RotationSpec:
    """Rotation exp(-i*angle*(axis . J)) about a unit axis."""

    axis: tuple
    angle: float

    def __post_init__(self):
        axis = tuple(float(a) for a in self.axis)
        if len(axis) != 3:
            raise DomainError("axis must be a 3-vector")
        norm = float(np.linalg.norm(axis))
        if not abs(norm - 1.0) <= UNIT_AXIS_TOL:  # a NaN norm fails too
            raise DomainError(f"axis must be unit length, |axis|={norm}")
        if not np.isfinite(self.angle):
            raise DomainError("angle must be finite")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "angle", float(self.angle))

    def scaled(self, factor: float) -> "RotationSpec":
        return RotationSpec(self.axis, self.angle * factor)


def check_memory(j: float, entries: int, what: str = "eigenvectors") -> None:
    """Raise ResourceError naming what before entries float64 entries for spin j outgrow PHYSICAL_MEMORY."""
    need, have = 8 * entries / 2**30, PHYSICAL_MEMORY / 2**30
    if need > have:
        raise ResourceError(f"N = {round(2 * j)} needs {need:.3g} GiB of {what}, more than the "
                            f"machine's {have:.3g} GiB of physical memory")


def reversal_fold(x: np.ndarray) -> tuple:
    """The reversal m -> -m's symmetric and antisymmetric parts (s, a) of a (n, R) block x:
    (top +- reversed bottom half) / sqrt(2), s with an odd n's middle row."""
    h = len(x) // 2
    top, bottom = x[:h], x[: -h - 1 : -1]
    return np.concatenate(((top + bottom) * 0.5**0.5, x[h : len(x) - h])), (top - bottom) * 0.5**0.5


def reversal_unfold(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The (n, R) block whose reversal_fold is (s, a)."""
    a = a * 0.5**0.5
    top = s[: len(a)] * 0.5**0.5
    return np.concatenate((top + a, s[len(a) :], (top - a)[::-1]))


def fold_tridiagonal(d: np.ndarray, e: np.ndarray) -> tuple:
    """The s and a classes, each (diagonal, band), of a real symmetric tridiagonal (d, e) that
    commutes with the reversal, in reversal_fold's rows: the coupling e[q-1] across the middle
    becomes sqrt(2) e[q-1] into an odd length's middle row, or +-e[q-1] on the last diagonal
    entry for an even length 2q."""
    q, odd = divmod(len(d), 2)
    if odd:
        return (d[: q + 1], np.r_[e[: q - 1], np.sqrt(2.0) * e[q - 1 : q]]), (d[:q], e[: q - 1])
    return tuple((np.r_[d[: q - 1], d[q - 1] + sign * e[q - 1]], e[: q - 1]) for sign in (1.0, -1.0))


@lru_cache(maxsize=8)  # two real (dim/2)^2 bases each: 6.3 MB at N = 1250
def axis_eigensystem(j: float):
    """(vals, U_s, U_a): Jx's eigenvalues, snapped to the half-integer ladder so repeated pulses
    stay exact, and the halves of its real eigenbasis W, which fold and unfold apply. Jx commutes
    with m -> -m, so each column of W is symmetric (class s, j - lambda even) or antisymmetric (a);
    the frame order is [s, a], each ascending. Jy = Rz(pi/2) Jx Rz(pi/2)^dagger shares W."""
    j = _check_j(j)
    h, odd = divmod(dim_for(j), 2)
    check_memory(j, (h + odd) ** 2 + h**2)
    classes = fold_tridiagonal(np.zeros(2 * h + odd), ladder_values(j) / 2)
    (vs, us), (va, ua) = (sla.eigh_tridiagonal(*c) for c in classes)
    exact = np.round(np.r_[vs, va] * 2) / 2
    if np.max(np.abs(np.r_[vs, va] - exact)) > 1e-9 * max(1.0, j):
        raise RuntimeError("axis eigenvalues failed half-integer snap")
    for a in (exact, us, ua):
        a.setflags(write=False)
    return exact, us, ua


def basis_product(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """v @ x for a real v and a complex (n, R) block x: one GEMM over the
    2R float64 columns of x's real view, half the flops of the complex
    product, and no complex copy of v."""
    x = np.ascontiguousarray(x, dtype=complex).view(np.float64)
    if v.flags.f_contiguous and len(v) >= 200 and 2 < x.shape[1] <= 64:
        # an F-ordered v (LAPACK's layout) of at least 200 rows and 2-32 complex columns. One
        # OpenBLAS thread, best of 9-15: (x^T v^T)^T takes 0.69-0.90x the time of v @ x at 626 rows
        # (N = 1250) and 2-32 columns, 0.84-1.02x at 200-301 rows and 16 columns; it takes
        # 1.3-1.5x at 76-176 rows, 1.0-1.7x at 1 column up to 626 rows, and at full width (626
        # columns) v @ x is 1.3x faster
        return np.ascontiguousarray((x.T @ v.T).T).view(complex)
    return (v @ x).view(complex)


def fold(j: float, x: np.ndarray) -> np.ndarray:
    """W^T x for a (dim, R) block: x's reversal_fold, each part through its half."""
    _, us, ua = axis_eigensystem(j)
    s, a = reversal_fold(x)
    return np.concatenate((basis_product(us.T, s), basis_product(ua.T, a)))


def unfold(j: float, c: np.ndarray) -> np.ndarray:
    """W c for a (dim, R) block c in the frame order [s, a], fold's inverse."""
    _, us, ua = axis_eigensystem(j)
    return reversal_unfold(basis_product(us, c[: len(us)]), basis_product(ua, c[len(us) :]))


def ladder_phases(j: float, values: np.ndarray, angle) -> np.ndarray:
    """exp(-i*angle*values) as a (len(values), R) array, angle a scalar (R = 1) or one value per
    column, for values on the spin ladder -j, -j + 1, ..., j in any order (m_values, the frame
    eigenvalues). A value is (b q - j) + r with b about sqrt(dim): a coarse table over q times a
    fine table over r, 2b exponentials per column instead of one per value."""
    dim = dim_for(j)
    b = int(np.sqrt(dim)) + 1
    q, r = np.divmod(np.rint(values + j).astype(np.intp), b)
    phases = np.exp(-1j * np.outer(b * np.arange(-(-dim // b)) - j, angle))[q]
    phases *= np.exp(-1j * np.outer(np.arange(b), angle))[r]
    return phases


@lru_cache(maxsize=32)  # one dim-column each: 20 kB at N = 1250
def quarter_turn(j: float) -> np.ndarray:
    """Rz(pi/2) as a (dim, 1) column of phases. Jy = Rz(pi/2) Jx Rz(pi/2)^dagger,
    so Rz(pi/2) W is an eigenbasis of Jy for the real Jx eigenbasis W."""
    z = np.exp(-0.5j * np.pi * m_values(j))[:, None]
    z.setflags(write=False)
    return z


def frame_enter(j: float, x: np.ndarray) -> np.ndarray:
    """A z-basis block in the Jy eigenbasis Rz(pi/2) W, the drive's frame."""
    return fold(j, quarter_turn(j).conj() * x)


def frame_leave(j: float, y: np.ndarray) -> np.ndarray:
    """The z-basis block Rz(pi/2) W y of a frame block y."""
    return quarter_turn(j) * unfold(j, y)


def _rotate_axis(j: float, x: np.ndarray, axis: str, angle) -> np.ndarray:
    """exp(-i*angle*J_axis) on a (dim, R) block, for axis x, y or z; angle is a scalar or one
    value per column. Jz is diagonal; x and y share the real Jx eigenbasis W, with e the phases
    of its eigenvalues: Rx = W e W^T and Ry = Rz(pi/2) W e W^T Rz(pi/2)^dagger. Both phase
    sets are ladder_phases."""
    if not np.any(angle):
        return x.copy()
    if axis == "z":
        return ladder_phases(j, m_values(j), angle) * x
    phases = ladder_phases(j, axis_eigensystem(j)[0], angle)
    if axis == "x":
        return unfold(j, phases * fold(j, x))
    return frame_leave(j, phases * frame_enter(j, x))


def rotate_block(j: float, x: np.ndarray, axis, angle) -> np.ndarray:
    """Rotation exp(-i*angle*(axis . J)) of every column of a (dim, R) block
    (no renormalization). The axis is shared; angle is a scalar or one
    value per column."""
    ax = np.array(axis, dtype=float)
    for name, unit in (("x", (1, 0, 0)), ("y", (0, 1, 0)), ("z", (0, 0, 1))):
        dot = float(ax @ unit)
        if abs(abs(dot) - 1.0) < UNIT_AXIS_TOL:
            return _rotate_axis(j, x, name, np.sign(dot) * np.asarray(angle))
    # general axis: conjugate a z-rotation into place, R_n = F Rz(angle) F^-1
    # with F = Rz(phi_n) Ry(theta_n) mapping z onto the axis
    theta_n = float(np.arccos(np.clip(ax[2], -1.0, 1.0)))
    phi_n = float(np.arctan2(ax[1], ax[0]))
    out = _rotate_axis(j, x, "z", -phi_n)
    out = _rotate_axis(j, out, "y", -theta_n)
    out = _rotate_axis(j, out, "z", angle)
    out = _rotate_axis(j, out, "y", theta_n)
    out = _rotate_axis(j, out, "z", phi_n)
    return out


def rotate_vector(j: float, vec: np.ndarray, rot: RotationSpec) -> np.ndarray:
    """Rotation applied to a raw amplitude vector (no renormalization)."""
    return rotate_block(j, vec[:, None], rot.axis, rot.angle)[:, 0]


def rotate(state: DickeState, rot: RotationSpec) -> DickeState:
    """exp(-i*angle*(axis.J)) |state>; exact up to eigensolver precision."""
    return DickeState(state.j, rotate_vector(state.j, state.amplitudes, rot))


def make_dicke_state(j: float, m: float) -> DickeState:
    """Basis state |j,m>."""
    j = _check_j(j)
    if m < -j - 1e-12 or m > j + 1e-12 or abs((j - m) - round(j - m)) > 1e-9:
        raise DomainError(f"m={m} out of range for j={j}")
    amps = np.zeros(dim_for(j), dtype=complex)
    amps[int(round(j - m))] = 1.0
    return DickeState(j, amps)


def _check_angles(theta: float, phi: float) -> tuple:
    for name, value in (("theta", theta), ("phi", phi)):
        if not np.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    return float(theta), float(phi)


def make_css(j: float, theta: float, phi: float) -> DickeState:
    """Coherent spin state along (theta, phi), built by rotating |j,j>.

    Defined operationally as Rz(phi) Ry(theta) |j,j> so one global phase
    convention holds everywhere; mean spin is j*(sin t cos p, sin t sin p, cos t).
    """
    theta, phi = _check_angles(theta, phi)
    vec = np.zeros((dim_for(_check_j(j)), 1), dtype=complex)
    vec[0] = 1.0
    vec = _rotate_axis(j, vec, "y", theta)
    vec = _rotate_axis(j, vec, "z", phi)
    return DickeState(j, vec[:, 0])


def css_amplitudes(j: float, theta: float, phi: float) -> np.ndarray:
    """Closed-form CSS amplitudes matching make_css's phase convention.

    c_m = binom(2j, j-m)^(1/2) cos(t/2)^(j+m) sin(t/2)^(j-m) e^(-i m phi)
    for theta in [0, pi], evaluated in logs so large j stays stable: with
    n = 2j, row k = j-m takes log binom(n, k)/2 as the running sum of
    log((n+1-i)/i)/2 over i = 1..k. Used for initial states and fast Husimi
    grids; agreement with make_css is covered by tests.
    """
    j = _check_j(j)
    theta, phi = _check_angles(theta, phi)
    if not 0.0 <= theta <= np.pi + 1e-12:
        raise DomainError("css_amplitudes requires theta in [0, pi]")
    m = m_values(j)
    half = theta / 2.0
    log_c = np.log(max(np.cos(half), 1e-300))
    log_s = np.log(max(np.sin(half), 1e-300))
    i = np.arange(1.0, len(m))
    half_log_binom = np.concatenate(([0.0], np.cumsum(0.5 * np.log((len(m) - i) / i))))
    mag = np.exp(half_log_binom + (j + m) * log_c + (j - m) * log_s)
    amps = mag * np.exp(-1j * m * phi)
    return amps / np.linalg.norm(amps)


def fidelity(a: DickeState, b: DickeState) -> float:
    """Phase-insensitive |<a|b>|; the only comparison used across the package."""
    if a.j != b.j:
        raise DomainError("states have different spin length")
    return abs(complex(np.vdot(a.amplitudes, b.amplitudes)))


def rotate_classical(vec, axis, angle):
    """Rodrigues rotation of a 3-vector; oracle for mean-spin covariance."""
    v = np.asarray(vec, dtype=float)
    k = np.asarray(axis, dtype=float)
    k = k / np.linalg.norm(k)
    return (
        v * np.cos(angle)
        + np.cross(k, v) * np.sin(angle)
        + k * (k @ v) * (1 - np.cos(angle))
    )
