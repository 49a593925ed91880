"""Time-evolution engines.

One kernel, evolve_block, runs a schedule on a (dim x R) block of states,
one column per run: pulses turn each column by its own angle, a quadratic
segment is one diagonal Jz^2 phase, and the driven model Jz^2 + Omega(t) Jy
(chi = 1, so every time and phase length is chi*t) uses second-order
split-stepping in the Jy eigenbasis on the multiples of h = T/spp from clock
0, with half- and whole-period operators as parity blocks for long runs. The
drive zeros fall on that grid only when (pi/2 - phase) * spp / (2 pi) is an
integer (spp even), as at the default phase -pi/2. A single run is a block
of one column; a 2^N tensor-product oracle validates the symmetric-subspace
reduction at small N.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from functools import lru_cache

import numpy as np
import scipy.linalg as sla

from .dicke import (
    DickeState,
    axis_eigensystem,
    basis_product,
    check_memory,
    dim_for,
    fold_tridiagonal,
    frame_enter,
    frame_leave,
    ladder_phases,
    m_values,
    quarter_turn,
    reversal_fold,
    reversal_unfold,
    rotate_block,
)
from .diagnostics import RunRecord, run_records, spin_moments
from .errors import DomainError, ResourceError
from .hamiltonians import DriveEnvelope, drive_integral, quadratic_bands
from .schedule import (
    DrivenSegment,
    FreezeMarker,
    ProtocolSchedule,
    Pulse,
    QuadraticSegment,
    at_or_before,
)

RENORM_STEP_TOL = 1e-12
GRID_TOL = 1e-9  # a drive time t is k h when k lies in t / h -+ GRID_TOL; every grid decision reads these bounds
# Width of the blocks that noisy runs share. A column's bits depend on the
# width of the matrix products it goes through (one column takes the GEMV
# path, and wider blocks can round differently) but not on its position or
# on the other columns, so runs that must replay bit for bit always go
# through blocks of exactly TILE columns.
TILE = 16


# ---------------------------------------------------------------------------
# quadratic generators

def _quadratic(j: float, a: float, x: np.ndarray) -> np.ndarray:
    """exp(-i a Jz^2) on a (dim, R) block, or on the top rows of one: its phases down x's rows.
    m^2 is even in m, so the upper half of the ladder's phases, mirrored, gives the lower half."""
    m = m_values(j)
    half = np.exp(-1j * a * m[: (len(m) + 1) // 2] ** 2)
    return np.concatenate((half, half[len(m) // 2 - 1 :: -1]))[: len(x), None] * x


class SpectralPropagator:
    """Exact evolution under a fixed real generator given as quadratic_bands' (diagonal, band), held
    as real tridiagonal classes: the reversal_folds of the basis indices ordered even ones, then
    odd. An odd dim folds each parity: four classes. An even dim, where the reversal swaps the
    parities and the odd block is the even one reversed, folds the whole order: two classes under
    the even block's one eigensystem. A class is diagonalized the first time a state populates it
    (its folded rows are not all exactly zero); one without a band stores no vectors."""

    def __init__(self, diag: np.ndarray, band: np.ndarray):
        dim = self.dim = len(diag)
        if dim % 2:
            self.cuts, self.classes = [(dim + 1) // 2], (0, 1, 2, 3)
            self.tridiagonals = tuple(c for p in (0, 1) for c in fold_tridiagonal(diag[p::2], band[p::2]))
        else:
            self.cuts, self.classes = [], (0, 0)
            self.tridiagonals = ((diag[0::2], band[0::2]),)
        check_memory((dim - 1) / 2, sum(len(d) ** 2 for d, e in self.tridiagonals if e.any()))
        self._systems, self._lock = [None] * len(self.tridiagonals), threading.Lock()

    def eigensystem(self, c: int) -> tuple:
        """(vals, vecs) of class c, diagonalized on first use; vecs is None without a band."""
        k = self.classes[c]
        with self._lock:
            if self._systems[k] is None:
                d, e = self.tridiagonals[k]
                self._systems[k] = sla.eigh_tridiagonal(d, e) if e.any() else (d, None)
        return self._systems[k]

    def coefficients(self, x: np.ndarray) -> list:
        """Eigenbasis coefficients V^T x of each class of a (dim, R) block x; None for a class that
        x leaves empty."""
        ordered = np.concatenate((x[0::2], x[1::2]))
        parts = [half for piece in np.split(ordered, self.cuts) for half in reversal_fold(piece)]
        coeffs = [None] * len(parts)
        for c, part in enumerate(parts):
            if part.any():
                vecs = self.eigensystem(c)[1]
                coeffs[c] = part if vecs is None else basis_product(vecs.T, part)
        return coeffs

    def synthesize(self, coeffs: list, times) -> np.ndarray:
        """The block at the given times from its coefficients: one column per time from one-column
        coefficients, or every column at one time. An empty class stays zero."""
        width = max([len(times)] + [c.shape[1] for c in coeffs if c is not None])
        parts = [np.zeros((len(self.tridiagonals[k][0]), width), dtype=complex) for k in self.classes]
        for c, coeff in enumerate(coeffs):
            if coeff is not None:
                vals, vecs = self.eigensystem(c)
                part = np.exp(-1j * np.outer(vals, times)) * coeff
                parts[c] = part if vecs is None else basis_product(vecs, part)
        ordered = np.concatenate([reversal_unfold(s, a) for s, a in zip(parts[::2], parts[1::2])])
        out = np.empty_like(ordered)
        out[0::2], out[1::2] = np.split(ordered, [(self.dim + 1) // 2])
        return out

    def evolve(self, state: DickeState, duration: float) -> DickeState:
        if duration < 0:
            raise DomainError("duration must be nonnegative")
        coeffs = self.coefficients(state.amplitudes[:, None])
        return DickeState(state.j, self.synthesize(coeffs, [duration])[:, 0])


@lru_cache(maxsize=8)  # class bases of ~(dim/4)^2: at most 3.1 MB at N = 1250, 1.6 MB for the x state
def spectral(j: float, cz: float, cx: float, cy: float) -> SpectralPropagator:
    """Reversal-class eigensystems of cz*Jz^2 + cx*Jx^2 + cy*Jy^2, each built when first populated."""
    return SpectralPropagator(*quadratic_bands(j, cz, cx, cy))


# ---------------------------------------------------------------------------
# driven model: split-step, aligned grid, period operators, all in the Jy frame

def _aligned_grid(t0: float, t1: float, h: float) -> list:
    """Substep boundaries: t0, the multiples of h strictly after t0 and before t1 as GRID_TOL reads them, t1."""
    inner = np.arange(np.floor(t0 / h + GRID_TOL) + 1, np.ceil(t1 / h - GRID_TOL)) * h
    return [t0, *inner.tolist(), t1]


@lru_cache(maxsize=8)  # two complex (dim/2)^2 blocks each: 12.5 MB at N = 1250
def junction_blocks(j: float, h: float) -> tuple:
    """The s and a blocks U_c^T (d_top U_c) of W^T exp(-i h Jz^2) W, d_top the phases
    on the top half and middle row: Jz^2 commutes with m -> -m, so no entry joins the classes."""
    _, *basis = axis_eigensystem(j)
    check_memory(j, 3 * sum(len(u) ** 2 for u in basis), "junction blocks")  # the blocks, one d_top U_c
    return tuple(basis_product(u.T, _quadratic(j, h, u)) for u in basis)


def _by_parity(blocks: tuple, y: np.ndarray) -> np.ndarray:
    """diag(blocks) y for a frame block y, the s class on its top rows, the a class below."""
    out, ns = np.empty_like(y), len(blocks[0])
    np.matmul(blocks[0], y[:ns], out=out[:ns])
    np.matmul(blocks[1], y[ns:], out=out[ns:])
    return out


def _junction(j: float, y: np.ndarray, s: float, h: float) -> np.ndarray:
    """W^T exp(-i s Jz^2) W y: junction_blocks when s is h, else via z."""
    if abs(s - h) <= GRID_TOL * h:
        return _by_parity(junction_blocks(j, h), y)
    return frame_enter(j, _quadratic(j, s, frame_leave(j, y)))  # Rz(pi/2) commutes with Jz^2


def _drive_walk(j, y, env, h, grid) -> np.ndarray:
    """Strang steps over the grid, less the outer two Jz^2 half-steps, on a
    frame block y, where each y-rotation is diagonal. Rz(pi/2) commutes with
    Jz^2, so the half-steps that meet fuse into the junction for their sum."""
    vals = axis_eigensystem(j)[0]
    for k in range(1, len(grid)):
        if k > 1:
            y = _junction(j, y, (grid[k] - grid[k - 2]) / 2, h)
        y *= ladder_phases(j, vals, drive_integral(env, grid[k - 1], grid[k]))
    return y


def _split_steps(j, x, env, h, t0, t1, frame=(False, False)):
    """Strang steps on the grid aligned to h from t0 to t1 on a (dim, R)
    block: half Jz^2 phase, exact y-rotation, half Jz^2 phase. frame says
    whether it comes and goes in the frame; a z end costs one product."""
    grid = _aligned_grid(t0, t1, h)
    first, last, half = (grid[1] - grid[0]) / 2, (grid[-1] - grid[-2]) / 2, h / 2
    y = _junction(j, x, first, half) if frame[0] else frame_enter(j, _quadratic(j, first, x))
    y = _drive_walk(j, y, env, h, grid)
    return _junction(j, y, last, half) if frame[1] else _quadratic(j, last, frame_leave(j, y))


def _stacked(blocks: tuple) -> np.ndarray:
    """The frame block of an s and an a class block: s on the top rows, a below in the first columns."""
    ns, na = len(blocks[0]), len(blocks[1])
    y = np.zeros((ns + na, ns), dtype=complex)
    y[:ns], y[ns:, :na] = blocks
    return y


def _unstacked(y: np.ndarray, ns: int) -> tuple:
    """Copies of the s and a class blocks of a frame block from _stacked with ns s rows."""
    return np.array(y[:ns]), np.array(y[ns:, : len(y) - ns])


class _PeriodOperators:
    """Drive periods in the frame as parity blocks: U = Mh P Mh over the first
    half (Mh the half-step junction, P the walk between), and the whole period
    R U R^dagger U, as Omega(t + T/2) = -Omega(t). R = W^T Rz(pi) W sends frame
    index i (lambda) to perm[i] (-lambda) with a phase, reversing each class for
    even N, and the whole frame, swapping the classes, for odd N.

    Both shapes walk from Mh: P = D_n J ... J D_1 (D_k the substeps' diagonal y-phases, J the
    complex symmetric junction) from Mh is C = P Mh, and U = Mh C. At phase = pi/2 mod pi, Omega
    is symmetric about T/4 on [0, T/2], so D_k = D_{n+1-k} and P = A^T J A, A the walk over the
    first quarter period: the walk stops at C = A Mh, and U = C^T J C; for an odd n = spp/2 the
    lone middle substep D_mid stands between the halves, U = C^T J D_mid J C. spp 2 has no
    quarter walk."""

    def __init__(self, j: float, env: DriveEnvelope, spp: int):
        if spp % 2:
            raise DomainError("period operators need even steps_per_period")
        vals, us, ua = axis_eigensystem(j)
        dim, ns, na = len(vals), len(us), len(ua)
        check_memory(j, 16 * dim * ns, "period operators")  # the build peaks at 12.4 dim ns entries (N = 300)
        self.blocks = self._half(j, env, spp)
        # R[perm[i], i] = (B^T Rz(pi) A)[., i], A and B the bases of i's class and of its image: +-1 or +-i
        self.perm = np.r_[ns - 1 : -1 : -1, dim - 1 : ns - 1 : -1] if dim % 2 else np.arange(dim)[::-1]
        pairs, z = zip((us, ua), (us, ua) if dim % 2 else (ua, us)), quarter_turn(j) ** 2
        phases = [(b[:, ::-1] * z[: len(a)] * a).sum(axis=0) for a, b in pairs]
        self.phase = np.round(np.concatenate(phases))[:, None]
        self.period = _unstacked(self.jump(_stacked(self.blocks), 1), ns)

    @staticmethod
    def _half(j: float, env: DriveEnvelope, spp: int) -> tuple:
        """U's class blocks: Mh C or, at a mirror phase, C^T J C; the walks' blocks go on return."""
        h = env.period / spp
        mh = junction_blocks(j, h / 2)
        ns, na = len(mh[0]), len(mh[1])
        # Omega is symmetric about T/4 where cos(phase) = 0: 2e-16 at the floats nearest +-pi/2, +-3pi/2
        mirror = spp >= 4 and abs(np.cos(env.phase)) <= 1e-15
        q = spp // 4 if mirror else spp // 2
        c = _drive_walk(j, _stacked(mh), env, h, [k * h for k in range(q + 1)])  # C = A Mh, or P Mh
        if not mirror:
            return _unstacked(_by_parity(mh, c), ns)
        jh = junction_blocks(j, h)
        y = _by_parity(jh, c)
        if spp % 4:  # spp/2 odd: the middle substep
            y = _by_parity(jh, _drive_walk(j, y, env, h, [q * h, (q + 1) * h]))
        return c[:ns].T @ y[:ns], c[ns:, :na].T @ y[ns:, :na]

    def jump(self, y: np.ndarray, half_index: int, halves: int = 1) -> np.ndarray:
        """Advance a (dim, R) frame block from half_index * T/2 by one half
        period (U, or R U R^dagger for an odd half) or, from an even one, two."""
        if half_index % 2 == 0:
            return _by_parity(self.period if halves == 2 else self.blocks, y)
        return (self.phase * _by_parity(self.blocks, self.phase.conj() * y[self.perm]))[self.perm]


@lru_cache(maxsize=4)  # four complex (dim/2)^2 blocks each: 25 MB at N = 1250
def period_operators(j: float, env: DriveEnvelope, spp: int) -> _PeriodOperators:
    return _PeriodOperators(j, env, spp)


class DrivenEngine:
    """Walker for one driven stretch: half-period jumps and split steps, the
    block in the frame at multiples of h and in z elsewhere. The span it will
    cover decides whether the period operators pay for their build."""

    def __init__(self, j: float, env: DriveEnvelope, spp: int, span: float):
        self.j, self.env, self.h, self.h2, self.half_steps = j, env, env.period / spp, env.period / 2, spp / 2
        self._ops = period_operators(j, env, spp) if self.jumps_pay(j, env, spp, span) else None

    @staticmethod
    def jumps_pay(j: float, env: DriveEnvelope, spp: int, span: float) -> bool:
        """Period operators pay from 1.3-1.7, 10-11, 27-32 periods at N = 100, 300, 1250 at phase -pi/2,
        and from 2.7, 15-19, 51-52 at phase 0.3 (spp 64, one thread)."""
        return spp % 2 == 0 and span / env.period >= max(16, dim_for(j) / 20)

    def framed(self, t: float) -> bool:
        """Whether advance holds the block at t in the frame: a multiple of h in t / h -+ GRID_TOL."""
        return (t / self.h + GRID_TOL) // 1 >= t / self.h - GRID_TOL

    def branch_point(self, t: float) -> tuple:
        """k of the half period [k T/2, (k+1) T/2) holding t, and the chain's stop for t's branch."""
        k = int(np.floor((t / self.h + GRID_TOL) / self.half_steps))
        return k, (k - k % 2) * self.h2

    def _walk(self, y, t0, t1):
        return _split_steps(self.j, y, self.env, self.h, t0, t1, (self.framed(t0), self.framed(t1)))

    def advance(self, y: np.ndarray, t_from: float, t_to: float) -> np.ndarray:
        """Evolve a (dim, R) block from t_from to t_to, ends held as framed() says: split steps
        to the first half-period instant, whole periods from an even one and single halves
        elsewhere, split steps from the last. Cut at whole-period instants, where a sampled
        chain stops (its samples read branches), a stretch takes the same products."""
        a, b = int(np.ceil((t_from / self.h - GRID_TOL) / self.half_steps)), self.branch_point(t_to)[0]
        if self._ops is None or b < a:
            return self._walk(y, t_from, t_to) if t_to > t_from else y
        y = self._walk(y, t_from, a * self.h2) if a * self.half_steps > t_from / self.h + GRID_TOL else y
        while a < b:
            halves = 2 if a % 2 == 0 and a + 1 < b else 1
            y, a = self._ops.jump(y, a, halves), a + halves
        return self._walk(y, b * self.h2, t_to) if b * self.half_steps < t_to / self.h - GRID_TOL else y


# ---------------------------------------------------------------------------
# schedule execution

def renormalized(x: np.ndarray, renorms: np.ndarray) -> np.ndarray:
    """Divide, in place, each column whose norm drifts beyond 1e-12; renorms counts them."""
    norms = np.sqrt((x.real**2 + x.imag**2).sum(axis=0))
    drift = np.abs(norms - 1.0) > RENORM_STEP_TOL
    if drift.any():
        x[:, drift] /= norms[drift]
        renorms += drift
    return x


def _stepper(j: float, seg) -> tuple:
    """(advance, framed, branch_point) as in DrivenEngine; a quadratic chain steps through every sample."""
    if isinstance(seg, QuadraticSegment):
        def step(x, t_from, t_to):
            return _quadratic(j, t_to - t_from, x) if t_to > t_from else x

        return step, lambda _: False, lambda t: (t, t)
    engine = DrivenEngine(j, seg.env, seg.steps_per_period, seg.duration)
    return engine.advance, engine.framed, engine.branch_point


def evolve_block(
    j: float,
    block: np.ndarray,
    schedule: ProtocolSchedule,
    scales: np.ndarray | None = None,
    runs: int = 0,
    keep=(),
) -> tuple[np.ndarray, list]:
    """Apply the segments in order to every column of a (dim, R) block,
    sampling diagnostics at the requested times.

    Pulse k turns column r by its angle times scales[k, r] (1 when scales
    is None). Every other segment acts on all columns alike. Returns the
    final block and one RunRecord for each of the first runs columns;
    later columns are padding and leave no record.

    Boundary convention: a sample time at or before a segment boundary, as schedule.at_or_before
    reads it, is taken before any zero-duration event listed after that boundary. A column
    whose norm drifts beyond 1e-12 is renormalized and counted in its
    record. Moments go TILE columns at a time (run_records reports them): a narrower block is
    queued as a copy (in the frame while a driven segment holds it there), TILE // width
    samples a tile, padded with its last column.

    A driven chain stops only at whole-period instants, so its final block has an unsampled run's bits
    when it jumps (without jumps, a stop splits a junction: rounding). A sample reads a branch: the chain
    at the start of the sample's half period (one half jump on the copy at most), stepped through that
    half period's earlier samples. keep maps sample times to raw z-basis blocks and renormalizations.
    """
    x = np.array(block, dtype=complex)
    width = x.shape[1]
    if scales is None:
        scales = np.ones((len(schedule.pulses()), width))
    renorms = np.zeros(width, dtype=int)
    samples = schedule.sample_times
    t, si, pulse_index = 0.0, 0, 0  # clock at the last duration's end, next sample, next pulse
    queue = []  # (block, framed) awaiting their moments
    tiles, freezes = [], []  # spin_moments of the sampled columns; freeze times

    def due(limit):
        return si < len(samples) and at_or_before(samples[si], limit)

    def flush():
        if queue:
            blocks, framed = zip(*queue)
            used = width * len(blocks)
            pad = max(0, TILE - used)
            tile = np.concatenate(blocks + (blocks[-1][:, -1:],) * pad, axis=1) if width < TILE else blocks[0]
            if any(framed):  # the tile leaves the frame in one product; z columns keep their bits
                mask = np.repeat(framed + framed[-1:], [width] * len(blocks) + [pad])
                tile = np.where(mask, frame_leave(j, tile), tile)
            tiles.append(spin_moments(j, tile[:, :used]))
            queue.clear()

    def emit(x, framed=False):  # the block at samples[si]
        nonlocal si
        if samples[si] in keep:
            keep[samples[si]] = (frame_leave(j, x) if framed else x.copy()), renorms.copy()
        si += 1
        queue.append((x.copy() if width < TILE else x, framed))
        if len(queue) >= TILE // width:
            flush()

    while due(0.0):
        emit(x)

    for seg, end in zip(schedule.segments, schedule.ends):
        if isinstance(seg, Pulse):
            angles = seg.rotation.angle * scales[pulse_index]
            pulse_index += 1
            x = renormalized(rotate_block(j, x, seg.rotation.axis, angles), renorms)
            continue
        if isinstance(seg, FreezeMarker):
            freezes.append(end)
            continue
        if isinstance(seg, (QuadraticSegment, DrivenSegment)):
            step, framed, branch_point = _stepper(j, seg)
            x = frame_enter(j, x) if framed(t) else x
            branch = None  # the half period (quadratic: the sample) that the branch y serves
            while due(end):
                s = min(max(samples[si], t), end)
                k, stop = branch_point(s)
                if k != branch:
                    x, t = step(x, t, max(stop, t)), max(stop, t)
                    y, ty, branch = x, t, k
                y, ty = step(y, ty, s), s
                emit(y, framed(s))
            x = step(x, t, end)
            x = frame_leave(j, x) if framed(end) else x
            x = renormalized(x, renorms)
            t = end
            continue
        raise DomainError(f"unknown segment type {type(seg).__name__}")

    flush()  # ProtocolSchedule keeps every sample due by the last duration's end

    records = run_records(j, samples, tiles, runs, width)
    for record, count in zip(records, renorms):
        record.events += [{"kind": "freeze", "time": time} for time in freezes]
        if count:
            record.add_event("renormalization", count=int(count))
    return x, records


def evolve_schedule(state: DickeState, schedule: ProtocolSchedule) -> tuple[DickeState, RunRecord]:
    """Run one state through a schedule: evolve_block on a one-column block."""
    x, (record,) = evolve_block(state.j, state.amplitudes[:, None], schedule, None, 1)
    return DickeState(state.j, x[:, 0]), record


def driven_doubling_check(
    state: DickeState, segment: DrivenSegment, terminal: np.ndarray | None = None
) -> dict:
    """One-shot integrator self-check: the terminal fidelity gap 1 - |<a|b>| / (|a| |b|) between
    the segment run from state at its steps_per_period and at twice that, each a one-segment
    schedule sampled raw at its end, and each run's norm drift |.| - 1. terminal, a longer chain's
    raw block sampled at the segment's end, stands in for the first run when that run jumps
    periods: both chains then stop at whole periods alone and take the same products. Without
    period operators each stop splits a junction, so the first run runs."""
    spp = segment.steps_per_period
    jumps = DrivenEngine.jumps_pay(state.j, segment.env, spp, segment.duration)

    def run(seg):
        keep = {seg.duration: None}
        evolve_block(state.j, state.amplitudes[:, None], ProtocolSchedule((seg,), (seg.duration,)), keep=keep)
        return keep[seg.duration][0]

    single = terminal if jumps and terminal is not None else run(segment)
    doubled = run(replace(segment, steps_per_period=2 * spp))
    norms = np.linalg.norm(single), np.linalg.norm(doubled)
    return {
        "steps_per_period": spp,
        "doubled": 2 * spp,
        "terminal_fidelity_gap": float(1.0 - abs(np.vdot(doubled, single)) / (norms[0] * norms[1])),
        "norm_drift": float(norms[0] - 1.0),
        "doubled_norm_drift": float(norms[1] - 1.0),
    }


# ---------------------------------------------------------------------------
# full-Hilbert oracle

MAX_ORACLE_N = 10


@lru_cache(maxsize=4)
def full_spin_ops(n: int) -> tuple:
    """Collective (Jx, Jy, Jz) as dense 2^n matrices, bit i = 1 meaning down."""
    if n > MAX_ORACLE_N:
        raise ResourceError(f"full-Hilbert oracle limited to N<={MAX_ORACLE_N}")
    sx = np.array([[0, 1], [1, 0]], dtype=complex) / 2
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex) / 2
    sz = np.array([[1, 0], [0, -1]], dtype=complex) / 2
    eye = np.eye(2, dtype=complex)
    totals = [np.zeros((2**n, 2**n), dtype=complex) for _ in range(3)]
    for i in range(n):
        for tot, single in zip(totals, (sx, sy, sz)):
            op = np.array([[1.0 + 0j]])
            for k in range(n):
                op = np.kron(op, single if k == i else eye)
            tot += op
    for tot in totals:
        tot.setflags(write=False)
    return tuple(totals)


@lru_cache(maxsize=4)
def dicke_isometry(n: int) -> np.ndarray:
    """2^n x (n+1) isometry whose column k is the symmetric state with k
    down spins, matching the descending-m Dicke ordering."""
    if n > MAX_ORACLE_N:
        raise ResourceError(f"full-Hilbert oracle limited to N<={MAX_ORACLE_N}")
    iso = np.zeros((2**n, n + 1), dtype=complex)
    counts = np.zeros(n + 1)
    for b in range(2**n):
        k = bin(b).count("1")
        iso[b, k] = 1.0
        counts[k] += 1
    iso /= np.sqrt(counts)[None, :]
    iso.setflags(write=False)
    return iso


def lift_to_full(state: DickeState) -> np.ndarray:
    n = state.n_particles
    if abs(state.j - n / 2) > 1e-9:
        raise DomainError("full-Hilbert oracle needs the maximal-j sector")
    return dicke_isometry(n) @ state.amplitudes


def project_to_dicke(n: int, full_vec: np.ndarray) -> tuple[DickeState, float]:
    """Project back onto the symmetric sector; returns the state and the
    fraction of norm left outside the sector (integrator norm drift does
    not count against it)."""
    amps = dicke_isometry(n).conj().T @ full_vec
    norm = np.linalg.norm(amps)
    full_norm = np.linalg.norm(full_vec)
    deficit = float(abs(full_norm**2 - norm**2) / full_norm**2)
    if deficit > 1e-6:
        raise DomainError(f"evolution left the symmetric sector, deficit {deficit:.2e}")
    return DickeState(n / 2, amps / norm), deficit


def _full_driven_evolve(n, vec, env, t0, t1):
    from scipy.integrate import solve_ivp  # pulls in scipy.optimize: only the oracle pays for it

    jx, jy, jz = full_spin_ops(n)
    jz2 = (jz @ jz).real
    dim = 2**n

    def rhs(t, y):
        psi = y[:dim] + 1j * y[dim:]
        dpsi = -1j * (jz2 @ psi + (env.omega0 * np.cos(env.omega * t + env.phase)) * (jy @ psi))
        return np.concatenate([dpsi.real, dpsi.imag])

    sol = solve_ivp(
        rhs,
        (t0, t1),
        np.concatenate([vec.real, vec.imag]),
        method="DOP853",
        rtol=1e-11,
        atol=1e-13,
        max_step=env.period / 16,
    )
    if not sol.success:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    return sol.y[:dim, -1] + 1j * sol.y[dim:, -1]


def full_hilbert_oracle(
    state: DickeState,
    generator,
    duration: float | None = None,
) -> tuple[DickeState, float]:
    """Evolve in the full 2^N space and project back to the Dicke basis.

    generator is a triple (cz, cx, cy), evolved under cz*Jz^2 + cx*Jx^2 + cy*Jy^2 for duration by
    dense expm, or a ProtocolSchedule, whose driven segments use an adaptive high-order integrator,
    deliberately a different discretization from the split-step engine it validates.
    """
    n = state.n_particles
    vec = lift_to_full(state)  # raises ResourceError past MAX_ORACLE_N
    jx, jy, jz = full_spin_ops(n)
    if not isinstance(generator, ProtocolSchedule):
        if duration is None:
            raise DomainError("oracle needs a duration")
        generator_matrix = sum(c * (op @ op) for c, op in zip(generator, (jz, jx, jy)))
        return project_to_dicke(n, sla.expm(-1j * duration * generator_matrix) @ vec)
    t = 0.0
    for seg in generator.segments:
        if isinstance(seg, Pulse):
            axis_op = sum(a * op for a, op in zip(seg.rotation.axis, (jx, jy, jz)))
            vec = sla.expm(-1j * seg.rotation.angle * axis_op) @ vec
        elif isinstance(seg, QuadraticSegment):
            vec = sla.expm(-1j * seg.duration * (jz @ jz)) @ vec
        elif isinstance(seg, DrivenSegment):
            vec = _full_driven_evolve(n, vec, seg.env, t, t + seg.duration)
        elif not isinstance(seg, FreezeMarker):
            raise DomainError(f"unknown segment type {type(seg).__name__}")
        t += seg.duration
    return project_to_dicke(n, vec)
