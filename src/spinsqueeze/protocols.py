"""Executable squeezing protocols.

build_repeated_pulse lays out the pulse-pair sequence whose average is the
two-axis model at one third the coupling; build_modulated_drive covers the
continuously driven variant. Both freeze through _probe and _freeze: one noiseless
pass locates the sampled squeezing minimum and is the run's record up to it, rotation
signs minimize the post-rotation Jz variance, and the tail is plain Jz^2 evolution of
the frozen state, the record after the freeze.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .dicke import (
    DickeState,
    RotationSpec,
    css_amplitudes,
    make_dicke_state,
    m_values,
    rotate,
)
from .diagnostics import OptimumResult, RunRecord, find_optimum, run_records, squeezing_columns
from .errors import DomainError, ResourceError
from .hamiltonians import DriveEnvelope, alpha0, drive_value
from .propagator import TILE, SpectralPropagator, evolve_block, evolve_schedule, renormalized, spectral
from .schedule import (
    DrivenSegment,
    FreezeMarker,
    NoiseModel,
    ProtocolSchedule,
    Pulse,
    QuadraticSegment,
    STEPS_PER_PERIOD,
)

PAPER_RATIO = 0.9057  # omega0/omega putting the averaged model on the TACT point
OMEGA_OVER_CHI = 2 * np.pi * 2e4  # the paper's drive frequency
DRIVE_PHASE = -np.pi / 2  # the paper's drive phase: Omega(t) = Omega0 sin(omega t)
N_PERIODS = 50  # pulse periods to the protocol optimum
N_SAMPLES = 600  # samples of a reference curve
REFERENCE_SPAN = 3.0  # reference runs cover this many analytic optima
DRIVE_SPAN = 1.25  # an unfrozen drive runs this many t_opt
FINE_WINDOW = (0.85, 1.1)  # eighth-period drive samples between these multiples of the optimum
POST_TIME_FACTOR = 10.0  # the Jz^2 hold after a freeze lasts this many t_opt
POST_SAMPLES = 200  # samples over that hold
PULSE_WINDOW = 2  # pulse freeze candidates: this many periods either side of the reference optimum
DRIVE_WINDOW = 1  # drive freeze candidates: drive zeros within this many periods of it
MAX_WORKERS = 4  # Monte Carlo threads unless SPINSQUEEZE_THREADS says otherwise
FREEZE_TURN = RotationSpec((-1.0, 0.0, 0.0), np.pi / 4)  # turns the squeezed axis onto z
MAX_DRIVE_ZEROS = 10**6  # drive zeros one drive_zero_times call may list; N = 2 at 2pi*1e5 lists 389,895


def t_opt_oat(n_particles: float) -> float:
    """Asymptotic optimal one-axis time, 6^(1/6) N^(-2/3)."""
    return 6 ** (1 / 6) * n_particles ** (-2 / 3)


def t_opt_tact(n_particles: float) -> float:
    """Asymptotic optimal two-axis time, ln(4N) / (2N)."""
    return np.log(4 * n_particles) / (2 * n_particles)


# the bare models: each one's analytic optimum and its generator triple (cz, cx, cy)
MODELS = {"oat": (t_opt_oat, (1.0, 0.0, 0.0)), "tact": (t_opt_tact, (1.0, 0.0, -1.0))}


def t_opt_protocol(n_particles: float) -> float:
    """Both effective protocols run at coupling chi/3, so their optimum sits
    at three times the two-axis value."""
    return 3.0 * t_opt_tact(n_particles)


def _css_x(n_particles: int) -> DickeState:
    return DickeState(n_particles / 2, css_amplitudes(n_particles / 2, np.pi / 2, 0.0))


# ---------------------------------------------------------------------------
# reference runs

def _spectral_record(initial, times, prop: SpectralPropagator) -> RunRecord:
    """Squeezing at each time under prop's generator. The initial state
    enters the eigenbasis once; each TILE consecutive times become the
    columns of one block."""
    coeffs = prop.coefficients(initial.amplitudes[:, None])
    chunks = [np.asarray(times[k : k + TILE], dtype=float) for k in range(0, len(times), TILE)]
    tiles = [(squeezing_columns(initial.j, prop.synthesize(coeffs, c)), len(c)) for c in chunks]
    return run_records(times, tiles, 1)[0]


def reference_runs(n_particles: int, model: str = "oat", n_samples: int = N_SAMPLES) -> RunRecord:
    """Squeezing time series for the bare one-axis or two-axis model.

    one-axis: x-pointing coherent state under Jz^2 (diagonal phases);
    two-axis: same state under Jz^2 - Jy^2 via its cached parity-split
    eigensystem. Spans [0, REFERENCE_SPAN * analytic optimum].
    """
    if model not in MODELS:
        raise DomainError(f"model must be one of {tuple(MODELS)}, got {model!r}")
    t_opt, generator = MODELS[model]
    initial = _css_x(n_particles)
    times = np.linspace(0.0, REFERENCE_SPAN * t_opt(n_particles), n_samples)
    return _spectral_record(initial, times, spectral(initial.j, *generator))


def effective_pulse_record(n_particles, chi, times) -> RunRecord:
    """xi^2 under the exact averaged pulse generator chi*(2Jx^2 + Jz^2)/3
    from the north-pole state."""
    initial = make_dicke_state(n_particles / 2, n_particles / 2)
    return _spectral_record(initial, times, spectral(initial.j, chi / 3.0, 2.0 * chi / 3.0, 0.0))


def effective_drive_record(n_particles, omega0_over_omega, times) -> RunRecord:
    """xi^2 under the exact averaged drive generator. The frame rotation of
    the nonzero-phase form cancels in xi^2, so the unrotated mixture from
    the x-pointing state covers every drive phase."""
    a0 = alpha0(omega0_over_omega)
    initial = _css_x(n_particles)
    return _spectral_record(initial, times, spectral(initial.j, a0, 1.0 - a0, 0.0))


@lru_cache(maxsize=32)
def reference_optimum(n_particles: int) -> OptimumResult:
    """Numeric two-axis optimum (time and value); anchors freeze windows."""
    return find_optimum(reference_runs(n_particles, "tact"))


# ---------------------------------------------------------------------------
# protocol bundles

@dataclass
class ProtocolBundle:
    """A built protocol: timeline, initial state, metadata, and when frozen the state right after
    the freeze pulses (run on from at_freeze, the raw block the record's pass samples at the
    freeze instant, which the doubling check reuses when its run jumps) and the noiseless record."""

    schedule: ProtocolSchedule
    initial_state: DickeState
    meta: dict = field(default_factory=dict)
    frozen: DickeState | None = None
    at_freeze: np.ndarray | None = None
    record: RunRecord | None = None

    def frozen_state(self) -> DickeState:
        if self.frozen is None:
            raise DomainError("protocol was built without a freeze")
        return self.frozen


def _best_signs(state: DickeState, rotations) -> tuple[tuple, float]:
    """Try every angle-sign combination of the freeze rotations, one column
    each, and keep the one minimizing Var(Jz) on the probe state."""
    signs = np.array(list(product((1.0, -1.0), repeat=len(rotations))))
    block = np.repeat(state.amplitudes[:, None], len(signs), axis=1)
    pulses = ProtocolSchedule(tuple(Pulse(rot) for rot in rotations), ())
    block, _ = evolve_block(state.j, block, pulses, signs.T)
    m = m_values(state.j)[:, None]
    p = block.real**2 + block.imag**2
    var = (m**2 * p).sum(axis=0) - (m * p).sum(axis=0) ** 2
    best = int(np.argmin(var))
    return tuple(float(sg) for sg in signs[best]), float(var[best])


def _probe(initial: DickeState, segments, samples, candidates, meta: dict) -> tuple:
    """One noiseless pass of the segments, sampled at the candidates among
    the samples: the index of the candidate of least xi^2, NaN skipped (meta records each
    with its xi^2), the pass's record, and what evolve_block keeps at the candidates."""
    schedule, kept = ProtocolSchedule(tuple(segments), tuple(samples)), dict.fromkeys(candidates)
    _, (record,) = evolve_block(initial.j, initial.amplitudes[:, None], schedule, None, 1, kept)
    xi2 = record.xi2()[[schedule.sample_times.index(t) for t in candidates]]
    meta["freeze_candidates"] = list(zip(candidates, xi2.tolist()))
    return int(np.argmin(np.nan_to_num(xi2, nan=np.inf))), record, kept


def _freeze(initial, meta, prefix, t_star, rotations, probe, kept) -> ProtocolBundle:
    """Frozen bundle, its signs in meta: prefix runs to the freeze instant t_star, then the
    freeze marker, one signed pulse per rotation, and a Jz^2 hold of POST_TIME_FACTOR * t_opt
    sampled POST_SAMPLES times. Only that tail runs, from the pass's raw block at t_star (kept,
    with the pass's renormalizations before it) renormalized as at a segment end. The record is
    the pass record probe's samples up to t_star, then the frozen state's hold: its events are
    the freeze, the renormalizations of that chain and the freeze decisions."""
    j, (at_freeze, renorms) = initial.j, kept
    clock = ProtocolSchedule(prefix, ()).total_time()  # the schedule's clock at the freeze marker
    at_star = renormalized(at_freeze.copy(), renorms)
    signs, var_z = _best_signs(DickeState(j, at_star[:, 0]), rotations)
    meta.update({"freeze_time": t_star, "freeze_var_z": var_z})
    meta.update({"freeze_sign": signs[0]} if len(signs) == 1 else {"freeze_signs": signs})

    hold = QuadraticSegment(POST_TIME_FACTOR * meta["t_opt"])
    post = (t_star + np.linspace(0.0, hold.duration, POST_SAMPLES + 1)[1:]).tolist()
    turns = tuple(Pulse(rot.scaled(sign)) for rot, sign in zip(rotations, signs))
    before = probe.chi_t[probe.chi_t <= t_star].tolist()
    schedule = ProtocolSchedule(prefix + (FreezeMarker(), *turns, hold), before + post, meta)
    x, (turned,) = evolve_block(j, at_star, ProtocolSchedule(turns, ()), None, 1)
    frozen = DickeState(j, x[:, 0])
    _, held = evolve_schedule(frozen, ProtocolSchedule((hold,), [t - t_star for t in post]))
    tiles = [(probe.report, len(before)), (held.report, len(post))]
    record = run_records(schedule.sample_times, tiles, 1)[0]
    record.add_event("freeze", time=clock)
    count = int(renorms[0]) + sum(event["count"] for run in (turned, held) for event in run.events)
    if count:
        record.add_event("renormalization", count=count)
    return ProtocolBundle(schedule, initial, meta, frozen, at_freeze, _decided(record, meta))


# ---------------------------------------------------------------------------
# repeated-pulse protocol

def _pulse_period_segments(delta_t: float) -> list:
    """One period: pulse pair turning Jz^2 into Jx^2 for 2*delta_t, then
    bare Jz^2 for delta_t."""
    return [
        Pulse(RotationSpec((0.0, 1.0, 0.0), np.pi / 2)),
        QuadraticSegment(2 * delta_t),
        Pulse(RotationSpec((0.0, 1.0, 0.0), -np.pi / 2)),
        QuadraticSegment(delta_t),
    ]


def build_repeated_pulse(
    n_particles: int, n_periods: int = N_PERIODS, freeze: bool = False
) -> ProtocolBundle:
    """Pulse-pair protocol from the north-pole state.

    Each period of length t_c = 3*delta_t spends 2*delta_t under Jx^2
    (realized as +-pi/2 y-pulses around a Jz^2 stretch, so pulse noise can
    bite) and delta_t under Jz^2; delta_t is set so n_periods periods reach
    the protocol optimum. Sampling sits mid-section at n*t_c + delta_t and
    n*t_c + 2.5*delta_t. A freeze inserts the pi/4 pulse about -x at the
    least xi^2 of a probe over the mid-Jx^2 samples of the PULSE_WINDOW
    periods either side of the reference optimum, then hands over to plain
    Jz^2 evolution.
    """
    if n_periods < 1:
        raise DomainError("n_periods must be at least 1")
    if n_particles < 2:
        raise DomainError("need at least 2 particles")
    delta_t = t_opt_protocol(n_particles) / (3 * n_periods)
    t_c = 3 * delta_t
    gate = 2 * delta_t * n_particles
    meta = {
        "protocol": "repeated-pulse",
        "N": n_particles,
        "chi": 1.0,
        "n_periods": n_periods,
        "delta_t": delta_t,
        "t_c": t_c,
        "t_opt": t_opt_protocol(n_particles),
        "trotter_gate": gate,
    }
    meta["trotter_gate_ok"] = bool(gate < 1.0)
    if gate >= 1.0:
        warnings.warn(
            f"2*chi*delta_t*N = {gate:.3f} is not small; the pulse sequence "
            "will not track the effective two-axis model"
        )
    initial = make_dicke_state(n_particles / 2, n_particles / 2)

    def mid_samples(n_full: int):
        return [n * t_c + d for n in range(n_full) for d in (delta_t, 2.5 * delta_t)]

    if not freeze:
        segments = _pulse_period_segments(delta_t) * n_periods
        schedule = ProtocolSchedule(tuple(segments), tuple(mid_samples(n_periods)), meta)
        return ProtocolBundle(schedule, initial, meta)

    center = 3 * reference_optimum(n_particles).chi_t
    n_center = max(0, int(round((center - delta_t) / t_c)))
    candidates = list(range(max(0, n_center - PULSE_WINDOW), n_center + PULSE_WINDOW + 1))
    last, times = candidates[-1], [n * t_c + delta_t for n in candidates]
    segments = _pulse_period_segments(delta_t) * (last + 1)
    best, probe, kept = _probe(initial, segments, mid_samples(last) + times[-1:], times, meta)
    n_star = meta["freeze_period_index"] = candidates[best]

    prefix = segments[: 4 * n_star + 1] + [QuadraticSegment(delta_t)]  # to mid Jx^2 of n_star
    return _freeze(initial, meta, tuple(prefix), times[best], (FREEZE_TURN,), probe, kept[times[best]])


# ---------------------------------------------------------------------------
# modulated-drive protocol

def drive_zero_times(env: DriveEnvelope, t_max: float) -> np.ndarray:
    """Instants with Omega(t) = 0 in [0, t_max], counted before they are
    listed: more than MAX_DRIVE_ZEROS raise ResourceError."""
    k_min = np.ceil((0.0 - (np.pi / 2 - env.phase)) / np.pi - 1e-9)
    k_max = np.floor((env.omega * t_max - (np.pi / 2 - env.phase)) / np.pi + 1e-9)
    if not k_max - k_min + 1 <= MAX_DRIVE_ZEROS:
        raise ResourceError(
            f"omega/chi = {env.omega:.7g} puts {k_max - k_min + 1:.7g} drive zeros in "
            f"[0, {t_max:.7g}], more than the limit of {MAX_DRIVE_ZEROS}"
        )
    ks = np.arange(int(k_min), int(k_max) + 1)
    ts = (np.pi / 2 - env.phase + ks * np.pi) / env.omega
    return ts[(ts >= -1e-15) & (ts <= t_max * (1 + 1e-12))]


def build_modulated_drive(
    n_particles: int,
    omega_over_chi: float = OMEGA_OVER_CHI,
    omega0_over_omega: float = PAPER_RATIO,
    phase: float = DRIVE_PHASE,
    freeze: bool = False,
    steps_per_period: int = STEPS_PER_PERIOD,
) -> ProtocolBundle:
    """Modulated-drive protocol from the drive-phase-matched initial state
    exp(-i (omega0/omega) sin(phase) Jy) |j,j>_x.

    Unfrozen, it runs DRIVE_SPAN * t_opt, sampled at every drive zero (where
    the dynamics touches the averaged model) and every eighth period between
    the FINE_WINDOW multiples of the numeric optimum. A freeze turns the drive
    off at the drive zero of least xi^2 among those within DRIVE_WINDOW
    periods of the reference optimum, aligns the mean spin with a y-rotation
    by omega0/omega, rotates the squeezed axis onto z with a pi/4 pulse about
    -x (signs probed), then evolves under Jz^2 alone.
    """
    if n_particles < 2:
        raise DomainError("need at least 2 particles")
    env = DriveEnvelope(omega0_over_omega * omega_over_chi, omega_over_chi, phase)
    meta = {
        "protocol": "modulated-drive",
        "N": n_particles,
        "chi": 1.0,
        "omega_over_chi": omega_over_chi,
        "omega0_over_omega": omega0_over_omega,
        "phase": phase,
        "alpha0": alpha0(omega0_over_omega),
        "steps_per_period": steps_per_period,
        "t_opt": t_opt_protocol(n_particles),
    }
    meta["high_frequency_ok"] = bool(omega_over_chi >= 10 * n_particles)
    if omega_over_chi < 10 * n_particles:
        warnings.warn(
            f"omega/chi = {omega_over_chi:.3g} is not far above N = {n_particles}; "
            "the high-frequency average will be rough"
        )

    tilt = RotationSpec((0.0, 1.0, 0.0), (env.omega0 / env.omega) * np.sin(phase))
    initial = rotate(_css_x(n_particles), tilt)

    center = 3 * reference_optimum(n_particles).chi_t
    period = env.period

    if not freeze:
        t_end = DRIVE_SPAN * meta["t_opt"]
        zeros = drive_zero_times(env, t_end).tolist()
        t_lo, t_hi = max(0.0, FINE_WINDOW[0] * center), min(t_end, FINE_WINDOW[1] * center)
        fine = t_lo + (period / 8) * np.arange(int(np.floor((t_hi - t_lo) / (period / 8))) + 1)
        samples = _dedupe_times(zeros + fine.tolist())
        segments = (DrivenSegment(env, t_end, steps_per_period),)
        schedule = ProtocolSchedule(segments, tuple(samples), meta)
        return ProtocolBundle(schedule, initial, meta)

    # the zeros lie half a period apart, so +-DRIVE_WINDOW periods around center > 0 hold one;
    # DriveEnvelope bounds the phase, so rounding loses none of them
    zeros_all = drive_zero_times(env, center + (DRIVE_WINDOW + 1) * period)
    candidates = zeros_all[np.abs(zeros_all - center) <= DRIVE_WINDOW * period * (1 + 1e-12)].tolist()
    last = candidates[-1]
    segments = (DrivenSegment(env, last, steps_per_period),)
    best, probe, kept = _probe(initial, segments, drive_zero_times(env, last), candidates, meta)
    t_star = candidates[best]
    meta["drive_value_at_freeze"] = float(drive_value(env, t_star))

    prefix = (DrivenSegment(env, t_star, steps_per_period),)
    align = RotationSpec((0.0, 1.0, 0.0), env.omega0 / env.omega)
    return _freeze(initial, meta, prefix, t_star, (align, FREEZE_TURN), probe, kept[t_star])


def _dedupe_times(times):
    out = []
    for t in sorted(times):
        if not out or t - out[-1] > 1e-12 * max(1.0, abs(t)):
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# running protocols

def _noise_factors(schedule: ProtocolSchedule, noise: NoiseModel) -> np.ndarray:
    return 1.0 + noise.eta * np.random.default_rng(noise.seed).uniform(-0.5, 0.5, size=len(schedule.pulses()))


def _noisy(noise: NoiseModel | None) -> bool:
    return noise is not None and noise.eta > 0


def _decided(record: RunRecord, meta: dict) -> RunRecord:
    """The record with the freeze decisions in meta appended to its events."""
    for key in ("freeze_time", "freeze_sign", "freeze_signs"):
        if key in meta:
            record.add_event("freeze-decision", key=key, value=meta[key])
    return record


def _run_batch(schedule, initial, noises) -> list:
    """Records of runs of one schedule that differ only in their pulse noise.

    Noisy runs (at most TILE) become the columns of one TILE-wide block, padded by repeating the
    last run, so a run's bits depend neither on its position nor on the other runs. A noiseless
    run is one column.
    """
    block, scales = initial.amplitudes[:, None], None
    if _noisy(noises[0]):
        factors = np.stack([_noise_factors(schedule, noise) for noise in noises], axis=1)
        scales = factors[:, np.minimum(np.arange(TILE), len(noises) - 1)]
        block = np.repeat(block, TILE, axis=1)
    _, records = evolve_block(initial.j, block, schedule, scales, len(noises))
    return [_decided(record, schedule.meta) for record in records]


def run_protocol(
    schedule: ProtocolSchedule, initial: DickeState, noise: NoiseModel | None = None
) -> RunRecord:
    """Execute a schedule; with noise, every pulse area (freeze included)
    is scaled by its own 1 + r*eta draw. A noisy run is computed in a
    TILE-wide block, so it replays the matching Monte Carlo realization bit
    for bit."""
    return _run_batch(schedule, initial, [noise])[0]


@dataclass
class MonteCarloResult:
    records: list
    times: np.ndarray
    mean_xi2: np.ndarray
    seeds: list


def worker_count() -> int:
    env = os.environ.get("SPINSQUEEZE_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise DomainError(f"SPINSQUEEZE_THREADS must be an integer, got {env!r}") from None
    return max(1, min(MAX_WORKERS, os.cpu_count() or 1))


def run_monte_carlo(
    schedule: ProtocolSchedule,
    initial: DickeState,
    noise: NoiseModel,
    realizations: int,
) -> MonteCarloResult:
    """Independent noise realizations with seeds derived from the master
    seed, run TILE at a time as the columns of one block; the pool spreads
    the tiles over worker_count() threads. A realization's record is bit-identical
    whatever the pool size or the number of realizations, and equals
    run_protocol with that realization's seed."""
    if realizations < 1:
        raise DomainError("realizations must be at least 1")
    children = np.random.SeedSequence(noise.seed).spawn(realizations)
    seeds = [int(c.generate_state(1, np.uint64)[0]) for c in children]
    workers = worker_count()

    def tile(start: int) -> list:
        idx = range(start, min(start + TILE, realizations))
        noises = [NoiseModel(noise.eta, seeds[i]) for i in idx]
        return _run_batch(schedule, initial, noises)

    starts = range(0, realizations, TILE)
    if not _noisy(noise):  # every realization is the noiseless run: run it once
        run = run_protocol(schedule, initial)
        tiles = [[RunRecord(run.chi_t, run.report, list(run.events)) for _ in range(realizations)]]
    elif workers <= 1 or len(starts) == 1:
        tiles = [tile(k) for k in starts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            tiles = list(pool.map(tile, starts))
    records = [record for recs in tiles for record in recs]
    times = records[0].times()
    mean = np.mean([r.xi2() for r in records], axis=0)
    return MonteCarloResult(records=records, times=times, mean_xi2=mean, seeds=seeds)
