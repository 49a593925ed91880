"""Timeline types: evolution segments, instantaneous pulses, freeze events,
and the noise model that perturbs pulse areas."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .dicke import RotationSpec
from .errors import DomainError
from .hamiltonians import DriveEnvelope


@dataclass(frozen=True)
class QuadraticSegment:
    """Evolution under chi * J_axis^2 for the given duration (chi*t units)."""

    axis: str
    chi: float
    duration: float

    def __post_init__(self):
        if self.axis not in ("x", "y", "z"):
            raise DomainError(f"axis must be x/y/z, got {self.axis!r}")
        if self.duration < 0:
            raise DomainError("segment duration must be nonnegative")


@dataclass(frozen=True)
class DrivenSegment:
    """Evolution under chi*Jz^2 + Omega(t)*Jy from t0 to t1.

    t0/t1 are absolute times so the drive phase stays referenced to the
    schedule origin; steps_per_period controls the split-step grid.
    """

    env: DriveEnvelope
    chi: float
    t0: float
    t1: float
    steps_per_period: int = 64

    def __post_init__(self):
        if self.t1 < self.t0:
            raise DomainError("driven segment must have t1 >= t0")
        if self.steps_per_period < 16:
            raise DomainError("steps_per_period must be at least 16")

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class Pulse:
    """Instantaneous rotation; evolve_block's scales are the only way to scale its angle."""

    rotation: RotationSpec

    duration = 0.0


@dataclass(frozen=True)
class FreezeMarker:
    """Marks the freeze instant, read off the schedule clock; the rotations
    that realize it are the pulses immediately following this marker."""

    duration = 0.0


@dataclass(frozen=True)
class ProtocolSchedule:
    """Ordered timeline plus the diagnostic sample times (chi*t units).

    Segments are laid back to back; zero-duration events (pulses, freeze
    markers) act at the instant between their neighbors. A sample falling
    exactly on a boundary reports the state before any event listed after
    that boundary.
    """

    segments: tuple
    sample_times: tuple
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        times = tuple(float(t) for t in self.sample_times)
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise DomainError("sample_times must be strictly increasing")
        total = self.total_time()
        if times and (times[0] < -1e-15 or times[-1] > total * (1 + 1e-12) + 1e-15):
            raise DomainError("sample_times must lie within the schedule span")
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "sample_times", times)

    def total_time(self) -> float:
        """The clock at the end, added segment by segment as evolve_block adds it."""
        return reduce(lambda t, seg: t + getattr(seg, "duration", 0.0), self.segments, 0.0)

    def pulses(self):
        return [seg for seg in self.segments if isinstance(seg, Pulse)]


@dataclass(frozen=True)
class NoiseModel:
    """Pulse-area fluctuation: every pulse angle is scaled by 1 + r*eta with
    r uniform in [-0.5, 0.5], drawn afresh for every pulse."""

    eta: float
    seed: int = 0

    def __post_init__(self):
        if self.eta < 0:
            raise DomainError("eta must be nonnegative")
