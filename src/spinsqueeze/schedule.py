"""Timeline types: evolution segments, instantaneous pulses, freeze events,
and the noise model that perturbs pulse areas. Times are chi*t with chi = 1,
so no segment names a coupling."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import isfinite
from numbers import Integral

from .dicke import RotationSpec
from .errors import DomainError
from .hamiltonians import DriveEnvelope

STEPS_PER_PERIOD = 64  # split steps per drive period unless a segment says otherwise


@dataclass(frozen=True)
class QuadraticSegment:
    """Evolution under Jz^2, one-axis twisting, for the given duration (chi*t units)."""

    duration: float

    def __post_init__(self):
        _check_timing(self)


def _check_timing(seg) -> None:
    if not (isfinite(seg.duration) and seg.duration >= 0):
        raise DomainError(f"segment duration must be finite and nonnegative, got {seg.duration}")


@dataclass(frozen=True)
class DrivenSegment:
    """Evolution under Jz^2 + Omega(t)*Jy for the given duration (chi*t units).

    Omega(t) is read off the schedule clock, so the drive phase stays
    referenced to the schedule origin wherever the segment starts;
    steps_per_period, an integer, controls the split-step grid.
    """

    env: DriveEnvelope
    duration: float
    steps_per_period: int = STEPS_PER_PERIOD

    def __post_init__(self):
        _check_timing(self)
        spp = self.steps_per_period
        if isinstance(spp, bool) or not isinstance(spp, Integral) or spp < 16:
            raise DomainError(f"steps_per_period must be an integer of at least 16, got {spp!r}")


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
        if not all(map(isfinite, times)) or any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise DomainError("sample_times must be finite and strictly increasing")
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
        if not (isfinite(self.eta) and self.eta >= 0):
            raise DomainError(f"eta must be finite and nonnegative, got {self.eta}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, Integral) or self.seed < 0:
            raise DomainError(f"seed must be a nonnegative integer, got {self.seed!r}")
