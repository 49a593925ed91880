"""Property tests on random inputs: small schedules of pulses and quadratic
segments through evolve_schedule against the 2^N tensor-product oracle, the
group law that turns Jz^2 twisting into Jx^2 twisting, and schedules with
driven stretches and samples on and off the step grid through the period
operators against split steps alone; rotation composition about one axis, the
snapshot round trip, and the boundary-sample convention. Examples are
derandomized, so every run checks the same cases."""

import json

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsqueeze.diagnostics import squeezing_report
from spinsqueeze.dicke import DickeState, RotationSpec, fidelity, rotate
from spinsqueeze.hamiltonians import DriveEnvelope, quadratic_matrix
from spinsqueeze.propagator import DrivenEngine, evolve_schedule, full_hilbert_oracle
from spinsqueeze.schedule import DrivenSegment, ProtocolSchedule, Pulse, QuadraticSegment

from drive_helpers import split_steps_only

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)

unit_axes = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .filter(lambda v: np.linalg.norm(v) > 0.1)
    .map(lambda v: tuple(np.asarray(v) / np.linalg.norm(v)))
)
pulses = st.builds(
    lambda axis, angle: Pulse(RotationSpec(axis, angle)),
    unit_axes,
    st.floats(-np.pi, np.pi),
)
quadratics = st.builds(QuadraticSegment, st.floats(0.0, 0.5))


def random_state(j, seed):
    rng = np.random.default_rng(seed)
    dim = int(round(2 * j)) + 1
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return DickeState(j, vec / np.linalg.norm(vec))


@PROPERTY
@given(
    n=st.integers(1, 6),
    segments=st.lists(st.one_of(pulses, quadratics), min_size=1, max_size=6),
    seed=st.integers(0, 2**16),
)
def test_random_schedule_matches_full_oracle(n, segments, seed):
    state = random_state(n / 2, seed)
    schedule = ProtocolSchedule(tuple(segments), ())
    got, _ = evolve_schedule(state, schedule)
    want, _ = full_hilbert_oracle(state, schedule)
    assert fidelity(got, want) >= 1 - 1e-10


@PROPERTY
@given(
    n=st.integers(1, 40),
    duration=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_y_quarter_turns_carry_jz2_onto_jx2(n, duration, seed):
    # Ry(pi/2) exp(-i t Jz^2) Ry(-pi/2) = exp(-i t Jx^2), phases included
    state = random_state(n / 2, seed)
    turns = (
        Pulse(RotationSpec((0, 1, 0), -np.pi / 2)),
        QuadraticSegment(duration),
        Pulse(RotationSpec((0, 1, 0), np.pi / 2)),
    )
    sandwich, _ = evolve_schedule(state, ProtocolSchedule(turns, ()))
    direct = sla.expm(-1j * duration * quadratic_matrix(state.j, "x")) @ state.amplitudes
    assert np.max(np.abs(sandwich.amplitudes - direct)) <= 1e-10


DRIVE_OMEGA = 2 * np.pi * 50.0


def increasing(times, gap=1e-9):
    out = []
    for t in sorted(times):
        if not out or t - out[-1] > gap:
            out.append(t)
    return out


@st.composite
def driven_schedules(draw):
    """Pulses, quadratic segments and driven stretches of 16.5 to 20 periods
    (enough for the period operators at N <= 12), with sample times on the
    step grid, on half-period boundaries and off the grid."""
    t, segments, samples = 0.0, [], []
    kinds = draw(st.lists(st.sampled_from(["pulse", "quadratic", "driven"]), min_size=1, max_size=4))
    for kind in kinds + ["driven"]:
        if kind == "pulse":
            segments.append(draw(pulses))
        elif kind == "quadratic":
            segments.append(draw(quadratics))
            t += segments[-1].duration
        else:
            phase = draw(st.sampled_from([0.0, 0.3, np.pi / 2, -np.pi / 2, 0.9]))
            env = DriveEnvelope(0.9057 * DRIVE_OMEGA, DRIVE_OMEGA, phase)
            spp = draw(st.sampled_from([16, 18, 32]))
            h, duration = env.period / spp, env.period * draw(st.floats(16.5, 20.0))
            t1 = t + duration
            segments.append(DrivenSegment(env, duration, spp))
            for step, count in ((h, 4), (env.period / 2, 2)):
                grid = st.integers(int(np.ceil(t / step)), int(np.floor(t1 / step)))
                samples += [k * step for k in draw(st.lists(grid, max_size=count))]
            samples += draw(st.lists(st.floats(t, t1), max_size=4))
            t = t1
    return ProtocolSchedule(tuple(segments), tuple(increasing(samples)))


@PROPERTY
@given(n=st.integers(1, 12), schedule=driven_schedules(), seed=st.integers(0, 2**16))
def test_period_operators_match_split_steps_in_random_schedules(n, schedule, seed):
    for seg in schedule.segments:
        if isinstance(seg, DrivenSegment):
            assert DrivenEngine(n / 2, seg.env, seg.steps_per_period, seg.duration)._ops is not None
    state = random_state(n / 2, seed)
    fast, fast_record = evolve_schedule(state, schedule)
    with split_steps_only():
        slow, slow_record = evolve_schedule(state, schedule)
    assert fidelity(fast, slow) >= 1 - 1e-10
    assert np.array_equal(fast_record.times(), slow_record.times())
    assert np.allclose(fast_record.xi2(), slow_record.xi2(), rtol=1e-10, atol=0)


@PROPERTY
@given(
    n=st.integers(1, 12),
    axis=unit_axes,
    a=st.floats(-np.pi, np.pi),
    b=st.floats(-np.pi, np.pi),
    seed=st.integers(0, 2**16),
)
def test_rotations_about_one_axis_compose(n, axis, a, b, seed):
    # R(a) R(b) = R(a + b) about any axis
    state = random_state(n / 2, seed)
    twice = rotate(rotate(state, RotationSpec(axis, b)), RotationSpec(axis, a))
    once = rotate(state, RotationSpec(axis, a + b))
    assert fidelity(twice, once) >= 1 - 1e-12


@PROPERTY
@given(n=st.integers(1, 40), seed=st.integers(0, 2**16))
def test_snapshot_round_trip_is_bit_exact(n, seed):
    state = random_state(n / 2, seed)
    back = DickeState.from_snapshot(json.loads(state.to_snapshot_json()))
    assert back.j == state.j
    assert back.amplitudes.tobytes() == state.amplitudes.tobytes()


boundary_quadratics = st.builds(QuadraticSegment, st.one_of(st.just(0.0), st.floats(0.01, 0.5)))


@PROPERTY
@given(
    n=st.integers(1, 8),
    segments=st.lists(st.one_of(pulses, boundary_quadratics), min_size=1, max_size=8),
    offset=st.sampled_from((0.0, 0.5, 2.0)),
    seed=st.integers(0, 2**16),
)
def test_boundary_sample_precedes_the_events_after_it(n, segments, offset, seed):
    # a sample offset from each segment boundary by at most the instant rule's width
    # (offset counts widths) reports the state after the shortest prefix reaching that
    # time, before any zero-duration event listed later; a sample past that width reports
    # the state after the longest such prefix, run on to the sample by the next segment
    state = random_state(n / 2, seed)
    first, last, t = {0.0: 0}, {0.0: 0}, 0.0
    for k, seg in enumerate(segments, 1):
        t += seg.duration
        first.setdefault(t, k)
        last[t] = k
    inside = offset <= 1
    bounds = list(first) if inside else list(first)[:-1]  # nothing lies past the last end
    times = [b + offset * (1e-12 * b + 1e-15) for b in bounds]  # the width at b >= 0
    _, record = evolve_schedule(state, ProtocolSchedule(tuple(segments), tuple(times)))
    assert np.array_equal(record.times(), times)
    for b, time, rep in zip(bounds, times, map(record.report.column, range(len(times)))):
        prefix = segments[: first[b]] if inside else segments[: last[b]] + [QuadraticSegment(time - b)]
        want = squeezing_report(evolve_schedule(state, ProtocolSchedule(tuple(prefix), ()))[0])
        assert rep.xi2 == pytest.approx(want.xi2, rel=1e-9, abs=1e-12)
        assert np.allclose(rep.mean_spin, want.mean_spin, rtol=0, atol=1e-9)
