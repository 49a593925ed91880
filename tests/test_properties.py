"""Property tests on random inputs: small schedules of pulses and quadratic
segments through evolve_schedule against the 2^N tensor-product oracle, and
the group law that turns Jz^2 twisting into Jx^2 twisting. Examples are
derandomized, so every run checks the same cases."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsqueeze.dicke import DickeState, RotationSpec, fidelity
from spinsqueeze.propagator import evolve_schedule, full_hilbert_oracle
from spinsqueeze.schedule import ProtocolSchedule, Pulse, QuadraticSegment

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
quadratics = st.builds(
    QuadraticSegment,
    st.sampled_from("xyz"),
    st.floats(-2.0, 2.0),
    st.floats(0.0, 0.5),
)


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
    chi=st.floats(-2.0, 2.0),
    duration=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_y_quarter_turns_carry_jz2_onto_jx2(n, chi, duration, seed):
    # Ry(pi/2) exp(-i chi t Jz^2) Ry(-pi/2) = exp(-i chi t Jx^2), phases included
    state = random_state(n / 2, seed)
    turns = (
        Pulse(RotationSpec((0, 1, 0), -np.pi / 2)),
        QuadraticSegment("z", chi, duration),
        Pulse(RotationSpec((0, 1, 0), np.pi / 2)),
    )
    sandwich, _ = evolve_schedule(state, ProtocolSchedule(turns, ()))
    direct, _ = evolve_schedule(state, ProtocolSchedule((QuadraticSegment("x", chi, duration),), ()))
    assert np.max(np.abs(sandwich.amplitudes - direct.amplitudes)) <= 1e-10
