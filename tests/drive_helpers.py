"""Helpers shared by the tests that run the drive engine: a schedule's end read raw,
and a patch that keeps every driven segment on split steps alone."""

from unittest import mock

from spinsqueeze.propagator import DrivenEngine, evolve_block
from spinsqueeze.schedule import ProtocolSchedule


def raw_end(state, *segments):
    """The state run through the segments as one schedule, its amplitudes sampled raw at
    the end of the last segment: before any renormalization, so a lost norm shows."""
    t1 = ProtocolSchedule(segments, ()).total_time()
    keep = {t1: None}
    evolve_block(state.j, state.amplitudes[:, None], ProtocolSchedule(segments, (t1,)), keep=keep)
    return keep[t1][0][:, 0]


def split_steps_only():
    """A patch under which no DrivenEngine builds period operators, as at span 0: every
    driven segment then runs on split steps alone."""
    return mock.patch.object(DrivenEngine, "jumps_pay", staticmethod(lambda *args: False))
