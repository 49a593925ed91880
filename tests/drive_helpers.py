"""Helpers shared by the tests that run the drive engine: a schedule's end read raw,
a patch that keeps every driven segment on split steps alone, and the dense Jx
eigenbasis assembled from its two halves."""

from unittest import mock

import numpy as np

from spinsqueeze.dicke import axis_eigensystem, unfold
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


def dense_axis_basis(j):
    """(vals, W): Jx's eigenvalues and its dense real eigenbasis W, assembled from
    axis_eigensystem's halves by unfold, its columns in the frame order [s, a]."""
    vals = axis_eigensystem(j)[0]
    return vals, unfold(j, np.eye(len(vals))).real
