"""The per-layer tracer binds program names by string; every name it wraps
must still exist, so a traced benchmark run keeps working, and a name that
defines a row must stay on the path the row times. The tables are read
without installing the tracer."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from spinsqueeze import propagator
from spinsqueeze.dicke import make_css
from spinsqueeze.hamiltonians import DriveEnvelope
from spinsqueeze.schedule import DrivenSegment, ProtocolSchedule

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


@pytest.fixture(scope="module")
def layertrace():
    spec = importlib.util.spec_from_file_location("layertrace_tables", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_exist(layertrace):
    for mod, attr, name in layertrace.FUNCTIONS + layertrace.CACHED:
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr} ({name})"


def test_cached_entries_report_cache_info(layertrace):
    for mod, attr, name in layertrace.CACHED:
        assert hasattr(getattr(mod, attr), "cache_info"), f"{mod.__name__}.{attr} ({name})"


def test_wrapped_methods_exist(layertrace):
    for cls, attr, name in layertrace.METHODS:
        assert callable(getattr(cls, attr, None)), f"{cls.__name__}.{attr} ({name})"


def test_driven_stepping_goes_through_advance(monkeypatch):
    # the propagator.advance row times DrivenEngine.advance as driven stepping: a
    # driven schedule and the doubling check both step through it. The chain steps
    # to the whole period before a sample's half period, the sample's branch from
    # there, and the chain on to the end; each check run samples its own end, so
    # its branch and its chain both step from the last whole period to the end
    calls = []
    advance = propagator.DrivenEngine.advance
    monkeypatch.setattr(
        propagator.DrivenEngine, "advance", lambda eng, y, *a: calls.append(a) or advance(eng, y, *a)
    )
    env = DriveEnvelope(0.9057 * 2 * np.pi * 40.0, 2 * np.pi * 40.0, -np.pi / 2)
    state, seg = make_css(4, np.pi / 2, 0.0), DrivenSegment(env, 20.3 * env.period)
    propagator.evolve_schedule(state, ProtocolSchedule((seg,), (seg.duration / 2,)))
    t10, t20 = 10 * env.period, 20 * env.period
    assert [a[:2] for a in calls] == [(0.0, t10), (t10, seg.duration / 2), (t10, seg.duration)]
    calls.clear()
    propagator.driven_doubling_check(state, seg)
    assert [a[:2] for a in calls] == [(0.0, t20), (t20, seg.duration), (t20, seg.duration)] * 2
