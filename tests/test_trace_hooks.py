"""The per-layer tracer binds program names by string; every name it wraps
must still exist, so a traced benchmark run keeps working. The tables are
read without installing the tracer."""

import importlib.util
from pathlib import Path

import pytest

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
