import importlib
import importlib.util
from pathlib import Path

import pytest

import hoftrace
import hoftrace.oracle


@pytest.mark.parametrize("name", hoftrace.__all__)
def test_public_names_resolve(name):
    assert getattr(hoftrace, name) is not None


def test_oracle_names_are_the_oracle_objects():
    assert hoftrace.RangeError is hoftrace.oracle.RangeError
    from hoftrace import bz_trace

    assert bz_trace is hoftrace.oracle.bz_trace


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="module 'hoftrace' has no attribute 'no_such_name'"):
        hoftrace.no_such_name


def _tracer_wrap_points():
    # read perfbench's tracer as it is; it imports only the standard library
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return sorted({point[:2] for point in tracer.WRAP_POINTS} | set(tracer.EXTRA_COUNTS))


@pytest.mark.parametrize("module, attr", _tracer_wrap_points())
def test_tracer_wrap_points_resolve(module, attr):
    # Tracer.install raises AttributeError on a missing name, so --trace 1 would fail
    assert callable(getattr(importlib.import_module(module), attr))
