import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import hoftrace
import hoftrace.oracle
from hoftrace import (
    ChambersPolynomial,
    DensityProfile,
    DomainError,
    Flux,
    InvalidFlux,
    PartitionTerm,
    TraceKind,
    TraceMethod,
    TraceRecord,
)


@pytest.mark.parametrize("name", hoftrace.__all__)
def test_public_names_resolve(name):
    assert getattr(hoftrace, name) is not None


def test_oracle_names_are_the_oracle_objects():
    assert hoftrace.RangeError is hoftrace.oracle.RangeError
    from hoftrace import bz_trace

    assert bz_trace is hoftrace.oracle.bz_trace


def test_trace_record_is_one_type():
    # defined in core, where trace can reach it without compiling traces
    import hoftrace.core
    import hoftrace.traces

    assert hoftrace.TraceRecord is hoftrace.traces.TraceRecord is hoftrace.core.TraceRecord
    assert hoftrace.TraceMethod is hoftrace.traces.TraceMethod is hoftrace.core.TraceMethod


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="module 'hoftrace' has no attribute 'no_such_name'"):
        hoftrace.no_such_name


VALUE_TYPES = [
    (Flux, ("p", "q"), (1, 3)),
    (PartitionTerm, ("k", "ell"), (1, (2, 0))),
    (ChambersPolynomial, ("flux", "lam", "a"), (Flux(1, 3), 2.0, (-1.0, 6.0))),
    (
        TraceRecord,
        ("flux", "lam", "n", "s", "kind", "value", "method"),
        (Flux(1, 3), 2.0, 4, None, TraceKind.FULL, 24.0, TraceMethod.WALK),
    ),
    (DensityProfile, ("lam_tilde",), (1.0,)),
]


@pytest.mark.parametrize("cls, fields, values", VALUE_TYPES, ids=lambda v: getattr(v, "__name__", ""))
def test_value_type_contract(cls, fields, values):
    # immutable values with a fixed constructor, whatever class machinery builds them
    assert tuple(inspect.signature(cls).parameters) == fields
    made = cls(*values)
    assert tuple(getattr(made, field) for field in fields) == values
    assert cls(**dict(zip(fields, values))) == made
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(made, field, getattr(made, field))
    twin = cls(*values)
    assert twin == made
    assert hash(twin) == hash(made)
    assert repr(made).startswith(f"{cls.__name__}({fields[0]}=")


def test_value_type_text_and_validation():
    assert repr(Flux(1, 3)) == "Flux(p=1, q=3)"
    assert str(Flux(1, 3)) == "1/3"
    for p, q in ((2, 4), (3, 3)):
        with pytest.raises(InvalidFlux):
            Flux(p, q)
    with pytest.raises(DomainError):
        DensityProfile(0.0)


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
