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
