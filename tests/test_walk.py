import json
import math

import pytest

from helpers import WALK_RTOL
from hoftrace import oracle
from hoftrace.cli import main
from hoftrace.core import InvalidCoupling, make_flux
from hoftrace.walk import MIN_MOMENTA, walk_trace

FLUXES = ((0, 1), (1, 2), (1, 3), (2, 5), (3, 8), (2, 7), (5, 13), (37, 101), (100, 401))


@pytest.mark.parametrize("lam", (0.05, 0.7, 2.0, 3.0, 20.0))
@pytest.mark.parametrize("p, q", FLUXES)
def test_walk_trace_matches_the_table(p, q, lam):
    flux = make_flux(p, q)
    table = oracle.walk_trace_table(flux, lam, 64)
    for n in range(2, 65, 2):
        assert abs(walk_trace(flux, lam, n) - table[n]) <= WALK_RTOL * table[n], n


def test_unwalked_orders_are_exact():
    flux = make_flux(2, 5)
    assert walk_trace(flux, 0.7, 0) == 1.0
    assert [walk_trace(flux, 0.7, n) for n in range(1, 64, 2)] == [0.0] * 32


def test_low_orders_are_exact():
    assert walk_trace(make_flux(1, 3), 2.0, 2) == 4.0
    assert walk_trace(make_flux(1, 3), 2.0, 4) == 24.0


def test_one_ring_for_both_walks():
    assert oracle.MIN_MOMENTA is MIN_MOMENTA == 65


def test_walk_trace_rejects_bad_input():
    with pytest.raises(InvalidCoupling):
        walk_trace(make_flux(1, 3), 0.0, 8)
    with pytest.raises(InvalidCoupling):
        walk_trace(make_flux(1, 3), math.nan, 8)
    with pytest.raises(ValueError, match="nonnegative"):
        walk_trace(make_flux(1, 3), 2.0, -2)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("n", (8, 64))
@pytest.mark.parametrize("lam", ("1e5", "1e154", "1e200"))
def test_single_order_fails_where_the_table_fails(capsys, lam, n):
    # 1e154: every column is finite and only the ring's sum overflows
    single = run_cli(capsys, "trace", "--q", "3", "--lambda", lam, "--n", str(n))
    table = run_cli(capsys, "trace", "--q", "3", "--lambda", lam, "--n-max", str(n))
    assert (single[0], single[2]) == (table[0], table[2])
    if (lam, n) == ("1e5", 8):
        assert single[0] == 0
        value = json.loads(table[1])["records"][n]["value"]
        assert abs(json.loads(single[1])["value"] - value) <= WALK_RTOL * value
    else:
        assert (single[0], single[1]) == (1, "")
        assert single[2].startswith("hoftrace: error: Tr H^")
        assert single[2].endswith(" exceeds the float range at lambda " + repr(float(lam)) + "\n")


@pytest.mark.parametrize("n", ("8", "64"))
@pytest.mark.parametrize("lam", ("0", "-1", "nan"))
def test_single_order_rejects_a_bad_coupling(capsys, lam, n):
    for flag in ("--n", "--n-max"):
        code, out, err = run_cli(capsys, "trace", "--q", "3", f"--lambda={lam}", flag, n)
        assert (code, out) == (1, "")
        assert err.startswith("hoftrace: error: ") and err.count("\n") == 1
