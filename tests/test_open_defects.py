"""The open defects of ROADMAP.md, pinned as strict expected failures.

Each case asserts the correct behaviour, so it fails today.  When a change
mends a defect its case passes, pytest reports XPASS and the strict marker
fails the run: the mend then moves the case among the passing tests.  Only
an AssertionError counts as the expected failure, so a case that crashes
for another reason fails outright.
"""

import json

import pytest

from helpers import rel_err
from hoftrace.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="open defect: point-trace and series print wrong values, with exit 0, at large q",
)
def test_point_trace_equals_trace_below_twice_q(capsys):
    # for n < 2q the +/-s trace does not depend on s and equals the full trace
    flux = ("--p", "37", "--q", "101", "--lambda", "0.7")
    code, out = run_cli(capsys, "point-trace", *flux, "--n", "64", "--s", "1")
    assert code == 0
    point = json.loads(out)["records"][0]["value"]
    code, out = run_cli(capsys, "trace", *flux, "--n", "64")
    assert code == 0
    assert rel_err(point, json.loads(out)["trace"]) < 1e-9


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="open defect: the float coefficient table fails at some large q",
)
@pytest.mark.parametrize("lam", ("0.05", "3"))
def test_coeffs_at_q_401(capsys, lam):
    code, out = run_cli(capsys, "coeffs", "--p", "100", "--q", "401", "--lambda", lam)
    assert code == 0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="open defect: verify's quadrature check fails at tiny lambda_tilde",
)
def test_verify_passes_at_tiny_lambda_tilde(capsys):
    code, out = run_cli(capsys, "verify", "--q", "5", "--lambda", "1e-3", "--n-max", "8")
    assert (code, json.loads(out)["status"]) == (0, "pass")
