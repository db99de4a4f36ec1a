import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import hoftrace
import hoftrace.chambers
from hoftrace import traces
from helpers import WALK_RTOL, ZONE_CASES, all_fluxes, rel_err, zone_traces
from hoftrace.cli import main
from hoftrace.core import TraceMethod, TraceRecord, lambda_tilde, make_flux
from hoftrace.oracle import point_spectrum_roots, walk_trace_table
from hoftrace.traces import TraceKind, trace_series


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, stdout=subprocess.PIPE, env=os.environ):
    """``python -m hoftrace ARGV`` in a fresh process, through the installed entry point."""
    src = str(Path(hoftrace.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "hoftrace", *argv],
        env={**env, "PYTHONPATH": src, "COLUMNS": "80"},  # argparse wraps help at COLUMNS
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
    )


def test_coeffs_golden(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--p", "1", "--q", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] == [-1.0, 8.0, -4.0]
    assert doc["p"] == 1 and doc["q"] == 4 and doc["lambda"] == 2.0


def test_coeffs_methods_agree(capsys):
    # --method still parses but selects nothing: there is one builder
    outputs = [
        run_cli(capsys, "coeffs", "--p", "2", "--q", "7", *method)
        for method in ((), ("--method", "recursive"), ("--method", "nested"))
    ]
    assert all(code == 0 for code, _, _ in outputs)
    assert outputs[0][1] == outputs[1][1] == outputs[2][1]
    doc = json.loads(outputs[0][1])
    assert doc["method"] == "nested"
    assert doc["a"] == list(hoftrace.chambers_nested(make_flux(2, 7), 2.0).a)


def test_trace_single(capsys):
    code, out, _ = run_cli(capsys, "trace", "--p", "1", "--q", "3", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["trace"] == 24.0
    assert doc["value"] == 24.0
    assert doc["method"] == "half-walk"
    assert doc["kind"] == "full"


def test_trace_table_schema(capsys):
    code, out, _ = run_cli(capsys, "trace", "--q", "2", "--n-max", "6")
    assert code == 0
    records = json.loads(out)["records"]
    assert len(records) == 7
    for record in records:
        assert set(record) == {"p", "q", "lambda", "kind", "n", "s", "value", "method"}


ODD_AND_ZERO_ORDERS = (0, *range(1, 64, 2))


@pytest.mark.parametrize("lam", (0.7, 2.0, 3.0))
@pytest.mark.parametrize("p, q", ((1, 3), (2, 5), (37, 101)))
def test_unwalked_orders_print_what_the_walk_gave(capsys, p, q, lam):
    # odd orders and order 0 are printed without a walk, labelled by the symmetry
    # that fixes them; the value is walk_trace_table's entry
    flux = make_flux(p, q)
    for n in ODD_AND_ZERO_ORDERS:
        code, out, err = run_cli(
            capsys, "trace", "--p", str(p), "--q", str(q), "--lambda", repr(lam), "--n", str(n)
        )
        value = walk_trace_table(flux, lam, n)[n]
        record = TraceRecord(flux, lam, n, None, TraceKind.FULL, value, TraceMethod.SYMMETRY)
        document = {**record.to_dict(), "trace": value}
        assert (code, err) == (0, "")
        assert out == json.dumps(document, indent=2) + "\n"


@pytest.mark.parametrize("n_max", (64, 63))
@pytest.mark.parametrize("p, q, lam", ((1, 3, 2.0), (2, 7, 0.7), (37, 101, 3.0)))
def test_trace_table_is_the_walk_table(capsys, p, q, lam, n_max):
    flux_args = ("--p", str(p), "--q", str(q), "--lambda", repr(lam))
    code, out, _ = run_cli(capsys, "trace", *flux_args, "--n-max", str(n_max))
    assert code == 0
    values = [record["value"] for record in json.loads(out)["records"]]
    assert values == walk_trace_table(make_flux(p, q), lam, n_max)


def test_odd_order_never_walks_into_an_overflow(capsys):
    # Tr H^2 overflows at lambda 1e200; order 7 is 0 whatever the coupling, and
    # no longer fails on an even order it does not print
    code, out, err = run_cli(capsys, "trace", "--q", "3", "--lambda", "1e200", "--n", "7")
    assert (code, err) == (0, "")
    assert json.loads(out)["trace"] == 0.0
    code, out, err = run_cli(capsys, "trace", "--q", "3", "--lambda", "1e200", "--n", "8")
    assert (code, out) == (1, "")
    assert err == "hoftrace: error: Tr H^2 exceeds the float range at lambda 1e+200\n"


def test_point_trace_values_and_warning(capsys):
    code, out, err = run_cli(
        capsys, "point-trace", "--p", "1", "--q", "2", "--n", "4", "--s", "0", "1", "9"
    )
    assert code == 0
    records = json.loads(out)["records"]
    assert [r["value"] for r in records[:2]] == [16.0, 17.0]
    assert "spectral range" in err


def test_point_trace_matches_series_record(capsys):
    # point-trace prints record n of the pm-s stream, bit for bit
    for p, q, lam, n in ((1, 2, 2.0, 4), (3, 8, 2.0, 64), (2, 7, 0.7, 31), (5, 13, 3.0, 40)):
        flux_args = ("--p", str(p), "--q", str(q), "--lambda", repr(lam))
        for s in (0.0, 1.0, 2.5):
            code, out, _ = run_cli(capsys, "point-trace", *flux_args, "--n", str(n), "--s", repr(s))
            assert code == 0
            (record,) = json.loads(out)["records"]
            code, out, _ = run_cli(
                capsys, "series", *flux_args, "--kind", "pm-s", "--s", repr(s), "--n-max", str(n)
            )
            assert code == 0
            expected = json.loads(out)["records"][n]
            assert record == expected
            assert record["method"] == "series"


def test_point_trace_builds_s_free_stream_once(capsys, monkeypatch):
    # one +/-s table serves every --s value: b is inverted once and nothing else is
    flux, lam, n = make_flux(5, 13), 0.7, 64
    b = traces.cached_polynomial(flux, lam).b_coefficients()
    b += [0.0] * (n + 1 - len(b))
    inverted = []
    series_inv = traces._series_inv

    def counting_inv(x, n_top):
        inverted.append(list(x))
        return series_inv(x, n_top)

    monkeypatch.setattr(traces, "_series_inv", counting_inv)
    traces._stream_table.cache_clear()
    code, out, _ = run_cli(
        capsys, "point-trace", "--p", "5", "--q", "13", "--lambda", "0.7", "--n", "64",
        "--s", "0", "1", "2",
    )
    assert code == 0
    assert len(json.loads(out)["records"]) == 3
    assert inverted == [b]
    assert traces._stream_table.cache_info().misses == 1


def test_overflowing_s_squared_keeps_s_free_orders(capsys):
    # s = 1e200 squares to inf; orders below 2q and odd orders do not depend on s
    code, out, _ = run_cli(capsys, "point-trace", "--q", "3", "--n", "2", "--s", "1e200")
    assert code == 0
    assert json.loads(out)["records"][0]["value"] == 4.0
    code, out, _ = run_cli(capsys, "point-trace", "--q", "3", "--n", "7", "--s", "1e200")
    assert code == 0
    assert json.loads(out)["records"][0]["value"] == 0.0
    code, out, _ = run_cli(
        capsys, "series", "--q", "3", "--kind", "pm-s", "--s", "1e200", "--n-max", "4"
    )
    assert code == 0
    values = [record["value"] for record in json.loads(out)["records"]]
    assert values == trace_series(make_flux(1, 3), 2.0, TraceKind.PLUS_MINUS_S, 0.0, 4)
    assert values == [1.0, 0.0, 4.0, 0.0, 24.0]
    # order 2q does depend on s, and its value is beyond the float range
    code, out, err = run_cli(capsys, "point-trace", "--q", "3", "--n", "6", "--s", "1e200")
    assert code == 1
    assert out == "" and "order 6" in err


def test_point_trace_names_an_overflowing_power_of_s(capsys):
    # s**2 = 1e200 is finite and s**4 is not: the weight reaches inf, it does not raise
    code, out, err = run_cli(capsys, "point-trace", "--q", "1", "--n", "4", "--s", "1e100")
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == (
        "hoftrace: error: the +/-s trace of order 4 at s = 1e+100 exceeds the float range"
    )


@pytest.mark.parametrize("lam", (2.0, 0.7, 3.0))
def test_point_trace_matches_point_spectrum_roots(capsys, lam):
    # the mean of E**n over the 2q Bloch roots of P(E) = +s and P(E) = -s
    for p, q in all_fluxes(13):
        bound = 2.0 * (1.0 + lambda_tilde(lam, q))
        ss = (0.0, 1.0, bound)
        flux = make_flux(p, q)
        roots = [
            np.concatenate([point_spectrum_roots(flux, lam, s, sign) for sign in (1, -1)])
            for s in ss
        ]
        for n in range(0, 65, 2):
            code, out, _ = run_cli(
                capsys, "point-trace", "--p", str(p), "--q", str(q), "--lambda", repr(lam),
                "--n", str(n), "--s", *map(repr, ss),
            )
            assert code == 0
            for record, energies in zip(json.loads(out)["records"], roots):
                expected = float(np.mean(energies**n))
                assert rel_err(record["value"], expected) < 1e-9, (p, q, n, record["s"])


def test_series_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--p", "1", "--q", "3", "--kind", "mid-band", "--n-max", "6"
    )
    assert code == 0
    values = [r["value"] for r in json.loads(out)["records"]]
    expected = trace_series(make_flux(1, 3), 2.0, TraceKind.MID_BAND, None, 6)
    assert values == pytest.approx(expected)


@pytest.mark.parametrize("kind", ("full", "mid-band", "pm-s"))
def test_series_labels_s_only_on_pm_s_records(capsys, kind):
    common = ("series", "--q", "3", "--kind", kind, "--s", "5", "--n-max", "2")
    code, out, _ = run_cli(capsys, *common)
    assert code == 0
    expected = 5.0 if kind == "pm-s" else None
    assert [r["s"] for r in json.loads(out)["records"]] == [expected] * 3
    code, out, _ = run_cli(capsys, *common, "--format", "csv")
    assert code == 0
    expected = "5.0" if kind == "pm-s" else ""
    assert [row["s"] for row in csv.DictReader(io.StringIO(out))] == [expected] * 3


def test_dos_document(capsys):
    code, out, _ = run_cli(capsys, "dos", "--q", "2", "--grid", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda_tilde"] == 1.0
    assert len(doc["samples"]) == 7
    assert doc["samples"][3]["density"] is None  # s = 0 diverges
    assert [m["value"] for m in doc["moments"]] == [1.0, 4.0, 36.0, 400.0, 4900.0, 63504.0]


def test_csv_round_trip(capsys):
    # the CSV table re-parses to the JSON table bit for bit
    code, out, _ = run_cli(
        capsys, "trace", "--q", "3", "--n-max", "8", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    _, json_out, _ = run_cli(capsys, "trace", "--q", "3", "--n-max", "8")
    records = json.loads(json_out)["records"]
    assert len(rows) == len(records) == 9
    for row, record in zip(rows, records):
        assert (int(row["n"]), float(row["value"]), row["method"]) == (
            record["n"], record["value"], record["method"]
        )
        assert row["s"] == ""


def test_single_orders_match_the_table(capsys):
    # a single order walks its own columns in pure Python, so it matches the
    # NumPy table to rounding, not bit for bit (6: 148.00000000000003 against 148.0)
    _, json_out, _ = run_cli(capsys, "trace", "--q", "3", "--n-max", "8")
    for record in json.loads(json_out)["records"]:
        _, single_out, _ = run_cli(capsys, "trace", "--q", "3", "--n", str(record["n"]))
        single = json.loads(single_out)
        assert abs(single["value"] - record["value"]) <= WALK_RTOL * record["value"]
        assert single["method"] == record["method"]


def test_coeffs_csv_round_trip(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--q", "5", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    _, json_out, _ = run_cli(capsys, "coeffs", "--q", "5")
    expected = json.loads(json_out)["a"]
    assert [float(r["a"]) for r in rows] == expected


def test_dos_csv_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "dos", "--q", "2", "--grid", "7", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    densities = [float(r["value"]) for r in rows if r["record"] == "density"]
    assert len(densities) == 7
    assert densities[3] == float("inf")  # s = 0 divergence survives the round trip
    moments = [float(r["value"]) for r in rows if r["record"] == "moment"]
    assert moments == [1.0, 4.0, 36.0, 400.0, 4900.0, 63504.0]


def test_dos_next_to_van_hove_point_matches_mpmath(capsys):
    # grid point 20 lies within an ulp of the van Hove point s = 2 - 2*0.35
    code, out, _ = run_cli(capsys, "dos", "--q", "1", "--lambda", "0.7", "--grid", "28")
    assert code == 0
    sample = json.loads(out)["samples"][20]
    with mpmath.workdps(40):
        lt = mpmath.mpf(0.35)
        m = ((2 + 2 * lt) ** 2 - mpmath.mpf(sample["s"]) ** 2) / (16 * lt)
        k = mpmath.ellipk(m) if m < 1 else mpmath.ellipk(1 / m) / mpmath.sqrt(m)
        expected = float(k / (2 * mpmath.pi**2 * mpmath.sqrt(lt)))
    assert abs(sample["density"] - expected) <= 1e-12 * expected


def test_dos_lambda_tilde_override(capsys):
    code, out, _ = run_cli(
        capsys, "dos", "--q", "5", "--lambda-tilde", "0.5", "--grid", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda_tilde"] == 0.5
    assert doc["support_half_width"] == 3.0
    assert doc["moments"][1]["value"] == 2.5  # binom(2,1)*(1 + 0.25)/... = 2(1+lt^2)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "coeffs.json"
    code, out, _ = run_cli(
        capsys, "coeffs", "--p", "1", "--q", "3", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["a"] == [-1.0, 6.0]


def test_invalid_flux_exits_one(capsys):
    code, _, err = run_cli(capsys, "trace", "--q", "0", "--n", "2")
    assert code == 1
    assert "denominator" in err


def test_moment_cap_exits_one(capsys):
    code, _, err = run_cli(capsys, "trace", "--q", "3", "--n", "100")
    assert code == 1
    assert "capped" in err


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--q", "3"])  # neither --n nor --n-max
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "3", "--grid", "7"])  # the zone grid is not an option
    assert exc.value.code == 1


def test_successive_calls_do_not_share_arguments(capsys):
    code, out, _ = run_cli(capsys, "dos", "--q", "5", "--lambda-tilde", "0.5", "--grid", "3")
    assert code == 0 and json.loads(out)["lambda_tilde"] == 0.5
    code, out, _ = run_cli(capsys, "point-trace", "--q", "2", "--n", "4", "--s", "1")
    assert code == 0 and [r["s"] for r in json.loads(out)["records"]] == [1.0]
    code, out, _ = run_cli(capsys, "series", "--q", "2", "--n-max", "4")
    assert code == 0
    assert {r["s"] for r in json.loads(out)["records"]} == {None}
    code, out, _ = run_cli(capsys, "dos", "--q", "5", "--grid", "3")
    assert code == 0 and json.loads(out)["lambda_tilde"] == 1.0
    with pytest.raises(SystemExit) as exc:
        main(["series", "--q", "2"])  # --n-max is required on every call
    assert exc.value.code == 1


def test_verify_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--p", "1", "--q", "3", "--lambda", "2", "--n-max", "6"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    names = {c["check"] for c in doc["checks"]}
    assert "trace-vs-walk" in names and "trace-sum-rule" in names
    assert all(c["status"] == "pass" for c in doc["checks"])


def _verify_checks(capsys, *argv):
    code, out, _ = run_cli(capsys, "verify", *argv)
    return code, {c["check"]: c for c in json.loads(out)["checks"]}


@pytest.mark.parametrize("index", range(7))
def test_verify_coefficient_check_sees_a_perturbed_product(capsys, monkeypatch, index):
    # comparing two builds from the same products could never see this
    original = hoftrace.chambers._block_products

    def perturbed(flux, lam):
        products = original(flux, lam)
        products[index] *= 1.0 + 1e-6
        return products

    monkeypatch.setattr(hoftrace.chambers, "_block_products", perturbed)
    try:
        code, checks = _verify_checks(capsys, "--p", "3", "--q", "8")
    finally:  # keep the perturbed table out of the memoized ones
        traces._cached_coefficients.cache_clear()
        traces._stream_table.cache_clear()
    assert code == 2
    assert checks["coefficients-recursive-vs-nested"]["status"] == "fail"


@pytest.mark.parametrize(
    "p, q, lam, n_max", ((3, 8, 2.0, 8), (7, 101, 0.7, 8), (1, 1001, 2.0, 2))
)
def test_verify_coefficient_check_passes_at_large_q(capsys, p, q, lam, n_max):
    _, checks = _verify_checks(
        capsys, "--p", str(p), "--q", str(q), "--lambda", str(lam), "--n-max", str(n_max)
    )
    check = checks["coefficients-recursive-vs-nested"]
    assert check["status"] == "pass"
    assert 0.0 <= check["max_deviation"] <= check["tolerance"] == 1e-12


@pytest.mark.parametrize("p, q", ((5, 6), (1, 6), (4, 5)))
def test_verify_trace_sum_rule_at_q_up_to_6(capsys, p, q):
    # the multinomial form of the rule failed at each of these, alone among the checks
    code, checks = _verify_checks(capsys, "--p", str(p), "--q", str(q), "--n-max", "64")
    assert checks["trace-sum-rule"]["max_deviation"] <= 1e-12
    assert code == 0


def test_verify_anisotropic(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--p", "1", "--q", "2", "--lambda", "1", "--n-max", "8"
    )
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_trace_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "trace", "--q", "5", "--n-max", "10")
    _, second, _ = run_cli(capsys, "trace", "--q", "5", "--n-max", "10")
    assert first == second


@pytest.mark.parametrize("p, q, lam", ZONE_CASES)
def test_trace_table_matches_zone(capsys, p, q, lam):
    code, out, _ = run_cli(
        capsys, "trace", "--p", str(p), "--q", str(q), "--lambda", str(lam), "--n-max", "64"
    )
    assert code == 0
    records = json.loads(out)["records"]
    assert [r["n"] for r in records] == list(range(65))
    zone = zone_traces(p, q, lam, 64)
    for record in records:
        expected = zone[record["n"]]
        assert abs(record["value"] - expected) <= 1e-12 * expected
        walked = record["n"] >= 2 and record["n"] % 2 == 0
        assert record["method"] == ("half-walk" if walked else "symmetry")


@pytest.mark.parametrize(
    "argv",
    [
        ("coeffs", "--p", "100", "--q", "401", "--lambda", "3", "--method", "nested"),
        ("trace", "--q", "3", "--lambda", "1e5", "--n-max", "64"),
        ("series", "--q", "3", "--lambda", "1e5", "--n-max", "64"),
        ("point-trace", "--q", "3", "--lambda", "1e5", "--n", "64", "--s", "0"),
        ("coeffs", "--q", "1001", "--lambda", "3"),
        ("dos", "--q", "2000", "--lambda", "3", "--grid", "3"),
        ("dos", "--q", "3", "--lambda-tilde", "1e308", "--grid", "3"),
        ("dos", "--q", "3", "--lambda-tilde", "1e300", "--grid", "3"),
    ],
)
def test_arithmetic_error_exits_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("hoftrace: error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--q", "5", "--lambda", "1e100", "--n-max", "8"),
         "--lambda 1e+100 is too large: (lambda/2)**5 overflows"),
        (("verify", "--p", "1", "--q", "2", "--lambda", "1e155", "--n-max", "2"),
         "--lambda 1e+155 is too large: (lambda/2)**2 overflows"),
        (("verify", "--q", "3", "--lambda", "1e40", "--n-max", "8"),
         "Tr H^8 exceeds the float range at lambda 1e+40"),
        (("dos", "--q", "5", "--lambda", "1e150"),
         "--lambda 1e+150 is too large: (lambda/2)**5 overflows"),
        (("verify", "--p", "1", "--q", "8", "--lambda", "1e10", "--n-max", "2"),
         "density moment 2 exceeds the float range"),
    ],
)
def test_huge_lambda_exits_with_one_line(argv, message):
    # in a fresh process, so that NumPy's RuntimeWarnings would reach stderr;
    # Python's own message was "(34, 'Numerical result out of range')"
    result = run_module(*argv)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"hoftrace: error: {message}\n"


TINY = "coupling 1e-160 is too small: (2/lambda)**2 overflows"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("coeffs", "--q", "3", "--lambda", "1e-160"), TINY),
        (("coeffs", "--q", "1", "--lambda", "1e-160", "--method", "nested"), TINY),
        (("series", "--q", "3", "--lambda", "1e-160", "--n-max", "4"), TINY),
        (("point-trace", "--q", "3", "--lambda", "1e-160", "--n", "4", "--s", "0"), TINY),
        (("verify", "--q", "2", "--lambda", "1e-160"), TINY),
        (
            ("dos", "--q", "3", "--lambda", "1e-200"),
            "--lambda 1e-200 is too small: (lambda/2)**3 underflows to 0",
        ),
        (
            ("verify", "--p", "7", "--q", "401", "--lambda", "0.05"),
            "--lambda 0.05 is too small: (lambda/2)**401 underflows to 0",
        ),
    ],
)
def test_tiny_lambda_names_the_range_error(capsys, argv, message):
    # Python's own message was "(34, 'Numerical result out of range')", and
    # an underflowing lambda_tilde read "lam_tilde must be positive, got 0.0"
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"hoftrace: error: {message}\n"


def test_tiny_lambda_where_no_table_is_built(capsys):
    # trace never squares 2/lambda and dos at q = 1 keeps lambda_tilde > 0
    assert run_cli(capsys, "trace", "--q", "3", "--lambda", "1e-160", "--n", "4")[0] == 0
    assert run_cli(capsys, "dos", "--q", "1", "--lambda", "1e-160", "--grid", "3")[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("coeffs", "--q", "1", "--lambda", "-2"),
        ("series", "--q", "1", "--lambda", "-1", "--kind", "mid-band", "--n-max", "2"),
        ("series", "--q", "1", "--lambda", "0", "--kind", "pm-s", "--s", "0", "--n-max", "2"),
        ("coeffs", "--q", "3", "--lambda", "0", "--method", "nested"),
        ("point-trace", "--q", "1", "--lambda", "-1", "--n", "2", "--s", "0"),
        ("trace", "--q", "3", "--lambda", "0", "--n", "7"),
        ("trace", "--q", "3", "--lambda", "-1", "--n-max", "1"),
        ("trace", "--q", "3", "--lambda", "0", "--n", "8"),
    ],
)
def test_invalid_coupling_exits_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("hoftrace: error: coupling must be positive")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("trace", "--q", "3", "--n", "4", "--lambda", "inf"),
        ("trace", "--q", "3", "--n-max", "4", "--lambda", "nan"),
        ("dos", "--lambda-tilde", "inf", "--grid", "3"),
        ("point-trace", "--q", "3", "--n", "4", "--s", "nan"),
        ("point-trace", "--q", "3", "--n", "4", "--s", "1", "inf"),
        ("series", "--q", "3", "--kind", "pm-s", "--s", "nan", "--n-max", "4"),
        ("series", "--q", "3", "--kind", "pm-s", "--s=-inf", "--n-max", "4"),
    ],
)
def test_non_finite_lambda_exits_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("q", ["0", "-5"])
def test_dos_nonpositive_q_exits_one(capsys, q):
    code, out, err = run_cli(capsys, "dos", "--q", q, "--grid", "3")
    assert code == 1
    assert out == ""
    assert "--q must be positive" in err


def test_verify_csv_writes_plain_floats(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--p", "1", "--q", "3", "--n-max", "6", "--format", "csv"
    )
    assert code == 0
    assert "np." not in out
    for row in csv.DictReader(io.StringIO(out)):
        float(row["max_deviation"])
        float(row["tolerance"])


def test_trace_does_not_load_scipy():
    script = (
        "import sys\n"
        "import hoftrace.cli\n"
        "assert 'scipy' not in sys.modules, 'import hoftrace loaded scipy'\n"
        "for argv in (['trace', '--q', '5', '--n-max', '16'],\n"
        "             ['dos', '--q', '2', '--lambda', '0.7'],\n"
        "             ['verify', '--q', '3', '--lambda', '0.7', '--n-max', '16']):\n"
        "    code = hoftrace.cli.main(argv)\n"
        "    assert code == 0, (argv, code)\n"
        "    assert 'scipy' not in sys.modules, f'{argv[0]} loaded scipy'\n"
    )
    src = str(Path(hoftrace.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_array_free_commands_do_not_load_numpy():
    script = (
        "import contextlib, io, json, sys\n"
        "import hoftrace.cli\n"
        "assert 'numpy' not in sys.modules, 'import hoftrace loaded numpy'\n"
        "for argv in (['coeffs', '--q', '7', '--lambda', '0.7'],\n"
        "             ['coeffs', '--q', '7', '--method', 'nested'],\n"
        "             ['series', '--q', '5', '--kind', 'pm-s', '--s', '1', '--n-max', '16'],\n"
        "             ['point-trace', '--q', '5', '--n', '8', '--s', '0', '1'],\n"
        "             ['dos', '--q', '2', '--lambda', '0.7']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = hoftrace.cli.main(argv)\n"
        "    assert code == 0, (argv, code)\n"
        "    assert 'numpy' not in sys.modules, f'{argv[0]} loaded numpy'\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = hoftrace.cli.main(['trace', '--q', '3', '--n', '4'])\n"
        "assert code == 0, code\n"
        "assert json.loads(out.getvalue())['trace'] == 24.0, out.getvalue()\n"
    )
    src = str(Path(hoftrace.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def _fresh_process(script, *argv):
    src = str(Path(hoftrace.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True,
        timeout=120,
    )


COLD_COMMAND = (
    "import contextlib, io, sys\n"
    "import hoftrace.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = hoftrace.cli.main(sys.argv[1:])\n"
    "print(code, *sys.modules)\n"
)
# by every array-free JSON command; only verify imports its suite
UNNEEDED = ("csv", "dataclasses", "fractions", "numpy", "hoftrace.verify")
# a trace that builds no NumPy table (any --n, --n-max below 2) loads none of these
NO_TABLE = ("hoftrace.oracle", "hoftrace.traces", "hoftrace.dos", *UNNEEDED)


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (("coeffs", "--q", "7", "--lambda", "0.7"),
         ("hoftrace.traces", "hoftrace.dos", *UNNEEDED)),
        (("point-trace", "--q", "5", "--n", "8", "--s", "0", "1"),
         ("hoftrace.dos", *UNNEEDED)),
        (("series", "--q", "5", "--kind", "pm-s", "--s", "1", "--n-max", "16"),
         ("hoftrace.dos", *UNNEEDED)),
        (("dos", "--q", "2", "--lambda", "0.7"), UNNEEDED),
        (("trace", "--q", "3", "--n", "7"), NO_TABLE),
        (("trace", "--q", "3", "--n", "0"), NO_TABLE),
        (("trace", "--q", "3", "--n-max", "1"), NO_TABLE),
        (("trace", "--q", "3", "--n", "8"), NO_TABLE),
        (("trace", "--p", "37", "--q", "101", "--n", "64"), NO_TABLE),
    ],
)
def test_cold_command_loads_only_what_it_runs(argv, unloaded):
    # one fresh process per command: a shared one would hide what an earlier command loaded
    result = _fresh_process(COLD_COMMAND, *argv)
    assert result.returncode == 0, result.stderr
    code, *modules = result.stdout.split()
    assert code == "0"
    assert sorted(set(unloaded) & set(modules)) == []


def test_import_hoftrace_loads_no_submodule():
    result = _fresh_process("import sys\nimport hoftrace\nprint(*sys.modules)\n")
    assert result.returncode == 0, result.stderr
    assert [m for m in result.stdout.split() if m.startswith("hoftrace.")] == []


@pytest.mark.parametrize(
    "argv, target, reason",
    [
        (("trace", "--q", "3", "--n", "4"), "missing/x.json", "No such file or directory"),
        (("coeffs", "--q", "3"), ".", "Is a directory"),
    ],
)
def test_unwritable_output_exits_with_one_line(tmp_path, argv, target, reason):
    path = str(tmp_path / target)
    result = _fresh_process(
        "from hoftrace.cli import entrypoint\nentrypoint()\n", *argv, "--output", path
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"hoftrace: error: cannot write --output {path}: {reason}\n"


def test_closed_stdout_exits_one_without_a_traceback():
    # the reader of stdout is gone before anything is written, as in `| head`
    # on an output larger than the pipe buffer
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run_module("trace", "--q", "3", "--n-max", "64", stdout=write_end)
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("unbuffered", (False, True))
def test_full_stdout_exits_one_with_one_line(unbuffered):
    # buffered, the write fails in the final flush; unbuffered, inside print
    env = {key: val for key, val in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        result = run_module("trace", "--q", "3", "--n", "8", stdout=full, env=env)
    assert result.returncode == 1
    assert result.stderr == "hoftrace: error: cannot write to stdout: No space left on device\n"


def test_exit_codes_through_the_entry_point():
    result = run_module("trace", "--q", "3", "--n", "8")
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout)["trace"] > 0.0

    result = run_module("trace", "--q", "0", "--n", "2")
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == "hoftrace: error: denominator must be positive, got 0\n"

    # 3/8 at lambda = 2 fails checks at n = 64: exit 2, with the whole document printed
    result = run_module("verify", "--p", "3", "--q", "8", "--n-max", "64")
    assert (result.returncode, result.stderr) == (2, "")
    doc = json.loads(result.stdout)
    assert doc["status"] == "fail" and doc["n_max"] == 64
    assert doc["checks"][-1]["check"] == "point-trace-closure-quadrature"


@pytest.mark.parametrize(
    "argv, code",
    [
        (("trace", "--p", "2", "--q", "5", "--n-max", "64"), 0),
        (("verify", "--p", "3", "--q", "8", "--n-max", "64", "--format", "csv"), 2),
    ],
)
def test_output_file_is_written_in_full(tmp_path, argv, code):
    path = tmp_path / "out.txt"
    result = run_module(*argv, "--output", str(path))
    assert (result.returncode, result.stdout, result.stderr) == (code, "", "")
    assert path.read_text(encoding="utf-8") == run_module(*argv).stdout


# every command's --help and a few usage errors, captured from the parser that
# built the arguments of all six commands: building one must not change a byte
PARSER_GOLDEN = json.loads(Path(__file__).with_name("parser_golden.json").read_text())


@pytest.mark.parametrize(
    "case", PARSER_GOLDEN, ids=[" ".join(case["argv"]) or "no-command" for case in PARSER_GOLDEN]
)
def test_parser_output_is_pinned(case):
    result = run_module(*case["argv"])
    assert (result.returncode, result.stdout, result.stderr) == (
        case["code"], case["stdout"], case["stderr"]
    )
