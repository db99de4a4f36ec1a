"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here and deviations are measured as
|a - b| / max(1, |a|, |b|) unless a criterion demands exact equality.
"""

import math
import time

import pytest

from helpers import all_fluxes, mpmath_coefficients, proper_fluxes, rel_err
from hoftrace.chambers import chambers_nested
from hoftrace.core import make_flux
from hoftrace.dos import (
    DensityProfile,
    dos_moment,
    dos_moment_exact,
    integrate_point_traces,
    integrate_point_traces_exact,
)
from hoftrace.oracle import bz_trace, trace_sum_rule, walk_trace_table
from hoftrace.traces import (
    TraceKind,
    almost_mathieu_trace,
    cached_polynomial,
    hofstadter_trace,
    midband_trace,
    newton_power_sums,
    pm_s_trace,
    trace_series,
)

EVEN_N_12 = tuple(range(0, 13, 2))


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_golden_polynomials():
    golden = {(1, 3): (-1.0, 6.0), (1, 4): (-1.0, 8.0, -4.0)}
    worst = 0.0
    slowest = 0.0
    for (p, q), expected in golden.items():
        flux = make_flux(p, q)
        chambers_nested(flux, 2.0)  # warm-up outside the timed run
        best = math.inf
        for _ in range(5):
            start = time.perf_counter()
            poly = chambers_nested(flux, 2.0)
            best = min(best, time.perf_counter() - start)
        slowest = max(slowest, best)
        worst = max(worst, max(abs(x - y) for x, y in zip(poly.a, expected)))
    _report(
        "criterion 1 (golden polynomials E^3-6E and E^4-8E^2+4)",
        worst <= 1e-9 and slowest < 1e-3,
        f"max coefficient deviation {worst:.2e}, build time {slowest*1e6:.0f} us",
    )


def test_criterion_02_algorithm_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for lam in (0.5, 1.0, 2.0, 3.0):
        for p, q in proper_fluxes(12):
            flux = make_flux(p, q)
            rec = mpmath_coefficients(p, q, lam)
            nst = chambers_nested(flux, lam)
            worst = max(worst, max(rel_err(x, y) for x, y in zip(rec, nst.a)))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2 (40-digit recursion vs nested coefficients, q <= 12)",
        worst <= 1e-9 and elapsed < 5.0,
        f"max deviation {worst:.2e}, elapsed {elapsed:.2f}s",
    )


def test_criterion_03_a2_identity():
    worst = 0.0
    for lam in (0.5, 1.0, 2.0, 3.0):
        factor = 1.0 + (lam / 2.0) ** 2
        for p, q in proper_fluxes(12):
            poly = cached_polynomial(make_flux(p, q), lam)
            worst = max(worst, rel_err(poly.a[1], q * factor))
    _report(
        "criterion 3 (a(2) = q*(1+(lambda/2)^2))",
        worst <= 1e-9,
        f"max deviation {worst:.2e}",
    )


def test_criterion_04_three_way_trace_agreement():
    start = time.perf_counter()
    worst = 0.0
    for lam in (1.0, 2.0, 3.0):
        for p, q in all_fluxes(8):
            flux = make_flux(p, q)
            walks = walk_trace_table(flux, lam, 12)
            for n in EVEN_N_12:
                formula = almost_mathieu_trace(flux, lam, n)
                if lam == 2.0:
                    formula_h = hofstadter_trace(flux, n)
                    worst = max(worst, rel_err(formula, formula_h))
                momentum = bz_trace(flux, lam, n, max(8, n + 1))
                worst = max(worst, rel_err(formula, momentum))
                worst = max(worst, rel_err(formula, walks[n]))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 4 (formula = BZ quadrature = walk, q <= 8, n <= 12)",
        worst <= 1e-8 and elapsed < 60.0,
        f"max deviation {worst:.2e}, elapsed {elapsed:.2f}s",
    )


def test_criterion_05_specific_values():
    worst = 0.0
    for p, q in all_fluxes(8):
        worst = max(worst, rel_err(hofstadter_trace(make_flux(p, q), 2), 4.0))
    worst = max(worst, rel_err(hofstadter_trace(make_flux(1, 3), 4), 24.0))
    worst = max(worst, rel_err(hofstadter_trace(make_flux(1, 2), 4), 20.0))
    zero = make_flux(0, 1)
    zero_walks = walk_trace_table(zero, 2.0, 12)
    for n in EVEN_N_12:
        expected = float(math.comb(n, n // 2) ** 2)
        worst = max(worst, rel_err(hofstadter_trace(zero, n), expected))
        worst = max(worst, rel_err(zero_walks[n], expected))
    _report(
        "criterion 5 (pinned trace values incl. zero-flux walk counts)",
        worst <= 1e-9,
        f"max deviation {worst:.2e}",
    )


def test_criterion_06_midband_coincidence_is_exact():
    checked = 0
    exact = True
    for q in range(1, 14):
        for p in range(q):
            if math.gcd(p, q) != 1 or (p == 0 and q != 1):
                continue
            flux = make_flux(p, q)
            poly = cached_polynomial(flux, 2.0)
            for n in EVEN_N_12:
                if q > n // 2:
                    checked += 1
                    exact = exact and hofstadter_trace(flux, n) == midband_trace(poly, n)
    _report(
        "criterion 6 (full trace == mid-band trace when q > n/2, bit-exact)",
        exact and checked > 100,
        f"{checked} (flux, n) pairs compared",
    )


def test_criterion_07_pm_s_vs_newton_power_sums():
    worst = 0.0
    worst_mid = 0.0
    for p, q in proper_fluxes(10):
        poly = cached_polynomial(make_flux(p, q), 2.0)
        coeffs = poly.energy_coefficients()
        for s in (0.0, 1.0, 2.5, 4.0):
            minus = list(coeffs)
            minus[0] -= s
            plus = list(coeffs)
            plus[0] += s
            p_minus = newton_power_sums(minus, 16)
            p_plus = newton_power_sums(plus, 16)
            for n in range(2, 17, 2):
                averaged = (p_minus[n - 1] + p_plus[n - 1]) / (2.0 * q)
                worst = max(worst, rel_err(averaged, pm_s_trace(poly, n, s)))
        for n in range(2, 17, 2):
            worst_mid = max(
                worst_mid, rel_err(pm_s_trace(poly, n, 0.0), midband_trace(poly, n))
            )
    _report(
        "criterion 7 (pm-s traces vs Newton power sums, q <= 10, n <= 16)",
        worst <= 1e-9 and worst_mid == 0.0,
        f"max deviation {worst:.2e}, s=0 mid-band deviation {worst_mid:.2e}",
    )


def test_criterion_08_aubry_duality():
    worst = 0.0
    for lam in (0.5, 1.0, 3.0):
        for p, q in all_fluxes(8):
            flux = make_flux(p, q)
            for n in EVEN_N_12:
                direct = almost_mathieu_trace(flux, lam, n)
                dual = (lam / 2.0) ** n * almost_mathieu_trace(flux, 4.0 / lam, n)
                worst = max(worst, rel_err(direct, dual))
    _report(
        "criterion 8 (Aubry duality of traces)",
        worst <= 1e-9,
        f"max deviation {worst:.2e}",
    )


def test_criterion_09_density_moments():
    start = time.perf_counter()
    worst_free = 0.0
    free = DensityProfile(1.0)
    for k in range(7):
        worst_free = max(
            worst_free, rel_err(dos_moment(free, k), float(math.comb(2 * k, k) ** 2))
        )
    worst_deformed = 0.0
    for lt in (0.25, 0.5, 2.0, 4.0):
        profile = DensityProfile(lt)
        for k in range(7):
            worst_deformed = max(
                worst_deformed,
                rel_err(dos_moment(profile, k), dos_moment_exact(k, lt)),
            )
    elapsed = time.perf_counter() - start
    _report(
        "criterion 9 (density moments vs closed forms, k <= 6)",
        worst_free <= 1e-5 and worst_deformed <= 1e-5 and elapsed < 30.0,
        f"free {worst_free:.2e}, deformed {worst_deformed:.2e}, elapsed {elapsed:.2f}s",
    )


def test_criterion_10_point_trace_integration_closure():
    worst_quad = 0.0
    worst_exact = 0.0
    for lam in (1.0, 2.0, 3.0):
        for p, q in all_fluxes(6):
            flux = make_flux(p, q)
            for n in EVEN_N_12:
                reference = almost_mathieu_trace(flux, lam, n)
                worst_exact = max(
                    worst_exact,
                    rel_err(integrate_point_traces_exact(flux, lam, n), reference),
                )
                worst_quad = max(
                    worst_quad,
                    rel_err(integrate_point_traces(flux, lam, n), reference),
                )
    _report(
        "criterion 10 (trace recovery by density integration, q <= 6)",
        worst_quad <= 1e-5 and worst_exact <= 1e-12,
        f"quadrature {worst_quad:.2e}, exact-moment {worst_exact:.2e}",
    )


@pytest.mark.filterwarnings("ignore::hoftrace.traces.SpectralRangeWarning")
def test_criterion_11_generating_function_streams():
    # s = 4 lies beyond the spectral range for lam = 1; the stream identity
    # is polynomial in s and must hold there regardless
    worst = 0.0
    for lam in (1.0, 2.0):
        for p, q in all_fluxes(6):
            flux = make_flux(p, q)
            poly = cached_polynomial(flux, lam)
            mid = trace_series(flux, lam, TraceKind.MID_BAND, None, 12)
            full = trace_series(flux, lam, TraceKind.FULL, None, 12)
            streams = [(mid, "mid"), (full, "full")]
            for s in (0.0, 1.0, 4.0):
                streams.append(
                    (trace_series(flux, lam, TraceKind.PLUS_MINUS_S, s, 12), s)
                )
            for stream, tag in streams:
                for n in range(13):
                    if tag == "mid":
                        direct = 1.0 if n == 0 else midband_trace(poly, n)
                    elif tag == "full":
                        direct = almost_mathieu_trace(flux, lam, n)
                    else:
                        direct = 1.0 if n == 0 else pm_s_trace(poly, n, tag)
                    worst = max(worst, rel_err(stream[n], direct))
    _report(
        "criterion 11 (series coefficients match direct traces, n <= 12)",
        worst <= 1e-10,
        f"max deviation {worst:.2e}",
    )


def test_criterion_12_trace_sum_rule():
    worst = 0.0
    for q in range(1, 7):
        for p in range(q):
            if math.gcd(p, q) != 1 or (p == 0 and q != 1):
                continue
            for k in (0, 1, 2, 3):
                value = trace_sum_rule(make_flux(p, q), k)
                worst = max(worst, rel_err(value, float(math.comb(2 * k, k) ** 2)))
    _report(
        "criterion 12 (trace sum rule, q <= 6, k <= 3)",
        worst <= 1e-12,
        f"max deviation {worst:.2e}",
    )
