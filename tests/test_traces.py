import math

import numpy as np
import pytest

from helpers import all_fluxes, mpmath_pm_s_coefficients, proper_fluxes, rel_err
from hoftrace import trace_sum_rule, traces
from hoftrace.core import make_flux
from hoftrace.traces import (
    DegeneratePolynomial,
    SpectralRangeWarning,
    TraceKind,
    almost_mathieu_trace,
    cached_polynomial,
    hofstadter_trace,
    midband_trace,
    newton_power_sums,
    pm_s_coefficients,
    pm_s_trace,
    trace_series,
)


def _root_power_sum(coeffs, n):
    # independent oracle: extract roots numerically and sum their powers
    roots = np.roots(list(reversed(coeffs)))
    return float(np.sum(roots**n).real)


def test_midband_values_against_roots():
    p3 = cached_polynomial(make_flux(1, 3), 2.0)
    p4 = cached_polynomial(make_flux(1, 4), 2.0)
    assert midband_trace(p3, 2) == pytest.approx(4.0, abs=1e-12)
    # roots of E^4 - 8E^2 + 4: power sum computed independently
    oracle = _root_power_sum([4.0, 0.0, -8.0, 0.0, 1.0], 4) / 4.0
    assert oracle == pytest.approx(28.0, abs=1e-9)
    assert midband_trace(p4, 4) == pytest.approx(28.0, abs=1e-9)
    assert midband_trace(p3, 3) == 0.0
    assert midband_trace(p3, 0) == 1.0


def test_pm_s_value_against_roots():
    poly = cached_polynomial(make_flux(1, 2), 2.0)
    # roots of E^2 - 4 = +/-1, i.e. E^2 in {5, 3}
    oracle = (
        _root_power_sum([-5.0, 0.0, 1.0], 4) + _root_power_sum([-3.0, 0.0, 1.0], 4)
    ) / 4.0
    assert oracle == pytest.approx(17.0, abs=1e-10)
    assert pm_s_trace(poly, 4, 1.0) == pytest.approx(17.0, abs=1e-10)


def test_pm_s_reduces_to_midband_at_zero():
    for p, q in proper_fluxes(6):
        poly = cached_polynomial(make_flux(p, q), 2.0)
        for n in range(0, 13, 2):
            assert pm_s_trace(poly, n, 0.0) == midband_trace(poly, n)


def test_pm_s_is_s_independent_for_large_q():
    poly = cached_polynomial(make_flux(1, 5), 2.0)
    assert pm_s_trace(poly, 4, 3.7) == pm_s_trace(poly, 4, 0.0)


def test_pm_s_warns_outside_spectral_range():
    poly = cached_polynomial(make_flux(1, 2), 2.0)
    with pytest.warns(SpectralRangeWarning):
        pm_s_trace(poly, 4, 5.0)


def test_pm_s_coefficients_expand_the_trace():
    poly = cached_polynomial(make_flux(1, 2), 2.0)
    coeffs = pm_s_coefficients(poly, 8)
    for s in (0.0, 0.5, 2.0, 4.0):
        expansion = sum(t * s ** (2 * k) for k, t in enumerate(coeffs))
        assert expansion == pytest.approx(pm_s_trace(poly, 8, s), rel=1e-13)


def test_hofstadter_specific_values():
    assert hofstadter_trace(make_flux(0, 1), 4) == pytest.approx(36.0, abs=1e-9)
    assert hofstadter_trace(make_flux(1, 3), 4) == pytest.approx(24.0, abs=1e-9)
    assert hofstadter_trace(make_flux(1, 2), 4) == pytest.approx(20.0, abs=1e-9)
    for p, q in all_fluxes(7):
        assert hofstadter_trace(make_flux(p, q), 2) == pytest.approx(4.0, abs=1e-9)
        assert hofstadter_trace(make_flux(p, q), 5) == 0.0
    for n in range(0, 13, 2):
        assert hofstadter_trace(make_flux(0, 1), n) == pytest.approx(
            math.comb(n, n // 2) ** 2, rel=1e-9
        )


def test_almost_mathieu_reduces_to_hofstadter():
    for p, q in all_fluxes(6):
        flux = make_flux(p, q)
        for n in range(0, 13, 2):
            assert almost_mathieu_trace(flux, 2.0, n) == hofstadter_trace(flux, n)


def test_almost_mathieu_second_moment():
    for p, q in all_fluxes(6):
        for lam in (0.5, 1.0, 2.0, 3.0):
            value = almost_mathieu_trace(make_flux(p, q), lam, 2)
            assert value == pytest.approx(2.0 * (1.0 + (lam / 2.0) ** 2), rel=1e-12)


@pytest.mark.parametrize("lam", (0.5, 1.0, 3.0))
def test_aubry_trace_duality(lam):
    for p, q in all_fluxes(8):
        flux = make_flux(p, q)
        for n in range(0, 13, 2):
            direct = almost_mathieu_trace(flux, lam, n)
            dual = (lam / 2.0) ** n * almost_mathieu_trace(flux, 4.0 / lam, n)
            assert rel_err(direct, dual) < 1e-9


def test_newton_power_sums_examples():
    p = newton_power_sums([0.0, -6.0, 0.0, 1.0], 2)  # E^3 - 6E
    assert p == pytest.approx([0.0, 12.0], abs=1e-12)
    p = newton_power_sums([-5.0, 0.0, 1.0], 4)  # E^2 - 5
    assert p[3] == pytest.approx(50.0, abs=1e-10)
    c = 1.7
    assert newton_power_sums([-c, 1.0], 3) == pytest.approx([c, c**2, c**3])


def test_newton_power_sums_against_roots():
    coeffs = [3.0, -2.0, 0.5, 1.0, 2.0]
    sums = newton_power_sums(coeffs, 6)
    for n in range(1, 7):
        assert sums[n - 1] == pytest.approx(_root_power_sum(coeffs, n), rel=1e-10)


def test_newton_power_sums_rejects_degenerate_input():
    with pytest.raises(DegeneratePolynomial):
        newton_power_sums([1.0, 2.0, 0.0], 3)
    with pytest.raises(DegeneratePolynomial):
        newton_power_sums([], 3)


def test_pm_s_agrees_with_newton_power_sums():
    # +/-s trace equals the averaged power sums over both shifted root sets
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
                assert rel_err(averaged, pm_s_trace(poly, n, s)) < 1e-9


def test_midband_coincides_with_full_trace_for_large_q():
    for q in range(1, 14):
        for p in range(q):
            if math.gcd(p, q) != 1 or (p == 0 and q != 1):
                continue
            flux = make_flux(p, q)
            poly = cached_polynomial(flux, 2.0)
            for n in range(0, 13, 2):
                if q > n // 2:
                    assert hofstadter_trace(flux, n) == midband_trace(poly, n)


def test_series_examples():
    assert trace_series(make_flux(1, 3), 2.0, TraceKind.MID_BAND, None, 2) == (
        pytest.approx([1.0, 0.0, 4.0], abs=1e-12)
    )
    assert trace_series(make_flux(0, 1), 2.0, TraceKind.FULL, None, 4) == (
        pytest.approx([1.0, 0.0, 4.0, 0.0, 36.0], abs=1e-12)
    )
    stream = trace_series(make_flux(1, 2), 2.0, TraceKind.PLUS_MINUS_S, 1.0, 4)
    assert stream[4] == pytest.approx(17.0, abs=1e-10)


@pytest.mark.parametrize("lam", (1.0, 2.0))
def test_series_matches_direct_traces(lam):
    for p, q in all_fluxes(6):
        flux = make_flux(p, q)
        poly = cached_polynomial(flux, lam)
        mid = trace_series(flux, lam, TraceKind.MID_BAND, None, 12)
        full = trace_series(flux, lam, TraceKind.FULL, None, 12)
        pm = trace_series(flux, lam, TraceKind.PLUS_MINUS_S, 1.5, 12)
        for n in range(13):
            assert rel_err(mid[n], 1.0 if n == 0 else midband_trace(poly, n)) < 1e-10
            assert rel_err(full[n], almost_mathieu_trace(flux, lam, n)) < 1e-10
            direct = 1.0 if n == 0 else pm_s_trace(poly, n, 1.5)
            assert rel_err(pm[n], direct) < 1e-10


@pytest.mark.parametrize("kind", tuple(TraceKind))
def test_series_odd_orders_are_positive_zero(kind):
    for p, q in ((0, 1), (1, 2), (1, 3), (2, 5), (3, 8)):
        for lam in (2.0, 0.7):
            stream = trace_series(make_flux(p, q), lam, kind, 1.5, 24)
            for n in range(1, 25, 2):
                assert stream[n] == 0.0 and math.copysign(1.0, stream[n]) == 1.0


@pytest.mark.parametrize(
    "p, q, lam",
    ((0, 1, 2.0), (1, 2, 0.7), (2, 5, 2.0), (4, 7, 3.0), (3, 8, 2.0), (8, 13, 2.0),
     (5, 13, 0.7), (4, 11, 3.0)),
)
def test_stream_table_rows_match_partition_formula_in_mpmath(p, q, lam):
    # every row T_k(n) = [z**n] base*u**k against the 40-digit partition sum;
    # the float partition sum misses this by 3e-8 at 2/5 and by 5e6 at 8/13
    poly = cached_polynomial(make_flux(p, q), lam)
    table = traces._stream_table(p, q, lam, 64)
    assert len(table) == 64 // (2 * q) + 1
    for n in range(0, 65, 2):
        reference = mpmath_pm_s_coefficients(poly.a, q, n)
        scale = max(abs(t) for t in reference)
        for k, row in enumerate(table):
            expected = reference[k] if k < len(reference) else 0.0
            assert abs(row[n] - expected) <= 1e-11 * scale, (n, k)


def test_series_needs_s_for_point_stream():
    with pytest.raises(ValueError):
        trace_series(make_flux(1, 3), 2.0, TraceKind.PLUS_MINUS_S, None, 4)


def test_trace_sum_rule():
    # the multinomial expansion into moments missed 1e-8 at 2/5, 3/5, 4/5, 1/6 and 5/6
    for q in range(1, 7):
        for p in range(q):
            if math.gcd(p, q) != 1 or (p == 0 and q != 1):
                continue
            for k in (1, 2, 3):
                value = trace_sum_rule(make_flux(p, q), k)
                assert rel_err(value, math.comb(2 * k, k) ** 2) < 1e-12


def test_odd_moments_vanish_everywhere():
    flux = make_flux(2, 5)
    poly = cached_polynomial(flux, 1.0)
    for n in (1, 3, 7, 11):
        assert midband_trace(poly, n) == 0.0
        assert pm_s_trace(poly, n, 2.0) == 0.0
        assert almost_mathieu_trace(flux, 1.0, n) == 0.0
        assert hofstadter_trace(flux, n) == 0.0
