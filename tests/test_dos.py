import math

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import rel_err
from hoftrace.core import lambda_tilde, make_flux
from hoftrace.dos import (
    QUADRATURE_NODES,
    DensityProfile,
    _density_table,
    DomainError,
    dos_deformed,
    dos_free,
    dos_moment,
    dos_moment_exact,
    elliptic_k,
    integrate_point_traces,
    integrate_point_traces_exact,
)
from hoftrace.traces import almost_mathieu_trace, cached_polynomial, midband_trace

LT_SWEEP = (0.25, 0.5, 2.0, 4.0)


def test_elliptic_k_basics():
    assert elliptic_k(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
    with pytest.raises(DomainError):
        elliptic_k(1.0)
    with pytest.raises(DomainError):
        elliptic_k(1.5)


@pytest.mark.parametrize("m", (0.0, 0.3, 0.9, 0.99))
def test_elliptic_k_against_defining_integral(m):
    def integrand(theta):
        return 1.0 / math.sqrt(1.0 - m * math.sin(theta) ** 2)

    reference, _ = quad(integrand, 0.0, math.pi / 2, epsabs=1e-13, epsrel=1e-13)
    assert rel_err(elliptic_k(m), reference) < 1e-10


def test_elliptic_k_series_is_squared_binomials():
    # (2/pi) K(16 x) = sum_k binom(2k,k)^2 x^k
    x = 5e-3
    partial = sum(math.comb(2 * k, k) ** 2 * x**k for k in range(9))
    assert rel_err(2.0 / math.pi * elliptic_k(16.0 * x), partial) < 1e-9
    # first-order coefficient by central difference
    h = 1e-5
    slope = (elliptic_k(16 * h) - elliptic_k(-16 * h)) / (2 * h) * 2.0 / math.pi
    assert abs(slope - 4.0) < 1e-6


def test_dos_free_values():
    assert dos_free(4.0) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)
    assert dos_free(-4.0) == dos_free(4.0)
    assert dos_free(0.0) == math.inf
    assert dos_free(4.5) == 0.0
    assert dos_free(1.3) == pytest.approx(
        elliptic_k(1.0 - 1.3**2 / 16.0) / (2.0 * math.pi**2), rel=1e-12
    )


def test_dos_free_normalization_and_moments():
    profile = DensityProfile(1.0)
    assert abs(dos_moment(profile, 0) - 1.0) < 1e-6
    assert rel_err(dos_moment(profile, 1), 4.0) < 1e-5
    assert rel_err(dos_moment(profile, 2), 36.0) < 1e-5


def test_dos_deformed_delegates_and_support():
    for s in (0.3, 1.7, 3.999):
        assert dos_deformed(s, 1.0) == dos_free(s)
    assert dos_deformed(6.1, 2.0) == 0.0
    assert dos_deformed(-7.0, 2.0) == 0.0
    assert dos_deformed(3.1, 0.5) == 0.0
    with pytest.raises(DomainError):
        dos_deformed(1.0, 0.0)
    with pytest.raises(DomainError):
        dos_deformed(1.0, -0.5)


@pytest.mark.parametrize("lt", LT_SWEEP)
def test_dos_deformed_symmetric_and_nonnegative(lt):
    for s in (0.1, 0.9, 1.8, 2.0 * (1.0 + lt) - 0.05):
        left = dos_deformed(-s, lt)
        right = dos_deformed(s, lt)
        assert left == right
        assert right >= 0.0


@pytest.mark.parametrize("lt", LT_SWEEP)
def test_dos_deformed_continuous_across_subcase_boundaries(lt):
    # the boundary itself is the log-divergent van Hove point; approach it
    # from both sides and require the evaluations to agree
    pinch = abs(2.0 * lt - 2.0)
    eps = 1e-8
    lo = dos_deformed(pinch - eps, lt)
    hi = dos_deformed(pinch + eps, lt)
    assert rel_err(lo, hi) < 1e-6


def quad_convolution_density(s, lt):
    """Convolution of the arcsine laws on [-2, 2] and [-2*lt, 2*lt] by SciPy quad.

    The integration interval is split by which square-root factor vanishes
    at each endpoint; t = mid + half*sin(theta) absorbs those endpoint
    singularities and the cancelled factors are removed analytically.
    """
    x = abs(s)
    if x > abs(2.0 * lt - 2.0):
        a, b = x - 2.0, 2.0 * lt
        rest = lambda t: 1.0 / math.sqrt((2.0 + x - t) * (2.0 * lt + t))
    elif lt > 1.0:
        a, b = x - 2.0, x + 2.0
        rest = lambda t: 1.0 / math.sqrt(4.0 * lt * lt - t * t)
    else:
        a, b = -2.0 * lt, 2.0 * lt
        rest = lambda t: 1.0 / math.sqrt(4.0 - (x - t) * (x - t))
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    value, _ = quad(
        lambda theta: rest(mid + half * math.sin(theta)),
        -0.5 * math.pi,
        0.5 * math.pi,
        epsabs=1e-14,
        epsrel=1e-13,
        limit=200,
    )
    return value / math.pi**2


@pytest.mark.parametrize("lt", (1e-3, *LT_SWEEP, 30.0))
def test_dos_deformed_matches_quad_convolution(lt):
    edge = 2.0 * (1.0 + lt)
    pinch = abs(2.0 * lt - 2.0)
    for i in range(1, 40):
        s = edge * i / 40.0
        if abs(s - pinch) < 1e-3 * edge:
            continue
        assert rel_err(dos_deformed(s, lt), quad_convolution_density(s, lt)) < 1e-10


def test_dos_deformed_edge_limit():
    for lt in LT_SWEEP:
        edge = 2.0 * (1.0 + lt)
        inner = dos_deformed(edge - 1e-9, lt)
        assert rel_err(inner, 1.0 / (4.0 * math.pi * math.sqrt(lt))) < 1e-4
        assert dos_deformed(edge, lt) == pytest.approx(
            1.0 / (4.0 * math.pi * math.sqrt(lt))
        )


def test_exact_moments():
    assert dos_moment_exact(0, 0.7) == 1.0
    assert dos_moment_exact(1, 1.0) == 4.0
    assert dos_moment_exact(2, 0.5) == pytest.approx(12.375, rel=1e-15)
    for k in range(5):
        # lam_tilde -> 0 collapses to the arcsine law on [-2, 2]
        assert dos_moment_exact(k, 1e-9) == pytest.approx(
            math.comb(2 * k, k), rel=1e-12
        )
    for lt in LT_SWEEP:
        assert dos_moment_exact(1, lt) == pytest.approx(2.0 + 2.0 * lt * lt, rel=1e-14)


@pytest.mark.parametrize("lt", LT_SWEEP)
def test_quadrature_moments_match_exact(lt):
    profile = DensityProfile(lt)
    for k in range(5):
        assert rel_err(dos_moment(profile, k), dos_moment_exact(k, lt)) < 1e-5


def test_quadrature_moments_cover_verify_domain():
    # every lam_tilde = (lam/2)**q that verify meets at q <= 13
    for lam in (2.0, 0.7, 3.0):
        for q in range(1, 14):
            lt = lambda_tilde(lam, q)
            profile = DensityProfile(lt)
            for k in range(4):
                assert rel_err(dos_moment(profile, k), dos_moment_exact(k, lt)) < 1e-9


def _numpy_density_table(lam_tilde, nodes):
    # the tanh-sinh table as NumPy built it, kept as the oracle of the math-built one
    profile = DensityProfile(lam_tilde)
    edge = profile.support_half_width
    cuts = sorted(
        {-edge, edge, *(p for p in profile.interior_singularities if -edge < p < edge)}
    )
    u = np.linspace(-3.0, 3.0, nodes)
    step = u[1] - u[0]
    sinh_u = 0.5 * math.pi * np.sinh(u)
    base_x = np.tanh(sinh_u)
    base_w = step * 0.5 * math.pi * np.cosh(u) / np.cosh(sinh_u) ** 2
    abscissas, weights = [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for x, w in zip(base_x, base_w):
            s = min(max(mid + half * x, math.nextafter(a, b)), math.nextafter(b, a))
            rho = profile.density(s)
            if math.isfinite(rho):
                abscissas.append(s)
                weights.append(half * w * rho)
    return abscissas, weights


# At lt = 1e-6 dozens of nodes sit within 1e-12 of the pinch, where the
# log-singular density turns a one-ulp move of a node into a 1e-5 change of
# its weight.  np.tanh is off by one ulp at 45 of the 160 base nodes (math.tanh
# at 8, against mpmath), so there the two rules differ by 2.1e-13, three orders
# below either rule's own error against the exact moments (1.6e-10).
@pytest.mark.parametrize("lt, tol", ((1e-6, 1e-12), (0.35, 1e-14), (1.0, 1e-14), (1e3, 1e-14)))
def test_density_table_matches_numpy_rule(lt, tol):
    abscissas, weights = _density_table(lt, QUADRATURE_NODES)
    assert all(type(v) is float for v in abscissas + weights)
    ref_abscissas, ref_weights = _numpy_density_table(lt, QUADRATURE_NODES)
    # compared by moments, not node by node
    for k in range(4):
        ours = sum(w * s ** (2 * k) for s, w in zip(abscissas, weights))
        ref = sum(w * s ** (2 * k) for s, w in zip(ref_abscissas, ref_weights))
        assert abs(ours - ref) <= tol * abs(ref), k
        exact = dos_moment_exact(k, lt)
        assert abs(ours - exact) <= abs(ref - exact) + 1e-14 * exact, k


def test_integrate_point_traces_values():
    assert integrate_point_traces(make_flux(1, 3), 2.0, 4) == pytest.approx(
        24.0, abs=1e-5
    )
    assert integrate_point_traces(make_flux(1, 2), 1.0, 2) == pytest.approx(
        2.5, abs=1e-5
    )
    # q > n/2: the trace factor is constant in s, so the integral is the
    # mid-band value times the measured normalization
    flux = make_flux(1, 5)
    mid = midband_trace(cached_polynomial(flux, 2.0), 4)
    value = integrate_point_traces(flux, 2.0, 4)
    assert rel_err(value, mid) < 1e-9


@pytest.mark.parametrize("lam", (1.0, 2.0, 3.0))
def test_point_trace_closure_both_paths(lam):
    for p, q in ((0, 1), (1, 2), (1, 3), (2, 5), (1, 6)):
        flux = make_flux(p, q)
        for n in (0, 2, 6, 10):
            reference = almost_mathieu_trace(flux, lam, n)
            assert rel_err(integrate_point_traces_exact(flux, lam, n), reference) < 1e-12
            assert rel_err(integrate_point_traces(flux, lam, n), reference) < 1e-5


def test_density_profile_support():
    profile = DensityProfile(0.5)
    assert profile.support_half_width == 3.0
    assert profile.density(2.9) > 0.0
    assert profile.density(3.1) == 0.0
    with pytest.raises(DomainError):
        DensityProfile(-1.0)
