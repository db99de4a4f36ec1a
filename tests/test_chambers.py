import math
from types import SimpleNamespace

import pytest

from helpers import continuant_coefficients, mpmath_coefficients, proper_fluxes, rel_err
import hoftrace.chambers
from hoftrace.chambers import (
    _block_products,
    chambers_nested,
    chambers_recursive,
    eval_energy_polynomial,
)
from hoftrace.core import Flux, InvalidCoupling, make_flux

LAMBDA_SWEEP = (0.5, 1.0, 2.0, 3.0)


def test_golden_polynomials():
    # 1/3: E^3 - 6E, 1/4: E^4 - 8E^2 + 4
    assert chambers_nested(make_flux(1, 3), 2.0).a == pytest.approx((-1.0, 6.0), abs=1e-9)
    assert chambers_nested(make_flux(1, 4), 2.0).a == pytest.approx(
        (-1.0, 8.0, -4.0), abs=1e-9
    )


def test_zero_flux_polynomial():
    for lam in LAMBDA_SWEEP:
        assert chambers_nested(Flux(0, 1), lam).a == (-1.0,)


def test_building_block_products():
    assert _block_products(make_flux(1, 2), 2.0) == pytest.approx([4.0])
    assert _block_products(Flux(0, 1), 2.0) == []
    for p, q in ((1, 3), (2, 5)):
        flux = make_flux(p, q)
        products = _block_products(flux, 2.0)
        assert len(products) == q - 1
        for k, product in enumerate(products):
            expected = 4.0 * math.sin(math.pi * (k + 1) * p / q) ** 2
            assert abs(product - expected) < 1e-12
        # the unreduced pair 2p/2q runs the same phases past index q-2, so its
        # entry q-1 is the block that p/q leaves out: it vanishes
        doubled = _block_products(SimpleNamespace(p=2 * p, q=2 * q), 1.5)
        assert abs(doubled[q - 1]) < 1e-12
        assert doubled[:q - 1] == _block_products(flux, 1.5)


@pytest.mark.parametrize("lam", (0.0, -2.0, float("nan")))
def test_block_products_reject_invalid_coupling(lam):
    # checked before the loop, so q = 1 (no blocks) rejects it too
    for flux in (Flux(0, 1), make_flux(1, 3)):
        with pytest.raises(InvalidCoupling):
            _block_products(flux, lam)


def test_recursive_name_is_the_nested_build():
    assert chambers_recursive is chambers_nested


@pytest.mark.parametrize("lam", LAMBDA_SWEEP)
def test_recursive_matches_nested(lam):
    # the determinant recursion at 40 digits, with its own block products
    for p, q in proper_fluxes(12):
        expected = mpmath_coefficients(p, q, lam)
        nst = chambers_nested(make_flux(p, q), lam)
        assert len(nst.a) == len(expected)
        for x, y in zip(expected, nst.a):
            assert rel_err(x, y) < 1e-9


@pytest.mark.parametrize("lam", LAMBDA_SWEEP)
def test_a2_is_q_times_coupling_factor(lam):
    expected_factor = 1.0 + (lam / 2.0) ** 2
    for p, q in proper_fluxes(12):
        poly = chambers_nested(make_flux(p, q), lam)
        assert rel_err(poly.a[1], q * expected_factor) < 1e-9


@pytest.mark.parametrize("lam", (0.5, 1.0, 3.0))
def test_coefficient_duality(lam):
    # a_lam(2j) = (lam/2)^(2j) * a_(4/lam)(2j)
    for p, q in proper_fluxes(12):
        flux = make_flux(p, q)
        direct = chambers_nested(flux, lam)
        dual = chambers_nested(flux, 4.0 / lam)
        for j, (aj, dj) in enumerate(zip(direct.a, dual.a)):
            assert rel_err(aj, (lam / 2.0) ** (2 * j) * dj) < 1e-9


def test_isotropic_coefficients_are_integers_for_rational_cosines():
    # Integer coefficients need cos(2*pi*p/q) rational, i.e. q in {1,2,3,4,6};
    # other denominators give algebraic irrationals (q=5 has a(4) =
    # -(35-5*sqrt(5))/2, cross-checked against the walk oracle via Tr H^4).
    for p, q in [(0, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 6), (5, 6)]:
        for aj in chambers_nested(make_flux(p, q), 2.0).a:
            assert abs(aj - round(aj)) < 1e-6


def test_leading_coefficient_is_exactly_minus_one():
    for p, q in proper_fluxes(10):
        for lam in LAMBDA_SWEEP:
            assert chambers_nested(make_flux(p, q), lam).a[0] == -1.0


def test_coefficient_vanishes_beyond_degree():
    for p, q in ((1, 4), (1, 5), (2, 7)):
        poly = chambers_nested(make_flux(p, q), 2.0)
        assert len(poly.a) == q // 2 + 1
        b = poly.b_coefficients()
        assert len(b) == 2 * (q // 2) + 1 and b[-1] != 0.0


def _float_recursion(flux, lam):
    return tuple(c.real for c in continuant_coefficients(_block_products(flux, lam), flux.q))


@pytest.mark.parametrize("lam", (2.0, 0.7, 3.0))
def test_nested_equals_recursive_exactly(lam):
    # the prefix-sum nest performs the float recursion's operations, so any
    # re-association shows here as a changed bit
    for p, q in [(0, 1)] + proper_fluxes(60):
        flux = make_flux(p, q)
        assert chambers_nested(flux, lam).a == _float_recursion(flux, lam)


@pytest.mark.parametrize("p, q, lam", ((7, 401, 0.7), (100, 401, 2.0), (3, 257, 3.0)))
def test_nested_equals_recursive_exactly_at_large_q(p, q, lam):
    flux = make_flux(p, q)
    assert chambers_nested(flux, lam).a == _float_recursion(flux, lam)


def test_nested_raises_on_non_real_coefficient():
    with pytest.raises(ArithmeticError, match=r"imaginary part 3\.7311572170258843e\+93$"):
        chambers_nested(make_flux(100, 401), 3.0)


@pytest.mark.parametrize("p, q", ((1, 1), (1, 2), (3, 8), (7, 101)))
def test_nested_builds_each_block_once(monkeypatch, p, q):
    built = []

    def counting_products(flux, lam):
        products = _block_products(flux, lam)
        built.append(len(products))
        return products

    monkeypatch.setattr(hoftrace.chambers, "_block_products", counting_products)
    chambers_nested(make_flux(p, q), 0.7)
    assert built == [q - 1]


def test_eval_energy_polynomial():
    p3 = chambers_nested(make_flux(1, 3), 2.0)
    p4 = chambers_nested(make_flux(1, 4), 2.0)
    assert eval_energy_polynomial(p3, 0.0) == 0.0
    assert eval_energy_polynomial(p4, 0.0) == 4.0
    assert abs(eval_energy_polynomial(p3, math.sqrt(6.0))) < 1e-10
    # generic point against the expanded monomial sum
    for energy in (-2.3, 0.7, 3.1):
        expected = sum(
            -aj * energy ** (4 - 2 * j) for j, aj in enumerate(p4.a)
        )
        assert eval_energy_polynomial(p4, energy) == pytest.approx(expected, rel=1e-13)
