import math
import warnings

import numpy as np
import pytest

from helpers import ZONE_CASES, all_fluxes, peierls_walk_traces, rel_err, zone_traces
from hoftrace.chambers import eval_energy_polynomial
from hoftrace.core import lambda_tilde, make_flux
from hoftrace.oracle import (
    InsufficientGridWarning,
    RangeError,
    band_energies,
    bz_trace,
    point_spectrum_roots,
    secular_matrix,
    walk_trace_table,
)
from hoftrace.traces import almost_mathieu_trace, cached_polynomial, pm_s_trace


def test_secular_matrix_small_cases():
    # q = 1: single entry 2cos(ky) + 2cos(kx) at lam = 2
    for kx, ky in ((0.0, 0.0), (0.7, -1.2)):
        m = secular_matrix(make_flux(0, 1), 2.0, kx, ky)
        assert m.shape == (1, 1)
        assert m[0, 0] == pytest.approx(2 * math.cos(ky) + 2 * math.cos(kx))
    m = secular_matrix(make_flux(1, 2), 2.0, 0.0, 0.0)
    assert np.allclose(m, [[2.0, 2.0], [2.0, -2.0]])
    assert np.linalg.eigvalsh(m) == pytest.approx([-2 * math.sqrt(2), 2 * math.sqrt(2)])


def test_secular_matrix_hermitian():
    rng = np.random.default_rng(7)
    for p, q in ((1, 3), (2, 5), (3, 8)):
        for lam in (1.0, 2.0, 3.0):
            kx, ky = rng.uniform(-math.pi, math.pi, size=2)
            m = secular_matrix(make_flux(p, q), lam, kx, ky)
            assert np.array_equal(m, m.conj().T)


def test_secular_matrix_broadcasts_momenta():
    flux, grid = make_flux(2, 5), 4
    ks = np.linspace(-math.pi, math.pi, grid, endpoint=False)
    batch = secular_matrix(flux, 1.5, ks[:, None], ks[None, :])
    assert batch.shape == (grid, grid, 5, 5)
    for i, kx in enumerate(ks):
        for j, ky in enumerate(ks):
            assert np.array_equal(batch[i, j], secular_matrix(flux, 1.5, kx, ky))


def test_chambers_identity_at_eigenvalues():
    # P(E_r) = 2*(cos(q*kx) + (lam/2)**q * cos(q*ky)) for every band energy
    rng = np.random.default_rng(42)
    for p, q in ((1, 2), (1, 3), (2, 5), (3, 7), (3, 10)):
        flux = make_flux(p, q)
        for lam in (1.0, 2.0, 3.0):
            poly = cached_polynomial(flux, lam)
            lt = lambda_tilde(lam, q)
            for _ in range(20):
                kx, ky = rng.uniform(-math.pi, math.pi, size=2)
                rhs = 2.0 * (math.cos(q * kx) + lt * math.cos(q * ky))
                for energy in band_energies(flux, lam, kx, ky):
                    assert abs(eval_energy_polynomial(poly, energy) - rhs) < 1e-8 * (
                        1.0 + abs(rhs)
                    )


def test_bz_trace_values():
    assert bz_trace(make_flux(0, 1), 2.0, 2, 8) == pytest.approx(4.0, abs=1e-10)
    assert bz_trace(make_flux(1, 3), 2.0, 4, 8) == pytest.approx(24.0, abs=1e-9)
    assert bz_trace(make_flux(1, 2), 1.0, 2, 8) == pytest.approx(2.5, abs=1e-9)


def test_bz_trace_warns_on_coarse_grid():
    with pytest.warns(InsufficientGridWarning):
        bz_trace(make_flux(1, 2), 2.0, 8, 4)
    for p, q, n in ((1, 3, 12), (3, 8, 64), (1, 31, 62)):
        with pytest.warns(InsufficientGridWarning):
            bz_trace(make_flux(p, q), 2.0, n, n // q)


@pytest.mark.parametrize("p, q, lam", ZONE_CASES)
def test_bz_trace_exact_on_reduced_zone(p, q, lam):
    # G = n//q + 1 band angles per axis average the trace exactly; at q = 1001
    # each order costs a 1001 x 1001 eigensolve, so only n = 0, 16, 32, 48, 64 run
    flux = make_flux(p, q)
    walks = walk_trace_table(flux, lam, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error", InsufficientGridWarning)
        for n in range(0, 65, 2 if q < 1000 else 16):
            assert abs(bz_trace(flux, lam, n, n // q + 1) - walks[n]) <= 1e-12 * walks[n]


def test_bz_matches_formula():
    for p, q in all_fluxes(6):
        flux = make_flux(p, q)
        for lam in (1.0, 2.0, 3.0):
            for n in (2, 6, 10):
                assert rel_err(
                    bz_trace(flux, lam, n, n + 1), almost_mathieu_trace(flux, lam, n)
                ) < 1e-8


def test_point_spectrum_roots_examples():
    roots = point_spectrum_roots(make_flux(1, 3), 2.0, 0.0)
    assert roots == pytest.approx([-math.sqrt(6), 0.0, math.sqrt(6)], abs=1e-10)
    roots = point_spectrum_roots(make_flux(1, 4), 2.0, 4.0)
    assert roots == pytest.approx(
        [-2 * math.sqrt(2), 0.0, 0.0, 2 * math.sqrt(2)], abs=1e-8
    )
    with pytest.raises(RangeError):
        point_spectrum_roots(make_flux(1, 3), 2.0, 4.5)
    with pytest.raises(ValueError):
        point_spectrum_roots(make_flux(1, 3), 2.0, 1.0, sign=2)


def test_point_spectrum_roots_power_sums_match_pm_s():
    for p, q in ((1, 2), (1, 3), (2, 5)):
        flux = make_flux(p, q)
        for lam in (1.0, 2.0):
            poly = cached_polynomial(flux, lam)
            bound = 2.0 * (1.0 + lambda_tilde(lam, q))
            for s in (0.0, 0.8, bound):
                plus = point_spectrum_roots(flux, lam, s, sign=1)
                minus = point_spectrum_roots(flux, lam, s, sign=-1)
                for n in (2, 4, 8):
                    averaged = float(np.sum(plus**n) + np.sum(minus**n)) / (2 * q)
                    assert rel_err(averaged, pm_s_trace(poly, n, s)) < 1e-8


def test_walk_trace_values():
    for p, q in ((0, 1), (1, 3), (3, 7)):
        assert walk_trace_table(make_flux(p, q), 2.0, 2)[2] == pytest.approx(4.0, abs=1e-12)
    assert walk_trace_table(make_flux(1, 3), 2.0, 4)[4] == pytest.approx(24.0, abs=1e-10)
    assert walk_trace_table(make_flux(1, 2), 2.0, 4)[4] == pytest.approx(20.0, abs=1e-10)
    assert walk_trace_table(make_flux(0, 1), 2.0, 6)[6] == pytest.approx(400.0, abs=1e-9)
    assert walk_trace_table(make_flux(1, 3), 2.0, 5)[5] == 0.0


def test_walk_trace_area_weighting():
    # four-step closed walks: 28 with zero area, 8 with unit area
    for p, q in ((1, 5), (2, 7), (1, 8)):
        flux = make_flux(p, q)
        expected = 28.0 + 8.0 * math.cos(flux.gamma)
        assert walk_trace_table(flux, 2.0, 4)[4] == pytest.approx(expected, abs=1e-10)


def test_walk_trace_coupling_weighting():
    for lam in (0.5, 1.0, 3.0):
        value = walk_trace_table(make_flux(1, 3), lam, 2)[2]
        assert value == pytest.approx(2.0 + 2.0 * (lam / 2.0) ** 2, abs=1e-12)


def test_walk_trace_gauge_invariance():
    flux = make_flux(2, 5)
    base = walk_trace_table(flux, 1.5, 10)
    shifted = walk_trace_table(flux, 1.5, 10, y_origin=3)
    for x, y in zip(base, shifted):
        assert abs(x - y) < 1e-10 * (1.0 + abs(x))


def test_walk_trace_matches_formula():
    for p, q in all_fluxes(6):
        flux = make_flux(p, q)
        for lam in (1.0, 2.0, 3.0):
            table = walk_trace_table(flux, lam, 10)
            for n in (2, 6, 10):
                assert rel_err(table[n], almost_mathieu_trace(flux, lam, n)) < 1e-8


@pytest.mark.parametrize("p, q, lam", ZONE_CASES)
def test_walk_trace_table_matches_zone(p, q, lam):
    flux = make_flux(p, q)
    table = walk_trace_table(flux, lam, 64)
    zone = zone_traces(p, q, lam, 64)
    assert len(table) == 65
    for n in range(0, 65, 2):
        assert abs(table[n] - zone[n]) <= 1e-12 * zone[n]
    assert all(table[n] == 0.0 for n in range(1, 65, 2))
    # an entry does not depend on how long the table is
    assert walk_trace_table(flux, lam, 9) == table[:10]


def _assert_matches_peierls_walk(p, q, lam, n_max, y_origin=0):
    table = walk_trace_table(make_flux(p, q), lam, n_max, y_origin=y_origin)
    walk = peierls_walk_traces(p, q, lam, n_max, y_origin=y_origin)
    assert len(table) == len(walk) == n_max + 1
    for n in range(0, n_max + 1, 2):
        assert abs(table[n] - walk[n]) <= 1e-13 * walk[n]
    assert all(table[n] == 0.0 for n in range(1, n_max + 1, 2))


@pytest.mark.parametrize("p, q, lam", ZONE_CASES)
def test_walk_trace_table_matches_peierls_walk(p, q, lam):
    # the momentum average of 1-D walks against the 2-D complex lattice walk
    _assert_matches_peierls_walk(p, q, lam, 64)


@pytest.mark.parametrize("y_origin", [0, 3])
def test_walk_trace_table_matches_peierls_walk_off_origin(y_origin):
    _assert_matches_peierls_walk(2, 5, 1.5, 64, y_origin=y_origin)


@pytest.mark.parametrize("n_max", [1, 9, 33, 63])
def test_walk_trace_table_matches_peierls_walk_at_odd_length(n_max):
    _assert_matches_peierls_walk(3, 8, 0.7, n_max)


def test_walk_trace_table_overflow_raises():
    with pytest.raises(OverflowError):
        walk_trace_table(make_flux(1, 3), 1e5, 64)
