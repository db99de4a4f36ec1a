"""Shared helpers for the test suite."""

import functools
import math

import mpmath
import numpy as np


def rel_err(a: float, b: float) -> float:
    """Deviation scaled by the larger magnitude, floored at 1."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def proper_fluxes(q_max: int) -> list[tuple[int, int]]:
    """All coprime pairs 1 <= p < q <= q_max."""
    return [
        (p, q)
        for q in range(2, q_max + 1)
        for p in range(1, q)
        if math.gcd(p, q) == 1
    ]


def all_fluxes(q_max: int) -> list[tuple[int, int]]:
    """Proper fluxes plus the zero-flux representative."""
    return [(0, 1)] + proper_fluxes(q_max)


def continuant_coefficients(products, q: int) -> list:
    """a(2j), j = 0..floor(q/2), from the tridiagonal determinant recursion.

    The k x k leading principal minor obeys D_k = -E*D_(k-1) - beta(k-2)*D_(k-2),
    with beta the block products, run on coefficient vectors in E; then
    a(2j) = (-1)**(q+1) times the E**(q-2j) coefficient of D_q.  The
    arithmetic is that of the products (complex floats or mpmath numbers),
    and the values keep their imaginary residue.
    """
    d_prev2, d_prev = [1], [0, -1]  # D_0 = 1, D_1 = -E
    for k in range(2, q + 1):
        d = [0] * (k + 1)
        for i, c in enumerate(d_prev):
            d[i + 1] -= c
        b = products[k - 2]
        for i, c in enumerate(d_prev2):
            d[i] -= b * c
        d_prev2, d_prev = d_prev, d
    sign = -1 if q % 2 == 0 else 1
    return [sign * d_prev[q - 2 * j] for j in range(q // 2 + 1)]


def mpmath_coefficients(p: int, q: int, lam: float, digits: int = 40) -> list[float]:
    """The coefficient table from the determinant recursion in mpmath, rounded once.

    The block products are formed at the working precision, as in
    perfbench/reference.chambers_coefficients, so the table is independent
    of the float products the package builds.
    """
    with mpmath.workdps(digits):
        lam_m = mpmath.mpf(lam)
        half2 = (lam_m / 2) ** 2
        ratio = (2 / lam_m) ** 2
        products = []
        for k in range(q - 1):
            w = mpmath.expjpi(mpmath.mpf(2 * (k + 1) * p) / q)
            products.append(half2 * (1 - w) * (1 - ratio * mpmath.conj(w)))
        return [float(mpmath.re(c)) for c in continuant_coefficients(products, q)]


# (p, q, lam) where the moment engine is pinned to the zone reference at n = 64:
# the float partition sum is off by 0.24 at 3/8 and has no correct digit at
# 1/31 and 1/100; both coefficient builds raise at 100/401
ZONE_CASES = [(3, 8, 2.0), (1, 31, 2.0), (1, 100, 0.7), (100, 401, 3.0), (1, 1001, 2.0)]


@functools.lru_cache(maxsize=None)
def zone_traces(p: int, q: int, lam: float, n_max: int) -> tuple[float, ...]:
    """Tr H**n per site for n = 0..n_max from Bloch eigensolves on the reduced zone.

    The Bloch spectrum depends on momentum only through the band angles
    (q*kx, q*ky), and sum_r E_r**n is a trigonometric polynomial of degree
    floor(n/q) in each of them, so a uniform G x G grid with
    G = n_max//q + 1 integrates every order exactly.  Each entry is a sum
    of even powers, so nothing cancels; odd orders are exactly 0.
    """
    grid = n_max // q + 1
    angles = 2.0 * np.pi * np.arange(grid) / grid
    tx, ty = np.meshgrid(angles, angles, indexing="ij")
    rows = np.arange(q)
    gamma = 2.0 * np.pi * p / q
    mats = np.zeros((grid, grid, q, q), dtype=complex)
    mats[..., rows, rows] = lam * np.cos(ty[..., None] / q + gamma * rows)
    if q == 1:
        mats[..., 0, 0] += 2.0 * np.cos(tx)
    else:
        mats[..., rows[:-1], rows[:-1] + 1] += 1.0
        mats[..., rows[:-1] + 1, rows[:-1]] += 1.0
        mats[..., 0, q - 1] += np.exp(-1j * tx)
        mats[..., q - 1, 0] += np.exp(1j * tx)
    energies = np.linalg.eigvalsh(mats).ravel()
    return tuple(
        float(np.sum(energies**n)) / energies.size if n % 2 == 0 else 0.0
        for n in range(n_max + 1)
    )


def peierls_walk_traces(
    p: int, q: int, lam: float, n_max: int, y_origin: int = 0
) -> list[float]:
    """Tr H**n per site for n = 0..n_max from the 2-D complex Peierls walk.

    An independent check on the momentum-resolved engine: H**t d0 is
    propagated on the (2t+1)**2 square around the origin, with the phase
    exp(+/- i*gamma*y) on a horizontal hop at height y and amplitude lam/2 on
    a vertical hop, and Tr H**(2t) = ||H**t d0||**2.  Odd orders are 0.
    """
    half_steps = n_max // 2
    size = 2 * half_steps + 1
    heights = np.arange(size) - half_steps + y_origin
    phase = np.exp(2j * np.pi * p / q * heights)  # indexed by y, broadcast over x
    half = lam / 2.0
    psi = np.zeros((size, size), dtype=complex)  # psi[x, y]
    psi[half_steps, half_steps] = 1.0
    values = [1.0]
    for t in range(1, half_steps + 1):
        nxt = np.zeros_like(psi)
        nxt[1:, :] += phase[None, :] * psi[:-1, :]
        nxt[:-1, :] += np.conj(phase)[None, :] * psi[1:, :]
        nxt[:, 1:] += half * psi[:, :-1]
        nxt[:, :-1] += half * psi[:, 1:]
        psi = nxt
        values += [0.0, float(np.vdot(psi, psi).real)]
    if n_max % 2:
        values.append(0.0)
    return values
