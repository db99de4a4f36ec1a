"""Shared helpers for the test suite."""

import functools
import math

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
