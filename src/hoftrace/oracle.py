"""Independent ground truth: Bloch eigensolves, momentum quadrature, walk counts.

None of these routes touches the partition-sum formulas.  The Bloch matrix
is diagonalized directly; quantum traces come out either as Brillouin-zone
averages of eigenvalue powers or as Peierls-phase weighted lattice walks,
and point-spectrum roots are realized by picking momenta that hit the
requested band parameter s.  P at Bloch eigenvalues, fixed by the band
identity, checks the coefficient table and the trace sum rule.

The zone average runs over the band angles (q*kx, q*ky), the only way
momentum enters the spectrum; a uniform G x G grid of them averages Tr H**n
exactly once G >= n//q + 1.

The walk route is the half-walk table behind ``hoftrace trace --n-max``
and ``verify``, and the reference for the single-order walk in ``walk``:
Tr H**(2t) per site is the squared norm of H**t applied to a site state, a
sum of squares in which nothing cancels.  Flux enters only as the Peierls
phase of horizontal hops, so a Fourier transform along x turns the lattice
walk into one real 1-D almost Mathieu walk per momentum k, and the norm is
the mean over k of those walks' norms.  The mean is exact on M >= 2t+1
equally spaced momenta, where no t-step walk wraps around the ring.  The
state is a real (height, momentum) array in y-major order, so each step
updates one contiguous block, and the cost does not depend on q.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .chambers import ChambersPolynomial, chambers_nested
from .core import Flux, check_coupling, lambda_tilde
from .walk import MIN_MOMENTA


class RangeError(ValueError):
    """No real momentum realizes the requested band parameter."""


class InsufficientGridWarning(UserWarning):
    """Momentum grid too coarse to integrate the trace exactly."""


def secular_matrix(
    flux: Flux, lam: float, kx: float | np.ndarray, ky: float | np.ndarray
) -> np.ndarray:
    """Hermitian Bloch matrices: cosine diagonal, unit hops, phased corners.

    kx and ky broadcast against each other and the result has shape
    (..., q, q), so scalar momenta give a single q x q matrix.
    """
    check_coupling(lam)
    q = flux.q
    kx, ky = np.broadcast_arrays(np.asarray(kx, dtype=float), np.asarray(ky, dtype=float))
    rows = np.arange(q)
    m = np.zeros(kx.shape + (q, q), dtype=complex)
    m[..., rows, rows] = lam * np.cos(ky[..., None] + flux.gamma * rows)
    if q == 1:
        m[..., 0, 0] += 2.0 * np.cos(kx)
    else:
        corner = np.exp(1j * q * kx)
        m[..., rows[:-1], rows[:-1] + 1] = 1.0
        m[..., rows[:-1] + 1, rows[:-1]] = 1.0
        m[..., 0, q - 1] += corner.conj()
        m[..., q - 1, 0] += corner
    return m


def band_energies(
    flux: Flux, lam: float, kx: float | np.ndarray, ky: float | np.ndarray
) -> np.ndarray:
    """The q band energies at each momentum, ascending along the last axis."""
    return np.linalg.eigvalsh(secular_matrix(flux, lam, kx, ky))


def bz_trace(flux: Flux, lam: float, n: int, grid: int) -> float:
    """Trace of H**n per site as a Brillouin-zone average of band energies.

    The spectrum depends on momentum only through the band angles
    (q*kx, q*ky), and sum_r E_r**n is a trigonometric polynomial of degree
    floor(n/q) in each of them.  So the average over a uniform grid x grid
    lattice of band angles is exact (up to eigensolver error) once
    grid >= n//q + 1; coarser grids are allowed but flagged.
    """
    if grid < 1:
        raise ValueError(f"grid must be positive, got {grid}")
    q = flux.q
    if grid < n // q + 1:
        warnings.warn(
            f"grid {grid} < n//q + 1 = {n // q + 1}: momentum average is not exact",
            InsufficientGridWarning,
            stacklevel=2,
        )
    ks = 2.0 * math.pi * np.arange(grid) / (grid * q)
    energies = band_energies(flux, lam, ks[:, None], ks[None, :])
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.sum(energies**n) / (q * grid * grid))
    if not math.isfinite(value):
        raise OverflowError(f"Tr H^{n} exceeds the float range at lambda {lam}")
    return value


def point_spectrum_roots(flux: Flux, lam: float, s: float, sign: int = 1) -> np.ndarray:
    """The q roots of P(E) = sign*s, as Bloch eigenvalues at a chosen momentum.

    The band identity P(E) = 2*(cos(q*kx) + lt*cos(q*ky)) lets any momentum
    with the right-hand side equal to sign*s do; the proportional split
    cos(q*kx) = cos(q*ky) = sign*s / (2*(1+lt)) is used (clamped against
    roundoff) so results are reproducible.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    q = flux.q
    lt = lambda_tilde(lam, q)
    bound = 2.0 * (1.0 + lt)
    if abs(s) > bound * (1.0 + 1e-12):
        raise RangeError(f"|s| = {abs(s)} exceeds the spectral range {bound}")
    target = sign * s
    c2 = min(1.0, max(-1.0, target / bound))
    cx = min(1.0, max(-1.0, target / 2.0 - lt * c2))
    kx = math.acos(cx) / q
    ky = math.acos(c2) / q
    return band_energies(flux, lam, kx, ky)


def _band_polynomial(
    poly: ChambersPolynomial, theta_x: float | np.ndarray, theta_y: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P(E_r)/w_r, scale, 1/w_r) at the Bloch eigenvalues of band angles (q*kx, q*ky).

    w_r = max(1, |E_r|)**q keeps every power finite at large q.  The scale,
    also over w_r, is sum_j |a(2j)| |E_r|**(q-2j) (the terms' size) plus
    (2+lam) * sum_j |a(2j)| (q-2j) |E_r|**(q-2j-1) (P's change under an
    eigenvalue error of ||H|| <= 2+lam rounding units).
    """
    q = poly.flux.q
    energies = band_energies(poly.flux, poly.lam, np.divide(theta_x, q), np.divide(theta_y, q))
    size = np.abs(energies)[..., None]
    degree = q - 2 * np.arange(len(poly.a))
    power = np.where(size > 1.0, degree - q, degree)  # of |E_r| in each term over w_r
    magnitudes = np.abs(poly.a)
    values = np.where(energies < 0, (-1.0) ** q, 1.0) * (size**power @ -np.asarray(poly.a))
    slopes = np.where(degree > 0, size, 1.0) ** (power - 1) @ (magnitudes * degree)
    scale = size**power @ magnitudes + (2.0 + poly.lam) * slopes
    return values, scale, np.maximum(size[..., 0], 1.0) ** -float(q)


def band_identity_deviation(
    poly: ChambersPolynomial, theta_x: float | np.ndarray, theta_y: float | np.ndarray
) -> float:
    """Worst miss of P(E_r) = 2*(cos(theta_x) + lt*cos(theta_y)) over its scale.

    Every Bloch eigenvalue at those band angles solves it.  A correct table
    reads about 1e-16; an error in one coefficient reads as that error times
    its term's share of the scale.
    """
    values, scale, inverse_weight = _band_polynomial(poly, theta_x, theta_y)
    lt = lambda_tilde(poly.lam, poly.flux.q)
    target = np.asarray(2.0 * (np.cos(theta_x) + lt * np.cos(theta_y)))[..., None]
    return float(np.max(np.abs(values - target * inverse_weight) / scale))


def trace_sum_rule(flux: Flux, k: int) -> float:
    """Tr P(H)**(2k) per site at lam = 2 from Bloch eigenvalues; it equals binom(2k,k)**2.

    P(E_r) = 2*(cos(theta_x) + cos(theta_y)) has a mean of its 2k-th power
    over a (2k+1) x (2k+1) grid of band angles that is exact, with no
    multinomial expansion into moments of order 2kq.  P's terms still grow
    like |E|**q: the mean is good to 1e-13 at q <= 6 and 1e-8 at q = 13.
    """
    angles = 2.0 * math.pi * np.arange(2 * k + 1) / (2 * k + 1)
    poly = chambers_nested(flux, 2.0)
    values, _, inverse_weight = _band_polynomial(poly, angles[:, None], angles[None, :])
    return float(np.mean((values / inverse_weight) ** (2 * k)))


def walk_trace_table(
    flux: Flux, lam: float, n_max: int, y_origin: int = 0
) -> list[float]:
    """Tr H**n per site for every n = 0..n_max, from half-length walks.

    The per-site trace is the return amplitude <d0, H**n d0>.  For n = 2t
    it equals ||H**t d0||**2, a sum of squares, so it is positive and free
    of cancellation; odd orders vanish (E -> -E) and are exactly 0.0.
    In Landau gauge a horizontal hop at height y carries the phase
    exp(+/- i*gamma*y) and a vertical hop the amplitude lam/2, so a Fourier
    transform along x turns H into the real almost Mathieu operators
    A_k = 2cos(gamma*y - k) + (lam/2)(shift up + shift down), one per
    momentum k.  H**t d0 spans 2t+1 columns, so on a ring of M >= 2t+1
    columns, with momenta k = 2*pi*j/M, no walk wraps and ||H**t d0||**2 is
    exactly the mean over k of ||A_k**t e0||**2.  M = max(2*(n_max//2) + 1,
    65) keeps one grid for every n_max <= 64, so a table entry does not
    depend on n_max.  The state is a real (height, momentum) array in
    y-major order, so every step updates one contiguous block of its 2t+1
    active heights.  y_origin rebases the gauge; the trace must not depend
    on it.  Raises OverflowError when a moment exceeds the float range.
    """
    check_coupling(lam)
    if n_max < 0:
        raise ValueError(f"walk length must be nonnegative, got {n_max}")
    half_steps = n_max // 2
    ring = max(2 * half_steps + 1, MIN_MOMENTA)
    centre = half_steps + 1  # one zero row pads each end of the y axis
    heights = np.arange(2 * half_steps + 3) - centre + y_origin
    momenta = 2.0 * math.pi * np.arange(ring) / ring
    potential = 2.0 * np.cos(flux.gamma * heights[:, None] - momenta[None, :])
    cur = np.zeros_like(potential)
    nxt = np.zeros_like(potential)
    cur[centre] = 1.0
    half = lam / 2.0
    values = [1.0]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, half_steps + 1):
            lo, hi = centre - t, centre + t + 1
            out = nxt[lo:hi]
            np.add(cur[lo - 1:hi - 1], cur[lo + 1:hi + 1], out=out)
            out *= half
            out += potential[lo:hi] * cur[lo:hi]
            norm = float(np.vdot(out, out)) / ring
            if not math.isfinite(norm):
                raise OverflowError(f"Tr H^{2 * t} exceeds the float range at lambda {lam}")
            values += [0.0, norm]
            cur, nxt = nxt, cur
    if n_max % 2:
        values.append(0.0)
    return values
