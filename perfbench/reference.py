"""Independent reference values for every quantity the hoftrace CLI prints.

This module never imports hoftrace.  It builds the q x q Bloch matrix of the
almost Mathieu operator itself and diagonalises it with NumPy:

* Full traces Tr H**n per site.  By the Chambers relation the Bloch spectrum
  depends on momentum only through s = 2(cos q*kx + lt*cos q*ky), and
  Newton's identities make sum_r E_r**n a polynomial of degree floor(n/q)
  in s.  A uniform G x G grid over the reduced zone with G = floor(n/q) + 1
  therefore integrates it exactly.  Every entry is a sum of positive powers,
  so nothing cancels.  Odd orders are exactly 0 by E -> -E symmetry: a raw
  eigenvalue-power sum would cancel to round-off junk there.
* Point-spectrum traces: eigenvalue powers at a momentum that realises the
  band parameter +s and at one that realises -s.
* Chambers coefficients a(2j): the tridiagonal determinant recursion run in
  40-digit mpmath arithmetic, so float round-off cannot reach the digits
  that are compared.
* Density of states: the closed form K(m) / (2 pi**2 sqrt(lt)) of the
  rectangular-lattice Green's function (Morita & Horiguchi 1971), and its
  exact moments binom(2k,k) * sum_j binom(k,j)**2 lt**(2j).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np


def lambda_tilde(lam: float, q: int) -> float:
    """(lam/2)**q by q left-to-right multiplications, as the CLI evaluates it."""
    out = 1.0
    for _ in range(q):
        out *= lam / 2.0
    return out


def bloch_spectra(p: int, q: int, lam: float, theta_x, theta_y) -> np.ndarray:
    """Eigenvalues of the Bloch matrix at band angles (q*kx, q*ky), batched.

    theta_x and theta_y broadcast against each other; the result has their
    broadcast shape plus a trailing axis of q ascending eigenvalues.
    """
    tx, ty = np.broadcast_arrays(np.asarray(theta_x, float), np.asarray(theta_y, float))
    gamma = 2.0 * math.pi * p / q
    rows = np.arange(q)
    mats = np.zeros(tx.shape + (q, q), dtype=complex)
    mats[..., rows, rows] = lam * np.cos(ty[..., None] / q + gamma * rows)
    if q == 1:
        mats[..., 0, 0] += 2.0 * np.cos(tx)
    else:
        mats[..., rows[:-1], rows[:-1] + 1] += 1.0
        mats[..., rows[:-1] + 1, rows[:-1]] += 1.0
        mats[..., 0, q - 1] += np.exp(-1j * tx)
        mats[..., q - 1, 0] += np.exp(1j * tx)
    return np.linalg.eigvalsh(mats)


def _power_table(energies: np.ndarray, n_max: int, count: int) -> list[float]:
    """sum(E**n) / count for n = 0..n_max, with odd orders set to exactly 0."""
    flat = energies.ravel()
    out = [1.0]
    power = np.ones_like(flat)
    for n in range(1, n_max + 1):
        power = power * flat
        out.append(float(np.sum(power)) / count if n % 2 == 0 else 0.0)
    return out


def full_traces(p: int, q: int, lam: float, n_max: int) -> list[float]:
    """Tr H**n per site for n = 0..n_max, exact zone quadrature."""
    g = n_max // q + 1
    angles = 2.0 * math.pi * np.arange(g) / g
    energies = bloch_spectra(p, q, lam, angles[:, None], angles[None, :])
    return _power_table(energies, n_max, q * g * g)


def _realising_angles(s: float, lt: float) -> tuple[float, float]:
    # cos(theta_x) = cos(theta_y) = s / (2(1 + lt)) gives 2(cos + lt*cos) = s
    c = min(1.0, max(-1.0, s / (2.0 * (1.0 + lt))))
    return math.acos(c), math.acos(c)


def point_traces(p: int, q: int, lam: float, s: float, n_max: int) -> list[float]:
    """Average of E**n over the 2q roots of P(E) = +s and P(E) = -s, n = 0..n_max.

    s must lie within the spectral range 2(1 + lt); s = 0 gives the mid-band
    trace.  Both signs are averaged, so the sign convention of the band
    identity does not matter.
    """
    lt = lambda_tilde(lam, q)
    plus = _realising_angles(s, lt)
    minus = _realising_angles(-s, lt)
    energies = bloch_spectra(p, q, lam, np.array([plus[0], minus[0]]),
                             np.array([plus[1], minus[1]]))
    return _power_table(energies, n_max, 2 * q)


def chambers_coefficients(p: int, q: int, lam: float) -> list[float]:
    """a(2j), j = 0..floor(q/2), from the determinant recursion at 40 digits."""
    with mpmath.workdps(40):
        lam_m = mpmath.mpf(lam)
        half2 = (lam_m / 2) ** 2
        ratio = (2 / lam_m) ** 2
        beta = []
        for k in range(q - 1):
            w = mpmath.expjpi(mpmath.mpf(2 * (k + 1) * p) / q)
            beta.append(half2 * (1 - w) * (1 - ratio * mpmath.conj(w)))
        d_prev2 = [mpmath.mpc(1)]
        d_prev = [mpmath.mpc(0), mpmath.mpc(-1)]
        for k in range(2, q + 1):
            d = [mpmath.mpc(0)] * (k + 1)
            for i, c in enumerate(d_prev):
                d[i + 1] -= c
            b = beta[k - 2]
            for i, c in enumerate(d_prev2):
                d[i] -= b * c
            d_prev2, d_prev = d_prev, d
        sign = -1 if q % 2 == 0 else 1
        return [float((sign * d_prev[q - 2 * j]).real) for j in range(q // 2 + 1)]


def density(s: float, lt: float) -> float:
    """Deformed lattice density of states of 2(cos x + lt*cos y); inf at the log poles."""
    edge = 2.0 * (1.0 + lt)
    if abs(s) > edge:
        return 0.0
    with mpmath.workdps(30):
        lt_m = mpmath.mpf(lt)
        m = ((2 + 2 * lt_m) ** 2 - mpmath.mpf(s) ** 2) / (16 * lt_m)
        if m == 1:
            return math.inf
        k = mpmath.ellipk(m) if m < 1 else mpmath.ellipk(1 / m) / mpmath.sqrt(m)
        return float(k / (2 * mpmath.pi**2 * mpmath.sqrt(lt_m)))


def density_moment(k: int, lt: float) -> float:
    """2k-th moment binom(2k,k) * sum_j binom(k,j)**2 lt**(2j), in exact rationals."""
    u = Fraction(lt) ** 2
    total = sum(math.comb(k, j) ** 2 * u**j for j in range(k + 1))
    return float(math.comb(2 * k, k) * total)


def rel_err(a: float, b: float) -> float:
    """|a - b| / max(1, |a|, |b|); two infinities of one sign agree."""
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(1.0, abs(a), abs(b))
