"""Chambers polynomial coefficients for the Hofstadter and almost Mathieu bands.

At rational flux p/q the momentum-independent part of the Bloch determinant
is a polynomial of degree q in the energy,

    P(E) = -sum_j a(2j) * E**(q - 2j),        j = 0 .. floor(q/2),

with a(0) = -1 by convention.  The band structure is P(E) = 2*(cos(q*kx) +
(lam/2)**q * cos(q*ky)), so everything spectral reduces to the coefficient
table a(2j).  It is built from the paper's nested sine-product sums
(generalized Kreft coefficients) with prefix sums shared by every
coefficient, O(q²) for the whole table.  That is the determinant's
continuant recursion with the same rounding, so a recursive build would
check nothing; verify checks the table against the band identity at Bloch
eigenvalues.

For lam != 2 the off-diagonal building blocks are no longer complex
conjugates of each other, but the coefficients stay real; the imaginary
residue is asserted small and discarded.
"""

from __future__ import annotations

import cmath
import math
import operator
from itertools import accumulate
from typing import NamedTuple

from .core import Flux, check_coupling

# imaginary residue allowed before a coefficient is declared non-real
_IMAG_TOL = 1e-9


class ChambersPolynomial(NamedTuple):
    """Coefficient table a(2j), j = 0..floor(q/2), for one (flux, lam)."""

    flux: Flux
    lam: float
    a: tuple[float, ...]

    def energy_coefficients(self) -> list[float]:
        """Ascending coefficients of P(E) = -sum_j a(2j) E^(q-2j), length q+1."""
        q = self.flux.q
        coeffs = [0.0] * (q + 1)
        for j, aj in enumerate(self.a):
            coeffs[q - 2 * j] = -aj
        return coeffs

    def b_coefficients(self) -> list[float]:
        """Ascending z-coefficients of b(z) = -sum_j a(2j) z^(2j)."""
        coeffs = [0.0] * (2 * self.flux.half_q + 1)
        for j, aj in enumerate(self.a):
            coeffs[2 * j] = -aj
        return coeffs


def _real_checked(z: complex) -> float:
    if abs(z.imag) > _IMAG_TOL * (1.0 + abs(z.real)):
        raise ArithmeticError(
            f"coefficient has non-cancelling imaginary part {z.imag!r}"
        )
    return z.real


def _block_products(flux: Flux, lam: float) -> list[complex]:
    """Products alpha*alpha_bar of the off-diagonal pairs of the Bloch matrix.

    Block k of the tridiagonal form has w = exp(2*pi*i*(k+1)*p/q),
    alpha = (lam/2)*(1 - w) and alpha_bar = (lam/2)*(1 - (2/lam)**2 * conj(w)).
    Only the product enters any formula, and it does not depend on the
    transverse momentum, so the phase factor is fixed to one.  At lam = 2
    the pair is complex conjugate and the product is 4*sin(pi*(k+1)*p/q)**2.
    Indices run over 0..q-2: block q-1 has w = 1, so it vanishes
    identically and is unused.
    """
    check_coupling(lam)
    half = lam / 2.0
    try:
        ratio = (2.0 / lam) ** 2
    except OverflowError:
        raise OverflowError(f"coupling {lam} is too small: (2/lambda)**2 overflows") from None
    products = []
    for k in range(flux.q - 1):
        theta = 2.0 * math.pi * (k + 1) * flux.p / flux.q
        alpha = half * (1.0 - cmath.exp(1j * theta))
        alpha_bar = half * (1.0 - ratio * cmath.exp(-1j * theta))
        products.append(alpha * alpha_bar)
    return products


def chambers_nested(flux: Flux, lam: float) -> ChambersPolynomial:
    """Coefficients from the nested-sum closed form (generalized Kreft coefficients).

    a(2j) = (-1)**(j+1) times the sum over q-2j >= k_1 >= ... >= k_j >= 0 of
    prod_i beta(k_i + 2*(j-i)), with beta the block products.  Substituting
    M_i = k_i + 2*(j-i) turns the nest into a sum over q-2 >= M_1 >= ... >=
    M_j >= 0 with gaps M_i - M_(i+1) >= 2, whose ranges no longer depend on
    j.  So one family of level sums
        S_d(M) = S_d(M-1) + beta(M) * S_(d-1)(M-2)
    (the d-fold nest over M_1 <= M) serves the whole table, with
    a(2j) = (-1)**(j+1) * S_j(q-2): one prefix-sum pass per level.

    This is the tridiagonal determinant's continuant recursion
    D_k = -E * D_(k-1) - beta(k-2) * D_(k-2) written as prefix sums, with
    the same floating-point operations.
    """
    q = flux.q
    beta = _block_products(flux, lam)
    a = [-1.0]
    terms = beta  # level 1: beta(M), M = 0..q-2
    for j in range(1, q // 2 + 1):
        sums = list(accumulate(terms, initial=0j))  # sums[i+1] = S_j(2(j-1) + i)
        sign = -1.0 if j % 2 == 0 else 1.0  # (-1)**(j+1)
        a.append(_real_checked(sign * sums[-1]))
        # level j+1: beta(M) * S_j(M-2), M = 2j..q-2
        terms = list(map(operator.mul, beta[2 * j:], sums[1:]))
    return ChambersPolynomial(flux, lam, tuple(a))


# the former recursive build's name; the recursion rounds exactly like the nest
chambers_recursive = chambers_nested


def eval_energy_polynomial(poly: ChambersPolynomial, energy: float) -> float:
    """Evaluate P(E) = -sum_j a(2j) E^(q-2j) by Horner in E**2.

    The expanded polynomial form is used so that energy = 0 is allowed even
    though the defining expression divides by E.
    """
    e2 = energy * energy
    acc = 0.0
    for aj in poly.a:
        acc = acc * e2 - aj
    if poly.flux.q % 2:
        acc *= energy
    return acc
