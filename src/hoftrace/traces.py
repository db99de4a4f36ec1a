"""Closed-form spectral moment traces and their generating-function streams.

Every trace here is a partition sum over the coefficient table a(2j) of the
Chambers polynomial:

* mid-band traces average E**n over the q roots of P(E) = 0,
* the +/-s traces average over the 2q roots of P(E) = +s and P(E) = -s,
* the full quantum traces integrate over both quasi-momenta, which amounts
  to replacing s**(2k) in the +/-s sum by the 2k-th moment of the lattice
  density of states.

Odd moments vanish because each root multiset is symmetric under E -> -E;
all operations return exactly 0 for odd n rather than erroring, which keeps
series code uniform.  Newton power sums over the polynomial roots provide
an algebraic cross-check that never extracts a root.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

from .chambers import ChambersPolynomial, chambers_nested, chambers_recursive  # noqa: F401 (traced)
from .core import (
    Flux,
    enumerate_partition_terms,
    lambda_tilde,
    multinomial_weight,
)


class DegeneratePolynomial(ValueError):
    """Power sums need a nonzero leading coefficient."""


class SpectralRangeWarning(UserWarning):
    """|s| lies beyond the spectral range 2*(1 + (lam/2)**q).

    The partition sum is a polynomial identity in s and still evaluates;
    the result has no point-spectrum interpretation.
    """


class TraceKind(str, Enum):
    MID_BAND = "mid-band"
    PLUS_MINUS_S = "pm-s"
    FULL = "full"


class TraceMethod(str, Enum):
    SERIES = "series"
    WALK = "half-walk"


@dataclass(frozen=True)
class TraceRecord:
    """One computed trace value with its provenance and parameters."""

    flux: Flux
    lam: float
    n: int
    s: Optional[float]
    kind: TraceKind
    value: float
    method: TraceMethod

    def to_dict(self) -> dict:
        return {
            "p": self.flux.p,
            "q": self.flux.q,
            "lambda": self.lam,
            "kind": self.kind.value,
            "n": self.n,
            "s": self.s,
            "value": self.value,
            "method": self.method.value,
        }


@functools.lru_cache(maxsize=4096)
def _cached_coefficients(p: int, q: int, lam: float) -> tuple[float, ...]:
    return chambers_nested(Flux(p, q), lam).a


def cached_polynomial(flux: Flux, lam: float) -> ChambersPolynomial:
    """Chambers polynomial from the nested sums, memoized per (flux, lam)."""
    return ChambersPolynomial(flux, lam, _cached_coefficients(flux.p, flux.q, lam))


def central_factor(k: int, lam_tilde: float) -> float:
    """binom(2k,k) * sum_{k1} binom(k,k1)**2 * lam_tilde**(2*k1).

    This is the weight that turns a +/-s trace into a full quantum trace; it
    equals the 2k-th moment of the deformed lattice density of states and
    reduces to binom(2k,k)**2 at lam_tilde = 1 by Vandermonde.  The k1 sum
    is accumulated by Horner in lam_tilde**2 with exact integer binomials.
    """
    u = lam_tilde * lam_tilde
    acc = 1.0  # binom(k, k)**2
    for k1 in range(k - 1, -1, -1):
        acc = acc * u + float(math.comb(k, k1) ** 2)
    return float(math.comb(2 * k, k)) * acc


def _partition_sum(
    a: Sequence[float],
    q: int,
    n: int,
    central: Callable[[int], float],
) -> float:
    """(n/q) * sum over partition terms of weight * central(k) * prod a(2j)**l_j.

    Terms are consumed in the enumerator's deterministic order and the
    coefficient product is accumulated by repeated multiplication in index
    order, so results are reproducible bit for bit.
    """
    if n < 0:
        raise ValueError(f"moment order must be nonnegative, got {n}")
    if n == 0:
        return 1.0
    if n % 2:
        return 0.0
    total = 0.0
    for term in enumerate_partition_terms(n // 2, q):
        value = float(multinomial_weight(term)) * central(term.k)
        for j, count in enumerate(term.ell, start=1):
            for _ in range(count):
                value *= a[j]
        total += value
    return n / q * total


def midband_trace(poly: ChambersPolynomial, n: int) -> float:
    """Average of E**n over the q mid-band energies (roots of P(E) = 0).

    It is the s-independent coefficient of the +/-s trace polynomial.
    """
    return pm_s_coefficients(poly, n)[0]


def pm_s_trace(poly: ChambersPolynomial, n: int, s: float) -> float:
    """Average of E**n over the 2q roots of P(E) = +s and P(E) = -s.

    Reduces to the mid-band trace at s = 0, and is s-independent whenever
    q > n/2 (the wrap index k is then forced to zero).  Values of s beyond
    the spectral range are evaluated anyway but trigger a warning.
    """
    bound = 2.0 * (1.0 + lambda_tilde(poly.lam, poly.flux.q))
    if abs(s) > bound:
        warnings.warn(
            f"|s| = {abs(s)} exceeds the spectral range {bound}",
            SpectralRangeWarning,
            stacklevel=2,
        )
    s2 = s * s
    return _partition_sum(poly.a, poly.flux.q, n, lambda k: s2**k)


def pm_s_coefficients(poly: ChambersPolynomial, n: int) -> list[float]:
    """Coefficients T_k of the even polynomial Tr_(+/-s) = sum_k T_k s**(2k).

    The list has length floor(n/(2q)) + 1.  For n = 0 the trace is the
    constant 1; odd n gives the zero polynomial.
    """
    if n < 0:
        raise ValueError(f"moment order must be nonnegative, got {n}")
    if n == 0:
        return [1.0]
    if n % 2:
        return [0.0]
    q = poly.flux.q
    out = [0.0] * (n // (2 * q) + 1)
    for term in enumerate_partition_terms(n // 2, q):
        value = float(multinomial_weight(term))
        for j, count in enumerate(term.ell, start=1):
            for _ in range(count):
                value *= poly.a[j]
        out[term.k] += value
    return [n / q * t for t in out]


def hofstadter_trace(flux: Flux, n: int) -> float:
    """Full quantum trace Tr H**n of the isotropic (lam = 2) Hamiltonian."""
    return almost_mathieu_trace(flux, 2.0, n)


def almost_mathieu_trace(flux: Flux, lam: float, n: int) -> float:
    """Full quantum trace of the anisotropic operator; lam = 2 recovers Hofstadter."""
    poly = cached_polynomial(flux, lam)
    lt = lambda_tilde(lam, flux.q)
    return _partition_sum(poly.a, flux.q, n, lambda k: central_factor(k, lt))


def newton_power_sums(coeffs: Sequence[float], n_max: int) -> list[float]:
    """Power sums p_m = sum_r E_r**m, m = 1..n_max, of a polynomial's roots.

    coeffs are ascending (constant term first).  The classical Newton
    recurrence is used, so no root is ever extracted.
    """
    c = list(coeffs)
    if not c or c[-1] == 0.0:
        raise DegeneratePolynomial("leading coefficient must be nonzero")
    d = len(c) - 1
    lead = c[-1]
    ahat = [c[d - i] / lead for i in range(d + 1)]  # monic, ahat[0] = 1
    p = [0.0] * (n_max + 1)
    for m in range(1, n_max + 1):
        acc = m * ahat[m] if m <= d else 0.0
        for i in range(1, min(m - 1, d) + 1):
            acc += ahat[i] * p[m - i]
        p[m] = -acc
    return p[1:]


# -- formal power series helpers (plain float lists, index = power of z) --


def _series_mul(x: list[float], y: list[float], n_top: int) -> list[float]:
    out = [0.0] * (n_top + 1)
    for i, xi in enumerate(x):
        if xi == 0.0 or i > n_top:
            continue
        top = min(len(y) - 1, n_top - i)
        for j in range(top + 1):
            out[i + j] += xi * y[j]
    return out


def _series_inv(x: list[float], n_top: int) -> list[float]:
    if x[0] == 0.0:
        raise DegeneratePolynomial("series has no reciprocal (zero constant term)")
    out = [0.0] * (n_top + 1)
    out[0] = 1.0 / x[0]
    for m in range(1, n_top + 1):
        acc = 0.0
        for i in range(1, min(m, len(x) - 1) + 1):
            acc += x[i] * out[m - i]
        out[m] = -acc / x[0]
    return out


@functools.lru_cache(maxsize=256)
def _stream_parts(
    p: int, q: int, lam: float, n_max: int
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The s-free parts of every stream, built once per (flux, lam, n_max).

    They are the log-derivative prefactor 1 - z*b'(z)/(q*b(z)) and
    u = (z**q / b(z))**2, which is even in z with lowest order 2q.
    """
    poly = cached_polynomial(Flux(p, q), lam)
    b = [0.0] * (n_max + 1)
    for j, cj in enumerate(poly.b_coefficients()):
        if j <= n_max:
            b[j] = cj
    zbp = [k * b[k] for k in range(n_max + 1)]  # z * b'(z)
    b_inv = _series_inv(b, n_max)
    base = _series_mul(zbp, b_inv, n_max)
    base = [-c / q if c else 0.0 for c in base]  # odd orders +0.0, not -0.0
    base[0] += 1.0
    zq_over_b = [0.0] * (n_max + 1)
    for i in range(n_max + 1 - q):
        zq_over_b[i + q] = b_inv[i]
    return tuple(base), tuple(_series_mul(zq_over_b, zq_over_b, n_max))


def trace_series(
    flux: Flux,
    lam: float,
    kind: TraceKind,
    s: Optional[float],
    n_max: int,
) -> list[float]:
    """First n_max+1 Taylor coefficients in z of the requested trace stream.

    The coefficient of z**n equals the corresponding direct trace.  All
    three streams share the logarithmic-derivative prefactor
    1 - z*b'(z) / (q*b(z)); the +/-s stream multiplies it by the geometric
    resummation 1 / (1 - s**2 (z**q/b)**2) and the full stream by the
    moment-weighted series sum_k central_factor(k) * (z**q/b)**(2k).
    The s-free parts are memoized, so a stream at a second s, or of a
    second kind, reuses them.
    """
    if n_max < 0:
        raise ValueError(f"series order must be nonnegative, got {n_max}")
    q = flux.q
    base, u = _stream_parts(flux.p, q, lam, n_max)
    if kind is TraceKind.MID_BAND:
        return list(base)

    if kind is TraceKind.PLUS_MINUS_S:
        if s is None:
            raise ValueError("the pm-s stream needs a value for s")
        # 1 - s**2 u is even in z, so invert it in z**2 and skip the zeros of u:
        # inf * 0.0 would turn the s-free orders (n < 2q, odd n) into NaN
        # when s**2 exceeds the float range
        s2 = s * s
        denom = [-s2 * c if c else 0.0 for c in u[::2]]
        denom[0] += 1.0
        inverse = [0.0] * (n_max + 1)
        inverse[::2] = _series_inv(denom, n_max // 2)
        return _series_mul(base, inverse, n_max)

    lt = lambda_tilde(lam, q)
    k_top = n_max // (2 * q)
    weighted = [0.0] * (n_max + 1)
    weighted[0] = central_factor(k_top, lt)
    for k in range(k_top - 1, -1, -1):
        weighted = _series_mul(weighted, u, n_max)
        weighted[0] += central_factor(k, lt)
    return _series_mul(base, weighted, n_max)
