"""Closed-form spectral moment traces and their generating-function streams.

Each trace is a linear functional of T_k(n), the coefficients of the even
polynomial Tr_(+/-s)(n) = sum_k T_k(n) s**(2k):

* mid-band traces average E**n over the q roots of P(E) = 0; they are T_0,
* the +/-s traces average over the 2q roots of P(E) = +s and P(E) = -s,
* the full quantum traces integrate over both quasi-momenta, which replaces
  s**(2k) by the 2k-th moment central_factor(k, lam_tilde) of the lattice
  density of states.

The direct traces form T_k(n) as the paper's partition sum over the Chambers
coefficients a(2j).  The streams read the whole table from the generating
function, T_k(n) = [z**n] base(z) * u(z)**k with k <= n/(2q), and weigh it.

Odd moments vanish because each root multiset is symmetric under E -> -E;
all operations return exactly 0 for odd n rather than erroring, which keeps
series code uniform.  Newton power sums over the polynomial roots provide
an algebraic cross-check that never extracts a root.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import Callable, Optional, Sequence

from .chambers import ChambersPolynomial, chambers_nested, chambers_recursive  # noqa: F401 (traced)
from .core import (  # noqa: F401  (TraceMethod and TraceRecord are re-exported)
    Flux,
    TraceKind,
    TraceMethod,
    TraceRecord,
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
def _stream_table(p: int, q: int, lam: float, n_max: int) -> tuple[tuple[float, ...], ...]:
    """Rows T_k = base * u**k, k = 0..n_max//(2q), built once per (flux, lam, n_max).

    base = 1 - z*b'(z)/(q*b(z)) is the log-derivative prefactor and
    u = (z**q / b(z))**2 is even in z with lowest order 2q, so row k is
    zero below order 2qk and every odd order of every row is +0.0.
    """
    poly = cached_polynomial(Flux(p, q), lam)
    b = (poly.b_coefficients() + [0.0] * (n_max + 1))[: n_max + 1]
    zbp = [k * b[k] for k in range(n_max + 1)]  # z * b'(z)
    b_inv = _series_inv(b, n_max)
    base = _series_mul(zbp, b_inv, n_max)
    base = [-c / q if c else 0.0 for c in base]  # odd orders +0.0, not -0.0
    base[0] += 1.0
    zq_over_b = ([0.0] * q + b_inv)[: n_max + 1]
    u = _series_mul(zq_over_b, zq_over_b, n_max)
    rows = [base]
    for _ in range(n_max // (2 * q)):
        rows.append(_series_mul(rows[-1], u, n_max))
    return tuple(map(tuple, rows))


def trace_series(
    flux: Flux,
    lam: float,
    kind: TraceKind,
    s: Optional[float],
    n_max: int,
) -> list[float]:
    """First n_max+1 Taylor coefficients in z of the requested trace stream.

    The coefficient of z**n equals the corresponding direct trace.  Each
    stream is sum_k w_k T_k over the rows of the memoized _stream_table, and
    only the weights depend on the kind: 1 on k = 0 alone (mid-band),
    s**(2k) (+/-s) or central_factor(k, lam_tilde) (full).
    """
    if n_max < 0:
        raise ValueError(f"series order must be nonnegative, got {n_max}")
    k_range = range(n_max // (2 * flux.q) + 1)
    weights = [1.0]
    if kind is TraceKind.PLUS_MINUS_S:
        if s is None:
            raise ValueError("the pm-s stream needs a value for s")
        for _ in k_range[1:]:  # by products, which reach inf where float ** raises
            weights.append(weights[-1] * (s * s))
    elif kind is TraceKind.FULL:
        lt = lambda_tilde(lam, flux.q)
        weights = [central_factor(k, lt) for k in k_range]
    out = [0.0] * (n_max + 1)
    for weight, row in zip(weights, _stream_table(flux.p, flux.q, lam, n_max)):
        for n, c in enumerate(row):
            if c:  # inf * 0.0 would turn the s-free orders into NaN when s**2 overflows
                out[n] += weight * c
    return out
