"""Value types and exact combinatorics shared by all trace formulas.

The partition sums that produce spectral moments run over solutions of

    q*k + 1*l_1 + 2*l_2 + ... + floor(q/2)*l_m = n/2,

each weighted by a multinomial coefficient divided by the total number of
parts.  Multinomials overflow 64-bit integers well below interesting n, so
weights are kept as exact rationals and converted to floating point only
when they are multiplied into real-valued coefficient products.  Only
``multinomial_weight`` needs ``fractions``, so it loads that module on its
first call and the CLI commands that never weigh a term never import it.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional

if TYPE_CHECKING:
    from fractions import Fraction


class InvalidFlux(ValueError):
    """Flux fraction cannot be formed (non-positive denominator)."""


class InvalidCoupling(ValueError):
    """Anisotropy coupling must be strictly positive."""


class DegenerateTerm(ValueError):
    """The all-zero partition term carries no multinomial weight."""


class TraceKind(str, Enum):
    """Which trace a stream or record holds; the values are ``series --kind``'s choices."""

    MID_BAND = "mid-band"
    PLUS_MINUS_S = "pm-s"
    FULL = "full"


class TraceMethod(str, Enum):
    """How a trace record's value was obtained."""

    SERIES = "series"
    WALK = "half-walk"
    SYMMETRY = "symmetry"  # odd orders (0.0) and order 0 (1.0), fixed without a walk


class _FluxFields(NamedTuple):
    p: int
    q: int


class Flux(_FluxFields):
    """Reduced rational magnetic flux p/q, with gamma = 2*pi*p/q per plaquette.

    Invariants: q >= 1, 0 <= p < q, gcd(p, q) = 1.  Zero flux is the
    canonical pair (0, 1).  Use :func:`make_flux` to build one from an
    arbitrary integer pair.
    """

    __slots__ = ()

    def __new__(cls, p: int, q: int) -> Flux:
        if q < 1:
            raise InvalidFlux(f"denominator must be positive, got {q}")
        if not 0 <= p < q and not (p == 0 and q == 1):
            raise InvalidFlux(f"numerator {p} not canonical for q={q}")
        if math.gcd(p, q) != 1:
            raise InvalidFlux(f"{p}/{q} is not in lowest terms")
        return super().__new__(cls, p, q)

    @property
    def gamma(self) -> float:
        return 2.0 * math.pi * self.p / self.q

    @property
    def half_q(self) -> int:
        """Number of coefficient slots floor(q/2) in the partition sums."""
        return self.q // 2

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def make_flux(p: int, q: int) -> Flux:
    """Canonicalize an integer pair into a reduced flux.

    p is first reduced modulo q, then the fraction is brought to lowest
    terms.  p = 0 mod q collapses to the zero-flux representative 0/1.
    """
    if q < 1:
        raise InvalidFlux(f"denominator must be positive, got {q}")
    p = p % q
    if p == 0:
        return Flux(0, 1)
    g = math.gcd(p, q)
    return Flux(p // g, q // g)


class TraceRecord(NamedTuple):
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


def check_coupling(lam: float) -> None:
    """Raise InvalidCoupling unless lam > 0 (NaN included)."""
    if not lam > 0:
        raise InvalidCoupling(f"coupling must be positive, got {lam}")


def lambda_tilde(lam: float, q: int) -> float:
    """(lam/2)**q accumulated by q left-to-right multiplications.

    The evaluation order is fixed so that every module computes bit-identical
    powers of lam/2 (the quantity enters range bounds and moment formulas).
    """
    check_coupling(lam)
    half = lam / 2.0
    out = 1.0
    for _ in range(q):
        out *= half
    return out


class PartitionTerm(NamedTuple):
    """One summand (k, l_1..l_m) of a trace partition sum."""

    k: int
    ell: tuple[int, ...]

    @property
    def total_parts(self) -> int:
        return sum(self.ell) + 2 * self.k


def _ell_tails(remainder: int, j: int, m: int) -> Iterator[tuple[int, ...]]:
    # all (l_j..l_m) >= 0 with sum_i i*l_i = remainder, ascending lexicographic
    if j > m:
        if remainder == 0:
            yield ()
        return
    for v in range(remainder // j + 1):
        for tail in _ell_tails(remainder - j * v, j + 1, m):
            yield (v,) + tail


def enumerate_partition_terms(half_n: int, q: int) -> Iterator[PartitionTerm]:
    """Yield every (k, l) with q*k + sum_j j*l_j = half_n.

    The k = 0 terms, which come first, are the partitions of half_n into
    parts of size at most floor(q/2).  Terms come out in ascending
    lexicographic order on (k, l_1, ..., l_m); downstream floating-point
    sums rely on this order for reproducibility.
    """
    if q < 1:
        raise InvalidFlux(f"denominator must be positive, got {q}")
    if half_n < 0:
        return
    m = q // 2
    for k in range(half_n // q + 1):
        for ell in _ell_tails(half_n - q * k, 1, m):
            yield PartitionTerm(k, ell)


_fraction = None  # fractions.Fraction, bound by the first multinomial_weight call


def multinomial_weight(term: PartitionTerm) -> Fraction:
    """Exact weight multinomial(sum l + 2k; l_1, ..., l_m, 2k) / (sum l + 2k).

    Raises DegenerateTerm for the all-zero term, whose weight would divide
    by zero; that term only arises for n = 0, which callers special-case.
    """
    global _fraction
    if _fraction is None:
        from fractions import Fraction as _fraction
    total = term.total_parts
    if total == 0:
        raise DegenerateTerm("all-zero partition term has no weight")
    denominator = math.factorial(2 * term.k)
    for count in term.ell:
        denominator *= math.factorial(count)
    return _fraction(math.factorial(total), denominator * total)
