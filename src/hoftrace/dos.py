"""Lattice densities of states, their moments, and the trace-recovery integral.

The band parameter s = 2*(cos(q*kx) + lt*cos(q*ky)), lt = (lam/2)**q, is a
sum of two independent arcsine variables, so its density is the convolution
of arcsine laws on [-2, 2] and [-2*lt, 2*lt].  That convolution has the
closed form K(m) / (2*pi**2*sqrt(lt)), m = ((2 + 2*lt)**2 - s**2) / (16*lt),
with K the complete elliptic integral of the first kind in the *parameter*
convention K(m) = integral dtheta / sqrt(1 - m sin(theta)**2); that
convention is pinned by the series identity (2/pi) K(16x) = sum binom(2k,k)**2 x**k.
For lt = 1 it is the classic square-lattice density (2*pi**2)**(-1) * K(1 - s**2/16).

Integrating the +/-s point-spectrum trace against this density reproduces
the full quantum trace: the trace's s**(2k) coefficients weighed by the
density's 2k-th moments.  The moments come either in closed form or as
sums over a tanh-sinh table of the density, which checks the density
construction itself.  The density table's tanh-sinh rule is
built with ``math`` alone, so this module never loads NumPy.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

from .core import Flux, lambda_tilde
from .traces import cached_polynomial, central_factor, pm_s_coefficients


class DomainError(ValueError):
    """Argument outside the mathematical domain of the function."""


def _agm_k(complement_root: float) -> float:
    # K(m) = pi / (2 * agm(1, sqrt(1-m))), with sqrt(1-m) supplied directly
    # so the parameter can sit arbitrarily close to the m = 1 singularity
    a, b = 1.0, complement_root
    for _ in range(64):
        if abs(a - b) <= 1e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def elliptic_k(m: float) -> float:
    """Complete elliptic integral K(m), parameter convention, via the AGM.

    K(m) = pi / (2 * agm(1, sqrt(1-m))).  The iteration converges
    quadratically and is run to machine precision.  m >= 1 is rejected
    (logarithmic singularity at m = 1).
    """
    if m >= 1.0:
        raise DomainError(f"elliptic parameter must satisfy m < 1, got {m}")
    return _agm_k(math.sqrt(1.0 - m))


def dos_deformed(s: float, lam_tilde: float) -> float:
    """Density of 2*(cos(q*kx) + lam_tilde*cos(q*ky)) over uniform momenta.

    Closed form K(m) / (2*pi**2*sqrt(lam_tilde)) with
    m = ((2 + 2*lam_tilde)**2 - s**2) / (16*lam_tilde) (Morita & Horiguchi,
    J. Math. Phys. 12, 1971); below the van Hove point m > 1 and K(m) is
    continued as K(1/m)/sqrt(m).  Both complement roots are formed from the
    factors (|s| -/+ pinch) and (edge -/+ |s|), never as sqrt(1 - m), so they
    keep their relative accuracy next to the singularity and no product
    leaves the float range.  lam_tilde = 1 is the free square lattice: the
    pinch is 0 and the root is |s|/4 exactly.  The value at the interior
    logarithmic singularity |s| = pinch = |2*lam_tilde - 2| is math.inf; at
    the support edge the finite inner limit 1/(4*pi*sqrt(lam_tilde)) is
    returned.
    """
    if not lam_tilde > 0.0:
        raise DomainError(f"lam_tilde must be positive, got {lam_tilde}")
    x = abs(s)
    lt = lam_tilde
    edge = 2.0 * (1.0 + lt)
    pinch = abs(2.0 * lt - 2.0)  # interior van Hove point
    if x > edge:
        return 0.0
    if x == edge:
        return 1.0 / (4.0 * math.pi * math.sqrt(lt))
    if x == pinch:
        return math.inf
    if x > pinch:
        # 1 - m = (x - pinch) * (x + pinch) / (16 * lt)
        scale = 4.0 * math.sqrt(lt)
        root = math.sqrt((x - pinch) / scale * ((x + pinch) / scale))
        return _agm_k(root) / (2.0 * math.pi**2 * math.sqrt(lt))
    # 1 - 1/m = (pinch - x) * (pinch + x) / ((edge - x) * (edge + x)), and
    # sqrt(lt * m) = sqrt((edge - x) * (edge + x)) / 4
    root = math.sqrt((pinch - x) / (edge - x) * ((pinch + x) / (edge + x)))
    return 2.0 * _agm_k(root) / (math.pi**2 * math.sqrt(edge - x) * math.sqrt(edge + x))


class _DensityFields(NamedTuple):
    lam_tilde: float


class DensityProfile(_DensityFields):
    """Tabulated density of states for one deformation parameter lam_tilde."""

    __slots__ = ()

    def __new__(cls, lam_tilde: float) -> DensityProfile:
        if not lam_tilde > 0.0:
            raise DomainError(f"lam_tilde must be positive, got {lam_tilde}")
        return super().__new__(cls, lam_tilde)

    @property
    def support_half_width(self) -> float:
        return 2.0 * (1.0 + self.lam_tilde)

    @property
    def interior_singularities(self) -> tuple[float, ...]:
        """Signed s values where the density diverges logarithmically."""
        pinch = abs(2.0 * self.lam_tilde - 2.0)
        return (-pinch, pinch) if pinch > 0.0 else (0.0,)

    def density(self, s: float) -> float:
        return dos_deformed(s, self.lam_tilde)


def dos_moment_exact(k: int, lam_tilde: float) -> float:
    """Closed-form moment binom(2k,k) * sum_{k1} binom(k,k1)**2 lam_tilde**(2k1).

    Ground truth against which quadrature moments are tested; it is the same
    weight that deforms the +/-s trace into the full quantum trace.
    """
    if k < 0:
        raise ValueError(f"moment index must be nonnegative, got {k}")
    return central_factor(k, lam_tilde)


def dos_moment(profile: DensityProfile, k: int) -> float:
    """2k-th moment of the density, summed over the tanh-sinh density table.

    :func:`integrate_point_traces` weighs the trace by these moments, so
    checking them against the closed form checks the quadrature that
    recovers the trace.
    """
    if k < 0:
        raise ValueError(f"moment index must be nonnegative, got {k}")
    abscissas, weights = _density_table(profile.lam_tilde)
    try:
        return sum(w * s ** (2 * k) for s, w in zip(abscissas, weights))
    except OverflowError:  # float ** raises where float * gives inf
        raise OverflowError(f"density moment {k} exceeds the float range") from None


# node count of every density table: dos_moment then meets the exact moments
# k < 4 to 1.5e-10 at every lam_tilde = (lam/2)**q, lam in {0.7, 2, 3}, q <= 13
QUADRATURE_NODES = 160
_TANH_SINH_CUTOFF = 3.0


@functools.lru_cache(maxsize=256)
def _density_table(lam_tilde: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Fixed tanh-sinh abscissas over the support with density-weighted weights.

    The support is split at the interior singularities; each smooth piece
    gets its own tanh-sinh rule, whose nodes cluster double-exponentially at
    the endpoints and absorb the integrable log divergences there.
    """
    profile = DensityProfile(lam_tilde)
    edge = profile.support_half_width
    cuts = sorted(
        {-edge, edge, *(p for p in profile.interior_singularities if -edge < p < edge)}
    )
    step = 2.0 * _TANH_SINH_CUTOFF / (QUADRATURE_NODES - 1)
    base = []
    for i in range(QUADRATURE_NODES):
        u = -_TANH_SINH_CUTOFF + i * step
        sinh_u = 0.5 * math.pi * math.sinh(u)
        base.append(
            (math.tanh(sinh_u), step * 0.5 * math.pi * math.cosh(u) / math.cosh(sinh_u) ** 2)
        )
    abscissas: list[float] = []
    weights: list[float] = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for x, w in base:
            # for extremely narrow pieces rounding can push a node onto a
            # singular cut; clamp strictly inside and drop exact collisions
            # (their true contribution is O(w * log) and the piece mass is
            # already negligible when that happens)
            s = min(max(mid + half * x, math.nextafter(a, b)), math.nextafter(b, a))
            rho = profile.density(s)
            if not math.isfinite(rho):
                continue
            abscissas.append(s)
            weights.append(half * w * rho)
    return tuple(abscissas), tuple(weights)


def _moment_sum(
    flux: Flux, lam: float, n: int, moment: Callable[[int, float], float]
) -> float:
    """sum_k T_k(n) * moment(k, lam_tilde): the +/-s trace integrated over s.

    T_k(n) is the s**(2k) coefficient of the +/-s trace, so weighing it by
    the 2k-th density moment integrates that trace against the density.
    """
    if n % 2:
        return 0.0
    lt = lambda_tilde(lam, flux.q)
    coeffs = pm_s_coefficients(cached_polynomial(flux, lam), n)
    return sum(t * moment(k, lt) for k, t in enumerate(coeffs))


def integrate_point_traces(flux: Flux, lam: float, n: int) -> float:
    """Recover the full quantum trace by integrating +/-s traces against the density.

    Each s**(2k) coefficient is paired with the quadrature moment
    :func:`dos_moment`, a sum over the tanh-sinh density table.  When
    q > n/2 only k = 0 is left, and the integral is the mid-band trace times
    the table's normalization.
    """
    return _moment_sum(flux, lam, n, lambda k, lt: dos_moment(DensityProfile(lt), k))


def integrate_point_traces_exact(flux: Flux, lam: float, n: int) -> float:
    """Same recovery with the quadrature replaced by the closed-form moments.

    Pairs each s**(2k) coefficient of the +/-s trace with the exact 2k-th
    density moment, so the only error is floating-point reassociation.
    """
    return _moment_sum(flux, lam, n, dos_moment_exact)
