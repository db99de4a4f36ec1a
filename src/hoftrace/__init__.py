"""Spectral moment traces of the Hofstadter and almost Mathieu operators.

At rational flux p/q the q-band spectrum is governed by a single polynomial
of degree q in the energy; its coefficient table turns spectral moments
into finite partition sums.  This package builds that table two independent
ways, evaluates the mid-band, point-spectrum and full quantum traces in
closed form, recovers full traces by integrating point traces against the
lattice density of states, and checks everything against eigensolver,
momentum-quadrature and lattice-walk oracles.
"""

from .chambers import (
    ChambersPolynomial,
    chambers_nested,
    chambers_recursive,
    eval_energy_polynomial,
)
from .core import (
    DegenerateTerm,
    Flux,
    InvalidCoupling,
    InvalidFlux,
    PartitionTerm,
    enumerate_partition_terms,
    lambda_tilde,
    make_flux,
    multinomial_weight,
)
from .dos import (
    DensityProfile,
    DomainError,
    dos_deformed,
    dos_free,
    dos_moment,
    dos_moment_exact,
    elliptic_k,
    integrate_point_traces,
    integrate_point_traces_exact,
)
from .traces import (
    DegeneratePolynomial,
    SpectralRangeWarning,
    TraceKind,
    TraceMethod,
    TraceRecord,
    almost_mathieu_trace,
    hofstadter_trace,
    midband_trace,
    newton_power_sums,
    pm_s_coefficients,
    pm_s_trace,
    trace_series,
    trace_sum_rule,
)

__version__ = "0.1.0"

# the oracles are the only NumPy users, so they load on first access
_ORACLE_NAMES = frozenset(
    {
        "InsufficientGridWarning",
        "RangeError",
        "band_energies",
        "bz_trace",
        "point_spectrum_roots",
        "secular_matrix",
        "walk_trace_table",
    }
)


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ChambersPolynomial",
    "DegeneratePolynomial",
    "DegenerateTerm",
    "DensityProfile",
    "DomainError",
    "Flux",
    "InsufficientGridWarning",
    "InvalidCoupling",
    "InvalidFlux",
    "PartitionTerm",
    "RangeError",
    "SpectralRangeWarning",
    "TraceKind",
    "TraceMethod",
    "TraceRecord",
    "almost_mathieu_trace",
    "band_energies",
    "bz_trace",
    "chambers_nested",
    "chambers_recursive",
    "dos_deformed",
    "dos_free",
    "dos_moment",
    "dos_moment_exact",
    "elliptic_k",
    "enumerate_partition_terms",
    "eval_energy_polynomial",
    "hofstadter_trace",
    "integrate_point_traces",
    "integrate_point_traces_exact",
    "lambda_tilde",
    "make_flux",
    "midband_trace",
    "multinomial_weight",
    "newton_power_sums",
    "pm_s_coefficients",
    "pm_s_trace",
    "point_spectrum_roots",
    "secular_matrix",
    "trace_series",
    "trace_sum_rule",
    "walk_trace_table",
]
