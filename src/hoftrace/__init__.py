"""Spectral moment traces of the Hofstadter and almost Mathieu operators.

At rational flux p/q the q-band spectrum is governed by a single polynomial
of degree q in the energy; its coefficient table turns spectral moments
into finite partition sums.  This package builds that table from the
paper's nested sums, evaluates the mid-band, point-spectrum and full
quantum traces in closed form, recovers full traces by integrating point
traces against the lattice density of states, and checks everything
against eigensolver, momentum-quadrature and lattice-walk oracles.
"""

import importlib

__version__ = "0.1.0"

# every public name and the submodule that defines it; a name's module is
# imported on first access, so each command loads only the modules it runs
_MODULE_OF = {
    name: module
    for module, names in {
        "chambers": ("ChambersPolynomial", "chambers_nested", "chambers_recursive"),
        "core": (
            "DegenerateTerm", "Flux", "InvalidCoupling", "InvalidFlux", "PartitionTerm",
            "TraceKind", "TraceMethod", "TraceRecord", "enumerate_partition_terms",
            "lambda_tilde", "make_flux", "multinomial_weight",
        ),
        "dos": (
            "DensityProfile", "DomainError", "dos_deformed", "dos_moment", "dos_moment_exact",
            "elliptic_k", "integrate_point_traces", "integrate_point_traces_exact",
        ),
        "oracle": (
            "InsufficientGridWarning", "RangeError", "band_energies", "bz_trace",
            "point_spectrum_roots", "secular_matrix", "trace_sum_rule", "walk_trace_table",
        ),
        "traces": (
            "DegeneratePolynomial", "SpectralRangeWarning", "almost_mathieu_trace",
            "hofstadter_trace", "midband_trace", "newton_power_sums", "pm_s_coefficients",
            "pm_s_trace", "trace_series",
        ),
        "walk": ("walk_trace",),
    }.items()
    for name in names
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
