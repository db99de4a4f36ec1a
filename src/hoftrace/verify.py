"""The cross-oracle verification suite behind ``hoftrace verify``.

Each check compares a closed form of the paper with an independent oracle
for one (p, q, lambda) and reports its worst deviation against a pinned
tolerance.  Only ``verify`` imports this module, so no other cold command
compiles it.  The two coefficient builds go through ``cli.chambers_nested``,
looked up at call time, because that is the attribute perfbench's tracer
wraps.
"""

from __future__ import annotations

import argparse
import math

from . import cli, dos, oracle, traces
from .core import Flux, TraceKind

# verify's walk-check range: past n = 20 the float partition sum fails 1e-8 at most q <= 13
WALK_CHECK_N_MAX = 20


def _deviation(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _verify_checks(flux: Flux, lam: float, n_max: int) -> list[dict]:
    q = flux.q
    lt = cli._density_lambda_tilde(lam, q)
    poly = cli.chambers_nested(flux, lam)
    cli._check_float_range(poly.a, "Chambers coefficient")
    evens = range(2, n_max + 1, 2)
    checks: list[dict] = []

    def add(name: str, deviation: float, tolerance: float) -> None:
        checks.append(
            {
                "check": name,
                "max_deviation": deviation,
                "tolerance": tolerance,
                "status": "pass" if deviation <= tolerance else "fail",
            }
        )

    # the band identity at two band-angle pairs, named as perfbench/metrics.json pins it
    add(
        "coefficients-recursive-vs-nested",
        oracle.band_identity_deviation(poly, (0.7, 2.9), (2.3, 1.1)),
        1e-12,
    )
    if q >= 2:
        add(
            "a2-identity",
            _deviation(poly.a[1], q * (1.0 + (lam / 2.0) ** 2)),
            1e-9,
        )
    dual = cli.chambers_nested(flux, 4.0 / lam)
    add(
        "coefficient-aubry-duality",
        max(
            _deviation(aj, (lam / 2.0) ** (2 * j) * dj)
            for j, (aj, dj) in enumerate(zip(poly.a, dual.a))
        ),
        1e-9,
    )

    formula = {n: traces.almost_mathieu_trace(flux, lam, n) for n in evens}

    def worst(values: dict[int, float]) -> float:
        # the formula's worst deviation from another route over the orders it gives
        return max((_deviation(formula[n], v) for n, v in values.items()), default=0.0)

    # the exact reduced-zone grid for the highest order serves every order
    grid = n_max // q + 1
    add("trace-vs-bz", worst({n: oracle.bz_trace(flux, lam, n, grid) for n in evens}), 1e-8)
    walk_cap = min(n_max, WALK_CHECK_N_MAX)
    walks = oracle.walk_trace_table(flux, lam, walk_cap)
    add("trace-vs-walk", worst({n: walks[n] for n in evens if n <= walk_cap}), 1e-8)

    # the +/-s traces, each once; at s = 0 it is the mid-band trace
    pm_s = {
        s: {n: traces.pm_s_trace(poly, n, s) for n in evens}
        for s in (0.0, 1.0, 2.0 * (1.0 + lt))
    }
    add(
        "midband-coincidence",
        max((abs(formula[n] - pm_s[0.0][n]) for n in evens if q > n // 2), default=0.0),
        0.0,
    )

    coeffs = poly.energy_coefficients()
    dev = 0.0
    for s, direct in pm_s.items():
        minus = list(coeffs)
        minus[0] -= s
        plus = list(coeffs)
        plus[0] += s
        p_minus = traces.newton_power_sums(minus, n_max)
        p_plus = traces.newton_power_sums(plus, n_max)
        for n in evens:
            newton = (p_minus[n - 1] + p_plus[n - 1]) / (2.0 * q)
            dev = max(dev, _deviation(newton, direct[n]))
    add("pm-s-vs-newton", dev, 1e-9)

    dev = 0.0
    for kind, s, direct in (
        (TraceKind.MID_BAND, None, pm_s[0.0]),
        (TraceKind.PLUS_MINUS_S, 1.0, pm_s[1.0]),
        (TraceKind.FULL, None, formula),
    ):
        stream = traces.trace_series(flux, lam, kind, s, n_max)
        for n, value in enumerate(stream):
            # odd orders vanish and order 0 is 1
            dev = max(dev, _deviation(value, direct.get(n, 0.0) if n else 1.0))
    add("series-vs-direct", dev, 1e-10)

    add(
        "trace-aubry-duality",
        worst(
            {
                n: (lam / 2.0) ** n * traces.almost_mathieu_trace(flux, 4.0 / lam, n)
                for n in evens
            }
        ),
        1e-9,
    )

    profile = dos.DensityProfile(lt)
    add(
        "dos-moment-quadrature",
        max(
            _deviation(dos.dos_moment(profile, k), dos.dos_moment_exact(k, lt))
            for k in range(4)
        ),
        1e-9,
    )

    add(
        "point-trace-closure-exact",
        worst({n: dos.integrate_point_traces_exact(flux, lam, n) for n in evens}),
        1e-12,
    )
    add(
        "point-trace-closure-quadrature",
        worst({n: dos.integrate_point_traces(flux, lam, n) for n in evens}),
        1e-5,
    )

    if lam == 2.0 and q <= 6:
        add(
            "trace-sum-rule",
            max(
                _deviation(oracle.trace_sum_rule(flux, k), float(math.comb(2 * k, k) ** 2))
                for k in (1, 2, 3)
            ),
            1e-12,
        )
    return checks


def run(args: argparse.Namespace) -> int:
    """``hoftrace verify``: print every check's verdict; exit 2 when any fails."""
    flux = cli._flux_from_args(args)
    cli._check_order(args.n_max, "--n-max")
    checks = _verify_checks(flux, args.lam, args.n_max)
    failed = [c for c in checks if c["status"] == "fail"]
    document = {
        "p": flux.p,
        "q": flux.q,
        "lambda": args.lam,
        "n_max": args.n_max,
        "checks": checks,
        "status": "fail" if failed else "pass",
    }
    cli._emit(document, checks, args.format, args.output)
    return 2 if failed else 0
