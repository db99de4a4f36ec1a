"""Command-line front end: coefficient tables, trace tables, densities, verification.

Output is JSON (default) or CSV, to stdout or a file.  Floats are emitted
through Python's repr, i.e. the shortest digit string that round-trips, so
downstream tools can reproduce values bit for bit.

Exit codes: 0 success, 1 invalid arguments or a result beyond the float
range, 2 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from typing import Optional

from . import dos as dos_mod
from . import traces
from .chambers import chambers_nested, chambers_recursive  # noqa: F401  (traced by perfbench)
from .core import Flux, InvalidCoupling, InvalidFlux, lambda_tilde, make_flux
from .traces import TraceKind, TraceMethod, TraceRecord

N_MAX_CAP = 64
# verify's walk-check range: past n = 20 the float partition sum fails 1e-8 at most q <= 13
WALK_CHECK_N_MAX = 20


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _json_safe(value) -> object:
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit(document: dict, rows: list[dict], fmt: str, output: Optional[str]) -> None:
    """Write the document (json) or its tabular rows (csv)."""
    if fmt == "json":
        text = json.dumps(document, indent=2, default=str)
    else:
        buffer = io.StringIO()
        fieldnames = list(rows[0].keys()) if rows else []
        writer = csv.DictWriter(buffer, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {key: "" if val is None else repr(float(val)) if isinstance(val, float) else val
                 for key, val in row.items()}
            )
        text = buffer.getvalue().rstrip("\n")
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _flux_from_args(args: argparse.Namespace) -> Flux:
    return make_flux(args.p, args.q)


def _check_order(n: int, flag: str) -> None:
    if n < 0:
        raise ValueError(f"{flag} must be nonnegative, got {n}")
    if n > N_MAX_CAP:
        raise ValueError(f"{flag} capped at {N_MAX_CAP}, got {n}")


def _check_finite(args: argparse.Namespace) -> None:
    s = getattr(args, "s", None)  # a list for point-trace, a scalar or None for series
    for flag, value in (
        ("--lambda", args.lam),
        ("--lambda-tilde", getattr(args, "lam_tilde", None)),
        *(("--s", v) for v in (s if isinstance(s, list) else [s])),
    ):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")


def _check_float_range(values, what: str) -> None:
    # a value beyond the float range exits 1; it is never printed as inf or NaN
    for index, value in enumerate(values):
        if not math.isfinite(value):
            raise OverflowError(f"{what} {index} exceeds the float range")


def _density_lambda_tilde(lam: float, q: int) -> float:
    if (lt := lambda_tilde(lam, q)) == 0.0:  # the density of states needs lt > 0
        raise ArithmeticError(f"--lambda {lam} is too small: (lambda/2)**{q} underflows to 0")
    return lt


def _record_rows(records: list[TraceRecord]) -> list[dict]:
    return [record.to_dict() for record in records]


def cmd_coeffs(args: argparse.Namespace) -> int:
    flux = _flux_from_args(args)
    poly = chambers_nested(flux, args.lam)
    _check_float_range(poly.a, "Chambers coefficient")
    document = {
        "p": flux.p,
        "q": flux.q,
        "lambda": args.lam,
        "method": "nested",
        "a": list(poly.a),
    }
    rows = [{"j": j, "a": aj} for j, aj in enumerate(poly.a)]
    _emit(document, rows, args.format, args.output)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from . import oracle  # NumPy loads only for the commands that use the oracles

    flux = _flux_from_args(args)
    if args.n is not None:
        _check_order(args.n, "--n")
        n_max, orders = args.n, [args.n]
    else:
        _check_order(args.n_max, "--n-max")
        n_max, orders = args.n_max, range(args.n_max + 1)
    table = oracle.walk_trace_table(flux, args.lam, n_max)
    records = [
        TraceRecord(flux, args.lam, n, None, TraceKind.FULL, table[n], TraceMethod.WALK)
        for n in orders
    ]
    rows = _record_rows(records)
    if args.n is not None:
        document = dict(rows[0])
        document["trace"] = document["value"]
    else:
        document = {"records": rows}
    _emit(document, rows, args.format, args.output)
    return 0


def cmd_point_trace(args: argparse.Namespace) -> int:
    flux = _flux_from_args(args)
    _check_order(args.n, "--n")
    bound = 2.0 * (1.0 + lambda_tilde(args.lam, flux.q))
    records = []
    for s in args.s:
        if abs(s) > bound:
            print(
                f"warning: |s| = {abs(s)} exceeds the spectral range {bound}",
                file=sys.stderr,
            )
        value = traces.trace_series(flux, args.lam, TraceKind.PLUS_MINUS_S, s, args.n)[args.n]
        if not math.isfinite(value):
            raise OverflowError(
                f"the +/-s trace of order {args.n} at s = {s} exceeds the float range"
            )
        records.append(
            TraceRecord(
                flux, args.lam, args.n, s, TraceKind.PLUS_MINUS_S, value, TraceMethod.SERIES
            )
        )
    rows = _record_rows(records)
    _emit({"records": rows}, rows, args.format, args.output)
    return 0


def cmd_series(args: argparse.Namespace) -> int:
    flux = _flux_from_args(args)
    _check_order(args.n_max, "--n-max")
    kind = TraceKind(args.kind)
    if kind is TraceKind.PLUS_MINUS_S and args.s is None:
        raise ValueError("--kind pm-s needs --s")
    s = args.s if kind is TraceKind.PLUS_MINUS_S else None  # the other streams ignore --s
    coeffs = traces.trace_series(flux, args.lam, kind, s, args.n_max)
    _check_float_range(coeffs, "series coefficient of order")
    records = [
        TraceRecord(flux, args.lam, n, s, kind, value, TraceMethod.SERIES)
        for n, value in enumerate(coeffs)
    ]
    rows = _record_rows(records)
    _emit({"records": rows}, rows, args.format, args.output)
    return 0


def cmd_dos(args: argparse.Namespace) -> int:
    if args.q < 1:
        raise ValueError(f"--q must be positive, got {args.q}")
    if args.lam_tilde is not None:
        lt = args.lam_tilde
    else:
        lt = _density_lambda_tilde(args.lam, args.q)
    profile = dos_mod.DensityProfile(lt)
    edge = profile.support_half_width
    if not math.isfinite(edge):  # edge = 2*(1 + lt) also overflows when lt does
        raise OverflowError(f"the support half-width at lambda_tilde {lt} exceeds the float range")
    grid = args.grid
    if grid < 2:
        raise ValueError(f"--grid must be at least 2, got {grid}")
    moment_values = [dos_mod.dos_moment_exact(k, lt) for k in range(6)]
    _check_float_range(moment_values, "density moment")
    samples = []
    for i in range(grid):
        s = -edge + 2.0 * edge * i / (grid - 1)
        samples.append({"s": s, "density": profile.density(s)})
    moments = [{"k": k, "value": value} for k, value in enumerate(moment_values)]
    document = {
        "lambda_tilde": lt,
        "support_half_width": edge,
        "samples": [
            {"s": item["s"], "density": _json_safe(item["density"])}
            for item in samples
        ],
        "moments": moments,
    }
    rows = [{"record": "density", "x": item["s"], "value": item["density"]}
            for item in samples]
    rows += [{"record": "moment", "x": float(m["k"]), "value": m["value"]}
             for m in moments]
    _emit(document, rows, args.format, args.output)
    return 0


def _deviation(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _verify_checks(flux: Flux, lam: float, n_max: int) -> list[dict]:
    from . import oracle

    q = flux.q
    lt = _density_lambda_tilde(lam, q)
    poly = chambers_nested(flux, lam)
    evens = [n for n in range(2, n_max + 1, 2)]
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
    dual = chambers_nested(flux, 4.0 / lam)
    add(
        "coefficient-aubry-duality",
        max(
            _deviation(aj, (lam / 2.0) ** (2 * j) * dj)
            for j, (aj, dj) in enumerate(zip(poly.a, dual.a))
        ),
        1e-9,
    )

    formula = {n: traces.almost_mathieu_trace(flux, lam, n) for n in evens}
    # the exact reduced-zone grid for the highest order serves every order
    bz_values = [oracle.bz_trace(flux, lam, n, n_max // q + 1) for n in evens]
    add(
        "trace-vs-bz",
        max(_deviation(formula[n], v) for n, v in zip(evens, bz_values)) if evens else 0.0,
        1e-8,
    )
    walk_cap = min(n_max, WALK_CHECK_N_MAX)
    walks = oracle.walk_trace_table(flux, lam, walk_cap)
    add(
        "trace-vs-walk",
        max(
            (_deviation(formula[n], walks[n]) for n in evens if n <= walk_cap),
            default=0.0,
        ),
        1e-8,
    )
    add(
        "midband-coincidence",
        max(
            (
                abs(formula[n] - traces.midband_trace(poly, n))
                for n in evens
                if q > n // 2
            ),
            default=0.0,
        ),
        0.0,
    )

    coeffs = poly.energy_coefficients()
    dev = 0.0
    for s in (0.0, 1.0, 2.0 * (1.0 + lt)):
        minus = list(coeffs)
        minus[0] -= s
        plus = list(coeffs)
        plus[0] += s
        p_minus = traces.newton_power_sums(minus, n_max)
        p_plus = traces.newton_power_sums(plus, n_max)
        for n in evens:
            newton = (p_minus[n - 1] + p_plus[n - 1]) / (2.0 * q)
            dev = max(dev, _deviation(newton, traces.pm_s_trace(poly, n, s)))
    add("pm-s-vs-newton", dev, 1e-9)

    dev = 0.0
    for kind, s in (
        (TraceKind.MID_BAND, None),
        (TraceKind.PLUS_MINUS_S, 1.0),
        (TraceKind.FULL, None),
    ):
        stream = traces.trace_series(flux, lam, kind, s, n_max)
        for n, value in enumerate(stream):
            if kind is TraceKind.MID_BAND:
                direct = traces.midband_trace(poly, n)
            elif kind is TraceKind.PLUS_MINUS_S:
                direct = traces.pm_s_trace(poly, n, s)
            else:
                direct = traces.almost_mathieu_trace(flux, lam, n)
            if n == 0:
                direct = 1.0
            dev = max(dev, _deviation(value, direct))
    add("series-vs-direct", dev, 1e-10)

    add(
        "trace-aubry-duality",
        max(
            (
                _deviation(
                    formula[n],
                    (lam / 2.0) ** n * traces.almost_mathieu_trace(flux, 4.0 / lam, n),
                )
                for n in evens
            ),
            default=0.0,
        ),
        1e-9,
    )

    profile = dos_mod.DensityProfile(lt)
    add(
        "dos-moment-quadrature",
        max(
            _deviation(dos_mod.dos_moment(profile, k), dos_mod.dos_moment_exact(k, lt))
            for k in range(4)
        ),
        1e-9,
    )

    add(
        "point-trace-closure-exact",
        max(
            (
                _deviation(dos_mod.integrate_point_traces_exact(flux, lam, n), formula[n])
                for n in evens
            ),
            default=0.0,
        ),
        1e-12,
    )
    add(
        "point-trace-closure-quadrature",
        max(
            (
                _deviation(dos_mod.integrate_point_traces(flux, lam, n), formula[n])
                for n in evens
            ),
            default=0.0,
        ),
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


def cmd_verify(args: argparse.Namespace) -> int:
    flux = _flux_from_args(args)
    _check_order(args.n_max, "--n-max")
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
    _emit(document, checks, args.format, args.output)
    return 2 if failed else 0


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="hoftrace",
        description="Spectral moment traces of the Hofstadter and almost "
        "Mathieu operators at rational flux.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, flux: bool = True) -> None:
        if flux:
            p.add_argument("--p", type=int, default=1, help="flux numerator")
            p.add_argument("--q", type=int, required=True, help="flux denominator")
        p.add_argument(
            "--lambda", dest="lam", type=float, default=2.0,
            help="anisotropy coupling (default 2, the isotropic case)",
        )
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("coeffs", help="Chambers polynomial coefficient table")
    common(p)
    p.add_argument("--method", choices=("recursive", "nested"),
                   help="ignored: both name the one nested-sum builder")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("trace", help="full quantum traces")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, default=None, help="single moment order")
    group.add_argument("--n-max", type=int, default=None, help="table up to this order")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("point-trace", help="point-spectrum traces at given s")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=float, nargs="+", required=True,
                   help="band parameters; s=0 gives the mid-band trace")
    p.set_defaults(func=cmd_point_trace)

    p = sub.add_parser("series", help="generating-function coefficient stream")
    common(p)
    p.add_argument("--kind", choices=[k.value for k in TraceKind], default="full")
    p.add_argument("--s", type=float, default=None,
                   help="band parameter; read by --kind pm-s only")
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("dos", help="density of states samples and exact moments")
    p.add_argument("--q", type=int, default=1)
    p.add_argument(
        "--lambda", dest="lam", type=float, default=2.0,
        help="coupling; the density depends on it through (lambda/2)**q",
    )
    p.add_argument("--lambda-tilde", dest="lam_tilde", type=float, default=None,
                   help="set (lambda/2)**q directly, overriding --lambda/--q")
    p.add_argument("--grid", type=int, default=201, help="number of sample points")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_dos)

    p = sub.add_parser("verify", help="run the cross-oracle verification suite")
    common(p)
    p.add_argument("--n-max", type=int, default=8)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_finite(args)
        return args.func(args)
    except (
        InvalidFlux, InvalidCoupling, ValueError, ArithmeticError, dos_mod.DomainError
    ) as exc:
        print(f"hoftrace: error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
