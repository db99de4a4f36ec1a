"""Command-line front end: coefficient tables, trace tables, densities, verification.

Output is JSON (default) or CSV, to stdout or a file.  Floats are emitted
through Python's repr, i.e. the shortest digit string that round-trips, so
downstream tools can reproduce values bit for bit.

Exit codes: 0 success, 1 invalid arguments or a result beyond the float
range, 2 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import json
import math
import os
import sys
from typing import Callable, NamedTuple, Optional

# traces, dos and oracle are imported by the commands that run them, so a cold
# process compiles and loads only what its command needs
from .chambers import chambers_nested, chambers_recursive  # noqa: F401  (traced by perfbench)
from .core import (
    Flux, TraceKind, TraceMethod, TraceRecord, check_coupling, lambda_tilde, make_flux,
)

N_MAX_CAP = 64


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)

    # argparse drops a failed write of --help; let it reach entrypoint, which exits 1
    def _print_message(self, message: str, file=None) -> None:
        if message:
            (file or sys.stderr).write(message)


def _json_safe(value) -> object:
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit(document: dict, rows: list[dict], fmt: str, output: Optional[str]) -> None:
    """Write the document (json) or its tabular rows (csv)."""
    if fmt == "json":
        text = json.dumps(document, indent=2, default=str)
    else:
        import csv  # only CSV output needs it

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
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:  # reported by main as a usage error, exit 1
            raise ValueError(f"cannot write --output {output}: {exc.strerror or exc}") from None
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
    if (lt := lambda_tilde(lam, q)) == 0.0:  # the density of states needs 0 < lt < inf
        raise ArithmeticError(f"--lambda {lam} is too small: (lambda/2)**{q} underflows to 0")
    if lt == math.inf:
        raise ArithmeticError(f"--lambda {lam} is too large: (lambda/2)**{q} overflows")
    return lt


def _record_rows(records: list) -> list[dict]:
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
    flux = _flux_from_args(args)
    if args.n is not None:
        _check_order(args.n, "--n")
        orders = [args.n]
    else:
        _check_order(args.n_max, "--n-max")
        orders = range(args.n_max + 1)
    check_coupling(args.lam)
    # closed walks on the bipartite lattice have even length, so odd moments are
    # exactly 0 and Tr H^0 = 1: only the even orders >= 2 are walked.  A single
    # order walks in pure Python; a table walks all of them at once in NumPy
    walked: dict[int, float] = {}
    if args.n is not None:
        if args.n >= 2 and args.n % 2 == 0:
            from .walk import walk_trace

            walked[args.n] = walk_trace(flux, args.lam, args.n)
    elif args.n_max >= 2:
        from . import oracle

        table = oracle.walk_trace_table(flux, args.lam, args.n_max)
        walked = {n: table[n] for n in range(2, args.n_max + 1, 2)}
    records = [
        TraceRecord(flux, args.lam, n, None, TraceKind.FULL, walked[n], TraceMethod.WALK)
        if n in walked
        else TraceRecord(
            flux, args.lam, n, None, TraceKind.FULL, 0.0 if n % 2 else 1.0, TraceMethod.SYMMETRY
        )
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
    from . import traces

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
    from . import traces

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
    from . import dos

    if args.q < 1:
        raise ValueError(f"--q must be positive, got {args.q}")
    if args.lam_tilde is not None:
        lt = args.lam_tilde
    else:
        lt = _density_lambda_tilde(args.lam, args.q)
    profile = dos.DensityProfile(lt)
    edge = profile.support_half_width
    if not math.isfinite(edge):  # edge = 2*(1 + lt) also overflows when lt does
        raise OverflowError(f"the support half-width at lambda_tilde {lt} exceeds the float range")
    grid = args.grid
    if grid < 2:
        raise ValueError(f"--grid must be at least 2, got {grid}")
    moment_values = [dos.dos_moment_exact(k, lt) for k in range(6)]
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


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify  # only verify compiles and loads its suite

    return verify.run(args)


def _common_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=int, default=1, help="flux numerator")
    p.add_argument("--q", type=int, required=True, help="flux denominator")
    p.add_argument(
        "--lambda", dest="lam", type=float, default=2.0,
        help="anisotropy coupling (default 2, the isotropic case)",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None, help="output path (default stdout)")


def _coeffs_arguments(p: argparse.ArgumentParser) -> None:
    _common_arguments(p)
    p.add_argument("--method", choices=("recursive", "nested"),
                   help="ignored: both name the one nested-sum builder")


def _trace_arguments(p: argparse.ArgumentParser) -> None:
    _common_arguments(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, default=None, help="single moment order")
    group.add_argument("--n-max", type=int, default=None, help="table up to this order")


def _point_trace_arguments(p: argparse.ArgumentParser) -> None:
    _common_arguments(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=float, nargs="+", required=True,
                   help="band parameters; s=0 gives the mid-band trace")


def _series_arguments(p: argparse.ArgumentParser) -> None:
    _common_arguments(p)
    p.add_argument("--kind", choices=[k.value for k in TraceKind], default="full")
    p.add_argument("--s", type=float, default=None,
                   help="band parameter; read by --kind pm-s only")
    p.add_argument("--n-max", type=int, required=True)


def _dos_arguments(p: argparse.ArgumentParser) -> None:
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


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    _common_arguments(p)
    p.add_argument("--n-max", type=int, default=8)


class _Command(NamedTuple):
    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


# every command by name, in the order `hoftrace --help` lists them
_COMMANDS = {
    "coeffs": _Command("Chambers polynomial coefficient table", _coeffs_arguments, cmd_coeffs),
    "trace": _Command("full quantum traces", _trace_arguments, cmd_trace),
    "point-trace": _Command(
        "point-spectrum traces at given s", _point_trace_arguments, cmd_point_trace
    ),
    "series": _Command("generating-function coefficient stream", _series_arguments, cmd_series),
    "dos": _Command("density of states samples and exact moments", _dos_arguments, cmd_dos),
    "verify": _Command("run the cross-oracle verification suite", _verify_arguments, cmd_verify),
}


@functools.cache
def _build_parser(command: Optional[str]) -> _Parser:
    """The parser of every command, with the arguments of ``command`` alone.

    The other commands still list their help lines, so the top-level help and
    usage errors read the same whichever command is built.
    """
    parser = _Parser(
        prog="hoftrace",
        description="Spectral moment traces of the Hofstadter and almost "
        "Mathieu operators at rational flux.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _COMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        if name == command:
            spec.add_arguments(p)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # only the invoked command's arguments are built; argparse reads it from argv[0]
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        _check_finite(args)
        return _COMMANDS[args.command].run(args)
    except (ValueError, ArithmeticError) as exc:  # InvalidFlux, DomainError, ... subclass ValueError
        print(f"hoftrace: error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    try:
        try:
            code = main(sys.argv[1:])
        except SystemExit as exc:  # --help and usage errors
            code = exc.code
        sys.stdout.flush()  # a failed write shows here, not in the exit's own flush
    except OSError as exc:
        # the reader went away (`| head`) or the device is full: silence the
        # interpreter's final flush by pointing stdout at devnull, and exit 1
        # without a traceback; a closed pipe needs no message
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"hoftrace: error: cannot write to stdout: {exc.strerror or exc}",
                  file=sys.stderr)
        code = 1
    # every object dies with the process: frozen, the exit's collections skip them
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
