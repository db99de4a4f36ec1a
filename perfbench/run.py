"""hoftrace benchmark: end-to-end latency, accuracy and memory, plus a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload trace-sweep --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* cli-cold      one-shot ``python -m hoftrace`` processes, a seeded command mix
* trace-sweep   in-process ``trace --n-max 64`` tables over q = 1..101
* verify-suite  in-process ``verify --n-max 64`` over p/q with q <= 13

Every operation is a closed loop with one client.  Every value an operation
prints is checked against ``reference.py``, which never imports hoftrace.
An operation fails on a crash or unexpected exit code, malformed JSON, a
value further than the pass tolerance from the reference, or (verify-suite)
any check reporting ``fail``.  Failures are counted, never fatal.

Times (setup_s, op_p50_ms, op_p90_ms, ops_per_s) are scaled to a reference
host speed measured by ``speed_probe`` in the same run; the factor is
printed on a comment line.  max_rel_err is floored at the pass tolerance and
capped at 1 (no correct digit).

The accuracy figures are scored on the first ``scored_ops`` operations of the
workload (``metrics.json``), which every run completes however fast the
program is, so they do not move with throughput.  fail_frac is the Jeffreys
estimate (failed + 1/2) / (K + 1) over those K operations, and bad_value_frac
the same estimate over their shares of values beyond the pass tolerance
(verify-suite: of checks reporting ``fail``), so neither is ever 0.  A run is
``correct`` only if the reference passes its self-check and the mean bad
share of the scored operations stays within the workload's
``bad_share_ceiling``, set about 25% above what the seed program gives.
The result line's ``attempted`` and ``failed`` also count the scored
operations only, so for one seed they are the same on every run; failures
among the later operations are printed on a comment line.

With ``--trace 0`` the end-to-end metrics are printed.  With ``--trace 1``
the operations run untraced and then again with the per-layer wrappers of
``tracer.py`` installed; the per-layer metrics of the traced pass are
printed, with the tracing overhead, and the spans are written to
``.bench_out/``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os
import sys

# Pin the run environment before NumPy loads: one BLAS/OpenMP thread and no
# hoftrace thread pool, in this process and in every child it starts.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("HOFTRACE_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
TOL = SPEC["pass_tolerance"]
N_MAX = SPEC["n_max"]
LAMBDAS = (2.0, 0.7, 3.0)
SETUP_SAMPLES = 11
IMPORT_SAMPLES = 3

import tracer as tracing  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------- operations


@dataclass
class Op:
    kind: str
    argv: list[str]
    p: int = 0
    q: int = 1
    lam: float = 2.0
    extra: dict = field(default_factory=dict)


@dataclass
class Result:
    op: Op
    seconds: float
    code: object  # exit code, or None when the call raised
    stdout: str
    rss_kb: int = 0
    traced: bool = False


def _flux_args(p: int, q: int, lam: float) -> list[str]:
    return ["--p", str(p), "--q", str(q), "--lambda", repr(lam)]


def _coprime(rng: random.Random, q: int) -> int:
    if q == 1:
        return 0
    while True:
        p = rng.randint(1, q - 1)
        if math.gcd(p, q) == 1:
            return p


def _in_range_s(rng: random.Random, q: int, lam: float) -> float:
    edge = 2.0 * (1.0 + (lam / 2.0) ** q)
    return round(rng.uniform(-0.95, 0.95) * edge, 6)


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def spread_ints(lo: int, hi: int, start: float = 0.0):
    """Endless sequence over lo..hi whose every prefix is spread evenly.

    A golden-ratio rotation from ``start``: the first N values cover the
    range with gaps near (hi - lo)/N.  It is the same for every seed: an
    operation's latency depends on its q far more than on its p or lam
    (a trace table at q = 50 takes 0.69-0.72 s whatever p and lam), so a
    seeded q mix would move the latency quantiles with the seed.  The seed
    draws everything else.
    """
    u = start
    while True:
        u = (u + GOLDEN) % 1.0
        yield lo + int(u * (hi - lo + 1))


# q ranges per cli-cold command: the nested build up to q = 401, the rest small
CLI_COLD_Q = {
    "coeffs-recursive": (2, 100),
    "coeffs-nested": (101, 401),
    "trace": (1, 7),
    "point-trace": (1, 7),
    "series": (1, 7),
    "dos": (1, 7),
}
# nested build at 100/401, lam = 3: the imaginary parts fail to cancel and
# coeffs dies with a traceback; one per round keeps that defect in view
CLI_COLD_PINNED = ["coeffs", *_flux_args(100, 401, 3.0), "--method", "nested"]


def _cli_cold_op(kind: str, q: int, rng: random.Random) -> Op:
    lam = rng.choice(LAMBDAS)
    p = _coprime(rng, q)
    if kind == "coeffs-recursive":
        return Op("coeffs", ["coeffs", *_flux_args(p, q, lam)], p, q, lam)
    if kind == "coeffs-nested":
        return Op("coeffs", ["coeffs", *_flux_args(p, q, lam), "--method", "nested"], p, q, lam)
    if kind == "trace":
        n = rng.randint(0, 24)
        return Op("trace-n", ["trace", *_flux_args(p, q, lam), "--n", str(n)], p, q, lam, {"n": n})
    if kind == "point-trace":
        n = rng.randint(0, 24)
        ss = [_in_range_s(rng, q, lam) for _ in range(3)]
        argv = ["point-trace", *_flux_args(p, q, lam), "--n", str(n), "--s", *map(repr, ss)]
        return Op("point-trace", argv, p, q, lam, {"n": n, "s": ss})
    if kind == "series":
        n_max = rng.randint(8, 24)
        series_kind = rng.choice(("full", "mid-band", "pm-s"))
        argv = ["series", *_flux_args(p, q, lam), "--kind", series_kind, "--n-max", str(n_max)]
        s = None
        if series_kind == "pm-s":
            s = _in_range_s(rng, q, lam)
            argv += ["--s", repr(s)]
        return Op("series", argv, p, q, lam, {"n_max": n_max, "kind": series_kind, "s": s})
    grid = rng.randint(21, 101)
    argv = ["dos", "--q", str(q), "--lambda", repr(lam), "--grid", str(grid)]
    return Op("dos", argv, 0, q, lam, {"grid": grid})


def ops_cli_cold(rng: random.Random):
    """Rounds of one command of each kind plus the pinned crash, in seeded order."""
    sizes = {kind: spread_ints(lo, hi, i / len(CLI_COLD_Q))
             for i, (kind, (lo, hi)) in enumerate(CLI_COLD_Q.items())}
    while True:
        batch = [_cli_cold_op(kind, next(q), rng) for kind, q in sizes.items()]
        batch.append(Op("coeffs", CLI_COLD_PINNED, 100, 401, 3.0))
        rng.shuffle(batch)
        yield from batch


def _fresh_case(rng: random.Random, q: int, lams: tuple, seen: set):
    """A (p, q, lam in lams) not in ``seen``, or None if the draws keep repeating."""
    for _ in range(50):
        case = (_coprime(rng, q), q, rng.choice(lams))
        if case not in seen:
            seen.add(case)
            return case
    return None


def ops_trace_sweep(rng: random.Random):
    """Tables at q spread evenly over 1..101, seeded p and lam; no (p, q, lam) repeats."""
    seen: set = set()
    for q in spread_ints(1, 101):
        case = _fresh_case(rng, q, LAMBDAS, seen)
        if case:
            yield Op("trace-table", ["trace", *_flux_args(*case), "--n-max", str(N_MAX)], *case)


# the three verify cases that fail at the seed; every run opens with them
VERIFY_PINNED = ((3, 8, 2.0), (2, 7, 2.0), (2, 5, 0.7))


def _verify_op(p: int, q: int, lam: float) -> Op:
    return Op("verify", ["verify", *_flux_args(p, q, lam), "--n-max", str(N_MAX)], p, q, lam)


def ops_verify_suite(rng: random.Random):
    """The pinned cases in seeded order, then rounds that each take q = 1..13 once.

    How many of a case's checks fail depends mostly on q and lam, so round r
    gives q the lam LAMBDAS[(q + r) % 3]: the first rounds hold the same
    (q, lam) mix whatever the seed, which draws p and the order in a round.
    """
    pinned = list(VERIFY_PINNED)
    rng.shuffle(pinned)
    yield from (_verify_op(*case) for case in pinned)
    seen = set(VERIFY_PINNED)
    for r in itertools.count():
        qs = list(range(1, 14))
        rng.shuffle(qs)
        for q in qs:
            case = _fresh_case(rng, q, (LAMBDAS[(q + r) % 3],), seen)
            if case:
                yield _verify_op(*case)


WORKLOADS = {
    "cli-cold": ops_cli_cold,
    "trace-sweep": ops_trace_sweep,
    "verify-suite": ops_verify_suite,
}


# ----------------------------------------------------------------- execution


def run_process(cmd: list[str]) -> tuple[float, int, str, str, int]:
    """Run one child to completion: (seconds, exit code, stdout, stderr, peak RSS kB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    stdout = proc.stdout.read()
    stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return seconds, proc.returncode, stdout.decode(), stderr.decode(), usage.ru_maxrss


class Runner:
    """Runs operations of one workload, optionally traced, and keeps their results."""

    def __init__(self, workload: str) -> None:
        self.cold = workload == "cli-cold"
        self.snapshots: list[dict] = []
        if not self.cold:
            import hoftrace.cli
            self.cli = hoftrace.cli

    @staticmethod
    def clear_caches() -> None:
        """Empty every memo cache (functools lru_cache) in the hoftrace modules."""
        for name, module in list(sys.modules.items()):
            if name == "hoftrace" or name.startswith("hoftrace."):
                for obj in vars(module).values():
                    if callable(getattr(obj, "cache_clear", None)):
                        obj.cache_clear()

    def run(self, op: Op, index: int, traced: bool) -> Result:
        if self.cold:
            return self._run_cold(op, index, traced)
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.op = index
            tracer.install()
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(op.argv)
        except (Exception, SystemExit):  # a crash is a failed operation
            code = None
        seconds = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
            self.snapshots.append(tracer.snapshot())
        return Result(op, seconds, code, out.getvalue(), traced=traced)

    def _run_cold(self, op: Op, index: int, traced: bool) -> Result:
        snap_path = OUT / f"op-{os.getpid()}-{index}.json"
        if traced:
            cmd = [sys.executable, str(HERE / "launch.py"), str(snap_path), str(index), "--", *op.argv]
        else:
            cmd = [sys.executable, "-m", "hoftrace", *op.argv]
        seconds, code, stdout, _, rss = run_process(cmd)
        if traced:
            try:
                self.snapshots.append(json.loads(snap_path.read_text(encoding="utf-8")))
                snap_path.unlink()
            except (OSError, ValueError):
                pass
        return Result(op, seconds, code, stdout, rss, traced)


def _splits(total: int, parts: int):
    if parts == 1:
        yield total
        return
    for head in range(total + 1):
        yield from _splits(total - head, parts - 1)


def speed_probe() -> float:
    """Seconds for a fixed pure-Python task of about 10 ms: the host's current speed.

    A virtual machine on a shared host can run at full speed for minutes and
    then at about half speed for minutes: on a 2-vCPU one a fresh ``import
    hoftrace`` took 0.30 s in one stretch and 0.61 s in the next.  Timings are
    therefore divided by the mean probe time of the same run relative to
    ``probe_reference_s``: they read in milliseconds at the reference speed,
    and a change to the program moves them while a change in host load
    mostly does not.  The probe is generator-heavy Python, like hoftrace's
    own loops.
    """
    start = time.perf_counter()
    acc, seen = 0.0, {}
    for i, v in enumerate(_splits(30, 5)):
        acc += (v * 0.5 + i) % 7.0
        seen[v] = seen.get(v, 0) + 1
    return time.perf_counter() - start


# share of --seconds given to the untraced pass of a traced run; the traced
# replay of the same operations takes the rest, plus the tracing overhead
UNTRACED_SHARE = 0.4


def measure(workload: str, seed: int, seconds: float, traced: bool, probes: list[float]):
    """Closed loop, one client, for ``seconds``: (results, runner, seconds spent in operations).

    The loop also runs until the workload's scored operations are done.  An
    untraced run takes a speed probe after every operation, outside the
    operation's time.  A traced run measures the operations untraced first,
    then clears the program's memo caches and replays the same operations
    with the tracer installed, so both passes see the same work from the
    same cache state.
    """
    runner = Runner(workload)
    ops = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    results: list[Result] = []
    budget = seconds * UNTRACED_SHARE if traced else seconds
    scored = SPEC["scored_ops"][workload]
    probing = 0.0
    start = time.perf_counter()
    while len(results) < scored or time.perf_counter() - start < budget:
        results.append(runner.run(next(ops), len(results), traced=False))
        if not traced:
            probes.append(speed_probe())
            probing += probes[-1]
    wall = time.perf_counter() - start - probing
    if traced:
        runner.clear_caches()
        base = len(results)
        results += [runner.run(r.op, base + i, traced=True) for i, r in enumerate(list(results))]
    return results, runner, wall


# ------------------------------------------------------------------- metrics


def percentile(values: list[float], fraction: float) -> float:
    """Linear interpolation between closest ranks (inclusive definition)."""
    ordered = sorted(values)
    pos = fraction * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def setup_seconds(probes: list[float]) -> list[float]:
    """Fresh-interpreter ``import hoftrace`` times, after one untimed warm-up."""
    cmd = [sys.executable, "-c", "import hoftrace"]
    times = []
    for i in range(SETUP_SAMPLES + 1):
        seconds, code, _, stderr, _ = run_process(cmd)
        if code != 0:
            raise RuntimeError(f"import hoftrace failed: {stderr.strip()}")
        if i:
            times.append(seconds)
            probes.append(speed_probe())
    return times


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_breakdown() -> tuple[float, float]:
    """(hoftrace, scipy) cumulative import ms from ``-X importtime``, medians of a few runs."""
    totals, scipy_totals = [], []
    for _ in range(IMPORT_SAMPLES):
        _, code, _, stderr, _ = run_process([sys.executable, "-X", "importtime", "-c", "import hoftrace"])
        if code != 0:
            raise RuntimeError("import hoftrace failed")
        rows = [(int(m[2]), len(m[3]), m[4]) for m in map(_IMPORTTIME.match, stderr.splitlines()) if m]
        total = scipy = 0
        # a row's parent is the next row printed with less indentation
        for i, (cumulative, depth, name) in enumerate(rows):
            if name == "hoftrace":
                total = cumulative
            if name.split(".")[0] == "scipy":
                parent = next((r[2] for r in rows[i + 1:] if r[1] < depth), "")
                if parent.split(".")[0] != "scipy":
                    scipy += cumulative
        totals.append(total / 1e3)
        scipy_totals.append(scipy / 1e3)
    return statistics.median(totals), statistics.median(scipy_totals)


def end_to_end(results, checked, scored: int, setup, wall: float, slowdown: float,
               self_rss_kb: int, cold: bool) -> dict:
    """Every end-to-end metric as (value, unit, samples); times at reference host speed."""
    lat = [r.seconds * 1e3 / slowdown for r in results]
    failed = sum(1 for f, _, _, _ in checked[:scored] if f)
    bad = sum(share for _, _, share, _ in checked[:scored])
    errs = [e for _, es, _, _ in checked[:scored] for e in es]
    if cold:
        rss_kb, rss_n = max(r.rss_kb for r in results), len(results)
    else:
        rss_kb, rss_n = self_rss_kb, 1
    return {
        "setup_s": (statistics.median(setup) / slowdown, "s", len(setup)),
        "op_p50_ms": (percentile(lat, 0.5), "ms", len(lat)),
        "op_p90_ms": (percentile(lat, 0.9), "ms", len(lat)),
        "ops_per_s": (len(lat) / wall * slowdown, "1/s", len(lat)),
        # Jeffreys estimates over the scored operations: never 0 or 1
        "fail_frac": ((failed + 0.5) / (scored + 1), "frac", scored),
        "bad_value_frac": ((bad + 0.5) / (scored + 1), "frac", scored),
        "max_rel_err": (max([TOL, *errs]), "rel", len(errs)),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", rss_n),
    }


def per_layer(results, runner: Runner, imports: tuple[float, float]) -> dict:
    traced = [r for r in results if r.traced]
    plain = [r for r in results if not r.traced]
    n = max(1, len(traced))
    tot: dict[str, float] = {}
    for snap in runner.snapshots:
        for key, value in tracing.layer_totals(snap).items():
            tot[key] = tot.get(key, 0.0) + value

    def ms(key: str) -> float:
        return tot.get(key, 0.0) * 1e3 / n

    def per_op(key: str) -> float:
        return tot.get(key, 0.0) / n

    cached = tot.get("traces.cached_polynomial.calls", 0.0)
    builds = tot.get("traces.coeff_builds", 0.0)
    overhead = 0.0
    if plain and traced:
        overhead = percentile([r.seconds for r in traced], 0.5) / percentile([r.seconds for r in plain], 0.5) - 1.0
    metrics = {
        "cli.import_ms": (imports[0], "ms"),
        "cli.import_scipy_ms": (imports[1], "ms"),
        "cli.main_self_ms": (ms("cli.main.self_s"), "ms/op"),
        "chambers.nested_ms": (ms("chambers.nested.s"), "ms/op"),
        "chambers.nested_calls": (per_op("chambers.nested.calls"), "calls/op"),
        "chambers.recursive_ms": (ms("chambers.recursive.s"), "ms/op"),
        "chambers.recursive_calls": (per_op("chambers.recursive.calls"), "calls/op"),
        "core.terms": (per_op("core.enumerate.items"), "terms/op"),
        "core.enumerate_ms": (ms("core.enumerate.s"), "ms/op"),
        "core.weight_calls": (per_op("core.weight.calls"), "calls/op"),
        "core.weight_ms": (ms("core.weight.s"), "ms/op"),
        "traces.full_trace_ms": (ms("traces.full_trace.s"), "ms/op"),
        "traces.full_trace_calls": (per_op("traces.full_trace.calls"), "calls/op"),
        "traces.pm_s_ms": (ms("traces.pm_s.s"), "ms/op"),
        "traces.series_ms": (ms("traces.series.s"), "ms/op"),
        "traces.newton_ms": (ms("traces.newton.s"), "ms/op"),
        "traces.coeff_cache_hit_ratio": (1.0 - builds / cached if cached else 0.0, "ratio"),
        "dos.deformed_ms": (ms("dos.deformed.s"), "ms/op"),
        "dos.deformed_calls": (per_op("dos.deformed.calls"), "calls/op"),
        "dos.moment_ms": (ms("dos.moment.s"), "ms/op"),
        "dos.integrate_ms": (ms("dos.integrate.s"), "ms/op"),
        "oracle.bz_trace_ms": (ms("oracle.bz_trace.s"), "ms/op"),
        "oracle.bz_trace_calls": (per_op("oracle.bz_trace.calls"), "calls/op"),
        "oracle.eigensolves": (per_op("oracle.eigensolves"), "count/op"),
        "oracle.walk_ms": (ms("oracle.walk.s"), "ms/op"),
        "oracle.point_roots_ms": (ms("oracle.point_roots.s"), "ms/op"),
        "trace.overhead_frac": (overhead, "frac"),
    }
    return {name: (value, unit, len(traced)) for name, (value, unit) in metrics.items()}


# ---------------------------------------------------------------------- main


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "HOFTRACE_THREADS": os.environ.get("HOFTRACE_THREADS", "unset"),
        "load_processes": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hoftrace" / "__init__.py").is_file():
        print(f"perfbench: no hoftrace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    print("# environment " + json.dumps(environment(), sort_keys=True))

    traced = bool(args.trace)
    probes: list[float] = []
    setup = [] if traced else setup_seconds(probes)
    imports = import_breakdown() if traced else (0.0, 0.0)

    results, runner, wall = measure(args.workload, args.seed, args.seconds, traced, probes)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import checks

    ok, worst = checks.self_check()
    print(f"# reference self-check vs walk/BZ oracles: max rel err {worst:.3g} "
          f"({'pass' if ok else 'FAIL'}, limit {SPEC['self_check_tolerance']:g})")
    checked = [checks.classify(r) for r in results]
    scored = SPEC["scored_ops"][args.workload]
    for label, part in (("scored", slice(scored)), ("later", slice(scored, None))):
        reasons: dict[str, int] = {}
        for r, (f, _, _, why) in zip(results[part], checked[part]):
            if f:
                reasons[f"{r.op.kind}: {why}"] = reasons.get(f"{r.op.kind}: {why}", 0) + 1
        print(f"# {args.workload} seed {args.seed}, {label} operations: {len(checked[part])} run, "
              f"{sum(reasons.values())} failed " + json.dumps(reasons, sort_keys=True))
    failed = sum(1 for f, _, _, _ in checked[:scored] if f)
    bad_share = statistics.mean(share for _, _, share, _ in checked[:scored])
    ceiling = SPEC["seed_baseline"][args.workload]["bad_share_ceiling"]
    print(f"# mean bad share of the first {scored} operations: {bad_share:.4f} "
          f"({'within' if bad_share <= ceiling else 'ABOVE'} ceiling {ceiling:g})")

    if traced:
        metrics = per_layer(results, runner, imports)
        spans = {"workload": args.workload, "seed": args.seed, "operations": runner.snapshots}
        tracing.write_snapshot(spans, str(OUT / f"spans-{args.workload}-{args.seed}.json"))
    else:
        slowdown = statistics.mean(probes) / SPEC["probe_reference_s"]
        print(f"# host speed: {len(probes)} probes, mean {statistics.mean(probes) * 1e3:.3f} ms, "
              f"reference {SPEC['probe_reference_s'] * 1e3:.3f} ms; times divided by {slowdown:.4f}")
        metrics = end_to_end(results, checked, scored, setup, wall, slowdown, rss_kb, runner.cold)
    for name, (value, unit, samples) in metrics.items():
        print(f"# {name:32s} {value:14.6g} {unit:9s} n={samples}")
    print(json.dumps({
        "correct": ok and bad_share <= ceiling,
        # the scored operations only: how many of the others fit in the run
        # depends on the host's speed, and with it their failure count
        "attempted": scored,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
