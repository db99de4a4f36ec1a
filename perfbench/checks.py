"""Checks every value a hoftrace CLI call printed against ``reference.py``.

Imported only after the timed loop: the reference pulls in NumPy and
mpmath, and on cli-cold the measuring process must stay small, because a
child's peak-RSS reading starts from the size of the process that forked it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import reference as ref

SPEC = json.loads((Path(__file__).resolve().parent / "metrics.json").read_text(encoding="utf-8"))
TOL = SPEC["pass_tolerance"]
N_MAX = SPEC["n_max"]


def _strict_json(text: str):
    def reject(token: str):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=reject)


# A value with no correct digit: |a-b|/max(1,|a|,|b|) reaches 1 when a digit
# is wrong in the leading place and up to 2 on a sign flip, which of the two
# depends on the round-off, so errors are capped here.
WORST = 1.0


def _err(printed, expected: float) -> float:
    """Relative error of one printed value, capped at WORST; missing or non-finite is WORST."""
    if printed is None:
        return 0.0 if math.isinf(expected) else WORST
    if not isinstance(printed, (int, float)) or isinstance(printed, bool):
        return WORST
    return min(WORST, ref.rel_err(float(printed), expected))


def _records(doc: dict, op, kind: str, s_values) -> list[dict]:
    recs = doc["records"]
    for rec, s in zip(recs, s_values):
        if (rec["p"], rec["q"], rec["lambda"], rec["kind"], rec["s"]) != (op.p, op.q, op.lam, kind, s):
            raise ValueError(f"record fields {rec} do not match the request")
    return recs


def check_coeffs(doc: dict, op) -> list[float]:
    expected = ref.chambers_coefficients(op.p, op.q, op.lam)
    if (doc["p"], doc["q"], len(doc["a"])) != (op.p, op.q, len(expected)):
        raise ValueError("coefficient table has the wrong flux or length")
    return [_err(a, b) for a, b in zip(doc["a"], expected)]


def check_trace_n(doc: dict, op) -> list[float]:
    n = op.extra["n"]
    if doc["n"] != n or doc["trace"] != doc["value"] or doc["kind"] != "full":
        raise ValueError("trace document does not match the request")
    return [_err(doc["trace"], ref.full_traces(op.p, op.q, op.lam, n)[n])]


def check_trace_table(doc: dict, op) -> list[float]:
    table = ref.full_traces(op.p, op.q, op.lam, N_MAX)
    recs = _records(doc, op, "full", [None] * len(table))
    if [r["n"] for r in recs] != list(range(N_MAX + 1)):
        raise ValueError("trace table does not cover n = 0..64")
    return [_err(r["value"], table[r["n"]]) for r in recs]


def check_point_trace(doc: dict, op) -> list[float]:
    n, ss = op.extra["n"], op.extra["s"]
    recs = _records(doc, op, "pm-s", ss)
    if len(recs) != len(ss) or any(r["n"] != n for r in recs):
        raise ValueError("point-trace records do not match the request")
    return [_err(r["value"], ref.point_traces(op.p, op.q, op.lam, s, n)[n])
            for r, s in zip(recs, ss)]


def check_series(doc: dict, op) -> list[float]:
    kind, s, n_max = op.extra["kind"], op.extra["s"], op.extra["n_max"]
    if kind == "full":
        table = ref.full_traces(op.p, op.q, op.lam, n_max)
    else:
        table = ref.point_traces(op.p, op.q, op.lam, 0.0 if s is None else s, n_max)
    recs = _records(doc, op, kind, [s] * len(table))
    if [r["n"] for r in recs] != list(range(n_max + 1)):
        raise ValueError("series does not cover n = 0..n_max")
    return [_err(r["value"], table[r["n"]]) for r in recs]


def check_dos(doc: dict, op) -> list[float]:
    lt = ref.lambda_tilde(op.lam, op.q)
    edge = 2.0 * (1.0 + lt)
    grid = op.extra["grid"]
    errs = [_err(doc["lambda_tilde"], lt), _err(doc["support_half_width"], edge)]
    if len(doc["samples"]) != grid or len(doc["moments"]) != 6:
        raise ValueError("dos document has the wrong number of entries")
    for i, sample in enumerate(doc["samples"]):
        s = -edge + 2.0 * edge * i / (grid - 1)
        errs += [_err(sample["s"], s), _err(sample["density"], ref.density(s, lt))]
    for k, moment in enumerate(doc["moments"]):
        if moment["k"] != k:
            raise ValueError("moments out of order")
        errs.append(_err(moment["value"], ref.density_moment(k, lt)))
    return errs


def check_verify(doc: dict, op, code) -> tuple[list[float], int]:
    """(verify's own trace-vs-oracle deviations, number of failed checks); verdicts must agree."""
    checks = {c["check"]: c for c in doc["checks"]}
    expected = set(SPEC["verify_checks"])
    if op.q < 2:
        expected.discard("a2-identity")
    if not (op.lam == 2.0 and op.q <= 6):
        expected.discard("trace-sum-rule")
    if set(checks) != expected or len(checks) != len(doc["checks"]):
        raise ValueError(f"verify reported checks {sorted(checks)}")
    for c in checks.values():
        if c["status"] != ("pass" if c["max_deviation"] <= c["tolerance"] else "fail"):
            raise ValueError(f"check {c['check']} status contradicts its deviation")
    failed_checks = sum(1 for c in checks.values() if c["status"] == "fail")
    if doc["status"] != ("fail" if failed_checks else "pass") or code != (2 if failed_checks else 0):
        raise ValueError("verify status or exit code contradicts its checks")
    errs = [min(WORST, c["max_deviation"])
            for name, c in checks.items() if name in ("trace-vs-bz", "trace-vs-walk")]
    return errs, failed_checks


CHECKERS = {
    "coeffs": check_coeffs,
    "trace-n": check_trace_n,
    "trace-table": check_trace_table,
    "point-trace": check_point_trace,
    "series": check_series,
    "dos": check_dos,
}


def classify(result) -> tuple[bool, list[float], float, str]:
    """(failed, relative errors, bad share, reason) for one operation.

    The bad share is the fraction of the operation's printed values beyond
    the pass tolerance; on verify it is the fraction of checks reporting
    ``fail``.  A crash or malformed output prints no usable value, so its
    share is 1.
    """
    op = result.op
    allowed = (0, 2) if op.kind == "verify" else (0,)
    if result.code not in allowed:
        return True, [], 1.0, f"exit {result.code}"
    try:
        doc = _strict_json(result.stdout)
        if op.kind == "verify":
            errs, failed_checks = check_verify(doc, op, result.code)
            share = failed_checks / len(doc["checks"])
            return bool(failed_checks), errs, share, "verify check failed" if failed_checks else ""
        errs = CHECKERS[op.kind](doc, op)
    except (ValueError, KeyError, TypeError, IndexError):
        return True, [], 1.0, "malformed output"
    bad = sum(1 for e in errs if e > TOL)
    share = bad / len(errs) if errs else 0.0
    return bool(bad), errs, share, "value beyond tolerance" if bad else ""


def self_check() -> tuple[bool, float]:
    """The reference against hoftrace's walk and BZ oracles on even n <= 64."""
    from hoftrace import make_flux, oracle

    worst = 0.0
    for p, q, lam in SPEC["self_check_cases"]:
        table = ref.full_traces(p, q, lam, N_MAX)
        walks = oracle.walk_trace_table(make_flux(p, q), lam, N_MAX)
        worst = max(worst, *(ref.rel_err(table[n], walks[n]) for n in range(0, N_MAX + 1, 2)))
        bz = oracle.bz_trace(make_flux(p, q), lam, N_MAX, N_MAX + 1)
        worst = max(worst, ref.rel_err(table[N_MAX], bz))
    return worst <= SPEC["self_check_tolerance"], worst
