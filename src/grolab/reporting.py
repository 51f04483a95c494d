"""Machine-readable check results and their byte-deterministic JSON encoding."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    """One named verification: expected vs actual within tolerance."""

    name: str
    expected: float | None
    actual: float | None
    tolerance: float | None
    passed: bool


@dataclass(frozen=True)
class VerificationOutcome:
    checks: tuple[Check, ...]
    overall: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "overall", all(c.passed for c in self.checks))


def spell(x: float) -> str:
    """Shortest round-trip digits, spelled 7 and 1e-9 rather than 7.0 and 1e-09."""
    s = repr(float(x)).replace("e-0", "e-")
    return s[:-2] if s.endswith(".0") else s


def approx_check(name: str, expected: float, actual: float,
                 tolerance: float) -> Check:
    return Check(name=name, expected=expected, actual=actual,
                 tolerance=tolerance, passed=abs(actual - expected) <= tolerance)


def bound_check(name: str, bound: float, actual: float,
                direction: str = ">=") -> Check:
    if direction not in (">=", "<="):
        raise ValueError(f"unknown direction {direction!r}")
    ok = actual >= bound if direction == ">=" else actual <= bound
    return Check(name=f"{name} {direction} {spell(bound)}", expected=bound,
                 actual=actual, tolerance=None, passed=ok)


def flag_check(name: str, passed: bool) -> Check:
    return Check(name=name, expected=None, actual=None, tolerance=None,
                 passed=passed)


def _json_scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"cannot serialize non-finite float {x}")
        return format(x, ".17g")
    if isinstance(x, str):
        return '"' + x.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"unsupported JSON scalar {type(x)}")


def to_json(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 significant
    digits (exact double round-trip), LF-free single line."""
    if isinstance(obj, dict):
        items = ",".join(f"{_json_scalar(str(k))}:{to_json(v)}"
                         for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(to_json(v) for v in obj) + "]"
    return _json_scalar(obj)


def outcome_to_dict(outcome: VerificationOutcome) -> dict:
    return {
        "checks": [
            {
                "name": c.name,
                "expected": c.expected,
                "actual": c.actual,
                "tolerance": c.tolerance,
                "passed": c.passed,
            }
            for c in outcome.checks
        ],
        "overall": outcome.overall,
    }


def emit_report(outcome: VerificationOutcome, path: str) -> None:
    """Write the outcome as JSON; identical inputs give identical bytes."""
    text = to_json(outcome_to_dict(outcome)) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
