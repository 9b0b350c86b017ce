"""Fail-closed outcome checker.

The benchmark judges every operation itself rather than trusting the
library's pass flag.  An operation fails when any of these holds:

* its result has no ``pass`` key, or the flag is not ``True``;
* a residual or margin anywhere in the result is non-finite;
* one of the operation's own rules (a tolerance, the scan dichotomy,
  the critical tail band) is broken.

A rule is a callable taking the result dict and returning ``None`` when
the result satisfies it, or a one-line reason when it does not.
"""

from __future__ import annotations

import math


def _numeric_leaves(obj, path=""):
    """Yield (path, key, value) for every int or float inside obj."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _numeric_leaves(value, f"{path}.{key}" if path else str(key))
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _numeric_leaves(value, f"{path}[{i}]")
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path, path.rsplit(".", 1)[-1], float(obj)


def non_finite(result) -> list:
    """Paths of residuals and margins in result that are not finite."""
    return [
        path
        for path, key, value in _numeric_leaves(result)
        if ("residual" in key or "margin" in key) and not math.isfinite(value)
    ]


def judge(result, rules=(), needs_pass: bool = True) -> list:
    """Reasons the operation failed; an empty list means it passed.

    ``needs_pass`` is False only for a scan cell, whose pass flag lives
    on the table that holds it (the table's flag is checked by a rule).
    """
    if not isinstance(result, dict):
        return [f"result is a {type(result).__name__}, not a dict"]
    reasons = []
    if needs_pass:
        if "pass" not in result:
            reasons.append("no pass key")
        elif result["pass"] is not True:
            reasons.append(f"pass flag is {result['pass']!r}")
    reasons.extend(f"non-finite {path}" for path in non_finite(result))
    for rule in rules:
        reason = rule(result)
        if reason:
            reasons.append(reason)
    return reasons


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------


def at_most(key: str, limit: float):
    def rule(result):
        value = result.get(key)
        if not isinstance(value, (int, float)) or not value <= limit:
            return f"{key}={value!r} exceeds {limit:g}"
        return None

    return rule


def at_least(key: str, limit: float):
    def rule(result):
        value = result.get(key)
        if not isinstance(value, (int, float)) or not value >= limit:
            return f"{key}={value!r} below {limit:g}"
        return None

    return rule


def is_true(key: str):
    def rule(result):
        if result.get(key) is not True:
            return f"{key} is {result.get(key)!r}"
        return None

    return rule


def critical_exponent(n: int, p: float) -> float:
    """p_s = ((n+1)p - n)/(n-p), computed here independently of the library."""
    return ((n + 1) * p - n) / (n - p)


def scan_cell(n: int, p: float, table_has_pass: bool, tail_band: float = 0.05):
    """A dichotomy-scan cell: crossed iff alpha < p_s; at alpha = p_s the
    run stays positive with tail exponent -(n-p)/(p-1) within tail_band."""
    ps = critical_exponent(n, p)
    bubble_tail = -(n - p) / (p - 1.0)

    def rule(cell):
        if not table_has_pass:
            return "scan table has no pass key"
        alpha, outcome = cell.get("alpha"), cell.get("outcome")
        if not isinstance(alpha, (int, float)) or not math.isfinite(alpha):
            return f"alpha={alpha!r}"
        for key in ("r_cross", "tail_exponent"):
            value = cell.get(key)
            if isinstance(value, (int, float)) and not math.isfinite(value):
                return f"non-finite {key}"
        subcritical = alpha < ps * (1.0 - 1e-12)
        if subcritical != (outcome == "crossed_zero"):
            return f"outcome {outcome} at alpha={alpha:.6g} against p_s={ps:.6g}"
        if abs(alpha - ps) <= 1e-12 * ps:
            tail = cell.get("tail_exponent")
            if not isinstance(tail, (int, float)) or not abs(tail - bubble_tail) <= tail_band:
                return f"tail exponent {tail!r} outside {bubble_tail:.4g} +- {tail_band:g}"
        return None

    return rule


# ----------------------------------------------------------------------
# self-test
# ----------------------------------------------------------------------


def self_test() -> None:
    """Check that the checker fails each defect it is meant to catch.

    Raises RuntimeError naming the first defect that slipped through.
    """
    clean = {"max_rel_residual": 1e-9, "tol": 1e-7, "pass": True}
    cases = {
        "clean identity": (clean, (at_most("max_rel_residual", 1e-7),), True, False),
        "NaN residual": (
            {"max_rel_residual": math.nan, "tol": 1e-7, "pass": True},
            (), True, True,
        ),
        "nested infinite margin": (
            {"pass": True, "rows": [{"margin": -math.inf}]}, (), True, True,
        ),
        "result without pass": ({"max_rel_residual": 0.0}, (), True, True),
        "pass flag false": ({"max_rel_residual": 0.0, "pass": False}, (), True, True),
        "residual over tolerance": (
            {"max_rel_residual": 2e-7, "pass": True},
            (at_most("max_rel_residual", 1e-7),), True, True,
        ),
        "clean subcritical cell": (
            {"alpha": 4.0, "outcome": "crossed_zero", "r_cross": 3.1},
            (scan_cell(3, 2.0, True),), False, False,
        ),
        "mislabelled scan cell": (
            {"alpha": 4.9, "outcome": "stayed_positive", "tail_exponent": -1.0},
            (scan_cell(3, 2.0, True),), False, True,
        ),
        "scan table without pass": (
            {"alpha": 4.0, "outcome": "crossed_zero", "r_cross": 3.1},
            (scan_cell(3, 2.0, False),), False, True,
        ),
        "clean critical cell": (
            {"alpha": 5.0, "outcome": "stayed_positive", "tail_exponent": -1.02},
            (scan_cell(3, 2.0, True),), False, False,
        ),
        "off-band tail": (
            {"alpha": 5.0, "outcome": "stayed_positive", "tail_exponent": -1.2},
            (scan_cell(3, 2.0, True),), False, True,
        ),
        "missing tail": (
            {"alpha": 5.0, "outcome": "stayed_positive", "tail_exponent": None},
            (scan_cell(3, 2.0, True),), False, True,
        ),
    }
    for name, (result, rules, needs_pass, should_fail) in cases.items():
        failed = bool(judge(result, rules, needs_pass))
        if failed != should_fail:
            verdict = "passed" if should_fail else "failed"
            raise RuntimeError(f"checker self-test: {name} {verdict}")
