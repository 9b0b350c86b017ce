"""Report records and deterministic JSON serialization.

Reports serialize with sorted keys and Python's shortest-roundtrip float
repr, so identical (config, seed, tool version) runs produce
byte-identical files.  Wall time is never part of a report for exactly
that reason; the CLI prints it to stderr.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")

TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class IdentityReport:
    """Residual statistics for one identity over one sampling campaign."""

    identity_id: str
    samples: int
    max_rel_residual: float
    max_abs_residual: float
    worst_case: dict
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_residual <= self.tol

    def to_dict(self) -> dict:
        return {
            "kind": "identity",
            "identity_id": self.identity_id,
            "samples": self.samples,
            "max_rel_residual": self.max_rel_residual,
            "max_abs_residual": self.max_abs_residual,
            "worst_case": self.worst_case,
            "tol": self.tol,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class InequalityReport:
    """Margin statistics (most negative normalized LHS-RHS observed)."""

    identity_id: str
    samples: int
    min_margin: float
    tol_neg: float
    worst_case: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.min_margin >= -self.tol_neg

    def to_dict(self) -> dict:
        return {
            "kind": "inequality",
            "identity_id": self.identity_id,
            "samples": self.samples,
            "min_margin": self.min_margin,
            "tol_neg": self.tol_neg,
            "worst_case": self.worst_case,
            "pass": self.passed,
        }


@dataclass
class RunReport:
    """One CLI run: config echo, member results, overall pass flag."""

    config: dict
    results: list

    @property
    def passed(self) -> bool:
        """Every result passes, and there is at least one."""
        return bool(self.results) and all(_result_pass(r) for r in self.results)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "version": TOOL_VERSION,
            "config": self.config,
            "results": [_result_dict(r) for r in self.results],
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(
            self.to_dict(), sort_keys=True, indent=2, default=_json_default,
        ) + "\n"


def _result_dict(r):
    return r.to_dict() if hasattr(r, "to_dict") else r


def _result_pass(r):
    """A result passes only if it says so: a missing pass flag fails."""
    if hasattr(r, "passed"):
        return bool(r.passed)
    if isinstance(r, dict):
        return bool(r.get("pass", False))
    return False
