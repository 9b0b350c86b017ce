"""Report records and deterministic JSON serialization.

Reports serialize with sorted keys and Python's shortest-roundtrip float
repr, so identical (config, seed, tool version) runs produce
byte-identical files.  Wall time is tracked on the in-memory run report
but excluded from the canonical serialization for exactly that reason.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

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
    version: str = TOOL_VERSION
    schema_version: int = SCHEMA_VERSION
    wall_time_s: Optional[float] = None

    @property
    def passed(self) -> bool:
        return all(_result_pass(r) for r in self.results)

    def to_dict(self, include_wall_time: bool = False) -> dict:
        out = {
            "schema_version": self.schema_version,
            "version": self.version,
            "config": self.config,
            "results": [_result_dict(r) for r in self.results],
            "pass": self.passed,
        }
        if include_wall_time and self.wall_time_s is not None:
            out["wall_time_s"] = self.wall_time_s
        return out

    def to_json(self, include_wall_time: bool = False) -> str:
        return json.dumps(
            self.to_dict(include_wall_time),
            sort_keys=True,
            indent=2,
            default=_json_default,
        ) + "\n"


def _result_dict(r):
    if hasattr(r, "to_dict"):
        return r.to_dict()
    if isinstance(r, dict):
        return r
    return asdict(r)


def _result_pass(r):
    """A result passes only if it says so: a missing pass flag fails."""
    if hasattr(r, "passed"):
        return bool(r.passed)
    if isinstance(r, dict):
        return bool(r.get("pass", False))
    return False
