"""Witness reports: the uniform output of every verification run.

A report names the claim it checked, the parameters, and the exact values on
both sides of the inequality (rendered as `m*2^e` strings), so a failed run is
reproducible from the report alone.  The claim outcomes that are not reports
live here too: a query outside its interval, a violated inequality, and an
exhausted budget.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

class OutOfInterval(ValueError):
    pass


class Violation(AssertionError):
    """An exact inequality the construction guarantees failed to hold."""


class BudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class WitnessReport:
    claim: str
    params: dict[str, Any] = field(default_factory=dict)
    lhs: str = ""
    rhs: str = ""
    passed: bool = True

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "claim": self.claim,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
        }


def write_reports(path: str, reports: Iterable[WitnessReport]) -> None:
    """Write reports in the order given (sorted by claim key by the caller)."""
    text = json.dumps([r.to_json_dict() for r in reports], sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text + "\n")
