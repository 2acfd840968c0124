"""Witness reports: the uniform output of every verification run.

A report names the claim it checked, the parameters, and the exact values on
both sides of the inequality (rendered as `m*2^e` strings), so a failed run is
reproducible from the report alone.  The claim outcomes that are not reports
live here too: a query outside its interval, a violated inequality, and an
exhausted budget.
"""

from __future__ import annotations

import functools
import json
from typing import Any, Iterable, NamedTuple

class OutOfInterval(ValueError):
    pass


class Violation(AssertionError):
    """An exact inequality the construction guarantees failed to hold."""


class BudgetExceeded(RuntimeError):
    pass


class WitnessReport(NamedTuple):
    """An immutable record of one claim checked: a tuple of its five fields."""

    claim: str
    params: dict[str, Any]
    lhs: str = ""
    rhs: str = ""
    passed: bool = True


_dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _encoded(value) -> str:
    """A value as `_dumps` writes it, a str or bool without calling it."""
    if type(value) is str:
        return json.encoder.encode_basestring_ascii(value)
    return "true" if value is True else "false" if value is False else _dumps(value)


def write_reports(path: str, reports: Iterable[WitnessReport]) -> None:
    """Write reports in the order given (sorted by claim key by the caller),
    byte for byte as one `_dumps` of their objects.  When reports share a
    params dict, or a list or dict in one, each params dict and non-str
    value is encoded once, by identity (the memo holds it: no id reuse)."""
    reports = list(reports)
    ps = [r.params for r in reports]
    inner = [id(v) for p in ps if type(p) is dict for v in p.values() if type(v) in (list, dict)]
    if len(set(map(id, ps))) == len(ps) and len(set(inner)) == len(inner):
        text = _dumps([{"claim": r.claim, "params": r.params, "lhs": r.lhs, "rhs": r.rhs, "pass": r.passed} for r in reports])
    else:
        memo: dict[int, tuple[Any, str]] = {}

        def once(value, encode=_encoded) -> str:
            if id(value) not in memo:
                memo[id(value)] = value, encode(value)
            return memo[id(value)][1]

        def params(p) -> str:  # a non-str key falls back to `_dumps`
            if type(p) is not dict or any(type(k) is not str for k in p):
                return _dumps(p)
            return "{" + ",".join(f"{_encoded(k)}:{_encoded(v) if type(v) is str else once(v)}" for k, v in sorted(p.items())) + "}"

        text = "[" + ",".join(
            f'{{"claim":{_encoded(r.claim)},"lhs":{_encoded(r.lhs)},"params":{once(r.params, params)},'
            f'"pass":{_encoded(r.passed)},"rhs":{_encoded(r.rhs)}}}' for r in reports
        ) + "]"
    data = (text + "\n").encode("ascii")  # a binary write: text mode would import a codec first
    with open(path, "wb") as fh:
        fh.write(data)
