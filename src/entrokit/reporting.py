"""Audit report containers, written out as dicts.

An AuditEntry is a plain record (a NamedTuple), one per checked case.  An
AuditReport is a frozen dataclass holding a suite's entries and summary;
to_dict and summary_dict give what the CLI prints.
Margins follow one convention everywhere: a check passes iff
margin >= -tolerance.  Inequality checks record the raw slack
(rhs - lhs), equality checks record the negated absolute deviation,
so worst_margin is the minimum over cases, or NaN if any margin is NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


class AuditEntry(NamedTuple):
    """One checked case; a plain record, as cheap to build as a tuple."""

    case: str
    margin: float
    tolerance: float
    passed: bool
    functional: str = ""
    dim: int = 0

    @classmethod
    def check(
        cls,
        case: str,
        margin: float,
        tolerance: float,
        functional: str = "",
        dim: int = 0,
    ) -> "AuditEntry":
        return cls(case, float(margin), float(tolerance), bool(margin >= -tolerance), functional, int(dim))

    def to_dict(self) -> dict:
        return self._asdict()


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one audit suite run; deterministic for a given seed."""

    suite: str
    trials: int
    violations: int
    worst_margin: float
    seed: int
    tolerance: float
    cases: tuple = ()

    # vars() lists the fields in declaration order, so "cases" stays last.
    def summary_dict(self) -> dict:
        return {**vars(self), "cases": len(self.cases)}

    def to_dict(self) -> dict:
        return {**vars(self), "cases": [c.to_dict() for c in self.cases]}


def build_report(suite: str, trials: int, seed: int, tolerance: float, entries) -> AuditReport:
    entries = tuple(entries)
    violations = sum(1 for e in entries if not e.passed)
    margins = [e.margin for e in entries]
    # min() would keep a leading NaN but skip a later one.
    worst = math.nan if any(map(math.isnan, margins)) else min(margins, default=0.0)
    return AuditReport(
        suite=suite,
        trials=int(trials),
        violations=int(violations),
        worst_margin=float(worst),
        seed=int(seed),
        tolerance=float(tolerance),
        cases=entries,
    )
