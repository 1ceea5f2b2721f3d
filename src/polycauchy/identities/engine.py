"""Deterministic grid runner for the registered identity cases.

Each case binds a parameter-space generator to a check returning
(lhs, rhs); values compare by canonical equality (Fraction, Poly, or
tuples thereof).  Probe cases evaluate several competing variants of a
statement and report which ones survive the whole grid instead of
failing the suite; they exist for statements whose printed form is
suspected to carry a typo.

Reports are deterministic for a fixed grid except for the elapsed-time
field.  Cases are independent and side-effect free, so any subset may
run in any order; the runner is sequential and emits catalog order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from time import perf_counter
from typing import Callable, Iterable

__all__ = ["Grid", "DEFAULT_GRID", "IdentityCase", "Report", "SuiteResult"]

_SEVEN_POINT = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(2, 3),
    Fraction(-3, 2),
)


@dataclass(frozen=True)
class Grid:
    """Default parameter budgets for the identity suite.

    ``max_n`` bounds single-sum indices, ``max_n_double`` double sums,
    ``max_n_multi`` the multiparameter family (whose oracle expands a
    product integral per point, so it gets the tightest budget).
    """

    max_n: int = 12
    max_n_double: int = 8
    max_k: int = 4
    max_r: int = 4
    max_a: int = 3
    max_n_multi: int = 4
    qs: tuple = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3))
    xs: tuple = _SEVEN_POINT
    ls: tuple = (
        (Fraction(1),),
        (Fraction(1, 2), Fraction(2)),
        (Fraction(1), Fraction(1), Fraction(1, 2)),
    )
    ys_multi: tuple = (Fraction(0), Fraction(1, 2), Fraction(-3, 2))

    def __post_init__(self):
        # every int field is a bound and every tuple a list of points; a bound
        # below its first index or an empty list empties the grid of every
        # case that reads it, and those cases would pass vacuously
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, int):
                low = 1 if f.name in ("max_k", "max_a") else 0
                if value < low:
                    raise ValueError(f"grid bound {f.name} must be >= {low}, got {value}")
            elif not value:
                raise ValueError(f"grid list {f.name} must not be empty")

    def with_overrides(self, **kwargs) -> "Grid":
        return replace(self, **kwargs)


DEFAULT_GRID = Grid()


def _render(value) -> str:
    if isinstance(value, tuple):
        return "(" + ", ".join(_render(v) for v in value) + ")"
    return str(value)


def _params_str(params: dict) -> str:
    return ", ".join(f"{k}={_render(v)}" for k, v in params.items())


@dataclass(frozen=True)
class IdentityCase:
    """One registered identity (or probe) over a parameter space."""

    id: str
    group: str
    description: str
    points: Callable[[Grid], Iterable[dict]]
    check: Callable | None = None
    variants: dict | None = None  # probe cases only

    @property
    def probe(self) -> bool:
        return self.variants is not None


@dataclass
class Report:
    case_id: str
    group: str
    points: int
    failures: list = field(default_factory=list)
    millis: int = 0
    finding: str | None = None
    probe: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        out = {
            "id": self.case_id,
            "group": self.group,
            "points": self.points,
            "failures": self.failures,
            "millis": self.millis,
        }
        if self.probe:
            out["probe"] = True
            out["finding"] = self.finding
        return out

    def fingerprint(self) -> dict:
        """Everything except the elapsed time; used for determinism checks."""
        out = self.to_dict()
        out.pop("millis")
        return out


def run_case(case: IdentityCase, grid: Grid) -> Report:
    start = perf_counter()
    points = 0
    failures: list = []
    finding = None
    if case.probe:
        stats = {label: 0 for label in case.variants}
        for params in case.points(grid):
            points += 1
            for label, fn in case.variants.items():
                lhs, rhs = fn(**params)
                if not lhs == rhs:
                    stats[label] += 1
        holds = [label for label, bad in stats.items() if bad == 0]
        fails = [f"{label} ({bad}/{points} points fail)" for label, bad in stats.items() if bad]
        finding = "holds: " + (", ".join(holds) if holds else "none")
        if fails:
            finding += "; fails: " + ", ".join(fails)
    else:
        for params in case.points(grid):
            points += 1
            lhs, rhs = case.check(**params)
            if not lhs == rhs:
                failures.append(
                    {"params": _params_str(params), "lhs": _render(lhs), "rhs": _render(rhs)}
                )
    millis = int((perf_counter() - start) * 1000)
    return Report(case.id, case.group, points, failures, millis, finding, case.probe)


@dataclass
class SuiteResult:
    reports: list
    grid: Grid

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)

    @property
    def failures(self) -> int:
        return sum(len(r.failures) for r in self.reports)

    def group_summary(self) -> list[dict]:
        groups: dict[str, dict] = {}
        for r in self.reports:
            g = groups.setdefault(
                r.group, {"group": r.group, "cases": 0, "points": 0, "failures": 0, "probes": 0}
            )
            g["cases"] += 1
            g["points"] += r.points
            g["failures"] += len(r.failures)
            if r.probe:
                g["probes"] += 1
        return [groups[k] for k in sorted(groups, key=lambda s: int(s[1:]))]

    def findings(self) -> list[dict]:
        return [
            {"id": r.case_id, "finding": r.finding} for r in self.reports if r.probe
        ]

    def to_dict(self) -> dict:
        return {
            "reports": [r.to_dict() for r in self.reports],
            "summary": {
                "cases": len(self.reports),
                "points": sum(r.points for r in self.reports),
                "failures": self.failures,
                "groups": self.group_summary(),
                "findings": self.findings(),
                "ok": self.ok,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)
