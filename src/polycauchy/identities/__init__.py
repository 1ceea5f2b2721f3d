"""Registry of executable identity checks over exact rationals.

``catalog()`` lists every registered case (groups G01..G22) in a fixed,
deterministic order; ``verify`` runs one case over a grid; ``run_all``
runs the whole suite and aggregates a summary.  Either refuses, with a
``ValueError`` naming the case, a grid on which a case has no point.
"""

from __future__ import annotations

from functools import lru_cache

from .engine import DEFAULT_GRID, Axis, Grid, IdentityCase, Report, SuiteResult, run_case
from . import registry

__all__ = [
    "Axis",
    "Grid",
    "DEFAULT_GRID",
    "IdentityCase",
    "Report",
    "SuiteResult",
    "catalog",
    "get_case",
    "verify",
    "run_all",
    "GROUPS",
]

GROUPS = tuple(f"G{i:02d}" for i in range(1, 23))


@lru_cache(maxsize=1)
def catalog() -> tuple[IdentityCase, ...]:
    """All registered cases, deterministically ordered by group then id."""
    cases = tuple(registry.build())
    ids = [c.id for c in cases]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise AssertionError(f"duplicate case ids: {dupes}")
    present = {c.group for c in cases}
    missing = [g for g in GROUPS if g not in present]
    if missing:
        raise AssertionError(f"identity groups without cases: {missing}")
    for case in cases:
        if case.group not in GROUPS:
            raise AssertionError(f"case {case.id} in unknown group {case.group}")
    return cases


def get_case(case_id: str) -> IdentityCase:
    for case in catalog():
        if case.id == case_id:
            return case
    raise KeyError(f"unknown identity case {case_id!r}")


def verify(case_id: str, grid: Grid = DEFAULT_GRID) -> Report:
    """Evaluate one case over the grid and report points and failures."""
    return run_case(get_case(case_id), grid)


def run_all(grid: Grid = DEFAULT_GRID) -> SuiteResult:
    """Run every registered case in catalog order, once each has a point."""
    for case in catalog():
        case.points(grid)
    return SuiteResult([run_case(c, grid) for c in catalog()], grid)
