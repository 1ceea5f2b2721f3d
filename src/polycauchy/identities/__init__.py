"""Registry of executable identity checks over exact rationals.

``catalog()`` lists every registered case (groups G01..G22) in a fixed,
deterministic order; ``verify`` runs one case over a grid; ``run_all``
runs the whole suite and aggregates a summary.  Either refuses, with a
``ValueError`` naming the case, a grid on which a case has no point.
"""

from __future__ import annotations

from functools import lru_cache

from . import engine, registry
from .engine import *
from .engine import run_case

__all__ = [*engine.__all__, "catalog", "get_case", "verify", "run_all", "GROUPS"]

GROUPS = tuple(f"G{i:02d}" for i in range(1, 23))


@lru_cache(maxsize=1)
def catalog() -> tuple[IdentityCase, ...]:
    """All registered cases, deterministically ordered by group then id."""
    return tuple(registry.build())


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
    cases = [(case, case.points(grid)) for case in catalog()]
    return SuiteResult([engine._run(case, points) for case, points in cases], grid)
