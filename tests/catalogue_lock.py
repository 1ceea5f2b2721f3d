"""The catalogue lock, ``expected_catalogue.json``: what the identity catalogue
computes on its grids.  ``python ci/record.py`` writes it with the functions
below, and the tests that read it compare with the same functions.

It holds, for each case id in catalogue order, on ``DEFAULT_GRID``:

- ``points``: the number of points;
- ``values``: one sha256 over repr((variant label, sorted params, lhs, rhs))
  of each evaluation that ``engine._evaluations`` yields, the one loop that
  ``run_case`` runs too; the label is None for a plain case and each
  variant's label for a probe.  A registry refactor that keeps every value
  and its type keeps every digest;
- ``report``: the sha256 of ``json.dumps(Report.fingerprint(), sort_keys=True)``,
  as ``SuiteResult.fingerprint()`` gives it;
- ``finding``, for a probe: the variants that held and failed.

Then the run's ``totals``, as ``SuiteResult.totals()`` gives them, and
``suite_sha256``, and for each grid of ``GRIDS``, one sha256 over (id, sorted
params) of every point of every case, in catalogue order, with the number of
points.
"""

import hashlib
import json
from pathlib import Path

from polycauchy.identities import DEFAULT_GRID, Grid, catalog
from polycauchy.identities.engine import _evaluations

LOCK = Path(__file__).resolve().parent / "expected_catalogue.json"

SMALL = Grid(max_n=5, max_n_double=3, max_k=2, max_r=2, max_a=2, max_n_multi=2)
# odd max_n and max_n_double, and max_k, max_a, max_r and max_n_multi below the
# caps that some axes put on them (k <= 3, a <= 2, |r| <= 3, n <= 3)
CAPPED = Grid(max_n=7, max_n_double=5, max_k=2, max_r=1, max_a=1, max_n_multi=2)
GRIDS = {"CAPPED": CAPPED, "SMALL": SMALL}


def read() -> dict:
    return json.loads(LOCK.read_text())


def values_digest(case, grid=DEFAULT_GRID) -> str:
    digest = hashlib.sha256()
    for label, params, lhs, rhs in _evaluations(case, case.points(grid)):
        digest.update(repr((label, sorted(params.items()), lhs, rhs)).encode() + b"\n")
    return digest.hexdigest()


def points_digest(grid) -> dict:
    digest, points = hashlib.sha256(), 0
    for case in catalog():
        for params in case.points(grid):
            points += 1
            digest.update(repr((case.id, sorted(params.items()))).encode() + b"\n")
    return {"points": points, "sha256": digest.hexdigest()}


def record(result) -> dict:
    """The lock's content, from ``run_all(DEFAULT_GRID)``'s result."""
    fingerprint = result.fingerprint()
    cases = {}
    for case, report in zip(catalog(), result.reports):
        cases[case.id] = {"points": report.points, "values": values_digest(case),
                          "report": fingerprint["cases"][case.id]}
        if report.probe:
            cases[case.id]["finding"] = report.finding
    return {"totals": result.totals(), "suite_sha256": fingerprint["suite_sha256"],
            "cases": cases, "grids": {name: points_digest(grid) for name, grid in GRIDS.items()}}
