"""Every catalogued check gives the same exact values as when recorded.

``expected_check_values.json`` holds one sha256 per case id, in catalogue
order, over repr((variant label, sorted params, lhs, rhs)) at every
``DEFAULT_GRID`` point; the label is None for a plain case and each
variant's label for a probe.  A registry refactor that keeps every value
and its type keeps every digest.
"""

import hashlib
import json
import sys
from pathlib import Path

from polycauchy.identities import DEFAULT_GRID, catalog

EXPECTED = Path(__file__).resolve().parent / "expected_check_values.json"


def _case_digest(case, grid=DEFAULT_GRID) -> str:
    checks = case.variants.items() if case.probe else ((None, case.check),)
    digest = hashlib.sha256()
    for params in case.points(grid):
        for label, fn in checks:
            lhs, rhs = fn(**params)
            row = repr((label, sorted(params.items()), lhs, rhs))
            digest.update(row.encode() + b"\n")
    return digest.hexdigest()


def check_values() -> dict:
    return {case.id: _case_digest(case) for case in catalog()}


def test_check_values_match_recorded():
    """After a deliberate change to what a check computes, regenerate the
    file from the repository root with

        PYTHONPATH=src python tests/test_check_values.py --write
    """
    expected = json.loads(EXPECTED.read_text())
    actual = check_values()
    assert list(actual) == list(expected), "case ids or their order changed"
    changed = [case_id for case_id in expected if actual[case_id] != expected[case_id]]
    assert not changed, f"check values changed for {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_check_values.py --write")
    EXPECTED.write_text(json.dumps(check_values(), indent=1) + "\n")
