"""Rewrite every catalogue lock from one run of this checkout.

    python ci/record.py

It runs, in this process and from ``src/``: the identity catalogue once on
``DEFAULT_GRID``, the deep grid of ``ci/deep_grid.py``, the depth table of
``ci/depth.py`` and the CLI requests of ``tests/test_cli_bytes.py``.  If a case
fails on either grid, or a depth row's two values differ, it writes nothing and
exits 1.  Otherwise it rewrites

- ``tests/expected_catalogue.json``, the catalogue lock (``tests/catalogue_lock.py``);
- ``tests/expected_cli_digests.json``, the CLI's bytes per request;
- ``ci/deep-grid.json``, the deep grid's totals and fingerprints;
- ``ci/depth.json``, the digest of each value of the depth table;

each with the function that its check compares with, and prints what moved:
the case ids added or removed, those whose values, points or findings changed,
and the entries of each other lock added, removed or changed.
``bench/expected_verify.json`` is the benchmark's own record; nothing here
writes it.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import catalogue_lock  # noqa: E402
import deep_grid  # noqa: E402
import depth  # noqa: E402
import test_cli_bytes  # noqa: E402
from polycauchy.identities import DEFAULT_GRID, run_all  # noqa: E402


def _names(keys) -> str:
    return " ".join(keys) or "-"


def _moved(old: dict, new: dict) -> list:
    """What moved between two records of one lock, as lines to print: the
    entries (the cases of a record that has them) added, removed or changed."""
    if old == new:
        return ["  unchanged"]
    lines = []
    if old.get("totals") != new.get("totals"):
        lines.append(f"  totals: {old.get('totals')} -> {new['totals']}")
    before, after = old.get("cases", old), new.get("cases", new)
    kept = [k for k in after if k in before]
    lines += [f"  added: {_names(k for k in after if k not in before)}",
              f"  removed: {_names(k for k in before if k not in after)}"]
    if "grids" in new:  # the catalogue lock: each case's values, points and finding
        for field in ("values", "points", "finding"):
            lines.append(f"  {field} changed: {_names(k for k in kept if before[k].get(field) != after[k].get(field))}")
        grids = (name for name in new["grids"] if old.get("grids", {}).get(name) != new["grids"][name])
        lines.append(f"  cap-grid points changed: {_names(grids)}")
    else:
        lines.append(f"  changed: {_names(k for k in kept if before[k] != after[k])}")
    return lines


def main() -> int:
    result = run_all(DEFAULT_GRID)
    deep = deep_grid.run()
    depth_digests, unequal = depth.run()
    problems = [f"{r.case_id}: {len(r.failures)} failing points on DEFAULT_GRID" for r in result.reports if not r.ok]
    if deep["totals"]["failures"]:
        problems.append(f"deep grid: {deep['totals']['failures']} failing points")
    problems += [f"depth: {row}" for row in unequal]
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print("nothing written", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        cli = test_cli_bytes.cli_digests(Path(tmp))
    locks = {
        catalogue_lock.LOCK: catalogue_lock.record(result),
        test_cli_bytes.EXPECTED: cli,
        deep_grid.RECORD: deep,
        depth.RECORD: depth_digests,
    }
    for path, new in locks.items():
        old = json.loads(path.read_text()) if path.exists() else {}
        print(f"{path.relative_to(ROOT)}:", *_moved(old, new), sep="\n")
    for path, new in locks.items():
        path.write_text(json.dumps(new, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
