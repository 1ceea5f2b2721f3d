"""Rewrite every lock of ``ci/locks.py`` from one run of this checkout.

    python ci/record.py

It runs, in this process and from ``src/``: the identity catalogue once on
``DEFAULT_GRID``, the deep grid of ``ci/deep_grid.py``, the depth table of
``ci/depth.py`` and the CLI request matrix.  If a case fails on either grid,
or a depth row's two values differ, it writes nothing and exits 1.  Otherwise
it rewrites each lock with the function that its check compares with, and
prints for each what ``locks.moved`` names, as that check would: the entries
added, removed, reordered or changed, by field.  ``bench/expected_verify.json``
is the benchmark's own record; nothing here writes it.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import deep_grid  # noqa: E402
import depth  # noqa: E402
import locks  # noqa: E402
from polycauchy.identities import DEFAULT_GRID, run_all  # noqa: E402


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
        cli = locks.cli_digests(Path(tmp))
    records = {
        locks.CATALOGUE: locks.record(result),
        locks.CLI: cli,
        locks.DEEP_GRID: deep,
        locks.DEPTH: depth_digests,
    }
    for path, new in records.items():
        old = locks.read(path) if path.exists() else {}
        print(f"{path.relative_to(locks.ROOT)}:", *(f"  {line}" for line in locks.moved(old, new) or ["unchanged"]),
              sep="\n")
    for path, new in records.items():
        path.write_text(json.dumps(new, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
