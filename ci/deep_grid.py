"""Run the identity catalogue on the deep grid and check it against its record.

    python ci/deep_grid.py    # exit 1 on a failure, a digest change or a full memo

The grid is ``ci/deep-grid.cfg``, run in this process, so ``polycauchy`` must be
importable (installed, or ``PYTHONPATH=src``).  The record, ``ci/deep-grid.json``,
is the run's totals and ``SuiteResult.fingerprint()``; ``python ci/record.py``
writes it.  After the run, every package memo of a function with
arguments must be bounded and not full: the deep grid reaches further than the
default one, so a memo that fills here would evict while the catalogue runs.
Each memo's fill, ``name currsize/maxsize``, is printed, fullest first.
"""

import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import polycauchy
from polycauchy.identities import Grid, run_all

HERE = Path(__file__).resolve().parent
CONFIG = HERE / "deep-grid.cfg"
RECORD = HERE / "deep-grid.json"


def memo_fills() -> list:
    """(name, currsize, maxsize) of each package memo of a function with arguments,
    fullest first; an unbounded memo, of maxsize None, counts as full."""
    modules = [importlib.import_module(info.name)
               for info in pkgutil.walk_packages(polycauchy.__path__, "polycauchy.")]
    memos = {f for m in modules for f in vars(m).values()
             if hasattr(f, "cache_info") and inspect.signature(f).parameters}
    fills = sorted((f.__qualname__, f.cache_info().currsize, f.cache_info().maxsize) for f in memos)
    return sorted(fills, key=lambda m: float("inf") if m[2] is None else m[1] / m[2], reverse=True)


def run() -> dict:
    """The catalogue's run on the deep grid, as its record holds it."""
    result = run_all(Grid.from_text(CONFIG.read_text()))
    totals = {"cases": len(result.reports), "points": sum(r.points for r in result.reports),
              "failures": result.failures}
    return {"totals": totals, **result.fingerprint()}


def main() -> int:
    got = run()
    totals = got["totals"]
    want = json.loads(RECORD.read_text())
    problems = [f"{cid}: fingerprint differs from the record" for cid, d in sorted(got["cases"].items())
                if want["cases"].get(cid) != d]
    problems += [f"{cid}: recorded case did not run" for cid in sorted(set(want["cases"]) - set(got["cases"]))]
    if totals["failures"]:
        problems.append(f"{totals['failures']} failing points")
    if got["suite_sha256"] != want["suite_sha256"]:
        problems.append("suite digest differs from the record")
    fills = memo_fills()
    full = sorted(name for name, size, bound in fills if bound is None or size >= bound)
    if not fills:
        problems.append("no package memo found")
    problems += [f"{name}: memo unbounded or full after the run" for name in full]
    print(json.dumps(totals), got["suite_sha256"], f"{len(fills)} memos; full: {full}")
    for name, size, bound in fills:
        print(f"{name} {size}/{bound}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
