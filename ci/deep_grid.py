"""Run the identity catalogue on the deep grid and check it against its lock.

    python ci/deep_grid.py    # exit 1 on a failure, a moved lock entry or a full memo

The grid is ``ci/deep-grid.cfg``, run in this process, so ``polycauchy`` must be
importable (installed, or ``PYTHONPATH=src``).  The lock, ``ci/deep-grid.json``
(``locks.DEEP_GRID``), is the run's totals and ``SuiteResult.fingerprint()``;
``python ci/record.py`` writes it, and each of its entries that moved is
printed as ``locks.moved`` names it.  After the run, every package memo of a
function with arguments must be bounded and not full: the deep grid reaches
further than the default one, so a memo that fills here would evict while the
catalogue runs.  Each memo's fill, ``name currsize/maxsize``, is printed,
fullest first.
"""

import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import polycauchy
from polycauchy.identities import Grid, run_all

from locks import DEEP_GRID, moved, read

CONFIG = Path(__file__).resolve().parent / "deep-grid.cfg"


def package_memos() -> dict:
    """Every memo of a function with arguments in the polycauchy modules, by
    ``module.name``, found by ``cache_info`` as the benchmark tracer finds them;
    a memo is found in the module that defines it, not where it is imported."""
    memos = {}
    for info in pkgutil.walk_packages(polycauchy.__path__, "polycauchy."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (hasattr(obj, "cache_info") and obj.__module__ == module.__name__
                    and inspect.signature(obj).parameters):
                memos[f"{module.__name__}.{name}"] = obj
    return memos


def memo_fills() -> list:
    """(name, currsize, maxsize) of each of ``package_memos()``, fullest first;
    an unbounded memo, of maxsize None, counts as full."""
    fills = sorted((name, f.cache_info().currsize, f.cache_info().maxsize) for name, f in package_memos().items())
    return sorted(fills, key=lambda m: float("inf") if m[2] is None else m[1] / m[2], reverse=True)


def run() -> dict:
    """The catalogue's run on the deep grid, as its record holds it."""
    result = run_all(Grid.from_text(CONFIG.read_text()))
    return {"totals": result.totals(), **result.fingerprint()}


def main() -> int:
    got = run()
    totals = got["totals"]
    problems = [f"{DEEP_GRID.name}: {line}" for line in moved(read(DEEP_GRID), got)]
    if totals["failures"]:
        problems.append(f"{totals['failures']} failing points")
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
