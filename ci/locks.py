"""The four locks: the path of each, the functions that compute each record,
and ``moved``, the one comparison of two records.  ``python ci/record.py``
writes every lock with these functions and prints what moved; every check of a
lock fails when ``moved`` names anything, with the same lines.

``CATALOGUE`` is what the identity catalogue computes on its grids.  For each
case id in catalogue order, on ``DEFAULT_GRID``, it holds:

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

``CLI`` holds one sha256 per request of a fixed matrix run through
``cli.main``: over the exit code, stdout, stderr and the bytes of the
``--out`` file.  Elapsed times are masked first (the ``verify --id`` line's
``N ms)``, the full table's ``N.NNN ms`` and JSON ``"millis"``).  A refactor of
the CLI that keeps every byte keeps every digest.  ``DEEP_GRID`` and ``DEPTH``
are described in ``ci/deep_grid.py`` and ``ci/depth.py``.
"""

import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

from polycauchy import cli
from polycauchy.identities import DEFAULT_GRID, Grid, catalog
from polycauchy.identities.engine import Report, SuiteResult, _evaluations

ROOT = Path(__file__).resolve().parents[1]
CATALOGUE = ROOT / "tests" / "expected_catalogue.json"
CLI = ROOT / "tests" / "expected_cli_digests.json"
DEEP_GRID = ROOT / "ci" / "deep-grid.json"
DEPTH = ROOT / "ci" / "depth.json"


def read(path: Path) -> dict:
    return json.loads(path.read_text())


def _table(prefix: str, old: dict, new: dict) -> list:
    """What moved in one table of a record: its entries added, removed and
    reordered, and those changed, by the field that changed when the entries
    have fields."""
    kept = [key for key in old if key in new]
    moves = {"added": [key for key in new if key not in old],
             "removed": [key for key in old if key not in new],
             "reordered": [a for a, b in zip(kept, (key for key in new if key in old)) if a != b]}
    for key in kept:
        before, after = old[key], new[key]
        if isinstance(before, dict) and isinstance(after, dict):
            changed = [f"{field} changed" for field in {**before, **after} if before.get(field) != after.get(field)]
        else:
            changed = ["changed"] if before != after else []
        for what in changed:
            moves.setdefault(what, []).append(key)
    return [f"{prefix}{what}: {' '.join(keys)}" for what, keys in moves.items() if keys]


def moved(recorded: dict, computed: dict) -> list:
    """What moved from ``recorded`` to ``computed``, two records of one lock, as
    lines to print; none when they are equal.  Each field of a record that
    holds a table (``totals``, ``cases``, ``grids``) is compared entry by entry,
    and its other fields (``suite_sha256``, or every entry of a flat digest
    map) as one table of their own."""
    tables = [name for name in {**recorded, **computed}
              if isinstance(computed.get(name, recorded.get(name)), dict)]
    rest = ({key: value for key, value in record.items() if key not in tables} for record in (recorded, computed))
    lines = _table("", *rest)
    for name in tables:
        lines += _table(f"{name} ", recorded.get(name, {}), computed.get(name, {}))
    return lines


# the catalogue

SMALL = Grid(max_n=5, max_n_double=3, max_k=2, max_r=2, max_a=2, max_n_multi=2)
# odd max_n and max_n_double, and max_k, max_a, max_r and max_n_multi below the
# caps that some axes put on them (k <= 3, a <= 2, |r| <= 3, n <= 3)
CAPPED = Grid(max_n=7, max_n_double=5, max_k=2, max_r=1, max_a=1, max_n_multi=2)
GRIDS = {"CAPPED": CAPPED, "SMALL": SMALL}


def values_digest(case) -> str:
    digest = hashlib.sha256()
    for label, params, lhs, rhs in _evaluations(case, case.points(DEFAULT_GRID)):
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
    """The catalogue lock's record, from ``run_all(DEFAULT_GRID)``'s result."""
    fingerprint = result.fingerprint()
    cases = {}
    for case, report in zip(catalog(), result.reports):
        cases[case.id] = {"points": report.points, "values": values_digest(case),
                          "report": fingerprint["cases"][case.id]}
        if report.probe:
            cases[case.id]["finding"] = report.finding
    return {"totals": result.totals(), "suite_sha256": fingerprint["suite_sha256"],
            "cases": cases, "grids": {name: points_digest(grid) for name, grid in GRIDS.items()}}


# the CLI's bytes

# a grid on which the whole catalogue runs in well under a second
_SMALL_ARGV = ("--max-n", "3", "--max-n-double", "2", "--max-k", "1", "--max-r", "1",
               "--max-a", "1", "--max-n-multi", "1")

# the large tables: the triangles at 40 and 300 rows, hyperharmonic at 120
# and 300; each is checked by its own test in test_cli.py
TABLES = {
    f"table.{family}.n{max_n}": ("table", family, "--max-n", str(max_n))
    for family, sizes in (("stirling1", (40, 300)), ("stirling2", (40, 300)), ("central", (40, 300)),
                          ("lah", (40, 300)), ("hyperharmonic", (120, 300)))
    for max_n in sizes
}

# name -> argv; "{out}" stands for a file in a fresh temporary directory
REQUESTS = {
    "table.cauchy-numbers": ("table", "cauchy-numbers"),
    "table.cauchy-numbers.second.k2": ("table", "cauchy-numbers", "--kind", "second", "--k", "2",
                                       "--max-n", "12"),
    "table.cauchy-numbers.k2.n300": ("table", "cauchy-numbers", "--max-n", "300", "--k", "2"),
    "table.cauchy-numbers.k0": ("table", "cauchy-numbers", "--k", "0"),
    "table.bernoulli.n20.out": ("table", "bernoulli", "--n", "20", "--out", "{out}"),
    "table.bernoulli.n0": ("table", "bernoulli", "--max-n", "0"),
    "table.bernoulli.n-1": ("table", "bernoulli", "--max-n", "-1"),
    "table.hyperharmonic": ("table", "hyperharmonic", "--max-n", "6"),
    "table.stirling1": ("table", "stirling1", "--max-n", "8"),
    "table.lah.out": ("table", "lah", "--max-n", "12", "--out", "{out}"),
    **TABLES,
    **{f"export.{family}.{fmt}": ("export", "--family", family, "--format", fmt, "--out", "{out}",
                                  *extra)
       for family, extra in (("cauchy-poly", ("--kind", "second", "--n", "7", "--k", "2")),
                             ("hyperharmonic", ("--n", "5")),
                             ("cauchy-numbers", ("--k", "3", "--max-n", "9")),
                             ("bernoulli", ("--max-n", "14")))
       for fmt in ("json", "tsv")},
    "export.cauchy-poly.default": ("export", "--family", "cauchy-poly", "--format", "json",
                                   "--out", "{out}"),
    "export.bernoulli.n0": ("export", "--family", "bernoulli", "--format", "tsv", "--max-n", "0",
                            "--out", "{out}"),
    "export.bernoulli.n-1": ("export", "--family", "bernoulli", "--format", "tsv", "--max-n", "-1",
                             "--out", "{out}"),
    "export.cauchy-numbers.k0": ("export", "--family", "cauchy-numbers", "--format", "json",
                                 "--k", "0", "--out", "{out}"),
    "series.cauchy1": ("series", "cauchy1"),
    "series.cauchy2.o12": ("series", "cauchy2", "--order", "12"),
    "series.gen-bernoulli.a3.out": ("series", "gen-bernoulli", "--alpha", "3", "--order", "6",
                                    "--out", "{out}"),
    "series.hyperharmonic.o0": ("series", "hyperharmonic", "--order", "0"),
    "series.harmonic.o5": ("series", "harmonic", "--order", "5"),
    "series.cauchy1.o-1": ("series", "cauchy1", "--order", "-1"),
    "eval.cauchy": ("eval", "cauchy", "--kind", "second", "--n", "5", "--k", "2", "--x=-3/4"),
    "eval.euler-poly": ("eval", "euler-poly", "--n", "6", "--x", "1/3"),
    "verify.id.pass": ("verify", "--id", "G04.int1"),
    "verify.id.pass.json": ("verify", "--id", "G04.int1", "--json"),
    "verify.id.pass.out": ("verify", "--id", "G04.int1", "--out", "{out}"),
    "verify.id.probe": ("verify", "--id", "G06.k-recurrence-sign"),
    "verify.id.probe.json.out": ("verify", "--id", "G06.k-recurrence-sign", "--json",
                                 "--out", "{out}"),
    "verify.id.unknown": ("verify", "--id", "bogus"),
    "verify.id.unknown.json": ("verify", "--id", "bogus", "--json", "--out", "{out}"),
    "verify.all": ("verify", *_SMALL_ARGV),
    "verify.all.out": ("verify", *_SMALL_ARGV, "--out", "{out}"),
    "verify.all.json": ("verify", *_SMALL_ARGV, "--json"),
}


def _failures(count):
    return [{"params": f"n={i}", "lhs": str(i), "rhs": str(-i)} for i in range(count)]


# reports no real grid produces: one failing case, and a probe beside it
_FAILING = Report("G99.fail", "G99", 12, _failures(12), 3.25)
_PROBE = Report("G99.probe", "G99", 4, [], 0.5, "holds: a; fails: b (4/4 points fail)", True)
_PASSING = Report("G98.pass", "G98", 3, [], 1.0)

# name -> (argv, the cli function patched, what it returns)
FAILING_REQUESTS = {
    "verify.id.failing": (("verify", "--id", "G99.fail"), "verify", _FAILING),
    "verify.id.failing.json.out": (("verify", "--id", "G99.fail", "--json", "--out", "{out}"),
                                   "verify", _FAILING),
    "verify.all.failing": (("verify",), "run_all",
                           SuiteResult([_PASSING, _FAILING, _PROBE], DEFAULT_GRID)),
    "verify.all.failing.json.out": (("verify", "--json", "--out", "{out}"), "run_all",
                                    SuiteResult([_PASSING, _FAILING, _PROBE], DEFAULT_GRID)),
}

# a time's digits start where a run of digits starts: without the lookbehind,
# each digit of a long table value would start a scan to the end of its run
_TIMES = (
    (re.compile(r"(?<!\d)\d+ ms\)"), "ms)"),
    (re.compile(r" +\d+\.\d{3} ms"), " ms"),
    (re.compile(r'"millis": [-+.\deE]+'), '"millis": 0'),
)


def _masked(text: str) -> str:
    for pattern, mask in _TIMES:
        text = pattern.sub(mask, text)
    return text


def outcome(argv, tmp: Path):
    """Run ``argv`` through ``cli.main``: its exit code, stdout, stderr and
    the digest the lock records for them."""
    out_path = tmp / "out"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([str(out_path) if arg == "{out}" else arg for arg in argv])
    body = _masked(out_path.read_text()) if out_path.exists() else "<no file>"
    text = f"{code}\n{_masked(out.getvalue())}\n{_masked(err.getvalue())}\n{body}"
    return code, out.getvalue(), err.getvalue(), hashlib.sha256(text.encode()).hexdigest()


def cli_digests(tmp: Path, skip=()) -> dict:
    digests = {}
    for name, argv in REQUESTS.items():
        if name in skip:
            continue
        (tmp / name).mkdir()
        digests[name] = outcome(argv, tmp / name)[3]
    for name, (argv, target, result) in FAILING_REQUESTS.items():
        (tmp / name).mkdir()
        with patch.object(cli, target, lambda *args: result):
            digests[name] = outcome(argv, tmp / name)[3]
    return digests
