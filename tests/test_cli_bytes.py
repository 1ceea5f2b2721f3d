"""The CLI's bytes, request by request, are as when recorded.

``expected_cli_digests.json`` holds one sha256 per request of a fixed
matrix run through ``cli.main``: over the exit code, stdout, stderr and
the bytes of the ``--out`` file.  Elapsed times are masked first (the
``verify --id`` line's ``N ms)``, the full table's ``N.NNN ms`` and JSON
``"millis"``).  A refactor of the CLI that keeps every byte keeps every digest.
``python ci/record.py`` writes the file with ``cli_digests``.
"""

import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

from polycauchy import cli
from polycauchy.identities import DEFAULT_GRID
from polycauchy.identities.engine import Report, SuiteResult

EXPECTED = Path(__file__).resolve().parent / "expected_cli_digests.json"

# a grid on which the whole catalogue runs in well under a second
SMALL = ("--max-n", "3", "--max-n-double", "2", "--max-k", "1", "--max-r", "1",
         "--max-a", "1", "--max-n-multi", "1")

# name -> argv; "{out}" stands for a file in a fresh temporary directory
REQUESTS = {
    "table.cauchy-numbers": ("table", "cauchy-numbers"),
    "table.cauchy-numbers.second.k2": ("table", "cauchy-numbers", "--kind", "second", "--k", "2",
                                       "--max-n", "12"),
    "table.cauchy-numbers.k0": ("table", "cauchy-numbers", "--k", "0"),
    "table.bernoulli.n20.out": ("table", "bernoulli", "--n", "20", "--out", "{out}"),
    "table.bernoulli.n0": ("table", "bernoulli", "--max-n", "0"),
    "table.bernoulli.n-1": ("table", "bernoulli", "--max-n", "-1"),
    "table.hyperharmonic": ("table", "hyperharmonic", "--max-n", "6"),
    "table.stirling1": ("table", "stirling1", "--max-n", "8"),
    "table.lah.out": ("table", "lah", "--max-n", "12", "--out", "{out}"),
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
    "verify.all": ("verify", *SMALL),
    "verify.all.out": ("verify", *SMALL, "--out", "{out}"),
    "verify.all.json": ("verify", *SMALL, "--json"),
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

_TIMES = (
    (re.compile(r"\d+ ms\)"), "ms)"),
    (re.compile(r" +\d+\.\d{3} ms"), " ms"),
    (re.compile(r'"millis": [-+.\deE]+'), '"millis": 0'),
)


def _masked(text: str) -> str:
    for pattern, mask in _TIMES:
        text = pattern.sub(mask, text)
    return text


def _digest(argv, tmp: Path) -> str:
    out_path = tmp / "out"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([str(out_path) if arg == "{out}" else arg for arg in argv])
    body = _masked(out_path.read_text()) if out_path.exists() else "<no file>"
    text = f"{code}\n{_masked(out.getvalue())}\n{_masked(err.getvalue())}\n{body}"
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digests(tmp: Path) -> dict:
    digests = {}
    for name, argv in REQUESTS.items():
        (tmp / name).mkdir()
        digests[name] = _digest(argv, tmp / name)
    for name, (argv, target, result) in FAILING_REQUESTS.items():
        (tmp / name).mkdir()
        with patch.object(cli, target, lambda *args: result):
            digests[name] = _digest(argv, tmp / name)
    return digests


def test_cli_bytes_match_recorded(tmp_path):
    """After a deliberate change to what the CLI writes, rewrite every lock
    from the repository root with

        python ci/record.py
    """
    expected = json.loads(EXPECTED.read_text())
    actual = cli_digests(tmp_path)
    assert list(actual) == list(expected), "request names or their order changed"
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"CLI bytes changed for {changed}"
