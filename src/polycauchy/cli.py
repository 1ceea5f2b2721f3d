"""Batch command-line front end: tables, evaluations, series dumps,
identity-suite runs, and exports.

Every verb is a thin delegate into the library; no math lives here.
Rationals cross the CLI boundary as "p/q" text in both directions.
Exit codes: 0 success, 1 identity failures, 2 usage errors.

:func:`main` is the one entry point, for the console script and for
callers that send many requests in one process.  The argument parser is
built on the first call and reused by every later one, since parsing a
request keeps no state in the parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import stat
import sys
import threading
from contextlib import contextmanager, suppress
from dataclasses import replace
from fractions import Fraction
from itertools import islice
from math import factorial

from . import bernoulli, cauchy, harmonic, series, stirling
from .identities import BOUNDS, DEFAULT_GRID, Grid, run_all, verify
from .poly import Poly, poly_from_strings, poly_to_strings
from .rational import format_rational, parse_rational


# family -> the polynomial that ``eval`` evaluates at --x
_EVAL_POLYS = {
    "cauchy": lambda a: cauchy.cauchy_poly(a.kind, a.n, a.k),
    "bernoulli-poly": lambda a: bernoulli.bernoulli_poly(a.n),
    "gen-bernoulli": lambda a: bernoulli.gen_bernoulli_poly(a.n, a.alpha),
    "euler-poly": lambda a: bernoulli.euler_poly(a.n),
    "power-sum": lambda a: bernoulli.power_sum_poly(a.n),
    "hyperharmonic": lambda a: harmonic.hyperharmonic_poly(a.n),
    "harmonic-poly": lambda a: harmonic.harmonic_poly(a.n),
}

# sequence family -> (header, entry(args, n)): the TSV lines that ``table``
# writes, and the values that ``export`` writes for n = 0..max_n
_SEQUENCES = {
    "cauchy-numbers": ("n\tvalue",
                       lambda a, n: format_rational(cauchy.cauchy_number(a.kind, n, a.k))),
    "bernoulli": ("n\tvalue", lambda a, n: format_rational(bernoulli.bernoulli_number(n))),
    "hyperharmonic": ("n\tcoefficients",
                      lambda a, n: ",".join(poly_to_strings(harmonic.hyperharmonic_poly(n)))),
}

# export family -> (the parameters its JSON records, the one polynomial it
# writes, or None for a sequence family, whose values are n = 0..max_n)
_EXPORTS = {
    "cauchy-poly": (("kind", "n", "k"), _EVAL_POLYS["cauchy"]),
    "hyperharmonic": (("n",), _EVAL_POLYS["hyperharmonic"]),
    "cauchy-numbers": (("kind", "k", "max_n"), None),
    "bernoulli": (("max_n",), None),
}

# generating function -> the rows that ``series`` dumps
_SERIES = {
    "cauchy1": lambda a: cauchy.gf_cauchy1(a.order),
    "cauchy2": lambda a: cauchy.gf_cauchy2(a.order),
    "gen-bernoulli": lambda a: series.gf_gen_bernoulli(a.alpha, a.order),
    "hyperharmonic": lambda a: series.gf_hyperharmonic(a.order),
    "harmonic": lambda a: series.gf_harmonic_poly(a.order),
}


class UsageError(Exception):
    pass


def _file_name(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("empty file name")
    return text


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycauchy",
        description="Exact tables, evaluations, series and identity checks "
        "for the Cauchy / Stirling / Bernoulli / hyperharmonic families.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_table = sub.add_parser("table", help="emit a triangle or sequence as TSV")
    p_table.add_argument("family", choices=(*stirling._TRIANGLES, *_SEQUENCES))
    p_table.add_argument("--max-n", "--n", dest="max_n", type=int, default=10)
    p_table.add_argument("--kind", choices=tuple(cauchy.KIND_SIGN), default="first")
    p_table.add_argument("--k", type=int, default=1)
    p_table.add_argument("--out", type=_file_name, help="write to a file instead of stdout")
    p_table.set_defaults(func=_cmd_table)

    p_eval = sub.add_parser("eval", help="evaluate one family member exactly")
    p_eval.add_argument("family", choices=tuple(_EVAL_POLYS))
    p_eval.add_argument("--n", type=int, required=True)
    p_eval.add_argument("--k", type=int, default=1)
    p_eval.add_argument("--kind", choices=tuple(cauchy.KIND_SIGN), default="first")
    p_eval.add_argument("--alpha", type=int, default=1)
    p_eval.add_argument("--x", type=parse_rational, default=Fraction(0))
    p_eval.set_defaults(func=_cmd_eval)

    p_series = sub.add_parser("series", help="dump generating-function coefficients")
    p_series.add_argument("gf", choices=tuple(_SERIES))
    p_series.add_argument("--order", type=int, default=8)
    p_series.add_argument("--alpha", type=int, default=1)
    p_series.add_argument("--out", type=_file_name)
    p_series.set_defaults(func=_cmd_series)

    p_verify = sub.add_parser("verify", help="run the identity suite")
    p_verify.add_argument("--id", help="run a single case instead of the full catalog")
    p_verify.add_argument("--json", action="store_true", help="machine-readable output")
    p_verify.add_argument("--config", type=_file_name, help="key=value file overriding grid defaults")
    p_verify.add_argument("--out", type=_file_name, help="write the report to a file as well")
    for key in BOUNDS:
        p_verify.add_argument(f"--{key.replace('_', '-')}", type=int, default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_export = sub.add_parser("export", help="write family data to a file")
    p_export.add_argument("--family", required=True,
                          choices=tuple(_EXPORTS))
    p_export.add_argument("--format", required=True, choices=("json", "tsv"))
    p_export.add_argument("--out", type=_file_name, required=True)
    p_export.add_argument("--kind", choices=tuple(cauchy.KIND_SIGN), default="first")
    p_export.add_argument("--n", type=int, default=6)
    p_export.add_argument("--k", type=int, default=1)
    p_export.add_argument("--max-n", type=int, default=6)
    p_export.set_defaults(func=_cmd_export)

    return parser


def _write_each(fh, lines) -> None:
    # the item and its newline are written apart, so a large block is not
    # copied just to end it
    write = fh.write
    for line in lines:
        write(line)
        write("\n")


# the signals whose default action ends the process without unwinding it
_ENDING_SIGNALS = tuple(getattr(signal, name) for name in ("SIGTERM", "SIGHUP", "SIGQUIT") if hasattr(signal, name))


@contextmanager
def _removed_on_ending_signals(path):
    """In the main thread, each of SIGTERM, SIGHUP and SIGQUIT that has its
    default action removes path, if it exists, and then ends the process as
    that signal ends it, wherever in the block it lands.  A signal with
    another action, and any other thread, is left as it is."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def remove_and_end(signum, frame):
        # a file that cannot be removed must not keep the signal from ending the run
        with suppress(OSError):
            os.unlink(path)
        signal.signal(signum, signal.SIG_DFL)
        signal.raise_signal(signum)

    caught = [signum for signum in _ENDING_SIGNALS if signal.getsignal(signum) == signal.SIG_DFL]
    for signum in caught:
        signal.signal(signum, remove_and_end)
    try:
        yield
    finally:
        for signum in caught:
            signal.signal(signum, signal.SIG_DFL)


def _write_lines(lines, out_path):
    """Write each item, newline-terminated, to stdout or to the file out_path.

    An item may hold several newline-separated lines, so a caller can hand
    over a whole block, such as a triangle row, as one write.

    A regular or missing file is written through a temporary file that
    replaces it only once every line is written, so a run that fails
    part-way, or is ended by SIGTERM, SIGHUP, SIGQUIT or SIGINT, leaves an
    existing file as it was and no partial file.  A symlink is resolved
    first: the file it names is replaced, in that file's directory, and the
    link is kept.  Any other existing path, such as a FIFO or a device, is
    opened and written in place.
    """
    if not out_path:
        _write_each(sys.stdout, lines)
        return
    try:
        regular = stat.S_ISREG(os.stat(out_path).st_mode)
    except FileNotFoundError:
        regular = True
    if not regular:
        with open(out_path, "w", encoding="utf-8") as fh:
            _write_each(fh, lines)
        return
    # the file a symlink names is replaced, not the link
    target = os.path.realpath(out_path) if os.path.islink(out_path) else os.path.abspath(out_path)
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        with _removed_on_ending_signals(tmp):
            try:
                with open(tmp, "x", encoding="utf-8") as fh:
                    _write_each(fh, lines)
                os.replace(tmp, target)
            except FileExistsError:
                raise  # the name is another file's, which stays
            except BaseException:
                # an interrupt may land before the create is bound or after the rename
                with suppress(FileNotFoundError):
                    os.unlink(tmp)
                raise
    except OSError as exc:
        if exc.filename != tmp:
            raise
        # name the user's path, not the temporary file beside it
        raise OSError(exc.errno, exc.strerror, out_path) from None


def _checked_max_n(max_n: int) -> int:
    if max_n < 0:
        raise UsageError(f"--max-n must be >= 0, got {max_n}")
    return max_n


def _cmd_table(args) -> int:
    _write_lines(_table_lines(args, _checked_max_n(args.max_n)), args.out)
    return 0


def _table_lines(args, max_n: int):
    if args.family in stirling._TRIANGLES:
        yield "n\tm\tvalue"
        # row n's block is "n\t" + "0\t" + T(n, 0) + "\nn\t" + "1\t" + ... + T(n, n),
        # joined once from (separator, "m\t", value) triples
        heads = [f"{m}\t" for m in range(max_n + 1)]
        for n, row in enumerate(stirling.triangle_rows(args.family, max_n)):
            parts = [f"\n{n}\t"] * (3 * n + 3)
            parts[0] = f"{n}\t"
            parts[1::3] = heads[:n + 1]
            parts[2::3] = row
            yield "".join(parts)
        return
    header, entry = _SEQUENCES[args.family]
    yield from _numbered(header, (entry(args, n) for n in range(max_n + 1)))


def _numbered(header: str, items):
    """The header, then "{i}\t{item}" per item.  Item 0 comes before the header,
    so an argument the family rejects, such as --k 0, fails before any output."""
    rows = (f"{i}\t{item}" for i, item in enumerate(items))
    first = list(islice(rows, 1))
    yield header
    yield from first
    yield from rows


def _cmd_eval(args) -> int:
    print(format_rational(_EVAL_POLYS[args.family](args)(args.x)))
    return 0


def _cmd_series(args) -> int:
    rows = _SERIES[args.gf](args)
    items = (f"{factorial(n)}\t{row}" for n, row in enumerate(rows))
    _write_lines(_numbered("n\tn!\tcoefficient", items), args.out)
    return 0


def _grid_from_args(args) -> Grid:
    grid = DEFAULT_GRID
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            grid = Grid.from_text(fh.read())
    flags = {key: getattr(args, key) for key in BOUNDS if getattr(args, key) is not None}
    return replace(grid, **flags)


def _status(report) -> str:
    return "probe" if report.probe else ("pass" if report.ok else "FAIL")


def _report_lines(head: str, report, indent: str, shown: int):
    """head, then the report's finding and its first ``shown`` failures, indented."""
    yield head
    if report.finding:
        yield f"{indent}finding: {report.finding}"
    for f in report.failures[:shown]:
        yield f"{indent}at {f['params']}: {f['lhs']} != {f['rhs']}"


def _suite_lines(result):
    for r in result.reports:
        head = f"{r.case_id:30s} {_status(r):5s} {r.points:6d} points {r.millis:10.3f} ms"
        yield from _report_lines(head, r, " " * 31, 5)
    yield "--"
    for g in result.group_summary():
        yield f"{g['group']}: {g['cases']} cases, {g['points']} points, {g['failures']} failures"
    totals = result.totals()
    yield f"total: {totals['cases']} cases, {totals['points']} points, {totals['failures']} failures"


def _cmd_verify(args) -> int:
    if args.id is None:
        result = run_all(args.grid)
        lines = _suite_lines(result)
    else:
        try:
            result = verify(args.id, args.grid)
        except KeyError as exc:
            raise UsageError(exc.args[0]) from None
        # whole milliseconds: bench/workloads.py masks this time as \d+ ms\) before hashing
        head = f"{result.case_id}: {_status(result)} ({result.points} points, {int(result.millis)} ms)"
        lines = _report_lines(head, result, "  ", 10)
    payload = json.dumps(result.to_dict(), indent=2) if args.json or args.out else None
    _write_lines([payload] if args.json else lines, None)
    if args.out:
        _write_lines([payload], args.out)
    return 0 if result.ok else 1


def _cmd_export(args) -> int:
    keys, poly = _EXPORTS[args.family]
    if poly:
        key, header, strings = "coefficients", "i\tcoefficient", poly_to_strings(poly(args))
    else:
        key, (header, entry) = "values", _SEQUENCES[args.family]
        strings = [entry(args, n) for n in range(_checked_max_n(args.max_n) + 1)]
    if args.format == "json":
        params = {name: getattr(args, name) for name in keys}
        payload = {"family": args.family, "params": params, key: strings}
        _write_lines([json.dumps(payload, indent=2)], args.out)
    else:
        _write_lines(_numbered(header, strings), args.out)
    return 0


def load_exported_poly(path: str) -> Poly:
    """Re-import a JSON polynomial export (exact round-trip)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return poly_from_strings(payload["coefficients"])


def _glue_x_values(argv: list[str]) -> list[str]:
    """Rewrite "--x V" as "--x=V": argparse takes a value such as "-3/4"
    after a separate "--x" for an option and rejects the command."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--x":
            out[-1] = f"--x={arg}"
        else:
            out.append(arg)
    return out


@contextmanager
def _uncapped_int_text():
    """Lift CPython's cap on int/str conversion (4300 digits by default) for
    the block, then put back the cap the caller had.  The cap is global to
    the interpreter, so this is not meant for several threads at once."""
    if not hasattr(sys, "set_int_max_str_digits"):  # interpreters before the cap
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        # user text such as --x is parsed under the caller's cap
        args = parser.parse_args(_glue_x_values(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # so is a verify --config file: past the cap, a grid bound of
        # thousands of digits would be read and run for ever
        if args.verb == "verify":
            args.grid = _grid_from_args(args)
        # exact results, such as the numerator of B_460, can run past the cap
        with _uncapped_int_text():
            return args.func(args)
    # an index past sys.maxsize, such as --n 10**22, cannot size a range
    except (UsageError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
