"""Batch command-line front end: tables, evaluations, series dumps,
identity-suite runs, and exports.

Every verb is a thin delegate into the library; no math lives here.
Rationals cross the CLI boundary as "p/q" text in both directions.
Exit codes: 0 success, 1 identity failures, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields as dataclass_fields
from fractions import Fraction
from math import factorial

from . import bernoulli, cauchy, harmonic, series, stirling
from .identities import DEFAULT_GRID, Grid, run_all, verify
from .poly import Poly, poly_from_strings, poly_to_strings
from .rational import format_rational, parse_rational

_TRIANGLES = ("stirling1", "stirling2", "central", "lah")
_SEQUENCE_TABLES = ("cauchy-numbers", "bernoulli", "hyperharmonic")

_GRID_INT_KEYS = ("max_n", "max_n_double", "max_k", "max_r", "max_a", "max_n_multi")
_GRID_LIST_KEYS = ("qs", "xs", "ys_multi")


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

# generating function -> the truncated series that ``series`` dumps
_SERIES = {
    "cauchy1": lambda a: series.gf_cauchy1(a.order),
    "cauchy2": lambda a: series.gf_cauchy2(a.order),
    "gen-bernoulli": lambda a: series.gf_gen_bernoulli(a.alpha, a.order),
    "hyperharmonic": lambda a: series.gf_hyperharmonic(a.order),
    "harmonic": lambda a: series.gf_harmonic_poly(a.order),
}


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycauchy",
        description="Exact tables, evaluations, series and identity checks "
        "for the Cauchy / Stirling / Bernoulli / hyperharmonic families.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_table = sub.add_parser("table", help="emit a triangle or sequence as TSV")
    p_table.add_argument("family", choices=_TRIANGLES + _SEQUENCE_TABLES)
    p_table.add_argument("--max-n", type=int, default=10)
    p_table.add_argument("--n", type=int, help="alias for --max-n")
    p_table.add_argument("--kind", choices=tuple(cauchy.KIND_SIGN), default="first")
    p_table.add_argument("--k", type=int, default=1)
    p_table.add_argument("--out", help="write to a file instead of stdout")
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
    p_series.add_argument("--out")
    p_series.set_defaults(func=_cmd_series)

    p_verify = sub.add_parser("verify", help="run the identity suite")
    p_verify.add_argument("--id", help="run a single case instead of the full catalog")
    p_verify.add_argument("--json", action="store_true", help="machine-readable output")
    p_verify.add_argument("--config", help="key=value file overriding grid defaults")
    p_verify.add_argument("--out", help="write the report to a file as well")
    for key in _GRID_INT_KEYS:
        p_verify.add_argument(f"--{key.replace('_', '-')}", type=int, default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_export = sub.add_parser("export", help="write family data to a file")
    p_export.add_argument("--family", required=True,
                          choices=("cauchy-poly", "cauchy-numbers", "bernoulli", "hyperharmonic"))
    p_export.add_argument("--format", required=True, choices=("json", "tsv"))
    p_export.add_argument("--out", required=True)
    p_export.add_argument("--kind", choices=tuple(cauchy.KIND_SIGN), default="first")
    p_export.add_argument("--n", type=int, default=6)
    p_export.add_argument("--k", type=int, default=1)
    p_export.add_argument("--max-n", type=int, default=6)
    p_export.set_defaults(func=_cmd_export)

    return parser


def _write_lines(lines, out_path):
    """Write each line, newline-terminated, to stdout or to the file out_path.

    A file is written through a temporary file in its own directory that
    replaces out_path only once every line is written, so a run that fails
    part-way leaves an existing out_path as it was and no partial file.
    """
    if not out_path:
        for line in lines:
            sys.stdout.write(line + "\n")
        return
    head, tail = os.path.split(os.path.abspath(out_path))
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, out_path)
    except BaseException:
        os.unlink(tmp)
        raise


def _checked_max_n(max_n: int) -> int:
    if max_n < 0:
        raise UsageError(f"--max-n must be >= 0, got {max_n}")
    return max_n


def _cmd_table(args) -> int:
    max_n = _checked_max_n(args.n if args.n is not None else args.max_n)
    _write_lines(_table_lines(args, max_n), args.out)
    return 0


def _table_lines(args, max_n: int):
    if args.family in _TRIANGLES:
        yield "n\tm\tvalue"
        for n, m, v in stirling.triangle_rows(args.family, max_n):
            yield f"{n}\t{m}\t{v}"
    elif args.family == "cauchy-numbers":
        yield "n\tvalue"
        for n in range(max_n + 1):
            yield f"{n}\t{format_rational(cauchy.cauchy_number(args.kind, n, args.k))}"
    elif args.family == "bernoulli":
        yield "n\tvalue"
        for n in range(max_n + 1):
            yield f"{n}\t{format_rational(bernoulli.bernoulli_number(n))}"
    else:  # hyperharmonic
        yield "n\tcoefficients"
        for n in range(max_n + 1):
            coeffs = ",".join(poly_to_strings(harmonic.hyperharmonic_poly(n)))
            yield f"{n}\t{coeffs}"


def _cmd_eval(args) -> int:
    print(format_rational(_EVAL_POLYS[args.family](args)(args.x)))
    return 0


def _cmd_series(args) -> int:
    s = _SERIES[args.gf](args)
    lines = ["n\tn!\tcoefficient"]
    for n in range(args.order + 1):
        c = s[n]
        poly = c if isinstance(c, Poly) else Poly.const(c)
        lines.append(f"{n}\t{factorial(n)}\t{poly}")
    _write_lines(lines, args.out)
    return 0


def _parse_config(path: str) -> dict:
    overrides: dict = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line (want key=value): {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key in _GRID_INT_KEYS:
                overrides[key] = int(value)
            elif key in _GRID_LIST_KEYS:
                items = value.split(",") if value else []
                if not all(items):
                    raise UsageError(f"empty item in grid list {key}: {value!r}")
                overrides[key] = tuple(parse_rational(v) for v in items)
            else:
                raise UsageError(f"unknown config key {key!r}")
    return overrides


def _grid_from_args(args) -> Grid:
    overrides: dict = {}
    if args.config:
        overrides.update(_parse_config(args.config))
    for key in _GRID_INT_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            overrides[key] = flag
    valid = {f.name for f in dataclass_fields(Grid)}
    bad = set(overrides) - valid
    if bad:
        raise UsageError(f"unknown grid settings: {sorted(bad)}")
    return DEFAULT_GRID.with_overrides(**overrides)


def _status(report) -> str:
    return "probe" if report.probe else ("pass" if report.ok else "FAIL")


def _cmd_verify(args) -> int:
    grid = _grid_from_args(args)
    if args.id:
        try:
            report = verify(args.id, grid)
        except KeyError as exc:
            raise UsageError(exc.args[0]) from None
        payload = json.dumps(report.to_dict(), indent=2)
        if args.json:
            print(payload)
        else:
            print(f"{report.case_id}: {_status(report)} ({report.points} points, {report.millis} ms)")
            if report.finding:
                print(f"  finding: {report.finding}")
            for f in report.failures[:10]:
                print(f"  at {f['params']}: {f['lhs']} != {f['rhs']}")
        if args.out:
            _write_lines([payload], args.out)
        return 0 if report.ok else 1

    result = run_all(grid)
    if args.json:
        print(result.to_json())
    else:
        for report in result.reports:
            line = (f"{report.case_id:30s} {_status(report):5s} {report.points:6d} points "
                    f"{report.millis:6d} ms")
            print(line)
            if report.finding:
                print(f"{'':30s} finding: {report.finding}")
            for f in report.failures[:5]:
                print(f"{'':30s} at {f['params']}: {f['lhs']} != {f['rhs']}")
        print("--")
        for g in result.group_summary():
            print(
                f"{g['group']}: {g['cases']} cases, {g['points']} points, "
                f"{g['failures']} failures"
            )
        print(
            f"total: {len(result.reports)} cases, "
            f"{sum(r.points for r in result.reports)} points, "
            f"{result.failures} failures"
        )
    if args.out:
        _write_lines([result.to_json()], args.out)
    return 0 if result.ok else 1


def _cmd_export(args) -> int:
    max_n = _checked_max_n(args.max_n)
    if args.family == "cauchy-poly":
        params = {"kind": args.kind, "n": args.n, "k": args.k}
        values = cauchy.cauchy_poly(args.kind, args.n, args.k).coeffs
    elif args.family == "hyperharmonic":
        params = {"n": args.n}
        values = harmonic.hyperharmonic_poly(args.n).coeffs
    elif args.family == "cauchy-numbers":
        params = {"kind": args.kind, "k": args.k, "max_n": max_n}
        values = [cauchy.cauchy_number(args.kind, n, args.k) for n in range(max_n + 1)]
    else:
        params = {"max_n": max_n}
        values = [bernoulli.bernoulli_number(n) for n in range(max_n + 1)]
    strings = [format_rational(v) for v in values]
    if args.family in ("cauchy-poly", "hyperharmonic"):
        key, header = "coefficients", "i\tcoefficient"
    else:
        key, header = "values", "n\tvalue"
    if args.format == "json":
        payload = {"family": args.family, "params": params, key: strings}
        _write_lines([json.dumps(payload, indent=2)], args.out)
    else:
        _write_lines([header] + [f"{i}\t{v}" for i, v in enumerate(strings)], args.out)
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


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_glue_x_values(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
