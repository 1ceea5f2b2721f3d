"""The benchmark's workloads: seeded inputs, the ops they run, and the checks.

Each workload turns a seed into a fixed list of ops.  The seed changes the
order of the ops and, on cli_session, the rational arguments; it never
changes how much work a repetition does, and ops that share memo tables
keep a fixed order among themselves, so runs with different seeds are
comparable.  The program only ever receives the generated inputs.

Ops look the library function up when they run, so the tracer's
wrappers, installed after set-up, see every call.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, gcd
from pathlib import Path
from typing import Callable

KINDS = ("first", "second")
EXPECTED_VERIFY = Path(__file__).with_name("expected_verify.json")


@dataclass
class Workload:
    ops: list  # (name, callable) in run order
    digest: Callable  # (name, output) -> str, equal for equal outputs
    check: Callable  # {name: output} -> ({name: ok}, [run-level problems])
    bytes_written: Callable = field(default=lambda outputs: 0)


def _call(owner, name, *args):
    return lambda: getattr(owner, name)(*args)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _repr_digest(name, output) -> str:
    return _sha256(repr(output))


def _evaluate(poly, x) -> Fraction:
    """The polynomial's value at x by the benchmark's own Horner loop, not Poly.__call__."""
    value = Fraction(0)
    for c in reversed(poly.coeffs):
        value = value * x + c
    return value


def _same(a, b) -> bool:
    """Equal coefficient lists, compared without Poly.__eq__."""
    return [Fraction(c) for c in a.coeffs] == [Fraction(c) for c in b.coeffs]


def _group_order(shuffled: list, group_of: Callable, in_order: list) -> list:
    """The shuffled names, with each group's members put back into its places in a fixed order.

    Ops of one group share memo tables, so the first of them to run fills
    the memo for the rest.  Without a fixed order the seed would decide
    which op pays, and so what each op costs.  `group_of(name)` is a group
    or None; `in_order` lists every grouped name in its fixed order.
    """
    queues = {}
    for name in in_order:
        queues.setdefault(group_of(name), []).append(name)
    return [name if group_of(name) is None else queues[group_of(name)].pop(0)
            for name in shuffled]


def _fraction(value) -> Fraction:
    """A SymPy rational as a Fraction."""
    return Fraction(int(value.p), int(value.q))


# ---------------------------------------------------------------------------
# verify_default: the paper's headline run, every catalog case on DEFAULT_GRID

TINY_CASES = 12


def fingerprint_digest(report) -> str:
    """Hash of a case report without its timing."""
    return _sha256(json.dumps(report.fingerprint(), sort_keys=True))


def suite_digest(case_digests: dict) -> str:
    """Hash over every case's fingerprint digest, in case-id order."""
    return _sha256("".join(f"{cid} {d}\n" for cid, d in sorted(case_digests.items())))


def verify_default(seed: int, tiny: bool, workdir: Path) -> Workload:
    from polycauchy import identities

    identities.catalog()
    expected = json.loads(EXPECTED_VERIFY.read_text())
    ids = sorted(expected["cases"])
    random.Random(seed).shuffle(ids)
    # the cases of a group keep their catalog order among themselves
    ids = _group_order(ids, lambda cid: cid.split(".")[0], list(expected["cases"]))
    if tiny:
        ids = ids[:TINY_CASES]

    def check(outputs):
        ok = {cid: fingerprint_digest(r) == expected["cases"][cid] for cid, r in outputs.items()}
        if tiny:
            return ok, []
        reports = list(outputs.values())
        totals = {
            "cases": len(reports),
            "points": sum(r.points for r in reports),
            "failures": sum(len(r.failures) for r in reports),
            "probe_findings": sum(1 for r in reports if r.probe and r.finding),
        }
        problems = [f"{key}: {value}, expected {expected['totals'][key]}"
                    for key, value in totals.items() if value != expected["totals"][key]]
        digests = {cid: fingerprint_digest(r) for cid, r in outputs.items()}
        if suite_digest(digests) != expected["suite_sha256"]:
            problems.append("suite fingerprint hash differs from commit def615d's")
        return ok, problems

    return Workload(
        ops=[(cid, _call(identities, "verify", cid)) for cid in ids],
        digest=lambda name, report: fingerprint_digest(report),
        check=check,
    )


# ---------------------------------------------------------------------------
# construct_highdeg: high-degree constructions, where Poly and Series dominate

# The ROADMAP ladder.  Series-based ops (the `series` route, gen_bernoulli_poly
# and harmonic_poly) stop at 48: at n = 80 they take 20-26 s each at commit
# def615d.  Never lower either ladder.
LADDER = (20, 40, 80)
SERIES_LADDER = (20, 32, 48)
MULTIPARAM_N = 16
TINY_LADDER, TINY_SERIES_LADDER, TINY_MULTIPARAM_N = (4, 6, 8), (3, 4, 5), 3
# These constructions share memo tables (cauchy_number, gsn1); they run in this order.
MEMO_SHARING = ("gsn", "theorem1", "binomial_conv")


def _memo_order(spec):
    """(group, rank) of an op that shares memo tables with other ops, or None."""
    fn, args = spec
    if fn == "cauchy_poly" and args[3] in MEMO_SHARING:
        kind, n, _, construction = args
        return ("cauchy_poly", MEMO_SHARING.index(construction), kind, n)
    if fn == "multiparam_cauchy" and args[2] == "stirling":  # aux_poly_weighted
        return ("multiparam_cauchy", args[0])
    return None


def _norlund_poly(n: int, alpha: int, bernoulli_numbers: list) -> list:
    """Coefficients (x^0 first) of the order-alpha Bernoulli polynomial of degree n,
    from the ordinary Bernoulli numbers by alpha-fold binomial convolution."""
    single = list(bernoulli_numbers[: n + 1])
    numbers = [Fraction(1)] + [Fraction(0)] * n  # order 0
    for _ in range(alpha):
        numbers = [sum(comb(k, j) * numbers[j] * single[k - j] for j in range(k + 1))
                   for k in range(n + 1)]
    return [comb(n, n - i) * numbers[n - i] for i in range(n + 1)]


def _poly_bernoulli_kl_coeffs(n: int, k: int, stirling2_row: list) -> list:
    """Coefficients of poly_bernoulli_kl(n, k) from its defining double sum."""
    coeffs = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        outer = (-1) ** (n + m) * factorial(m) * stirling2_row[m]
        for i in range(m + 1):
            coeffs[i] += outer * Fraction((-1) ** i * comb(m, i), (m - i + 1) ** k)
    return coeffs


def construct_highdeg(seed: int, tiny: bool, workdir: Path) -> Workload:
    import polycauchy as pc

    ladder = TINY_LADDER if tiny else LADDER
    series_ladder = TINY_SERIES_LADDER if tiny else SERIES_LADDER
    mp = pc.MultiParam(TINY_MULTIPARAM_N if tiny else MULTIPARAM_N, 2, 2, Fraction(1, 2),
                       (Fraction(1, 2), Fraction(2)), Fraction(-3, 2))
    specs = {}  # op name -> (library function, arguments)
    for kind in KINDS:
        for c in ("gsn", "integral", "binomial_conv", "theorem1"):
            for n in ladder:
                specs[f"cauchy_poly.{kind}.{c}.k1.n{n}"] = ("cauchy_poly", (kind, n, 1, c))
        for n in series_ladder:
            specs[f"cauchy_poly.{kind}.series.k1.n{n}"] = ("cauchy_poly", (kind, n, 1, "series"))
        for n in ladder:
            specs[f"cauchy_poly.{kind}.integral.k3.n{n}"] = (
                "cauchy_poly", (kind, n, 3, "integral"))
    for n in series_ladder:
        specs[f"gen_bernoulli_poly.a3.n{n}"] = ("gen_bernoulli_poly", (n, 3))
        specs[f"harmonic_poly.n{n}"] = ("harmonic_poly", (n,))
    for n in ladder:
        specs[f"hyperharmonic_poly.n{n}"] = ("hyperharmonic_poly", (n,))
        specs[f"poly_bernoulli_kl.k2.n{n}"] = ("poly_bernoulli_kl", (n, 2))
    for kind in KINDS:
        for c in ("stirling", "integral"):
            specs[f"multiparam_cauchy.{kind}.{c}"] = ("multiparam_cauchy", (kind, mp, c))
    names = sorted(specs)
    random.Random(seed).shuffle(names)
    grouped = sorted((name for name in specs if _memo_order(specs[name])),
                     key=lambda name: _memo_order(specs[name]))
    names = _group_order(names, lambda name: (_memo_order(specs[name]) or (None,))[0], grouped)

    def check(outputs):
        # SymPy 1.14 is the independent oracle; it uses B_1 = +1/2.
        from sympy.functions.combinatorial.numbers import bernoulli, harmonic, stirling

        top = max(ladder)
        bernoullis = [_fraction(bernoulli(i)) for i in range(top + 1)]
        bernoullis[1] = -bernoullis[1]
        harmonics = [_fraction(harmonic(i)) for i in range(2 * top + 1)]

        def expected_ok(name, out):
            fn, args = specs[name]
            if fn == "cauchy_poly":
                kind, n, k, construction = args
                if construction == "gsn":  # gsn rests on row n of the first-kind triangle
                    return [pc.stirling1(n, m) for m in range(n + 1)] == [
                        int(stirling(n, m, kind=1, signed=False)) for m in range(n + 1)]
                return _same(out, pc.cauchy_poly(kind, n, k, "gsn"))
            if fn == "gen_bernoulli_poly":
                n, alpha = args
                return _same(out, pc.Poly(_norlund_poly(n, alpha, bernoullis)))
            if fn == "harmonic_poly":
                # coefficient m of -log(1-t)/t * (1-t)^(x-1): H_(m+1) at x = 0 and a
                # finite sum at x = 1..m+1, which fixes a polynomial of degree m
                (m,) = args
                at_ints = all(
                    _evaluate(out, x) == sum(Fraction((-1) ** i * comb(x - 1, i), m - i + 1)
                                  for i in range(min(m, x - 1) + 1))
                    for x in range(1, m + 2))
                return out.degree <= m and _evaluate(out, 0) == harmonics[m + 1] and at_ints
            if fn == "hyperharmonic_poly":
                # at order r >= 1: binom(n+r-1, r-1) (H_(n+r-1) - H_(r-1)), r = 1..n
                (n,) = args
                return out.degree <= n - 1 and all(
                    _evaluate(out, r)
                    == comb(n + r - 1, r - 1) * (harmonics[n + r - 1] - harmonics[r - 1])
                    for r in range(1, n + 1))
            if fn == "poly_bernoulli_kl":
                n, k = args
                row = [int(stirling(n, m, kind=2)) for m in range(n + 1)]
                return _same(out, pc.Poly(_poly_bernoulli_kl_coeffs(n, k, row)))
            kind, p, construction = args  # multiparam_cauchy: the two constructions agree
            other = "integral" if construction == "stirling" else "stirling"
            reference = outputs.get(f"multiparam_cauchy.{kind}.{other}")
            if reference is None:
                reference = pc.multiparam_cauchy(kind, p, other)
            return _same(out, reference)

        return {name: expected_ok(name, out) for name, out in outputs.items()}, []

    return Workload(
        ops=[(name, _call(pc, specs[name][0], *specs[name][1])) for name in names],
        digest=_repr_digest,
        check=check,
    )


# ---------------------------------------------------------------------------
# cli_session: one client sending a seeded request stream through cli.main

EVAL_NS, EVAL_KS = range(0, 61, 3), (1, 2, 3, 4)
TABLE_FAMILIES = ("stirling1", "stirling2", "central", "lah")
TABLE_SIZES = (40, 80, 120, 160, 200, 300)
EXPORT_NS = (10, 20, 30, 40, 50, 60)
SERIES_GFS = ("cauchy1", "cauchy2", "gen-bernoulli", "hyperharmonic", "harmonic")
SERIES_ORDERS = (4, 8, 12, 16)
# the first case of each group in the catalog at commit def615d
VERIFY_IDS = (
    "G01.th11", "G02.coef1", "G03.exp1", "G04.lm11", "G05.chen1", "G06.rec1",
    "G07.even-first", "G08.whit1", "G09.th5-first", "G10.hyp1", "G11.th31", "G12.th41",
    "G13.p4a", "G14.pro41", "G15.diffk1", "G16.int2", "G17.kb1", "G18.poly1",
    "G19.th10-first", "G20.even-first", "G21.shif1", "G22.hp1",
)
_MILLIS = re.compile(r"\d+ ms\)")


def _x_args(x: Fraction) -> list:
    # argparse takes "-3/4" after "--x" for an option, so negatives use the = form
    return [f"--x={x}"] if x < 0 else ["--x", str(x)]


def cli_requests(seed: int, tiny: bool, workdir: Path) -> tuple[dict, dict]:
    """Seeded request stream: {name: argv} in send order, and {eval name: (kind, n, k, x)}.

    The seed orders the requests and draws the numerators of x.  What an
    op costs must not depend on the seed, so each eval's denominator is
    fixed, and the tables, whose triangle fills and big strings set the
    tail latency and the peak memory, sit at fixed, evenly spaced places,
    smallest first.
    """
    rng = random.Random(seed)
    eval_ns, eval_ks = (range(0, 11, 5), (1, 2)) if tiny else (EVAL_NS, EVAL_KS)
    requests, evals, tables = {}, {}, {}
    for kind in KINDS:
        for k in eval_ks:
            for n in eval_ns:
                den = 1 + (n // 3 + k + len(kind)) % 12
                x = Fraction(rng.choice([p for p in range(-12, 13) if gcd(p, den) == 1]), den)
                name = f"eval.{kind}.k{k}.n{n}"
                evals[name] = (kind, n, k, x)
                requests[name] = ["eval", "cauchy", "--kind", kind, "--n", str(n), "--k", str(k),
                                  *_x_args(x)]
    for max_n in (10, 20) if tiny else TABLE_SIZES:
        for family in TABLE_FAMILIES:
            name = f"table.{family}.n{max_n}"
            tables[name] = ["table", family, "--max-n", str(max_n),
                            "--out", str(workdir / f"{name}.tsv")]
    for n in (5,) if tiny else EXPORT_NS:
        for k in eval_ks:
            kind = KINDS[(n // 10 + k) % 2]
            name = f"export.{kind}.k{k}.n{n}"
            requests[name] = ["export", "--family", "cauchy-poly", "--kind", kind, "--n", str(n),
                              "--k", str(k), "--format", "json",
                              "--out", str(workdir / f"{name}.json")]
    for gf in SERIES_GFS:
        for order in (4,) if tiny else SERIES_ORDERS:
            alpha = ["--alpha", "2"] if gf == "gen-bernoulli" else []
            requests[f"series.{gf}.o{order}"] = ["series", gf, "--order", str(order), *alpha]
    for cid in VERIFY_IDS[:3] if tiny else VERIFY_IDS:
        requests[f"verify.{cid}"] = ["verify", "--id", cid]
    names = list(requests)
    rng.shuffle(names)
    total = len(names) + len(tables)
    for j, name in enumerate(tables):
        names.insert((j + 1) * total // len(tables) - 1, name)
    requests.update(tables)
    return {name: requests[name] for name in names}, evals


def _out_path(argv):
    return Path(argv[argv.index("--out") + 1]) if "--out" in argv else None


def cli_session(seed: int, tiny: bool, workdir: Path) -> Workload:
    import polycauchy as pc
    from polycauchy import cli

    requests, evals = cli_requests(seed, tiny, workdir)

    def request(argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()
        return run

    def digest(name, output):
        code, text = output
        path = _out_path(requests[name])
        body = path.read_bytes() if path else b""
        text = _MILLIS.sub("ms)", text)  # verify prints its elapsed time
        return hashlib.sha256(f"{code}\n{text}\n".encode() + body).hexdigest()

    def check(outputs):
        ok = {}
        for name, (code, text) in outputs.items():
            ok[name] = code == 0
            if ok[name] and name in evals:
                kind, n, k, x = evals[name]
                reference = _evaluate(pc.cauchy_poly(kind, n, k, "integral"), x)
                ok[name] = Fraction(text.strip()) == reference
        return ok, []

    def bytes_written(outputs):
        """Bytes of stdout and --out files; verify's elapsed time is left out, so it repeats."""
        total = 0
        for name, (code, text) in outputs.items():
            path = _out_path(requests[name])
            total += len(_MILLIS.sub("ms)", text).encode())
            total += path.stat().st_size if path and path.exists() else 0
        return total

    return Workload(
        ops=[(name, request(argv)) for name, argv in requests.items()],
        digest=digest,
        check=check,
        bytes_written=bytes_written,
    )


WORKLOADS = {
    "verify_default": verify_default,
    "construct_highdeg": construct_highdeg,
    "cli_session": cli_session,
}
