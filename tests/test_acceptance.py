"""Acceptance criteria, one test per criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

All comparisons are exact (zero tolerance); the only non-exact bounds
are the stated runtime budgets.
"""

import random
from fractions import Fraction as F
from math import comb, factorial
from time import perf_counter

from polycauchy import (
    CONSTRUCTIONS,
    MultiParam,
    Poly,
    aux_poly_weighted,
    bernoulli_number,
    cauchy_number,
    cauchy_poly,
    central_u,
    eval_at_sqrt,
    gf_cauchy1,
    gf_cauchy2,
    gf_gen_bernoulli,
    gsn1,
    gsn2,
    multiparam_cauchy,
)
from polycauchy.identities import run_all, verify

from locks import CATALOGUE, moved, read
from test_cauchy import FIRST, SECOND, poly_cauchy_golden_first, poly_cauchy_golden_second


def _criterion(num, desc, fn):
    start = perf_counter()
    try:
        fn()
    except AssertionError:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {desc} ({perf_counter() - start:.2f}s)")


def test_criterion_1_golden_classical_tables():
    def check():
        start = perf_counter()
        for n in range(7):
            for construction in CONSTRUCTIONS:
                assert cauchy_poly("first", n, 1, construction) == FIRST[n]
                assert cauchy_poly("second", n, 1, construction) == SECOND[n]
        assert perf_counter() - start < 1.0

    _criterion(1, "classical polynomials n<=6 exact under all constructions, <1s", check)


def test_criterion_2_golden_poly_order_tables():
    def check():
        start = perf_counter()
        for k in range(1, 5):
            assert cauchy_poly("first", 6, k) == poly_cauchy_golden_first(k)
            assert cauchy_poly("second", 6, k) == poly_cauchy_golden_second(k)
        assert perf_counter() - start < 1.0

    _criterion(2, "degree-6 general-order polynomials exact for k=1..4, <1s", check)


def test_criterion_3_multiparameter_golden_point():
    def check():
        params = MultiParam(4, 3, 1, F(-3), (F(1), F(1), F(1, 2)), F(-3, 2))
        golden_first = (F(114177911, 144000), F(-284203, 768))
        golden_second = (F(14046697, 288000), F(10805, 768))
        assert eval_at_sqrt(multiparam_cauchy("first", params), 5) == golden_first
        assert eval_at_sqrt(multiparam_cauchy("second", params), 5) == golden_second

        # unit-shift symmetry at the same parameter point: build the full
        # two-variable polynomial as rows (row i the coefficient of x^i, a
        # Poly in y) and check it is symmetric, then evaluate it with the
        # arguments exchanged
        n, k, q, L = 4, 3, F(-3), (F(1), F(1), F(1, 2))
        for kind, golden in (("first", golden_first), ("second", golden_second)):
            rows = [Poly()] * (n + 1)
            for m in range(n + 1):
                # the first-kind bivariate Stirling polynomial at this q, in y
                ypoly = Poly([c * q ** (n - m - i) for i, c in enumerate(gsn1(n, m).coeffs)])
                if kind == "second":
                    ypoly = ypoly.affine_compose(-1, 0) * (-1) ** (n - m)
                for i, fc in enumerate(aux_poly_weighted(m, k, L).coeffs):
                    rows[i] = rows[i] + ypoly * fc
            if kind == "first":
                rows = [r * (-1) ** n for r in rows]
            assert rows == [Poly([r[j] for r in rows]) for j in range(n + 1)]
            # fix x at -3/2: a Poly in y
            swapped = sum((r * F(-3, 2) ** i for i, r in enumerate(rows)), Poly())
            assert eval_at_sqrt(swapped, 5) == golden

    _criterion(3, "multiparameter sqrt(5) split values and unit-shift symmetry", check)


def test_criterion_4_identity_suite_default_grids():
    def check():
        start = perf_counter()
        result = run_all()
        elapsed = perf_counter() - start
        assert result.failures == 0, [r.case_id for r in result.reports if not r.ok]
        assert elapsed < 300.0
        probes = [r for r in result.reports if r.probe]
        assert probes, "probe cases must report"
        for r in probes:
            assert r.finding
        # every case's id, point count and probe finding as the catalogue lock records them
        lock, fingerprint = read(CATALOGUE), result.fingerprint()
        lines = moved({"totals": lock["totals"], "suite_sha256": lock["suite_sha256"],
                       "cases": {cid: {"report": entry["report"]} for cid, entry in lock["cases"].items()}},
                      {"totals": result.totals(), "suite_sha256": fingerprint["suite_sha256"],
                       "cases": {cid: {"report": digest} for cid, digest in fingerprint["cases"].items()}})
        assert not lines, "\n".join(lines)

    _criterion(4, "identity suite on default grids: zero failures, fingerprints as recorded, <5min", check)


def test_criterion_5_oracle_equivalence():
    def check():
        gf1 = gf_cauchy1(12)
        gf2 = gf_cauchy2(12)
        for n in range(13):
            assert gf1[n] * factorial(n) == cauchy_poly("first", n)
            assert gf2[n] * factorial(n) == cauchy_poly("second", n)

        # independent oracle for the Bernoulli numbers: the classical
        # recurrence sum(binom(n+1, j) B_j, j=0..n) = [n = 0]
        oracle = [F(1)]
        for n in range(1, 13):
            oracle.append(-sum(comb(n + 1, j) * oracle[j] for j in range(n)) / F(n + 1))
        series = gf_gen_bernoulli(1, 12)
        for n in range(13):
            assert (series[n] * factorial(n)).constant() == oracle[n]
        assert oracle[4] == F(-1, 30)
        for m in range(1, 6):
            assert oracle[2 * m + 1] == 0

    _criterion(5, "series oracles match closed constructions; Bernoulli row exact", check)


def test_criterion_6_central_factorial_convention():
    def check():
        n = 2
        got = Poly()
        for m in range(1, n + 1):
            got = got + (Poly([n - 1, 1]) ** (2 * m) - bernoulli_number(2 * m)) * F(
                central_u(n, m), m
            )
        got = got * n
        assert got == Poly([F(-19, 30), 0, 4, 4, 1])

    _criterion(6, "central-factorial convention reproduces the degree-4 polynomial", check)


def test_criterion_7_recurrence_sign_probe():
    def check():
        report = verify("G06.k-recurrence-sign")
        assert report.probe
        finding = report.finding
        assert finding.startswith("holds: +(x-n)")
        assert "fails: -(x-n)" in finding
        # exactly one variant survives
        holding = finding.split(";")[0][len("holds: "):].split(", ")
        assert holding == ["+(x-n)"]

    _criterion(7, "second-kind step-recurrence sign resolved by the oracle", check)


def test_criterion_8_inversion_property_suite():
    def check():
        rng = random.Random(20250810)
        for _ in range(100):
            length = rng.randint(1, 8)
            g = [F(rng.randint(-999, 999), rng.randint(1, 60)) for _ in range(length)]
            x = F(rng.randint(-12, 12), rng.randint(1, 8))
            f = [
                sum(((-1) ** (n - m)) * gsn1(n, m)(x) * g[m] for m in range(n + 1))
                for n in range(length)
            ]
            back = [sum(gsn2(n, m)(x) * f[m] for m in range(n + 1)) for n in range(length)]
            assert back == g

    _criterion(8, "inversion round trip on 100 random rational sequences", check)
