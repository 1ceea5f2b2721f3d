"""Identity cases G14-G22: general-order (poly) Cauchy polynomial facts,
poly-Bernoulli bridges, the multiparameter family, and the harmonic
polynomial connection.

The general-order checks whose k = 1 case is also a classical (G01-G09)
identity are written once, in ``registry_core``, and registered here as
they are; the classical cases reuse them with k fixed to 1.  Each
first/second-kind pair is one check taking ``kind`` first, registered
once per kind with ``functools.partial``; pairs whose two forms differ in
structure stay two functions.  The kind's sign e = ``KIND_SIGN[kind]`` and
``_reflect`` follow the convention stated in ``polycauchy.cauchy``, and a
term only one kind carries is scaled by (1 - e)/2 (second kind only) or
(1 + e)/2 (first kind only).  A case that restates another case or a
library construction registers that existing check (``_moments``,
``_genk``, ``_constructions``) instead of writing the sum again."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial, prod

from ..bernoulli import (
    bernoulli_number,
    bernoulli_poly,
    euler_poly,
    multiparam_poly_bernoulli,
    poly_bernoulli_gsn,
    poly_bernoulli_kl,
)
from ..cauchy import (
    KIND_SIGN,
    _OTHER,
    MultiParam,
    aux_poly,
    aux_poly_weighted,
    cauchy_number,
    cauchy_poly,
    multiparam_cauchy,
    shifted_cauchy_number,
)
from ..harmonic import harmonic_number, harmonic_poly
from ..poly import Poly, _lincomb, binom_poly, eval_at_sqrt
from ..stirling import (
    central_u,
    gsn1,
    gsn1_bivariate_at,
    gsn2,
    gsn2_bivariate_at,
    lah,
    stirling1,
    stirling2,
)
from .engine import IdentityCase
from .registry_core import (
    F, _c, _ch, _chp, _constructions, _cor2, _cp, _derk, _diffk, _genk, _inv, _n_k, _n_y, _ns,
    _odd_central, _pro4, _reck, _reflected, _s2_double, _symm5, _symm6, _symm_self, _whitk,
)


def _n_i_k(grid, n_start=0, i_start=0):
    return (
        {"n": n, "i": i, "k": k}
        for n in range(n_start, grid.max_n_double + 1)
        for i in range(i_start, n + 1)
        for k in range(1, grid.max_k + 1)
    )


def _moments(kind, n, k):
    """The kind's polynomial as moment polynomials over the plain Stirling triangle."""
    rhs = _lincomb(
        ((-1) ** n * KIND_SIGN[kind] ** m * stirling1(n, m), aux_poly(m, k)) for m in range(n + 1)
    )
    return cauchy_poly(kind, n, k), rhs


def _g14():
    return [
        IdentityCase("G14.pro41", "general order first kind as weighted Stirling polynomial sums", _n_k, partial(_pro4, "first")),
        IdentityCase("G14.pro42", "general order second kind at -x as weighted Stirling sums", _n_k, partial(_pro4, "second")),
        IdentityCase("G14.cor2a", "closed-form coefficients at general order, first kind", _n_k, partial(_cor2, "first")),
        IdentityCase("G14.cor2b", "closed-form coefficients at general order, second kind", _n_k, partial(_cor2, "second")),
        IdentityCase("G14.back1", "double-sum expansion over the plain triangle, first kind", _n_k, partial(_moments, "first")),
        IdentityCase("G14.back2", "double-sum expansion over the plain triangle, second kind", _n_k, partial(_moments, "second")),
        IdentityCase("G14.inv-a", "inverted expansion gives 1/(n+1)^k", _n_k, partial(_inv, "first")),
        IdentityCase("G14.inv-b", "inverted reflected expansion gives (-1)^n/(n+1)^k", _n_k, partial(_inv, "second")),
    ]


_WHITNEY_MS = (1, 2, -2)
_WHITNEY_RS = (-2, 1, 3)


def _g15():
    def _whit_points(grid):
        return (
            {"n": n, "k": k, "m": m, "r": r}
            for n in range(grid.max_n_double + 1)
            for k in range(1, grid.max_k + 1)
            for m in _WHITNEY_MS
            for r in _WHITNEY_RS
            if abs(r) <= grid.max_r
        )

    def _korec_points(grid):
        return (
            {"n": n, "k": k, "r": r, "s": s}
            for n in range(grid.max_n_double + 1)
            for k in range(1, grid.max_k + 1)
            for r in range(min(n, grid.max_r) + 1)
            for s in range(r + 1)
        )

    def korec(kind, n, k, r, s):
        lhs = sum((
            gsn2(n - r, m - r)(F(r)) * cauchy_poly(kind, m - s, k)(F(KIND_SIGN[kind] * s))
            for m in range(r, n + 1)
        ), F(0))
        # (-1)^(r-l) for the first kind, (-1)^(n-s) for the second
        rhs = sum((
            F((-1) ** (n - s) * (-KIND_SIGN[kind]) ** (n - s + r - l), (n + l - r - s + 1) ** k)
            * gsn1(r - s, l - s)(F(s))
            for l in range(s, r + 1)
        ), F(0))
        return lhs, rhs

    def _korec_s0_points(grid):
        return (
            {"n": n, "k": k, "r": r}
            for n in range(grid.max_n_double + 1)
            for k in range(1, grid.max_k + 1)
            for r in range(grid.max_r + 1)
        )

    def korec_s0(kind, n, k, r):
        lhs = sum((gsn2(n, m)(F(r)) * cauchy_number(kind, m + r, k) for m in range(n + 1)), F(0))
        # (-1)^(r-l) for the first kind, (-1)^(n+r) for the second
        rhs = sum((
            F((-1) ** (n + r) * (-KIND_SIGN[kind]) ** (n + l), (n + l + 1) ** k) * stirling1(r, l)
            for l in range(r + 1)
        ), F(0))
        return lhs, rhs

    def val_at(kind, n, k):
        want = F(cauchy_poly(kind, n, k)(F(KIND_SIGN[kind])))
        t1 = F((-1) ** n * factorial(n)) * sum((
            comb(n, m) * cauchy_number(_OTHER[kind], m, k) / factorial(m) for m in range(n + 1)
        ), F(0))
        t2 = F((-1) ** n * factorial(n)) * sum((
            F((-1) ** m) * cauchy_number(kind, m, k) / factorial(m) for m in range(n + 1)
        ), F(0))
        return (t1, t2), (want, want)

    def lah_pair(n, k):
        lhs = (_c(n, k), _ch(n, k))
        rhs = (
            F((-1) ** n) * sum((lah(n, m) * _ch(m, k) for m in range(n + 1)), F(0)),
            F((-1) ** n) * sum((lah(n, m) * _c(m, k) for m in range(n + 1)), F(0)),
        )
        return lhs, rhs

    return [
        IdentityCase("G15.diffk1", "difference equation at general order, first kind", lambda g: _n_k(g, 1), partial(_diffk, "first")),
        IdentityCase("G15.diffk2", "difference equation at general order, second kind", lambda g: _n_k(g, 1), partial(_diffk, "second")),
        IdentityCase("G15.whitk1", "general order values at r/m from Whitney numbers", _whit_points, partial(_whitk, "first")),
        IdentityCase("G15.whitk2", "general order second kind at -r/m from Whitney numbers", _whit_points, partial(_whitk, "second")),
        IdentityCase("G15.symm5", "general order first kind from second-kind numbers", _n_k, _symm5),
        IdentityCase("G15.symm6", "general order second kind from first-kind numbers", _n_k, _symm6),
        IdentityCase("G15.symm7a", "self-number expansion with negated binomials, first kind", _n_k, partial(_symm_self, "first")),
        IdentityCase("G15.symm7b", "self-number expansion with rising factorials, first kind", _n_k, partial(_constructions, "gsn", "binomial_conv", "first")),
        IdentityCase("G15.symm8a", "self-number expansion with plain binomials, second kind", _n_k, partial(_symm_self, "second")),
        IdentityCase("G15.symm8b", "self-number expansion with falling factorials, second kind", _n_k, partial(_constructions, "gsn", "binomial_conv", "second")),
        IdentityCase("G15.reck1", "one-step recurrence at general order, first kind", lambda g: _n_k(g, 0, True), partial(_reck, "first")),
        IdentityCase("G15.genk1", "derivatives via higher-order Bernoulli at general order, first kind", _n_i_k, partial(_genk, "first")),
        IdentityCase("G15.genk2", "derivatives via higher-order Bernoulli at general order, second kind", _n_i_k, partial(_genk, "second")),
        IdentityCase("G15.derk1", "derivatives via own numbers at general order, first kind", _n_i_k, partial(_derk, "first")),
        IdentityCase("G15.derk2", "derivatives via own numbers at general order, second kind", _n_i_k, partial(_derk, "second")),
        IdentityCase("G15.korec1", "three-index shifted transform identity, first kind", _korec_points, partial(korec, "first")),
        IdentityCase("G15.korec2", "three-index shifted transform identity, second kind", _korec_points, partial(korec, "second")),
        IdentityCase("G15.korec1-s0", "shifted transform with column sums, first kind", _korec_s0_points, partial(korec_s0, "first")),
        IdentityCase("G15.korec2-s0", "shifted transform with column sums, second kind", _korec_s0_points, partial(korec_s0, "second")),
        IdentityCase("G15.val-at1", "two sums for the general-order value at 1", _n_k, partial(val_at, "first")),
        IdentityCase("G15.val-at-neg1", "two sums for the general-order second-kind value at -1", _n_k, partial(val_at, "second")),
        IdentityCase("G15.lah-pair", "the two kinds exchange through Lah-number transforms", _n_k, lah_pair),
        IdentityCase("G15.gbpk1", "general order first kind from higher-order Bernoulli polynomials", lambda g: _n_k(g, 0, True), partial(_genk, "first", i=0)),
        IdentityCase("G15.gbpk2", "general order second kind from higher-order Bernoulli polynomials", lambda g: _n_k(g, 0, True), partial(_genk, "second", i=0)),
    ]


def _g16():
    def int2(n, k):
        lhs = _cp(n, k).integrate_01()
        rhs = _c(n) - n * sum((_c(n, j) for j in range(1, k + 1)), F(0))
        return lhs, rhs

    def int3(n, k):
        lhs = _chp(n, k).integrate_01()
        if n == 0:
            return lhs, _ch(0)
        rhs = _ch(n) - n * sum((
            _ch(n, j) + (n - 1) * _ch(n - 1, j) for j in range(1, k + 1)
        ), F(0))
        return lhs, rhs

    return [
        IdentityCase("G16.int2", "unit integral at general order, first kind", _n_k, int2),
        IdentityCase("G16.int3", "unit integral at general order, second kind", _n_k, int3),
    ]


# Inner sums that do not depend on the outer index n of their case are
# memoised once per key (as is ``registry_core._s2_values``).  Each memo is
# bounded, and its maxsize exceeds the keys of the default grid and of a deep
# grid with max_n 24, max_n_double 12 and max_k 6 (1,092 and 576 keys), so
# neither run evicts and recomputes a sum.

@lru_cache(maxsize=2048)
def _kb_inner(kind, m, k, y):
    """G17.kb3/kb4's inner sum over l of (-e)^m/m! gsn1(m, l)(y) B_l^(k)(y)."""
    return sum((
        F((-KIND_SIGN[kind]) ** m, factorial(m)) * gsn1(m, l)(y) * poly_bernoulli_gsn(l, k)(y)
        for l in range(m + 1)
    ), F(0))


@lru_cache(maxsize=1024)
def _bernoulli_moments(e, m, k, start):
    """The Bernoulli-weighted moment polynomial of G18.poly*:
    sum_{start <= j <= m} e^j binom(m, j) B_(m-j) aux_poly(j, k)(x + e)."""
    return _lincomb(
        (e ** j * comb(m, j) * bernoulli_number(m - j), aux_poly(j, k).affine_compose(1, e))
        for j in range(start, m + 1)
    )


def _g17():
    def _pts(grid):
        return (
            {"n": n, "k": k, "y": y}
            for n in range(grid.max_n_double + 1)
            for k in range(1, grid.max_k + 1)
            for y in grid.xs
        )

    def kb12(kind, n, k, y):
        return poly_bernoulli_gsn(n, k), _s2_double(kind, n, k, y) * (-1) ** n

    def kb34(kind, n, k, y):
        rhs = _lincomb((_kb_inner(kind, m, k, y), gsn1(n, m)) for m in range(n + 1)) * (-1) ** n
        return _reflected(kind, n, k), rhs

    def kl12(kind, n, k):
        rhs = _lincomb((
            (-KIND_SIGN[kind]) ** m * factorial(m) * stirling2(n, m) * stirling2(m, l),
            cauchy_poly(kind, l, k),
        ) for m in range(n + 1) for l in range(m + 1)) * (-1) ** n
        return poly_bernoulli_kl(n, k), rhs

    def kl34(kind, n, k):
        rhs = _lincomb((
            F((-KIND_SIGN[kind]) ** m, factorial(m)) * stirling1(n, m) * stirling1(m, l),
            poly_bernoulli_kl(l, k),
        ) for m in range(n + 1) for l in range(m + 1)) * (-1) ** n
        return cauchy_poly(kind, n, k), rhs

    return [
        IdentityCase("G17.kb1", "poly-Bernoulli from double transforms of first-kind values", _pts, partial(kb12, "first")),
        IdentityCase("G17.kb2", "poly-Bernoulli from double transforms of second-kind values", _pts, partial(kb12, "second")),
        IdentityCase("G17.kb3", "general order first kind from poly-Bernoulli values", _pts, partial(kb34, "first")),
        IdentityCase("G17.kb4", "reflected second kind from poly-Bernoulli values", _pts, partial(kb34, "second")),
        IdentityCase("G17.kl1", "alternative poly-Bernoulli from first-kind polynomials", lambda g: _n_k(g, 0, True), partial(kl12, "first")),
        IdentityCase("G17.kl2", "alternative poly-Bernoulli from second-kind polynomials", lambda g: _n_k(g, 0, True), partial(kl12, "second")),
        IdentityCase("G17.kl3", "first kind back from the alternative poly-Bernoulli family", lambda g: _n_k(g, 0, True), partial(kl34, "first")),
        IdentityCase("G17.kl4", "second kind back from the alternative poly-Bernoulli family", lambda g: _n_k(g, 0, True), partial(kl34, "second")),
    ]


def _g18():
    def poly(kind, seeded, n, k):
        # seeded: start the inner sum at j = 0 and add the first-kind number
        e = KIND_SIGN[kind]
        if seeded:
            seed, start = Poly([_c(n)]), 0
        else:
            seed, start = (Poly([1]) if n == 1 else Poly()), 1
        rhs = seed + _lincomb(
            (F(stirling1(n - 1, m - 1), m), _bernoulli_moments(e, m, k, start))
            for m in range(1, n + 1)
        ) * ((-1) ** n * n)
        return cauchy_poly(kind, n, k), rhs

    def idc1(m):
        lhs = _lincomb(
            (comb(m, j) * bernoulli_number(m - j), aux_poly(j, 1).affine_compose(1, 1))
            for j in range(m + 1)
        )
        return lhs, Poly([0] * m + [1])

    def idc2(m):
        lhs = _lincomb(
            ((-1) ** (m - j) * comb(m, j) * bernoulli_number(m - j), aux_poly(j, 1))
            for j in range(m + 1)
        )
        return lhs, Poly([0] * m + [1])

    def _ms(grid):
        return ({"m": m} for m in range(grid.max_n + 1))

    return [
        IdentityCase("G18.poly1", "general order first kind from Bernoulli-weighted moment polynomials", lambda g: _n_k(g, 1), partial(poly, "first", False)),
        IdentityCase("G18.poly2", "general order second kind from Bernoulli-weighted moment polynomials", lambda g: _n_k(g, 1), partial(poly, "second", False)),
        IdentityCase("G18.poly5", "variant seeded by the classical first-kind number", lambda g: _n_k(g, 1), partial(poly, "first", True)),
        IdentityCase("G18.poly6", "second-kind variant seeded by the classical number", lambda g: _n_k(g, 1), partial(poly, "second", True)),
        IdentityCase("G18.idc1", "Bernoulli-weighted moment polynomials collapse to x^m", _ms, idc1),
        IdentityCase("G18.idc2", "alternating Bernoulli-weighted moments collapse to x^m", _ms, idc2),
    ]


def _g19():
    def moments_at(kind, m, k):
        # the Bernoulli-weighted moment polynomial of degree m at 1, or at -1
        # with alternating weights for the second kind
        return _bernoulli_moments(KIND_SIGN[kind], m, k, 0).constant()

    def th10(kind, n, k):
        rhs = _lincomb((
            F((-1) ** n, m),
            gsn1(n - 1, m - 1) * (bernoulli_poly(m) * (-1) ** m - moments_at(kind, m, k)),
        ) for m in range(1, n + 1))
        return _reflected(kind, n, k) / (-n), rhs

    def alt(kind, n, k):
        # (-x)^m for the first kind, (1-x)^m for the second
        rhs = Poly([cauchy_number(kind, n, 1)]) - _lincomb((
            F((-1) ** n, m),
            gsn1(n - 1, m - 1) * (Poly([(1 - KIND_SIGN[kind]) // 2, -1]) ** m - moments_at(kind, m, k)),
        ) for m in range(1, n + 1)) * n
        return _reflected(kind, n, k), rhs

    def k1_first(n):
        rhs = Poly([_c(n)]) - _lincomb(
            (1, gsn1(n - 1, m - 1) * Poly([0] * m + [F((-1) ** m, m)])) for m in range(1, n + 1)
        ) * ((-1) ** n * n)
        return _cp(n), rhs

    def _k1_second_variant(signed_weight: bool):
        def check(n):
            if signed_weight:
                rhs = Poly([_ch(n)]) - _lincomb(
                    (F((-1) ** m, m), gsn1(n - 1, m - 1) * (Poly([-1, 1]) ** m - 1))
                    for m in range(1, n + 1)
                ) * ((-1) ** n * n)
            else:
                rhs = Poly([_ch(n)]) - _lincomb(
                    (F(1, m), gsn1(n - 1, m - 1) * (Poly([1, -1]) ** m - 1))
                    for m in range(1, n + 1)
                ) * ((-1) ** n * n)
            return _chp(n).affine_compose(-1, 0), rhs

        return check

    return [
        IdentityCase("G19.th10-first", "general order first kind from Bernoulli polynomials and constants", lambda g: _n_k(g, 1), partial(th10, "first")),
        IdentityCase("G19.th10-second", "reflected general order second kind from Bernoulli data", lambda g: _n_k(g, 1), partial(th10, "second")),
        IdentityCase("G19.alt-first", "alternative with (-x)^m seeded by the classical number", lambda g: _n_k(g, 1), partial(alt, "first")),
        IdentityCase("G19.alt-second", "alternative with (1-x)^m seeded by the classical number", lambda g: _n_k(g, 1), partial(alt, "second")),
        IdentityCase("G19.k1-first", "order-one collapse of the alternative form, first kind", lambda g: _ns(g, 1), k1_first),
        IdentityCase(
            "G19.k1-second",
            "probe: order-one collapse of the second-kind alternative; the printed (-1)^m weight "
            "must not multiply the constant term",
            lambda g: _ns(g, 1),
            None,
            variants={
                "as-printed ((-1)^m/m, (x-1)^m - 1)": _k1_second_variant(True),
                "unsigned (1/m, (1-x)^m - 1)": _k1_second_variant(False),
            },
        ),
    ]


def _gen_euler(m: int, k: int) -> Poly:
    return _lincomb((
        2**j * comb(2 * m + 1, j) * bernoulli_number(j),
        aux_poly(2 * m + 1 - j, k).affine_compose(1, 1),
    ) for j in range(2 * m + 1))


def _g20():
    def _even_pts(grid):
        return (
            {"n": n, "k": k}
            for n in range(1, grid.max_n_double // 2 + 1)
            for k in range(1, grid.max_k + 1)
        )

    def th11_even(kind, n, k):
        e = KIND_SIGN[kind]
        rhs = _lincomb((
            F(central_u(n, m), m),
            _lincomb((
                e ** j * comb(2 * m, j) * bernoulli_number(j),
                aux_poly(2 * m - j, k).affine_compose(1, e * n),
            ) for j in range(2 * m)),
        ) for m in range(1, n + 1)) * n
        return cauchy_poly(kind, 2 * n, k), rhs

    def th11_odd(kind, n, k):
        e = KIND_SIGN[kind]
        rhs = _lincomb((
            F(central_u(n, m), 2 * m + 1),
            _lincomb((
                2**j * comb(2 * m + 1, j) * bernoulli_number(j),
                aux_poly(2 * m + 1 - j, k).affine_compose(1, e * n + 1),
            ) for j in range(2 * m + 1)),
        ) for m in range(1, n + 1)) * (-e * (2 * n + 1))
        return cauchy_poly(kind, 2 * n + 1, k), rhs

    def euler_odd(m):
        return euler_poly(2 * m + 1), _gen_euler(m, 1)

    def euler_at0(m):
        lhs = sum((
            F(2**j * comb(2 * m + 1, j)) * bernoulli_number(j) * aux_poly(2 * m + 1 - j, 1)(F(1))
            for j in range(2 * m + 1)
        ), F(0))
        rhs = F(1 - 2 ** (2 * m + 2), m + 1) * bernoulli_number(2 * m + 2)
        return lhs, rhs

    def euler_even(m):
        rhs = _lincomb((
            2**j * comb(2 * m, j) * bernoulli_number(j),
            aux_poly(2 * m - j, 1).affine_compose(1, 1) - aux_poly(2 * m - j, 1)(F(1)),
        ) for j in range(2 * m))
        return euler_poly(2 * m), rhs

    def gen_euler_odd(kind, n, k):
        return cauchy_poly(kind, 2 * n + 1, k), _odd_central(kind, n, partial(_gen_euler, k=k))

    def _ms1(grid):
        return ({"m": m} for m in range(1, grid.max_n // 2 + 1))

    return [
        IdentityCase("G20.even-first", "even general order first kind via central factorials", _even_pts, partial(th11_even, "first")),
        IdentityCase("G20.even-second", "even general order second kind via central factorials", _even_pts, partial(th11_even, "second")),
        IdentityCase("G20.odd-first", "odd general order first kind via central factorials", _even_pts, partial(th11_odd, "first")),
        IdentityCase("G20.odd-second", "odd general order second kind via central factorials", _even_pts, partial(th11_odd, "second")),
        IdentityCase("G20.euler-odd", "odd Euler polynomials from Bernoulli-weighted moments", _ms1, euler_odd),
        IdentityCase("G20.euler-at0", "odd Euler value at 0 via the next Bernoulli number", _ms1, euler_at0),
        IdentityCase("G20.euler-even", "even Euler polynomials from centered moment differences", _ms1, euler_even),
        IdentityCase("G20.gen-euler-odd-first", "odd first kind through generalized Euler polynomials", _even_pts, partial(gen_euler_odd, "first")),
        IdentityCase("G20.gen-euler-odd-second", "odd second kind through generalized Euler polynomials", _even_pts, partial(gen_euler_odd, "second")),
    ]


@lru_cache(maxsize=None)
def _mc(kind: str, n: int, k: int, a: int, q, L, y) -> Poly:
    return multiparam_cauchy(kind, MultiParam(n, k, a, q, L, y))


@lru_cache(maxsize=None)
def _mpb(n: int, k: int, a: int, q, L, y) -> Poly:
    return multiparam_poly_bernoulli(n, k, a, q, L, y)


def _bivariate_fixed_q(n: int, m: int, q) -> Poly:
    """First-kind bivariate Stirling polynomial with q fixed: a Poly in y."""
    return Poly([c * q**(n - m - i) for i, c in enumerate(gsn1(n, m).coeffs)])


def _transpose(rows: tuple) -> tuple:
    """Swap the two variables of rows[i], the coefficient of x^i as a Poly in y."""
    height = max((r.degree for r in rows), default=-1) + 1
    return tuple(Poly([r[j] for r in rows]) for j in range(height))


# the two halves of the value at sqrt(5) recorded for G21.golden, by kind
_GOLDEN = {
    "first": (F(114177911, 144000), F(-284203, 768)),
    "second": (F(14046697, 288000), F(10805, 768)),
}


def _g21():
    def _mp_points(grid):
        return (
            {"n": n, "a": a, "q": q, "L": L, "y": y}
            for n in range(grid.max_n_multi + 1)
            for a in range(1, grid.max_a + 1)
            for q in grid.qs
            for L in grid.ls
            for y in grid.ys_multi
        )

    def _shif_points(grid):
        return (
            {"n": n, "a": a, "q": q, "L": L}
            for n in range(grid.max_n_multi + 1)
            for a in range(1, grid.max_a + 1)
            for q in grid.qs
            for L in grid.ls
        )

    def shif(kind, n, a, q, L):
        k = len(L)
        lhs = multiparam_cauchy(kind, MultiParam(n, k, a, q, L, 0), "integral").constant()
        return Fraction(lhs), shifted_cauchy_number(kind, n, k, a, q, L)

    def para(kind, n, a, q, L, y):
        p = MultiParam(n, len(L), a, q, L, y)
        return multiparam_cauchy(kind, p, "integral"), _mc(kind, n, len(L), a, q, L, y)

    def x0(kind, n, a, q, L, y):
        k = len(L)
        w = prod(L)
        e = KIND_SIGN[kind]
        point = e * y
        rhs = sum((
            F((-1) ** n * (-e) ** m) * gsn1_bivariate_at(n, m, point, q)
            * w ** (m + a) / F((m + a) ** k)
            for m in range(n + 1)
        ), F(0))
        return Fraction(_mc(kind, n, k, a, q, L, y).constant()), rhs

    def reduce_ordinary(n, k):
        ones = (F(1),) * k
        lhs = (
            _mc("first", n, k, 1, F(1), ones, F(0)),
            _mc("second", n, k, 1, F(1), ones, F(0)),
        )
        return lhs, (_cp(n, k), _chp(n, k))

    def _sym_points(grid):
        return (
            {"n": n, "q": q, "L": L}
            for n in range(grid.max_n_multi + 1)
            for q in grid.qs
            for L in grid.ls
        )

    def sym_xy(n, q, L):
        # each side as rows: row i is the coefficient of x^i, a Poly in y
        k = len(L)
        first = [Poly()] * (n + 1)
        second = [Poly()] * (n + 1)
        for m in range(n + 1):
            ypoly = _bivariate_fixed_q(n, m, q)
            yneg = ypoly.affine_compose(-1, 0) * (-1) ** (n - m)
            for i, fc in enumerate(aux_poly_weighted(m, k, L).coeffs):
                first[i] = first[i] + ypoly * fc
                second[i] = second[i] + yneg * fc
        first = tuple(r * (-1) ** n for r in first)
        second = tuple(second)
        return (first, second), (_transpose(first), _transpose(second))

    def golden(kind):
        p = MultiParam(4, 3, 1, F(-3), (F(1), F(1), F(1, 2)), F(-3, 2))
        return eval_at_sqrt(multiparam_cauchy(kind, p), 5), _GOLDEN[kind]

    def negq(n, a, q, L, y):
        k = len(L)
        lhs = _mc("first", n, k, a, q, L, y)
        rhs = _mc("second", n, k, a, -q, L, y) * (-1) ** n
        return lhs, rhs

    def _mpb_points(grid):
        top = min(grid.max_n_multi, 3)
        return (
            {"n": n, "a": a, "q": q, "L": L, "y": y}
            for n in range(top + 1)
            for a in range(1, min(grid.max_a, 2) + 1)
            for q in grid.qs
            for L in grid.ls
            for y in grid.ys_multi
        )

    # the double sums over l <= m <= n are summed over m first, so each
    # memoised polynomial of index l is scaled once
    def mpb12(kind, n, a, q, L, y):
        k = len(L)
        e = KIND_SIGN[kind]
        point = e * y
        outer = [F((-e) ** m * factorial(m)) * gsn2_bivariate_at(n, m, y, q) for m in range(n + 1)]
        rhs = _lincomb((
            sum((outer[m] * gsn2_bivariate_at(m, l, point, q) for m in range(l, n + 1)), F(0)),
            _mc(kind, l, k, a, q, L, y),
        ) for l in range(n + 1)) * (-1) ** (n + a - 1)
        return _mpb(n, k, a, q, L, y), rhs

    def mpb34(kind, n, a, q, L, y):
        k = len(L)
        e = KIND_SIGN[kind]
        point = e * y
        outer = [F((-e) ** m, factorial(m)) * gsn1_bivariate_at(n, m, point, q) for m in range(n + 1)]
        rhs = _lincomb((
            sum((outer[m] * gsn1_bivariate_at(m, l, y, q) for m in range(l, n + 1)), F(0)),
            _mpb(l, k, a, q, L, y),
        ) for l in range(n + 1)) * (-1) ** (n + a - 1)
        return _mc(kind, n, k, a, q, L, y), rhs

    def mpb_reduce(n, k):
        ones = (F(1),) * k
        return _mpb(n, k, 1, F(1), ones, F(0)), poly_bernoulli_kl(n, k)

    def _nk3(grid):
        return (
            {"n": n, "k": k}
            for n in range(grid.max_n_double + 1)
            for k in range(1, min(grid.max_k, 3) + 1)
        )

    def _single(grid):
        return ({},)

    return [
        IdentityCase("G21.shif1", "shifted numbers match the integral construction, first kind", _shif_points, partial(shif, "first")),
        IdentityCase("G21.shif2", "shifted numbers match the integral construction, second kind", _shif_points, partial(shif, "second")),
        IdentityCase("G21.para1", "bivariate Stirling expansion equals the integral oracle, first kind", _mp_points, partial(para, "first")),
        IdentityCase("G21.para2", "bivariate Stirling expansion equals the integral oracle, second kind", _mp_points, partial(para, "second")),
        IdentityCase("G21.x0-first", "value at 0 from bivariate Stirling sums, first kind", _mp_points, partial(x0, "first")),
        IdentityCase("G21.x0-second", "value at 0 from bivariate Stirling sums, second kind", _mp_points, partial(x0, "second")),
        IdentityCase("G21.reduce", "unit parameters reduce to the ordinary general-order family", _nk3, reduce_ordinary),
        IdentityCase("G21.reduce-display-first", "plain-triangle moment expansion, first kind", _nk3, partial(_moments, "first")),
        IdentityCase("G21.reduce-display-second", "plain-triangle moment expansion, second kind", _nk3, partial(_moments, "second")),
        IdentityCase("G21.sym-xy", "with unit shift the two free arguments commute (bivariate equality)", _sym_points, sym_xy),
        IdentityCase("G21.golden-first", "irrational-point evaluation splits to the recorded pair, first kind", _single, partial(golden, "first")),
        IdentityCase("G21.golden-second", "irrational-point evaluation splits to the recorded pair, second kind", _single, partial(golden, "second")),
        IdentityCase("G21.negq", "negating the step exchanges the kinds up to sign", _mp_points, negq),
        IdentityCase("G21.mpb1", "multiparameter poly-Bernoulli from first-kind values", _mpb_points, partial(mpb12, "first")),
        IdentityCase("G21.mpb2", "multiparameter poly-Bernoulli from second-kind values", _mpb_points, partial(mpb12, "second")),
        IdentityCase("G21.mpb3", "first kind back from multiparameter poly-Bernoulli values", _mpb_points, partial(mpb34, "first")),
        IdentityCase("G21.mpb4", "second kind back from multiparameter poly-Bernoulli values", _mpb_points, partial(mpb34, "second")),
        IdentityCase("G21.mpb-reduce", "unit parameters reduce to the alternative poly-Bernoulli family", _nk3, mpb_reduce),
    ]


def _g22():
    def hp(kind, n, y):
        e = KIND_SIGN[kind]
        # harmonic polynomials at x + 1 for the first kind, x + 2 for the second
        lhs = _lincomb((
            F((-1) ** m, factorial(n - m)) * cauchy_poly(kind, n - m, 1)(y),
            harmonic_poly(m).affine_compose(1, (3 - e) // 2),
        ) for m in range(n + 1))
        return lhs, binom_poly(-e * y, 1, n)

    def hp3(n):
        rhs = binom_poly(0, 1, n) - _lincomb(
            (F((-1) ** m, factorial(n - m - 1)) * _c(n - m), harmonic_poly(m).affine_compose(1, 1))
            for m in range(n)
        )
        return _chp(n) / factorial(n), rhs

    def _compare_variant(shift):
        # shift: the argument of the first-kind polynomials on the left side
        def check(n):
            lhs = _lincomb((
                F((-1) ** m, factorial(m) * (n - m + 1) * (n - m + 2)),
                _cp(m).affine_compose(-1, shift),
            ) for m in range(n + 1))
            rhs = _lincomb(
                (F((-1) ** (n - m)) * _c(n + 1 - m) / factorial(n - m), harmonic_poly(m))
                for m in range(n + 1)
            )
            return lhs, rhs

        return check

    def _x0_printed(n):
        lhs = sum((
            F((-1) ** m) * _c(n - m) / (factorial(n - m) * (m + 1) * (m + 2))
            for m in range(n + 1)
        ), F(0))
        rhs = sum((
            F((-1) ** m) * _c(n + 1 - m) / factorial(n - m) * harmonic_number(m + 1)
            for m in range(n + 1)
        ), F(0))
        return lhs, rhs

    def _x0_shifted(n):
        lhs = sum((
            F((-1) ** m) * F(_cp(m)(F(2))) / (factorial(m) * (n + 1 - m) * (n + 2 - m))
            for m in range(n + 1)
        ), F(0))
        rhs = sum((
            F((-1) ** (n - m)) * _c(n + 1 - m) / factorial(n - m) * harmonic_number(m + 1)
            for m in range(n + 1)
        ), F(0))
        return lhs, rhs

    return [
        IdentityCase("G22.hp1", "harmonic-polynomial convolution of the first kind gives a binomial", _n_y, partial(hp, "first")),
        IdentityCase("G22.hp2", "harmonic-polynomial convolution of the second kind gives a binomial", _n_y, partial(hp, "second")),
        IdentityCase("G22.hp3", "second kind from first-kind numbers and harmonic polynomials", lambda g: _ns(g, 1), hp3),
        IdentityCase(
            "G22.compare-hyp5",
            "probe: displayed comparison identity; the printed argument -x needs the shift 2-x",
            _ns,
            None,
            variants={"as-printed (-x)": _compare_variant(0), "argument-shifted (2-x)": _compare_variant(2)},
        ),
        IdentityCase(
            "G22.compare-hyp5-x0",
            "probe: number specialization of the comparison identity",
            _ns,
            None,
            variants={"as-printed": lambda n: _x0_printed(n), "argument-shifted": lambda n: _x0_shifted(n)},
        ),
    ]


def build() -> list[IdentityCase]:
    cases = []
    for builder in (_g14, _g15, _g16, _g17, _g18, _g19, _g20, _g21, _g22):
        cases.extend(builder())
    return cases
