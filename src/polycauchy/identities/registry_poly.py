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
``_genk``, ``_constructions``) instead of writing the sum again.  A case's
points are a tuple of ``engine.Axis``: ``registry_core``'s n, k, i and y,
the multiparameter axes declared before G21, or an axis of its own."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial

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
    _moment_sum,
    _weight_ratio,
    aux_poly,
    cauchy_number,
    cauchy_poly,
    multiparam_cauchy,
    shifted_cauchy_number,
)
from ..harmonic import harmonic_number, harmonic_poly, hyperharmonic_poly
from ..poly import Poly, _dot, _homogenised_row, _lincomb, _scale_each, _weighted_sum, binom_poly, eval_at_sqrt
from ..stirling import _bivariate_row, central_u, gsn1, lah, stirling1, stirling2
from .engine import Axis, IdentityCase
from .registry_core import (
    F, _I, _K, _N, _N1, _ND, _ND1, _Y, _c, _ch, _chp, _constructions, _conv, _cor2, _cp, _derk, _diffk, _genk,
    _inv, _odd_central, _pro4, _reck, _reflected, _s2_double, _symm_other, _symm_self, _weighted_stirling, _whitk,
)


def _moments(kind, n, k):
    """The kind's polynomial as moment polynomials over the plain Stirling triangle."""
    rhs = _lincomb(
        ((-1) ** n * KIND_SIGN[kind] ** m * stirling1(n, m), aux_poly(m, k)) for m in range(n + 1)
    )
    return cauchy_poly(kind, n, k), rhs


def _g14():
    return [
        IdentityCase("G14.pro41", "general order first kind as weighted Stirling polynomial sums", (_N, _K), partial(_pro4, "first")),
        IdentityCase("G14.pro42", "general order second kind at -x as weighted Stirling sums", (_N, _K), partial(_pro4, "second")),
        IdentityCase("G14.cor2a", "closed-form coefficients at general order, first kind", (_N, _K), partial(_cor2, "first")),
        IdentityCase("G14.cor2b", "closed-form coefficients at general order, second kind", (_N, _K), partial(_cor2, "second")),
        IdentityCase("G14.back1", "double-sum expansion over the plain triangle, first kind", (_N, _K), partial(_moments, "first")),
        IdentityCase("G14.back2", "double-sum expansion over the plain triangle, second kind", (_N, _K), partial(_moments, "second")),
        IdentityCase("G14.inv-a", "inverted expansion gives 1/(n+1)^k", (_N, _K), partial(_inv, "first")),
        IdentityCase("G14.inv-b", "inverted reflected expansion gives (-1)^n/(n+1)^k", (_N, _K), partial(_inv, "second")),
    ]


def _g15():
    whit = (_ND, _K, Axis("m", values=(1, 2, -2)), Axis("r", values=(-2, 1, 3), cap="max_r"))
    korec_axes = (_ND, _K, Axis("r", "n", cap="max_r"), Axis("s", "r"))

    def korec(kind, n, k, r, s):
        e = KIND_SIGN[kind]
        values = _homogenised_row([cauchy_poly(kind, m - s, k) for m in range(r, n + 1)], e * s, 1)
        lhs = _dot(_bivariate_row("second", n - r, r, 1), values)
        # (-1)^(r-l) for the first kind, (-1)^(n-s) for the second: the row over
        # j = l - s weighted by 1/(n-r+1+j)^k
        return lhs, _weighted_stirling(r - s, s, 1, n - r + 1, k, -e) * ((-1) ** (n - s) * (-e) ** (n + r))

    def korec_s0(kind, n, k, r):
        e = KIND_SIGN[kind]
        lhs = _dot(_bivariate_row("second", n, r, 1), Poly([cauchy_number(kind, m + r, k) for m in range(n + 1)]))
        # (-1)^(r-l) [r l] for the first kind, (-1)^(n+r) [r l] for the second, over (n+l+1)^k
        return lhs, _weighted_stirling(r, 0, 1, n + 1, k, -e) * ((-1) ** (n + r) * (-e) ** n)

    def val_at(kind, n, k):
        want = F(cauchy_poly(kind, n, k)(F(KIND_SIGN[kind])))
        t1 = _conv(_OTHER[kind], n, k, partial(comb, n))
        t2 = _conv(kind, n, k, partial(pow, -1))
        return (t1, t2), (want, want)

    def lah_pair(n, k):
        rhs = tuple(F((-1) ** n) * sum((lah(n, m) * cauchy_number(_OTHER[kind], m, k) for m in range(n + 1)), F(0))
                    for kind in KIND_SIGN)
        return (_c(n, k), _ch(n, k)), rhs

    return [
        IdentityCase("G15.diffk1", "difference equation at general order, first kind", (_N1, _K), partial(_diffk, "first")),
        IdentityCase("G15.diffk2", "difference equation at general order, second kind", (_N1, _K), partial(_diffk, "second")),
        IdentityCase("G15.whitk1", "general order values at r/m from Whitney numbers", whit, partial(_whitk, "first")),
        IdentityCase("G15.whitk2", "general order second kind at -r/m from Whitney numbers", whit, partial(_whitk, "second")),
        IdentityCase("G15.symm5", "general order first kind from second-kind numbers", (_N, _K), partial(_symm_other, "first")),
        IdentityCase("G15.symm6", "general order second kind from first-kind numbers", (_N, _K), partial(_symm_other, "second")),
        IdentityCase("G15.symm7a", "self-number expansion with negated binomials, first kind", (_N, _K), partial(_symm_self, "first")),
        IdentityCase("G15.symm7b", "self-number expansion with rising factorials, first kind", (_N, _K), partial(_constructions, "gsn", "binomial_conv", "first")),
        IdentityCase("G15.symm8a", "self-number expansion with plain binomials, second kind", (_N, _K), partial(_symm_self, "second")),
        IdentityCase("G15.symm8b", "self-number expansion with falling factorials, second kind", (_N, _K), partial(_constructions, "gsn", "binomial_conv", "second")),
        IdentityCase("G15.reck1", "one-step recurrence at general order, first kind", (_ND, _K), partial(_reck, "first")),
        IdentityCase("G15.genk1", "derivatives via higher-order Bernoulli at general order, first kind", (_ND, _I, _K), partial(_genk, "first")),
        IdentityCase("G15.genk2", "derivatives via higher-order Bernoulli at general order, second kind", (_ND, _I, _K), partial(_genk, "second")),
        IdentityCase("G15.derk1", "derivatives via own numbers at general order, first kind", (_ND, _I, _K), partial(_derk, "first")),
        IdentityCase("G15.derk2", "derivatives via own numbers at general order, second kind", (_ND, _I, _K), partial(_derk, "second")),
        IdentityCase("G15.korec1", "three-index shifted transform identity, first kind", korec_axes, partial(korec, "first")),
        IdentityCase("G15.korec2", "three-index shifted transform identity, second kind", korec_axes, partial(korec, "second")),
        IdentityCase("G15.korec1-s0", "shifted transform with column sums, first kind", (_ND, _K, Axis("r", "max_r")), partial(korec_s0, "first")),
        IdentityCase("G15.korec2-s0", "shifted transform with column sums, second kind", (_ND, _K, Axis("r", "max_r")), partial(korec_s0, "second")),
        IdentityCase("G15.val-at1", "two sums for the general-order value at 1", (_N, _K), partial(val_at, "first")),
        IdentityCase("G15.val-at-neg1", "two sums for the general-order second-kind value at -1", (_N, _K), partial(val_at, "second")),
        IdentityCase("G15.lah-pair", "the two kinds exchange through Lah-number transforms", (_N, _K), lah_pair),
        IdentityCase("G15.gbpk1", "general order first kind from higher-order Bernoulli polynomials", (_ND, _K), partial(_genk, "first", i=0)),
        IdentityCase("G15.gbpk2", "general order second kind from higher-order Bernoulli polynomials", (_ND, _K), partial(_genk, "second", i=0)),
    ]


def _g16():
    def unit_integral(kind, n, k):
        # the (n - 1) c_(n-1) term is the second kind's only, and c_(-1) is not defined
        lhs = cauchy_poly(kind, n, k).integrate_01()
        if n == 0:
            return lhs, cauchy_number(kind, 0, 1)
        tail = (1 - KIND_SIGN[kind]) // 2 * (n - 1)
        rhs = cauchy_number(kind, n, 1) - n * sum((
            cauchy_number(kind, n, j) + tail * cauchy_number(kind, n - 1, j) for j in range(1, k + 1)
        ), F(0))
        return lhs, rhs

    return [
        IdentityCase("G16.int2", "unit integral at general order, first kind", (_N, _K), partial(unit_integral, "first")),
        IdentityCase("G16.int3", "unit integral at general order, second kind", (_N, _K), partial(unit_integral, "second")),
    ]


# Inner sums that do not depend on the outer index n of their case are
# memoised once per key (as is ``registry_core._s2_values``).  Each memo is
# bounded, and its maxsize exceeds the keys of the default grid and of the
# deep grid, with max_n 36, max_n_double 16 and max_k 6 (1,428 and 864 keys),
# so neither run evicts and recomputes a sum.  A value read once per point
# is not memoised: the r-Whitney sums of G08/G15 and the G15.korec* sums
# are each one row of values per point.

@lru_cache(maxsize=2048)
def _kb_inner(kind, m, k, y_num, y_den):
    """G17.kb3/kb4's inner sum over l of (-e)^m/m! gsn1(m, l)(y) B_l^(k)(y), for
    y = y_num/y_den: (-e)^m/m! times the first-kind row against the
    poly-Bernoulli values.  y is keyed by two ints, as for ``_s2_values``."""
    y = F(y_num, y_den)
    values = _homogenised_row([poly_bernoulli_gsn(l, k) for l in range(m + 1)], y, 1)
    return _dot(_bivariate_row("first", m, y, 1), values) * F((-KIND_SIGN[kind]) ** m, factorial(m))


@lru_cache(maxsize=1024)
def _bernoulli_moments(e, m, k, start):
    """The Bernoulli-weighted moment polynomial of G18.poly*:
    sum_{start <= j <= m} e^j binom(m, j) B_(m-j) aux_poly(j, k)(x + e)."""
    return _lincomb(
        (e ** j * comb(m, j) * bernoulli_number(m - j), aux_poly(j, k).affine_compose(1, e))
        for j in range(start, m + 1)
    )


def _g17():
    def kb12(kind, n, k, y):
        return poly_bernoulli_gsn(n, k), _s2_double(kind, n, k, y) * (-1) ** n

    def kb34(kind, n, k, y):
        a, b = y.numerator, y.denominator
        weights = Poly([_kb_inner(kind, m, k, a, b) for m in range(n + 1)]) * (-1) ** n
        return _reflected(kind, n, k), _weighted_sum(weights, [gsn1(n, m) for m in range(n + 1)])

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
        IdentityCase("G17.kb1", "poly-Bernoulli from double transforms of first-kind values", (_ND, _K, _Y), partial(kb12, "first")),
        IdentityCase("G17.kb2", "poly-Bernoulli from double transforms of second-kind values", (_ND, _K, _Y), partial(kb12, "second")),
        IdentityCase("G17.kb3", "general order first kind from poly-Bernoulli values", (_ND, _K, _Y), partial(kb34, "first")),
        IdentityCase("G17.kb4", "reflected second kind from poly-Bernoulli values", (_ND, _K, _Y), partial(kb34, "second")),
        IdentityCase("G17.kl1", "alternative poly-Bernoulli from first-kind polynomials", (_ND, _K), partial(kl12, "first")),
        IdentityCase("G17.kl2", "alternative poly-Bernoulli from second-kind polynomials", (_ND, _K), partial(kl12, "second")),
        IdentityCase("G17.kl3", "first kind back from the alternative poly-Bernoulli family", (_ND, _K), partial(kl34, "first")),
        IdentityCase("G17.kl4", "second kind back from the alternative poly-Bernoulli family", (_ND, _K), partial(kl34, "second")),
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
        return _bernoulli_moments(1, m, 1, 0), Poly([0] * m + [1])

    def idc2(m):
        lhs = _lincomb(
            ((-1) ** (m - j) * comb(m, j) * bernoulli_number(m - j), aux_poly(j, 1))
            for j in range(m + 1)
        )
        return lhs, Poly([0] * m + [1])

    return [
        IdentityCase("G18.poly1", "general order first kind from Bernoulli-weighted moment polynomials", (_N1, _K), partial(poly, "first", False)),
        IdentityCase("G18.poly2", "general order second kind from Bernoulli-weighted moment polynomials", (_N1, _K), partial(poly, "second", False)),
        IdentityCase("G18.poly5", "variant seeded by the classical first-kind number", (_N1, _K), partial(poly, "first", True)),
        IdentityCase("G18.poly6", "second-kind variant seeded by the classical number", (_N1, _K), partial(poly, "second", True)),
        IdentityCase("G18.idc1", "Bernoulli-weighted moment polynomials collapse to x^m", (replace(_N, name="m"),), idc1),
        IdentityCase("G18.idc2", "alternating Bernoulli-weighted moments collapse to x^m", (replace(_N, name="m"),), idc2),
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

    def _k1_second_variant(sign):
        # sign -1: the printed (-1)^m/m against (x-1)^m - 1; sign 1: 1/m against (1-x)^m - 1
        def check(n):
            rhs = Poly([_ch(n)]) - _lincomb(
                (F(sign**m, m), gsn1(n - 1, m - 1) * (Poly([sign, -sign]) ** m - 1))
                for m in range(1, n + 1)
            ) * ((-1) ** n * n)
            return _chp(n).affine_compose(-1, 0), rhs

        return check

    return [
        IdentityCase("G19.th10-first", "general order first kind from Bernoulli polynomials and constants", (_N1, _K), partial(th10, "first")),
        IdentityCase("G19.th10-second", "reflected general order second kind from Bernoulli data", (_N1, _K), partial(th10, "second")),
        IdentityCase("G19.alt-first", "alternative with (-x)^m seeded by the classical number", (_N1, _K), partial(alt, "first")),
        IdentityCase("G19.alt-second", "alternative with (1-x)^m seeded by the classical number", (_N1, _K), partial(alt, "second")),
        IdentityCase("G19.k1-first", "order-one collapse of the alternative form, first kind", (_N1,), k1_first),
        IdentityCase(
            "G19.k1-second",
            "probe: order-one collapse of the second-kind alternative; the printed (-1)^m weight "
            "must not multiply the constant term",
            (_N1,),
            None,
            variants={
                "as-printed ((-1)^m/m, (x-1)^m - 1)": _k1_second_variant(-1),
                "unsigned (1/m, (1-x)^m - 1)": _k1_second_variant(1),
            },
        ),
    ]


def _gen_euler(d: int, k: int) -> Poly:
    """sum_{j < d} 2^j binom(d, j) B_j aux_poly(d - j, k)(x + 1): for odd d the
    generalized Euler polynomial of degree d, at k = 1 the Euler polynomial."""
    return _lincomb((
        2**j * comb(d, j) * bernoulli_number(j),
        aux_poly(d - j, k).affine_compose(1, 1),
    ) for j in range(d))


def _g20():
    half = (replace(_ND1, per=2), _K)  # 1 <= n <= max_n_double // 2
    half_m = (replace(_N1, name="m", per=2),)  # 1 <= m <= max_n // 2

    def th11_even(kind, n, k):
        # the inner sum over j < 2m of e^j binom(2m, j) B_j aux_poly(2m - j, k)(x + en)
        e = KIND_SIGN[kind]
        rhs = _lincomb((
            F(central_u(n, m), m),
            _bernoulli_moments(e, 2 * m, k, 1).affine_compose(1, e * (n - 1)),
        ) for m in range(1, n + 1)) * n
        return cauchy_poly(kind, 2 * n, k), rhs

    def euler_odd(m):
        return euler_poly(2 * m + 1), _gen_euler(2 * m + 1, 1)

    def euler_at0(m):
        rhs = F(1 - 2 ** (2 * m + 2), m + 1) * bernoulli_number(2 * m + 2)
        return F(_gen_euler(2 * m + 1, 1)(0)), rhs

    def euler_even(m):
        g = _gen_euler(2 * m, 1)
        return euler_poly(2 * m), g - g(0)

    def gen_euler_odd(kind, n, k):
        return cauchy_poly(kind, 2 * n + 1, k), _odd_central(kind, n, partial(_gen_euler, k=k))

    return [
        IdentityCase("G20.even-first", "even general order first kind via central factorials", half, partial(th11_even, "first")),
        IdentityCase("G20.even-second", "even general order second kind via central factorials", half, partial(th11_even, "second")),
        IdentityCase("G20.odd-first", "odd general order first kind via central factorials", half, partial(gen_euler_odd, "first")),
        IdentityCase("G20.odd-second", "odd general order second kind via central factorials", half, partial(gen_euler_odd, "second")),
        IdentityCase("G20.euler-odd", "odd Euler polynomials from Bernoulli-weighted moments", half_m, euler_odd),
        IdentityCase("G20.euler-at0", "odd Euler value at 0 via the next Bernoulli number", half_m, euler_at0),
        IdentityCase("G20.euler-even", "even Euler polynomials from centered moment differences", half_m, euler_even),
        IdentityCase("G20.gen-euler-odd-first", "odd first kind through generalized Euler polynomials", half, partial(gen_euler_odd, "first")),
        IdentityCase("G20.gen-euler-odd-second", "odd second kind through generalized Euler polynomials", half, partial(gen_euler_odd, "second")),
    ]


# The multiparameter polynomials, memoised by the parameters' integer ratios
# (``_ratios``): hashing the Fractions q, L and y at every lookup cost more than
# the rest of it.  The key is one flat tuple, the smallest to keep.
def _ratios(q, L, y) -> tuple:
    """The numerators and denominators of q, y and then each weight of L, one
    memo key."""
    return (q.numerator, q.denominator, y.numerator, y.denominator,
            *[r for l in L for r in (l.numerator, l.denominator)])


def _fractions(key: tuple) -> tuple:
    """q, L and y back from their ``_ratios`` key."""
    return F(key[0], key[1]), tuple([F(*key[i:i + 2]) for i in range(4, len(key), 2)]), F(key[2], key[3])


@lru_cache(maxsize=4096)
def _mc(kind: str, n: int, a: int, key: tuple) -> Poly:
    q, L, y = _fractions(key)
    return multiparam_cauchy(kind, MultiParam(n, len(L), a, q, L, y))


@lru_cache(maxsize=512)
def _mpb(n: int, a: int, key: tuple) -> Poly:
    q, L, y = _fractions(key)
    return multiparam_poly_bernoulli(n, len(L), a, q, L, y)


def _transpose(rows: tuple) -> tuple:
    """Swap the two variables of rows[i], the coefficient of x^i as a Poly in y."""
    height = max((r.degree for r in rows), default=-1) + 1
    return tuple(Poly([r[j] for r in rows]) for j in range(height))


# the two halves of the value at sqrt(5) recorded for G21.golden, by kind
_GOLDEN = {
    "first": (F(114177911, 144000), F(-284203, 768)),
    "second": (F(14046697, 288000), F(10805, 768)),
}


# the multiparameter axes: index n, shift a, step q, weight list L and offset y
_NM, _A, _Q, _L, _YM = (Axis("n", "max_n_multi"), Axis("a", "max_a", start=1), Axis("q", values="qs"),
                        Axis("L", values="ls"), Axis("y", values="ys_multi"))


def _g21():
    mp = (_NM, _A, _Q, _L, _YM)

    def shif(kind, n, a, q, L):
        k = len(L)
        lhs = multiparam_cauchy(kind, MultiParam(n, k, a, q, L, 0), "integral").constant()
        return Fraction(lhs), shifted_cauchy_number(kind, n, k, a, q, L)

    def para(kind, n, a, q, L, y):
        p = MultiParam(n, len(L), a, q, L, y)
        return multiparam_cauchy(kind, p, "integral"), _mc(kind, n, a, _ratios(q, L, y))

    def x0(kind, n, a, q, L, y):
        # sum_m (-1)^n (-e)^m q^(n-m) [n m]_(ey/q) w^(m+a) / (m+a)^k, w = u/v
        e = KIND_SIGN[kind]
        u, v = _weight_ratio(L)
        rhs = _weighted_stirling(n, e * y, q, a, len(L), F(-e * u, v)) * F((-1) ** n * u**a, v**a)
        return Fraction(_mc(kind, n, a, _ratios(q, L, y)).constant()), rhs

    def unit(k):
        # the key of q = 1, y = 0 and L = (1, ..., 1)
        return _ratios(F(1), (F(1),) * k, F(0))

    def reduce_ordinary(n, k):
        return (_mc("first", n, 1, unit(k)), _mc("second", n, 1, unit(k))), (_cp(n, k), _chp(n, k))

    def sym_xy(n, q, L):
        # each side as rows: row i is the coefficient of x^i, a Poly in y.  The
        # coefficient of y^j of the first side is (-1)^n times the moment sum of
        # gsn1(n, m)[j] q^(n-m-j), for q = c/d; the second side's carries
        # (-1)^(n+j+m) in place of (-1)^n.  Each side's rows are those sums
        # transposed, and its transpose is the sums themselves.
        k = len(L)
        c, d = q.as_integer_ratio()
        first, second = [], []
        for j in range(n + 1):
            nums = [gsn1(n, m)[j] * c ** (n - m - j) * d**m for m in range(n - j + 1)]
            den = d ** (n - j)
            first.append(_moment_sum(Poly(nums) / ((-1) ** n * den), k, L))
            second.append(_moment_sum(Poly([(-1) ** (n + j + m) * u for m, u in enumerate(nums)]) / den, k, L))
        return (_transpose(first), _transpose(second)), (tuple(first), tuple(second))

    def golden(kind):
        p = MultiParam(4, 3, 1, F(-3), (F(1), F(1), F(1, 2)), F(-3, 2))
        return eval_at_sqrt(multiparam_cauchy(kind, p), 5), _GOLDEN[kind]

    def negq(n, a, q, L, y):
        return _mc("first", n, a, _ratios(q, L, y)), _mc("second", n, a, _ratios(-q, L, y)) * (-1) ** n

    mpb = (replace(_NM, cap=3), replace(_A, cap=2), _Q, _L, _YM)

    # the double sums over l <= m <= n are summed over m first: the outer row's
    # values weight the inner rows, whose coefficient l is the value at (m, l),
    # so each memoised polynomial of index l is scaled once; the outer row's
    # integer scales carry every sign
    def mpb12(kind, n, a, q, L, y):
        e = KIND_SIGN[kind]
        key, ey, sign = _ratios(q, L, y), e * y, (-1) ** (n + a - 1)
        outer = _bivariate_row("second", n, y, q, [sign * (-e) ** m * factorial(m) for m in range(n + 1)])
        inner = _weighted_sum(outer, [_bivariate_row("second", m, ey, q) for m in range(n + 1)])
        return _mpb(n, a, key), _weighted_sum(inner, [_mc(kind, l, a, key) for l in range(n + 1)])

    def mpb34(kind, n, a, q, L, y):
        # the weights (-e)^m/m! as the integers n!/m! over n!
        e = KIND_SIGN[kind]
        key, sign = _ratios(q, L, y), (-1) ** (n + a - 1)
        outer = _bivariate_row("first", n, e * y, q,
                               [sign * (-e) ** m * (factorial(n) // factorial(m)) for m in range(n + 1)])
        inner = _weighted_sum(outer, [_bivariate_row("first", m, y, q) for m in range(n + 1)])
        rhs = _weighted_sum(inner, [_mpb(l, a, key) for l in range(n + 1)]) / factorial(n)
        return _mc(kind, n, a, key), rhs

    def mpb_reduce(n, k):
        return _mpb(n, 1, unit(k)), poly_bernoulli_kl(n, k)

    nk3 = (_ND, replace(_K, cap=3))

    return [
        IdentityCase("G21.shif1", "shifted numbers match the integral construction, first kind", (_NM, _A, _Q, _L), partial(shif, "first")),
        IdentityCase("G21.shif2", "shifted numbers match the integral construction, second kind", (_NM, _A, _Q, _L), partial(shif, "second")),
        IdentityCase("G21.para1", "bivariate Stirling expansion equals the integral oracle, first kind", mp, partial(para, "first")),
        IdentityCase("G21.para2", "bivariate Stirling expansion equals the integral oracle, second kind", mp, partial(para, "second")),
        IdentityCase("G21.x0-first", "value at 0 from bivariate Stirling sums, first kind", mp, partial(x0, "first")),
        IdentityCase("G21.x0-second", "value at 0 from bivariate Stirling sums, second kind", mp, partial(x0, "second")),
        IdentityCase("G21.reduce", "unit parameters reduce to the ordinary general-order family", nk3, reduce_ordinary),
        IdentityCase("G21.reduce-display-first", "plain-triangle moment expansion, first kind", nk3, partial(_moments, "first")),
        IdentityCase("G21.reduce-display-second", "plain-triangle moment expansion, second kind", nk3, partial(_moments, "second")),
        IdentityCase("G21.sym-xy", "with unit shift the two free arguments commute (bivariate equality)", (_NM, _Q, _L), sym_xy),
        IdentityCase("G21.golden-first", "irrational-point evaluation splits to the recorded pair, first kind", (), partial(golden, "first")),
        IdentityCase("G21.golden-second", "irrational-point evaluation splits to the recorded pair, second kind", (), partial(golden, "second")),
        IdentityCase("G21.negq", "negating the step exchanges the kinds up to sign", mp, negq),
        IdentityCase("G21.mpb1", "multiparameter poly-Bernoulli from first-kind values", mpb, partial(mpb12, "first")),
        IdentityCase("G21.mpb2", "multiparameter poly-Bernoulli from second-kind values", mpb, partial(mpb12, "second")),
        IdentityCase("G21.mpb3", "first kind back from multiparameter poly-Bernoulli values", mpb, partial(mpb34, "first")),
        IdentityCase("G21.mpb4", "second kind back from multiparameter poly-Bernoulli values", mpb, partial(mpb34, "second")),
        IdentityCase("G21.mpb-reduce", "unit parameters reduce to the alternative poly-Bernoulli family", nk3, mpb_reduce),
    ]


def _g22():
    def hp(kind, n, y):
        # the weights (-1)^m/(n-m)! c_(n-m)(y): the values scaled by
        # (-1)^m n!/(n-m)!, over n!; harmonic polynomials at x + 1 for the
        # first kind, x + 2 for the second, which are the hyperharmonic ones
        # of index m + 1 at -x + (e - 1)/2
        e = KIND_SIGN[kind]
        weights = _scale_each(_homogenised_row([cauchy_poly(kind, n - m, 1) for m in range(n + 1)], y, 1),
                              [(-1) ** m * (factorial(n) // factorial(n - m)) for m in range(n + 1)])
        lhs = _weighted_sum(weights, [hyperharmonic_poly(m + 1).affine_compose(-1, (e - 1) // 2)
                                      for m in range(n + 1)])
        return lhs / factorial(n), binom_poly(-e * y, 1, n)

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

    def _x0_harmonic(n):
        # sum_m (-1)^m c_(n+1-m) H_(m+1)/(n-m)!: the printed right side, and (-1)^n times the shifted one
        return sum((
            F((-1) ** m) * _c(n + 1 - m) / factorial(n - m) * harmonic_number(m + 1)
            for m in range(n + 1)
        ), F(0))

    def _x0_printed(n):
        lhs = sum((
            F((-1) ** m) * _c(n - m) / (factorial(n - m) * (m + 1) * (m + 2))
            for m in range(n + 1)
        ), F(0))
        return lhs, _x0_harmonic(n)

    def _x0_shifted(n):
        lhs = sum((
            F((-1) ** m) * F(_cp(m)(F(2))) / (factorial(m) * (n + 1 - m) * (n + 2 - m))
            for m in range(n + 1)
        ), F(0))
        return lhs, F((-1) ** n) * _x0_harmonic(n)

    return [
        IdentityCase("G22.hp1", "harmonic-polynomial convolution of the first kind gives a binomial", (_N, _Y), partial(hp, "first")),
        IdentityCase("G22.hp2", "harmonic-polynomial convolution of the second kind gives a binomial", (_N, _Y), partial(hp, "second")),
        IdentityCase("G22.hp3", "second kind from first-kind numbers and harmonic polynomials", (_N1,), hp3),
        IdentityCase(
            "G22.compare-hyp5",
            "probe: displayed comparison identity; the printed argument -x needs the shift 2-x",
            (_N,),
            None,
            variants={"as-printed (-x)": _compare_variant(0), "argument-shifted (2-x)": _compare_variant(2)},
        ),
        IdentityCase(
            "G22.compare-hyp5-x0",
            "probe: number specialization of the comparison identity",
            (_N,),
            None,
            variants={"as-printed": _x0_printed, "argument-shifted": _x0_shifted},
        ),
    ]


def build() -> list[IdentityCase]:
    cases = []
    for builder in (_g14, _g15, _g16, _g17, _g18, _g19, _g20, _g21, _g22):
        cases.extend(builder())
    return cases
