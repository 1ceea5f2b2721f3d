"""The identity catalogue, groups G01-G22.

G01-G13 are the classical (k = 1) Cauchy polynomial facts, their
Stirling/binomial/central-factorial/Whitney/derivative forms, the
hyperharmonic connection and the Bernoulli bridges.  G14-G22 are the
general-order (poly) Cauchy polynomial facts, the poly-Bernoulli bridges,
the multiparameter family and the harmonic polynomial connection.

Where a classical identity is the k = 1 case of a general-order one, the
formula is written once, as a general-order check below; the G14/G15 case
registers it as it is and the classical case with k fixed to 1.  Where a
result is stated once for each kind, the check is written once with ``kind``
as its first argument and registered for each kind with
``functools.partial``; pairs whose two forms differ in structure stay two
functions.  The kind's sign e = ``KIND_SIGN[kind]`` and ``_reflect`` follow
the convention stated in ``polycauchy.cauchy``.  A shift, seed or factor
that only one kind carries is scaled by (1 - e)/2, which is 0 for the first
kind and 1 for the second, or by (1 + e)/2, which is the reverse.  A
polynomial or binomial that one kind reads at x and the other at -x is read
at -e x; rising binomials are falling ones at -x, by
C(-y, j) = (-1)^j C(y + j - 1, j).

Where a case restates another case or a library construction, it registers
that existing check or compares with that construction (``_constructions``)
instead of writing the sum again: the Newton sums over the other kind's
numbers are ``cauchy._other_kind_sum``, those over the kind's own the
``binomial_conv`` construction, and G11.inv2/inv3/inv3-alt read G19's
Bernoulli sum ``_th10_bernoulli``.  A number corollary reads the check it
specialises at its point (``_at``): G10.hyp5-x1 is G10.rec-negy at 0.  A
classical case reads its multiparameter statement at unit parameters, q = 1,
L = (1, ..., 1) and y = 0 (``_unit``): G17.kl1-kl4 take their right sides from
G21.mpb1-mpb4.

Each case declares its points as a tuple of ``engine.Axis``.  The n, k, i and
y axes and the multiparameter n, a, q, L and y axes are declared once below
and narrowed with ``dataclasses.replace``; a case may add an axis of its own.

An inner sum, term list or polynomial that does not depend on a case's outer
index, order or point is memoised once per key by a bounded ``lru_cache``.
Each bound exceeds the keys of the default grid and of the deep grid
(``ci/deep-grid.cfg``), so neither run evicts and computes a sum again: a
tier-1 test checks the default grid and CI the deep one.  A value read once
per point is not memoised: the r-Whitney sums of G08/G15 and the G15.korec*
sums are each one row of values per point.

The leading underscore of the shared checks and helpers keeps them private,
so the benchmark tracer (``bench/tracer.py``), which wraps every public
package function, leaves them alone."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial

from ..bernoulli import (
    bernoulli_number, bernoulli_poly, euler_poly, gen_bernoulli_poly, multiparam_poly_bernoulli,
    poly_bernoulli_gsn, poly_bernoulli_kl, power_sum_poly,
)
from ..cauchy import (
    KIND_SIGN, _OTHER, MultiParam, _moment_sum, _other_kind_sum, _reflect, _weight_ratio, cauchy_coefficient,
    cauchy_derivative, cauchy_number, cauchy_poly, cauchy_recurrence_step, multiparam_cauchy,
    shifted_cauchy_number,
)
from ..harmonic import _HYPER, harmonic_number, hyperharmonic_poly
from ..poly import (
    Poly, _dot, _homogenised_row, _lincomb, _newton_sum, _scale_each, _weighted_sum, binom_poly, eval_at_sqrt,
)
from ..rational import _reciprocal_powers
from ..stirling import _bivariate_row, central_u, gsn1, gsn2, lah, stirling1, stirling2
from .engine import Axis, IdentityCase

F = Fraction
X = Poly.gen()


def _c(n, k=1):
    return cauchy_number("first", n, k)


def _ch(n, k=1):
    return cauchy_number("second", n, k)


def _cp(n, k=1):
    return cauchy_poly("first", n, k)


def _chp(n, k=1):
    return cauchy_poly("second", n, k)


# The checks written once for both kinds take ``kind`` first and read
# e = KIND_SIGN[kind] as ``polycauchy.cauchy`` does; a shift +-n is e * n.


def _reflected(kind, n, k=1, construction="gsn"):
    """c_n^(k)(x) for the first kind, the second kind at -x."""
    return _reflect(kind, cauchy_poly(kind, n, k, construction))


# n to max_n in a single sum or to max_n_double in a double sum, from 0 or 1;
# the order k from 1 to max_k; the derivative order i to n; y over xs
_N, _N1 = Axis("n", "max_n"), Axis("n", "max_n", start=1)
_ND, _ND1 = Axis("n", "max_n_double"), Axis("n", "max_n_double", start=1)
_K = Axis("k", "max_k", start=1)
_I, _I1 = Axis("i", "n"), Axis("i", "n", start=1)
_Y = Axis("y", values="xs")

# the multiparameter axes: index n, shift a, step q, weight list L and offset y
_NM, _A, _Q, _L, _YM = (Axis("n", "max_n_multi"), Axis("a", "max_a", start=1), Axis("q", values="qs"),
                        Axis("L", values="ls"), Axis("y", values="ys_multi"))


# ---------------------------------------------------------------------------
# general-order checks shared with the classical cases


def _pro4(kind, n, k):
    # the weighted Stirling-polynomial sum is the gsn construction
    return _reflected(kind, n, k, "integral"), _reflected(kind, n, k)


def _constructions(lhs, rhs, kind, n, k):
    """The kind's polynomial by the two named constructions."""
    return cauchy_poly(kind, n, k, lhs), cauchy_poly(kind, n, k, rhs)


@lru_cache(maxsize=1024)
def _inv_sum(kind, n, k):
    """G14.inv's left side, the sum over m of gsn2(n, m) times the kind's
    reflected order-k polynomial of index m.  G08.whit-rev, G13 and G17 read
    it at their point, so it is memoised."""
    return _lincomb((1, gsn2(n, m) * _reflected(kind, m, k)) for m in range(n + 1))


def _inv(kind, n, k):
    weights, den = _reciprocal_powers(n + 1, n + 2, k)
    return _inv_sum(kind, n, k), Poly([KIND_SIGN[kind] ** n * w for w in weights]) / den


def _cor2(kind, n, k):
    poly = cauchy_poly(kind, n, k)
    return (
        tuple(cauchy_coefficient(kind, n, i, k) for i in range(n + 1)),
        tuple(F(poly[i]) for i in range(n + 1)),
    )


def _symm_other(kind, n, k):
    """The kind's polynomial, and the library's sum over m of (-1)^m n!/m! c_m
    C(-e x - m, n - m) over the other kind's numbers c_m."""
    return cauchy_poly(kind, n, k), _other_kind_sum(kind, n, k)


def _reck(kind, n, k):
    return cauchy_poly(kind, n + 1, k), cauchy_recurrence_step(kind, n, k)


def _diffk(kind, n, k):
    e = KIND_SIGN[kind]
    poly = cauchy_poly(kind, n, k)
    rhs = cauchy_poly(kind, n - 1, k).affine_compose(1, (1 + e) // 2) * (-e * n)
    return poly.affine_compose(1, 1) - poly, rhs


def _weighted_stirling(n, y, q, start, k, at):
    """sum_l q^(n-l) [n l]_(y/q) at^l / (l+start)^k: the first-kind row of
    bivariate values, scaled by the numerators of the weights, read at ``at``."""
    weights, den = _reciprocal_powers(start, n + start + 1, k)
    return F(_bivariate_row("first", n, y, q, weights)(at), den)


def _whitk(kind, n, k, m, r):
    """The kind's index-n value at e r/m, and the sum over l of
    (-1)^n (-e)^l / (l+1)^k times the first-kind r-Whitney number w_{m,r}(n, l)
    over m^(n-l), which is [n l]_(r/m)."""
    e = KIND_SIGN[kind]
    lhs = F(cauchy_poly(kind, n, k)(F(e * r, m)))
    return lhs, _weighted_stirling(n, F(r, m), 1, 1, k, -e) * (-1) ** n


def _genk(kind, n, i, k):
    e = KIND_SIGN[kind]
    # the weight 1/(n+1-m)^k of term m is weights[n - m]
    weights, den = _reciprocal_powers(1, n + 2 - i, k)
    signed = Poly([e ** (n - m) * comb(n, m) * comb(m, i) * weights[n - m] for m in range(i, n + 1)]) / den
    rhs = _weighted_sum(signed, [gen_bernoulli_poly(m - i, n + 1) for m in range(i, n + 1)]).affine_compose(-e, 1)
    return cauchy_poly(kind, n, k).derivative(i), rhs * ((-e) ** i * factorial(i))


def _derk(kind, n, i, k):
    return cauchy_poly(kind, n, k).derivative(i), cauchy_derivative(kind, n, k, i)


def _odd_central(kind, n, odd_poly):
    """The central-factorial sum for the kind's index-(2n+1) polynomial,
    odd_poly(d) being an Euler-type polynomial of odd degree d."""
    e = KIND_SIGN[kind]
    total = _lincomb((F(central_u(n, m), 2 * m + 1), odd_poly(2 * m + 1)) for m in range(1, n + 1))
    return total.affine_compose(1, e * n) * (-e * (2 * n + 1))


def _conv(kind, n, k, weight, start=0):
    """(-1)^n n! sum_{start <= m <= n} weight(m) c_m/m! over the kind's
    order-k numbers c_m."""
    return F((-1) ** n * factorial(n)) * sum((
        weight(m) * cauchy_number(kind, m, k) / factorial(m) for m in range(start, n + 1)
    ), F(0))


def _stirling_bernoulli(n, sign):
    """sum_{1 <= m <= n} sign^m [n-1 m-1] B_m/m."""
    return sum((
        sign**m * stirling1(n - 1, m - 1) * bernoulli_number(m) / m for m in range(1, n + 1)
    ), F(0))


def _at(x, sides, scale=1):
    """A check's two sides at x, times scale, as Fractions."""
    return tuple(F(side(x)) * scale for side in sides)


@lru_cache(maxsize=256)
def _th3_terms(kind, n):
    """gsn2(n-1, m-1) times the kind's reflected polynomial of index m, for
    m = 1..n: the terms of ``_th3``, which do not depend on a G13 case's point
    y.  Memoised."""
    return tuple([gsn2(n - 1, m - 1) * _reflected(kind, m) for m in range(1, n + 1)])


@lru_cache(maxsize=256)
def _th4_terms(kind, n):
    """gsn2(n-1, m-1) times the kind's number c_m, for m = 1..n: the terms of
    ``_th4``, memoised and bounded as for ``_th3_terms``."""
    return tuple([gsn2(n - 1, m - 1) * cauchy_number(kind, m, 1) for m in range(1, n + 1)])


def _reciprocals(n):
    """1/m for m = 1..n, as the coefficients m - 1 of one Poly."""
    nums, den = _reciprocal_powers(1, n + 1, 1)
    return Poly(nums) / den


def _th3(kind, n, weights=None, sign=1):
    """(seed - B_n(x))/(sign n), and the sum over m of the weight of m, the
    coefficient m-1 of weights (1/m if none are given), times gsn2(n-1, m-1)
    times the kind's reflected polynomial of index m, seeded by (-1)^n for the
    second kind only: G11.th31/th32 at 1/m, G13.p5a-d at an inner sum."""
    seed = (1 - KIND_SIGN[kind]) // 2 * (-1) ** n
    weights = _reciprocals(n) if weights is None else weights
    rhs = _weighted_sum(weights, _th3_terms(kind, n))
    return (Poly([seed]) - bernoulli_poly(n)) / (sign * n), rhs


def _th4(kind, n, weights=None, sign=1):
    """B_n(x), and x^n for the first kind, (x-1)^n for the second, minus sign n
    times the sum over m of c_m times the weight of m times gsn2(n-1, m-1):
    G12.th41/th42 and G13.p5e-h, weighted as for ``_th3``."""
    weights = _reciprocals(n) if weights is None else weights
    rhs = Poly([(KIND_SIGN[kind] - 1) // 2, 1]) ** n - _weighted_sum(weights, _th4_terms(kind, n)) * (sign * n)
    return bernoulli_poly(n), rhs


@lru_cache(maxsize=128)
def _th10_bernoulli(n):
    """sum_{1 <= m <= n} (-1)^(n+m)/m gsn1(n-1, m-1) B_m(x): G11.inv2/inv3/inv3-alt's
    sum and the part of G19.th10 that depends on neither the kind nor k.
    Memoised."""
    return _lincomb((F((-1) ** (n + m), m), gsn1(n - 1, m - 1) * bernoulli_poly(m)) for m in range(1, n + 1))


def _s2_double(kind, n, k, y):
    """Sum over m of (-e)^m m! _inv_sum(kind, m, k)(y) gsn2(n, m): the inner
    sums at y as one row over their lcm, weighted by the integers (-e)^m m!."""
    e = KIND_SIGN[kind]
    weights = _scale_each(Poly([_inv_sum(kind, m, k)(y) for m in range(n + 1)]),
                          [(-e) ** m * factorial(m) for m in range(n + 1)])
    return _weighted_sum(weights, [gsn2(n, m) for m in range(n + 1)])


def _g01():
    def one_minus(n):
        # the sum over m of (-1)^(n-m)/(m+1) gsn1(n, m) is the first kind's gsn construction
        return cauchy_poly("second", n, 1, "integral"), _cp(n).affine_compose(-1, 1)

    def kargin(n):
        rhs = sum((F((-1) ** (n - m) * stirling1(n + 1, m + 1), m + 1) for m in range(n + 1)), F(0))
        return _ch(n), rhs

    return [
        IdentityCase("G01.th11", "first kind as signed 1/(m+1) sum of shifted Stirling polynomials", (_N,), partial(_pro4, "first", k=1)),
        IdentityCase("G01.th12", "second kind at -x as 1/(m+1) sum of shifted Stirling polynomials", (_N,), partial(_pro4, "second", k=1)),
        IdentityCase("G01.rem31", "second kind via x -> -x composed Stirling polynomials", (_N,), partial(_constructions, "integral", "gsn", "second", k=1)),
        IdentityCase("G01.shift-1mx", "second kind via the 1-x shifted Stirling polynomials", (_N,), one_minus),
        IdentityCase("G01.kargin", "second-kind numbers from the (n+1, m+1) Stirling column", (_N,), kargin),
        IdentityCase("G01.rem4a", "second-kind Stirling transform of first-kind polynomials is 1/(n+1)", (_N,), partial(_inv, "first", k=1)),
        IdentityCase("G01.rem4b", "second-kind Stirling transform of reflected second-kind polynomials", (_N,), partial(_inv, "second", k=1)),
        IdentityCase("G01.series1", "first kind from its generating function t/((1+t)^x log(1+t))", (_N,), partial(_constructions, "series", "gsn", "first", k=1)),
        IdentityCase("G01.series2", "second kind from its generating function t(1+t)^x/((1+t) log(1+t))", (_N,), partial(_constructions, "series", "gsn", "second", k=1)),
    ]


def _g02():
    def leading(n):
        return (F(_cp(n)[n]), F(_chp(n)[n])), (F((-1) ** n), F(1))

    def subleading(n):
        lhs = (F(_cp(n)[n - 1]), F(_chp(n)[n - 1]))
        return lhs, (F((-1) ** n * n * (n - 2), 2), F(-n * n, 2))

    return [
        IdentityCase("G02.coef1", "closed-form coefficients of the first kind", (_N,), partial(_cor2, "first", k=1)),
        IdentityCase("G02.coef2", "closed-form coefficients of the second kind", (_N,), partial(_cor2, "second", k=1)),
        IdentityCase("G02.leading", "leading coefficients are (-1)^n and 1", (_N,), leading),
        IdentityCase("G02.subleading", "subleading coefficients n(n-2)/2 laws", (_N1,), subleading),
    ]


def _g03():
    def exp3(n):
        return _c(n), (1 if n == 1 else 0) + F((-1) ** (n + 1) * n) * _stirling_bernoulli(n, 1)

    def exp4(n):
        poly = _cp(n)
        lhs = tuple(F(poly[i]) for i in range(1, n + 1))
        rhs = tuple(F((-1) ** n * n, i) * stirling1(n - 1, i - 1) for i in range(1, n + 1))
        return lhs, rhs

    def coef_ident(n, i):
        lhs = sum((
            F((-1) ** (m - i) * comb(m, i), m - i + 1) * stirling1(n, m)
            for m in range(i, n + 1)
        ), F(0))
        return lhs, F(n, i) * stirling1(n - 1, i - 1)

    def alt_sum(n):
        return sum((F((-1) ** m * stirling1(n, m)) for m in range(1, n + 1)), F(0)), F(0)

    return [
        IdentityCase("G03.exp1", "explicit Stirling expansion of the first kind", (_N1,), partial(_constructions, "theorem1", "gsn", "first", k=1)),
        IdentityCase("G03.exp2", "explicit Stirling expansion of the second kind", (_N1,), partial(_constructions, "theorem1", "gsn", "second", k=1)),
        IdentityCase("G03.exp3", "first-kind numbers from Bernoulli numbers", (_N1,), exp3),
        IdentityCase("G03.exp4", "nonconstant coefficients are (n/i) times a Stirling entry", (_N1,), exp4),
        IdentityCase("G03.coef-ident", "alternating binomial-Stirling sum collapses to one entry", (_N1, _I1), coef_ident),
        IdentityCase("G03.alt-sum", "alternating row sums of the first-kind triangle vanish", (replace(_N, start=2),), alt_sum),
    ]


def _g04():
    def lm1(sign, n, y):
        # y^n at x + y - 1, (y - 1)^n at -x + y - 1
        lhs = power_sum_poly(n - 1).affine_compose(sign, y - 1).integrate_01()
        return lhs, ((y - (1 - sign) // 2) ** n - bernoulli_poly(n)(F(1))) / n

    def qi_sum(n):
        return sum((F(stirling1(n - 1, m - 1), m * (m + 1)) for m in range(1, n + 1)), F(0))

    def qi(n):
        return _c(n), F((-1) ** (n + 1)) * qi_sum(n)

    def int_pair(n):
        rhs = _c(n) + F((-1) ** n * n) * qi_sum(n)
        return (_cp(n).integrate_01(), _chp(n).integrate_01()), (rhs, rhs)

    def int1(n):
        want = (1 - n) * _c(n)
        return (_cp(n).integrate_01(), _chp(n).integrate_01()), (want, want)

    return [
        IdentityCase("G04.lm11", "unit integral of the shifted power-sum polynomial", (_N1, _Y), partial(lm1, 1)),
        IdentityCase("G04.lm12", "unit integral of the reflected power-sum polynomial", (_N1, _Y), partial(lm1, -1)),
        IdentityCase("G04.qi", "first-kind numbers as 1/(m(m+1)) Stirling sums", (_N1,), qi),
        IdentityCase("G04.int-pair", "unit integrals of both kinds share the Stirling sum value", (_N1,), int_pair),
        IdentityCase("G04.int1", "unit integrals of both kinds equal (1-n) times the first-kind number", (_N,), int1),
    ]


def _g05():
    def x1_a(n):
        return _ch(n), _conv("second", n, 1, partial(comb, n))

    def x1_bc(kind, n):
        return cauchy_number(kind, n, 1), _conv(_OTHER[kind], n, 1, lambda m: comb(n - 1, m - 1), 1)

    def x1_d(n):
        return _c(n), _conv("first", n, 1, lambda m: comb(n - 2, m - 2), 2)

    def alt_conv(n):
        return _ch(n), _conv("first", n, 1, partial(pow, -1))

    def shift_two(n):
        return _c(n), _ch(n) + n * _ch(n - 1)

    def conv_int(n):
        s1 = sum((comb(n, m) * _ch(m) * _c(n - m) for m in range(n + 1)), F(0))
        s2 = sum((comb(n, m) * _c(m) * _ch(n - m) for m in range(n + 1)), F(0))
        want = (1 - n) * _c(n)
        return (s1, s2), (want, want)

    def c2_triple(n):
        want = F(_cp(n)(F(2)))
        t1 = _conv("second", n, 1, partial(pow, -1))
        t2 = _conv("second", n, 1, lambda m: comb(n + 1, m + 1))
        t3 = _conv("first", n, 1, partial(comb, n))
        return (t1, t2, t3), (want, want, want)

    def seq(kind, n):
        # (-1)^m C(-x - m, n - m) = (-1)^n C(x + n - 1, n - m): G05.chen1/chen2 read at e x
        return tuple(_reflect(kind, p) for p in _symm_other(kind, n, 1))

    return [
        IdentityCase("G05.chen1", "first kind from second-kind numbers and rising binomials", (_N,), partial(_symm_other, "first", k=1)),
        IdentityCase("G05.chen2", "second kind from first-kind numbers and shifted binomials", (_N,), partial(_symm_other, "second", k=1)),
        IdentityCase("G05.symm1", "first kind from its own numbers and shifted binomials", (_N,), partial(_constructions, "gsn", "binomial_conv", "first", k=1)),
        IdentityCase("G05.symm2", "second kind from its own numbers and plain binomials", (_N,), partial(_constructions, "gsn", "binomial_conv", "second", k=1)),
        IdentityCase("G05.x1-a", "binomial self-convolution of second-kind numbers", (_N,), x1_a),
        IdentityCase("G05.x1-b", "first-kind numbers from shifted second-kind convolution", (_N1,), partial(x1_bc, "first")),
        IdentityCase("G05.x1-c", "second-kind numbers from shifted first-kind convolution", (_N1,), partial(x1_bc, "second")),
        IdentityCase("G05.x1-d", "first-kind numbers from doubly-shifted self convolution", (replace(_N, start=2),), x1_d),
        IdentityCase("G05.alt-conv", "alternating convolution links the two kinds", (_N,), alt_conv),
        IdentityCase("G05.shift-two", "two-term relation between the kinds", (_N1,), shift_two),
        IdentityCase("G05.conv-int", "binomial convolution of both kinds equals (1-n) c_n", (_N,), conv_int),
        IdentityCase("G05.c2-triple", "three equivalent sums for the value at 2", (_N,), c2_triple),
        IdentityCase("G05.seq1", "first kind in the factorial-binomial basis", (_N,), partial(seq, "first")),
        IdentityCase("G05.seq2", "reflected second kind in the factorial-binomial basis", (_N,), partial(seq, "second")),
    ]


def _g06():
    def nstep(kind, n):
        return cauchy_poly(kind, n, 1), _other_kind_sum(kind, n, 1, 1) - cauchy_poly(kind, n - 1, 1) * n

    def mirror(n):
        rhs = _chp(n).affine_compose(-1, 0) + _chp(n - 1).affine_compose(-1, 0) * n
        return _cp(n), rhs

    def k_rec(sign, n, k):
        # the sum over m of (-1)^m n!/m! c_(m+1) C(x - m - 1, n - m) is the library's
        rhs = (X - n) * _chp(n, k) * sign - _other_kind_sum("second", n, k, -1, 1)
        return _chp(n + 1, k), rhs

    return [
        IdentityCase("G06.rec1", "one-step recurrence for the first kind", (replace(_N, less=1),), partial(_reck, "first", k=1)),
        IdentityCase("G06.rec2", "one-step recurrence for the second kind", (replace(_N, less=1),), partial(_reck, "second", k=1)),
        IdentityCase("G06.nstep1", "alternative step recurrence, first kind", (_N1,), partial(nstep, "first")),
        IdentityCase("G06.nstep2", "alternative step recurrence, second kind", (_N1,), partial(nstep, "second")),
        IdentityCase("G06.diff1", "difference equation of the first kind", (_N1,), partial(_diffk, "first", k=1)),
        IdentityCase("G06.diff2", "difference equation of the second kind", (_N1,), partial(_diffk, "second", k=1)),
        IdentityCase("G06.mirror", "first kind from the reflected second kind", (_N1,), mirror),
        IdentityCase(
            "G06.k-recurrence-sign",
            "probe: sign of the (x-n) term in the second-kind step recurrence for general order",
            (_ND, _K),
            None,
            variants={"+(x-n)": partial(k_rec, 1), "-(x-n)": partial(k_rec, -1)},
        ),
    ]


def _g07():
    def even(kind, n):
        # powers of x + n - 1 for the first kind, x - n for the second
        e = KIND_SIGN[kind]
        base = Poly([e * n - (1 + e) // 2, 1])
        rhs = _lincomb(
            (F(central_u(n, m), m), base ** (2 * m) - bernoulli_number(2 * m))
            for m in range(1, n + 1)
        ) * n
        return cauchy_poly(kind, 2 * n, 1), rhs

    def odd(kind, n):
        rhs = _odd_central(kind, n, euler_poly)
        return cauchy_poly(kind, 2 * n + 1, 1), rhs

    return [
        IdentityCase("G07.even-first", "even first kind via central factorials and Bernoulli numbers", (replace(_N1, per=2),), partial(even, "first")),
        IdentityCase("G07.even-second", "even second kind via central factorials and Bernoulli numbers", (replace(_N1, per=2),), partial(even, "second")),
        IdentityCase("G07.odd-first", "odd first kind via central factorials and Euler polynomials", (replace(_N1, per=2),), partial(odd, "first")),
        IdentityCase("G07.odd-second", "odd second kind via central factorials and Euler polynomials", (replace(_N1, per=2),), partial(odd, "second")),
    ]


def _g08():
    axes = (_N, Axis("m", values=(1, 2, -2, 3)), Axis("r", values=(-2, 0, 1, 3), cap="max_r"))

    def whit_rev(kind, n, m, r):
        # m^l W_{m,r}(n, l) = m^n {n l}_(r/m), so the sum is m^n times G14.inv's
        # left side at r/m
        return F(_inv_sum(kind, n, 1)(F(r, m)) * m**n), F(KIND_SIGN[kind] ** n * m**n, n + 1)

    return [
        IdentityCase("G08.whit1", "first kind at r/m from first-kind Whitney numbers", axes, partial(_whitk, "first", k=1)),
        IdentityCase("G08.whit2", "second kind at -r/m from first-kind Whitney numbers", axes, partial(_whitk, "second", k=1)),
        IdentityCase("G08.whit1-rev", "reversed Whitney transform of first-kind values", axes, partial(whit_rev, "first")),
        IdentityCase("G08.whit2-rev", "reversed Whitney transform of second-kind values", axes, partial(whit_rev, "second")),
    ]


def _g09():
    def th6b(kind, n, i):
        e = KIND_SIGN[kind]
        rhs = _lincomb((
            cauchy_number(kind, n - m, 1) * comb(n, m) * comb(m, i), gen_bernoulli_poly(m - i, m + 1),
        ) for m in range(i, n + 1)).affine_compose(-e, 1) * ((-e) ** i * factorial(i))
        return cauchy_poly(kind, n, 1).derivative(i), rhs

    def der(kind, n, i):
        # the Stirling polynomial at x for the first kind, at 1 - x for the second
        e = KIND_SIGN[kind]
        rhs = gsn1(n - 1, i - 1).affine_compose(e, (1 - e) // 2) * (
            (-1) ** n * e**i * n * factorial(i - 1)
        )
        return cauchy_poly(kind, n, 1).derivative(i), rhs

    def gder(kind, n, i):
        lhs = _lincomb(
            ((-1) ** (n - m) * cauchy_number(kind, n - m, 1) * comb(n, m), gsn1(m, i))
            for m in range(i, n + 1)
        )
        return lhs, gsn1(n - 1, i - 1).affine_compose(1, (1 - KIND_SIGN[kind]) // 2) * F(n, i)

    def self_rec(kind, n):
        # only the second kind's recurrence is seeded, by (-1)^n
        rhs = F((1 - KIND_SIGN[kind]) // 2 * (-1) ** n) + sum((
            cauchy_number(kind, m, 1) / factorial(m) * F((-1) ** (n + 1 - m), n + 1 - m)
            for m in range(n)
        ), F(0))
        return cauchy_number(kind, n, 1) / factorial(n), rhs

    def harmonic_sum(kind, n):
        return sum((
            F((-1) ** (n - m), m + 1) * cauchy_number(kind, n - m, 1) / factorial(n - m) * harmonic_number(m)
            for m in range(n + 1)
        ), F(0))

    def half_harm(n):
        return harmonic_sum("first", n), F(1, 2 * n)

    def zhao(kind, n):
        lhs = sum((
            F((-1) ** (n - m)) * cauchy_number(kind, n - m, 1) / factorial(n - m)
            * harmonic_number(m + 1)
            for m in range(n + 1)
        ), F(0))
        return lhs, F(1 + (1 - KIND_SIGN[kind]) // 2 * n)

    def chat_half(n):
        return harmonic_sum("second", n), harmonic_number(n) / 2

    return [
        IdentityCase("G09.th5-first", "derivatives via higher-order Bernoulli polynomials, first kind", (_ND, _I), partial(_genk, "first", k=1)),
        IdentityCase("G09.th5-second", "derivatives via higher-order Bernoulli polynomials, second kind", (_ND, _I), partial(_genk, "second", k=1)),
        IdentityCase("G09.th6-first", "derivatives via own numbers and Stirling polynomials, first kind", (_ND, _I), partial(_derk, "first", k=1)),
        IdentityCase("G09.th6-second", "derivatives via own numbers and Stirling polynomials, second kind", (_ND, _I), partial(_derk, "second", k=1)),
        IdentityCase("G09.th6b-first", "derivative rewrite through order-(m+1) Bernoulli polynomials", (_ND, _I), partial(th6b, "first")),
        IdentityCase("G09.th6b-second", "second-kind derivative rewrite through Bernoulli polynomials", (_ND, _I), partial(th6b, "second")),
        IdentityCase("G09.der12", "derivatives collapse to a single shifted Stirling polynomial", (_ND1, _I1), partial(der, "first")),
        IdentityCase("G09.der22", "second-kind derivatives collapse with the 1-x argument", (_ND1, _I1), partial(der, "second")),
        IdentityCase("G09.gder1", "Stirling-weighted number sums collapse, first kind", (_ND1, _I1), partial(gder, "first")),
        IdentityCase("G09.gder2", "Stirling-weighted number sums collapse, second kind", (_ND1, _I1), partial(gder, "second")),
        IdentityCase("G09.merlin", "self-referential recurrence of the first-kind numbers", (_N1,), partial(self_rec, "first")),
        IdentityCase("G09.half-harm", "harmonic-weighted convolution gives 1/(2n)", (_N1,), half_harm),
        IdentityCase("G09.zhao", "harmonic-weighted convolution gives 1", (_N,), partial(zhao, "first")),
        IdentityCase("G09.chat-rec", "self-referential recurrence of second-kind numbers", (_N1,), partial(self_rec, "second")),
        IdentityCase("G09.chat-half", "second-kind harmonic convolution gives half a harmonic number", (_N,), chat_half),
        IdentityCase("G09.chat-zhao", "second-kind harmonic convolution gives n+1", (_N,), partial(zhao, "second")),
    ]


def _g10():
    def hyp12(kind, n, y):
        # the weights (-1)^m/m! H_(n+1-m)(y), with H_i = R_i/i! for the memoised
        # integer rows R_i: the values of R_(n+1-m) scaled by (-1)^m C(n+1, m), over (n+1)!
        e = KIND_SIGN[kind]
        weights = _scale_each(_homogenised_row([Poly(_HYPER.row(n + 1 - m)) for m in range(n + 1)], y, 1),
                              [(-1) ** m * comb(n + 1, m) for m in range(n + 1)])
        lhs = _weighted_sum(weights, [cauchy_poly(kind, m, 1) for m in range(n + 1)]) / factorial(n + 1)
        return lhs, binom_poly(y + n - (1 + e) // 2, e, n)

    def hyp34(kind, n):
        # hyperharmonic polynomials at -x for the first kind, whose sum cancels
        # for n >= 1, and at x for the second, whose sum is 1
        e = KIND_SIGN[kind]
        lhs = _lincomb((
            F((-1) ** m, factorial(m)),
            cauchy_poly(kind, m, 1) * hyperharmonic_poly(n + 1 - m).affine_compose(-e, 0),
        ) for m in range(n + 1))
        return lhs, Poly([1 if n == 0 else (1 - e) // 2])

    def conec(kind, n):
        # the second kind's inner binomials C(x + t - 1, t) are (-1)^t C(-x, t),
        # so its inner sum is the first kind's at -x; only it is seeded, by (-1)^n.
        # The inner sum over t <= d = n - m of (-1)^(d+1-t)/(d+1-t) C(e x, t) is a
        # Newton sum, factor j being e x - j
        e = KIND_SIGN[kind]

        def inner(d):
            weights = [F((-1) ** (d + 1 - t), d + 1 - t) for t in range(d + 1)]
            return _newton_sum(weights, range(0, -d, -1), e, range(1, d + 1))

        rhs = Poly([(1 - e) // 2 * (-1) ** n]) + _lincomb(
            (F(1, factorial(m)), cauchy_poly(kind, m, 1) * inner(n - m)) for m in range(n)
        )
        return cauchy_poly(kind, n, 1) / factorial(n), rhs

    def hyp5(kind, n):
        # C(1-x, n) = (-1)^n C(x+n-2, n) for the first kind, C(x, n) for the second
        e = KIND_SIGN[kind]
        rhs = binom_poly((1 + e) // 2, -e, n) + _lincomb(
            (F((-1) ** (n - m), factorial(m) * (n - m) * (n + 1 - m)), cauchy_poly(kind, m, 1))
            for m in range(n)
        )
        return cauchy_poly(kind, n, 1) / factorial(n), rhs

    def hyp5_x1(n):
        return _at(0, hyp5("first", n))

    def hyp67(kind, n):
        rhs = _lincomb((F((-1) ** m, factorial(m)), cauchy_poly(_OTHER[kind], m, 1)) for m in range(n + 1))
        return cauchy_poly(kind, n, 1) / factorial(n), rhs.affine_compose(1, KIND_SIGN[kind] * n)

    def eval_two(n):
        lhs = (F(_cp(n)(F(-n))), F(_chp(n)(F(n))))
        rhs = (F((-1) ** n) * _cp(n)(F(2)), F((-1) ** n) * _ch(n))
        return lhs, rhs

    def via_bernoulli(kind, n):
        rhs = _lincomb((
            (-1) ** (n - m) * comb(n, m) * cauchy_number(kind, n - m, 1),
            _lincomb((stirling1(m + 1, i + 1) * i, bernoulli_poly(i - 1)) for i in range(1, m + 1)),
        ) for m in range(1, n + 1)) / factorial(n)
        return hyperharmonic_poly(n).affine_compose(1, (1 - KIND_SIGN[kind]) // 2), rhs

    return [
        IdentityCase("G10.hyp1", "hyperharmonic convolution of the first kind gives a binomial", (_N, _Y), partial(hyp12, "first")),
        IdentityCase("G10.hyp2", "hyperharmonic convolution of the second kind gives a binomial", (_N, _Y), partial(hyp12, "second")),
        IdentityCase("G10.hyp3", "self-cancelling hyperharmonic convolution, first kind", (_N,), partial(hyp34, "first")),
        IdentityCase("G10.hyp4", "constant hyperharmonic convolution, second kind", (_N,), partial(hyp34, "second")),
        IdentityCase("G10.conec1", "recurrence with inner binomial weights, first kind", (_N1,), partial(conec, "first")),
        IdentityCase("G10.conec2", "recurrence with inner binomial weights, second kind", (_N1,), partial(conec, "second")),
        IdentityCase("G10.rec-negy", "two-factor denominator recurrence, first kind", (_N1,), partial(hyp5, "first")),
        IdentityCase("G10.hyp5", "two-factor denominator recurrence, second kind", (_N1,), partial(hyp5, "second")),
        IdentityCase("G10.hyp5-x1", "number specialization of the two-factor recurrence", (_N1,), hyp5_x1),
        IdentityCase("G10.hyp6", "first kind as alternating shifted second-kind sums", (_N,), partial(hyp67, "first")),
        IdentityCase("G10.hyp7", "second kind as alternating shifted first-kind sums", (_N,), partial(hyp67, "second")),
        IdentityCase("G10.eval-two", "values at -n and n collapse to values at 2 and 0", (_N,), eval_two),
        IdentityCase("G10.via-bernoulli-1", "hyperharmonic polynomials from first-kind numbers and Bernoulli polynomials", (_N1,), partial(via_bernoulli, "first")),
        IdentityCase("G10.via-bernoulli-2", "shifted hyperharmonic polynomials from second-kind numbers", (_N1,), partial(via_bernoulli, "second")),
    ]


def _g11():
    # at 1: c_m(1) is the second kind's number, since the first kind's generating
    # function at x = 1 is the second kind's at 0; gsn2(n-1, m-1)(1) is {n m};
    # and B_n(1) is (-1)^n B_n
    def th31_x1(n):
        return _at(1, _th3("first", n), (-1) ** n)

    def th31_x0(n):
        return _at(0, _th3("first", n))

    def inv(kind, n):
        # G19's Bernoulli sum, less the sum over m of seed/m gsn1(n-1, m-1)
        seed = (1 - KIND_SIGN[kind]) // 2 * (-1) ** n
        seeds = _lincomb((F(seed, m), gsn1(n - 1, m - 1)) for m in range(1, n + 1))
        return _reflected(kind, n) / (-n), _th10_bernoulli(n) - seeds

    def inv3_alt(n):
        lhs = _chp(n).affine_compose(-1, 0) / (-n)
        return lhs, _chp(n - 1).affine_compose(-1, 0) + _th10_bernoulli(n)

    def exp5a(n):
        rhs = sum((stirling1(n, m) * bernoulli_number(m) / m for m in range(1, n + 1)), F(0))
        return F((-1) ** (n + 1)) * _ch(n) / n, rhs

    def exp5b(n):
        return _at(0, inv("first", n), (-1) ** n)

    def odd_vanish(n):
        return _stirling_bernoulli(n, 1), _stirling_bernoulli(n, -1)

    def chat2n_at_n(n):
        lhs = F(_chp(2 * n)(F(n)))
        rhs = -n * sum((
            F(central_u(n, m), m) * bernoulli_number(2 * m) for m in range(1, n + 1)
        ), F(0))
        return lhs, rhs

    return [
        IdentityCase("G11.th31", "Bernoulli polynomials from first-kind polynomial transforms", (_N1,), partial(_th3, "first")),
        IdentityCase("G11.th32", "Bernoulli polynomials from reflected second-kind transforms", (_N1,), partial(_th3, "second")),
        IdentityCase("G11.th31-x1", "Bernoulli numbers from second-kind numbers", (_N1,), th31_x1),
        IdentityCase("G11.th31-x0", "Bernoulli numbers from first-kind numbers", (_N1,), th31_x0),
        IdentityCase("G11.inv2", "first-kind polynomials from Bernoulli polynomials", (_N1,), partial(inv, "first")),
        IdentityCase("G11.inv3", "reflected second kind from Bernoulli polynomials", (_N1,), partial(inv, "second")),
        IdentityCase("G11.inv3-alt", "rewritten reflected second-kind inversion", (_N1,), inv3_alt),
        IdentityCase("G11.exp5a", "second-kind numbers from Bernoulli numbers", (_N1,), exp5a),
        IdentityCase("G11.exp5b", "first-kind numbers from alternating Bernoulli sums", (_N1,), exp5b),
        IdentityCase("G11.odd-vanish", "equality forcing odd Bernoulli numbers to vanish", (replace(_N, start=2),), odd_vanish),
        IdentityCase("G11.chat2n-at-n", "even second-kind value at n from central factorials", (replace(_N1, per=2),), chat2n_at_n),
    ]


def _g12():
    # at 1, as for G11.th31-x1
    def bn_alt1(n):
        return _at(1, _th4("first", n), (-1) ** n)

    def bn_alt2(n):
        return _at(0, _th4("second", n))

    def diff_c(n):
        # the terms of G12.th41 less those of G11.th31, at 1/m
        weights = _reciprocals(n)
        lhs = _weighted_sum(weights, _th4_terms("first", n)) - _weighted_sum(weights, _th3_terms("first", n))
        return lhs, Poly([0] * n + [F(1, n)])

    def diff_cchat(n):
        return _at(1, diff_c(n))

    def kargin_inv(n):
        lhs = sum((stirling2(n + 1, m + 1) * _ch(m) for m in range(n + 1)), F(0))
        return lhs, F(1, n + 1)

    return [
        IdentityCase("G12.th41", "Bernoulli polynomials from first-kind numbers and x^n", (_N1,), partial(_th4, "first")),
        IdentityCase("G12.th42", "Bernoulli polynomials from second-kind numbers and (x-1)^n", (_N1,), partial(_th4, "second")),
        IdentityCase("G12.bn-alt1", "alternative Bernoulli number formula, first kind", (_N1,), bn_alt1),
        IdentityCase("G12.bn-alt2", "alternative Bernoulli number formula, second kind", (_N1,), bn_alt2),
        IdentityCase("G12.diff-c", "number-minus-polynomial transform collapses to x^n/n", (_N1,), diff_c),
        IdentityCase("G12.diff-cchat", "difference of the kinds under the Stirling transform", (_N1,), diff_cchat),
        IdentityCase("G12.kargin-inv", "second-kind numbers under the shifted Stirling transform", (_N,), kargin_inv),
    ]


def _g13():
    def p4ab(kind, n, y):
        return bernoulli_poly(n), _s2_double(kind, n, 1, y)

    def p4cd(kind, n, y):
        # inner sum m: (-1)^n (-e)^m/m! times the first-kind row m against the
        # Bernoulli values at y signed by (-1)^l, one row that every m reads
        e = KIND_SIGN[kind]
        values = _scale_each(_homogenised_row([bernoulli_poly(l) for l in range(n + 1)], y, 1),
                             [(-1) ** l for l in range(n + 1)])
        rhs = _lincomb(
            (F((-1) ** n * (-e) ** m, factorial(m)) * _dot(_bivariate_row("first", m, y, 1), values), gsn1(n, m))
            for m in range(n + 1)
        )
        return _reflected(kind, n), rhs

    def inner(kind, n, y):
        # e^m times the value kind's inner sum of index m - 1, m = 1..n
        e = KIND_SIGN[kind]
        return _scale_each(Poly([_inv_sum(kind, m - 1, 1)(y) for m in range(1, n + 1)]), [e**m for m in range(1, n + 1)])

    # p5a-d are G11.th31/th32 and p5e-h G12.th41/th42, with the value kind's
    # inner sum in place of 1/m and its sign
    def p5_poly(poly_kind, value_kind, n, y):
        return _th3(poly_kind, n, inner(value_kind, n, y), KIND_SIGN[value_kind])

    def p5_numbers(number_kind, value_kind, n, y):
        return _th4(number_kind, n, inner(value_kind, n, y), KIND_SIGN[value_kind])

    return [
        IdentityCase("G13.p4a", "Bernoulli polynomials from double second-kind transforms of first-kind values", (_ND, _Y), partial(p4ab, "first")),
        IdentityCase("G13.p4b", "Bernoulli polynomials from double transforms of reflected second-kind values", (_ND, _Y), partial(p4ab, "second")),
        IdentityCase("G13.p4c", "first kind from double first-kind transforms of Bernoulli values", (_ND, _Y), partial(p4cd, "first")),
        IdentityCase("G13.p4d", "reflected second kind from double first-kind transforms of Bernoulli values", (_ND, _Y), partial(p4cd, "second")),
        IdentityCase("G13.p5a", "double-sum product form, first kind twice", (_ND1, _Y), partial(p5_poly, "first", "first")),
        IdentityCase("G13.p5b", "double-sum product form, first then second kind", (_ND1, _Y), partial(p5_poly, "first", "second")),
        IdentityCase("G13.p5c", "double-sum product form, second then first kind", (_ND1, _Y), partial(p5_poly, "second", "first")),
        IdentityCase("G13.p5d", "double-sum product form, second kind twice", (_ND1, _Y), partial(p5_poly, "second", "second")),
        IdentityCase("G13.p5e", "x^n form with first-kind numbers and values", (_ND1, _Y), partial(p5_numbers, "first", "first")),
        IdentityCase("G13.p5f", "x^n form with first-kind numbers, second-kind values", (_ND1, _Y), partial(p5_numbers, "first", "second")),
        IdentityCase("G13.p5g", "(x-1)^n form with second-kind numbers, first-kind values", (_ND1, _Y), partial(p5_numbers, "second", "first")),
        IdentityCase("G13.p5h", "(x-1)^n form with second-kind numbers and values", (_ND1, _Y), partial(p5_numbers, "second", "second")),
    ]


def _moments(kind, n, k):
    """The kind's polynomial as moment polynomials over the plain Stirling triangle."""
    weights = Poly([(-1) ** n * KIND_SIGN[kind] ** m * stirling1(n, m) for m in range(n + 1)])
    return cauchy_poly(kind, n, k), _moment_sum(weights, k, (1,) * k)


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
        IdentityCase("G15.symm7a", "self-number expansion with negated binomials, first kind", (_N, _K), partial(_constructions, "gsn", "binomial_conv", "first")),
        IdentityCase("G15.symm7b", "self-number expansion with rising factorials, first kind", (_N, _K), partial(_constructions, "gsn", "binomial_conv", "first")),
        IdentityCase("G15.symm8a", "self-number expansion with plain binomials, second kind", (_N, _K), partial(_constructions, "gsn", "binomial_conv", "second")),
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


@lru_cache(maxsize=256)
def _kb_sum(m, k):
    """G17.kb3/kb4's inner sum over l of gsn1(m, l) B_l^(k), a polynomial that
    the case reads at its point y and scales by the kind's (-e)^m/m!."""
    return _lincomb((1, gsn1(m, l) * poly_bernoulli_gsn(l, k)) for l in range(m + 1))


@lru_cache(maxsize=2048)
def _bernoulli_moments(e, m, k, start):
    """The Bernoulli-weighted moment polynomial of G18.poly*:
    sum_{start <= j <= m} e^j binom(m, j) B_(m-j) aux_poly(j, k)(x + e), as
    one moment sum moved to x + e."""
    weights = Poly([e**j * comb(m, j) * bernoulli_number(m - j) if j >= start else 0 for j in range(m + 1)])
    return _moment_sum(weights, k, (1,) * k).affine_compose(1, e)


def _g17():
    def kb12(kind, n, k, y):
        return poly_bernoulli_gsn(n, k), _s2_double(kind, n, k, y) * (-1) ** n

    def kb34(kind, n, k, y):
        e = KIND_SIGN[kind]
        weights = Poly([F((-e) ** m, factorial(m)) * _kb_sum(m, k)(y) for m in range(n + 1)]) * (-1) ** n
        return _reflected(kind, n, k), _weighted_sum(weights, [gsn1(n, m) for m in range(n + 1)])

    # G21.mpb1-mpb4 at unit parameters, against the library's order-k families
    def kl12(kind, n, k):
        return poly_bernoulli_kl(n, k), _mpb12(kind, n, 1, *_unit(k))[1]

    def kl34(kind, n, k):
        return cauchy_poly(kind, n, k), _mpb34(kind, n, 1, *_unit(k))[1]

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
        weights = Poly([(-1) ** (m - j) * comb(m, j) * bernoulli_number(m - j) for j in range(m + 1)])
        return _moment_sum(weights, 1, (1,)), Poly([0] * m + [1])

    return [
        IdentityCase("G18.poly1", "general order first kind from Bernoulli-weighted moment polynomials", (_N1, _K), partial(poly, "first", False)),
        IdentityCase("G18.poly2", "general order second kind from Bernoulli-weighted moment polynomials", (_N1, _K), partial(poly, "second", False)),
        IdentityCase("G18.poly5", "variant seeded by the classical first-kind number", (_N1, _K), partial(poly, "first", True)),
        IdentityCase("G18.poly6", "second-kind variant seeded by the classical number", (_N1, _K), partial(poly, "second", True)),
        IdentityCase("G18.idc1", "Bernoulli-weighted moment polynomials collapse to x^m", (replace(_N, name="m"),), idc1),
        IdentityCase("G18.idc2", "alternating Bernoulli-weighted moments collapse to x^m", (replace(_N, name="m"),), idc2),
    ]


def _shifted_powers(weights, shift, slope):
    """sum_m weights[m] (shift + slope x)^m over the Poly weights: the powers
    of one linear factor as one Newton sum."""
    n = len(weights) - 1
    return _newton_sum(weights, [shift] * n, slope, [1] * n)


def _g19():
    def moments_at(kind, m, k):
        # the Bernoulli-weighted moment polynomial of degree m at 1, or at -1
        # with alternating weights for the second kind
        return _bernoulli_moments(KIND_SIGN[kind], m, k, 0).constant()

    def moments_sum(kind, n, k):
        # sum_m (-1)^n/m gsn1(n-1, m-1) times the moment constant of degree m
        return _lincomb((F((-1) ** n, m) * moments_at(kind, m, k), gsn1(n - 1, m - 1)) for m in range(1, n + 1))

    def th10(kind, n, k):
        return _reflected(kind, n, k) / (-n), _th10_bernoulli(n) - moments_sum(kind, n, k)

    def alt(kind, n, k):
        # (-x)^m for the first kind, (1-x)^m for the second
        weights = [Poly()] + [gsn1(n - 1, m - 1) * F((-1) ** n, m) for m in range(1, n + 1)]
        powers = _shifted_powers(weights, (1 - KIND_SIGN[kind]) // 2, -1)
        rhs = Poly([cauchy_number(kind, n, 1)]) - (powers - moments_sum(kind, n, k)) * n
        return _reflected(kind, n, k), rhs

    def k1_first(n):
        weights = [Poly()] + [gsn1(n - 1, m - 1) * F((-1) ** m, m) for m in range(1, n + 1)]
        return _cp(n), Poly([_c(n)]) - _shifted_powers(weights, 0, 1) * ((-1) ** n * n)

    def k1_second(sign, n):
        # sign -1: the printed (-1)^m/m against (x-1)^m - 1; sign 1: 1/m against (1-x)^m - 1
        weights = [Poly()] + [gsn1(n - 1, m - 1) * F(sign**m, m) for m in range(1, n + 1)]
        ones = _lincomb((1, w) for w in weights)  # the term -1 of each power
        rhs = Poly([_ch(n)]) - (_shifted_powers(weights, sign, -sign) - ones) * ((-1) ** n * n)
        return _chp(n).affine_compose(-1, 0), rhs

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
                "as-printed ((-1)^m/m, (x-1)^m - 1)": partial(k1_second, -1),
                "unsigned (1/m, (1-x)^m - 1)": partial(k1_second, 1),
            },
        ),
    ]


def _gen_euler(d: int, k: int) -> Poly:
    """sum_{j < d} 2^j binom(d, j) B_j aux_poly(d - j, k)(x + 1): for odd d the
    generalized Euler polynomial of degree d, at k = 1 the Euler polynomial;
    one moment sum, weight m = d - j, moved to x + 1."""
    weights = Poly([0] + [2 ** (d - m) * comb(d, m) * bernoulli_number(d - m) for m in range(1, d + 1)])
    return _moment_sum(weights, k, (1,) * k).affine_compose(1, 1)


def _g20():
    half = (replace(_ND1, per=2), _K)  # 1 <= n <= max_n_double // 2
    half_m = (replace(_N1, name="m", per=2),)  # 1 <= m <= max_n // 2

    def th11_even(kind, n, k):
        # the inner sum over j < 2m of e^j binom(2m, j) B_j aux_poly(2m - j, k)(x + en)
        e = KIND_SIGN[kind]
        rhs = _lincomb((F(central_u(n, m), m), _bernoulli_moments(e, 2 * m, k, 1)) for m in range(1, n + 1))
        return cauchy_poly(kind, 2 * n, k), rhs.affine_compose(1, e * (n - 1)) * n

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


def _unit(k):
    """q = 1, L = (1, ..., 1) of length k and y = 0: the multiparameter
    arguments at which the family is the ordinary order-k one."""
    return F(1), (F(1),) * k, F(0)


# G21.mpb1-mpb4.  The double sums over l <= m <= n are summed over m first: the
# outer row's values weight the inner rows, whose coefficient l is the value at
# (m, l), so each memoised polynomial of index l is scaled once; the outer row's
# integer scales carry every sign
def _mpb12(kind, n, a, q, L, y):
    e = KIND_SIGN[kind]
    key, ey, sign = _ratios(q, L, y), e * y, (-1) ** (n + a - 1)
    outer = _bivariate_row("second", n, y, q, [sign * (-e) ** m * factorial(m) for m in range(n + 1)])
    inner = _weighted_sum(outer, [_bivariate_row("second", m, ey, q) for m in range(n + 1)])
    return _mpb(n, a, key), _weighted_sum(inner, [_mc(kind, l, a, key) for l in range(n + 1)])


def _mpb34(kind, n, a, q, L, y):
    # the weights (-e)^m/m! as the integers n!/m! over n!
    e = KIND_SIGN[kind]
    key, sign = _ratios(q, L, y), (-1) ** (n + a - 1)
    outer = _bivariate_row("first", n, e * y, q,
                           [sign * (-e) ** m * (factorial(n) // factorial(m)) for m in range(n + 1)])
    inner = _weighted_sum(outer, [_bivariate_row("first", m, y, q) for m in range(n + 1)])
    rhs = _weighted_sum(inner, [_mpb(l, a, key) for l in range(n + 1)]) / factorial(n)
    return _mc(kind, n, a, key), rhs


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

    def reduce_ordinary(n, k):
        key = _ratios(*_unit(k))
        return (_mc("first", n, 1, key), _mc("second", n, 1, key)), (_cp(n, k), _chp(n, k))

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

    def mpb_reduce(n, k):
        return _mpb(n, 1, _ratios(*_unit(k))), poly_bernoulli_kl(n, k)

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
        IdentityCase("G21.mpb1", "multiparameter poly-Bernoulli from first-kind values", mpb, partial(_mpb12, "first")),
        IdentityCase("G21.mpb2", "multiparameter poly-Bernoulli from second-kind values", mpb, partial(_mpb12, "second")),
        IdentityCase("G21.mpb3", "first kind back from multiparameter poly-Bernoulli values", mpb, partial(_mpb34, "first")),
        IdentityCase("G21.mpb4", "second kind back from multiparameter poly-Bernoulli values", mpb, partial(_mpb34, "second")),
        IdentityCase("G21.mpb-reduce", "unit parameters reduce to the alternative poly-Bernoulli family", nk3, mpb_reduce),
    ]


def _g22():
    def hp(kind, n, y):
        # the weights (-1)^m/(n-m)! c_(n-m)(y) times harmonic polynomials at
        # x + 1 for the first kind, x + 2 for the second, which are the
        # hyperharmonic ones of index m + 1 at -x + (e - 1)/2, R_(m+1)/(m+1)!
        # for the memoised integer rows R: the values scaled by
        # (-1)^m n!/(n-m)! (n+1)!/(m+1)!, over n! (n+1)!, against the rows
        e = KIND_SIGN[kind]
        scales = [(-1) ** m * (factorial(n) // factorial(n - m)) * (factorial(n + 1) // factorial(m + 1))
                  for m in range(n + 1)]
        weights = _scale_each(_homogenised_row([cauchy_poly(kind, n - m, 1) for m in range(n + 1)], y, 1), scales)
        lhs = _weighted_sum(weights, [Poly(_HYPER.row(m + 1)) for m in range(n + 1)]).affine_compose(-1, (e - 1) // 2)
        return lhs / (factorial(n) * factorial(n + 1)), binom_poly(-e * y, 1, n)

    def hp3(n):
        # harmonic_poly(m) at x + 1 is the hyperharmonic polynomial of index m + 1 at -x
        total = _lincomb((F((-1) ** m, factorial(n - m - 1)) * _c(n - m), hyperharmonic_poly(m + 1)) for m in range(n))
        return _chp(n) / factorial(n), binom_poly(0, 1, n) - total.affine_compose(-1, 0)

    def compare(shift, n):
        # shift: the argument of the first-kind polynomials on the left side
        lhs = _lincomb(
            (F((-1) ** m, factorial(m) * (n - m + 1) * (n - m + 2)), _cp(m)) for m in range(n + 1)
        ).affine_compose(-1, shift)
        # harmonic_poly(m) is the hyperharmonic polynomial of index m + 1 at 1 - x
        rhs = _lincomb(
            (F((-1) ** (n - m)) * _c(n + 1 - m) / factorial(n - m), hyperharmonic_poly(m + 1))
            for m in range(n + 1)
        ).affine_compose(-1, 1)
        return lhs, rhs

    def compare_x0(shift, n):
        # the printed sums are re-indexed by m -> n - m, so as printed they are
        # (-1)^n times the sides at 0
        return _at(0, compare(shift, n), (-1) ** n if shift == 0 else 1)

    return [
        IdentityCase("G22.hp1", "harmonic-polynomial convolution of the first kind gives a binomial", (_N, _Y), partial(hp, "first")),
        IdentityCase("G22.hp2", "harmonic-polynomial convolution of the second kind gives a binomial", (_N, _Y), partial(hp, "second")),
        IdentityCase("G22.hp3", "second kind from first-kind numbers and harmonic polynomials", (_N1,), hp3),
        IdentityCase(
            "G22.compare-hyp5",
            "probe: displayed comparison identity; the printed argument -x needs the shift 2-x",
            (_N,),
            None,
            variants={"as-printed (-x)": partial(compare, 0), "argument-shifted (2-x)": partial(compare, 2)},
        ),
        IdentityCase(
            "G22.compare-hyp5-x0",
            "probe: number specialization of the comparison identity",
            (_N,),
            None,
            variants={"as-printed": partial(compare_x0, 0), "argument-shifted": partial(compare_x0, 2)},
        ),
    ]


def build() -> list[IdentityCase]:
    cases = []
    for builder in (_g01, _g02, _g03, _g04, _g05, _g06, _g07, _g08, _g09, _g10, _g11, _g12, _g13,
                    _g14, _g15, _g16, _g17, _g18, _g19, _g20, _g21, _g22):
        cases.extend(builder())
    return cases
