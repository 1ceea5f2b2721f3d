"""Identity cases G1-G13: the classical (k = 1) Cauchy polynomial facts,
their Stirling/binomial/central-factorial/Whitney/derivative forms, the
hyperharmonic connection, and the Bernoulli bridges.

Where a classical identity is the k = 1 case of a general-order one, the
formula is written once, as a module-level general-order check below; the
G14/G15 case registers it as it is and the classical case with k fixed to 1.
Where a result is stated once for each kind, the check is written once with
``kind`` as its first argument and registered for each kind with
``functools.partial``; the kind's sign e = ``KIND_SIGN[kind]`` and
``_reflect`` follow the convention stated in ``polycauchy.cauchy``.  A shift,
seed or factor that only one kind carries is scaled by (1 - e)/2, which is 0
for the first kind and 1 for the second, or by (1 + e)/2, which is the
reverse.  A polynomial or binomial that one kind reads at x and the other at
-x is read at -e x; rising binomials are falling ones at -x, by
C(-y, j) = (-1)^j C(y + j - 1, j).  Where a case restates another case or a
library construction, it registers that existing check or compares with that
construction (``_constructions``) instead of writing the sum again.  Each case
declares its points as a tuple of ``engine.Axis``; the n, k, i and y axes are
declared once below and narrowed with ``dataclasses.replace``.  The leading
underscore of the shared checks and helpers keeps them private, so the
benchmark tracer (``bench/tracer.py``), which wraps every public package
function, leaves them alone."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial

from ..bernoulli import bernoulli_number, bernoulli_poly, gen_bernoulli_poly, euler_poly, power_sum_poly
from ..cauchy import (
    KIND_SIGN, _OTHER, _reflect, cauchy_coefficient, cauchy_derivative, cauchy_number, cauchy_poly,
    cauchy_recurrence_step,
)
from ..harmonic import _HYPER, harmonic_number, hyperharmonic_poly
from ..poly import Poly, _dot, _homogenised_row, _lincomb, _over_one_denominator, _scale_each, _weighted_sum, binom_poly
from ..rational import _reciprocal_powers
from ..stirling import _bivariate_row, a_number, central_u, gsn1, gsn2, stirling1, stirling2
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


# ---------------------------------------------------------------------------
# general-order checks shared with the classical cases


def _pro4(kind, n, k):
    # the weighted Stirling-polynomial sum is the gsn construction
    return _reflected(kind, n, k, "integral"), _reflected(kind, n, k)


def _constructions(lhs, rhs, kind, n, k):
    """The kind's polynomial by the two named constructions."""
    return cauchy_poly(kind, n, k, lhs), cauchy_poly(kind, n, k, rhs)


def _inv(kind, n, k):
    lhs = _lincomb((1, gsn2(n, m) * _reflected(kind, m, k)) for m in range(n + 1))
    weights, den = _reciprocal_powers(n + 1, n + 2, k)
    return lhs, Poly([KIND_SIGN[kind] ** n * w for w in weights]) / den


def _cor2(kind, n, k):
    poly = cauchy_poly(kind, n, k)
    return (
        tuple(cauchy_coefficient(kind, n, i, k) for i in range(n + 1)),
        tuple(F(poly[i]) for i in range(n + 1)),
    )


def _symm_other(kind, n, k, shift=0):
    """The kind's polynomial, and the sum over m of (-1)^m n!/m! c_m
    C(-e x + shift - m, n - m) over the other kind's numbers c_m."""
    e = KIND_SIGN[kind]
    rhs = _lincomb((
        F((-1) ** m * factorial(n), factorial(m)) * cauchy_number(_OTHER[kind], m, k),
        binom_poly(shift - m, -e, n - m),
    ) for m in range(n + 1))
    return cauchy_poly(kind, n, k), rhs


def _symm_self(kind, n, k):
    # C(-x, j) = (-1)^j C(x+j-1, j): at k = 1 the first kind is the classical symm1 form
    e = KIND_SIGN[kind]
    rhs = _lincomb(
        (F(factorial(n), factorial(m)) * cauchy_number(kind, m, k), binom_poly(0, -e, n - m))
        for m in range(n + 1)
    )
    return cauchy_poly(kind, n, k), rhs


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
    rhs = _weighted_sum(signed, [gen_bernoulli_poly(m - i, n + 1).affine_compose(-e, 1) for m in range(i, n + 1)])
    return cauchy_poly(kind, n, k).derivative(i), rhs * ((-e) ** i * factorial(i))


def _derk(kind, n, i, k):
    return cauchy_poly(kind, n, k).derivative(i), cauchy_derivative(kind, n, k, i)


def _odd_central(kind, n, odd_poly):
    """The central-factorial sum for the kind's index-(2n+1) polynomial,
    odd_poly(d) being an Euler-type polynomial of odd degree d."""
    e = KIND_SIGN[kind]
    return _lincomb(
        (F(central_u(n, m), 2 * m + 1), odd_poly(2 * m + 1).affine_compose(1, e * n))
        for m in range(1, n + 1)
    ) * (-e * (2 * n + 1))


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


def _number_transform(kind, n, shift):
    """sum_{1 <= m <= n} c_m/m {n-shift m-shift} over the kind's numbers c_m."""
    return sum((
        cauchy_number(kind, m, 1) / m * stirling2(n - shift, m - shift) for m in range(1, n + 1)
    ), F(0))


@lru_cache(maxsize=256)
def _th3_terms(kind, n):
    """gsn2(n-1, m-1) times the kind's reflected polynomial of index m, for
    m = 1..n: the terms of ``_th3``, which do not depend on a G13 case's point
    y.  Memoised, bounded above the 72 keys of the deep grid (max_n 36)."""
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


@lru_cache(maxsize=2048)
def _s2_values(kind, m, k, y_num, y_den):
    """Sum over l of gsn2(m, l)(y) times the kind's index-l value at y, or
    at -y for the second kind, for y = y_num/y_den.  Memoised, bounded above
    the 1,428 keys of the deep grid (max_n_double 16, max_k 6), since G13 and
    G17 read each value for every n of an outer sum; y is keyed by two ints,
    as hashing a Fraction costs more than the rest of a lookup.  It is the
    dot product of the two rows of values."""
    y = F(y_num, y_den)
    values = _homogenised_row([cauchy_poly(kind, l, k) for l in range(m + 1)], KIND_SIGN[kind] * y, 1)
    return _dot(_bivariate_row("second", m, y, 1), values)


def _s2_double(kind, n, k, y):
    """Sum over m of (-e)^m m! _s2_values(kind, m, k, y) gsn2(n, m): the values
    as one row over their lcm, weighted by the integers (-e)^m m!."""
    e, a, b = KIND_SIGN[kind], y.numerator, y.denominator
    nums, den = _over_one_denominator([_s2_values(kind, m, k, a, b) for m in range(n + 1)])
    weights = Poly([(-e) ** m * factorial(m) * c for m, c in enumerate(nums)]) / den
    return _weighted_sum(weights, [gsn2(n, m) for m in range(n + 1)])


def _g01():
    def one_minus(n):
        rhs = _lincomb(
            (F((-1) ** (n - m), m + 1), gsn1(n, m).affine_compose(-1, 1))
            for m in range(n + 1)
        )
        return cauchy_poly("second", n, 1, "integral"), rhs

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
        rhs = _lincomb(
            (cauchy_number(_OTHER[kind], m, 1), a_number(n, m)) for m in range(n + 1)
        ) * (-1) ** n
        return _reflected(kind, n), rhs

    return [
        IdentityCase("G05.chen1", "first kind from second-kind numbers and rising binomials", (_N,), partial(_symm_other, "first", k=1)),
        IdentityCase("G05.chen2", "second kind from first-kind numbers and shifted binomials", (_N,), partial(_symm_other, "second", k=1)),
        IdentityCase("G05.symm1", "first kind from its own numbers and shifted binomials", (_N,), partial(_symm_self, "first", k=1)),
        IdentityCase("G05.symm2", "second kind from its own numbers and plain binomials", (_N,), partial(_symm_self, "second", k=1)),
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
        lhs, rhs = _symm_other(kind, n, 1, shift=1)
        return lhs, rhs - cauchy_poly(kind, n - 1, 1) * n

    def mirror(n):
        rhs = _chp(n).affine_compose(-1, 0) + _chp(n - 1).affine_compose(-1, 0) * n
        return _cp(n), rhs

    def _k_rec_variant(sign):
        def check(n, k):
            rhs = (X - n) * _chp(n, k) * sign - _lincomb((
                F((-1) ** m * factorial(n), factorial(m)) * _c(m + 1, k),
                binom_poly(-m - 1, 1, n - m),
            ) for m in range(n + 1))
            return _chp(n + 1, k), rhs

        return check

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
            variants={"+(x-n)": _k_rec_variant(1), "-(x-n)": _k_rec_variant(-1)},
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
        # m^l W_{m,r}(n, l) = m^n {n l}_(r/m): the row of those values against
        # the row of the kind's values at e r/m
        e = KIND_SIGN[kind]
        values = _homogenised_row([cauchy_poly(kind, l, 1) for l in range(n + 1)], F(e * r, m), 1)
        return _dot(_bivariate_row("second", n, F(r, m), 1), values) * m**n, F(e**n * m**n, n + 1)

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
            cauchy_number(kind, n - m, 1) * comb(n, m) * comb(m, i),
            gen_bernoulli_poly(m - i, m + 1).affine_compose(-e, 1),
        ) for m in range(i, n + 1)) * ((-e) ** i * factorial(i))
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
        # so its inner sum is the first kind's at -x; only it is seeded, by (-1)^n
        e = KIND_SIGN[kind]
        rhs = Poly([(1 - e) // 2 * (-1) ** n]) + _lincomb((
            F(1, factorial(m)),
            cauchy_poly(kind, m, 1) * _lincomb(
                (F((-1) ** (n + 1 - m - t), n + 1 - m - t), binom_poly(0, e, t))
                for t in range(n - m + 1)
            ),
        ) for m in range(n))
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
        rhs = (F(1) if n == 1 else F(0)) + sum((
            _c(m) / factorial(m) * F((-1) ** (n - m), (n - m) * (n + 1 - m))
            for m in range(n)
        ), F(0))
        return _c(n) / factorial(n), rhs

    def hyp67(kind, n):
        rhs = _lincomb((
            F((-1) ** m, factorial(m)),
            cauchy_poly(_OTHER[kind], m, 1).affine_compose(1, KIND_SIGN[kind] * n),
        ) for m in range(n + 1))
        return cauchy_poly(kind, n, 1) / factorial(n), rhs

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
    def th31_x1(n):
        return -bernoulli_number(n) / n, F((-1) ** n) * _number_transform("second", n, 0)

    def th31_x0(n):
        return -bernoulli_number(n) / n, _number_transform("first", n, 1)

    def inv(kind, n):
        seed = (1 - KIND_SIGN[kind]) // 2 * (-1) ** n
        rhs = _lincomb(
            (F(1, m), gsn1(n - 1, m - 1) * (bernoulli_poly(m) * (-1) ** (n - m) - seed))
            for m in range(1, n + 1)
        )
        return _reflected(kind, n) / (-n), rhs

    def inv3_alt(n):
        lhs = _chp(n).affine_compose(-1, 0) / (-n)
        rhs = _chp(n - 1).affine_compose(-1, 0) + _lincomb(
            (F((-1) ** (n - m), m), gsn1(n - 1, m - 1) * bernoulli_poly(m))
            for m in range(1, n + 1)
        )
        return lhs, rhs

    def exp5a(n):
        rhs = sum((stirling1(n, m) * bernoulli_number(m) / m for m in range(1, n + 1)), F(0))
        return F((-1) ** (n + 1)) * _ch(n) / n, rhs

    def exp5b(n):
        return F((-1) ** (n + 1)) * _c(n) / n, _stirling_bernoulli(n, -1)

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
    def bn_alt1(n):
        return bernoulli_number(n), F((-1) ** n) * (1 - n * _number_transform("first", n, 0))

    def bn_alt2(n):
        return bernoulli_number(n), F((-1) ** n) - n * _number_transform("second", n, 1)

    def diff_c(n):
        lhs = _lincomb(
            (F(1, m), gsn2(n - 1, m - 1) * (Poly([_c(m)]) - _cp(m)))
            for m in range(1, n + 1)
        )
        return lhs, Poly([0] * n + [F(1, n)])

    def diff_cchat(n):
        return _number_transform("first", n, 0) - _number_transform("second", n, 0), F(1, n)

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
        # e^m times the value kind's inner sum of index m - 1, m = 1..n, as
        # integer numerators over their lcm
        e = KIND_SIGN[kind]
        nums, den = _over_one_denominator([_s2_values(kind, m - 1, 1, y.numerator, y.denominator)
                                           for m in range(1, n + 1)])
        return Poly([e**m * c for m, c in enumerate(nums, 1)]) / den

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


def build() -> list[IdentityCase]:
    cases = []
    for builder in (_g01, _g02, _g03, _g04, _g05, _g06, _g07, _g08, _g09, _g10, _g11, _g12, _g13):
        cases.extend(builder())
    return cases
