"""Identity cases G1-G13: the classical (k = 1) Cauchy polynomial facts,
their Stirling/binomial/central-factorial/Whitney/derivative forms, the
hyperharmonic connection, and the Bernoulli bridges.

Where a classical identity is the k = 1 case of a general-order one, the
formula is written once, as a module-level general-order check below;
the G14/G15 case registers it as it is and the classical case with k
fixed to 1.  Where a result is stated once for each kind, the check is
written once with ``kind`` as its first argument and registered for each
kind with ``functools.partial``; the kind's sign e = ``KIND_SIGN[kind]``
and ``_reflect`` follow the convention stated in ``polycauchy.cauchy``.
A shift, seed or factor that only one kind carries is scaled by
(1 - e)/2, which is 0 for the first kind and 1 for the second, or by
(1 + e)/2, which is the reverse.  Where a case restates another case or a
library construction, it registers that existing check or compares with
that construction (``_constructions``) instead of writing the sum again.
The leading underscore of the shared checks and helpers keeps them
private, so the benchmark tracer (``bench/tracer.py``), which wraps every
public package function, leaves them alone."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial

from ..bernoulli import bernoulli_number, bernoulli_poly, gen_bernoulli_poly, euler_poly, power_sum_poly
from ..cauchy import (
    KIND_SIGN, _OTHER, _reflect, cauchy_coefficient, cauchy_derivative, cauchy_number, cauchy_poly,
    cauchy_recurrence_step,
)
from ..harmonic import harmonic_number, hyperharmonic_poly
from ..poly import Poly, _lincomb, binom_poly
from ..stirling import a_number, central_u, gsn1, gsn2, stirling1, stirling2, whitney
from .engine import IdentityCase

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


def _ns(grid, start=0, stop=None):
    top = grid.max_n if stop is None else stop
    return ({"n": n} for n in range(start, top + 1))


def _n_i(grid, n_start=0, i_start=0):
    return (
        {"n": n, "i": i}
        for n in range(n_start, grid.max_n_double + 1)
        for i in range(i_start, n + 1)
    )


def _n_y(grid, start=0, double=False):
    top = grid.max_n_double if double else grid.max_n
    return ({"n": n, "y": y} for n in range(start, top + 1) for y in grid.xs)


def _n_k(grid, n_start=0, double=False):
    top = grid.max_n_double if double else grid.max_n
    return (
        {"n": n, "k": k} for n in range(n_start, top + 1) for k in range(1, grid.max_k + 1)
    )


def _even_points(grid):
    return ({"n": n} for n in range(1, grid.max_n // 2 + 1))


# ---------------------------------------------------------------------------
# general-order checks shared with the classical cases


def _pro4(kind, n, k):
    # the weighted Stirling-polynomial sum is the gsn construction
    return _reflected(kind, n, k, "integral"), _reflected(kind, n, k)


def _constructions(lhs, rhs, kind, n, k=1):
    """The kind's polynomial by the two named constructions."""
    return cauchy_poly(kind, n, k, lhs), cauchy_poly(kind, n, k, rhs)


def _inv(kind, n, k):
    lhs = _lincomb((1, gsn2(n, m) * _reflected(kind, m, k)) for m in range(n + 1))
    return lhs, Poly([F(KIND_SIGN[kind] ** n, (n + 1) ** k)])


def _cor2(kind, n, k):
    poly = cauchy_poly(kind, n, k)
    return (
        tuple(cauchy_coefficient(kind, n, i, k) for i in range(n + 1)),
        tuple(F(poly[i]) for i in range(n + 1)),
    )


def _symm5(n, k):
    rhs = _lincomb(
        (F(factorial(n), factorial(m)) * _ch(m, k), binom_poly(n - 1, 1, n - m))
        for m in range(n + 1)
    ) * (-1) ** n
    return _cp(n, k), rhs


def _symm6(n, k):
    rhs = _lincomb(
        (F((-1) ** m * factorial(n), factorial(m)) * _c(m, k), binom_poly(-m, 1, n - m))
        for m in range(n + 1)
    )
    return _chp(n, k), rhs


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


@lru_cache(maxsize=512)
def _whitney_values(m, r, n):
    """whitney("first", m, r, n, l) / m^(n-l) for l = 0..n.  Memoised, bounded
    above the 400 keys of a deep grid (max_n 24, max_r 5; the default grid has
    208), since G08 and G15 read each value for every k and both kinds."""
    return tuple(whitney("first", m, r, n, l) / F(m) ** (n - l) for l in range(n + 1))


def _whitk(kind, n, k, m, r):
    """The kind's index-n value at e r/m, and the sum over l of
    (-1)^n (-e)^l / (l+1)^k times the first-kind r-Whitney number w_{m,r}(n, l)
    over m^(n-l), whose values depend on neither k nor the kind."""
    e = KIND_SIGN[kind]
    lhs = F(cauchy_poly(kind, n, k)(F(e * r, m)))
    rhs = sum((
        F((-1) ** n * (-e) ** l, (l + 1) ** k) * value
        for l, value in enumerate(_whitney_values(m, r, n))
    ), F(0))
    return lhs, rhs


def _genk(kind, n, i, k):
    e = KIND_SIGN[kind]
    rhs = _lincomb((
        F(e ** (n - m) * comb(n, m) * comb(m, i), (n + 1 - m) ** k),
        gen_bernoulli_poly(m - i, n + 1).affine_compose(-e, 1),
    ) for m in range(i, n + 1)) * ((-e) ** i * factorial(i))
    return cauchy_poly(kind, n, k).derivative(i), rhs


def _derk(kind, n, i, k):
    return cauchy_poly(kind, n, k).derivative(i), cauchy_derivative(kind, n, k, i)


def _odd_central(kind, n, odd_poly):
    """The central-factorial sum for the kind's index-(2n+1) polynomial,
    odd_poly(m) being an Euler-type polynomial of degree 2m+1."""
    e = KIND_SIGN[kind]
    return _lincomb(
        (F(central_u(n, m), 2 * m + 1), odd_poly(m).affine_compose(1, e * n))
        for m in range(1, n + 1)
    ) * (-e * (2 * n + 1))


@lru_cache(maxsize=2048)
def _s2_values(kind, m, k, y):
    """Sum over l of gsn2(m, l)(y) times the kind's index-l value at y, or
    at -y for the second kind.  Memoised, bounded above the 1,092 keys of a
    deep grid (max_n_double 12, max_k 6), since G13 and G17 read each value
    for every n of an outer sum."""
    point = KIND_SIGN[kind] * y
    return sum((gsn2(m, l)(y) * cauchy_poly(kind, l, k)(point) for l in range(m + 1)), F(0))


def _s2_double(kind, n, k, y):
    e = KIND_SIGN[kind]
    return _lincomb(
        (F((-e) ** m * factorial(m)) * _s2_values(kind, m, k, y), gsn2(n, m))
        for m in range(n + 1)
    )


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
        IdentityCase("G01.th11", "first kind as signed 1/(m+1) sum of shifted Stirling polynomials", _ns, partial(_pro4, "first", k=1)),
        IdentityCase("G01.th12", "second kind at -x as 1/(m+1) sum of shifted Stirling polynomials", _ns, partial(_pro4, "second", k=1)),
        IdentityCase("G01.rem31", "second kind via x -> -x composed Stirling polynomials", _ns, partial(_constructions, "integral", "gsn", "second")),
        IdentityCase("G01.shift-1mx", "second kind via the 1-x shifted Stirling polynomials", _ns, one_minus),
        IdentityCase("G01.kargin", "second-kind numbers from the (n+1, m+1) Stirling column", _ns, kargin),
        IdentityCase("G01.rem4a", "second-kind Stirling transform of first-kind polynomials is 1/(n+1)", _ns, partial(_inv, "first", k=1)),
        IdentityCase("G01.rem4b", "second-kind Stirling transform of reflected second-kind polynomials", _ns, partial(_inv, "second", k=1)),
    ]


def _g02():
    def leading(n):
        return (F(_cp(n)[n]), F(_chp(n)[n])), (F((-1) ** n), F(1))

    def subleading(n):
        lhs = (F(_cp(n)[n - 1]), F(_chp(n)[n - 1]))
        return lhs, (F((-1) ** n * n * (n - 2), 2), F(-n * n, 2))

    return [
        IdentityCase("G02.coef1", "closed-form coefficients of the first kind", _ns, partial(_cor2, "first", k=1)),
        IdentityCase("G02.coef2", "closed-form coefficients of the second kind", _ns, partial(_cor2, "second", k=1)),
        IdentityCase("G02.leading", "leading coefficients are (-1)^n and 1", _ns, leading),
        IdentityCase("G02.subleading", "subleading coefficients n(n-2)/2 laws", lambda g: _ns(g, 1), subleading),
    ]


def _g03():
    def exp3(n):
        rhs = (1 if n == 1 else 0) + F((-1) ** (n + 1) * n) * sum((
            F(stirling1(n - 1, m - 1), m) * bernoulli_number(m) for m in range(1, n + 1)
        ), F(0))
        return _c(n), rhs

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
        IdentityCase("G03.exp1", "explicit Stirling expansion of the first kind", lambda g: _ns(g, 1), partial(_constructions, "theorem1", "gsn", "first")),
        IdentityCase("G03.exp2", "explicit Stirling expansion of the second kind", lambda g: _ns(g, 1), partial(_constructions, "theorem1", "gsn", "second")),
        IdentityCase("G03.exp3", "first-kind numbers from Bernoulli numbers", lambda g: _ns(g, 1), exp3),
        IdentityCase("G03.exp4", "nonconstant coefficients are (n/i) times a Stirling entry", lambda g: _ns(g, 1), exp4),
        IdentityCase(
            "G03.coef-ident", "alternating binomial-Stirling sum collapses to one entry",
            lambda g: ({"n": n, "i": i} for n in range(1, g.max_n + 1) for i in range(1, n + 1)),
            coef_ident,
        ),
        IdentityCase("G03.alt-sum", "alternating row sums of the first-kind triangle vanish", lambda g: _ns(g, 2), alt_sum),
    ]


def _g04():
    def lm11(n, y):
        lhs = power_sum_poly(n - 1).affine_compose(1, y - 1).integrate_01()
        return lhs, (y**n - bernoulli_poly(n)(F(1))) / n

    def lm12(n, y):
        lhs = power_sum_poly(n - 1).affine_compose(-1, y - 1).integrate_01()
        return lhs, ((y - 1) ** n - bernoulli_poly(n)(F(1))) / n

    def qi(n):
        rhs = F((-1) ** (n + 1)) * sum((
            F(stirling1(n - 1, m - 1), m * (m + 1)) for m in range(1, n + 1)
        ), F(0))
        return _c(n), rhs

    def int_pair(n):
        rhs = _c(n) + F((-1) ** n * n) * sum((
            F(stirling1(n - 1, m - 1), m * (m + 1)) for m in range(1, n + 1)
        ), F(0))
        return (_cp(n).integrate_01(), _chp(n).integrate_01()), (rhs, rhs)

    def int1(n):
        want = (1 - n) * _c(n)
        return (_cp(n).integrate_01(), _chp(n).integrate_01()), (want, want)

    return [
        IdentityCase("G04.lm11", "unit integral of the shifted power-sum polynomial", lambda g: _n_y(g, 1), lm11),
        IdentityCase("G04.lm12", "unit integral of the reflected power-sum polynomial", lambda g: _n_y(g, 1), lm12),
        IdentityCase("G04.qi", "first-kind numbers as 1/(m(m+1)) Stirling sums", lambda g: _ns(g, 1), qi),
        IdentityCase("G04.int-pair", "unit integrals of both kinds share the Stirling sum value", lambda g: _ns(g, 1), int_pair),
        IdentityCase("G04.int1", "unit integrals of both kinds equal (1-n) times the first-kind number", _ns, int1),
    ]


def _g05():
    def x1_a(n):
        rhs = F((-1) ** n * factorial(n)) * sum((
            comb(n, m) * _ch(m) / factorial(m) for m in range(n + 1)
        ), F(0))
        return _ch(n), rhs

    def x1_bc(kind, n):
        rhs = F((-1) ** n * factorial(n)) * sum((
            comb(n - 1, m - 1) * cauchy_number(_OTHER[kind], m, 1) / factorial(m)
            for m in range(1, n + 1)
        ), F(0))
        return cauchy_number(kind, n, 1), rhs

    def x1_d(n):
        rhs = F((-1) ** n * factorial(n)) * sum((
            comb(n - 2, m - 2) * _c(m) / factorial(m) for m in range(2, n + 1)
        ), F(0))
        return _c(n), rhs

    def alt_conv(n):
        rhs = F((-1) ** n * factorial(n)) * sum((
            F((-1) ** m) * _c(m) / factorial(m) for m in range(n + 1)
        ), F(0))
        return _ch(n), rhs

    def shift_two(n):
        return _c(n), _ch(n) + n * _ch(n - 1)

    def conv_int(n):
        s1 = sum((comb(n, m) * _ch(m) * _c(n - m) for m in range(n + 1)), F(0))
        s2 = sum((comb(n, m) * _c(m) * _ch(n - m) for m in range(n + 1)), F(0))
        want = (1 - n) * _c(n)
        return (s1, s2), (want, want)

    def c2_triple(n):
        want = F(_cp(n)(F(2)))
        t1 = F((-1) ** n * factorial(n)) * sum((F((-1) ** m) * _ch(m) / factorial(m) for m in range(n + 1)), F(0))
        t2 = F((-1) ** n * factorial(n)) * sum((comb(n + 1, m + 1) * _ch(m) / factorial(m) for m in range(n + 1)), F(0))
        t3 = F((-1) ** n * factorial(n)) * sum((comb(n, m) * _c(m) / factorial(m) for m in range(n + 1)), F(0))
        return (t1, t2, t3), (want, want, want)

    def seq(kind, n):
        rhs = _lincomb(
            (cauchy_number(_OTHER[kind], m, 1), a_number(n, m)) for m in range(n + 1)
        ) * (-1) ** n
        return _reflected(kind, n), rhs

    return [
        IdentityCase("G05.chen1", "first kind from second-kind numbers and rising binomials", _ns, partial(_symm5, k=1)),
        IdentityCase("G05.chen2", "second kind from first-kind numbers and shifted binomials", _ns, partial(_symm6, k=1)),
        IdentityCase("G05.symm1", "first kind from its own numbers and shifted binomials", _ns, partial(_symm_self, "first", k=1)),
        IdentityCase("G05.symm2", "second kind from its own numbers and plain binomials", _ns, partial(_symm_self, "second", k=1)),
        IdentityCase("G05.x1-a", "binomial self-convolution of second-kind numbers", _ns, x1_a),
        IdentityCase("G05.x1-b", "first-kind numbers from shifted second-kind convolution", lambda g: _ns(g, 1), partial(x1_bc, "first")),
        IdentityCase("G05.x1-c", "second-kind numbers from shifted first-kind convolution", lambda g: _ns(g, 1), partial(x1_bc, "second")),
        IdentityCase("G05.x1-d", "first-kind numbers from doubly-shifted self convolution", lambda g: _ns(g, 2), x1_d),
        IdentityCase("G05.alt-conv", "alternating convolution links the two kinds", _ns, alt_conv),
        IdentityCase("G05.shift-two", "two-term relation between the kinds", lambda g: _ns(g, 1), shift_two),
        IdentityCase("G05.conv-int", "binomial convolution of both kinds equals (1-n) c_n", _ns, conv_int),
        IdentityCase("G05.c2-triple", "three equivalent sums for the value at 2", _ns, c2_triple),
        IdentityCase("G05.seq1", "first kind in the factorial-binomial basis", _ns, partial(seq, "first")),
        IdentityCase("G05.seq2", "reflected second kind in the factorial-binomial basis", _ns, partial(seq, "second")),
    ]


def _g06():
    def nstep1(n):
        rhs = _cp(n - 1) * (-n) + _lincomb(
            (F(factorial(n), factorial(m)) * _ch(m), binom_poly(n - 2, 1, n - m))
            for m in range(n + 1)
        ) * (-1) ** n
        return _cp(n), rhs

    def nstep2(n):
        rhs = _chp(n - 1) * (-n) + _lincomb(
            (F((-1) ** m * factorial(n), factorial(m)) * _c(m), binom_poly(1 - m, 1, n - m))
            for m in range(n + 1)
        )
        return _chp(n), rhs

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
        IdentityCase("G06.rec1", "one-step recurrence for the first kind", lambda g: _ns(g, 0, g.max_n - 1), partial(_reck, "first", k=1)),
        IdentityCase("G06.rec2", "one-step recurrence for the second kind", lambda g: _ns(g, 0, g.max_n - 1), partial(_reck, "second", k=1)),
        IdentityCase("G06.nstep1", "alternative step recurrence, first kind", lambda g: _ns(g, 1), nstep1),
        IdentityCase("G06.nstep2", "alternative step recurrence, second kind", lambda g: _ns(g, 1), nstep2),
        IdentityCase("G06.diff1", "difference equation of the first kind", lambda g: _ns(g, 1), partial(_diffk, "first", k=1)),
        IdentityCase("G06.diff2", "difference equation of the second kind", lambda g: _ns(g, 1), partial(_diffk, "second", k=1)),
        IdentityCase("G06.mirror", "first kind from the reflected second kind", lambda g: _ns(g, 1), mirror),
        IdentityCase(
            "G06.k-recurrence-sign",
            "probe: sign of the (x-n) term in the second-kind step recurrence for general order",
            lambda g: _n_k(g, 0, True),
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
        rhs = _odd_central(kind, n, lambda m: euler_poly(2 * m + 1))
        return cauchy_poly(kind, 2 * n + 1, 1), rhs

    return [
        IdentityCase("G07.even-first", "even first kind via central factorials and Bernoulli numbers", _even_points, partial(even, "first")),
        IdentityCase("G07.even-second", "even second kind via central factorials and Bernoulli numbers", _even_points, partial(even, "second")),
        IdentityCase("G07.odd-first", "odd first kind via central factorials and Euler polynomials", _even_points, partial(odd, "first")),
        IdentityCase("G07.odd-second", "odd second kind via central factorials and Euler polynomials", _even_points, partial(odd, "second")),
    ]


_WHITNEY_MS = (1, 2, -2, 3)
_WHITNEY_RS = (-2, 0, 1, 3)


def _g08():
    def _points(grid):
        return (
            {"n": n, "m": m, "r": r}
            for n in range(grid.max_n + 1)
            for m in _WHITNEY_MS
            for r in _WHITNEY_RS
            if abs(r) <= grid.max_r
        )

    def whit_rev(kind, n, m, r):
        e = KIND_SIGN[kind]
        lhs = sum((
            F(m) ** l * whitney("second", m, r, n, l) * cauchy_poly(kind, l, 1)(F(e * r, m))
            for l in range(n + 1)
        ), F(0))
        return lhs, F(e**n * m**n, n + 1)

    return [
        IdentityCase("G08.whit1", "first kind at r/m from first-kind Whitney numbers", _points, partial(_whitk, "first", k=1)),
        IdentityCase("G08.whit2", "second kind at -r/m from first-kind Whitney numbers", _points, partial(_whitk, "second", k=1)),
        IdentityCase("G08.whit1-rev", "reversed Whitney transform of first-kind values", _points, partial(whit_rev, "first")),
        IdentityCase("G08.whit2-rev", "reversed Whitney transform of second-kind values", _points, partial(whit_rev, "second")),
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

    def half_harm(n):
        lhs = sum((
            F((-1) ** (n - m), m + 1) * _c(n - m) / factorial(n - m) * harmonic_number(m)
            for m in range(n + 1)
        ), F(0))
        return lhs, F(1, 2 * n)

    def zhao(kind, n):
        lhs = sum((
            F((-1) ** (n - m)) * cauchy_number(kind, n - m, 1) / factorial(n - m)
            * harmonic_number(m + 1)
            for m in range(n + 1)
        ), F(0))
        return lhs, F(1 + (1 - KIND_SIGN[kind]) // 2 * n)

    def chat_half(n):
        lhs = sum((
            F((-1) ** (n - m), m + 1) * _ch(n - m) / factorial(n - m) * harmonic_number(m)
            for m in range(n + 1)
        ), F(0))
        return lhs, harmonic_number(n) / 2

    return [
        IdentityCase("G09.th5-first", "derivatives via higher-order Bernoulli polynomials, first kind", _n_i, partial(_genk, "first", k=1)),
        IdentityCase("G09.th5-second", "derivatives via higher-order Bernoulli polynomials, second kind", _n_i, partial(_genk, "second", k=1)),
        IdentityCase("G09.th6-first", "derivatives via own numbers and Stirling polynomials, first kind", _n_i, partial(_derk, "first", k=1)),
        IdentityCase("G09.th6-second", "derivatives via own numbers and Stirling polynomials, second kind", _n_i, partial(_derk, "second", k=1)),
        IdentityCase("G09.th6b-first", "derivative rewrite through order-(m+1) Bernoulli polynomials", _n_i, partial(th6b, "first")),
        IdentityCase("G09.th6b-second", "second-kind derivative rewrite through Bernoulli polynomials", _n_i, partial(th6b, "second")),
        IdentityCase("G09.der12", "derivatives collapse to a single shifted Stirling polynomial", lambda g: _n_i(g, 1, 1), partial(der, "first")),
        IdentityCase("G09.der22", "second-kind derivatives collapse with the 1-x argument", lambda g: _n_i(g, 1, 1), partial(der, "second")),
        IdentityCase("G09.gder1", "Stirling-weighted number sums collapse, first kind", lambda g: _n_i(g, 1, 1), partial(gder, "first")),
        IdentityCase("G09.gder2", "Stirling-weighted number sums collapse, second kind", lambda g: _n_i(g, 1, 1), partial(gder, "second")),
        IdentityCase("G09.merlin", "self-referential recurrence of the first-kind numbers", lambda g: _ns(g, 1), partial(self_rec, "first")),
        IdentityCase("G09.half-harm", "harmonic-weighted convolution gives 1/(2n)", lambda g: _ns(g, 1), half_harm),
        IdentityCase("G09.zhao", "harmonic-weighted convolution gives 1", _ns, partial(zhao, "first")),
        IdentityCase("G09.chat-rec", "self-referential recurrence of second-kind numbers", lambda g: _ns(g, 1), partial(self_rec, "second")),
        IdentityCase("G09.chat-half", "second-kind harmonic convolution gives half a harmonic number", _ns, chat_half),
        IdentityCase("G09.chat-zhao", "second-kind harmonic convolution gives n+1", _ns, partial(zhao, "second")),
    ]


def _g10():
    def hyp12(kind, n, y):
        e = KIND_SIGN[kind]
        lhs = _lincomb(
            (F((-1) ** m, factorial(m)) * hyperharmonic_poly(n + 1 - m)(y), cauchy_poly(kind, m, 1))
            for m in range(n + 1)
        )
        return lhs, binom_poly(y + n - (1 + e) // 2, e, n)

    def hyp3(n):
        lhs = _lincomb(
            (F((-1) ** m, factorial(m)), _cp(m) * hyperharmonic_poly(n + 1 - m).affine_compose(-1, 0))
            for m in range(n + 1)
        )
        return lhs, Poly([1 if n == 0 else 0])

    def hyp4(n):
        lhs = _lincomb(
            (F((-1) ** m, factorial(m)), _chp(m) * hyperharmonic_poly(n + 1 - m))
            for m in range(n + 1)
        )
        return lhs, Poly([1])

    def conec1(n):
        rhs = _lincomb((
            F(1, factorial(m)),
            _cp(m) * _lincomb(
                (F((-1) ** (n + 1 - m - t), n + 1 - m - t), binom_poly(0, 1, t))
                for t in range(n - m + 1)
            ),
        ) for m in range(n))
        return _cp(n) / factorial(n), rhs

    def conec2(n):
        rhs = Poly([F((-1) ** n)]) + _lincomb((
            F(1, factorial(m)),
            _chp(m) * _lincomb(
                (F((-1) ** (n + 1 - m), n + 1 - m - t), binom_poly(t - 1, 1, t))
                for t in range(n - m + 1)
            ),
        ) for m in range(n))
        return _chp(n) / factorial(n), rhs

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
        IdentityCase("G10.hyp1", "hyperharmonic convolution of the first kind gives a binomial", lambda g: _n_y(g), partial(hyp12, "first")),
        IdentityCase("G10.hyp2", "hyperharmonic convolution of the second kind gives a binomial", lambda g: _n_y(g), partial(hyp12, "second")),
        IdentityCase("G10.hyp3", "self-cancelling hyperharmonic convolution, first kind", _ns, hyp3),
        IdentityCase("G10.hyp4", "constant hyperharmonic convolution, second kind", _ns, hyp4),
        IdentityCase("G10.conec1", "recurrence with inner binomial weights, first kind", lambda g: _ns(g, 1), conec1),
        IdentityCase("G10.conec2", "recurrence with inner binomial weights, second kind", lambda g: _ns(g, 1), conec2),
        IdentityCase("G10.rec-negy", "two-factor denominator recurrence, first kind", lambda g: _ns(g, 1), partial(hyp5, "first")),
        IdentityCase("G10.hyp5", "two-factor denominator recurrence, second kind", lambda g: _ns(g, 1), partial(hyp5, "second")),
        IdentityCase("G10.hyp5-x1", "number specialization of the two-factor recurrence", lambda g: _ns(g, 1), hyp5_x1),
        IdentityCase("G10.hyp6", "first kind as alternating shifted second-kind sums", _ns, partial(hyp67, "first")),
        IdentityCase("G10.hyp7", "second kind as alternating shifted first-kind sums", _ns, partial(hyp67, "second")),
        IdentityCase("G10.eval-two", "values at -n and n collapse to values at 2 and 0", _ns, eval_two),
        IdentityCase("G10.via-bernoulli-1", "hyperharmonic polynomials from first-kind numbers and Bernoulli polynomials", lambda g: _ns(g, 1), partial(via_bernoulli, "first")),
        IdentityCase("G10.via-bernoulli-2", "shifted hyperharmonic polynomials from second-kind numbers", lambda g: _ns(g, 1), partial(via_bernoulli, "second")),
    ]


def _g11():
    def th3(kind, n):
        seed = (1 - KIND_SIGN[kind]) // 2 * (-1) ** n
        rhs = _lincomb((F(1, m), gsn2(n - 1, m - 1) * _reflected(kind, m)) for m in range(1, n + 1))
        return (Poly([seed]) - bernoulli_poly(n)) / n, rhs

    def th31_x1(n):
        rhs = F((-1) ** n) * sum((_ch(m) / m * stirling2(n, m) for m in range(1, n + 1)), F(0))
        return -bernoulli_number(n) / n, rhs

    def th31_x0(n):
        rhs = sum((_c(m) / m * stirling2(n - 1, m - 1) for m in range(1, n + 1)), F(0))
        return -bernoulli_number(n) / n, rhs

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
        rhs = sum((
            F((-1) ** m) * stirling1(n - 1, m - 1) * bernoulli_number(m) / m
            for m in range(1, n + 1)
        ), F(0))
        return F((-1) ** (n + 1)) * _c(n) / n, rhs

    def odd_vanish(n):
        lhs = sum((stirling1(n - 1, m - 1) * bernoulli_number(m) / m for m in range(1, n + 1)), F(0))
        rhs = sum((
            F((-1) ** m) * stirling1(n - 1, m - 1) * bernoulli_number(m) / m
            for m in range(1, n + 1)
        ), F(0))
        return lhs, rhs

    def chat2n_at_n(n):
        lhs = F(_chp(2 * n)(F(n)))
        rhs = -n * sum((
            F(central_u(n, m), m) * bernoulli_number(2 * m) for m in range(1, n + 1)
        ), F(0))
        return lhs, rhs

    return [
        IdentityCase("G11.th31", "Bernoulli polynomials from first-kind polynomial transforms", lambda g: _ns(g, 1), partial(th3, "first")),
        IdentityCase("G11.th32", "Bernoulli polynomials from reflected second-kind transforms", lambda g: _ns(g, 1), partial(th3, "second")),
        IdentityCase("G11.th31-x1", "Bernoulli numbers from second-kind numbers", lambda g: _ns(g, 1), th31_x1),
        IdentityCase("G11.th31-x0", "Bernoulli numbers from first-kind numbers", lambda g: _ns(g, 1), th31_x0),
        IdentityCase("G11.inv2", "first-kind polynomials from Bernoulli polynomials", lambda g: _ns(g, 1), partial(inv, "first")),
        IdentityCase("G11.inv3", "reflected second kind from Bernoulli polynomials", lambda g: _ns(g, 1), partial(inv, "second")),
        IdentityCase("G11.inv3-alt", "rewritten reflected second-kind inversion", lambda g: _ns(g, 1), inv3_alt),
        IdentityCase("G11.exp5a", "second-kind numbers from Bernoulli numbers", lambda g: _ns(g, 1), exp5a),
        IdentityCase("G11.exp5b", "first-kind numbers from alternating Bernoulli sums", lambda g: _ns(g, 1), exp5b),
        IdentityCase("G11.odd-vanish", "equality forcing odd Bernoulli numbers to vanish", lambda g: _ns(g, 2), odd_vanish),
        IdentityCase("G11.chat2n-at-n", "even second-kind value at n from central factorials", _even_points, chat2n_at_n),
    ]


def _g12():
    def th4(kind, n):
        # x^n for the first kind, (x-1)^n for the second
        rhs = Poly([(KIND_SIGN[kind] - 1) // 2, 1]) ** n - _lincomb(
            (cauchy_number(kind, m, 1) / m, gsn2(n - 1, m - 1)) for m in range(1, n + 1)
        ) * n
        return bernoulli_poly(n), rhs

    def bn_alt1(n):
        rhs = F((-1) ** n) * (
            1 - n * sum((_c(m) / m * stirling2(n, m) for m in range(1, n + 1)), F(0))
        )
        return bernoulli_number(n), rhs

    def bn_alt2(n):
        rhs = F((-1) ** n) - n * sum((
            _ch(m) / m * stirling2(n - 1, m - 1) for m in range(1, n + 1)
        ), F(0))
        return bernoulli_number(n), rhs

    def diff_c(n):
        lhs = _lincomb(
            (F(1, m), gsn2(n - 1, m - 1) * (Poly([_c(m)]) - _cp(m)))
            for m in range(1, n + 1)
        )
        return lhs, Poly([0] * n + [F(1, n)])

    def diff_cchat(n):
        lhs = sum(((_c(m) - _ch(m)) / m * stirling2(n, m) for m in range(1, n + 1)), F(0))
        return lhs, F(1, n)

    def kargin_inv(n):
        lhs = sum((stirling2(n + 1, m + 1) * _ch(m) for m in range(n + 1)), F(0))
        return lhs, F(1, n + 1)

    return [
        IdentityCase("G12.th41", "Bernoulli polynomials from first-kind numbers and x^n", lambda g: _ns(g, 1), partial(th4, "first")),
        IdentityCase("G12.th42", "Bernoulli polynomials from second-kind numbers and (x-1)^n", lambda g: _ns(g, 1), partial(th4, "second")),
        IdentityCase("G12.bn-alt1", "alternative Bernoulli number formula, first kind", lambda g: _ns(g, 1), bn_alt1),
        IdentityCase("G12.bn-alt2", "alternative Bernoulli number formula, second kind", lambda g: _ns(g, 1), bn_alt2),
        IdentityCase("G12.diff-c", "number-minus-polynomial transform collapses to x^n/n", lambda g: _ns(g, 1), diff_c),
        IdentityCase("G12.diff-cchat", "difference of the kinds under the Stirling transform", lambda g: _ns(g, 1), diff_cchat),
        IdentityCase("G12.kargin-inv", "second-kind numbers under the shifted Stirling transform", _ns, kargin_inv),
    ]


def _g13():
    def p4ab(kind, n, y):
        return bernoulli_poly(n), _s2_double(kind, n, 1, y)

    def p4cd(kind, n, y):
        e = KIND_SIGN[kind]
        rhs = _lincomb((
            sum((
                F((-1) ** (n + l) * (-e) ** m, factorial(m)) * gsn1(m, l)(y) * bernoulli_poly(l)(y)
                for l in range(m + 1)
            ), F(0)),
            gsn1(n, m),
        ) for m in range(n + 1))
        return _reflected(kind, n), rhs

    def inner(kind, m, y):
        return F(KIND_SIGN[kind] ** m) * _s2_values(kind, m - 1, 1, y)

    # p5_poly has the form of G11.th31/th32 and p5_numbers that of G12.th41/th42;
    # the value kind sets the inner sum that replaces 1/m and the sign
    def p5_poly(poly_kind, value_kind, n, y):
        seed = (1 - KIND_SIGN[poly_kind]) // 2 * (-1) ** n
        rhs = _lincomb(
            (inner(value_kind, m, y), gsn2(n - 1, m - 1) * _reflected(poly_kind, m))
            for m in range(1, n + 1)
        )
        return (Poly([seed]) - bernoulli_poly(n)) / (KIND_SIGN[value_kind] * n), rhs

    def p5_numbers(number_kind, value_kind, n, y):
        rhs = Poly([(KIND_SIGN[number_kind] - 1) // 2, 1]) ** n - _lincomb(
            (cauchy_number(number_kind, m, 1) * inner(value_kind, m, y), gsn2(n - 1, m - 1))
            for m in range(1, n + 1)
        ) * (KIND_SIGN[value_kind] * n)
        return bernoulli_poly(n), rhs

    descs = {
        "p4a": "Bernoulli polynomials from double second-kind transforms of first-kind values",
        "p4b": "Bernoulli polynomials from double transforms of reflected second-kind values",
        "p4c": "first kind from double first-kind transforms of Bernoulli values",
        "p4d": "reflected second kind from double first-kind transforms of Bernoulli values",
        "p5a": "double-sum product form, first kind twice",
        "p5b": "double-sum product form, first then second kind",
        "p5c": "double-sum product form, second then first kind",
        "p5d": "double-sum product form, second kind twice",
        "p5e": "x^n form with first-kind numbers and values",
        "p5f": "x^n form with first-kind numbers, second-kind values",
        "p5g": "(x-1)^n form with second-kind numbers, first-kind values",
        "p5h": "(x-1)^n form with second-kind numbers and values",
    }
    # check and first n of each case
    checks = {
        "p4a": (partial(p4ab, "first"), 0), "p4b": (partial(p4ab, "second"), 0),
        "p4c": (partial(p4cd, "first"), 0), "p4d": (partial(p4cd, "second"), 0),
        "p5a": (partial(p5_poly, "first", "first"), 1), "p5b": (partial(p5_poly, "first", "second"), 1),
        "p5c": (partial(p5_poly, "second", "first"), 1), "p5d": (partial(p5_poly, "second", "second"), 1),
        "p5e": (partial(p5_numbers, "first", "first"), 1), "p5f": (partial(p5_numbers, "first", "second"), 1),
        "p5g": (partial(p5_numbers, "second", "first"), 1), "p5h": (partial(p5_numbers, "second", "second"), 1),
    }
    return [
        IdentityCase(f"G13.{name}", descs[name], partial(_n_y, start=start, double=True), fn)
        for name, (fn, start) in checks.items()
    ]


def build() -> list[IdentityCase]:
    cases = []
    for builder in (_g01, _g02, _g03, _g04, _g05, _g06, _g07, _g08, _g09, _g10, _g11, _g12, _g13):
        cases.extend(builder())
    return cases
