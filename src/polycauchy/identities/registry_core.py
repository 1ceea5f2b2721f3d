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
The leading underscore of the shared checks and helpers keeps them
private, so the benchmark tracer (``bench/tracer.py``), which wraps every
public package function, leaves them alone."""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import comb, factorial

from ..bernoulli import bernoulli_number, bernoulli_poly, gen_bernoulli_poly, euler_poly, power_sum_poly
from ..cauchy import (
    KIND_SIGN, _OTHER, _reflect, cauchy_coefficient, cauchy_derivative, cauchy_number, cauchy_poly,
    cauchy_recurrence_step,
)
from ..harmonic import harmonic_number, hyperharmonic_poly
from ..poly import Poly, binom_poly
from ..stirling import a_number, central_u, gsn1, gsn2, stirling1, stirling2, whitney
from .engine import IdentityCase

F = Fraction
X = Poly.gen()


def _psum(terms) -> Poly:
    total = Poly()
    for t in terms:
        total = total + t
    return total


def _fsum(terms) -> Fraction:
    total = F(0)
    for t in terms:
        total += t
    return total


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
    e = KIND_SIGN[kind]
    rhs = _psum(gsn1(n, m) * F((-1) ** n * (-e) ** m, (m + 1) ** k) for m in range(n + 1))
    return _reflected(kind, n, k, "integral"), rhs


def _inv(kind, n, k):
    lhs = _psum(gsn2(n, m) * _reflected(kind, m, k) for m in range(n + 1))
    return lhs, Poly([F(KIND_SIGN[kind] ** n, (n + 1) ** k)])


def _cor2(kind, n, k):
    poly = cauchy_poly(kind, n, k)
    return (
        tuple(cauchy_coefficient(kind, n, i, k) for i in range(n + 1)),
        tuple(F(poly[i]) for i in range(n + 1)),
    )


def _symm5(n, k):
    rhs = _psum(
        binom_poly(n - 1, 1, n - m) * (F(factorial(n), factorial(m)) * _ch(m, k))
        for m in range(n + 1)
    ) * (-1) ** n
    return _cp(n, k), rhs


def _symm6(n, k):
    rhs = _psum(
        binom_poly(-m, 1, n - m)
        * (F((-1) ** m * factorial(n), factorial(m)) * _c(m, k))
        for m in range(n + 1)
    )
    return _chp(n, k), rhs


def _symm8a(n, k):
    rhs = _psum(
        binom_poly(0, 1, n - m) * (F(factorial(n), factorial(m)) * _ch(m, k))
        for m in range(n + 1)
    )
    return _chp(n, k), rhs


def _reck(kind, n, k):
    return cauchy_poly(kind, n + 1, k), cauchy_recurrence_step(kind, n, k)


def _diffk1(n, k):
    lhs = _cp(n, k).affine_compose(1, 1) - _cp(n, k)
    return lhs, _cp(n - 1, k).affine_compose(1, 1) * (-n)


def _diffk2(n, k):
    lhs = _chp(n, k).affine_compose(1, 1) - _chp(n, k)
    return lhs, _chp(n - 1, k) * n


def _whitk(kind, n, k, m, r):
    e = KIND_SIGN[kind]
    lhs = F(cauchy_poly(kind, n, k)(F(e * r, m)))
    rhs = _fsum(
        F((-1) ** n * (-e) ** l, (l + 1) ** k) * whitney("first", m, r, n, l) / F(m) ** (n - l)
        for l in range(n + 1)
    )
    return lhs, rhs


def _genk(kind, n, i, k):
    e = KIND_SIGN[kind]
    rhs = _psum(
        gen_bernoulli_poly(m - i, n + 1).affine_compose(-e, 1)
        * F(e ** (n - m) * comb(n, m) * comb(m, i), (n + 1 - m) ** k)
        for m in range(i, n + 1)
    ) * ((-e) ** i * factorial(i))
    return cauchy_poly(kind, n, k).derivative(i), rhs


def _derk(kind, n, i, k):
    return cauchy_poly(kind, n, k).derivative(i), cauchy_derivative(kind, n, k, i)


def _odd_central(kind, n, odd_poly):
    """The central-factorial sum for the kind's index-(2n+1) polynomial,
    odd_poly(m) being an Euler-type polynomial of degree 2m+1."""
    e = KIND_SIGN[kind]
    return _psum(
        odd_poly(m).affine_compose(1, e * n) * F(central_u(n, m), 2 * m + 1)
        for m in range(1, n + 1)
    ) * (-e * (2 * n + 1))


def _s2_values(kind, m, k, y):
    """Sum over l of gsn2(m, l)(y) times the kind's index-l value at y, or
    at -y for the second kind."""
    point = KIND_SIGN[kind] * y
    return _fsum(gsn2(m, l)(y) * cauchy_poly(kind, l, k)(point) for l in range(m + 1))


def _s2_double(kind, n, k, y):
    e = KIND_SIGN[kind]
    return _psum(
        gsn2(n, m) * (F((-e) ** m * factorial(m)) * _s2_values(kind, m, k, y))
        for m in range(n + 1)
    )


def _g01():
    def rem31(n):
        lhs = cauchy_poly("second", n, 1, "integral")
        rhs = _psum(
            gsn1(n, m).affine_compose(-1, 0) * F(1, m + 1) for m in range(n + 1)
        ) * (-1) ** n
        return lhs, rhs

    def one_minus(n):
        rhs = _psum(
            gsn1(n, m).affine_compose(-1, 1) * F((-1) ** (n - m), m + 1)
            for m in range(n + 1)
        )
        return cauchy_poly("second", n, 1, "integral"), rhs

    def kargin(n):
        rhs = _fsum(F((-1) ** (n - m) * stirling1(n + 1, m + 1), m + 1) for m in range(n + 1))
        return _ch(n), rhs

    return [
        IdentityCase("G01.th11", "G01", "first kind as signed 1/(m+1) sum of shifted Stirling polynomials", _ns, partial(_pro4, "first", k=1)),
        IdentityCase("G01.th12", "G01", "second kind at -x as 1/(m+1) sum of shifted Stirling polynomials", _ns, partial(_pro4, "second", k=1)),
        IdentityCase("G01.rem31", "G01", "second kind via x -> -x composed Stirling polynomials", _ns, rem31),
        IdentityCase("G01.shift-1mx", "G01", "second kind via the 1-x shifted Stirling polynomials", _ns, one_minus),
        IdentityCase("G01.kargin", "G01", "second-kind numbers from the (n+1, m+1) Stirling column", _ns, kargin),
        IdentityCase("G01.rem4a", "G01", "second-kind Stirling transform of first-kind polynomials is 1/(n+1)", _ns, partial(_inv, "first", k=1)),
        IdentityCase("G01.rem4b", "G01", "second-kind Stirling transform of reflected second-kind polynomials", _ns, partial(_inv, "second", k=1)),
    ]


def _g02():
    def leading(n):
        return (F(_cp(n)[n]), F(_chp(n)[n])), (F((-1) ** n), F(1))

    def subleading(n):
        lhs = (F(_cp(n)[n - 1]), F(_chp(n)[n - 1]))
        return lhs, (F((-1) ** n * n * (n - 2), 2), F(-n * n, 2))

    return [
        IdentityCase("G02.coef1", "G02", "closed-form coefficients of the first kind", _ns, partial(_cor2, "first", k=1)),
        IdentityCase("G02.coef2", "G02", "closed-form coefficients of the second kind", _ns, partial(_cor2, "second", k=1)),
        IdentityCase("G02.leading", "G02", "leading coefficients are (-1)^n and 1", _ns, leading),
        IdentityCase("G02.subleading", "G02", "subleading coefficients n(n-2)/2 laws", lambda g: _ns(g, 1), subleading),
    ]


def _g03():
    def exp(kind, n):
        return cauchy_poly(kind, n, 1, "theorem1"), cauchy_poly(kind, n, 1)

    def exp3(n):
        rhs = (1 if n == 1 else 0) + F((-1) ** (n + 1) * n) * _fsum(
            F(stirling1(n - 1, m - 1), m) * bernoulli_number(m) for m in range(1, n + 1)
        )
        return _c(n), rhs

    def exp4(n):
        poly = _cp(n)
        lhs = tuple(F(poly[i]) for i in range(1, n + 1))
        rhs = tuple(F((-1) ** n * n, i) * stirling1(n - 1, i - 1) for i in range(1, n + 1))
        return lhs, rhs

    def coef_ident(n, i):
        lhs = _fsum(
            F((-1) ** (m - i) * comb(m, i), m - i + 1) * stirling1(n, m)
            for m in range(i, n + 1)
        )
        return lhs, F(n, i) * stirling1(n - 1, i - 1)

    def alt_sum(n):
        return _fsum(F((-1) ** m * stirling1(n, m)) for m in range(1, n + 1)), F(0)

    return [
        IdentityCase("G03.exp1", "G03", "explicit Stirling expansion of the first kind", lambda g: _ns(g, 1), partial(exp, "first")),
        IdentityCase("G03.exp2", "G03", "explicit Stirling expansion of the second kind", lambda g: _ns(g, 1), partial(exp, "second")),
        IdentityCase("G03.exp3", "G03", "first-kind numbers from Bernoulli numbers", lambda g: _ns(g, 1), exp3),
        IdentityCase("G03.exp4", "G03", "nonconstant coefficients are (n/i) times a Stirling entry", lambda g: _ns(g, 1), exp4),
        IdentityCase(
            "G03.coef-ident", "G03", "alternating binomial-Stirling sum collapses to one entry",
            lambda g: ({"n": n, "i": i} for n in range(1, g.max_n + 1) for i in range(1, n + 1)),
            coef_ident,
        ),
        IdentityCase("G03.alt-sum", "G03", "alternating row sums of the first-kind triangle vanish", lambda g: _ns(g, 2), alt_sum),
    ]


def _g04():
    def lm11(n, y):
        lhs = power_sum_poly(n - 1).affine_compose(1, y - 1).integrate_01()
        return lhs, (y**n - bernoulli_poly(n)(F(1))) / n

    def lm12(n, y):
        lhs = power_sum_poly(n - 1).affine_compose(-1, y - 1).integrate_01()
        return lhs, ((y - 1) ** n - bernoulli_poly(n)(F(1))) / n

    def qi(n):
        rhs = F((-1) ** (n + 1)) * _fsum(
            F(stirling1(n - 1, m - 1), m * (m + 1)) for m in range(1, n + 1)
        )
        return _c(n), rhs

    def int_pair(n):
        rhs = _c(n) + F((-1) ** n * n) * _fsum(
            F(stirling1(n - 1, m - 1), m * (m + 1)) for m in range(1, n + 1)
        )
        return (_cp(n).integrate_01(), _chp(n).integrate_01()), (rhs, rhs)

    def int1(n):
        want = (1 - n) * _c(n)
        return (_cp(n).integrate_01(), _chp(n).integrate_01()), (want, want)

    return [
        IdentityCase("G04.lm11", "G04", "unit integral of the shifted power-sum polynomial", lambda g: _n_y(g, 1), lm11),
        IdentityCase("G04.lm12", "G04", "unit integral of the reflected power-sum polynomial", lambda g: _n_y(g, 1), lm12),
        IdentityCase("G04.qi", "G04", "first-kind numbers as 1/(m(m+1)) Stirling sums", lambda g: _ns(g, 1), qi),
        IdentityCase("G04.int-pair", "G04", "unit integrals of both kinds share the Stirling sum value", lambda g: _ns(g, 1), int_pair),
        IdentityCase("G04.int1", "G04", "unit integrals of both kinds equal (1-n) times the first-kind number", _ns, int1),
    ]


def _g05():
    def symm1(n):
        rhs = _psum(
            binom_poly(n - m - 1, 1, n - m) * (F((-1) ** m * factorial(n), factorial(m)) * _c(m))
            for m in range(n + 1)
        ) * (-1) ** n
        return _cp(n), rhs

    def x1_a(n):
        rhs = F((-1) ** n * factorial(n)) * _fsum(
            comb(n, m) * _ch(m) / factorial(m) for m in range(n + 1)
        )
        return _ch(n), rhs

    def x1_bc(kind, n):
        rhs = F((-1) ** n * factorial(n)) * _fsum(
            comb(n - 1, m - 1) * cauchy_number(_OTHER[kind], m, 1) / factorial(m)
            for m in range(1, n + 1)
        )
        return cauchy_number(kind, n, 1), rhs

    def x1_d(n):
        rhs = F((-1) ** n * factorial(n)) * _fsum(
            comb(n - 2, m - 2) * _c(m) / factorial(m) for m in range(2, n + 1)
        )
        return _c(n), rhs

    def alt_conv(n):
        rhs = F((-1) ** n * factorial(n)) * _fsum(
            F((-1) ** m) * _c(m) / factorial(m) for m in range(n + 1)
        )
        return _ch(n), rhs

    def shift_two(n):
        return _c(n), _ch(n) + n * _ch(n - 1)

    def conv_int(n):
        s1 = _fsum(comb(n, m) * _ch(m) * _c(n - m) for m in range(n + 1))
        s2 = _fsum(comb(n, m) * _c(m) * _ch(n - m) for m in range(n + 1))
        want = (1 - n) * _c(n)
        return (s1, s2), (want, want)

    def c2_triple(n):
        want = F(_cp(n)(F(2)))
        t1 = F((-1) ** n * factorial(n)) * _fsum(F((-1) ** m) * _ch(m) / factorial(m) for m in range(n + 1))
        t2 = F((-1) ** n * factorial(n)) * _fsum(comb(n + 1, m + 1) * _ch(m) / factorial(m) for m in range(n + 1))
        t3 = F((-1) ** n * factorial(n)) * _fsum(comb(n, m) * _c(m) / factorial(m) for m in range(n + 1))
        return (t1, t2, t3), (want, want, want)

    def seq(kind, n):
        rhs = _psum(
            a_number(n, m) * cauchy_number(_OTHER[kind], m, 1) for m in range(n + 1)
        ) * (-1) ** n
        return _reflected(kind, n), rhs

    return [
        IdentityCase("G05.chen1", "G05", "first kind from second-kind numbers and rising binomials", _ns, partial(_symm5, k=1)),
        IdentityCase("G05.chen2", "G05", "second kind from first-kind numbers and shifted binomials", _ns, partial(_symm6, k=1)),
        IdentityCase("G05.symm1", "G05", "first kind from its own numbers and shifted binomials", _ns, symm1),
        IdentityCase("G05.symm2", "G05", "second kind from its own numbers and plain binomials", _ns, partial(_symm8a, k=1)),
        IdentityCase("G05.x1-a", "G05", "binomial self-convolution of second-kind numbers", _ns, x1_a),
        IdentityCase("G05.x1-b", "G05", "first-kind numbers from shifted second-kind convolution", lambda g: _ns(g, 1), partial(x1_bc, "first")),
        IdentityCase("G05.x1-c", "G05", "second-kind numbers from shifted first-kind convolution", lambda g: _ns(g, 1), partial(x1_bc, "second")),
        IdentityCase("G05.x1-d", "G05", "first-kind numbers from doubly-shifted self convolution", lambda g: _ns(g, 2), x1_d),
        IdentityCase("G05.alt-conv", "G05", "alternating convolution links the two kinds", _ns, alt_conv),
        IdentityCase("G05.shift-two", "G05", "two-term relation between the kinds", lambda g: _ns(g, 1), shift_two),
        IdentityCase("G05.conv-int", "G05", "binomial convolution of both kinds equals (1-n) c_n", _ns, conv_int),
        IdentityCase("G05.c2-triple", "G05", "three equivalent sums for the value at 2", _ns, c2_triple),
        IdentityCase("G05.seq1", "G05", "first kind in the factorial-binomial basis", _ns, partial(seq, "first")),
        IdentityCase("G05.seq2", "G05", "reflected second kind in the factorial-binomial basis", _ns, partial(seq, "second")),
    ]


def _g06():
    def nstep1(n):
        rhs = _cp(n - 1) * (-n) + _psum(
            binom_poly(n - 2, 1, n - m) * (F(factorial(n), factorial(m)) * _ch(m))
            for m in range(n + 1)
        ) * (-1) ** n
        return _cp(n), rhs

    def nstep2(n):
        rhs = _chp(n - 1) * (-n) + _psum(
            binom_poly(1 - m, 1, n - m) * (F((-1) ** m * factorial(n), factorial(m)) * _c(m))
            for m in range(n + 1)
        )
        return _chp(n), rhs

    def mirror(n):
        rhs = _chp(n).affine_compose(-1, 0) + _chp(n - 1).affine_compose(-1, 0) * n
        return _cp(n), rhs

    def _k_rec_variant(sign):
        def check(n, k):
            rhs = (X - n) * _chp(n, k) * sign - _psum(
                binom_poly(-m - 1, 1, n - m)
                * (F((-1) ** m * factorial(n), factorial(m)) * _c(m + 1, k))
                for m in range(n + 1)
            )
            return _chp(n + 1, k), rhs

        return check

    return [
        IdentityCase("G06.rec1", "G06", "one-step recurrence for the first kind", lambda g: _ns(g, 0, g.max_n - 1), partial(_reck, "first", k=1)),
        IdentityCase("G06.rec2", "G06", "one-step recurrence for the second kind", lambda g: _ns(g, 0, g.max_n - 1), partial(_reck, "second", k=1)),
        IdentityCase("G06.nstep1", "G06", "alternative step recurrence, first kind", lambda g: _ns(g, 1), nstep1),
        IdentityCase("G06.nstep2", "G06", "alternative step recurrence, second kind", lambda g: _ns(g, 1), nstep2),
        IdentityCase("G06.diff1", "G06", "difference equation of the first kind", lambda g: _ns(g, 1), partial(_diffk1, k=1)),
        IdentityCase("G06.diff2", "G06", "difference equation of the second kind", lambda g: _ns(g, 1), partial(_diffk2, k=1)),
        IdentityCase("G06.mirror", "G06", "first kind from the reflected second kind", lambda g: _ns(g, 1), mirror),
        IdentityCase(
            "G06.k-recurrence-sign",
            "G06",
            "probe: sign of the (x-n) term in the second-kind step recurrence for general order",
            lambda g: _n_k(g, 0, True),
            None,
            variants={"+(x-n)": _k_rec_variant(1), "-(x-n)": _k_rec_variant(-1)},
        ),
    ]


def _g07():
    def even_first(n):
        rhs = _psum(
            (Poly([n - 1, 1]) ** (2 * m) - bernoulli_number(2 * m)) * F(central_u(n, m), m)
            for m in range(1, n + 1)
        ) * n
        return _cp(2 * n), rhs

    def even_second(n):
        rhs = _psum(
            (Poly([-n, 1]) ** (2 * m) - bernoulli_number(2 * m)) * F(central_u(n, m), m)
            for m in range(1, n + 1)
        ) * n
        return _chp(2 * n), rhs

    def odd(kind, n):
        rhs = _odd_central(kind, n, lambda m: euler_poly(2 * m + 1))
        return cauchy_poly(kind, 2 * n + 1, 1), rhs

    return [
        IdentityCase("G07.even-first", "G07", "even first kind via central factorials and Bernoulli numbers", _even_points, even_first),
        IdentityCase("G07.even-second", "G07", "even second kind via central factorials and Bernoulli numbers", _even_points, even_second),
        IdentityCase("G07.odd-first", "G07", "odd first kind via central factorials and Euler polynomials", _even_points, partial(odd, "first")),
        IdentityCase("G07.odd-second", "G07", "odd second kind via central factorials and Euler polynomials", _even_points, partial(odd, "second")),
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
        lhs = _fsum(
            F(m) ** l * whitney("second", m, r, n, l) * cauchy_poly(kind, l, 1)(F(e * r, m))
            for l in range(n + 1)
        )
        return lhs, F(e**n * m**n, n + 1)

    return [
        IdentityCase("G08.whit1", "G08", "first kind at r/m from first-kind Whitney numbers", _points, partial(_whitk, "first", k=1)),
        IdentityCase("G08.whit2", "G08", "second kind at -r/m from first-kind Whitney numbers", _points, partial(_whitk, "second", k=1)),
        IdentityCase("G08.whit1-rev", "G08", "reversed Whitney transform of first-kind values", _points, partial(whit_rev, "first")),
        IdentityCase("G08.whit2-rev", "G08", "reversed Whitney transform of second-kind values", _points, partial(whit_rev, "second")),
    ]


def _g09():
    def th6b(kind, n, i):
        e = KIND_SIGN[kind]
        rhs = _psum(
            gen_bernoulli_poly(m - i, m + 1).affine_compose(-e, 1)
            * (cauchy_number(kind, n - m, 1) * comb(n, m) * comb(m, i))
            for m in range(i, n + 1)
        ) * ((-e) ** i * factorial(i))
        return cauchy_poly(kind, n, 1).derivative(i), rhs

    def der12(n, i):
        rhs = gsn1(n - 1, i - 1) * ((-1) ** n * n * factorial(i - 1))
        return _cp(n).derivative(i), rhs

    def der22(n, i):
        rhs = gsn1(n - 1, i - 1).affine_compose(-1, 1) * (
            (-1) ** (n + i) * n * factorial(i - 1)
        )
        return _chp(n).derivative(i), rhs

    def gder1(n, i):
        lhs = _psum(
            gsn1(m, i) * ((-1) ** (n - m) * _c(n - m) * comb(n, m))
            for m in range(i, n + 1)
        )
        return lhs, gsn1(n - 1, i - 1) * F(n, i)

    def gder2(n, i):
        lhs = _psum(
            gsn1(m, i) * ((-1) ** (n - m) * _ch(n - m) * comb(n, m))
            for m in range(i, n + 1)
        )
        return lhs, gsn1(n - 1, i - 1).affine_compose(1, 1) * F(n, i)

    def merlin(n):
        rhs = _fsum(
            _c(m) / factorial(m) * F((-1) ** (n + 1 - m), n + 1 - m) for m in range(n)
        )
        return _c(n) / factorial(n), rhs

    def half_harm(n):
        lhs = _fsum(
            F((-1) ** (n - m), m + 1) * _c(n - m) / factorial(n - m) * harmonic_number(m)
            for m in range(n + 1)
        )
        return lhs, F(1, 2 * n)

    def zhao(n):
        lhs = _fsum(
            F((-1) ** (n - m)) * _c(n - m) / factorial(n - m) * harmonic_number(m + 1)
            for m in range(n + 1)
        )
        return lhs, F(1)

    def chat_rec(n):
        rhs = F((-1) ** n) + _fsum(
            _ch(m) / factorial(m) * F((-1) ** (n + 1 - m), n + 1 - m) for m in range(n)
        )
        return _ch(n) / factorial(n), rhs

    def chat_half(n):
        lhs = _fsum(
            F((-1) ** (n - m), m + 1) * _ch(n - m) / factorial(n - m) * harmonic_number(m)
            for m in range(n + 1)
        )
        return lhs, harmonic_number(n) / 2

    def chat_zhao(n):
        lhs = _fsum(
            F((-1) ** (n - m)) * _ch(n - m) / factorial(n - m) * harmonic_number(m + 1)
            for m in range(n + 1)
        )
        return lhs, F(n + 1)

    return [
        IdentityCase("G09.th5-first", "G09", "derivatives via higher-order Bernoulli polynomials, first kind", _n_i, partial(_genk, "first", k=1)),
        IdentityCase("G09.th5-second", "G09", "derivatives via higher-order Bernoulli polynomials, second kind", _n_i, partial(_genk, "second", k=1)),
        IdentityCase("G09.th6-first", "G09", "derivatives via own numbers and Stirling polynomials, first kind", _n_i, partial(_derk, "first", k=1)),
        IdentityCase("G09.th6-second", "G09", "derivatives via own numbers and Stirling polynomials, second kind", _n_i, partial(_derk, "second", k=1)),
        IdentityCase("G09.th6b-first", "G09", "derivative rewrite through order-(m+1) Bernoulli polynomials", _n_i, partial(th6b, "first")),
        IdentityCase("G09.th6b-second", "G09", "second-kind derivative rewrite through Bernoulli polynomials", _n_i, partial(th6b, "second")),
        IdentityCase("G09.der12", "G09", "derivatives collapse to a single shifted Stirling polynomial", lambda g: _n_i(g, 1, 1), der12),
        IdentityCase("G09.der22", "G09", "second-kind derivatives collapse with the 1-x argument", lambda g: _n_i(g, 1, 1), der22),
        IdentityCase("G09.gder1", "G09", "Stirling-weighted number sums collapse, first kind", lambda g: _n_i(g, 1, 1), gder1),
        IdentityCase("G09.gder2", "G09", "Stirling-weighted number sums collapse, second kind", lambda g: _n_i(g, 1, 1), gder2),
        IdentityCase("G09.merlin", "G09", "self-referential recurrence of the first-kind numbers", lambda g: _ns(g, 1), merlin),
        IdentityCase("G09.half-harm", "G09", "harmonic-weighted convolution gives 1/(2n)", lambda g: _ns(g, 1), half_harm),
        IdentityCase("G09.zhao", "G09", "harmonic-weighted convolution gives 1", _ns, zhao),
        IdentityCase("G09.chat-rec", "G09", "self-referential recurrence of second-kind numbers", lambda g: _ns(g, 1), chat_rec),
        IdentityCase("G09.chat-half", "G09", "second-kind harmonic convolution gives half a harmonic number", _ns, chat_half),
        IdentityCase("G09.chat-zhao", "G09", "second-kind harmonic convolution gives n+1", _ns, chat_zhao),
    ]


def _g10():
    def hyp1(n, y):
        lhs = _psum(
            _cp(m) * (F((-1) ** m, factorial(m)) * hyperharmonic_poly(n + 1 - m)(y))
            for m in range(n + 1)
        )
        return lhs, binom_poly(y + n - 1, 1, n)

    def hyp2(n, y):
        lhs = _psum(
            _chp(m) * (F((-1) ** m, factorial(m)) * hyperharmonic_poly(n + 1 - m)(y))
            for m in range(n + 1)
        )
        return lhs, binom_poly(y + n, -1, n)

    def hyp3(n):
        lhs = _psum(
            _cp(m) * hyperharmonic_poly(n + 1 - m).affine_compose(-1, 0) * F((-1) ** m, factorial(m))
            for m in range(n + 1)
        )
        return lhs, Poly([1 if n == 0 else 0])

    def hyp4(n):
        lhs = _psum(
            _chp(m) * hyperharmonic_poly(n + 1 - m) * F((-1) ** m, factorial(m))
            for m in range(n + 1)
        )
        return lhs, Poly([1])

    def conec1(n):
        rhs = _psum(
            _cp(m)
            * _psum(
                binom_poly(0, 1, t) * F((-1) ** (n + 1 - m - t), n + 1 - m - t)
                for t in range(n - m + 1)
            )
            * F(1, factorial(m))
            for m in range(n)
        )
        return _cp(n) / factorial(n), rhs

    def conec2(n):
        rhs = Poly([F((-1) ** n)]) + _psum(
            _chp(m)
            * _psum(
                binom_poly(t - 1, 1, t) * F((-1) ** (n + 1 - m), n + 1 - m - t)
                for t in range(n - m + 1)
            )
            * F(1, factorial(m))
            for m in range(n)
        )
        return _chp(n) / factorial(n), rhs

    def rec_negy_first(n):
        rhs = binom_poly(n - 2, 1, n) * (-1) ** n + _psum(
            _cp(m) * F((-1) ** (n - m), factorial(m) * (n - m) * (n + 1 - m))
            for m in range(n)
        )
        return _cp(n) / factorial(n), rhs

    def hyp5(n):
        rhs = binom_poly(0, 1, n) + _psum(
            _chp(m) * F((-1) ** (n - m), factorial(m) * (n - m) * (n + 1 - m))
            for m in range(n)
        )
        return _chp(n) / factorial(n), rhs

    def hyp5_x1(n):
        rhs = (F(1) if n == 1 else F(0)) + _fsum(
            _c(m) / factorial(m) * F((-1) ** (n - m), (n - m) * (n + 1 - m))
            for m in range(n)
        )
        return _c(n) / factorial(n), rhs

    def hyp67(kind, n):
        rhs = _psum(
            cauchy_poly(_OTHER[kind], m, 1).affine_compose(1, KIND_SIGN[kind] * n)
            * F((-1) ** m, factorial(m))
            for m in range(n + 1)
        )
        return cauchy_poly(kind, n, 1) / factorial(n), rhs

    def eval_two(n):
        lhs = (F(_cp(n)(F(-n))), F(_chp(n)(F(n))))
        rhs = (F((-1) ** n) * _cp(n)(F(2)), F((-1) ** n) * _ch(n))
        return lhs, rhs

    def via_bernoulli_first(n):
        rhs = _psum(
            _psum(
                bernoulli_poly(i - 1) * (stirling1(m + 1, i + 1) * i)
                for i in range(1, m + 1)
            )
            * ((-1) ** (n - m) * comb(n, m) * _c(n - m))
            for m in range(1, n + 1)
        ) / factorial(n)
        return hyperharmonic_poly(n), rhs

    def via_bernoulli_second(n):
        rhs = _psum(
            _psum(
                bernoulli_poly(i - 1) * (stirling1(m + 1, i + 1) * i)
                for i in range(1, m + 1)
            )
            * ((-1) ** (n - m) * comb(n, m) * _ch(n - m))
            for m in range(1, n + 1)
        ) / factorial(n)
        return hyperharmonic_poly(n).affine_compose(1, 1), rhs

    return [
        IdentityCase("G10.hyp1", "G10", "hyperharmonic convolution of the first kind gives a binomial", lambda g: _n_y(g), hyp1),
        IdentityCase("G10.hyp2", "G10", "hyperharmonic convolution of the second kind gives a binomial", lambda g: _n_y(g), hyp2),
        IdentityCase("G10.hyp3", "G10", "self-cancelling hyperharmonic convolution, first kind", _ns, hyp3),
        IdentityCase("G10.hyp4", "G10", "constant hyperharmonic convolution, second kind", _ns, hyp4),
        IdentityCase("G10.conec1", "G10", "recurrence with inner binomial weights, first kind", lambda g: _ns(g, 1), conec1),
        IdentityCase("G10.conec2", "G10", "recurrence with inner binomial weights, second kind", lambda g: _ns(g, 1), conec2),
        IdentityCase("G10.rec-negy", "G10", "two-factor denominator recurrence, first kind", lambda g: _ns(g, 1), rec_negy_first),
        IdentityCase("G10.hyp5", "G10", "two-factor denominator recurrence, second kind", lambda g: _ns(g, 1), hyp5),
        IdentityCase("G10.hyp5-x1", "G10", "number specialization of the two-factor recurrence", lambda g: _ns(g, 1), hyp5_x1),
        IdentityCase("G10.hyp6", "G10", "first kind as alternating shifted second-kind sums", _ns, partial(hyp67, "first")),
        IdentityCase("G10.hyp7", "G10", "second kind as alternating shifted first-kind sums", _ns, partial(hyp67, "second")),
        IdentityCase("G10.eval-two", "G10", "values at -n and n collapse to values at 2 and 0", _ns, eval_two),
        IdentityCase("G10.via-bernoulli-1", "G10", "hyperharmonic polynomials from first-kind numbers and Bernoulli polynomials", lambda g: _ns(g, 1), via_bernoulli_first),
        IdentityCase("G10.via-bernoulli-2", "G10", "shifted hyperharmonic polynomials from second-kind numbers", lambda g: _ns(g, 1), via_bernoulli_second),
    ]


def _g11():
    def th31(n):
        lhs = bernoulli_poly(n) / (-n)
        rhs = _psum(gsn2(n - 1, m - 1) * _cp(m) * F(1, m) for m in range(1, n + 1))
        return lhs, rhs

    def th32(n):
        lhs = (Poly([F((-1) ** n)]) - bernoulli_poly(n)) / n
        rhs = _psum(
            gsn2(n - 1, m - 1) * _chp(m).affine_compose(-1, 0) * F(1, m)
            for m in range(1, n + 1)
        )
        return lhs, rhs

    def th31_x1(n):
        rhs = F((-1) ** n) * _fsum(_ch(m) / m * stirling2(n, m) for m in range(1, n + 1))
        return -bernoulli_number(n) / n, rhs

    def th31_x0(n):
        rhs = _fsum(_c(m) / m * stirling2(n - 1, m - 1) for m in range(1, n + 1))
        return -bernoulli_number(n) / n, rhs

    def inv2(n):
        lhs = _cp(n) / (-n)
        rhs = _psum(
            gsn1(n - 1, m - 1) * bernoulli_poly(m) * F((-1) ** (n - m), m)
            for m in range(1, n + 1)
        )
        return lhs, rhs

    def inv3(n):
        lhs = _chp(n).affine_compose(-1, 0) / (-n)
        rhs = _psum(
            gsn1(n - 1, m - 1)
            * (bernoulli_poly(m) * (-1) ** m - 1)
            * F((-1) ** n, m)
            for m in range(1, n + 1)
        )
        return lhs, rhs

    def inv3_alt(n):
        lhs = _chp(n).affine_compose(-1, 0) / (-n)
        rhs = _chp(n - 1).affine_compose(-1, 0) + _psum(
            gsn1(n - 1, m - 1) * bernoulli_poly(m) * F((-1) ** (n - m), m)
            for m in range(1, n + 1)
        )
        return lhs, rhs

    def exp5a(n):
        rhs = _fsum(stirling1(n, m) * bernoulli_number(m) / m for m in range(1, n + 1))
        return F((-1) ** (n + 1)) * _ch(n) / n, rhs

    def exp5b(n):
        rhs = _fsum(
            F((-1) ** m) * stirling1(n - 1, m - 1) * bernoulli_number(m) / m
            for m in range(1, n + 1)
        )
        return F((-1) ** (n + 1)) * _c(n) / n, rhs

    def odd_vanish(n):
        lhs = _fsum(stirling1(n - 1, m - 1) * bernoulli_number(m) / m for m in range(1, n + 1))
        rhs = _fsum(
            F((-1) ** m) * stirling1(n - 1, m - 1) * bernoulli_number(m) / m
            for m in range(1, n + 1)
        )
        return lhs, rhs

    def chat2n_at_n(n):
        lhs = F(_chp(2 * n)(F(n)))
        rhs = -n * _fsum(
            F(central_u(n, m), m) * bernoulli_number(2 * m) for m in range(1, n + 1)
        )
        return lhs, rhs

    return [
        IdentityCase("G11.th31", "G11", "Bernoulli polynomials from first-kind polynomial transforms", lambda g: _ns(g, 1), th31),
        IdentityCase("G11.th32", "G11", "Bernoulli polynomials from reflected second-kind transforms", lambda g: _ns(g, 1), th32),
        IdentityCase("G11.th31-x1", "G11", "Bernoulli numbers from second-kind numbers", lambda g: _ns(g, 1), th31_x1),
        IdentityCase("G11.th31-x0", "G11", "Bernoulli numbers from first-kind numbers", lambda g: _ns(g, 1), th31_x0),
        IdentityCase("G11.inv2", "G11", "first-kind polynomials from Bernoulli polynomials", lambda g: _ns(g, 1), inv2),
        IdentityCase("G11.inv3", "G11", "reflected second kind from Bernoulli polynomials", lambda g: _ns(g, 1), inv3),
        IdentityCase("G11.inv3-alt", "G11", "rewritten reflected second-kind inversion", lambda g: _ns(g, 1), inv3_alt),
        IdentityCase("G11.exp5a", "G11", "second-kind numbers from Bernoulli numbers", lambda g: _ns(g, 1), exp5a),
        IdentityCase("G11.exp5b", "G11", "first-kind numbers from alternating Bernoulli sums", lambda g: _ns(g, 1), exp5b),
        IdentityCase("G11.odd-vanish", "G11", "equality forcing odd Bernoulli numbers to vanish", lambda g: _ns(g, 2), odd_vanish),
        IdentityCase("G11.chat2n-at-n", "G11", "even second-kind value at n from central factorials", _even_points, chat2n_at_n),
    ]


def _g12():
    def th41(n):
        rhs = Poly([0] * n + [1]) - _psum(
            gsn2(n - 1, m - 1) * (_c(m) / m) for m in range(1, n + 1)
        ) * n
        return bernoulli_poly(n), rhs

    def th42(n):
        rhs = Poly([-1, 1]) ** n - _psum(
            gsn2(n - 1, m - 1) * (_ch(m) / m) for m in range(1, n + 1)
        ) * n
        return bernoulli_poly(n), rhs

    def bn_alt1(n):
        rhs = F((-1) ** n) * (
            1 - n * _fsum(_c(m) / m * stirling2(n, m) for m in range(1, n + 1))
        )
        return bernoulli_number(n), rhs

    def bn_alt2(n):
        rhs = F((-1) ** n) - n * _fsum(
            _ch(m) / m * stirling2(n - 1, m - 1) for m in range(1, n + 1)
        )
        return bernoulli_number(n), rhs

    def diff_c(n):
        lhs = _psum(
            gsn2(n - 1, m - 1) * (Poly([_c(m)]) - _cp(m)) * F(1, m)
            for m in range(1, n + 1)
        )
        return lhs, Poly([0] * n + [F(1, n)])

    def diff_cchat(n):
        lhs = _fsum((_c(m) - _ch(m)) / m * stirling2(n, m) for m in range(1, n + 1))
        return lhs, F(1, n)

    def kargin_inv(n):
        lhs = _fsum(stirling2(n + 1, m + 1) * _ch(m) for m in range(n + 1))
        return lhs, F(1, n + 1)

    return [
        IdentityCase("G12.th41", "G12", "Bernoulli polynomials from first-kind numbers and x^n", lambda g: _ns(g, 1), th41),
        IdentityCase("G12.th42", "G12", "Bernoulli polynomials from second-kind numbers and (x-1)^n", lambda g: _ns(g, 1), th42),
        IdentityCase("G12.bn-alt1", "G12", "alternative Bernoulli number formula, first kind", lambda g: _ns(g, 1), bn_alt1),
        IdentityCase("G12.bn-alt2", "G12", "alternative Bernoulli number formula, second kind", lambda g: _ns(g, 1), bn_alt2),
        IdentityCase("G12.diff-c", "G12", "number-minus-polynomial transform collapses to x^n/n", lambda g: _ns(g, 1), diff_c),
        IdentityCase("G12.diff-cchat", "G12", "difference of the kinds under the Stirling transform", lambda g: _ns(g, 1), diff_cchat),
        IdentityCase("G12.kargin-inv", "G12", "second-kind numbers under the shifted Stirling transform", _ns, kargin_inv),
    ]


def _g13():
    def p4ab(kind, n, y):
        return bernoulli_poly(n), _s2_double(kind, n, 1, y)

    def p4cd(kind, n, y):
        e = KIND_SIGN[kind]
        rhs = _psum(
            gsn1(n, m)
            * _fsum(
                F((-1) ** (n + l) * (-e) ** m, factorial(m)) * gsn1(m, l)(y) * bernoulli_poly(l)(y)
                for l in range(m + 1)
            )
            for m in range(n + 1)
        )
        return _reflected(kind, n), rhs

    def inner(kind, m, y):
        return F(KIND_SIGN[kind] ** m) * _s2_values(kind, m - 1, 1, y)

    def p5ab(kind, n, y):
        rhs = _psum(gsn2(n - 1, m - 1) * _cp(m) * inner(kind, m, y) for m in range(1, n + 1))
        return bernoulli_poly(n) / (-KIND_SIGN[kind] * n), rhs

    def p5cd(kind, n, y):
        rhs = _psum(
            gsn2(n - 1, m - 1) * _reflected("second", m) * inner(kind, m, y)
            for m in range(1, n + 1)
        )
        return (Poly([F((-1) ** n)]) - bernoulli_poly(n)) / (KIND_SIGN[kind] * n), rhs

    def p5ef(kind, n, y):
        rhs = Poly([0] * n + [1]) - _psum(
            gsn2(n - 1, m - 1) * (_c(m) * inner(kind, m, y)) for m in range(1, n + 1)
        ) * (KIND_SIGN[kind] * n)
        return bernoulli_poly(n), rhs

    def p5gh(kind, n, y):
        rhs = Poly([-1, 1]) ** n - _psum(
            gsn2(n - 1, m - 1) * (_ch(m) * inner(kind, m, y)) for m in range(1, n + 1)
        ) * (KIND_SIGN[kind] * n)
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
        "p5a": (partial(p5ab, "first"), 1), "p5b": (partial(p5ab, "second"), 1),
        "p5c": (partial(p5cd, "first"), 1), "p5d": (partial(p5cd, "second"), 1),
        "p5e": (partial(p5ef, "first"), 1), "p5f": (partial(p5ef, "second"), 1),
        "p5g": (partial(p5gh, "first"), 1), "p5h": (partial(p5gh, "second"), 1),
    }
    return [
        IdentityCase(f"G13.{name}", "G13", descs[name], partial(_n_y, start=start, double=True), fn)
        for name, (fn, start) in checks.items()
    ]


def build() -> list[IdentityCase]:
    cases = []
    for builder in (_g01, _g02, _g03, _g04, _g05, _g06, _g07, _g08, _g09, _g10, _g11, _g12, _g13):
        cases.extend(builder())
    return cases
