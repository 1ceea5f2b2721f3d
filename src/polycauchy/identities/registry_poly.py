"""Identity cases G14-G22: general-order (poly) Cauchy polynomial facts,
poly-Bernoulli bridges, the multiparameter family, and the harmonic
polynomial connection."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from ..bernoulli import (
    bernoulli_number,
    bernoulli_poly,
    gen_bernoulli_poly,
    euler_poly,
    multiparam_poly_bernoulli,
    poly_bernoulli_gsn,
    poly_bernoulli_kl,
)
from ..cauchy import (
    MultiParam,
    aux_poly,
    aux_poly_weighted,
    cauchy_coefficient,
    cauchy_derivative,
    cauchy_poly,
    multiparam_cauchy,
    shifted_cauchy_number,
)
from ..harmonic import harmonic_number, harmonic_poly
from ..poly import (
    Poly,
    binom_poly,
    eval_at_sqrt,
    falling_factorial_poly,
    rising_factorial_poly,
    transpose_nested,
)
from ..stirling import (
    central_u,
    gsn1,
    gsn1_bivariate,
    gsn1_bivariate_at,
    gsn2,
    gsn2_bivariate_at,
    lah,
    stirling1,
    stirling2,
    whitney,
)
from .engine import IdentityCase
from .registry_core import F, X, _c, _ch, _chp, _cp, _fsum, _psum


def _n_k(grid, n_start=0, double=False):
    top = grid.max_n_double if double else grid.max_n
    return (
        {"n": n, "k": k} for n in range(n_start, top + 1) for k in range(1, grid.max_k + 1)
    )


def _n_i_k(grid, n_start=0, i_start=0):
    return (
        {"n": n, "i": i, "k": k}
        for n in range(n_start, grid.max_n_double + 1)
        for i in range(i_start, n + 1)
        for k in range(1, grid.max_k + 1)
    )


def _g14():
    def pro41(n, k):
        rhs = _psum(gsn1(n, m) * F((-1) ** (n - m), (m + 1) ** k) for m in range(n + 1))
        return cauchy_poly("first", n, k, "integral"), rhs

    def pro42(n, k):
        lhs = cauchy_poly("second", n, k, "integral").affine_compose(-1, 0)
        rhs = _psum(gsn1(n, m) * F(1, (m + 1) ** k) for m in range(n + 1)) * (-1) ** n
        return lhs, rhs

    def cor2a(n, k):
        poly = _cp(n, k)
        return (
            tuple(cauchy_coefficient("first", n, i, k) for i in range(n + 1)),
            tuple(F(poly[i]) for i in range(n + 1)),
        )

    def cor2b(n, k):
        poly = _chp(n, k)
        return (
            tuple(cauchy_coefficient("second", n, i, k) for i in range(n + 1)),
            tuple(F(poly[i]) for i in range(n + 1)),
        )

    def _inner_negx(m, k):
        return _psum(
            Poly([0] * i + [F((-1) ** i * comb(m, i), (m - i + 1) ** k)]) for i in range(m + 1)
        )

    def back1(n, k):
        rhs = _psum(
            _inner_negx(m, k) * ((-1) ** (n - m) * stirling1(n, m)) for m in range(n + 1)
        )
        return _cp(n, k), rhs

    def back2(n, k):
        rhs = _psum(_inner_negx(m, k) * stirling1(n, m) for m in range(n + 1)) * (-1) ** n
        return _chp(n, k), rhs

    def inv_a(n, k):
        lhs = _psum(gsn2(n, m) * _cp(m, k) for m in range(n + 1))
        return lhs, Poly([F(1, (n + 1) ** k)])

    def inv_b(n, k):
        lhs = _psum(gsn2(n, m) * _chp(m, k).affine_compose(-1, 0) for m in range(n + 1))
        return lhs, Poly([F((-1) ** n, (n + 1) ** k)])

    return [
        IdentityCase("G14.pro41", "G14", "general order first kind as weighted Stirling polynomial sums", _n_k, pro41),
        IdentityCase("G14.pro42", "G14", "general order second kind at -x as weighted Stirling sums", _n_k, pro42),
        IdentityCase("G14.cor2a", "G14", "closed-form coefficients at general order, first kind", _n_k, cor2a),
        IdentityCase("G14.cor2b", "G14", "closed-form coefficients at general order, second kind", _n_k, cor2b),
        IdentityCase("G14.back1", "G14", "double-sum expansion over the plain triangle, first kind", _n_k, back1),
        IdentityCase("G14.back2", "G14", "double-sum expansion over the plain triangle, second kind", _n_k, back2),
        IdentityCase("G14.inv-a", "G14", "inverted expansion gives 1/(n+1)^k", _n_k, inv_a),
        IdentityCase("G14.inv-b", "G14", "inverted reflected expansion gives (-1)^n/(n+1)^k", _n_k, inv_b),
    ]


_WHITNEY_MS = (1, 2, -2)
_WHITNEY_RS = (-2, 1, 3)


def _g15():
    def diffk1(n, k):
        lhs = _cp(n, k).affine_compose(1, 1) - _cp(n, k)
        return lhs, _cp(n - 1, k).affine_compose(1, 1) * (-n)

    def diffk2(n, k):
        lhs = _chp(n, k).affine_compose(1, 1) - _chp(n, k)
        return lhs, _chp(n - 1, k) * n

    def _whit_points(grid):
        return (
            {"n": n, "k": k, "m": m, "r": r}
            for n in range(grid.max_n_double + 1)
            for k in range(1, grid.max_k + 1)
            for m in _WHITNEY_MS
            for r in _WHITNEY_RS
            if abs(r) <= grid.max_r
        )

    def whitk1(n, k, m, r):
        lhs = F(_cp(n, k)(F(r, m)))
        rhs = _fsum(
            F((-1) ** (n - l), (l + 1) ** k) * whitney("first", m, r, n, l) / F(m) ** (n - l)
            for l in range(n + 1)
        )
        return lhs, rhs

    def whitk2(n, k, m, r):
        lhs = F(_chp(n, k)(F(-r, m)))
        rhs = F((-1) ** n) * _fsum(
            F(1, (l + 1) ** k) * whitney("first", m, r, n, l) / F(m) ** (n - l)
            for l in range(n + 1)
        )
        return lhs, rhs

    def symm5(n, k):
        rhs = _psum(
            binom_poly(n - 1, 1, n - m) * (F(factorial(n), factorial(m)) * _ch(m, k))
            for m in range(n + 1)
        ) * (-1) ** n
        return _cp(n, k), rhs

    def symm6(n, k):
        rhs = _psum(
            binom_poly(-m, 1, n - m)
            * (F((-1) ** m * factorial(n), factorial(m)) * _c(m, k))
            for m in range(n + 1)
        )
        return _chp(n, k), rhs

    def symm7a(n, k):
        rhs = _psum(
            binom_poly(0, -1, n - m) * (F(factorial(n), factorial(m)) * _c(m, k))
            for m in range(n + 1)
        )
        return _cp(n, k), rhs

    def symm7b(n, k):
        rhs = _psum(
            rising_factorial_poly(m) * ((-1) ** m * comb(n, m) * _c(n - m, k))
            for m in range(n + 1)
        )
        return _cp(n, k), rhs

    def symm8a(n, k):
        rhs = _psum(
            binom_poly(0, 1, n - m) * (F(factorial(n), factorial(m)) * _ch(m, k))
            for m in range(n + 1)
        )
        return _chp(n, k), rhs

    def symm8b(n, k):
        rhs = _psum(
            falling_factorial_poly(m) * (comb(n, m) * _ch(n - m, k)) for m in range(n + 1)
        )
        return _chp(n, k), rhs

    def reck1(n, k):
        rhs = -(X + n) * _cp(n, k) + _psum(
            binom_poly(n, 1, n - m) * (F(factorial(n), factorial(m)) * _ch(m + 1, k))
            for m in range(n + 1)
        ) * (-1) ** (n + 1)
        return _cp(n + 1, k), rhs

    def genk1(n, i, k):
        rhs = _psum(
            gen_bernoulli_poly(m - i, n + 1).affine_compose(-1, 1)
            * F(comb(n, m) * comb(m, i), (n + 1 - m) ** k)
            for m in range(i, n + 1)
        ) * ((-1) ** i * factorial(i))
        return _cp(n, k).derivative(i), rhs

    def genk2(n, i, k):
        rhs = _psum(
            gen_bernoulli_poly(m - i, n + 1).affine_compose(1, 1)
            * (F((-1) ** (n - m) * comb(n, m) * comb(m, i), (n + 1 - m) ** k))
            for m in range(i, n + 1)
        ) * factorial(i)
        return _chp(n, k).derivative(i), rhs

    def derk1(n, i, k):
        return _cp(n, k).derivative(i), cauchy_derivative("first", n, k, i)

    def derk2(n, i, k):
        return _chp(n, k).derivative(i), cauchy_derivative("second", n, k, i)

    def _korec_points(grid):
        return (
            {"n": n, "k": k, "r": r, "s": s}
            for n in range(grid.max_n_double + 1)
            for k in range(1, grid.max_k + 1)
            for r in range(min(n, grid.max_r) + 1)
            for s in range(r + 1)
        )

    def korec1(n, k, r, s):
        lhs = _fsum(
            gsn2(n - r, m - r)(F(r)) * _cp(m - s, k)(F(s)) for m in range(r, n + 1)
        )
        rhs = _fsum(
            F((-1) ** (r - l), (n + l - r - s + 1) ** k) * gsn1(r - s, l - s)(F(s))
            for l in range(s, r + 1)
        )
        return lhs, rhs

    def korec2(n, k, r, s):
        lhs = _fsum(
            gsn2(n - r, m - r)(F(r)) * _chp(m - s, k)(F(-s)) for m in range(r, n + 1)
        )
        rhs = F((-1) ** (n - s)) * _fsum(
            F(1, (n + l - r - s + 1) ** k) * gsn1(r - s, l - s)(F(s))
            for l in range(s, r + 1)
        )
        return lhs, rhs

    def _korec_s0_points(grid):
        return (
            {"n": n, "k": k, "r": r}
            for n in range(grid.max_n_double + 1)
            for k in range(1, grid.max_k + 1)
            for r in range(grid.max_r + 1)
        )

    def korec1_s0(n, k, r):
        lhs = _fsum(gsn2(n, m)(F(r)) * _c(m + r, k) for m in range(n + 1))
        rhs = _fsum(F((-1) ** (r - l), (n + l + 1) ** k) * stirling1(r, l) for l in range(r + 1))
        return lhs, rhs

    def korec2_s0(n, k, r):
        lhs = _fsum(gsn2(n, m)(F(r)) * _ch(m + r, k) for m in range(n + 1))
        rhs = F((-1) ** (n + r)) * _fsum(
            F(1, (n + l + 1) ** k) * stirling1(r, l) for l in range(r + 1)
        )
        return lhs, rhs

    def val_at1(n, k):
        want = F(_cp(n, k)(F(1)))
        t1 = F((-1) ** n * factorial(n)) * _fsum(
            comb(n, m) * _ch(m, k) / factorial(m) for m in range(n + 1)
        )
        t2 = F((-1) ** n * factorial(n)) * _fsum(
            F((-1) ** m) * _c(m, k) / factorial(m) for m in range(n + 1)
        )
        return (t1, t2), (want, want)

    def val_at_neg1(n, k):
        want = F(_chp(n, k)(F(-1)))
        t1 = F((-1) ** n * factorial(n)) * _fsum(
            comb(n, m) * _c(m, k) / factorial(m) for m in range(n + 1)
        )
        t2 = F((-1) ** n * factorial(n)) * _fsum(
            F((-1) ** m) * _ch(m, k) / factorial(m) for m in range(n + 1)
        )
        return (t1, t2), (want, want)

    def lah_pair(n, k):
        lhs = (_c(n, k), _ch(n, k))
        rhs = (
            F((-1) ** n) * _fsum(lah(n, m) * _ch(m, k) for m in range(n + 1)),
            F((-1) ** n) * _fsum(lah(n, m) * _c(m, k) for m in range(n + 1)),
        )
        return lhs, rhs

    def gbpk1(n, k):
        rhs = _psum(
            gen_bernoulli_poly(m, n + 1).affine_compose(-1, 1)
            * F(comb(n, m), (n + 1 - m) ** k)
            for m in range(n + 1)
        )
        return _cp(n, k), rhs

    def gbpk2(n, k):
        rhs = _psum(
            gen_bernoulli_poly(m, n + 1).affine_compose(1, 1)
            * F((-1) ** (n - m) * comb(n, m), (n + 1 - m) ** k)
            for m in range(n + 1)
        )
        return _chp(n, k), rhs

    return [
        IdentityCase("G15.diffk1", "G15", "difference equation at general order, first kind", lambda g: _n_k(g, 1), diffk1),
        IdentityCase("G15.diffk2", "G15", "difference equation at general order, second kind", lambda g: _n_k(g, 1), diffk2),
        IdentityCase("G15.whitk1", "G15", "general order values at r/m from Whitney numbers", _whit_points, whitk1),
        IdentityCase("G15.whitk2", "G15", "general order second kind at -r/m from Whitney numbers", _whit_points, whitk2),
        IdentityCase("G15.symm5", "G15", "general order first kind from second-kind numbers", _n_k, symm5),
        IdentityCase("G15.symm6", "G15", "general order second kind from first-kind numbers", _n_k, symm6),
        IdentityCase("G15.symm7a", "G15", "self-number expansion with negated binomials, first kind", _n_k, symm7a),
        IdentityCase("G15.symm7b", "G15", "self-number expansion with rising factorials, first kind", _n_k, symm7b),
        IdentityCase("G15.symm8a", "G15", "self-number expansion with plain binomials, second kind", _n_k, symm8a),
        IdentityCase("G15.symm8b", "G15", "self-number expansion with falling factorials, second kind", _n_k, symm8b),
        IdentityCase("G15.reck1", "G15", "one-step recurrence at general order, first kind", lambda g: _n_k(g, 0, True), reck1),
        IdentityCase("G15.genk1", "G15", "derivatives via higher-order Bernoulli at general order, first kind", _n_i_k, genk1),
        IdentityCase("G15.genk2", "G15", "derivatives via higher-order Bernoulli at general order, second kind", _n_i_k, genk2),
        IdentityCase("G15.derk1", "G15", "derivatives via own numbers at general order, first kind", _n_i_k, derk1),
        IdentityCase("G15.derk2", "G15", "derivatives via own numbers at general order, second kind", _n_i_k, derk2),
        IdentityCase("G15.korec1", "G15", "three-index shifted transform identity, first kind", _korec_points, korec1),
        IdentityCase("G15.korec2", "G15", "three-index shifted transform identity, second kind", _korec_points, korec2),
        IdentityCase("G15.korec1-s0", "G15", "shifted transform with column sums, first kind", _korec_s0_points, korec1_s0),
        IdentityCase("G15.korec2-s0", "G15", "shifted transform with column sums, second kind", _korec_s0_points, korec2_s0),
        IdentityCase("G15.val-at1", "G15", "two sums for the general-order value at 1", _n_k, val_at1),
        IdentityCase("G15.val-at-neg1", "G15", "two sums for the general-order second-kind value at -1", _n_k, val_at_neg1),
        IdentityCase("G15.lah-pair", "G15", "the two kinds exchange through Lah-number transforms", _n_k, lah_pair),
        IdentityCase("G15.gbpk1", "G15", "general order first kind from higher-order Bernoulli polynomials", lambda g: _n_k(g, 0, True), gbpk1),
        IdentityCase("G15.gbpk2", "G15", "general order second kind from higher-order Bernoulli polynomials", lambda g: _n_k(g, 0, True), gbpk2),
    ]


def _g16():
    def int2(n, k):
        lhs = _cp(n, k).integrate_01()
        rhs = _c(n) - n * _fsum(_c(n, j) for j in range(1, k + 1))
        return lhs, rhs

    def int3(n, k):
        lhs = _chp(n, k).integrate_01()
        if n == 0:
            return lhs, _ch(0)
        rhs = _ch(n) - n * _fsum(
            _ch(n, j) + (n - 1) * _ch(n - 1, j) for j in range(1, k + 1)
        )
        return lhs, rhs

    return [
        IdentityCase("G16.int2", "G16", "unit integral at general order, first kind", _n_k, int2),
        IdentityCase("G16.int3", "G16", "unit integral at general order, second kind", _n_k, int3),
    ]


def _g17():
    def _pts(grid):
        return (
            {"n": n, "k": k, "y": y}
            for n in range(grid.max_n_double + 1)
            for k in range(1, grid.max_k + 1)
            for y in grid.xs
        )

    def _pts_nk(grid):
        return _n_k(grid, 0, True)

    def kb1(n, k, y):
        rhs = _psum(
            gsn2(n, m)
            * (
                F((-1) ** m * factorial(m))
                * _fsum(gsn2(m, l)(y) * _cp(l, k)(y) for l in range(m + 1))
            )
            for m in range(n + 1)
        ) * (-1) ** n
        return poly_bernoulli_gsn(n, k), rhs

    def kb2(n, k, y):
        rhs = _psum(
            gsn2(n, m)
            * (
                F(factorial(m))
                * _fsum(gsn2(m, l)(y) * _chp(l, k)(-y) for l in range(m + 1))
            )
            for m in range(n + 1)
        ) * (-1) ** n
        return poly_bernoulli_gsn(n, k), rhs

    def kb3(n, k, y):
        rhs = _psum(
            gsn1(n, m)
            * _fsum(
                F((-1) ** m, factorial(m)) * gsn1(m, l)(y) * poly_bernoulli_gsn(l, k)(y)
                for l in range(m + 1)
            )
            for m in range(n + 1)
        ) * (-1) ** n
        return _cp(n, k), rhs

    def kb4(n, k, y):
        rhs = _psum(
            gsn1(n, m)
            * _fsum(
                F(1, factorial(m)) * gsn1(m, l)(y) * poly_bernoulli_gsn(l, k)(y)
                for l in range(m + 1)
            )
            for m in range(n + 1)
        ) * (-1) ** n
        return _chp(n, k).affine_compose(-1, 0), rhs

    def kl1(n, k):
        rhs = _psum(
            _cp(l, k)
            * ((-1) ** m * factorial(m) * stirling2(n, m) * stirling2(m, l))
            for m in range(n + 1)
            for l in range(m + 1)
        ) * (-1) ** n
        return poly_bernoulli_kl(n, k), rhs

    def kl2(n, k):
        rhs = _psum(
            _chp(l, k) * (factorial(m) * stirling2(n, m) * stirling2(m, l))
            for m in range(n + 1)
            for l in range(m + 1)
        ) * (-1) ** n
        return poly_bernoulli_kl(n, k), rhs

    def kl3(n, k):
        rhs = _psum(
            poly_bernoulli_kl(l, k)
            * (F((-1) ** m, factorial(m)) * stirling1(n, m) * stirling1(m, l))
            for m in range(n + 1)
            for l in range(m + 1)
        ) * (-1) ** n
        return _cp(n, k), rhs

    def kl4(n, k):
        rhs = _psum(
            poly_bernoulli_kl(l, k)
            * (F(1, factorial(m)) * stirling1(n, m) * stirling1(m, l))
            for m in range(n + 1)
            for l in range(m + 1)
        ) * (-1) ** n
        return _chp(n, k), rhs

    return [
        IdentityCase("G17.kb1", "G17", "poly-Bernoulli from double transforms of first-kind values", _pts, kb1),
        IdentityCase("G17.kb2", "G17", "poly-Bernoulli from double transforms of second-kind values", _pts, kb2),
        IdentityCase("G17.kb3", "G17", "general order first kind from poly-Bernoulli values", _pts, kb3),
        IdentityCase("G17.kb4", "G17", "reflected second kind from poly-Bernoulli values", _pts, kb4),
        IdentityCase("G17.kl1", "G17", "alternative poly-Bernoulli from first-kind polynomials", _pts_nk, kl1),
        IdentityCase("G17.kl2", "G17", "alternative poly-Bernoulli from second-kind polynomials", _pts_nk, kl2),
        IdentityCase("G17.kl3", "G17", "first kind back from the alternative poly-Bernoulli family", _pts_nk, kl3),
        IdentityCase("G17.kl4", "G17", "second kind back from the alternative poly-Bernoulli family", _pts_nk, kl4),
    ]


def _g18():
    def poly1(n, k):
        rhs = (Poly([1]) if n == 1 else Poly()) + _psum(
            _psum(
                aux_poly(j, k).affine_compose(1, 1)
                * (comb(m, j) * bernoulli_number(m - j))
                for j in range(1, m + 1)
            )
            * F(stirling1(n - 1, m - 1), m)
            for m in range(1, n + 1)
        ) * ((-1) ** n * n)
        return _cp(n, k), rhs

    def poly2(n, k):
        rhs = (Poly([1]) if n == 1 else Poly()) + _psum(
            _psum(
                aux_poly(j, k).affine_compose(1, -1)
                * ((-1) ** j * comb(m, j) * bernoulli_number(m - j))
                for j in range(1, m + 1)
            )
            * F(stirling1(n - 1, m - 1), m)
            for m in range(1, n + 1)
        ) * ((-1) ** n * n)
        return _chp(n, k), rhs

    def poly5(n, k):
        rhs = Poly([_c(n)]) + _psum(
            _psum(
                aux_poly(j, k).affine_compose(1, 1)
                * (comb(m, j) * bernoulli_number(m - j))
                for j in range(m + 1)
            )
            * F(stirling1(n - 1, m - 1), m)
            for m in range(1, n + 1)
        ) * ((-1) ** n * n)
        return _cp(n, k), rhs

    def poly6(n, k):
        rhs = Poly([_c(n)]) + _psum(
            _psum(
                aux_poly(j, k).affine_compose(1, -1)
                * ((-1) ** j * comb(m, j) * bernoulli_number(m - j))
                for j in range(m + 1)
            )
            * F(stirling1(n - 1, m - 1), m)
            for m in range(1, n + 1)
        ) * ((-1) ** n * n)
        return _chp(n, k), rhs

    def idc1(m):
        lhs = _psum(
            aux_poly(j, 1).affine_compose(1, 1) * (comb(m, j) * bernoulli_number(m - j))
            for j in range(m + 1)
        )
        return lhs, Poly([0] * m + [1])

    def idc2(m):
        lhs = _psum(
            aux_poly(j, 1) * ((-1) ** (m - j) * comb(m, j) * bernoulli_number(m - j))
            for j in range(m + 1)
        )
        return lhs, Poly([0] * m + [1])

    def _ms(grid):
        return ({"m": m} for m in range(grid.max_n + 1))

    return [
        IdentityCase("G18.poly1", "G18", "general order first kind from Bernoulli-weighted moment polynomials", lambda g: _n_k(g, 1), poly1),
        IdentityCase("G18.poly2", "G18", "general order second kind from Bernoulli-weighted moment polynomials", lambda g: _n_k(g, 1), poly2),
        IdentityCase("G18.poly5", "G18", "variant seeded by the classical first-kind number", lambda g: _n_k(g, 1), poly5),
        IdentityCase("G18.poly6", "G18", "second-kind variant seeded by the classical number", lambda g: _n_k(g, 1), poly6),
        IdentityCase("G18.idc1", "G18", "Bernoulli-weighted moment polynomials collapse to x^m", _ms, idc1),
        IdentityCase("G18.idc2", "G18", "alternating Bernoulli-weighted moments collapse to x^m", _ms, idc2),
    ]


def _g19():
    def th10_first(n, k):
        rhs = _psum(
            gsn1(n - 1, m - 1)
            * (
                bernoulli_poly(m) * (-1) ** m
                - _fsum(
                    comb(m, j) * bernoulli_number(m - j) * aux_poly(j, k)(F(1))
                    for j in range(m + 1)
                )
            )
            * F((-1) ** n, m)
            for m in range(1, n + 1)
        )
        return _cp(n, k) / (-n), rhs

    def th10_second(n, k):
        rhs = _psum(
            gsn1(n - 1, m - 1)
            * (
                bernoulli_poly(m) * (-1) ** m
                - _fsum(
                    (-1) ** j * comb(m, j) * bernoulli_number(m - j) * aux_poly(j, k)(F(-1))
                    for j in range(m + 1)
                )
            )
            * F((-1) ** n, m)
            for m in range(1, n + 1)
        )
        return _chp(n, k).affine_compose(-1, 0) / (-n), rhs

    def alt_first(n, k):
        rhs = Poly([_c(n)]) - _psum(
            gsn1(n - 1, m - 1)
            * (
                Poly([0, -1]) ** m
                - _fsum(
                    comb(m, j) * bernoulli_number(m - j) * aux_poly(j, k)(F(1))
                    for j in range(m + 1)
                )
            )
            * F((-1) ** n, m)
            for m in range(1, n + 1)
        ) * n
        return _cp(n, k), rhs

    def alt_second(n, k):
        rhs = Poly([_ch(n)]) - _psum(
            gsn1(n - 1, m - 1)
            * (
                Poly([1, -1]) ** m
                - _fsum(
                    (-1) ** j * comb(m, j) * bernoulli_number(m - j) * aux_poly(j, k)(F(-1))
                    for j in range(m + 1)
                )
            )
            * F((-1) ** n, m)
            for m in range(1, n + 1)
        ) * n
        return _chp(n, k).affine_compose(-1, 0), rhs

    def k1_first(n):
        rhs = Poly([_c(n)]) - _psum(
            gsn1(n - 1, m - 1) * Poly([0] * m + [F((-1) ** m, m)]) for m in range(1, n + 1)
        ) * ((-1) ** n * n)
        return _cp(n), rhs

    def _k1_second_variant(signed_weight: bool):
        def check(n):
            if signed_weight:
                rhs = Poly([_ch(n)]) - _psum(
                    gsn1(n - 1, m - 1) * (Poly([-1, 1]) ** m - 1) * F((-1) ** m, m)
                    for m in range(1, n + 1)
                ) * ((-1) ** n * n)
            else:
                rhs = Poly([_ch(n)]) - _psum(
                    gsn1(n - 1, m - 1) * (Poly([1, -1]) ** m - 1) * F(1, m)
                    for m in range(1, n + 1)
                ) * ((-1) ** n * n)
            return _chp(n).affine_compose(-1, 0), rhs

        return check

    def _ns1(grid):
        return ({"n": n} for n in range(1, grid.max_n + 1))

    return [
        IdentityCase("G19.th10-first", "G19", "general order first kind from Bernoulli polynomials and constants", lambda g: _n_k(g, 1), th10_first),
        IdentityCase("G19.th10-second", "G19", "reflected general order second kind from Bernoulli data", lambda g: _n_k(g, 1), th10_second),
        IdentityCase("G19.alt-first", "G19", "alternative with (-x)^m seeded by the classical number", lambda g: _n_k(g, 1), alt_first),
        IdentityCase("G19.alt-second", "G19", "alternative with (1-x)^m seeded by the classical number", lambda g: _n_k(g, 1), alt_second),
        IdentityCase("G19.k1-first", "G19", "order-one collapse of the alternative form, first kind", _ns1, k1_first),
        IdentityCase(
            "G19.k1-second",
            "G19",
            "probe: order-one collapse of the second-kind alternative; the printed (-1)^m weight "
            "must not multiply the constant term",
            _ns1,
            None,
            variants={
                "as-printed ((-1)^m/m, (x-1)^m - 1)": _k1_second_variant(True),
                "unsigned (1/m, (1-x)^m - 1)": _k1_second_variant(False),
            },
        ),
    ]


def _gen_euler(m: int, k: int) -> Poly:
    return _psum(
        aux_poly(2 * m + 1 - j, k).affine_compose(1, 1)
        * (2**j * comb(2 * m + 1, j) * bernoulli_number(j))
        for j in range(2 * m + 1)
    )


def _g20():
    def _even_pts(grid):
        return (
            {"n": n, "k": k}
            for n in range(1, grid.max_n_double // 2 + 1)
            for k in range(1, grid.max_k + 1)
        )

    def th11_even_first(n, k):
        rhs = _psum(
            _psum(
                aux_poly(2 * m - j, k).affine_compose(1, n)
                * (comb(2 * m, j) * bernoulli_number(j))
                for j in range(2 * m)
            )
            * F(central_u(n, m), m)
            for m in range(1, n + 1)
        ) * n
        return _cp(2 * n, k), rhs

    def th11_even_second(n, k):
        rhs = _psum(
            _psum(
                aux_poly(2 * m - j, k).affine_compose(1, -n)
                * ((-1) ** j * comb(2 * m, j) * bernoulli_number(j))
                for j in range(2 * m)
            )
            * F(central_u(n, m), m)
            for m in range(1, n + 1)
        ) * n
        return _chp(2 * n, k), rhs

    def th11_odd_first(n, k):
        rhs = _psum(
            _psum(
                aux_poly(2 * m + 1 - j, k).affine_compose(1, n + 1)
                * (2**j * comb(2 * m + 1, j) * bernoulli_number(j))
                for j in range(2 * m + 1)
            )
            * F(central_u(n, m), 2 * m + 1)
            for m in range(1, n + 1)
        ) * (-(2 * n + 1))
        return _cp(2 * n + 1, k), rhs

    def th11_odd_second(n, k):
        rhs = _psum(
            _psum(
                aux_poly(2 * m + 1 - j, k).affine_compose(1, -n + 1)
                * (2**j * comb(2 * m + 1, j) * bernoulli_number(j))
                for j in range(2 * m + 1)
            )
            * F(central_u(n, m), 2 * m + 1)
            for m in range(1, n + 1)
        ) * (2 * n + 1)
        return _chp(2 * n + 1, k), rhs

    def euler_odd(m):
        return euler_poly(2 * m + 1), _gen_euler(m, 1)

    def euler_at0(m):
        lhs = _fsum(
            F(2**j * comb(2 * m + 1, j)) * bernoulli_number(j) * aux_poly(2 * m + 1 - j, 1)(F(1))
            for j in range(2 * m + 1)
        )
        rhs = F(1 - 2 ** (2 * m + 2), m + 1) * bernoulli_number(2 * m + 2)
        return lhs, rhs

    def euler_even(m):
        rhs = _psum(
            (aux_poly(2 * m - j, 1).affine_compose(1, 1) - aux_poly(2 * m - j, 1)(F(1)))
            * (2**j * comb(2 * m, j) * bernoulli_number(j))
            for j in range(2 * m)
        )
        return euler_poly(2 * m), rhs

    def gen_euler_odd_first(n, k):
        rhs = _psum(
            _gen_euler(m, k).affine_compose(1, n) * F(central_u(n, m), 2 * m + 1)
            for m in range(1, n + 1)
        ) * (-(2 * n + 1))
        return _cp(2 * n + 1, k), rhs

    def gen_euler_odd_second(n, k):
        rhs = _psum(
            _gen_euler(m, k).affine_compose(1, -n) * F(central_u(n, m), 2 * m + 1)
            for m in range(1, n + 1)
        ) * (2 * n + 1)
        return _chp(2 * n + 1, k), rhs

    def _ms1(grid):
        return ({"m": m} for m in range(1, grid.max_n // 2 + 1))

    return [
        IdentityCase("G20.even-first", "G20", "even general order first kind via central factorials", _even_pts, th11_even_first),
        IdentityCase("G20.even-second", "G20", "even general order second kind via central factorials", _even_pts, th11_even_second),
        IdentityCase("G20.odd-first", "G20", "odd general order first kind via central factorials", _even_pts, th11_odd_first),
        IdentityCase("G20.odd-second", "G20", "odd general order second kind via central factorials", _even_pts, th11_odd_second),
        IdentityCase("G20.euler-odd", "G20", "odd Euler polynomials from Bernoulli-weighted moments", _ms1, euler_odd),
        IdentityCase("G20.euler-at0", "G20", "odd Euler value at 0 via the next Bernoulli number", _ms1, euler_at0),
        IdentityCase("G20.euler-even", "G20", "even Euler polynomials from centered moment differences", _ms1, euler_even),
        IdentityCase("G20.gen-euler-odd-first", "G20", "odd first kind through generalized Euler polynomials", _even_pts, gen_euler_odd_first),
        IdentityCase("G20.gen-euler-odd-second", "G20", "odd second kind through generalized Euler polynomials", _even_pts, gen_euler_odd_second),
    ]


@lru_cache(maxsize=None)
def _mc(kind: str, n: int, k: int, a: int, q, L, y) -> Poly:
    return multiparam_cauchy(kind, MultiParam(n, k, a, q, L, y))


@lru_cache(maxsize=None)
def _mpb(n: int, k: int, a: int, q, L, y) -> Poly:
    return multiparam_poly_bernoulli(n, k, a, q, L, y)


def _bivariate_fixed_q(n: int, m: int, q) -> Poly:
    """First-kind bivariate Stirling polynomial with q fixed: a Poly in y."""
    q = Fraction(q)
    return gsn1_bivariate(n, m).map_coeffs(
        lambda c: Fraction(c(q)) if isinstance(c, Poly) else Fraction(c)
    )


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

    def shif1(n, a, q, L):
        k = len(L)
        lhs = multiparam_cauchy("first", MultiParam(n, k, a, q, L, 0), "integral").constant()
        return Fraction(lhs), shifted_cauchy_number("first", n, k, a, q, L)

    def shif2(n, a, q, L):
        k = len(L)
        lhs = multiparam_cauchy("second", MultiParam(n, k, a, q, L, 0), "integral").constant()
        return Fraction(lhs), shifted_cauchy_number("second", n, k, a, q, L)

    def para1(n, a, q, L, y):
        p = MultiParam(n, len(L), a, q, L, y)
        return multiparam_cauchy("first", p, "integral"), _mc("first", n, len(L), a, q, L, y)

    def para2(n, a, q, L, y):
        p = MultiParam(n, len(L), a, q, L, y)
        return multiparam_cauchy("second", p, "integral"), _mc("second", n, len(L), a, q, L, y)

    def x0_first(n, a, q, L, y):
        k = len(L)
        w = prod(L)
        rhs = _fsum(
            F((-1) ** (n - m)) * gsn1_bivariate_at(n, m, y, q) * w ** (m + a) / F((m + a) ** k)
            for m in range(n + 1)
        )
        return Fraction(_mc("first", n, k, a, q, L, y).constant()), rhs

    def x0_second(n, a, q, L, y):
        k = len(L)
        w = prod(L)
        rhs = F((-1) ** n) * _fsum(
            gsn1_bivariate_at(n, m, -y, q) * w ** (m + a) / F((m + a) ** k)
            for m in range(n + 1)
        )
        return Fraction(_mc("second", n, k, a, q, L, y).constant()), rhs

    def reduce_ordinary(n, k):
        ones = (F(1),) * k
        lhs = (
            _mc("first", n, k, 1, F(1), ones, F(0)),
            _mc("second", n, k, 1, F(1), ones, F(0)),
        )
        return lhs, (_cp(n, k), _chp(n, k))

    def reduce_display_first(n, k):
        rhs = _psum(aux_poly(m, k) * stirling1(n, m) for m in range(n + 1)) * (-1) ** n
        return _cp(n, k), rhs

    def reduce_display_second(n, k):
        rhs = _psum(
            aux_poly(m, k) * ((-1) ** (n - m) * stirling1(n, m)) for m in range(n + 1)
        )
        return _chp(n, k), rhs

    def _sym_points(grid):
        return (
            {"n": n, "q": q, "L": L}
            for n in range(grid.max_n_multi + 1)
            for q in grid.qs
            for L in grid.ls
        )

    def sym_xy(n, q, L):
        k = len(L)
        first = Poly()
        second = Poly()
        for m in range(n + 1):
            ypoly = _bivariate_fixed_q(n, m, q)
            aux = aux_poly_weighted(m, k, L)
            first = first + aux.map_coeffs(lambda fc, yp=ypoly: yp * fc)
            second = second + aux.map_coeffs(
                lambda fc, yp=ypoly: yp.affine_compose(-1, 0) * ((-1) ** (n - m) * fc)
            )
        first = first * (-1) ** n
        lhs = (first, second)
        return lhs, (transpose_nested(first), transpose_nested(second))

    def golden_point(kind):
        p = MultiParam(4, 3, 1, F(-3), (F(1), F(1), F(1, 2)), F(-3, 2))
        return eval_at_sqrt(multiparam_cauchy(kind, p), 5)

    def golden_first():
        return golden_point("first"), (F(114177911, 144000), F(-284203, 768))

    def golden_second():
        return golden_point("second"), (F(14046697, 288000), F(10805, 768))

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

    def mpb1(n, a, q, L, y):
        k = len(L)
        sign = (-1) ** (n + a - 1)
        rhs = _psum(
            _mc("first", l, k, a, q, L, y)
            * (
                F((-1) ** m * factorial(m))
                * gsn2_bivariate_at(n, m, y, q)
                * gsn2_bivariate_at(m, l, y, q)
            )
            for m in range(n + 1)
            for l in range(m + 1)
        ) * sign
        return _mpb(n, k, a, q, L, y), rhs

    def mpb2(n, a, q, L, y):
        k = len(L)
        sign = (-1) ** (n + a - 1)
        rhs = _psum(
            _mc("second", l, k, a, q, L, y)
            * (
                F(factorial(m))
                * gsn2_bivariate_at(n, m, y, q)
                * gsn2_bivariate_at(m, l, -y, q)
            )
            for m in range(n + 1)
            for l in range(m + 1)
        ) * sign
        return _mpb(n, k, a, q, L, y), rhs

    def mpb3(n, a, q, L, y):
        k = len(L)
        sign = (-1) ** (n + a - 1)
        rhs = _psum(
            _mpb(l, k, a, q, L, y)
            * (
                F((-1) ** m, factorial(m))
                * gsn1_bivariate_at(n, m, y, q)
                * gsn1_bivariate_at(m, l, y, q)
            )
            for m in range(n + 1)
            for l in range(m + 1)
        ) * sign
        return _mc("first", n, k, a, q, L, y), rhs

    def mpb4(n, a, q, L, y):
        k = len(L)
        sign = (-1) ** (n + a - 1)
        rhs = _psum(
            _mpb(l, k, a, q, L, y)
            * (
                F(1, factorial(m))
                * gsn1_bivariate_at(n, m, -y, q)
                * gsn1_bivariate_at(m, l, y, q)
            )
            for m in range(n + 1)
            for l in range(m + 1)
        ) * sign
        return _mc("second", n, k, a, q, L, y), rhs

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
        IdentityCase("G21.shif1", "G21", "shifted numbers match the integral construction, first kind", _shif_points, shif1),
        IdentityCase("G21.shif2", "G21", "shifted numbers match the integral construction, second kind", _shif_points, shif2),
        IdentityCase("G21.para1", "G21", "bivariate Stirling expansion equals the integral oracle, first kind", _mp_points, para1),
        IdentityCase("G21.para2", "G21", "bivariate Stirling expansion equals the integral oracle, second kind", _mp_points, para2),
        IdentityCase("G21.x0-first", "G21", "value at 0 from bivariate Stirling sums, first kind", _mp_points, x0_first),
        IdentityCase("G21.x0-second", "G21", "value at 0 from bivariate Stirling sums, second kind", _mp_points, x0_second),
        IdentityCase("G21.reduce", "G21", "unit parameters reduce to the ordinary general-order family", _nk3, reduce_ordinary),
        IdentityCase("G21.reduce-display-first", "G21", "plain-triangle moment expansion, first kind", _nk3, reduce_display_first),
        IdentityCase("G21.reduce-display-second", "G21", "plain-triangle moment expansion, second kind", _nk3, reduce_display_second),
        IdentityCase("G21.sym-xy", "G21", "with unit shift the two free arguments commute (bivariate equality)", _sym_points, sym_xy),
        IdentityCase("G21.golden-first", "G21", "irrational-point evaluation splits to the recorded pair, first kind", _single, golden_first),
        IdentityCase("G21.golden-second", "G21", "irrational-point evaluation splits to the recorded pair, second kind", _single, golden_second),
        IdentityCase("G21.negq", "G21", "negating the step exchanges the kinds up to sign", _mp_points, negq),
        IdentityCase("G21.mpb1", "G21", "multiparameter poly-Bernoulli from first-kind values", _mpb_points, mpb1),
        IdentityCase("G21.mpb2", "G21", "multiparameter poly-Bernoulli from second-kind values", _mpb_points, mpb2),
        IdentityCase("G21.mpb3", "G21", "first kind back from multiparameter poly-Bernoulli values", _mpb_points, mpb3),
        IdentityCase("G21.mpb4", "G21", "second kind back from multiparameter poly-Bernoulli values", _mpb_points, mpb4),
        IdentityCase("G21.mpb-reduce", "G21", "unit parameters reduce to the alternative poly-Bernoulli family", _nk3, mpb_reduce),
    ]


def _g22():
    def _n_y_pts(grid):
        return ({"n": n, "y": y} for n in range(grid.max_n + 1) for y in grid.xs)

    def hp1(n, y):
        lhs = _psum(
            harmonic_poly(m).affine_compose(1, 1)
            * (F((-1) ** m, factorial(n - m)) * _cp(n - m)(y))
            for m in range(n + 1)
        )
        return lhs, binom_poly(-y, 1, n)

    def hp2(n, y):
        lhs = _psum(
            harmonic_poly(m).affine_compose(1, 2)
            * (F((-1) ** m, factorial(n - m)) * _chp(n - m)(y))
            for m in range(n + 1)
        )
        return lhs, binom_poly(y, 1, n)

    def hp3(n):
        rhs = binom_poly(0, 1, n) - _psum(
            harmonic_poly(m).affine_compose(1, 1)
            * F((-1) ** m, factorial(n - m - 1)) * _c(n - m)
            for m in range(n)
        )
        return _chp(n) / factorial(n), rhs

    def _compare_variant(shift):
        # shift: the argument of the first-kind polynomials on the left side
        def check(n):
            lhs = _psum(
                _cp(m).affine_compose(-1, shift)
                * F((-1) ** m, factorial(m) * (n - m + 1) * (n - m + 2))
                for m in range(n + 1)
            )
            rhs = _psum(
                harmonic_poly(m) * (F((-1) ** (n - m)) * _c(n + 1 - m) / factorial(n - m))
                for m in range(n + 1)
            )
            return lhs, rhs

        return check

    def _x0_printed(n):
        lhs = _fsum(
            F((-1) ** m) * _c(n - m) / (factorial(n - m) * (m + 1) * (m + 2))
            for m in range(n + 1)
        )
        rhs = _fsum(
            F((-1) ** m) * _c(n + 1 - m) / factorial(n - m) * harmonic_number(m + 1)
            for m in range(n + 1)
        )
        return lhs, rhs

    def _x0_shifted(n):
        lhs = _fsum(
            F((-1) ** m) * F(_cp(m)(F(2))) / (factorial(m) * (n + 1 - m) * (n + 2 - m))
            for m in range(n + 1)
        )
        rhs = _fsum(
            F((-1) ** (n - m)) * _c(n + 1 - m) / factorial(n - m) * harmonic_number(m + 1)
            for m in range(n + 1)
        )
        return lhs, rhs

    def _ns(grid):
        return ({"n": n} for n in range(grid.max_n + 1))

    def _ns1(grid):
        return ({"n": n} for n in range(1, grid.max_n + 1))

    return [
        IdentityCase("G22.hp1", "G22", "harmonic-polynomial convolution of the first kind gives a binomial", _n_y_pts, hp1),
        IdentityCase("G22.hp2", "G22", "harmonic-polynomial convolution of the second kind gives a binomial", _n_y_pts, hp2),
        IdentityCase("G22.hp3", "G22", "second kind from first-kind numbers and harmonic polynomials", _ns1, hp3),
        IdentityCase(
            "G22.compare-hyp5",
            "G22",
            "probe: displayed comparison identity; the printed argument -x needs the shift 2-x",
            _ns,
            None,
            variants={"as-printed (-x)": _compare_variant(0), "argument-shifted (2-x)": _compare_variant(2)},
        ),
        IdentityCase(
            "G22.compare-hyp5-x0",
            "G22",
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
