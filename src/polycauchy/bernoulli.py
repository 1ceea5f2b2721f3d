"""Bernoulli numbers and polynomials, Euler and power-sum polynomials,
and the poly-Bernoulli variants.

The Bernoulli, Euler and power-sum polynomials are rows of the
generating function (t/(e^t - 1))^alpha e^(xt) (``gf_gen_bernoulli``,
read by the Sheffer-row kernel ``sheffer_rows``), so the series module is
the single source of the defining convention (B_1 = -1/2).  Euler
polynomials use the Bernoulli-based closed form

    E_n(x) = (2/(n+1)) * (B_{n+1}(x) - 2^{n+1} B_{n+1}(x/2)),

which is validated elsewhere through its role in the even/odd Cauchy
polynomial decompositions and the half-interval integration rule.

The poly-Bernoulli variants weight the unit-cube moment polynomials of
the Cauchy module (``aux_poly``, ``_moment_sum``) by second-kind Stirling
values, and check n and k with its ``_check_nk``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .cauchy import MultiParam, _check_nk, _moment_sum, aux_poly
from .poly import Poly
from .series import gf_gen_bernoulli
from .stirling import gsn2, gsn2_bivariate_at, stirling2

__all__ = [
    "bernoulli_number",
    "bernoulli_poly",
    "gen_bernoulli_poly",
    "euler_poly",
    "power_sum_poly",
    "poly_bernoulli_gsn",
    "poly_bernoulli_kl",
    "multiparam_poly_bernoulli",
]


@lru_cache(maxsize=None)
def gen_bernoulli_poly(n: int, alpha: int) -> Poly:
    """Order-alpha (higher-order) Bernoulli polynomial of degree n."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if alpha < 0:
        raise ValueError("order must be >= 0")
    return gf_gen_bernoulli(alpha, n)[n] * factorial(n)


def bernoulli_poly(n: int) -> Poly:
    return gen_bernoulli_poly(n, 1)


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    return Fraction(bernoulli_poly(n).constant())


@lru_cache(maxsize=None)
def euler_poly(n: int) -> Poly:
    if n < 0:
        raise ValueError("degree must be >= 0")
    b = gen_bernoulli_poly(n + 1, 1)
    return (b - b.stretch(Fraction(1, 2)) * 2 ** (n + 1)) * Fraction(2, n + 1)


@lru_cache(maxsize=None)
def power_sum_poly(n: int) -> Poly:
    """S_n(x), with S_n(m) = 1^n + ... + m^n for positive integers m."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    b = gen_bernoulli_poly(n + 1, 1)
    return (b.affine_compose(1, 1) - b(Fraction(1))) / (n + 1)


@lru_cache(maxsize=None)
def poly_bernoulli_gsn(n: int, k: int) -> Poly:
    """Poly-Bernoulli polynomial over second-kind Stirling polynomials.

    At x = 0 this reduces to the classical poly-Bernoulli number with
    weight m!/(m+1)^k.
    """
    _check_nk(n, k)
    total = sum((gsn2(n, m) * Fraction((-1) ** m * factorial(m), (m + 1) ** k)
                 for m in range(n + 1)), Poly())
    return total * (-1) ** n


@lru_cache(maxsize=None)
def poly_bernoulli_kl(n: int, k: int) -> Poly:
    """The alternative poly-Bernoulli polynomial: the unit-cube moment
    polynomials aux_poly(m, k) weighted by (-1)^n m! S(n, m), over the
    ordinary second-kind triangle."""
    _check_nk(n, k)
    return sum((aux_poly(m, k) * ((-1) ** n * factorial(m) * stirling2(n, m))
                for m in range(n + 1)), Poly())


def multiparam_poly_bernoulli(n: int, k: int, a: int, q, L, y) -> Poly:
    """Multiparameter poly-Bernoulli polynomial: the bivariate second-kind
    Stirling transform of the weighted auxiliary polynomials, for q != 0."""
    p = MultiParam(n, k, a, q, L, y)
    weights = [(-1) ** n * factorial(m) * gsn2_bivariate_at(n, m, p.y, p.q) for m in range(n + 1)]
    return _moment_sum(weights, k, p.L, a - 1)
