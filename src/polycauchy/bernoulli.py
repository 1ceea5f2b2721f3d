"""Bernoulli numbers and polynomials, Euler and power-sum polynomials,
and the poly-Bernoulli variants.

All polynomial families here are extracted from the truncated-series
kernel (``gf_gen_bernoulli``), so the series module is the single source
of the defining convention (B_1 = -1/2).  Euler polynomials use the
Bernoulli-based closed form

    E_n(x) = (2/(n+1)) * (B_{n+1}(x) - 2^{n+1} B_{n+1}(x/2)),

which is validated elsewhere through its role in the even/odd Cauchy
polynomial decompositions and the half-interval integration rule.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .cauchy import MultiParam, aux_poly_weighted
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
    coeff = gf_gen_bernoulli(alpha, n)[n]
    poly = coeff if isinstance(coeff, Poly) else Poly.const(coeff)
    return poly * factorial(n)


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
    if n < 0:
        raise ValueError("degree must be >= 0")
    if k < 1:
        raise ValueError("poly order k must be >= 1")
    total = Poly()
    for m in range(n + 1):
        total = total + gsn2(n, m) * Fraction((-1) ** m * factorial(m), (m + 1) ** k)
    return total * (-1) ** n


@lru_cache(maxsize=None)
def poly_bernoulli_kl(n: int, k: int) -> Poly:
    """The alternative poly-Bernoulli polynomial built from the ordinary
    second-kind triangle with an inner binomial sum in (-x)."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if k < 1:
        raise ValueError("poly order k must be >= 1")
    total = Poly()
    for m in range(n + 1):
        inner = Poly()
        for i in range(m + 1):
            inner = inner + Poly([0] * i + [Fraction((-1) ** i, (m - i + 1) ** k) * comb(m, i)])
        total = total + inner * ((-1) ** m * factorial(m) * stirling2(n, m))
    return total * (-1) ** n


def multiparam_poly_bernoulli(n: int, k: int, a: int, q, L, y) -> Poly:
    """Multiparameter poly-Bernoulli polynomial: the bivariate second-kind
    Stirling transform of the weighted auxiliary polynomials."""
    p = MultiParam(n, k, a, q, L, y)
    if not p.q:
        raise ValueError("q must be nonzero")
    total = Poly()
    for m in range(n + 1):
        weight = factorial(m) * gsn2_bivariate_at(n, m, p.y, p.q)
        if weight:
            total = total + aux_poly_weighted(m + a - 1, k, p.L) * weight
    return total * (-1) ** n
