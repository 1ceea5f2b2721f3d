"""Bernoulli numbers and polynomials, Euler and power-sum polynomials,
and the poly-Bernoulli variants.

The Bernoulli, Euler and power-sum polynomials are rows of the
generating function (t/(e^t - 1))^alpha e^(xt) (``gf_gen_bernoulli``);
``gen_bernoulli_poly`` builds its one row n from the same Sheffer pair and
power loop as ``sheffer_rows``, so the series module is the single source
of the defining convention (B_1 = -1/2).

The Bernoulli numbers are read from integers alone, by the TangentNumbers
algorithm of Brent & Harvey, "Fast computation of Bernoulli, Tangent and
Secant numbers" (2011): B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)) for the
tangent numbers T_m, with B_0 = 1, B_1 = -1/2 and B_n = 0 for odd n >= 3.
Each new T_m takes O(m) integer steps, so B_0..B_300 take milliseconds
and build no polynomial; the constant terms of the Sheffer rows are the
tests' cross-check of the numbers.

Euler polynomials use the Bernoulli-based closed form

    E_n(x) = (2/(n+1)) * (B_{n+1}(x) - 2^{n+1} B_{n+1}(x/2)),

which is validated elsewhere through its role in the even/odd Cauchy
polynomial decompositions and the half-interval integration rule.

The poly-Bernoulli variants weight the unit-cube moment polynomials of
the Cauchy module by second-kind Stirling values, each as one
``_moment_sum``, and check n and k with its ``_check_nk``.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .cauchy import MultiParam, _check_nk, _moment_sum
from .poly import Poly, _weighted_sum
from .rational import _reciprocal_powers
from .series import _gen_bernoulli, _sheffer_row
from .stirling import _bivariate_row, gsn2, stirling2

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


# memoised, as are both poly-Bernoulli forms, with a bound above the keys of
# the deep grid (ci/deep-grid.cfg), which CI checks
@lru_cache(maxsize=512)
def gen_bernoulli_poly(n: int, alpha: int) -> Poly:
    """Order-alpha (higher-order) Bernoulli polynomial of degree n."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if alpha < 0:
        raise ValueError("order must be >= 0")
    return _sheffer_row(*_gen_bernoulli(alpha), n) * factorial(n)


def bernoulli_poly(n: int) -> Poly:
    return gen_bernoulli_poly(n, 1)


# B_0, B_2, ..., B_2m, the one memo of the numbers, and the column of the
# tangent number T_m as each pass of Brent & Harvey's TangentNumbers left it
_EVEN = [Fraction(1), Fraction(1, 6)]
_TANGENT_COLUMN = [1]
_EVEN_LOCK = threading.Lock()


def _extend_even(m: int) -> None:
    """Fill _EVEN up to B_2m.  Pass k of TangentNumbers sets
    T_j <- (j-k) T_(j-1) + (j-k+2) T_j for j = k, k+1, ..., from T_j = (j-1)!,
    so T_j's column by pass is stepped in place from T_(j-1)'s."""
    column = _TANGENT_COLUMN
    with _EVEN_LOCK:
        while m >= len(_EVEN):
            j = len(_EVEN)
            column[0] *= j - 1
            for i in range(1, j - 1):
                column[i] = (j - 1 - i) * column[i] + (j + 1 - i) * column[i - 1]
            column.append(2 * column[-1])
            four_j = 4**j
            _EVEN.append(Fraction((-1) ** (j - 1) * 2 * j * column[-1], four_j * (four_j - 1)))


def bernoulli_number(n: int) -> Fraction:
    """B_n, with B_1 = -1/2: B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)) for
    the tangent numbers T_m, and B_n = 0 for odd n >= 3."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n & 1:
        return Fraction(-1, 2) if n == 1 else Fraction(0)
    if n >> 1 >= len(_EVEN):
        _extend_even(n >> 1)
    return _EVEN[n >> 1]


def euler_poly(n: int) -> Poly:
    if n < 0:
        raise ValueError("degree must be >= 0")
    b = gen_bernoulli_poly(n + 1, 1)
    return (b - b.stretch(Fraction(1, 2)) * 2 ** (n + 1)) * Fraction(2, n + 1)


def power_sum_poly(n: int) -> Poly:
    """S_n(x), with S_n(m) = 1^n + ... + m^n for positive integers m."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    b = gen_bernoulli_poly(n + 1, 1)
    return (b.affine_compose(1, 1) - b(Fraction(1))) / (n + 1)


@lru_cache(maxsize=256)
def poly_bernoulli_gsn(n: int, k: int) -> Poly:
    """Poly-Bernoulli polynomial over second-kind Stirling polynomials.

    At x = 0 this reduces to the classical poly-Bernoulli number with
    weight m!/(m+1)^k.
    """
    _check_nk(n, k)
    weights, den = _reciprocal_powers(1, n + 2, k)
    signed = Poly([(-1) ** (n + m) * factorial(m) * w for m, w in enumerate(weights)]) / den
    return _weighted_sum(signed, [gsn2(n, m) for m in range(n + 1)])


@lru_cache(maxsize=256)
def poly_bernoulli_kl(n: int, k: int) -> Poly:
    """The alternative poly-Bernoulli polynomial: the unit-cube moment
    polynomials aux_poly(m, k) weighted by (-1)^n m! S(n, m), over the
    ordinary second-kind triangle, as one moment sum."""
    _check_nk(n, k)
    weights = Poly([(-1) ** n * factorial(m) * stirling2(n, m) for m in range(n + 1)])
    return _moment_sum(weights, k, (1,) * k)


def multiparam_poly_bernoulli(n: int, k: int, a: int, q, L, y) -> Poly:
    """Multiparameter poly-Bernoulli polynomial: the bivariate second-kind
    Stirling transform of the weighted auxiliary polynomials, for q != 0."""
    p = MultiParam(n, k, a, q, L, y)
    weights = _bivariate_row("second", n, p.y, p.q, [(-1) ** n * factorial(m) for m in range(n + 1)])
    return _moment_sum(weights, k, p.L, a - 1)
