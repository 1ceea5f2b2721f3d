"""Cauchy and poly-Cauchy numbers and polynomials of both kinds.

Every polynomial here is available through several independent
constructions which must agree (the test suite enforces this):

* ``gsn``          -- weighted sum of first-kind Stirling polynomials;
                      the canonical (default) construction, defined for
                      every (kind, n, k);
* ``integral``     -- expand the defining binomial under the k-fold unit
                      cube integral in a two-level polynomial ring and
                      integrate monomial-by-monomial (t^i contributes a
                      1/(i+1)^k weight; never performed numerically);
* ``series``       -- k = 1 only: exponential-generating-function
                      coefficient times n!;
* ``binomial_conv``-- convolution of the family's own numbers with
                      rising/falling factorials;
* ``theorem1``     -- k = 1 only: the explicit first-kind-Stirling
                      expansion seeded by the Cauchy numbers.

The multiparameter generalization (shift a >= 1, step q, weights
L = (l_1..l_k), offset y) follows the same pattern: a bivariate-Stirling
formula as the primary route and the iterated-integral expansion over
[0,l_1] x ... x [0,l_k] as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from .poly import Poly, binom_poly, falling_factorial_poly, rising_factorial_poly
from .series import gf_cauchy1, gf_cauchy2
from .stirling import gsn1, gsn1_bivariate_at, stirling1

__all__ = [
    "CONSTRUCTIONS",
    "MultiParam",
    "aux_poly",
    "aux_poly_weighted",
    "cauchy_poly",
    "cauchy_number",
    "cauchy_coefficient",
    "cauchy_derivative",
    "cauchy_recurrence_step",
    "multiparam_cauchy",
    "shifted_cauchy_number",
]

CONSTRUCTIONS = ("gsn", "integral", "series", "binomial_conv", "theorem1")

_KINDS = ("first", "second")


def _check_kind(kind: str):
    if kind not in _KINDS:
        raise ValueError(f"kind must be 'first' or 'second', got {kind!r}")


def _check_nk(n: int, k: int):
    if n < 0:
        raise ValueError("degree index must be >= 0")
    if k < 1:
        raise ValueError("poly order k must be >= 1")


def _check_weights(L, k: int) -> tuple:
    """The weights L as a tuple of exactly k nonzero Fractions."""
    L = tuple(Fraction(l) for l in L)
    if len(L) != k or any(not l for l in L):
        raise ValueError("L must contain exactly k nonzero weights")
    return L


@lru_cache(maxsize=None)
def _moment_poly(j: int, k: int, w) -> Poly:
    # sum_i (-1)^i/(i+1)^k binom(j,i) w^(i+1) x^(j-i), w the product of the weights
    if j < 0:
        raise ValueError("index must be >= 0")
    if k < 1:
        raise ValueError("poly order k must be >= 1")
    return Poly([
        Fraction((-1) ** i * comb(j, i), (i + 1) ** k) * w ** (i + 1) for i in range(j, -1, -1)
    ])


def aux_poly(j: int, k: int) -> Poly:
    """Moment polynomial of the k-fold unit-cube integral of (x - t)^j
    (up to sign bookkeeping): sum_i (-1)^i/(i+1)^k binom(j,i) x^(j-i),
    the constant 1 for j = 0."""
    return _moment_poly(j, k, 1)


def aux_poly_weighted(j: int, k: int, L) -> Poly:
    """Weighted moment polynomial for integration over [0,l_1]x...x[0,l_k]."""
    return _moment_poly(j, k, prod(_check_weights(L, k)))


# ---------------------------------------------------------------------------
# constructions


@lru_cache(maxsize=None)
def _poly_gsn(kind: str, n: int, k: int) -> Poly:
    total = Poly()
    if kind == "first":
        for m in range(n + 1):
            total = total + gsn1(n, m) * Fraction((-1) ** (n - m), (m + 1) ** k)
        return total
    for m in range(n + 1):
        total = total + gsn1(n, m) * Fraction(1, (m + 1) ** k)
    return (total * (-1) ** n).affine_compose(-1, 0)


def _poly_integral(kind: str, n: int, k: int) -> Poly:
    # two-level ring: outer variable t, inner variable x; the linear
    # product expansion already carries the n! of the defining formula
    product = Poly([1])
    for j in range(n):
        if kind == "first":
            product = product * Poly([Poly([-j, -1]), 1])   # t - x - j
        else:
            product = product * Poly([Poly([-j, 1]), -1])   # x - t - j
    return _weighted_cube_map(product, k, (1,) * k)


def _poly_series(kind: str, n: int, k: int) -> Poly:
    if k != 1:
        raise ValueError("the generating-function construction is defined for k = 1 only")
    gf = gf_cauchy1(n) if kind == "first" else gf_cauchy2(n)
    coeff = gf[n]
    poly = coeff if isinstance(coeff, Poly) else Poly.const(coeff)
    return poly * factorial(n)


def _poly_binomial_conv(kind: str, n: int, k: int) -> Poly:
    total = Poly()
    if kind == "first":
        for m in range(n + 1):
            total = total + rising_factorial_poly(m) * (
                (-1) ** m * comb(n, m) * cauchy_number("first", n - m, k)
            )
        return total
    for m in range(n + 1):
        total = total + falling_factorial_poly(m) * (
            comb(n, m) * cauchy_number("second", n - m, k)
        )
    return total


def _poly_theorem1(kind: str, n: int, k: int) -> Poly:
    if k != 1:
        raise ValueError("the explicit Stirling expansion is defined for k = 1 only")
    if n == 0:
        return Poly([1])
    c_n = cauchy_number("first", n, 1)
    if kind == "first":
        coeffs = [c_n] + [
            Fraction((-1) ** n * n, m) * stirling1(n - 1, m - 1) for m in range(1, n + 1)
        ]
        return Poly(coeffs)
    shifted = [Fraction(0)] + [
        Fraction((-1) ** (n + m) * n, m) * stirling1(n - 1, m - 1) for m in range(1, n + 1)
    ]
    return Poly(shifted).affine_compose(1, -1) + c_n


_CONSTRUCTION_FNS = {
    "gsn": _poly_gsn,
    "integral": _poly_integral,
    "series": _poly_series,
    "binomial_conv": _poly_binomial_conv,
    "theorem1": _poly_theorem1,
}


def cauchy_poly(kind: str, n: int, k: int = 1, construction: str = "gsn") -> Poly:
    """Poly-Cauchy polynomial of the chosen kind (k = 1 is the classical case)."""
    _check_kind(kind)
    _check_nk(n, k)
    try:
        fn = _CONSTRUCTION_FNS[construction]
    except KeyError:
        raise ValueError(f"unknown construction {construction!r}") from None
    return fn(kind, n, k)


@lru_cache(maxsize=None)
def cauchy_number(kind: str, n: int, k: int = 1) -> Fraction:
    """Constant term of the poly-Cauchy polynomial.

    Komatsu's sum over the unsigned Stirling triangle: stirling1(n, m) /
    (m+1)^k, signed (-1)^(n-m) for the first kind and (-1)^n for the
    second.  It is the constant term of the ``gsn`` construction, since
    gsn1(n, m) has constant term stirling1(n, m), but reads only the
    triangle, so no gsn1 polynomial is built or memoised.
    """
    _check_kind(kind)
    _check_nk(n, k)
    total = Fraction(0)
    for m in range(n + 1):
        sign = (-1) ** (n - m) if kind == "first" else (-1) ** n
        total += Fraction(sign * stirling1(n, m), (m + 1) ** k)
    return total


def cauchy_coefficient(kind: str, n: int, i: int, k: int = 1) -> Fraction:
    """Closed-form coefficient of x^i in the poly-Cauchy polynomial."""
    _check_kind(kind)
    _check_nk(n, k)
    if i < 0 or i > n:
        raise ValueError(f"coefficient index must satisfy 0 <= i <= n, got {i}")
    total = Fraction(0)
    for m in range(i, n + 1):
        term = Fraction(comb(m, i), (m - i + 1) ** k) * stirling1(n, m)
        if kind == "first":
            term *= (-1) ** m
        total += term
    return Fraction((-1) ** (n + i)) * total


def cauchy_derivative(kind: str, n: int, k: int = 1, order: int = 1) -> Poly:
    """Higher-order derivative via the Stirling-polynomial expansion in the
    family's own numbers (agrees with the formal derivative)."""
    _check_kind(kind)
    _check_nk(n, k)
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    total = Poly()
    if kind == "first":
        for m in range(order, n + 1):
            total = total + gsn1(m, order) * (
                (-1) ** m * comb(n, m) * cauchy_number("first", n - m, k)
            )
        return total * factorial(order)
    for m in range(order, n + 1):
        total = total + gsn1(m, order).affine_compose(-1, 0) * (
            (-1) ** m * comb(n, m) * cauchy_number("second", n - m, k)
        )
    return total * ((-1) ** order * factorial(order))


def cauchy_recurrence_step(kind: str, n: int, k: int = 1) -> Poly:
    """Build the index-(n+1) polynomial from the index-n one.

    Uses the recurrence whose sign survives the definitional oracle for
    every k (the identity suite probes the printed sign variants).
    """
    _check_kind(kind)
    _check_nk(n, k)
    x = Poly.gen()
    if kind == "first":
        total = Poly()
        for m in range(n + 1):
            total = total + binom_poly(n, 1, n - m) * (
                Fraction(factorial(n), factorial(m)) * cauchy_number("second", m + 1, k)
            )
        return -(x + n) * cauchy_poly("first", n, k) + total * (-1) ** (n + 1)
    total = Poly()
    for m in range(n + 1):
        total = total + binom_poly(-m - 1, 1, n - m) * (
            (-1) ** m * Fraction(factorial(n), factorial(m)) * cauchy_number("first", m + 1, k)
        )
    return (x - n) * cauchy_poly("second", n, k) - total


# ---------------------------------------------------------------------------
# multiparameter generalization


@dataclass(frozen=True)
class MultiParam:
    """Parameters of the multiparameter poly-Cauchy polynomial."""

    n: int
    k: int
    a: int
    q: Fraction
    L: tuple
    y: Fraction

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("degree index must be >= 0")
        if self.k < 1:
            raise ValueError("poly order k must be >= 1")
        if not (isinstance(self.a, int) and self.a >= 1):
            raise ValueError("shift a must be an integer >= 1")
        object.__setattr__(self, "q", Fraction(self.q))
        object.__setattr__(self, "L", _check_weights(self.L, self.k))
        object.__setattr__(self, "y", Fraction(self.y))


def _weighted_cube_map(outer: Poly, k: int, L: tuple) -> Poly:
    """Map sum_i g_i(x) t^i to sum_i g_i(x) w^(i+1)/(i+1)^k, w the product of L."""
    w = prod(L)
    total = Poly()
    for i in range(outer.degree + 1):
        c = outer[i]
        if c:
            inner = c if isinstance(c, Poly) else Poly.const(c)
            total = total + inner * (w ** (i + 1) / Fraction((i + 1) ** k))
    return total


def multiparam_cauchy(kind: str, p: MultiParam, construction: str = "stirling") -> Poly:
    """Multiparameter poly-Cauchy polynomial in x, degree n + a - 1.

    ``stirling`` evaluates the bivariate first-kind Stirling expansion;
    ``integral`` expands the defining product in the two-level ring and
    applies the weighted monomial integral -- an independent oracle.
    """
    _check_kind(kind)
    n, k, a, q, L, y = p.n, p.k, p.a, p.q, p.L, p.y
    if construction == "stirling":
        total = Poly()
        if kind == "first":
            for m in range(n + 1):
                w = gsn1_bivariate_at(n, m, y, q)
                if w:
                    total = total + aux_poly_weighted(m + a - 1, k, L) * w
            return total * ((-1) ** (a - 1) * (-1) ** n)
        for m in range(n + 1):
            w = gsn1_bivariate_at(n, m, -y, q)
            if w:
                total = total + aux_poly_weighted(m + a - 1, k, L) * ((-1) ** (n - m) * w)
        return total * (-1) ** (a - 1)
    if construction != "integral":
        raise ValueError(f"unknown construction {construction!r}")
    # two-level ring: outer t, inner x
    if kind == "first":
        product = Poly([Poly([0, -1]), 1]) ** (a - 1)          # (t - x)^(a-1)
        for j in range(n):
            product = product * Poly([Poly([-y - j * q, -1]), 1])   # t - x - y - jq
        return _weighted_cube_map(product, k, L)
    product = Poly([Poly([0, 1]), -1]) ** (a - 1)              # (x - t)^(a-1)
    for j in range(n):
        product = product * Poly([Poly([y - j * q, 1]), -1])   # x + y - t - jq
    return _weighted_cube_map(product, k, L) * (-1) ** (a - 1)


def shifted_cauchy_number(kind: str, n: int, k: int, a: int, q, L) -> Fraction:
    """Shifted poly-Cauchy number: the multiparameter value at x = 0, y = 0,
    via the ordinary first-kind Stirling expansion."""
    _check_kind(kind)
    _check_nk(n, k)
    if not (isinstance(a, int) and a >= 1):
        raise ValueError("shift a must be an integer >= 1")
    q = Fraction(q)
    w = prod(_check_weights(L, k))
    total = Fraction(0)
    for m in range(n + 1):
        base = w ** (m + a) / Fraction((m + a) ** k) * stirling1(n, m)
        if kind == "first":
            total += (-q) ** (n - m) * base
        else:
            total += q ** (n - m) * base
    return total if kind == "first" else (-1) ** n * total
