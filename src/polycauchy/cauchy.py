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
[0,l_1] x ... x [0,l_k] as the oracle.  The ordinary ``integral``
construction is its unit-parameter case (a = 1, q = 1, L = (1,..,1),
y = 0).

Each result is written once for both kinds.  ``_check_kind`` returns the
kind's sign e = ``KIND_SIGN[kind]`` (1 for the first kind, -1 for the
second): a sign that only the first kind carries is (-e)^m, one that only
the second kind carries is e^m, and a point +-y is e*y.  ``_reflect(kind,
p)`` is p for the first kind and p(-x) for the second, and ``_OTHER[kind]``
names the other kind.  The identity registries read the same table and
helper.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from .poly import Poly, binom_poly, falling_factorial_poly
from .series import gf_cauchy1, gf_cauchy2
from .stirling import gsn1, gsn1_bivariate_at, stirling1

__all__ = [
    "CONSTRUCTIONS",
    "KIND_SIGN",
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

KIND_SIGN = {"first": 1, "second": -1}
_OTHER = {"first": "second", "second": "first"}


def _check_kind(kind: str) -> int:
    """The sign e of a valid kind."""
    if kind not in KIND_SIGN:
        raise ValueError(f"kind must be 'first' or 'second', got {kind!r}")
    return KIND_SIGN[kind]


def _reflect(kind: str, p: Poly) -> Poly:
    """p for the first kind, p(-x) for the second."""
    return p if kind == "first" else p.affine_compose(-1, 0)


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
    e = KIND_SIGN[kind]
    total = Poly()
    for m in range(n + 1):
        total = total + gsn1(n, m) * Fraction((-1) ** n * (-e) ** m, (m + 1) ** k)
    return _reflect(kind, total)


def _poly_integral(kind: str, n: int, k: int) -> Poly:
    return multiparam_cauchy(kind, MultiParam(n, k, 1, 1, (1,) * k, 0), "integral")


def _poly_series(kind: str, n: int, k: int) -> Poly:
    if k != 1:
        raise ValueError("the generating-function construction is defined for k = 1 only")
    gf = gf_cauchy1(n) if kind == "first" else gf_cauchy2(n)
    coeff = gf[n]
    poly = coeff if isinstance(coeff, Poly) else Poly.const(coeff)
    return poly * factorial(n)


def _poly_binomial_conv(kind: str, n: int, k: int) -> Poly:
    total = Poly()
    for m in range(n + 1):
        total = total + falling_factorial_poly(m) * (comb(n, m) * cauchy_number(kind, n - m, k))
    # the first kind sums (-1)^m x^(m) = (-x)_m, so it is the falling sum at -x
    return _reflect(_OTHER[kind], total)


def _poly_theorem1(kind: str, n: int, k: int) -> Poly:
    if k != 1:
        raise ValueError("the explicit Stirling expansion is defined for k = 1 only")
    if n == 0:
        return Poly([1])
    e = KIND_SIGN[kind]
    tail = Poly([0] + [
        Fraction((-1) ** n * n, m) * stirling1(n - 1, m - 1) for m in range(1, n + 1)
    ])
    # the second kind is the same tail at 1 - x
    return tail.affine_compose(e, (1 - e) // 2) + cauchy_number("first", n, 1)


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
    e = _check_kind(kind)
    _check_nk(n, k)
    total = Fraction(0)
    for m in range(n + 1):
        total += Fraction((-1) ** n * (-e) ** m * stirling1(n, m), (m + 1) ** k)
    return total


def cauchy_coefficient(kind: str, n: int, i: int, k: int = 1) -> Fraction:
    """Closed-form coefficient of x^i in the poly-Cauchy polynomial."""
    e = _check_kind(kind)
    _check_nk(n, k)
    if i < 0 or i > n:
        raise ValueError(f"coefficient index must satisfy 0 <= i <= n, got {i}")
    total = Fraction(0)
    for m in range(i, n + 1):
        total += Fraction((-e) ** m * comb(m, i), (m - i + 1) ** k) * stirling1(n, m)
    return Fraction((-1) ** (n + i)) * total


def cauchy_derivative(kind: str, n: int, k: int = 1, order: int = 1) -> Poly:
    """Higher-order derivative via the Stirling-polynomial expansion in the
    family's own numbers (agrees with the formal derivative)."""
    e = _check_kind(kind)
    _check_nk(n, k)
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    total = Poly()
    for m in range(order, n + 1):
        total = total + gsn1(m, order) * ((-1) ** m * comb(n, m) * cauchy_number(kind, n - m, k))
    return _reflect(kind, total) * (e ** order * factorial(order))


def cauchy_recurrence_step(kind: str, n: int, k: int = 1) -> Poly:
    """Build the index-(n+1) polynomial from the index-n one.

    Uses the recurrence whose sign survives the definitional oracle for
    every k (the identity suite probes the printed sign variants).
    """
    e = _check_kind(kind)
    _check_nk(n, k)
    total = Poly()
    for m in range(n + 1):
        total = total + binom_poly(-m - 1, -e, n - m) * (
            (-1) ** m * Fraction(factorial(n), factorial(m)) * cauchy_number(_OTHER[kind], m + 1, k)
        )
    return Poly([-n, -e]) * cauchy_poly(kind, n, k) - total   # (u - n) P_n - ..., u = -e x


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
    e = _check_kind(kind)
    n, k, a, q, L, y = p.n, p.k, p.a, p.q, p.L, p.y
    if construction == "stirling":
        total = Poly()
        for m in range(n + 1):
            w = gsn1_bivariate_at(n, m, e * y, q)
            if w:
                total = total + aux_poly_weighted(m + a - 1, k, L) * (e ** m * w)
        return total * (-1) ** (a - 1 + n)
    if construction != "integral":
        raise ValueError(f"unknown construction {construction!r}")
    # two-level ring: outer t, inner x; the linear product expansion
    # already carries the n! of the defining formula
    product = Poly([Poly([0, -e]), e]) ** (a - 1)                   # (e(t - x))^(a-1)
    for j in range(n):
        product = product * Poly([Poly([-e * y - j * q, -e]), e])   # e(t - x - y) - jq
    return _weighted_cube_map(product, k, L) * e ** (a - 1)


def shifted_cauchy_number(kind: str, n: int, k: int, a: int, q, L) -> Fraction:
    """Shifted poly-Cauchy number: the multiparameter value at x = 0, y = 0,
    via the ordinary first-kind Stirling expansion."""
    e = _check_kind(kind)
    _check_nk(n, k)
    if not (isinstance(a, int) and a >= 1):
        raise ValueError("shift a must be an integer >= 1")
    q = Fraction(q)
    w = prod(_check_weights(L, k))
    total = Fraction(0)
    for m in range(n + 1):
        total += (-q) ** (n - m) * e ** m * w ** (m + a) / Fraction((m + a) ** k) * stirling1(n, m)
    return total
