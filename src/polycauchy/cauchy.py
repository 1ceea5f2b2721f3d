"""Cauchy and poly-Cauchy numbers and polynomials of both kinds.

Every polynomial here is available through several independent
constructions which must agree (the test suite enforces this):

* ``gsn``          -- weighted sum of first-kind Stirling polynomials;
                      the canonical (default) construction, defined for
                      every (kind, n, k);
* ``integral``     -- expand the defining product under the k-fold unit
                      cube integral as one polynomial in v = x - t and map
                      each v^m to its moment polynomial in x (t^i
                      contributes a 1/(i+1)^k weight; never performed
                      numerically);
* ``series``       -- k = 1 only: exponential-generating-function
                      coefficient times n!;
* ``binomial_conv``-- convolution of the family's own numbers with
                      rising/falling factorials, read from the rows of
                      the first-kind Stirling triangle;
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

from .poly import Poly, _lincomb, _linear_product, binom_poly
from .rational import _exact
from .series import gf_cauchy1, gf_cauchy2
from .stirling import falling_factorial_poly, gsn1, gsn1_bivariate_at, stirling1

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


def _fraction(value) -> Fraction:
    """An int or Fraction as a Fraction; a Fraction is returned as it is."""
    return value if type(value) is Fraction else Fraction(_exact(value))


def _check_weights(L, k: int) -> tuple:
    """The weights L as a tuple of exactly k nonzero Fractions."""
    L = tuple(map(_fraction, L))
    if len(L) != k or not all(L):
        raise ValueError("L must contain exactly k nonzero weights")
    return L


@lru_cache(maxsize=None)
def aux_poly(j: int, k: int) -> Poly:
    """Moment polynomial of the k-fold unit-cube integral of (x - t)^j
    (up to sign bookkeeping): sum_i (-1)^i/(i+1)^k binom(j,i) x^(j-i),
    the constant 1 for j = 0."""
    _check_nk(j, k)
    return Poly([Fraction((-1) ** i * comb(j, i), (i + 1) ** k) for i in range(j, -1, -1)])


def _moment_sum(coeffs, k: int, L: tuple, shift: int = 0) -> Poly:
    """sum_m c_m M_(m+shift) for the moments M_j of (x - t)^j, t = t_1...t_k, over
    [0,l_1] x ... x [0,l_k].  With w the product of the weights,
    M_j(x) = w^(j+1) aux_poly(j, k)(x/w), so the sum is taken at x/w and
    stretched back once."""
    w = prod(L)
    return _lincomb((c * w ** (m + shift + 1), aux_poly(m + shift, k))
                    for m, c in enumerate(coeffs) if c).stretch(1 / w)


def aux_poly_weighted(j: int, k: int, L) -> Poly:
    """Weighted moment polynomial for integration over [0,l_1]x...x[0,l_k]."""
    return _moment_sum([1], k, _check_weights(L, k), j)


# ---------------------------------------------------------------------------
# constructions


@lru_cache(maxsize=None)
def _poly_gsn(kind: str, n: int, k: int) -> Poly:
    e = KIND_SIGN[kind]
    total = _lincomb((Fraction((-1) ** n * (-e) ** m, (m + 1) ** k), gsn1(n, m))
                     for m in range(n + 1))
    return _reflect(kind, total)


def _poly_integral(kind: str, n: int, k: int) -> Poly:
    return multiparam_cauchy(kind, MultiParam(n, k, 1, 1, (1,) * k, 0), "integral")


def _poly_series(kind: str, n: int, k: int) -> Poly:
    if k != 1:
        raise ValueError("the generating-function construction is defined for k = 1 only")
    return (gf_cauchy1 if kind == "first" else gf_cauchy2)(n)[n] * factorial(n)


def _poly_binomial_conv(kind: str, n: int, k: int) -> Poly:
    total = _lincomb((comb(n, m) * cauchy_number(kind, n - m, k), falling_factorial_poly(m))
                     for m in range(n + 1))
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
CONSTRUCTIONS = tuple(_CONSTRUCTION_FNS)


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
    """Constant term of the poly-Cauchy polynomial, memoised: coefficient 0
    of the closed form, Komatsu's sum over the unsigned Stirling triangle.
    It reads only the triangle, so no gsn1 polynomial is built or memoised.
    """
    return cauchy_coefficient(kind, n, 0, k)


def cauchy_coefficient(kind: str, n: int, i: int, k: int = 1) -> Fraction:
    """Closed-form coefficient of x^i in the poly-Cauchy polynomial:
    sum_m (-1)^(n+i) (-e)^m binom(m, i) stirling1(n, m) / (m-i+1)^k."""
    e = _check_kind(kind)
    _check_nk(n, k)
    if i < 0 or i > n:
        raise ValueError(f"coefficient index must satisfy 0 <= i <= n, got {i}")
    return sum((Fraction((-1) ** (n + i) * (-e) ** m * comb(m, i) * stirling1(n, m),
                         (m - i + 1) ** k) for m in range(i, n + 1)), Fraction(0))


def cauchy_derivative(kind: str, n: int, k: int = 1, order: int = 1) -> Poly:
    """Higher-order derivative via the Stirling-polynomial expansion in the
    family's own numbers (agrees with the formal derivative)."""
    e = _check_kind(kind)
    _check_nk(n, k)
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    total = _lincomb(((-1) ** m * comb(n, m) * cauchy_number(kind, n - m, k), gsn1(m, order))
                     for m in range(order, n + 1))
    return _reflect(kind, total) * (e ** order * factorial(order))


def cauchy_recurrence_step(kind: str, n: int, k: int = 1) -> Poly:
    """Build the index-(n+1) polynomial from the index-n one.

    Uses the recurrence whose sign survives the definitional oracle for
    every k (the identity suite probes the printed sign variants).
    """
    e = _check_kind(kind)
    _check_nk(n, k)
    total = _lincomb((
        (-1) ** m * Fraction(factorial(n), factorial(m)) * cauchy_number(_OTHER[kind], m + 1, k),
        binom_poly(-m - 1, -e, n - m),
    ) for m in range(n + 1))
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
        _check_nk(self.n, self.k)
        if not (isinstance(self.a, int) and self.a >= 1):
            raise ValueError("shift a must be an integer >= 1")
        object.__setattr__(self, "q", _fraction(self.q))
        object.__setattr__(self, "L", _check_weights(self.L, self.k))
        object.__setattr__(self, "y", _fraction(self.y))


def multiparam_cauchy(kind: str, p: MultiParam, construction: str = "stirling") -> Poly:
    """Multiparameter poly-Cauchy polynomial in x, degree n + a - 1.

    ``stirling`` evaluates the bivariate first-kind Stirling expansion.
    ``integral`` is an independent oracle.  The defining integrand is
    e^(a-1) (eu)^(a-1) prod_{j<n} (e(u - y) - jq) with u = t - x and
    t = t_1...t_k, so every factor depends on t and x only through v = x - t.
    The oracle expands the product of linear factors
    (-ev)^(a-1) prod_{j<n} (-e(v + y) - jq) in v (it carries the n! of the
    defining formula), multiplies its coefficients by the e^(a-1) in front,
    and maps each v^m through the cube integral to its moment polynomial.
    """
    e = _check_kind(kind)
    n, a, q, y = p.n, p.a, p.q, p.y
    if construction == "stirling":
        sign = (-1) ** (a - 1 + n)
        weights = [sign * e ** m * gsn1_bivariate_at(n, m, e * y, q) for m in range(n + 1)]
        return _moment_sum(weights, p.k, p.L, a - 1)
    if construction != "integral":
        raise ValueError(f"unknown construction {construction!r}")
    product = _linear_product([0] * (a - 1) + [-e * y - j * q for j in range(n)], -e)
    return _moment_sum((product * e ** (a - 1)).coeffs, p.k, p.L)


def shifted_cauchy_number(kind: str, n: int, k: int, a: int, q, L) -> Fraction:
    """Shifted poly-Cauchy number: the multiparameter value at x = 0, y = 0,
    via the ordinary first-kind Stirling expansion."""
    e = _check_kind(kind)
    p = MultiParam(n, k, a, q, L, 0)
    q, w = p.q, prod(p.L)
    return sum(((-q) ** (n - m) * e ** m * w ** (m + a) / Fraction((m + a) ** k) * stirling1(n, m)
                for m in range(n + 1)), Fraction(0))
