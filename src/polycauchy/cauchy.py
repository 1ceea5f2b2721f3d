"""Cauchy and poly-Cauchy numbers and polynomials of both kinds.

Every polynomial here is available through several independent
constructions which must agree (the test suite enforces this):

* ``gsn``          -- weighted sum of first-kind Stirling polynomials;
                      the canonical (default) construction, defined for
                      every (kind, n, k), summed once for both kinds as
                      its even-m and odd-m halves and memoised by (n, k);
* ``integral``     -- expand the defining product under the k-fold unit
                      cube integral as one polynomial in v = x - t and map
                      each v^m to its moment polynomial in x (t^i
                      contributes a 1/(i+1)^k weight; never performed
                      numerically); the second kind's product is the first
                      kind's at -v, so one product and one pass over its
                      moments give both kinds, memoised with the
                      multiparameter values at y = 0 (``_integral_pair``);
* ``series``       -- k = 1 only: exponential-generating-function
                      coefficient times n!, the (A, -log(1+t)) Sheffer row
                      sum_m binom(n, m) c_(n-m) (-1)^m x^(m) of
                      ``gf_cauchy1``; A's numbers c_i are the number memo
                      that ``binomial_conv`` reads (``_number_pair``), and
                      only the basis differs: the rising factorials as rows
                      of the memoised first-kind triangle; the second kind
                      is its row at -x (``_reflect``);
* ``binomial_conv``-- convolution of the family's own numbers with
                      rising/falling factorials, summed in the factorials'
                      Newton basis by one Horner pass (``poly._newton_sum``),
                      with no Stirling row read;
* ``theorem1``     -- k = 1 only: the explicit first-kind-Stirling
                      expansion seeded by the Cauchy numbers.

The multiparameter generalization (shift a >= 1, step q, weights
L = (l_1..l_k), offset y) follows the same pattern: a bivariate-Stirling
formula as the primary route and the iterated-integral expansion over
[0,l_1] x ... x [0,l_k] as the oracle.  The ordinary ``integral``
construction is its unit-parameter case (a = 1, q = 1, L = (1,..,1),
y = 0).  Every sum of cube moments in the library and the identity
catalogue, over the unit cube or the box, is ``_moment_sum``: the weight
product w = u/v is read as two integer products, and the sum is one integer
correlation over one denominator (``poly._cube_moments``), with no memo;
the one exception is the ``integral`` construction at y = 0, whose two kinds
are read from one pass of the same correlation (``poly._cube_moment_pair``)
and memoised.
``aux_poly`` is the moments' closed form, one polynomial per (j, k).

Every weight 1/(m+a)^k is read from ``rational._reciprocal_powers`` as
integer numerators over one denominator, so each weighted sum is taken in
integers and builds one Fraction.

Each result is written once for both kinds.  ``_check_kind`` returns the
kind's sign e = ``KIND_SIGN[kind]`` (1 for the first kind, -1 for the
second): a sign that only the first kind carries is (-e)^m, one that only
the second kind carries is e^m, and a point +-y is e*y.  ``_reflect(kind,
p)`` is p for the first kind and p(-x) for the second, and ``_OTHER[kind]``
names the other kind.  The identity catalogue reads the same table and
helper.  A kind-signed sum sum_m (-e)^m t_m is E - e O, with E its terms
over even m and O over odd m, so the ``gsn`` polynomials and Komatsu's sums
(``_coefficients``) compute E and O once and give both kinds: the two
memos, ``_gsn_pair`` and ``_number_pair``, hold both kinds' results under
one (n, k) key, and asking for either kind makes the other a memo hit.  The
``integral`` construction splits its own sum the same way: at y = 0 its
integrand F(v) is the first kind's and (-1)^(a-1) F(-v) the second's, so with
E and O the moments of F's even and odd powers of v, the first kind is E + O
and the second (-1)^(a-1) (E - O).  The third pair memo, ``_integral_pair``,
holds both under one (n, k, a, q, w) key, w the product of the weights (the
moments read the weights only through w and k); the ordinary ``integral``
construction is its key at a = q = w = 1.

The Cauchy numbers are summed in one place, ``_coefficients`` at i = 0
through ``_number_pair``: the constructions, the recurrence step, the
identity catalogue and the generating functions ``gf_cauchy1`` and
``gf_cauchy2`` (Sheffer rows of ``series``) all read that memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial, gcd, lcm
from operator import mul

from .poly import (
    Poly, _cube_moment_pair, _cube_moments, _lincomb, _linear_product, _newton_sum, _weighted_sum,
)
from .rational import _exact, _reciprocal_powers
from .series import _rising, _rows, _sheffer_row
from .stirling import _TRIANGLES, _bivariate_row, gsn1

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
    "gf_cauchy1",
    "gf_cauchy2",
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


def aux_poly(j: int, k: int) -> Poly:
    """Moment polynomial of the k-fold unit-cube integral of (x - t)^j
    (up to sign bookkeeping): sum_i (-1)^i/(i+1)^k binom(j,i) x^(j-i),
    the constant 1 for j = 0."""
    _check_nk(j, k)
    weights, den = _reciprocal_powers(1, j + 2, k)
    return Poly([(-1) ** i * comb(j, i) * weights[i] for i in range(j, -1, -1)]) / den


def _weight_ratio(L: tuple) -> tuple[int, int]:
    """The product w of the Fraction weights L as (u, v), w = u/v in lowest
    terms with v > 0, from two integer products."""
    u = v = 1
    for l in L:
        u *= l.numerator
        v *= l.denominator
    g = gcd(u, v)
    return u // g, v // g


def _moment_sum(weights: Poly, k: int, L: tuple, shift: int = 0) -> Poly:
    """sum_m c_m M_(m+shift) for the coefficients c_m of weights and the moments
    M_j of (x - t)^j, t = t_1...t_k, over [0,l_1] x ... x [0,l_k].  With w the
    product of the weights L, M_j(x) = w^(j+1) aux_poly(j, k)(x/w).  w = u/v is
    read as two integer products, and the whole sum is one integer
    correlation over one denominator (``poly._cube_moments``)."""
    return _cube_moments(weights, k, *_weight_ratio(L), shift)


def aux_poly_weighted(j: int, k: int, L) -> Poly:
    """Weighted moment polynomial for integration over [0,l_1]x...x[0,l_k]."""
    _check_nk(j, k)
    return _moment_sum(Poly([1]), k, _check_weights(L, k), j)


# ---------------------------------------------------------------------------
# constructions


def _poly_gsn(kind: str, n: int, k: int) -> Poly:
    return _gsn_pair(n, k)[(1 - KIND_SIGN[kind]) // 2]


# memoised by (n, k) for both kinds, as are the numbers (``_number_pair``),
# with a bound above the keys of the deep grid (ci/deep-grid.cfg), which CI checks
@lru_cache(maxsize=1024)
def _gsn_pair(n: int, k: int) -> tuple[Poly, Poly]:
    """Both kinds' ``gsn`` polynomials, first then second.  With E and O the
    sums of (-1)^n gsn1(n, m) / (m+1)^k over even and odd m, the first kind's
    weights (-1)^n (-1)^m / (m+1)^k sum to E - O, and the second kind is
    E + O at -x."""
    weights, den = _reciprocal_powers(1, n + 2, k)
    polys = [gsn1(n, m) for m in range(n + 1)]
    scale = (-1) ** n * den
    even = _weighted_sum(Poly(weights[::2]) / scale, polys[::2])
    odd = _weighted_sum(Poly(weights[1::2]) / scale, polys[1::2])
    return even - odd, (even + odd).affine_compose(-1, 0)


def _poly_integral(kind: str, n: int, k: int) -> Poly:
    return multiparam_cauchy(kind, MultiParam(n, k, 1, 1, (1,) * k, 0), "integral")


def _poly_series(kind: str, n: int, k: int) -> Poly:
    if k != 1:
        raise ValueError("the generating-function construction is defined for k = 1 only")
    return _reflect(kind, _sheffer_row(partial(_cauchy, KIND_SIGN[kind]), n) * factorial(n))


def _cauchy(e: int, order: int) -> tuple:
    """The Sheffer tables (a, basis, sign) of the Cauchy kind of sign e (1
    first, -1 second), as ``series._row`` reads them: A is t/log(1+t) or
    t/((1+t) log(1+t)) and g = -log(1+t); the second kind's g is log(1+t), so
    its rows are these at -x.  i! A_i is the kind's Cauchy number c_i, read
    from the memo (``_number_pair``) over the lcm of their denominators."""
    numbers = [_number_pair(i, 1)[(1 - e) // 2] for i in range(order + 1)]
    den = lcm(*[c.denominator for c in numbers])
    return ([c.numerator * (den // c.denominator) for c in numbers], den), _rising(order), -1


def gf_cauchy1(order: int) -> tuple[Poly, ...]:
    """t / ((1+t)^x log(1+t)); row n times n! is c_n(x)."""
    return _rows(partial(_cauchy, 1), order)


def gf_cauchy2(order: int) -> tuple[Poly, ...]:
    """t (1+t)^x / ((1+t) log(1+t)); row n times n! is the second-kind polynomial."""
    return tuple(row.affine_compose(-1, 0) for row in _rows(partial(_cauchy, -1), order))


def _poly_binomial_conv(kind: str, n: int, k: int) -> Poly:
    # sum_m binom(n, m) c_(n-m) (-ex)_m: the first kind sums (-1)^m x^(m) = (-x)_m
    weights = [comb(n, m) * cauchy_number(kind, n - m, k) for m in range(n + 1)]
    return _newton_sum(weights, range(0, -n, -1), -KIND_SIGN[kind], [1] * n)


def _poly_theorem1(kind: str, n: int, k: int) -> Poly:
    if k != 1:
        raise ValueError("the explicit Stirling expansion is defined for k = 1 only")
    if n == 0:
        return Poly([1])
    e = KIND_SIGN[kind]
    # (-1)^n n/m [n-1 m-1] x^m for m = 1..n
    weights, den = _reciprocal_powers(1, n + 1, 1)
    sign = (-1) ** n * n
    tail = Poly([0] + [sign * w * c for w, c in zip(weights, _TRIANGLES["stirling1"].row(n - 1))]) / den
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


def cauchy_number(kind: str, n: int, k: int = 1) -> Fraction:
    """Constant term of the poly-Cauchy polynomial, memoised by (n, k) for
    both kinds: coefficient 0 of the closed form, Komatsu's sum over the
    unsigned Stirling triangle.  It reads only the triangle, so no gsn1
    polynomial is built or memoised.
    """
    e = _check_kind(kind)
    _check_nk(n, k)
    return _number_pair(n, k)[(1 - e) // 2]


@lru_cache(maxsize=1024)
def _number_pair(n: int, k: int) -> tuple[Fraction, Fraction]:
    return _coefficients(n, 0, k)


def cauchy_coefficient(kind: str, n: int, i: int, k: int = 1) -> Fraction:
    """Closed-form coefficient of x^i in the poly-Cauchy polynomial:
    sum_m (-1)^(n+i) (-e)^m binom(m, i) stirling1(n, m) / (m-i+1)^k,
    Komatsu's sum in integers over row n of the memoised first-kind triangle,
    read from its even and odd halves (``_coefficients``)."""
    e = _check_kind(kind)
    _check_nk(n, k)
    if i < 0 or i > n:
        raise ValueError(f"coefficient index must satisfy 0 <= i <= n, got {i}")
    return _coefficients(n, i, k)[(1 - e) // 2]


def _coefficients(n: int, i: int, k: int) -> tuple[Fraction, Fraction]:
    """The closed-form coefficient of x^i of both kinds, first then second.
    (-1)^(n+i) (-e)^m is (-1)^n e^i (-e)^(m-i), so with E and O the halves of
    Komatsu's sum over even and odd m - i, the first kind's coefficient is
    (-1)^n (E - O) and the second's (-1)^(n+i) (E + O), with the weights
    1/(m-i+1)^k as integer numerators over one denominator."""
    row = _TRIANGLES["stirling1"].row(n)[i:]
    if i:
        row = [comb(m, i) * c for m, c in enumerate(row, i)]
    weights, den = _reciprocal_powers(1, len(row) + 1, k)
    even, odd = sum(map(mul, weights[::2], row[::2])), sum(map(mul, weights[1::2], row[1::2]))
    sign = (-1) ** n
    return Fraction(sign * (even - odd), den), Fraction(sign * (-1) ** i * (even + odd), den)


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
    return Poly([-n, -e]) * cauchy_poly(kind, n, k) - _other_kind_sum(kind, n, k, -1, 1)   # (u - n) P_n - ..., u = -e x


def _other_kind_sum(kind: str, n: int, k: int, shift: int = 0, lift: int = 0) -> Poly:
    """sum_m (-1)^m n!/m! c_(m+lift) binom(-ex + shift - m, n - m) over the other
    kind's numbers c, read by the recurrence step at shift -1 and lift 1: term
    i = n - m is the product of the factors (-ex + shift - n + 1 + j)/(j + 1),
    j < i, so the sum is one Newton sum."""
    other = _OTHER[kind]
    weights = [(-1) ** (n - i) * (factorial(n) // factorial(n - i)) * cauchy_number(other, n - i + lift, k)
               for i in range(n + 1)]
    return _newton_sum(weights, range(shift - n + 1, shift + 1), -KIND_SIGN[kind], range(1, n + 1))


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
    At y = 0 the second kind's integrand is the first kind's at -v times
    (-1)^(a-1), so both kinds come from one product and one pass over its
    moments, memoised by (n, k, a, q, w) with w the product of the weights
    (``_integral_pair``); at y != 0 each kind expands its own product.
    """
    e = _check_kind(kind)
    n, a, q, y = p.n, p.a, p.q, p.y
    if construction == "stirling":
        # the values q^(n-m) [n m]_(ey/q) times (-1)^(a-1+n) e^m, as one Poly in m
        sign = (-1) ** (a - 1 + n)
        weights = _bivariate_row("first", n, e * y, q, [sign * e**m for m in range(n + 1)])
        return _moment_sum(weights, p.k, p.L, a - 1)
    if construction != "integral":
        raise ValueError(f"unknown construction {construction!r}")
    if y:
        return _moment_sum(_integrand(e, n, a, y.as_integer_ratio(), q.as_integer_ratio()), p.k, p.L)
    return _integral_pair(n, p.k, a, *q.as_integer_ratio(), *_weight_ratio(p.L))[(1 - e) // 2]


def _integrand(e: int, n: int, a: int, y: tuple, q: tuple) -> Poly:
    """The kind's integrand e^(a-1) (-ev)^(a-1) prod_{j<n} (-e(v + y) - jq) as a
    polynomial in v, for y = c/b and q = g/d given as integer ratios: over
    s = bd each factor is (s_j - esv)/s with an integer s_j, so the product is
    stepped in integers over s^(n+a-1)."""
    (c, b), (g, d) = y, q
    s = b * d
    shifts = [0] * (a - 1) + [-e * c * d - j * g * b for j in range(n)]
    product = _linear_product(shifts, -e * s, s ** (n + a - 1))
    return product if e ** (a - 1) == 1 else -product


# memoised by (n, k, a, q, w) for both kinds, q and w as integer numerators and
# denominators, with a bound above the keys of the deep grid (ci/deep-grid.cfg),
# which CI checks
@lru_cache(maxsize=1024)
def _integral_pair(n: int, k: int, a: int, qn: int, qd: int, wn: int, wd: int) -> tuple[Poly, Poly]:
    """Both kinds' ``integral`` polynomials at y = 0, first then second, for
    q = qn/qd and the weight product w = wn/wd.  The first kind's integrand is
    F(v) = (-v)^(a-1) prod_{j<n} (-v - jq) and the second's (-1)^(a-1) F(-v), so
    with E and O the even and odd powers of v in F, the first kind is
    M(E) + M(O) and the second (-1)^(a-1) (M(E) - M(O)), M the moment map: one
    pass over F's moments gives both (``poly._cube_moment_pair``)."""
    first, reflected = _cube_moment_pair(_integrand(1, n, a, (0, 1), (qn, qd)), k, wn, wd)
    return first, reflected if a % 2 else -reflected


def shifted_cauchy_number(kind: str, n: int, k: int, a: int, q, L) -> Fraction:
    """Shifted poly-Cauchy number: the multiparameter value at x = 0, y = 0,
    via the ordinary first-kind Stirling expansion
    sum_m (-q)^(n-m) e^m w^(m+a) [n m] / (m+a)^k, w the product of the weights.

    With q = c/d and w = u/v, (-q)^(n-m) e^m w^(m+a) is
    (-cv)^(n-m) (edu)^m u^a / (d^n v^(n+a)), so the sum is taken in integers
    from row n of the memoised triangle; the one Fraction built is the total."""
    e = _check_kind(kind)
    p = MultiParam(n, k, a, q, L, 0)
    (c, d), (u, v) = p.q.as_integer_ratio(), _weight_ratio(p.L)
    weights, den = _reciprocal_powers(a, n + a + 1, k)
    row = _TRIANGLES["stirling1"].row(n)
    total = sum([(-c * v) ** (n - m) * (e * d * u) ** m * row[m] * weights[m] for m in range(n + 1)])
    return Fraction(total * u**a, d**n * v ** (n + a) * den)
