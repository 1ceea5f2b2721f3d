"""Truncated formal power series and the generating-function oracles.

A :class:`Series` of order N stores exactly N+1 coefficients (t^0 .. t^N);
trailing zeros are significant and binary operations demand equal orders.
Coefficients are ints or Fractions; any other coefficient or ``scale``
factor raises ``TypeError``, so neither a float nor a polynomial enters a
series.  Everything is formal, convergence is never consulted.

Storage.  A Series is a :class:`~polycauchy.poly.Poly` of degree at most
its order, and Poly's kernels do its arithmetic (``*`` is ``poly._product``).

Each bivariate generating function is a Sheffer pair A(t) exp(x g(t))
with scalar A and g, returned as the rows [t^n] (Polys in x) of ``_rows``.
exp(x g(t)) is the exponential generating function of a sequence of
binomial type, p_m(x) = m! [t^m] exp(x g(t)) (Roman, *The Umbral
Calculus*, 1984), so row n is
sum_m binom(n, m) a_(n-m) p_m(x) / n! for A's numbers a_i = i! A_i: one
``poly._sum_scaled`` over the basis p_0..p_n, each a row of integers,
O(n^2) integer products.
The pairs here are one exponential (row n times n! is the family value)
and one ordinary (row n is the value):

* ``gf_gen_bernoulli``: A = (t/(e^t - 1))^alpha, g = t;
* ``gf_hyperharmonic``: A = g = -log(1-t).

``gf_harmonic_poly`` divides the hyperharmonic function by t and puts
1 - x for x, so its rows are hyperharmonic rows 1..order+1 at 1 - x.
The Cauchy pair, A = t/log(1+t) and g = -log(1+t), is built in ``cauchy``
(``gf_cauchy1``, ``gf_cauchy2``) from these rows and basis: its numbers
are the Cauchy numbers that ``cauchy`` sums and memoises, and this module
holds no Cauchy arithmetic.

The module keeps nothing.  Each call builds A and the basis at the order it
asks for.  For g = -log(1-t) the basis is the rising factorials x^(m), the
rows of the memoised first-kind triangle in ``stirling`` (``_rising``), and
for g = -log(1+t) the same rows with the sign (-1)^m, ``_row``'s sign -1,
since m! [t^m] (-log(1+t))^j / j! = (-1)^m [m j]; for g = t it is the
monomials.  :func:`sheffer_rows`, for a pair the caller passes as
callables, is the definition itself: each A g^j / j! is one ``Series``
product and ``scale`` from the one before, and no library pair reads it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import comb, factorial, gcd
from typing import Callable, Iterable

from .poly import Poly, _power, _product, _split, _sum_scaled
from .rational import _exact, _reciprocal_powers
from .stirling import _TRIANGLES

__all__ = [
    "Series",
    "log1p_series",
    "log1p_over_t_series",
    "sheffer_rows",
    "gf_gen_bernoulli",
    "gf_hyperharmonic",
    "gf_harmonic_poly",
]


class Series:
    """Power series modulo t^(order+1) with rational coefficients.

    ``_poly`` holds the coefficients as a Poly of degree at most ``order``.
    """

    __slots__ = ("_poly", "_order")

    def __init__(self, coeffs: Iterable):
        cs = list(coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least the t^0 coefficient")
        self._poly, self._order = Poly(cs), len(cs) - 1

    @classmethod
    def one(cls, order: int) -> "Series":
        return _series(Poly([1]), order)

    @property
    def order(self) -> int:
        return self._order

    @property
    def coeffs(self) -> tuple:
        nums, den = _integers(self)
        if den == 1:
            return nums
        return tuple([Fraction(n, den) if n % den else n // den for n in nums])

    def __getitem__(self, n: int):
        # as a tuple of the order + 1 coefficients: n < 0 counts from the end
        c = self._poly[range(self._order + 1)[n]]
        return c.numerator if c.denominator == 1 else c

    def _check(self, other: "Series"):
        if self._order != other._order:
            raise ValueError("series orders differ: %d vs %d" % (self._order, other._order))

    def __eq__(self, other) -> bool:
        return isinstance(other, Series) and self._order == other._order and self._poly == other._poly

    def __hash__(self):
        return hash(_integers(self))

    def __neg__(self) -> "Series":
        return _series(-self._poly, self._order)

    def __add__(self, other: "Series") -> "Series":
        self._check(other)
        return _series(self._poly + other._poly, self._order)

    def __sub__(self, other: "Series") -> "Series":
        self._check(other)
        return _series(self._poly - other._poly, self._order)

    def __mul__(self, other: "Series") -> "Series":
        """The product of the two Polys modulo t^(order+1)."""
        self._check(other)
        return _series(_product(self._poly, other._poly, self._order + 1), self._order)

    def scale(self, factor) -> "Series":
        return _series(self._poly * _exact(factor), self._order)

    def pow_int(self, k: int) -> "Series":
        if k < 0:
            raise ValueError("negative series power")
        return _power(self, k, Series.one(self._order))

    def reciprocal(self) -> "Series":
        """With coefficients c_j = a_j/d: b_0 = d/a_0 and b_i = -(1/a_0) sum_{j=1..i}
        a_j b_(i-j).  The b_j so far are held as integer numerators over the lcm
        of their reduced denominators (``_append_over``), so each sum is taken
        in integers and b_i costs one gcd."""
        a, d = _integers(self)
        if not a[0]:
            raise ValueError("constant term is not invertible")
        sign, a0 = (-1, -a[0]) if a[0] < 0 else (1, a[0])
        common = gcd(d, a0)
        out, lcd = [sign * d // common], a0 // common
        for i in range(1, len(a)):
            s = -sign * sum([x * y for x, y in zip(a[1:i + 1], reversed(out))])
            lcd = _append_over(out, lcd, s, a0 * lcd)
        return _series(Poly(out) / lcd, self._order)

    def exp(self) -> "Series":
        """exp(g) for g(0) = 0 by n f_n = sum_{k=1..n} k g_k f_{n-k}, from f' = g' f
        (Brent & Kung, J. ACM 1978); zero g_k are skipped."""
        if self._poly.constant():
            raise ValueError("exp needs a zero constant term")
        dg = [(k, k * c) for k, c in enumerate(self.coeffs) if k and c]
        out = [1]
        for n in range(1, self._order + 1):
            out.append(sum([kc * out[n - k] for k, kc in dg if k <= n]) * Fraction(1, n))
        return Series(out)

    def __repr__(self) -> str:
        return f"Series({list(self.coeffs)!r})"


def _series(p: Poly, order: int) -> Series:
    """The Series of the given order whose coefficients are p's (degree <= order)."""
    s = Series.__new__(Series)
    s._poly, s._order = p, order
    return s


def _integers(s: Series) -> tuple[tuple, int]:
    """The order + 1 integer numerators of s, trailing zeros kept, over their
    positive denominator, in lowest terms."""
    nums, den = _split(s._poly)
    return nums + (0,) * (s._order + 1 - len(nums)), den


def _append_over(nums: list, lcd: int, s: int, den: int) -> int:
    """Append s/den to the numerators nums over their lcm denominator lcd, with one
    gcd, rescaling nums in place only when den grows lcd; return the new lcd."""
    common = gcd(s, den)
    s, den = s // common, den // common
    grow = den // gcd(lcd, den)
    if grow != 1:
        nums[:] = [c * grow for c in nums]
        lcd *= grow
    nums.append(s * (lcd // den))
    return lcd


def _reciprocal_series(order: int, shift: int) -> Series:
    """The Series of the given order whose coefficient of t^(j-1+shift) is
    (-1)^(j+1)/j, j >= 1: one ``_reciprocal_powers`` row over its denominator."""
    nums, den = _reciprocal_powers(1, order + 2 - shift, 1)
    nums[1::2] = [-w for w in nums[1::2]]
    return _series(Poly([0] * shift + nums) / den, order)


def log1p_series(order: int) -> Series:
    """log(1+t) = t - t^2/2 + t^3/3 - ..."""
    return _reciprocal_series(order, 1)


def log1p_over_t_series(order: int) -> Series:
    """log(1+t)/t = 1 - t/2 + t^2/3 - ..."""
    return _reciprocal_series(order, 0)


def _of_order(f: Callable[[int], Series], name: str, order: int) -> Series:
    """f(order), which must be a series of that order."""
    series = f(order)
    if series.order != order:
        raise ValueError(f"{name}({order}) has order {series.order}, expected {order}")
    return series


def _rising(order: int) -> list:
    """The rising factorials x^(m), m = 0..order, as ``_row`` reads a basis:
    the rows of the memoised first-kind triangle."""
    triangle = _TRIANGLES["stirling1"]
    return [triangle.row(m) for m in range(order + 1)]


def _row(tables: tuple, n: int) -> Poly:
    """Row n, sum_m binom(n, m) a_(n-m) p_m(x) / n!, of a pair's tables
    (a, basis, sign) at order n or above: A's numbers i! A_i are a_i / d,
    a = ((a_0, a_1, ..), d), and p_m = sign^m basis[m] is m! [t^m] exp(x g(t)),
    basis[m] its integer coefficients, so the row is one ``poly._sum_scaled``
    over the basis."""
    (nums, den), basis, sign = tables
    weights = [comb(n, m) * c for m, c in enumerate(nums[n::-1])]
    if sign < 0:
        weights[1::2] = [-w for w in weights[1::2]]
    scale = den * factorial(n)
    return _sum_scaled([(vec, w, scale) for w, vec in zip(weights, basis) if w])


def _rows(pair: Callable[[int], tuple], order: int) -> tuple[Poly, ...]:
    """Rows 0..order of the pair, which maps an order to its tables."""
    if order < 0:
        raise ValueError(f"series order must be >= 0, got {order}")
    tables = pair(order)
    return tuple([_row(tables, n) for n in range(order + 1)])


def _sheffer_row(pair: Callable[[int], tuple], n: int) -> Poly:
    """``_rows(pair, n)[n]`` without building rows 0..n-1."""
    return _row(pair(n), n)


def sheffer_rows(A: Callable[[int], Series], g: Callable[[int], Series],
                 order: int) -> tuple[Poly, ...]:
    """Rows 0..order of A(t) exp(x g(t)), row n the Poly sum_j ([t^n] A g^j / j!) x^j.

    ``A`` and ``g`` map an order to a series of that order, and a series of
    another order raises ``ValueError``; g(0) = 0.  Column j is the truncated
    product A g^j / j!, stepped from column j - 1 by one ``Series`` product
    and ``scale``, and row n is coefficient n of columns 0..n.
    """
    if order < 0:
        raise ValueError(f"series order must be >= 0, got {order}")
    column, g = _of_order(A, "A", order), _of_order(g, "g", order)
    if g[0]:
        raise ValueError("g needs a zero constant term")
    columns = [column.coeffs]
    for j in range(1, order + 1):
        column = (column * g).scale(Fraction(1, j))
        columns.append(column.coeffs)
    return tuple([Poly([c[n] for c in columns[:n + 1]]) for n in range(order + 1)])


# The library's pairs: each maps an order to its tables (a, basis, sign).
def _hyperharmonic(order: int) -> tuple:
    """The tables of A = g = -log(1-t), whose numbers i! A_i are (i-1)!."""
    return ([0] + [factorial(i) for i in range(order)], 1), _rising(order), 1


def _gen_bernoulli(alpha: int, order: int) -> tuple:
    """The tables of A = (t/(e^t - 1))^alpha and g = t, whose basis is the
    monomials x^m.  i! A_i is the Norlund number B_i^(alpha), from J. C. P.
    Miller's recurrence for a power of h = (e^t - 1)/t, i! h_i = 1/(i+1):
    n (n+1) B_n = sum_(k=1..n) binom(n+1, k+1) ((1-alpha) k - n) B_(n-k).
    The numbers so far are held as integer numerators over the lcm of their
    reduced denominators, as ``Series.reciprocal`` holds its coefficients."""
    nums, lcd = [1], 1
    for n in range(1, order + 1):
        s = sum([comb(n + 1, k + 1) * ((1 - alpha) * k - n) * nums[n - k] for k in range(1, n + 1)])
        lcd = _append_over(nums, lcd, s, n * (n + 1) * lcd)
    return (nums, lcd), [(0,) * m + (1,) for m in range(order + 1)], 1


def gf_gen_bernoulli(alpha: int, order: int) -> tuple[Poly, ...]:
    """(t/(e^t - 1))^alpha * e^(x t); row n times n! is the order-alpha Bernoulli polynomial."""
    if alpha < 0:
        raise ValueError("order of the generalized Bernoulli family must be >= 0")
    return _rows(partial(_gen_bernoulli, alpha), order)


def gf_hyperharmonic(order: int) -> tuple[Poly, ...]:
    """-log(1-t)/(1-t)^x; row n *is* the hyperharmonic polynomial in x."""
    return _rows(_hyperharmonic, order)


def gf_harmonic_poly(order: int) -> tuple[Poly, ...]:
    """-log(1-t)/(t (1-t)^(1-x)); row m *is* the degree-m harmonic polynomial."""
    if order < 0:
        raise ValueError(f"series order must be >= 0, got {order}")
    return tuple(row.affine_compose(-1, 1) for row in gf_hyperharmonic(order + 1)[1:])
