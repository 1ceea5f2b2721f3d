"""Truncated formal power series and the generating-function oracles.

A :class:`Series` of order N stores exactly N+1 coefficients (t^0 .. t^N);
trailing zeros are significant and binary operations demand equal orders.
Coefficients are ints or Fractions; any other coefficient or ``scale``
factor raises ``TypeError``, so neither a float nor a polynomial enters a
series.  Everything is formal, convergence is never consulted.

Storage.  A Series is a :class:`~polycauchy.poly.Poly` of degree at most
its order, and Poly's kernels do its arithmetic (``*`` is ``poly._product``).

Each bivariate generating function is a Sheffer pair A(t) exp(x g(t))
with scalar A and g (Roman, *The Umbral Calculus*, 1984), returned as the
rows [t^n] (Polys in x) that :func:`sheffer_rows` computes.  The first
three are exponential (row n times n! is the family value), the last
ordinary (row n is the value):

* ``gf_cauchy1``: A = t/log(1+t), g = -log(1+t);
* ``gf_cauchy2``: A = t/((1+t) log(1+t)), g = log(1+t);
* ``gf_gen_bernoulli``: A = (t/(e^t - 1))^alpha, g = t;
* ``gf_hyperharmonic``: A = g = -log(1-t).

``gf_harmonic_poly`` divides the hyperharmonic function by t and puts
1 - x for x, so its rows are hyperharmonic rows 1..order+1 at 1 - x.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul
from typing import Callable, Iterable

from .poly import Poly, _power, _product, _split
from .rational import _exact, _reciprocal_powers

__all__ = [
    "Series",
    "log1p_series",
    "log1p_over_t_series",
    "sheffer_rows",
    "gf_cauchy1",
    "gf_cauchy2",
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
        of their reduced denominators, so each sum is taken in integers, b_i
        costs one gcd, and the prefix is rescaled only when b_i's denominator
        grows that lcm."""
        a, d = _integers(self)
        if not a[0]:
            raise ValueError("constant term is not invertible")
        sign, a0 = (-1, -a[0]) if a[0] < 0 else (1, a[0])
        common = gcd(d, a0)
        out, lcd = [sign * d // common], a0 // common
        for i in range(1, len(a)):
            s = -sign * sum([x * y for x, y in zip(a[1:i + 1], reversed(out))])
            den = a0 * lcd
            common = gcd(s, den)
            s, den = s // common, den // common
            grow = den // gcd(lcd, den)
            if grow != 1:
                out = [c * grow for c in out]
                lcd *= grow
            out.append(s * (lcd // den))
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


def _reciprocal_series(order: int, shift: int, sign: int) -> Series:
    """The Series of the given order whose coefficient of t^(j-1+shift) is
    sign^(j+1)/j, j >= 1: one ``_reciprocal_powers`` row over its denominator."""
    nums, den = _reciprocal_powers(1, order + 2 - shift, 1)
    if sign < 0:
        nums[1::2] = [-w for w in nums[1::2]]
    return _series(Poly([0] * shift + nums) / den, order)


def log1p_series(order: int) -> Series:
    """log(1+t) = t - t^2/2 + t^3/3 - ..."""
    return _reciprocal_series(order, 1, -1)


def log1p_over_t_series(order: int) -> Series:
    """log(1+t)/t = 1 - t/2 + t^2/3 - ..."""
    return _reciprocal_series(order, 0, -1)


def _neg_log1m_series(order: int) -> Series:
    """-log(1-t) = t + t^2/2 + t^3/3 + ..."""
    return _reciprocal_series(order, 1, 1)


def _sheffer_powers(A: Callable[[int], Series], g: Callable[[int], Series],
                    order: int) -> list:
    """The powers A g^j / j!, j = 0..order, of the pair (A, g) of ``sheffer_rows``:
    power j held from t^j to t^order as (integer numerators, denominator) in
    lowest terms.

    With h = g/t, power j+1 is power j times h, shifted by t and divided by
    j+1, so its coefficient i is the dot product of h_0..h_i with the
    coefficients i..0 of power j.  h is reversed once, its trailing zeros
    trimmed to its last nonzero h_(w-1), so each coefficient is one
    ``sum(map(mul, ...))`` over a window of at most w terms, and a step
    costs O(order * w) integer products and one gcd.  For w = 1 (g = g_1 t,
    as for the Bernoulli family) the next power is a scaled copy, which is
    faster than w one-term windows.
    """
    if order < 0:
        raise ValueError(f"series order must be >= 0, got {order}")
    a, g_series = A(order), g(order)
    for name, series in (("A", a), ("g", g_series)):
        if series.order != order:
            raise ValueError(f"{name}({order}) has order {series.order}, expected {order}")
    h, g_den = _integers(g_series)
    if h[0]:
        raise ValueError("g needs a zero constant term")
    h = h[1:]
    width = max([m + 1 for m, c in enumerate(h) if c], default=1)
    h_rev = h[width - 1::-1]
    nums, den = _integers(a)
    powers = [(nums, den)]
    for j in range(order):
        size = order - j  # the next power's coefficients t^(j+1) .. t^order
        if width == 1:
            nxt = [h_rev[0] * c for c in nums[:size]]
        else:
            nxt = [sum(map(mul, h_rev[width - 1 - i:], nums)) for i in range(min(width - 1, size))]
            nxt += [sum(map(mul, h_rev, nums[i + 1 - width:i + 1])) for i in range(width - 1, size)]
        den *= g_den * (j + 1)
        common = gcd(den, *nxt)
        nums, den = [c // common for c in nxt], den // common
        powers.append((nums, den))
    return powers


def _row(powers: list, n: int, lcd: int) -> Poly:
    """Row n, sum_j ([t^n] power j) x^j, from powers 0..n over lcd, a common
    multiple of their denominators."""
    return Poly([p[n - j] * (lcd // d) for j, (p, d) in enumerate(powers[:n + 1])]) / lcd


def sheffer_rows(A: Callable[[int], Series], g: Callable[[int], Series],
                 order: int) -> tuple[Poly, ...]:
    """Rows 0..order of A(t) exp(x g(t)), row n the Poly sum_j ([t^n] A g^j / j!) x^j.

    ``A`` and ``g`` map an order to a series of that order, and a series of
    another order raises ``ValueError``; g(0) = 0.  The
    powers A g^j / j! are stepped in integers by ``_sheffer_powers``, one dot
    product per coefficient over the nonzero width of g/t, and row n is built
    over the lcm of the denominators of powers 0..n.
    """
    powers = _sheffer_powers(A, g, order)
    rows, lcd = [], 1
    for n, (_, d) in enumerate(powers):
        lcd = lcm(lcd, d)
        rows.append(_row(powers, n, lcd))
    return tuple(rows)


def _sheffer_row(A: Callable[[int], Series], g: Callable[[int], Series], n: int) -> Poly:
    """``sheffer_rows(A, g, n)[n]`` without building rows 0..n-1."""
    powers = _sheffer_powers(A, g, n)
    return _row(powers, n, lcm(*[d for _, d in powers]))


# (A, g) of the generating functions, each mapping an order to a Series
_CAUCHY1 = (lambda n: log1p_over_t_series(n).reciprocal(), lambda n: -log1p_series(n))
_CAUCHY2 = (lambda n: _CAUCHY1[0](n) * Series([(-1) ** i for i in range(n + 1)]), log1p_series)


def _gen_bernoulli(alpha: int) -> tuple:
    """(A, g) of the order-alpha Bernoulli generating function."""
    return (lambda n: Series([Fraction(1, factorial(i + 1)) for i in range(n + 1)])
            .reciprocal().pow_int(alpha),
            lambda n: Series([int(i == 1) for i in range(n + 1)]))


def gf_cauchy1(order: int) -> tuple[Poly, ...]:
    """t / ((1+t)^x log(1+t)); row n times n! is c_n(x)."""
    return sheffer_rows(*_CAUCHY1, order)


def gf_cauchy2(order: int) -> tuple[Poly, ...]:
    """t (1+t)^x / ((1+t) log(1+t)); row n times n! is the second-kind polynomial."""
    return sheffer_rows(*_CAUCHY2, order)


def gf_gen_bernoulli(alpha: int, order: int) -> tuple[Poly, ...]:
    """(t/(e^t - 1))^alpha * e^(x t); row n times n! is the order-alpha Bernoulli polynomial."""
    if alpha < 0:
        raise ValueError("order of the generalized Bernoulli family must be >= 0")
    return sheffer_rows(*_gen_bernoulli(alpha), order)


def gf_hyperharmonic(order: int) -> tuple[Poly, ...]:
    """-log(1-t)/(1-t)^x; row n *is* the hyperharmonic polynomial in x."""
    return sheffer_rows(_neg_log1m_series, _neg_log1m_series, order)


def gf_harmonic_poly(order: int) -> tuple[Poly, ...]:
    """-log(1-t)/(t (1-t)^(1-x)); row m *is* the degree-m harmonic polynomial."""
    if order < 0:
        raise ValueError(f"series order must be >= 0, got {order}")
    return tuple(row.affine_compose(-1, 1) for row in gf_hyperharmonic(order + 1)[1:])
