"""Truncated formal power series and the generating-function oracles.

A :class:`Series` of order N stores exactly N+1 coefficients (t^0 .. t^N);
trailing zeros are significant and binary operations demand equal orders.
Coefficients are ints or Fractions; any other coefficient or ``scale``
factor raises ``TypeError``, so neither a float nor a polynomial enters a
series.  Everything is formal, convergence is never consulted.

Storage.  A Series is stored as a :class:`~polycauchy.poly.Poly` is: one
tuple of integer numerators over one denominator, in canonical form
(denominator > 0, gcd of the numerators and the denominator 1, trailing
zeros kept), so equal series store equal pairs.  ``Series(list)`` splits
its coefficients once.  ``*`` is one truncated integer convolution and one
gcd; ``reciprocal`` sums in integers over the running lcm of its prefix's
denominators, with one gcd per coefficient; ``pow_int`` squares and
multiplies by ``*``; ``+``, ``-``, negation and ``scale`` work on the
integers too.  :func:`sheffer_rows` reads the integer form of A and g
directly and builds each row from integers.  ``coeffs``, ``[i]`` and
``repr`` build the Fractions when read; they are not kept.  An integral
coefficient reads back as an int.

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
from typing import Callable, Iterable

from .poly import Poly, _over_one_denominator, _power
from .rational import _exact

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


def _reduced(nums, lcd: int) -> "Series":
    """The Series sum(nums[i] t^i) / lcd (lcd > 0), in lowest terms."""
    if lcd != 1:
        common = gcd(lcd, *nums)
        if common != 1:
            nums = [n // common for n in nums]
            lcd //= common
    s = Series.__new__(Series)
    s._nums, s._lcd = tuple(nums), lcd
    return s


class Series:
    """Power series modulo t^(order+1) with rational coefficients.

    ``_nums`` holds the order + 1 integer numerators over the denominator ``_lcd``.
    """

    __slots__ = ("_nums", "_lcd")

    def __init__(self, coeffs: Iterable):
        nums, lcd = _over_one_denominator(list(map(_exact, coeffs)))
        if not nums:
            raise ValueError("a truncated series needs at least the t^0 coefficient")
        self._nums, self._lcd = tuple(nums), lcd

    @classmethod
    def one(cls, order: int) -> "Series":
        return _reduced([1] + [0] * order, 1)

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    @property
    def coeffs(self) -> tuple:
        if self._lcd == 1:
            return self._nums
        return tuple([self[i] for i in range(len(self._nums))])

    def __getitem__(self, n: int):
        whole, rest = divmod(self._nums[n], self._lcd)
        return Fraction(self._nums[n], self._lcd) if rest else whole

    def _check(self, other: "Series"):
        if self.order != other.order:
            raise ValueError("series orders differ: %d vs %d" % (self.order, other.order))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Series) and self._lcd == other._lcd
                and self._nums == other._nums)

    def __hash__(self):
        return hash((self._nums, self._lcd))

    def __neg__(self) -> "Series":
        return _reduced([-n for n in self._nums], self._lcd)

    def _plus(self, other: "Series", sign: int) -> "Series":
        """self + sign * other, over the lcm of the two denominators."""
        self._check(other)
        lcd = lcm(self._lcd, other._lcd)
        fa, fb = lcd // self._lcd, sign * (lcd // other._lcd)
        return _reduced([a * fa + b * fb for a, b in zip(self._nums, other._nums)], lcd)

    def __add__(self, other: "Series") -> "Series":
        return self._plus(other, 1)

    def __sub__(self, other: "Series") -> "Series":
        return self._plus(other, -1)

    def __mul__(self, other: "Series") -> "Series":
        """One truncated convolution of the numerators, over the product of the denominators."""
        self._check(other)
        b = other._nums
        out = [0] * len(b)
        for i, a in enumerate(self._nums):
            if a:
                out[i:] = [o + a * c for o, c in zip(out[i:], b)]
        return _reduced(out, self._lcd * other._lcd)

    def scale(self, factor) -> "Series":
        factor = _exact(factor)
        p = factor.numerator
        return _reduced([n * p for n in self._nums], self._lcd * factor.denominator)

    def pow_int(self, k: int) -> "Series":
        if k < 0:
            raise ValueError("negative series power")
        return _power(self, k, Series.one(self.order))

    def reciprocal(self) -> "Series":
        """With coefficients c_j = a_j/d: b_0 = d/a_0 and b_i = -(1/a_0) sum_{j=1..i}
        a_j b_(i-j).  The b_j so far are held as integer numerators over the lcm
        of their reduced denominators, so each sum is taken in integers, b_i
        costs one gcd, and the prefix is rescaled only when b_i's denominator
        grows that lcm."""
        a = self._nums
        if not a[0]:
            raise ValueError("constant term is not invertible")
        sign, a0 = (-1, -a[0]) if a[0] < 0 else (1, a[0])
        common = gcd(self._lcd, a0)
        out, lcd = [sign * self._lcd // common], a0 // common
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
        return _reduced(out, lcd)

    def exp(self) -> "Series":
        """exp(g) for g(0) = 0 by n f_n = sum_{k=1..n} k g_k f_{n-k}, from f' = g' f
        (Brent & Kung, J. ACM 1978); zero g_k are skipped."""
        if self._nums[0]:
            raise ValueError("exp needs a zero constant term")
        dg = [(k, k * c) for k, c in enumerate(self.coeffs) if k and c]
        out = [1]
        for n in range(1, len(self._nums)):
            out.append(sum([kc * out[n - k] for k, kc in dg if k <= n]) * Fraction(1, n))
        return Series(out)

    def __repr__(self) -> str:
        return f"Series({list(self.coeffs)!r})"


def log1p_series(order: int) -> Series:
    """log(1+t) = t - t^2/2 + t^3/3 - ..."""
    return Series([Fraction(0)] + [Fraction((-1) ** (n + 1), n) for n in range(1, order + 1)])


def log1p_over_t_series(order: int) -> Series:
    """log(1+t)/t = 1 - t/2 + t^2/3 - ..."""
    return Series([Fraction((-1) ** n, n + 1) for n in range(order + 1)])


def _neg_log1m_series(order: int) -> Series:
    """-log(1-t) = t + t^2/2 + t^3/3 + ..."""
    return Series([Fraction(0)] + [Fraction(1, n) for n in range(1, order + 1)])


def sheffer_rows(A: Callable[[int], Series], g: Callable[[int], Series],
                 order: int) -> tuple[Poly, ...]:
    """Rows 0..order of A(t) exp(x g(t)), row n the Poly sum_j ([t^n] A g^j / j!) x^j.

    ``A`` and ``g`` map an order to a series of that order; g(0) = 0.  The
    power A g^j / j! starts at t^j, so it is held from t^j to t^order as
    integer numerators over one denominator, and the next power reads only
    the nonzero coefficients of g (g = t costs O(order^2)).  Row n is built
    in integers over the lcm of the denominators of powers 0..n.
    """
    if order < 0:
        raise ValueError(f"series order must be >= 0, got {order}")
    a, g_series = A(order), g(order)
    nums, den = a._nums, a._lcd
    g_nums, g_den = g_series._nums, g_series._lcd
    if g_nums[0]:
        raise ValueError("g needs a zero constant term")
    g_terms = [(k, c) for k, c in enumerate(g_nums) if c]
    powers = []  # (numerators of [t^(j+i)] A g^j / j! at i, their denominator)
    for j in range(order + 1):
        powers.append((nums, den))
        nxt = [0] * (order - j)
        for k, gk in g_terms:
            nxt[k - 1:] = [o + gk * c for o, c in zip(nxt[k - 1:], nums)]
        den *= g_den * (j + 1)
        common = gcd(den, *nxt)
        nums, den = [c // common for c in nxt], den // common
    rows = []
    row_lcd = 1
    for n in range(order + 1):
        row_lcd = lcm(row_lcd, powers[n][1])
        rows.append(Poly([p[n - j] * (row_lcd // d) for j, (p, d) in enumerate(powers[:n + 1])])
                    / row_lcd)
    return tuple(rows)


def gf_cauchy1(order: int) -> tuple[Poly, ...]:
    """t / ((1+t)^x log(1+t)); row n times n! is c_n(x)."""
    return sheffer_rows(lambda n: log1p_over_t_series(n).reciprocal(),
                        lambda n: -log1p_series(n), order)


def gf_cauchy2(order: int) -> tuple[Poly, ...]:
    """t (1+t)^x / ((1+t) log(1+t)); row n times n! is the second-kind polynomial."""
    return sheffer_rows(
        lambda n: log1p_over_t_series(n).reciprocal() * Series([(-1) ** i for i in range(n + 1)]),
        log1p_series, order)


def gf_gen_bernoulli(alpha: int, order: int) -> tuple[Poly, ...]:
    """(t/(e^t - 1))^alpha * e^(x t); row n times n! is the order-alpha Bernoulli polynomial."""
    if alpha < 0:
        raise ValueError("order of the generalized Bernoulli family must be >= 0")
    return sheffer_rows(
        lambda n: Series([Fraction(1, factorial(i + 1)) for i in range(n + 1)])
        .reciprocal().pow_int(alpha),
        lambda n: Series([int(i == 1) for i in range(n + 1)]), order)


def gf_hyperharmonic(order: int) -> tuple[Poly, ...]:
    """-log(1-t)/(1-t)^x; row n *is* the hyperharmonic polynomial in x."""
    return sheffer_rows(_neg_log1m_series, _neg_log1m_series, order)


def gf_harmonic_poly(order: int) -> tuple[Poly, ...]:
    """-log(1-t)/(t (1-t)^(1-x)); row m *is* the degree-m harmonic polynomial."""
    return tuple(row.affine_compose(-1, 1) for row in gf_hyperharmonic(order + 1)[1:])
