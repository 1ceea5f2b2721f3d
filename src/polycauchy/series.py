"""Truncated formal power series and the generating-function oracles.

A :class:`Series` of order N stores exactly N+1 coefficients (t^0 .. t^N);
trailing zeros are significant and binary operations demand equal orders.
Coefficients live in any exact ring (Fraction or Poly); everything is
formal, convergence is never consulted.

Normalization conventions for the oracles here:

* ``gf_cauchy1`` / ``gf_cauchy2`` / ``gf_gen_bernoulli`` are exponential
  generating functions: the family value of index n is coefficient n
  times n!.
* ``gf_hyperharmonic`` / ``gf_harmonic_poly`` are ordinary generating
  functions: coefficient n is the value itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable

from .poly import Poly

__all__ = [
    "Series",
    "log1p_series",
    "log1p_over_t_series",
    "gf_cauchy1",
    "gf_cauchy2",
    "gf_gen_bernoulli",
    "gf_hyperharmonic",
    "gf_harmonic_poly",
]


def _invert_constant(c):
    """Multiplicative inverse of a series constant term, or None."""
    if isinstance(c, Poly):
        if c.degree > 0 or not c:
            return None
        c = c.constant()
    if not c:
        return None
    return Fraction(1) / Fraction(c)


class Series:
    """Power series modulo t^(order+1) over an exact coefficient ring."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable):
        self._coeffs = tuple(coeffs)
        if not self._coeffs:
            raise ValueError("a truncated series needs at least the t^0 coefficient")

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([1] + [0] * order)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def __getitem__(self, n: int):
        return self._coeffs[n]

    def poly(self, n: int) -> Poly:
        """Coefficient n as a Poly; a scalar coefficient is a constant."""
        c = self._coeffs[n]
        return c if isinstance(c, Poly) else Poly.const(c)

    def egf_value(self, n: int):
        """Coefficient n times n! (value of an EGF-normalized family)."""
        return self._coeffs[n] * factorial(n)

    def _check(self, other: "Series"):
        if self.order != other.order:
            raise ValueError("series orders differ: %d vs %d" % (self.order, other.order))

    def __eq__(self, other) -> bool:
        return isinstance(other, Series) and all(
            a == b for a, b in zip(self._coeffs, other._coeffs)
        ) and self.order == other.order

    def __hash__(self):
        return hash(self._coeffs)

    def __neg__(self) -> "Series":
        return Series([-c for c in self._coeffs])

    def __add__(self, other: "Series") -> "Series":
        self._check(other)
        return Series([a + b for a, b in zip(self._coeffs, other._coeffs)])

    def __sub__(self, other: "Series") -> "Series":
        self._check(other)
        return Series([a - b for a, b in zip(self._coeffs, other._coeffs)])

    def __mul__(self, other: "Series") -> "Series":
        self._check(other)
        n = self.order
        out = [0] * (n + 1)
        for i, a in enumerate(self._coeffs):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other._coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return Series(out)

    def scale(self, factor) -> "Series":
        return Series([c * factor for c in self._coeffs])

    def pow_int(self, k: int) -> "Series":
        if k < 0:
            raise ValueError("negative series power")
        result = Series.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def reciprocal(self) -> "Series":
        inv0 = _invert_constant(self._coeffs[0])
        if inv0 is None:
            raise ValueError("constant term is not invertible")
        n = self.order
        out = [inv0] + [0] * n
        for i in range(1, n + 1):
            acc = 0
            for j in range(1, i + 1):
                a = self._coeffs[j]
                if a:
                    acc = acc + a * out[i - j]
            out[i] = -inv0 * acc
        return Series(out)

    def exp(self) -> "Series":
        """f = exp(g) for g with zero constant term, by the O(N^2) recurrence
        n f_n = sum_{k=1..n} k g_k f_{n-k} that follows from f' = g' f
        (Brent & Kung, J. ACM 1978); zero g_k are skipped."""
        if self._coeffs[0] != 0:
            raise ValueError("exp needs a zero constant term")
        dg = [(k, k * c) for k, c in enumerate(self._coeffs) if k and c]
        out = [1] + [0] * self.order
        for n in range(1, self.order + 1):
            acc = 0
            for k, kc in dg:
                if k > n:
                    break
                f = out[n - k]
                if f:
                    acc = acc + kc * f
            out[n] = acc * Fraction(1, n)
        return Series(out)

    def __repr__(self) -> str:
        return f"Series({list(self._coeffs)!r})"


def log1p_series(order: int) -> Series:
    """log(1+t) = t - t^2/2 + t^3/3 - ..."""
    return Series([Fraction(0)] + [Fraction((-1) ** (n + 1), n) for n in range(1, order + 1)])


def log1p_over_t_series(order: int) -> Series:
    """log(1+t)/t = 1 - t/2 + t^2/3 - ..."""
    return Series([Fraction((-1) ** n, n + 1) for n in range(order + 1)])


def _neg_log1m_series(order: int) -> Series:
    """-log(1-t) = t + t^2/2 + t^3/3 + ..."""
    return Series([Fraction(0)] + [Fraction(1, n) for n in range(1, order + 1)])


def gf_cauchy1(order: int) -> Series:
    """t / ((1+t)^x log(1+t)); coefficient n times n! is c_n(x) (Poly in x)."""
    x = Poly.gen()
    base = log1p_over_t_series(order).reciprocal()
    power = log1p_series(order).scale(-x).exp()
    return base * power


def gf_cauchy2(order: int) -> Series:
    """t (1+t)^x / ((1+t) log(1+t)); coefficient n times n! is the second-kind polynomial."""
    base = log1p_over_t_series(order).reciprocal()
    power = log1p_series(order).scale(Poly([-1, 1])).exp()
    return base * power


def gf_gen_bernoulli(alpha: int, order: int) -> Series:
    """(t/(e^t - 1))^alpha * e^(x t); coefficient n times n! is the order-alpha Bernoulli polynomial."""
    if alpha < 0:
        raise ValueError("order of the generalized Bernoulli family must be >= 0")
    expm1_over_t = Series([Fraction(1, factorial(n + 1)) for n in range(order + 1)])
    base = expm1_over_t.reciprocal().pow_int(alpha)
    exp_xt = [1] + [Poly([0] * n + [Fraction(1, factorial(n))]) for n in range(1, order + 1)]
    return base * Series(exp_xt)


def gf_hyperharmonic(order: int) -> Series:
    """-log(1-t)/(1-t)^x; coefficient n *is* the hyperharmonic polynomial in x."""
    s = _neg_log1m_series(order)
    return s * s.scale(Poly.gen()).exp()


def gf_harmonic_poly(order: int) -> Series:
    """-log(1-t)/(t (1-t)^(1-x)); coefficient m *is* the degree-m harmonic polynomial."""
    s_over_t = Series([Fraction(1, n + 1) for n in range(order + 1)])
    s = _neg_log1m_series(order)
    return s_over_t * s.scale(Poly([1, -1])).exp()
