"""Truncated formal power series and the generating-function oracles.

A :class:`Series` of order N stores exactly N+1 coefficients (t^0 .. t^N);
trailing zeros are significant and binary operations demand equal orders.
Coefficients are ints or Fractions; any other coefficient or ``scale``
factor raises ``TypeError``, so neither a float nor a polynomial enters a
series.  Everything is formal, convergence is never consulted.

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
from math import factorial, gcd
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


class Series:
    """Power series modulo t^(order+1) with rational coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable):
        self._coeffs = tuple(map(_exact, coeffs))
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

    def _check(self, other: "Series"):
        if self.order != other.order:
            raise ValueError("series orders differ: %d vs %d" % (self.order, other.order))

    def __eq__(self, other) -> bool:
        return isinstance(other, Series) and self._coeffs == other._coeffs

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
        out = [0] * len(self._coeffs)
        for i, a in enumerate(self._coeffs):
            if a:
                out[i:] = [o + a * b if b else o for o, b in zip(out[i:], other._coeffs)]
        return Series(out)

    def scale(self, factor) -> "Series":
        factor = _exact(factor)
        return Series([c * factor for c in self._coeffs])

    def pow_int(self, k: int) -> "Series":
        if k < 0:
            raise ValueError("negative series power")
        return _power(self, k, Series.one(self.order))

    def reciprocal(self) -> "Series":
        c = self._coeffs
        if not c[0]:
            raise ValueError("constant term is not invertible")
        inv0 = Fraction(1) / c[0]
        out = [inv0]
        for i in range(1, len(c)):
            out.append(-inv0 * sum([c[j] * out[i - j] for j in range(1, i + 1) if c[j]]))
        return Series(out)

    def exp(self) -> "Series":
        """exp(g) for g(0) = 0 by n f_n = sum_{k=1..n} k g_k f_{n-k}, from f' = g' f
        (Brent & Kung, J. ACM 1978); zero g_k are skipped."""
        if self._coeffs[0] != 0:
            raise ValueError("exp needs a zero constant term")
        dg = [(k, k * c) for k, c in enumerate(self._coeffs) if k and c]
        out = [1]
        for n in range(1, len(self._coeffs)):
            out.append(sum([kc * out[n - k] for k, kc in dg if k <= n]) * Fraction(1, n))
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


def sheffer_rows(A: Callable[[int], Series], g: Callable[[int], Series],
                 order: int) -> tuple[Poly, ...]:
    """Rows 0..order of A(t) exp(x g(t)), row n the Poly sum_j ([t^n] A g^j / j!) x^j.

    ``A`` and ``g`` map an order to a series of that order; g(0) = 0.  The
    power A g^j / j! starts at t^j, so it is held from t^j to t^order as
    integer numerators over one denominator, and the next power reads only
    the nonzero coefficients of g (g = t costs O(order^2)).
    """
    if order < 0:
        raise ValueError(f"series order must be >= 0, got {order}")
    nums, den = _over_one_denominator(A(order).coeffs)
    g_nums, g_den = _over_one_denominator(g(order).coeffs)
    if g_nums[0]:
        raise ValueError("g needs a zero constant term")
    g_terms = [(k, c) for k, c in enumerate(g_nums) if c]
    powers = []
    for j in range(order + 1):
        powers.append([Fraction(c, den) for c in nums])  # [t^(j+i)] A g^j / j! at i
        nxt = [0] * (order - j)
        for k, gk in g_terms:
            nxt[k - 1:] = [o + gk * c for o, c in zip(nxt[k - 1:], nums)]
        den *= g_den * (j + 1)
        common = gcd(den, *nxt)
        nums, den = [c // common for c in nxt], den // common
    return tuple(Poly([powers[j][n - j] for j in range(n + 1)]) for n in range(order + 1))


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
