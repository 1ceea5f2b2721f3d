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
rows [t^n] (Polys in x) of ``_rows``, the reader behind
:func:`sheffer_rows`.  Row n is sum_j x^j sum_i A_i [t^(n-i)] P_j for the
powers P_j = g^j / j!, held as the numbers m! [t^m] P_j, so n! times
coefficient j is one integer dot product, sum_i binom(n, i) (i! A_i)
((n-i)! [t^(n-i)] P_j), and a row costs O(n^2) integer products once the
powers are built.  The first three are exponential (row n times n! is the
family value), the last ordinary (row n is the value):

* ``gf_cauchy1``: A = t/log(1+t), g = -log(1+t);
* ``gf_cauchy2``: A = t/((1+t) log(1+t)), g = log(1+t), read as the
  (A, -log(1+t)) rows at -x;
* ``gf_gen_bernoulli``: A = (t/(e^t - 1))^alpha, g = t;
* ``gf_hyperharmonic``: A = g = -log(1-t), read at -t as (-1)^n times
  the row n of A = g = -log(1+t).

``gf_harmonic_poly`` divides the hyperharmonic function by t and puts
1 - x for x, so its rows are hyperharmonic rows 1..order+1 at 1 - x.

Held tables.  The library's pairs hold their tables once per process:
the powers of -log(1+t), which three of the four read, the first Cauchy
kind's A, read from those powers as Lif_1(log(1+t)) = sum_m (-1)^m
P_m / (m+1), and the Bernoulli A for the ``_ALPHAS_KEPT`` orders alpha
asked most recently.  The numbers m! [t^m] P_j of -log(1+t) are Stirling
numbers of the first kind, integers that do not depend on the order, so a
table is held at the largest order asked so far, a lower order reads its
prefix, and a larger order appends only the new columns: the cost of a
request does not depend on the order held, and the total cost not on the
order of the requests.  The Bernoulli A is built again at a larger order.
Nothing above ``_HELD_ORDER_CAP`` (128, where the -log(1+t) powers take
0.58 MiB) is kept: such a request extends a copy for the one call.
``sheffer_rows`` over callables the caller passes builds its tables for
the call and holds nothing.  Each table is built under its own lock and
published by one reference swap, so concurrent readers are safe.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, gcd, lcm
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


# Held tables stop at this order; above it a table is built for the one call,
# from the held prefix, and dropped.  The power table of -log(1+t) takes
# 0.06 MiB at order 48, 0.18 MiB at 80, 0.58 MiB at 128 and 1.0 MiB at 160.
_HELD_ORDER_CAP = 128


class _Held:
    """A table of a fixed series, held at the largest order asked so far up to
    ``_HELD_ORDER_CAP``; a call at a lower order reads the held one.

    ``build(table, order)`` returns the table at ``order`` from ``table``, the
    one at a lower order (``()`` before the first), and changes neither.
    Coefficients 0..N of a product, reciprocal or power depend only on
    coefficients 0..N of its inputs, so the table at order N holds the table
    at each lower order as a prefix.  A build runs under the lock and is
    published as one (order, table) reference, so readers need no lock.
    """

    def __init__(self, build: Callable[[tuple, int], tuple]):
        self._build = build
        self._held = (-1, ())
        self._lock = threading.Lock()

    def __call__(self, order: int) -> tuple:
        held_order, table = self._held
        if order <= held_order:
            return table
        if order > _HELD_ORDER_CAP:
            return self._build(table, order)
        with self._lock:
            held_order, table = self._held
            if order > held_order:
                table = self._build(table, order)
                self._held = (order, table)
        return table


def _of_order(f: Callable[[int], Series], name: str, order: int) -> Series:
    """f(order), which must be a series of that order."""
    series = f(order)
    if series.order != order:
        raise ValueError(f"{name}({order}) has order {series.order}, expected {order}")
    return series


def _factorials(order: int) -> list:
    """0!, 1!, .., order!"""
    return list(accumulate(range(1, order + 1), mul, initial=1))


def _lowest(nums: list, den: int) -> tuple:
    """(nums, den) with their common factor divided out, nums as a tuple."""
    common = gcd(den, *nums)
    return tuple([c // common for c in nums]), den // common


def _egf_integers(s: Series) -> tuple:
    """The numbers n! [t^n] s, n = 0..order, as integer numerators over one
    positive denominator, in lowest terms."""
    nums, den = _integers(s)
    return _lowest([c * f for c, f in zip(nums, _factorials(s.order))], den)


def _powers(g: Series) -> tuple:
    """The powers P_j = g^j / j!, j = 0..N for N = g's order, power j held as
    the numbers n! [t^n] P_j, n = j..N, over one positive denominator:
    (integer numerators, denominator) in lowest terms.

    With h = g/t, P_j is P_(j-1) times h, shifted by t and divided by j, so
    its coefficient t^(j+r) is the dot product of h_0..h_r with the
    coefficients r..0 of P_(j-1).  h is reversed once, its trailing zeros
    trimmed to its last nonzero h_(w-1), so each coefficient is one
    ``sum(map(mul, ...))`` over a window of at most w terms, and the table
    costs O(N^2 w) integer products.
    """
    h, g_den = _integers(g)
    if h[0]:
        raise ValueError("g needs a zero constant term")
    order, h = len(h) - 1, h[1:]
    width = max([m + 1 for m, c in enumerate(h) if c], default=1)
    h_rev = h[width - 1::-1]
    factorials = _factorials(order)
    nums, den = (1,) + (0,) * order, 1  # the coefficients of P_0 from t^0
    out = [(nums, 1)]
    for j in range(1, order + 1):
        size = order + 1 - j  # P_j's coefficients t^j .. t^order
        if width == 1:  # g = g_1 t: each power is a scaled copy of the one before
            nxt = [h_rev[0] * c for c in nums[:size]]
        else:
            nxt = [sum(map(mul, h_rev[width - 1 - r:], nums)) for r in range(min(width - 1, size))]
            nxt += [sum(map(mul, h_rev, nums[r + 1 - width:r + 1])) for r in range(width - 1, size)]
        nums, den = _lowest(nxt, den * g_den * j)
        out.append(_lowest([c * f for c, f in zip(nums, factorials[j:])], den))
    return tuple(out)


def _neg_log1p_powers(table: tuple, order: int) -> tuple:
    """The powers P_j = (-log(1+t))^j / j! as ``_powers`` holds them, extending
    ``table``, the same powers at a lower order (``()`` for none).

    q(j, n) = n! [t^n] P_j is the Stirling number s(n, j) of the first kind
    times (-1)^j, an integer, and (1+t) P_j' = -P_(j-1) steps the table
    column by column: q(j, n+1) = -(n q(j, n) + q(j-1, n)).  No entry depends
    on the order, so a larger order appends the columns past the held one,
    O(n) integer products each, and the table costs O(N^2) at any order of
    the requests.  The stirling1 triangle in ``stirling`` holds the same
    numbers unsigned, but other constructions fill it, so reading it would
    make this table's cost depend on which of them ran first.
    """
    powers = [list(p) for p, _ in table] or [[1]]
    column = [p[-1] for p in powers]  # q(j, n) for the held order n
    for n in range(len(powers) - 1, order):
        column = [-n * column[0]] + [-(n * q + prev) for q, prev in zip(column[1:] + [0], column)]
        powers.append([])
        for p, q in zip(powers, column):
            p.append(q)
    return tuple([(tuple(p), 1) for p in powers])


def _row(a: tuple, powers: tuple, n: int, lcd: int) -> Poly:
    """Row n, sum_j x^j sum_i A_i [t^(n-i)] P_j, of the pair whose A has the
    numbers i! A_i = a_i / d, a = ((a_0, a_1, ..), d), and whose powers
    g^j / j! are ``powers`` as ``_powers`` holds them (both at order n or
    above).  With n! [t^m] P_j = p_(m-j) / d_j, n! times coefficient j is
    sum_i binom(n, i) a_i p_(n-i-j) / (d d_j): one integer dot product,
    brought over lcd, a common multiple of d_0..d_n."""
    nums, den = a
    weights = [c * comb(n, i) for i, c in enumerate(nums[:n + 1])]
    return Poly([sum(map(mul, weights, p[n - j::-1])) * (lcd // d)
                 for j, (p, d) in enumerate(powers[:n + 1])]) / (lcd * den * factorial(n))


def _rows(pair: tuple, order: int) -> tuple[Poly, ...]:
    """Rows 0..order of the pair (A, powers), each mapping an order to its table."""
    if order < 0:
        raise ValueError(f"series order must be >= 0, got {order}")
    a, powers = pair[0](order), pair[1](order)
    rows, lcd = [], 1
    for n in range(order + 1):
        lcd = lcm(lcd, powers[n][1])
        rows.append(_row(a, powers, n, lcd))
    return tuple(rows)


def _sheffer_row(pair: tuple, n: int) -> Poly:
    """``_rows(pair, n)[n]`` without building rows 0..n-1."""
    a, powers = pair[0](n), pair[1](n)
    return _row(a, powers, n, lcm(*[d for _, d in powers[:n + 1]]))


def sheffer_rows(A: Callable[[int], Series], g: Callable[[int], Series],
                 order: int) -> tuple[Poly, ...]:
    """Rows 0..order of A(t) exp(x g(t)), row n the Poly sum_j ([t^n] A g^j / j!) x^j.

    ``A`` and ``g`` map an order to a series of that order, and a series of
    another order raises ``ValueError``; g(0) = 0.  The powers g^j / j! are
    stepped in integers by ``_powers`` and row n is read from them by
    ``_row``.  Nothing is held: the library's own pairs hold their tables.
    """
    return _rows((lambda n: _egf_integers(_of_order(A, "A", n)),
                  lambda n: _powers(_of_order(g, "g", n))), order)


def _lif1(table: tuple, order: int) -> tuple:
    """t/log(1+t) = sum_m (-1)^m P_m / (m+1) over the powers P_m of
    -log(1+t) (it is Lif_1(log(1+t))), as the numbers n! [t^n], the Cauchy
    numbers sum_m (-1)^m q(m, n) / (m+1) of the first kind, over the
    denominator of the weights 1/(m+1); extends ``table``, the same at a
    lower order."""
    weights, den = _reciprocal_powers(1, order + 2, 1)
    weights[1::2] = [-w for w in weights[1::2]]
    nums = [c * (den // table[1]) for c in table[0]] if table else []
    powers = _NEG_LOG1P(order)
    for n in range(len(nums), order + 1):
        nums.append(sum(map(mul, weights, [p[n - m] for m, (p, _) in enumerate(powers[:n + 1])])))
    return tuple(nums), den


def _over_one_plus_t(a: tuple, order: int) -> tuple:
    """A/(1+t) at the given order from A, both as the numbers n! [t^n] over
    one denominator: number n is a_n - n times number n-1."""
    nums, den = a
    out = [nums[0]]
    for n in range(1, order + 1):
        out.append(nums[n] - n * out[-1])
    return tuple(out), den


def _prefix(a: tuple, order: int) -> Series:
    """The Series of the given order read from held integers."""
    nums, den = a
    return _series(Poly(nums[:order + 1]) / den, order)


def _t_powers(order: int) -> tuple:
    """The powers t^j / j! as ``_powers`` holds them: n! [t^n] is 1 at n = j."""
    return tuple([((1,) + (0,) * (order - j), 1) for j in range(order + 1)])


# The library's pairs.  Three read the one held table of the powers of
# g = -log(1+t).  The first Cauchy kind's A is read from that table by
# ``_lif1`` and held.  The second kind's g is log(1+t), so its rows are the
# (A, -log(1+t)) rows at -x; its A, the first kind's over 1 + t, is read
# from the held first-kind A in O(n) and not held itself.  The hyperharmonic
# function at -t is g exp(x g), so its row n is (-1)^n times the (g, g) row n.
_NEG_LOG1P = _Held(_neg_log1p_powers)
_CAUCHY1 = (_Held(_lif1), _NEG_LOG1P)
_CAUCHY2 = (lambda n: _over_one_plus_t(_CAUCHY1[0](n), n), _NEG_LOG1P)
_HYPERHARMONIC = (lambda n: _egf_integers(-log1p_series(n)), _NEG_LOG1P)

# The Bernoulli family's g = t and t/(e^t - 1); its A for order alpha is that
# to the power alpha, held for the _ALPHAS_KEPT orders asked most recently
# and built again at a larger order.
_BERNOULLI = _Held(lambda _, n: _integers(
    Series([Fraction(1, factorial(i + 1)) for i in range(n + 1)]).reciprocal()))
_ALPHAS_KEPT = 8
_ALPHAS: dict = {}  # alpha -> held A, least recently asked first
_ALPHAS_LOCK = threading.Lock()


def _gen_bernoulli(alpha: int) -> tuple:
    """(A, powers) of the order-alpha Bernoulli generating function."""
    with _ALPHAS_LOCK:
        a = _ALPHAS.pop(alpha, None) or _Held(
            lambda _, n: _egf_integers(_prefix(_BERNOULLI(n), n).pow_int(alpha)))
        _ALPHAS[alpha] = a
        while len(_ALPHAS) > _ALPHAS_KEPT:
            del _ALPHAS[next(iter(_ALPHAS))]
    return a, _t_powers


def gf_cauchy1(order: int) -> tuple[Poly, ...]:
    """t / ((1+t)^x log(1+t)); row n times n! is c_n(x)."""
    return _rows(_CAUCHY1, order)


def gf_cauchy2(order: int) -> tuple[Poly, ...]:
    """t (1+t)^x / ((1+t) log(1+t)); row n times n! is the second-kind polynomial."""
    return tuple(row.affine_compose(-1, 0) for row in _rows(_CAUCHY2, order))


def gf_gen_bernoulli(alpha: int, order: int) -> tuple[Poly, ...]:
    """(t/(e^t - 1))^alpha * e^(x t); row n times n! is the order-alpha Bernoulli polynomial."""
    if alpha < 0:
        raise ValueError("order of the generalized Bernoulli family must be >= 0")
    return _rows(_gen_bernoulli(alpha), order)


def gf_hyperharmonic(order: int) -> tuple[Poly, ...]:
    """-log(1-t)/(1-t)^x; row n *is* the hyperharmonic polynomial in x."""
    return tuple(-row if n & 1 else row for n, row in enumerate(_rows(_HYPERHARMONIC, order)))


def gf_harmonic_poly(order: int) -> tuple[Poly, ...]:
    """-log(1-t)/(t (1-t)^(1-x)); row m *is* the degree-m harmonic polynomial."""
    if order < 0:
        raise ValueError(f"series order must be >= 0, got {order}")
    return tuple(row.affine_compose(-1, 1) for row in gf_hyperharmonic(order + 1)[1:])
