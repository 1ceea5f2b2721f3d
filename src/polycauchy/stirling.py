"""Stirling-like triangles and their polynomial generalizations.

Four integer triangles, each memoized row by row and filled on demand under
a lock so concurrent readers are safe.  Every one starts from T(0,0) = 1 and
steps T(n+1,m) = T(n,m-1) + w*T(n,m) with its own weight w:

* ``stirling1`` -- unsigned first kind, w = n.  Row n holds the power-basis
  coefficients of the rising factorial x^(n) = sum_m [n m] x^m and, with
  the signs (-1)^(n-m), of the falling factorial (x)_n, so
  ``rising_factorial_poly`` and ``falling_factorial_poly`` read the
  memoized row and multiply no polynomials;
* ``stirling2`` -- second kind, w = m;
* ``central_u`` -- signed central factorial numbers with even indices,
  w = -n^2.  The recurrence also fixes u(n,0) = 0 for n >= 1;
* ``lah`` -- unsigned Lah numbers, w = n + m, so that
  L(n,m) = (n!/m!) * binom(n-1, m-1) without a division per entry.

``triangle_rows`` serves the ``table`` verb: it steps a triangle's rows
afresh, leaving the memo alone, and yields each as decimal text.  It
steps them as exact ``Decimal`` integers, because libmpdec stores base
10^19 limbs and so writes text in time linear in the digits, where
CPython's ``str(int)`` takes time quadratic in them.  Each step is the
memo's own weight rule, handed the weights as ``Decimal``s converted once
per table.  For ``central`` at n = 300 (20 M digits) ``str`` is then over
half of the table's time and the step about a quarter; the CLI's
assembly of the lines and the write share the rest.

Shifted-parameter polynomials (``gsn1``/``gsn2``) interpolate the
ordinary triangles: at x = 0 they reduce to the triangle entry and at a
non-negative integer r they give the r-shifted variants.  Their bivariate
values q^(n-m) p(y/q) carry an extra geometric step q; the second kind's
needs q != 0.  A value is read through the poly module's homogeneous
evaluation of the memoised polynomial, and ``_bivariate_row`` gives a
kind's values for m = 0..n as the coefficients of one Poly, by the same
integer Horner loop.  Those rows are memoised, unscaled, in one bounded
cache keyed by the kind, n and the integer ratios of y and q, and a row
with integer scales is the memoised row times the scales.  The r-Whitney
numbers are these values at (y, q) = (r, m)."""

from __future__ import annotations

import decimal
import sys
import threading
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb, factorial
from typing import Iterator

from .poly import Poly, _homogenised_row, _scale_each, binom_poly
from .rational import _exact

__all__ = [
    "stirling1",
    "stirling2",
    "central_u",
    "lah",
    "gsn1",
    "gsn2",
    "gsn1_bivariate_at",
    "gsn2_bivariate_at",
    "whitney",
    "a_number",
    "triangle_rows",
    "falling_factorial_poly",
    "rising_factorial_poly",
]


class _Triangle:
    """Row-memoized integer triangle; rows are extended on demand from the
    first row, (1,) unless given."""

    def __init__(self, name: str, step, first: tuple[int, ...] = (1,)):
        self.name = name
        self._step = step  # step(previous_row, n_previous) -> next row
        self._rows = [first]
        self._lock = threading.Lock()

    def _extend(self, n: int) -> None:
        with self._lock:
            while n >= len(self._rows):
                self._rows.append(self._step(self._rows[-1], len(self._rows) - 1))

    def row(self, n: int) -> tuple[int, ...]:
        """Row n, (T(n, 0), ..., T(n, n)), the memoized tuple itself."""
        if n < 0:
            raise ValueError(f"{self.name}: row index must be >= 0")
        if n >= len(self._rows):
            self._extend(n)
        return self._rows[n]

    def value(self, n: int, m: int) -> int:
        row = self.row(n)
        return row[m] if 0 <= m <= n else 0


# The integers 0, 1, 2, ... as ints: each step reads its weights from a
# sequence whose item i is the integer i, and ``triangle_rows`` hands it a
# list of the same integers as Decimals, so each weight is converted once.
_INTS = range(sys.maxsize)


def _pascal_step(prev: tuple[int, ...], weights) -> tuple[int, ...]:
    """Row n+1 from row n: T(n+1, m) = T(n, m-1) + w_m T(n, m), m = 0..n+1.
    The entries are ints, or exact Decimals in ``triangle_rows``."""
    return tuple([a + w * b for a, w, b in zip((0, *prev), weights, (*prev, 0))])


# The four weight rules.  The step from row n reads ints[0..2n+1] at most.
def _step_s1(prev: tuple[int, ...], n: int, ints=_INTS) -> tuple[int, ...]:
    return _pascal_step(prev, repeat(ints[n]))


def _step_s2(prev: tuple[int, ...], n: int, ints=_INTS) -> tuple[int, ...]:
    return _pascal_step(prev, ints[:n + 2])


def _step_u(prev: tuple[int, ...], n: int, ints=_INTS) -> tuple[int, ...]:
    return _pascal_step(prev, repeat(-ints[n] * ints[n]))


def _step_lah(prev: tuple[int, ...], n: int, ints=_INTS) -> tuple[int, ...]:
    return _pascal_step(prev, ints[n:2 * n + 2])


_TRIANGLES = {
    "stirling1": _Triangle("stirling1", _step_s1),
    "stirling2": _Triangle("stirling2", _step_s2),
    "central": _Triangle("central", _step_u),
    "lah": _Triangle("lah", _step_lah),
}


def stirling1(n: int, m: int) -> int:
    """Unsigned Stirling number of the first kind."""
    return _TRIANGLES["stirling1"].value(n, m)


def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind."""
    return _TRIANGLES["stirling2"].value(n, m)


def central_u(n: int, m: int) -> int:
    """Signed central factorial number with even indices, u(n, m)."""
    return _TRIANGLES["central"].value(n, m)


def lah(n: int, m: int) -> int:
    """Unsigned Lah number L(n, m) = (n!/m!) binom(n-1, m-1)."""
    if n < 0 or m < 0:
        raise ValueError("Lah indices must be >= 0")
    return _TRIANGLES["lah"].value(n, m)


def rising_factorial_poly(n: int) -> Poly:
    """x^(n) = x(x+1)...(x+n-1) = sum_m [n m] x^m, with x^(0) = 1."""
    return Poly(_TRIANGLES["stirling1"].row(n))


def falling_factorial_poly(n: int) -> Poly:
    """(x)_n = x(x-1)...(x-n+1) = sum_m (-1)^(n-m) [n m] x^m, with (x)_0 = 1."""
    return Poly([-c if (n - m) & 1 else c for m, c in enumerate(_TRIANGLES["stirling1"].row(n))])


# Exact integer arithmetic in Decimal: every digit is kept, and any rounding
# or overflow raises instead of yielding a wrong digit.  The rounding mode is
# fixed too, since it decides the sign of a zero sum.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    rounding=decimal.ROUND_HALF_EVEN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow],
)


def triangle_rows(kind: str, max_n: int) -> Iterator[tuple[str, ...]]:
    """Rows 0..max_n of a triangle as decimal text, for tables: row n is
    (str(T(n, 0)), ..., str(T(n, n))).

    Each row is stepped here, as exact ``Decimal`` integers, and yielded in
    turn; the memo is neither read nor filled.  The step is the memo's own
    weight rule, read from one list of the integers below 2*max_n as Decimals,
    so no weight is converted per entry.  The exact context is entered for
    each step alone, so the caller's context is never seen or changed, and
    no Decimal leaves.

    For ``central`` at max_n = 300 (20 M digits), ``str`` of the rows
    costs about twice their steps, and is the floor of a table's cost.
    """
    step, row = _TRIANGLES[kind]._step, (decimal.Decimal(1),)
    ints = list(map(decimal.Decimal, range(2 * max_n)))
    for n in range(max_n + 1):
        with decimal.localcontext(_EXACT):
            if n:
                row = step(row, n - 1, ints)
            text = tuple(map(str, row))
        yield text


def _check_indices(n: int, m: int):
    if n < 0 or m < 0 or m > n:
        raise ValueError(f"indices out of range: need 0 <= m <= n, got n={n}, m={m}")


# gsn1 and gsn2 are memoised by (n, m), with a bound above the keys of the
# deep grid (ci/deep-grid.cfg), which CI checks
@lru_cache(maxsize=4096)
def gsn1(n: int, m: int) -> Poly:
    """Shifted-parameter Stirling polynomial of the first kind, [n m]_x: the
    integer coefficients binom(i+m, m) [n i+m] of x^i, read from row n of
    the memoised first-kind triangle."""
    _check_indices(n, m)
    row = _TRIANGLES["stirling1"].row(n)
    return Poly([comb(i, m) * row[i] for i in range(m, n + 1)])


@lru_cache(maxsize=4096)
def gsn2(n: int, m: int) -> Poly:
    """Shifted-parameter Stirling polynomial of the second kind, {n m}_x: the
    integer coefficients binom(n, i) {n-i m} of x^i, read down column m of
    the memoised second-kind triangle."""
    _check_indices(n, m)
    row = _TRIANGLES["stirling2"].row
    return Poly([comb(n, i) * row(n - i)[m] for i in range(n - m + 1)])


_GSN = {"first": gsn1, "second": gsn2}


def _exact_step(kind: str, q) -> Fraction:
    """The step q as an exact number, checked for the kind."""
    q = _exact(q)
    if kind == "second" and not q:
        raise ValueError("the bivariate second-kind value needs q != 0")
    return q


# The bivariate value rows, unscaled, memoised by (kind, n, y, q) with y and q
# keyed by their integer numerators and denominators, since hashing a Fraction
# costs more than the rest of a lookup.  The identity catalogue reads the same
# rows at many points; the bound exceeds the keys of a default run and of the
# deep grid (ci/deep-grid.cfg), which tier-1 and CI check.
@lru_cache(maxsize=2048)
def _bivariate_values(kind: str, n: int, y_num: int, y_den: int, q_num: int, q_den: int) -> Poly:
    return _homogenised_row([_GSN[kind](n, m) for m in range(n + 1)], Fraction(y_num, y_den), Fraction(q_num, q_den))


def _bivariate_row(kind: str, n: int, y, q, scales=None) -> Poly:
    """The kind's values q^(n-m) p(y/q) for p = gsn1(n, m) or gsn2(n, m),
    m = 0..n, each times the integer scales[m] if scales are given, as the
    coefficients of one Poly.  The unscaled row is read from the memo, and the
    second kind's q = 0 raises before it is read."""
    _check_indices(n, 0)
    y, q = _exact(y), _exact_step(kind, q)
    row = _bivariate_values(kind, n, y.numerator, y.denominator, q.numerator, q.denominator)
    return row if scales is None else _scale_each(row, scales)


def gsn1_bivariate_at(n: int, m: int, y, q) -> Fraction:
    """The first-kind bivariate polynomial at (y, q): q^(n-m) [n m]_(y/q)."""
    _check_indices(n, m)
    return Fraction(_bivariate_row("first", n, y, q)[m])


def gsn2_bivariate_at(n: int, m: int, y, q) -> Fraction:
    """The second-kind bivariate value q^(n-m) {n m}_(y/q), for q != 0."""
    _check_indices(n, m)
    return Fraction(_bivariate_row("second", n, y, q)[m])


def whitney(kind: str, m: int, r: int, n: int, l: int) -> Fraction:
    """r-Whitney number of either kind: the bivariate value at (y, q) = (r, m).

    kind "first":  w_{m,r}(n,l) = m^(n-l) [n l]_{r/m}
    kind "second": W_{m,r}(n,l) = m^(n-l) {n l}_{r/m}
    """
    if m == 0:
        raise ValueError("r-Whitney numbers need m != 0")
    if kind not in _GSN:
        raise ValueError(f"unknown kind {kind!r}")
    _check_indices(n, l)
    return Fraction(_bivariate_row(kind, n, r, m)[l])


def a_number(n: int, m: int) -> Poly:
    """(n!/m!) * binom(x + n - 1, n - m) as a polynomial in x."""
    _check_indices(n, m)
    return binom_poly(n - 1, 1, n - m) * (factorial(n) // factorial(m))
