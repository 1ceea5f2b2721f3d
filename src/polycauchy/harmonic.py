"""Harmonic numbers, hyperharmonic polynomials, and harmonic polynomials.

The hyperharmonic polynomial of index n has degree n-1 in the order
variable (the zero polynomial for n = 0); evaluating it at a
non-negative integer r gives the n-th hyperharmonic number of order r,
at 1 the ordinary harmonic number, at 0 the value 1/n.  Its defining sum
of binom(x + n - t - 1, n - t)/t over t = 1..n is built by the recurrence

    H_(n+1) = ((x + n) H_n + P_n)/(n + 1),   P_(n+1) = P_n (x + n)/(n + 1),

from H_0 = 0 and P_0 = 1, where P_n = binom(x + n - 1, n).  Scaled by n!
both are integer polynomials, and n! P_n is row n of the first-kind
Stirling triangle, so each index costs one first-kind step of n! H_n and
one sum with the memoized Stirling row, O(n) integer operations, and no
sum of rationals over growing denominators.  The integer rows n! H_n are
memoized as a triangle of their own; each call divides its row by n!.

The harmonic polynomial of degree m is the hyperharmonic one of index
m+1 at 1 - x; it is recomposed from the memoized hyperharmonic row on
each call and not cached a second time.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .poly import Poly
from .rational import _reciprocal_powers
from .stirling import _TRIANGLES, _Triangle, _step_s1

__all__ = ["harmonic_number", "hyperharmonic_poly", "harmonic_poly"]


def harmonic_number(n: int) -> Fraction:
    """1 + 1/2 + ... + 1/n, summed in integers over one denominator; 0 for n = 0."""
    if n < 0:
        raise ValueError("index must be >= 0")
    weights, den = _reciprocal_powers(1, n + 1, 1)
    return Fraction(sum(weights), den)


def _step_hyper(row: tuple[int, ...], n: int) -> tuple[int, ...]:
    """(n+1)! H_(n+1) = (x+n) n! H_n + n! P_n, where n! P_n is the rising
    factorial, row n of the first-kind triangle.  Taking that row while this
    memo's lock is held orders the locks: hyperharmonic, then stirling1."""
    return tuple([a + b for a, b in zip(_step_s1(row, n), _TRIANGLES["stirling1"].row(n))])


# row n holds the integer coefficients of n! H_n, from n! H_0 = 0
_HYPER = _Triangle("hyperharmonic", _step_hyper, ())


def hyperharmonic_poly(n: int) -> Poly:
    """Sum of binom(x + n - t - 1, n - t)/t over t = 1..n; zero for n = 0."""
    return Poly(_HYPER.row(n)) / factorial(n)


def harmonic_poly(m: int) -> Poly:
    """Degree-m harmonic polynomial; its value at 0 is the (m+1)-st harmonic number."""
    if m < 0:
        raise ValueError("index must be >= 0")
    return hyperharmonic_poly(m + 1).affine_compose(-1, 1)
