"""Harmonic numbers, hyperharmonic polynomials, and harmonic polynomials.

The hyperharmonic polynomial of index n has degree n-1 in the order
variable (the zero polynomial for n = 0); evaluating it at a
non-negative integer r gives the n-th hyperharmonic number of order r,
at 1 the ordinary harmonic number, at 0 the value 1/n.  Each binomial
binom(x + j - 1, j) in its defining sum is the rising factorial x^(j)
over j!, read from row j of the memoized ``stirling1`` triangle.

The harmonic polynomial of degree m is the hyperharmonic one of index
m+1 at 1 - x; it is recomposed from the memoized hyperharmonic row on
each call and not cached a second time.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .poly import Poly
from .stirling import rising_factorial_poly

__all__ = ["harmonic_number", "hyperharmonic_poly", "harmonic_poly"]


@lru_cache(maxsize=None)
def harmonic_number(n: int) -> Fraction:
    if n < 0:
        raise ValueError("index must be >= 0")
    return sum((Fraction(1, j) for j in range(1, n + 1)), Fraction(0))


@lru_cache(maxsize=None)
def hyperharmonic_poly(n: int) -> Poly:
    """Sum of binom(x + n - t - 1, n - t)/t over t = 1..n; zero for n = 0."""
    if n < 0:
        raise ValueError("index must be >= 0")
    return sum((rising_factorial_poly(n - t) * Fraction(1, t * factorial(n - t))
                for t in range(1, n + 1)), Poly())


def harmonic_poly(m: int) -> Poly:
    """Degree-m harmonic polynomial; its value at 0 is the (m+1)-st harmonic number."""
    if m < 0:
        raise ValueError("index must be >= 0")
    return hyperharmonic_poly(m + 1).affine_compose(-1, 1)
