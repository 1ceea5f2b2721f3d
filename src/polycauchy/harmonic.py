"""Harmonic numbers, hyperharmonic polynomials, and harmonic polynomials.

The hyperharmonic polynomial of index n has degree n-1 in the order
variable (the zero polynomial for n = 0); evaluating it at a
non-negative integer r gives the n-th hyperharmonic number of order r,
at 1 the ordinary harmonic number, at 0 the value 1/n.  Its defining sum
of binom(x + n - t - 1, n - t)/t over t = 1..n is built by the recurrence

    H_(n+1) = ((x + n) H_n + P_n)/(n + 1),   P_(n+1) = P_n (x + n)/(n + 1),

from H_0 = 0 and P_0 = 1, where P_n = binom(x + n - 1, n).  Scaled by n!
both are integer polynomials, so each index costs two multiplications by
x + n (the first-kind Stirling step) and one division, O(n) integer
operations, and no sum of rationals over growing denominators.  The rows
H_n are memoized; of the P_n only the last is kept.

The harmonic polynomial of degree m is the hyperharmonic one of index
m+1 at 1 - x; it is recomposed from the memoized hyperharmonic row on
each call and not cached a second time.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .poly import Poly
from .stirling import _step_s1

__all__ = ["harmonic_number", "hyperharmonic_poly", "harmonic_poly"]


@lru_cache(maxsize=None)
def harmonic_number(n: int) -> Fraction:
    if n < 0:
        raise ValueError("index must be >= 0")
    return sum((Fraction(1, j) for j in range(1, n + 1)), Fraction(0))


# H_0, H_1, ..., the memo, and for the last index n it holds the integer
# coefficients of n! H_n and of n! P_n = x(x+1)...(x+n-1)
_HYPER_ROWS = [Poly()]
_hyper_scaled: tuple[tuple[int, ...], tuple[int, ...]] = ((), (1,))
_HYPER_LOCK = threading.Lock()


def _extend_hyperharmonic(n: int) -> None:
    """Fill the memo up to H_n.  Scaled by (m+1)!, the recurrence is
    (m+1)! H_(m+1) = (x+m) m! H_m + m! P_m and (m+1)! P_(m+1) = (x+m) m! P_m,
    integer steps of the first-kind Stirling recurrence."""
    global _hyper_scaled
    with _HYPER_LOCK:
        while n >= len(_HYPER_ROWS):
            m = len(_HYPER_ROWS) - 1
            g, r = _hyper_scaled
            g = tuple([a + b for a, b in zip(_step_s1(g, m), r)])
            _hyper_scaled = g, _step_s1(r, m)
            _HYPER_ROWS.append(Poly(g) / factorial(m + 1))


def hyperharmonic_poly(n: int) -> Poly:
    """Sum of binom(x + n - t - 1, n - t)/t over t = 1..n; zero for n = 0."""
    if n < 0:
        raise ValueError("index must be >= 0")
    if n >= len(_HYPER_ROWS):
        _extend_hyperharmonic(n)
    return _HYPER_ROWS[n]


def harmonic_poly(m: int) -> Poly:
    """Degree-m harmonic polynomial; its value at 0 is the (m+1)-st harmonic number."""
    if m < 0:
        raise ValueError("index must be >= 0")
    return hyperharmonic_poly(m + 1).affine_compose(-1, 1)
