"""Exact rational scalars: the exactness check and the text form.

The universal scalar of this package is :class:`fractions.Fraction`:
arbitrary precision, always reduced, denominator always positive, so
equality is structural equality of canonical forms.  Plain ``int`` values
interoperate freely and compare equal to the corresponding Fraction.

Text form is ``"p/q"`` with the ``/q`` omitted when the denominator is 1,
which is exactly what ``str(Fraction)`` produces; :func:`parse_rational`
accepts the same form back, so values round-trip exactly.

Every 1/j^k weight of the package (the poly-Cauchy and poly-Bernoulli
weights, the harmonic numbers, the unit integral) is one row of integer
numerators over one denominator from :func:`_reciprocal_powers`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

__all__ = ["parse_rational", "format_rational"]


def _exact(value):
    """``value`` unchanged if it is an int or a Fraction.

    Anything else, a float above all, raises ``TypeError``: converting a
    float would carry its binary value, not the number meant, into an
    exact result.
    """
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"expected an exact int or Fraction, got {type(value).__name__}")


def _reciprocal_powers(start: int, stop: int, k: int) -> tuple[list, int]:
    """The weights 1/j^k, j = start..stop-1 (start >= 1, k >= 0), as the integer
    numerators (b/j)^k over b^k, b = lcm(start..stop-1): in lowest terms, since
    each prime power in b divides some j.  ([], 1) for an empty range."""
    if k < 0:
        raise ValueError(f"weight exponent k must be >= 0, got {k}")
    base = lcm(*range(start, stop))
    return [(base // j) ** k for j in range(start, stop)], base**k


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", a bare integer "p" or a plain decimal such as "-0.25"
    into an exact rational.

    Raises TypeError for anything but a str, and ValueError for malformed
    text, for a zero denominator and for an exponent ("e" or "E"):
    "1e999999" would build a million-digit integer from nine characters,
    which CPython's cap on int/str conversion does not bound.
    """
    if not isinstance(text, str):
        raise TypeError(f"expected rational text, got {type(text).__name__}")
    if "e" in text or "E" in text:
        raise ValueError(f"exponent not accepted in rational text {text!r}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(value) -> str:
    """Render an int or Fraction as "p/q", omitting the denominator when it
    is 1; anything else, a float above all, raises ``TypeError``."""
    return str(Fraction(_exact(value)))
