"""SymPy as an independent oracle for the scalar families.

SymPy shares no code with this package, so agreement here cross-checks
the triangle fills, the Bernoulli series and the harmonic loop.  SymPy
uses B_1 = +1/2; this package uses B_1 = -1/2.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import bernoulli, harmonic, stirling  # noqa: E402

from polycauchy import bernoulli_number, harmonic_number, stirling1, stirling2  # noqa: E402


def _fraction(value) -> Fraction:
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


def test_stirling_numbers_match_sympy():
    for n in range(61):
        for m in range(n + 1):
            assert stirling1(n, m) == int(stirling(n, m, kind=1, signed=False)), (n, m)
            assert stirling2(n, m) == int(stirling(n, m, kind=2)), (n, m)


def test_bernoulli_numbers_match_sympy():
    for n in range(41):
        want = _fraction(bernoulli(n))
        if n == 1:
            want = -want
        assert bernoulli_number(n) == want, n


def test_harmonic_numbers_match_sympy():
    for n in range(301):
        assert harmonic_number(n) == _fraction(harmonic(n)), n
