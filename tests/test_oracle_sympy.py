"""SymPy as an independent oracle for the scalar families.

SymPy shares no code with this package, so agreement here cross-checks
the triangle fills, the Bernoulli series, the harmonic loop, the Euler
polynomials, and the central factorial, Lah and r-Whitney numbers through
the products and bases that define them.  SymPy uses B_1 = +1/2; this
package uses B_1 = -1/2.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import bernoulli, harmonic, stirling  # noqa: E402

from polycauchy import (  # noqa: E402
    bernoulli_number,
    central_u,
    euler_poly,
    harmonic_number,
    lah,
    stirling1,
    stirling2,
    whitney,
)

x = sympy.Symbol("x")


def _fraction(value) -> Fraction:
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


def _coeffs(expr) -> list:
    """Coefficients of a polynomial in x as Fractions, constant term first."""
    return [_fraction(c) for c in reversed(sympy.Poly(expr, x).all_coeffs())]


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


def test_euler_polynomials_match_sympy():
    for n in range(15):
        assert [Fraction(c) for c in euler_poly(n).coeffs] == _coeffs(sympy.euler(n, x)), n


def test_central_factorial_numbers_match_product():
    # u(n, m) is the coefficient of x^(2m) in x^2 (x^2 - 1^2) ... (x^2 - (n-1)^2)
    for n in range(1, 20):
        product = sympy.Poly(x**2 * sympy.prod([x**2 - j**2 for j in range(1, n)]), x)
        for m in range(n + 2):
            assert central_u(n, m) == product.coeff_monomial(x ** (2 * m)), (n, m)


def test_lah_numbers_expand_rising_in_falling_factorials():
    for n in range(15):
        expansion = sum(lah(n, m) * sympy.ff(x, m) for m in range(n + 1))
        assert _coeffs(sympy.rf(x, n)) == _coeffs(expansion), n


def test_whitney_numbers_expand_powers_in_falling_factorials():
    # (mx + r)^n = sum over l of W_{m,r}(n, l) m^l (x)_l
    for m, r in ((1, 0), (2, 1), (3, -2), (-2, 3)):
        for n in range(9):
            expansion = sum(
                sympy.Rational(whitney("second", m, r, n, l)) * m**l * sympy.ff(x, l)
                for l in range(n + 1)
            )
            assert _coeffs((m * x + r) ** n) == _coeffs(expansion), (m, r, n)
