from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import polycauchy
from polycauchy import binom_poly, format_rational, parse_rational, poly_from_strings
from polycauchy.rational import _reciprocal_powers

fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)


def binom_scalar(top, n):
    """Generalized binomial C(top, n) of a rational top: binom_poly(top, 1, n) at x = 0."""
    return binom_poly(top, 1, n)(0)


def test_canonicalization():
    # text is read into the reduced form and printed from it
    assert parse_rational("2/4") == Fraction(1, 2)
    assert format_rational(parse_rational("2/4")) == "1/2"
    assert format_rational(parse_rational("-19/30")) == "-19/30"
    assert parse_rational("-3/6").denominator == 2
    assert format_rational(parse_rational("0/7")) == "0"


def test_zero_denominator_rejected():
    # an exported coefficient is read as rational text too
    with pytest.raises(ValueError, match="zero denominator"):
        poly_from_strings(["1", "1/0"])


def test_integers_are_unit_denominator():
    assert parse_rational("5").denominator == 1
    assert format_rational(Fraction(10, 2)) == "5"
    assert format_rational(True) == "1"


@given(st.integers(-500, 500), st.integers(1, 200))
def test_additive_inverse(a, b):
    # the sign is carried by the numerator of the text
    text = format_rational(Fraction(a, -b))
    assert "/-" not in text
    assert parse_rational(text) + parse_rational(format_rational(Fraction(a, b))) == 0


@given(fractions, fractions, fractions)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if c != 0:
        assert (a / c) * c == a


def test_binom_scalar_examples():
    assert binom_scalar(5, 2) == 10
    assert binom_scalar(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binom_scalar(-1, 3) == -1
    assert binom_scalar(Fraction(7, 3), 0) == 1


def test_binom_scalar_rejects_float_top():
    with pytest.raises(TypeError):
        binom_scalar(0.5, 2)


def test_binom_scalar_rejects_negative_order():
    with pytest.raises(ValueError):
        binom_scalar(Fraction(1, 2), -1)


@given(fractions, st.integers(0, 8))
def test_binom_times_factorial_is_falling_product(r, n):
    product = Fraction(1)
    for j in range(n):
        product *= r - j
    fact = 1
    for j in range(1, n + 1):
        fact *= j
    assert binom_scalar(r, n) * fact == product


@given(fractions, st.integers(1, 8))
def test_pascal_rule(r, n):
    assert binom_scalar(r, n) == binom_scalar(r - 1, n) + binom_scalar(r - 1, n - 1)


@given(fractions)
def test_text_round_trip(x):
    assert parse_rational(format_rational(x)) == x


def test_text_form():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(-19, 30)) == "-19/30"
    assert format_rational(Fraction(7, 1)) == "7"
    assert parse_rational("-3/6") == Fraction(-1, 2)


@pytest.mark.parametrize("text", ["1/0", "-3/0", " 0/0 "])
def test_parse_zero_denominator_is_value_error(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational(text)


@pytest.mark.parametrize("text", ["1e999999", "1E5", "2.5e-3", "-1e0", "1/2e3"])
def test_parse_exponent_is_value_error(text):
    # an exponent would build a number of 10**exponent digits from a few characters
    with pytest.raises(ValueError, match="exponent"):
        parse_rational(text)


@pytest.mark.parametrize("text, value", [
    ("-3/4", Fraction(-3, 4)), ("12", Fraction(12)), (" 7 ", Fraction(7)),
    ("0.5", Fraction(1, 2)), ("-0.125", Fraction(-1, 8)),
])
def test_parse_accepts_fraction_integer_and_plain_decimal(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("value", [0.1, 1.0, "1/2", None])
def test_format_rejects_inexact_values(value):
    # a float would print its binary value, not the number meant
    with pytest.raises(TypeError):
        format_rational(value)


@pytest.mark.parametrize("value", [0.1, True, 7, Fraction(1, 2), None, b"1/2"])
def test_parse_rejects_non_text(value):
    with pytest.raises(TypeError, match="expected rational text"):
        parse_rational(value)


@given(st.integers(1, 60), st.integers(0, 40), st.integers(0, 6))
def test_reciprocal_powers_are_the_weights_in_lowest_terms(start, length, k):
    nums, den = _reciprocal_powers(start, start + length, k)
    assert all(type(c) is int for c in nums) and type(den) is int and den > 0
    assert [Fraction(c, den) for c in nums] == [Fraction(1, j**k) for j in range(start, start + length)]
    assert gcd(den, *nums) == 1


def test_reciprocal_powers_of_an_empty_range():
    assert _reciprocal_powers(1, 1, 3) == ([], 1)
    assert _reciprocal_powers(7, 5, 2) == ([], 1)


def test_reciprocal_powers_reject_a_negative_exponent():
    with pytest.raises(ValueError, match="k must be >= 0"):
        _reciprocal_powers(1, 4, -1)


def test_only_rational_writes_the_reciprocal_weights():
    """Every 1/j^k weight is read from rational._reciprocal_powers: no other
    module builds its own lcm over a range."""
    package = Path(polycauchy.__file__).resolve().parent
    writers = [
        path.relative_to(package).as_posix()
        for path in sorted(package.rglob("*.py"))
        if path != package / "rational.py" and "lcm(*range(" in path.read_text()
    ]
    assert not writers
