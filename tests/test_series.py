from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycauchy import (
    Poly,
    Series,
    cauchy_poly,
    gf_cauchy1,
    gf_cauchy2,
    gf_gen_bernoulli,
    gf_harmonic_poly,
    gf_hyperharmonic,
    log1p_over_t_series,
    log1p_series,
    sheffer_rows,
)

units = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=10), min_size=3, max_size=6
).filter(lambda cs: cs[0] != 0)


def test_log1p():
    assert log1p_series(3).coeffs == (0, 1, F(-1, 2), F(1, 3))


def test_geometric_reciprocal():
    s = Series([1, -1, 0, 0]).reciprocal()
    assert s.coeffs == (1, 1, 1, 1)


def test_exp():
    assert Series([0, 1, 0]).exp().coeffs == (1, 1, F(1, 2))


def exp_by_power_sum(g: Series) -> Series:
    """The defining sum sum_j g^j/j!, exact modulo t^(order+1)."""
    total = Series.one(g.order)
    term = Series.one(g.order)
    for j in range(1, g.order + 1):
        term = (term * g).scale(F(1, j))
        total = total + term
    return total


@pytest.mark.parametrize("order", range(13))
def test_exp_matches_defining_sum_fraction(order):
    g = Series([0] + [F((-1) ** k * (2 * k + 1), k * k + 3) for k in range(1, order + 1)])
    assert g.exp() == exp_by_power_sum(g)


@pytest.mark.parametrize("order", range(13))
def test_exp_matches_defining_sum_poly(order):
    # the rows of A exp(x g) against the defining sum sum_j A g^j x^j / j!;
    # every third coefficient of g is zero, so the zero-skipping path is exercised
    a = Series([F(2 * k - 3, k + 1) for k in range(order + 1)])
    g = Series([0] + [F(k, 3) - F(1, k) if k % 3 else 0 for k in range(1, order + 1)])
    want = [[0] * (order + 1) for _ in range(order + 1)]
    term = a
    for j in range(order + 1):
        for n, c in enumerate(term.coeffs):
            want[n][j] = c
        term = (term * g).scale(F(1, j + 1))
    assert sheffer_rows(lambda _: a, lambda _: g, order) == tuple(Poly(r) for r in want)


def test_sheffer_rows_of_exp_xt():
    rows = sheffer_rows(Series.one, lambda n: Series([0, 1] + [0] * (n - 1)), 6)
    assert rows == tuple(Poly([0] * n + [F(1, factorial(n))]) for n in range(7))


def test_sheffer_rows_rejects_bad_input():
    with pytest.raises(ValueError, match="series order must be >= 0, got -1"):
        sheffer_rows(Series.one, log1p_series, -1)
    with pytest.raises(ValueError, match="zero constant term"):
        sheffer_rows(Series.one, Series.one, 3)


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        Series([1, 1]).exp()


def test_reciprocal_requires_invertible_constant():
    with pytest.raises(ValueError):
        Series([0, 1]).reciprocal()


@pytest.mark.parametrize("build", [
    lambda: Series([1, 0.5]).reciprocal(),
    lambda: Series([0, 0.1, 0]).exp(),
    lambda: Series([1, 2]).scale(0.5),
    lambda: Series([Poly([1, 2]), 1]) * Series([1, 1]),
    lambda: Series([1, 2]).scale(Poly([0, 1])),
], ids=["float-reciprocal", "float-exp", "float-scale", "poly-coefficient", "poly-scale"])
def test_float_and_poly_coefficients_are_rejected(build):
    with pytest.raises(TypeError):
        build()


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        Series([1, 2]) * Series([1, 2, 3])


@given(units)
def test_reciprocal_is_inverse(cs):
    s = Series(cs)
    assert s * s.reciprocal() == Series.one(s.order)


def test_exp_log_round_trip():
    n = 8
    assert log1p_series(n).exp() == Series([1, 1] + [0] * (n - 1))


def test_trailing_zeros_significant():
    assert Series([1, 0]).order == 1
    assert Series([1]) != Series([1, 0])


def test_gf_cauchy1_golden():
    s = gf_cauchy1(4)
    assert s[0] == Poly([1])
    assert s[1] == Poly([F(1, 2), -1])
    assert s[4] * factorial(4) == Poly([F(-19, 30), 0, 4, 4, 1])


def test_gf_cauchy2_golden():
    s = gf_cauchy2(2)
    assert s[0] == Poly([1])
    assert s[1] == Poly([F(-1, 2), 1])
    assert s[2] * factorial(2) == Poly([F(5, 6), -2, 1])


def test_gf_gen_bernoulli():
    s = gf_gen_bernoulli(1, 2)
    assert s[2] * factorial(2) == Poly([F(1, 6), -1, 1])
    s0 = gf_gen_bernoulli(0, 12)
    for n in range(13):
        assert s0[n] == Poly([0] * n + [F(1, factorial(n))])
    s2 = gf_gen_bernoulli(2, 2)
    assert s2[2] * factorial(2) == Poly([F(5, 6), -2, 1])


def test_gf_gen_bernoulli_rejects_negative_order():
    with pytest.raises(ValueError):
        gf_gen_bernoulli(-1, 3)


def test_bernoulli_constants_from_series():
    s = gf_gen_bernoulli(1, 4)
    values = [s[n].constant() * factorial(n) for n in range(5)]
    assert values == [1, F(-1, 2), F(1, 6), 0, F(-1, 30)]


def test_gf_hyperharmonic_low_orders():
    s = gf_hyperharmonic(2)
    assert s[0] == Poly()
    assert s[1] == Poly([1])
    assert s[2] == Poly([F(1, 2), 1])


def test_gf_harmonic_poly_low_orders():
    s = gf_harmonic_poly(1)
    assert s[0] == Poly([1])
    assert s[1] == Poly([F(3, 2), -1])


def test_scale_and_pow():
    s = Series([1, 1, 0]).pow_int(2)
    assert s.coeffs == (1, 2, 1)
    assert Series([1, 2]).scale(F(1, 2)).coeffs == (F(1, 2), 1)
    with pytest.raises(ValueError):
        Series([1, 1]).pow_int(-1)


def test_egf_value_normalization():
    # the rows of an exponential generating function times n! are the family values
    for kind, gf in (("first", gf_cauchy1(5)), ("second", gf_cauchy2(5))):
        assert [r * factorial(n) for n, r in enumerate(gf)] == [
            cauchy_poly(kind, n, 1, "gsn") for n in range(6)]
