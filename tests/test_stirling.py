import decimal
import random
from fractions import Fraction as F
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycauchy import (
    Poly,
    a_number,
    binom_poly,
    central_u,
    gsn1,
    gsn1_bivariate_at,
    gsn2,
    gsn2_bivariate_at,
    lah,
    stirling1,
    stirling2,
    whitney,
)
from polycauchy.poly import _homogenised_row
from polycauchy.stirling import (
    _TRIANGLES,
    _Triangle,
    _bivariate_row,
    falling_factorial_poly,
    rising_factorial_poly,
    triangle_rows,
)


def test_triangle_values():
    assert stirling1(0, 0) == 1
    assert stirling1(3, 2) == 3
    assert stirling1(4, 2) == 11
    assert stirling1(4, 0) == 0
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert stirling2(5, 5) == 1
    assert stirling1(5, 7) == 0


def test_row_is_the_memoized_row():
    for name, triangle in _TRIANGLES.items():
        row = triangle.row(30)
        assert row is triangle.row(30), name
        assert row == tuple(triangle.value(30, m) for m in range(31)), name
        assert list(triangle_rows(name, 30))[30] == tuple(map(str, row)), name
        with pytest.raises(ValueError):
            triangle.row(-1)
    with pytest.raises(ValueError):
        rising_factorial_poly(-1)
    with pytest.raises(ValueError):
        falling_factorial_poly(-1)


def test_lah_values():
    assert lah(0, 0) == 1
    assert lah(3, 1) == 6
    assert lah(3, 2) == 6
    assert lah(4, 2) == 36
    assert lah(4, 0) == 0
    with pytest.raises(ValueError):
        lah(-1, 0)
    with pytest.raises(ValueError):
        lah(3, -1)
    assert lah(3, 5) == 0


def test_lah_matches_its_closed_form():
    # the closed form shares nothing with the triangle's recurrence
    for n in range(1, 121):
        for m in range(1, n + 1):
            assert lah(n, m) == factorial(n) // factorial(m) * comb(n - 1, m - 1), (n, m)


def test_central_values():
    assert central_u(1, 1) == 1
    assert central_u(2, 1) == -1
    assert central_u(2, 2) == 1
    assert central_u(3, 2) == -5
    assert central_u(3, 2) == central_u(2, 1) - 4 * central_u(2, 2)
    assert all(central_u(n, 0) == 0 for n in range(1, 8))
    with pytest.raises(ValueError):
        central_u(-1, 0)


def test_gsn_examples():
    assert gsn1(2, 1) == Poly([1, 2])
    assert gsn2(3, 2) == Poly([3, 3])
    for n in range(7):
        for m in range(n + 1):
            assert gsn1(n, m)(0) == stirling1(n, m)
            assert gsn2(n, m)(0) == stirling2(n, m)
    assert gsn1(2, 1)(-1) == -1
    assert gsn1(2, 1)(1) == 3 == stirling1(3, 2)


@given(st.integers(0, 40), st.data())
def test_gsn_coefficients_are_comb_times_stirling(n, data):
    m = data.draw(st.integers(0, n))
    assert list(gsn1(n, m).coeffs) == [comb(i + m, m) * stirling1(n, i + m) for i in range(n - m + 1)]
    assert list(gsn2(n, m).coeffs) == [comb(n, i) * stirling2(n - i, m) for i in range(n - m + 1)]


def test_gsn_domain_errors():
    with pytest.raises(ValueError):
        gsn1(2, 3)
    with pytest.raises(ValueError):
        gsn2(-1, 0)


def test_gsn_shift_matches_r_stirling():
    # at a non-negative integer r the shifted polynomials give the
    # (n+r, m+r) entries of the plain triangles
    for r in range(4):
        for n in range(6):
            for m in range(n + 1):
                assert gsn1(n, m)(r) == _r_stirling1(n + r, m + r, r)


def _r_stirling1(n, m, r):
    # direct double-sum via the defining expansion of gsn1
    return sum(
        comb(i + (m - r), m - r) * stirling1(n - r, i + m - r) * r**i
        for i in range(n - m + 1)
    )


def test_first_kind_derivative_representation():
    # gsn1(n, m) equals (n!/m!) * m-th derivative of binom(x+n-1, n)
    for n in range(11):
        base = binom_poly(n - 1, 1, n)
        for m in range(n + 1):
            want = base.derivative(m) * F(factorial(n), factorial(m))
            assert gsn1(n, m) == want


def test_second_kind_alternating_power_sum():
    for n in range(9):
        for m in range(n + 1):
            total = Poly()
            for l in range(m + 1):
                total = total + (Poly([l, 1]) ** n) * F((-1) ** (m - l) * comb(m, l), factorial(m))
            assert gsn2(n, m) == total


def test_orthogonality_polynomial_identities():
    for n in range(11):
        for m in range(n + 1):
            s_a = Poly()
            s_b = Poly()
            for l in range(m, n + 1):
                s_a = s_a + gsn1(n, l) * gsn2(l, m) * (-1) ** (n - l)
                s_b = s_b + gsn2(n, l) * gsn1(l, m) * (-1) ** (n - l)
            want = Poly([1 if n == m else 0])
            assert s_a == want
            assert s_b == want


def test_inversion_round_trip_random_sequences():
    rng = random.Random(7)
    for _ in range(25):
        length = rng.randint(1, 8)
        g = [F(rng.randint(-99, 99), rng.randint(1, 20)) for _ in range(length)]
        x = F(rng.randint(-9, 9), rng.randint(1, 6))
        f = [
            sum(((-1) ** (n - m)) * gsn1(n, m)(x) * g[m] for m in range(n + 1))
            for n in range(length)
        ]
        back = [sum(gsn2(n, m)(x) * f[m] for m in range(n + 1)) for n in range(length)]
        assert back == g


def test_symmetric_transformation_formulas():
    # two alternative expansions of the shifted first-kind polynomials;
    # the second needs the weight n!/m! (a plain binomial there fails the
    # x^(n-m) degree count and breaks already at n=2, m=0)
    for n in range(9):
        for kk in range(n + 1):
            alpha1 = Poly()
            for m in range(kk, n + 1):
                alpha1 = alpha1 + binom_poly(n - 1, 1, n - m) * (
                    F((-1) ** (m - kk) * factorial(n), factorial(m)) * stirling1(m, kk)
                )
            alpha2 = Poly()
            for m in range(kk, n + 1):
                alpha2 = alpha2 + binom_poly(n - m - 1, 1, n - m) * (
                    F(factorial(n), factorial(m)) * stirling1(m, kk)
                )
            assert alpha1 == gsn1(n, kk)
            assert alpha2 == gsn1(n, kk)


def test_bivariate_first_kind():
    for y, q in ((F(1), F(1)), (F(1, 2), F(-3)), (F(-2), F(0)), (F(0), F(2, 3))):
        assert gsn1_bivariate_at(2, 1, y, q) == q + 2 * y
    for n in range(6):
        for m in range(n + 1):
            assert gsn1_bivariate_at(n, m, 0, 1) == stirling1(n, m)
    # product generating identity at sample points
    y, q = F(1, 2), F(-3)
    for n in range(6):
        product = Poly([1])
        for j in range(n):
            product = product * Poly([-(y + j * q), 1])
        expanded = Poly()
        for m in range(n + 1):
            expanded = expanded + Poly([0] * m + [(-1) ** (n - m) * gsn1_bivariate_at(n, m, y, q)])
        assert product == expanded


def test_bivariate_reduces_to_shifted_at_unit_step():
    # fixing q = 1 recovers the single-shift polynomials in y
    for n in range(7):
        for m in range(n + 1):
            for y in (F(0), F(1), F(-1, 2), F(7, 3)):
                assert gsn1_bivariate_at(n, m, y, 1) == gsn1(n, m)(y)


def test_concurrent_triangle_fill():
    import threading

    results = []

    def worker():
        results.append(stirling1(40, 7))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1


def test_bivariate_second_kind():
    assert gsn2_bivariate_at(1, 1, F(2), F(5)) == 1
    with pytest.raises(ValueError):
        gsn2_bivariate_at(2, 1, F(1), 0)


def _gsn1_bivariate_sum(n, m, y, q):
    # sum_i C(i+m, m) s(n, i+m) y^i q^(n-m-i), written out
    return sum(comb(i + m, m) * stirling1(n, i + m) * y**i * q ** (n - m - i)
               for i in range(n - m + 1))


def _gsn2_bivariate_closed_form(n, m, y, q):
    total = sum(F((-1) ** (m - l) * comb(m, l)) * (y + l * q) ** n for l in range(m + 1))
    return total / (factorial(m) * q**m)


def test_bivariate_values_match_independent_forms():
    ys = (F(0), F(1), F(-1), F(1, 2), F(-3, 2), F(2, 3))
    qs = (F(1), F(-1), F(1, 2), F(-3), F(5, 7))
    for n in range(9):
        for m in range(n + 1):
            for y in ys:
                for q in qs + (F(0),):
                    value = gsn1_bivariate_at(n, m, y, q)
                    assert type(value) is F
                    assert value == _gsn1_bivariate_sum(n, m, y, q)
                for q in qs:
                    value = gsn2_bivariate_at(n, m, y, q)
                    assert type(value) is F
                    assert value == _gsn2_bivariate_closed_form(n, m, y, q)


@pytest.mark.parametrize("call", [
    lambda: gsn1(3, 1)(0.1),
    lambda: gsn2(3, 1)(0.1),
    lambda: gsn1_bivariate_at(3, 1, 0.1, 1),
    lambda: gsn1_bivariate_at(3, 1, 1, 0.1),
    lambda: gsn2_bivariate_at(3, 1, 1, 0.1),
], ids=["gsn1", "gsn2", "gsn1_bivariate_at.y", "gsn1_bivariate_at.q", "gsn2_bivariate_at"])
def test_float_points_are_rejected(call):
    # a float's binary value would otherwise enter the exact result
    with pytest.raises(TypeError):
        call()


def _homogenised_reference(p, degree, y, q):
    """q^degree p(y/q) in Fraction arithmetic; the leading term alone at q = 0."""
    if q == 0:
        return F(p.leading()) * F(y) ** degree
    return F(q) ** degree * sum(F(c) * (F(y) / q) ** i for i, c in enumerate(p.coeffs))


bivariate_points = st.one_of(st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=9))


@given(st.data(), st.integers(0, 12), bivariate_points, st.one_of(st.just(0), bivariate_points))
def test_bivariate_kernel_matches_fraction_reference(data, n, y, q):
    # each value is the one entry of the row kernel poly._homogenised_row over
    # gsn1(n, m) or gsn2(n, m), read back as a Fraction even when integral
    m = data.draw(st.integers(0, n))
    first = gsn1_bivariate_at(n, m, y, q)
    assert type(first) is F
    assert first == _homogenised_reference(gsn1(n, m), n - m, y, q)
    if q == 0:
        with pytest.raises(ValueError):
            gsn2_bivariate_at(n, m, y, q)
        return
    second = gsn2_bivariate_at(n, m, y, q)
    assert type(second) is F
    assert second == _homogenised_reference(gsn2(n, m), n - m, y, q)
    # the r-Whitney numbers are the same values at (y, q) = (r, m)
    for kind, value in (("first", first), ("second", second)):
        got = whitney(kind, q, y, n, m)
        assert type(got) is F
        assert got == value


KINDS = ("first", "second")
GSN = {"first": gsn1, "second": gsn2}
BIVARIATE_AT = {"first": gsn1_bivariate_at, "second": gsn2_bivariate_at}


@pytest.mark.parametrize("kind", KINDS)
@given(n=st.integers(0, 12), y=st.one_of(st.just(0), bivariate_points), q=st.one_of(st.just(0), bivariate_points))
def test_bivariate_rows_match_the_values(kind, n, y, q):
    # coefficient m of a row is the scalar value at (n, m), q = 0 and y = 0
    # included; the second kind refuses q = 0
    if kind == "second" and q == 0:
        with pytest.raises(ValueError, match="needs q != 0"):
            _bivariate_row(kind, n, y, q)
        return
    at = BIVARIATE_AT[kind]
    assert _bivariate_row(kind, n, y, q) == Poly([at(n, m, y, q) for m in range(n + 1)])
    scales = [factorial(m) for m in range(n + 1)]
    assert _bivariate_row(kind, n, y, q, scales) == Poly([factorial(m) * at(n, m, y, q) for m in range(n + 1)])


def test_bivariate_rows_examples():
    # [2 m]_x = (x^2 + x, 2x + 1, 1): at (y, q) = (1/2, -3) the values are
    # q^2 ((y/q)^2 + y/q), q (2y/q + 1) and 1
    assert _bivariate_row("first", 2, F(1, 2), -3) == Poly([F(-5, 4), -2, 1])
    assert _bivariate_row("first", 2, F(1, 2), 0) == Poly([F(1, 4), 1, 1])
    assert _bivariate_row("first", 0, 5, 7) == Poly([1])
    with pytest.raises(ValueError):
        _bivariate_row("first", -1, 0, 1)


@pytest.mark.parametrize("kind", KINDS)
@given(n=st.integers(0, 12), y=bivariate_points, q=st.one_of(st.just(0), bivariate_points))
def test_memoised_rows_equal_a_fresh_homogenised_row(kind, n, y, q):
    # the first call may fill the memo and the second reads it; scaled or not,
    # both equal the rows evaluated afresh from the same polynomials, and
    # scaled coefficient by coefficient in Fractions
    if kind == "second" and q == 0:
        return
    scales = [(-1) ** m * factorial(n) // factorial(m) for m in range(n + 1)]
    fresh = _homogenised_row([GSN[kind](n, m) for m in range(n + 1)], y, q)
    for _ in range(2):
        assert _bivariate_row(kind, n, y, q) == fresh
        assert _bivariate_row(kind, n, y, q, scales) == Poly([f * c for f, c in zip(scales, fresh.coeffs)])


@pytest.mark.parametrize("kind, y, q, same_y, same_q", [
    ("first", 2, F(-3), F(2), -3),
    ("second", F(-1, 2), 4, F(-2, 4), F(4)),
], ids=KINDS)
def test_row_memos_key_by_integer_ratios(kind, y, q, same_y, same_q):
    # an int and the equal Fraction read one entry, the kind is part of the key,
    # and a scaled row leaves the memoised row as it was
    row = _bivariate_row(kind, 5, y, q)
    assert _bivariate_row(kind, 5, same_y, same_q) is row
    other = "second" if kind == "first" else "first"
    assert _bivariate_row(other, 5, y, q) != row
    _bivariate_row(kind, 5, y, q, [7] * 6)
    assert _bivariate_row(kind, 5, y, q) == _homogenised_row([GSN[kind](5, m) for m in range(6)], y, q)


def test_second_kind_row_at_zero_step_raises_on_every_call():
    # the check comes before the memo, so a repeated call raises again
    for q in (0, F(0), 0, F(0, 5)):
        with pytest.raises(ValueError, match="needs q != 0"):
            _bivariate_row("second", 3, F(1, 2), q)
        with pytest.raises(ValueError, match="needs q != 0"):
            _bivariate_row("second", 3, F(1, 2), q, [1, 2, 3, 4])


def test_bivariate_first_kind_at_zero_step():
    # only the y^(n-m) term survives q = 0; its coefficient is binom(n, m)
    assert gsn1_bivariate_at(3, 1, F(2), 0) == 12
    assert gsn1_bivariate_at(4, 4, F(-1, 2), 0) == 1
    assert gsn1_bivariate_at(5, 2, F(-1, 2), 0) == comb(5, 2) * F(-1, 2) ** 3


def test_whitney_examples_and_cross_checks():
    assert whitney("first", 1, 0, 4, 2) == stirling1(4, 2)
    assert whitney("first", 2, 1, 2, 1) == 4
    assert whitney("second", 2, 1, 2, 1) == 4
    for m in (1, 2, -2, 3, -5):
        for r in (-2, 0, 1, 3, F(1, 2)):
            for n in range(6):
                for l in range(n + 1):
                    direct_w = sum(
                        comb(j, l) * m ** (n - j) * r ** (j - l) * stirling1(n, j)
                        for j in range(l, n + 1)
                    )
                    direct_big = sum(
                        comb(n, j) * m ** (j - l) * r ** (n - j) * stirling2(j, l)
                        for j in range(l, n + 1)
                    )
                    w, big = whitney("first", m, r, n, l), whitney("second", m, r, n, l)
                    assert isinstance(w, F) and isinstance(big, F)
                    assert w == direct_w
                    assert big == direct_big
    with pytest.raises(ValueError):
        whitney("first", 0, 1, 2, 1)
    with pytest.raises(ValueError):
        whitney("third", 1, 1, 2, 1)


def test_a_number():
    assert a_number(2, 2) == Poly([1])
    assert a_number(5, 5) == Poly([1])
    assert a_number(2, 0) == Poly([0, 1, 1])
    assert a_number(2, 1) == Poly([2, 2])
    # recurrence: value(n+1, m) = value(n, m-1) + (n + m + x) value(n, m)
    for n in range(10):
        for m in range(n + 1):
            prev = a_number(n, m - 1) if m >= 1 else Poly()
            assert a_number(n + 1, m) == prev + Poly([n + m, 1]) * a_number(n, m)


def test_triangle_rows_listing():
    rows = list(triangle_rows("stirling2", 3))
    assert rows[0] == ("1",)
    assert rows[3][2] == "3"
    assert len(rows) == 4
    assert rows == [("1",), ("0", "1"), ("0", "1", "1"), ("0", "1", "3", "1")]
    with pytest.raises(TypeError):
        rows[3][2] = "99"
    # every entry is text, equal to the memoised integer's, for all four triangles
    for name, triangle in _TRIANGLES.items():
        for n, row in enumerate(triangle_rows(name, 60)):
            assert row == tuple(map(str, triangle.row(n))), (name, n)


def test_triangle_rows_raise_on_a_rounded_step(monkeypatch):
    # a step that rounds (here to a multiple of 10) raises; no digit is printed.
    # A table calls the step with its Decimal weights as a third argument.
    def rounding_step(prev, n, ints):
        return (*prev, prev[-1].quantize(decimal.Decimal("1E+1")))

    monkeypatch.setitem(_TRIANGLES, "central", _Triangle("central", rounding_step))
    rows = triangle_rows("central", 3)
    assert next(rows) == ("1",)
    with pytest.raises((decimal.Inexact, decimal.Rounded)):
        next(rows)
