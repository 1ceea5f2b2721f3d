from dataclasses import replace
from fractions import Fraction as F
from math import comb, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycauchy import (
    CONSTRUCTIONS,
    MultiParam,
    Poly,
    aux_poly,
    aux_poly_weighted,
    cauchy_coefficient,
    cauchy_derivative,
    cauchy_number,
    cauchy_poly,
    cauchy_recurrence_step,
    eval_at_sqrt,
    multiparam_cauchy,
    multiparam_poly_bernoulli,
    shifted_cauchy_number,
)
from polycauchy.cauchy import _moment_sum
from polycauchy.stirling import gsn1

FIRST = {
    0: Poly([1]),
    1: Poly([F(1, 2), -1]),
    2: Poly([F(-1, 6), 0, 1]),
    3: Poly([F(1, 4), 0, F(-3, 2), -1]),
    4: Poly([F(-19, 30), 0, 4, 4, 1]),
    5: Poly([F(9, 4), 0, -15, F(-55, 3), F(-15, 2), -1]),
    6: Poly([F(-863, 84), 0, 72, 100, F(105, 2), 12, 1]),
}

SECOND = {
    0: Poly([1]),
    1: Poly([F(-1, 2), 1]),
    2: Poly([F(5, 6), -2, 1]),
    3: Poly([F(-9, 4), 6, F(-9, 2), 1]),
    4: Poly([F(251, 30), -24, 22, -8, 1]),
    5: Poly([F(-475, 12), 120, -125, F(175, 3), F(-25, 2), 1]),
    6: Poly([F(19087, 84), -720, 822, -450, F(255, 2), -18, 1]),
}


def poly_cauchy_golden_first(k: int) -> Poly:
    return Poly(
        [
            -F(120, 2**k) + F(274, 3**k) - F(225, 4**k) + F(85, 5**k) - F(15, 6**k) + F(1, 7**k),
            120 - F(548, 2**k) + F(675, 3**k) - F(340, 4**k) + F(75, 5**k) - F(6, 6**k),
            274 - F(675, 2**k) + F(510, 3**k) - F(150, 4**k) + F(15, 5**k),
            225 - F(340, 2**k) + F(150, 3**k) - F(20, 4**k),
            85 - F(75, 2**k) + F(15, 3**k),
            15 - F(6, 2**k),
            1,
        ]
    )


def poly_cauchy_golden_second(k: int) -> Poly:
    return Poly(
        [
            F(120, 2**k) + F(274, 3**k) + F(225, 4**k) + F(85, 5**k) + F(15, 6**k) + F(1, 7**k),
            -(120 + F(548, 2**k) + F(675, 3**k) + F(340, 4**k) + F(75, 5**k) + F(6, 6**k)),
            274 + F(675, 2**k) + F(510, 3**k) + F(150, 4**k) + F(15, 5**k),
            -(225 + F(340, 2**k) + F(150, 3**k) + F(20, 4**k)),
            85 + F(75, 2**k) + F(15, 3**k),
            -(15 + F(6, 2**k)),
            1,
        ]
    )


def test_classical_golden_tables_all_constructions():
    for n in range(7):
        for construction in CONSTRUCTIONS:
            assert cauchy_poly("first", n, 1, construction) == FIRST[n]
            assert cauchy_poly("second", n, 1, construction) == SECOND[n]


def test_poly_order_golden_tables():
    for k in range(1, 5):
        assert cauchy_poly("first", 6, k) == poly_cauchy_golden_first(k)
        assert cauchy_poly("second", 6, k) == poly_cauchy_golden_second(k)


def test_cross_construction_equality_general_order():
    for kind in ("first", "second"):
        for n in range(9):
            for k in (2, 3, 4):
                want = cauchy_poly(kind, n, k)
                for construction in ("integral", "binomial_conv"):
                    assert cauchy_poly(kind, n, k, construction) == want


def test_construction_domain_errors():
    with pytest.raises(ValueError):
        cauchy_poly("first", 3, 2, "series")
    with pytest.raises(ValueError):
        cauchy_poly("first", 3, 2, "theorem1")
    with pytest.raises(ValueError):
        cauchy_poly("first", 3, 1, "magic")
    with pytest.raises(ValueError):
        cauchy_poly("third", 3)
    with pytest.raises(ValueError):
        cauchy_poly("first", -1)
    with pytest.raises(ValueError):
        cauchy_poly("first", 2, 0)


def test_number_is_constant_term_of_every_construction():
    for kind in ("first", "second"):
        for n in range(13):
            for k in range(1, 4):
                want = cauchy_number(kind, n, k)
                for construction in CONSTRUCTIONS:
                    if k != 1 and construction in ("series", "theorem1"):
                        continue
                    assert cauchy_poly(kind, n, k, construction).constant() == want


def test_number_builds_no_gsn1_polynomial():
    # cauchy_number reads the Stirling triangle; it must not fill the
    # unbounded gsn1 memo with whole polynomials
    gsn1.cache_clear()
    got = {(kind, n): cauchy_number.__wrapped__(kind, n, 5)
           for kind in ("first", "second") for n in range(40)}
    assert gsn1.cache_info().currsize == 0
    # the constant term of the gsn construction, term by term
    for (kind, n), value in got.items():
        signs = [(-1) ** (n - m) if kind == "first" else (-1) ** n for m in range(n + 1)]
        assert value == sum(F(s * gsn1(n, m).constant(), (m + 1) ** 5) for m, s in enumerate(signs))


def test_series_matches_gsn_at_high_degree():
    for kind in ("first", "second"):
        assert cauchy_poly(kind, 64, 1, "series") == cauchy_poly(kind, 64, 1, "gsn")


def test_binomial_conv_matches_gsn_at_high_degree():
    for kind in ("first", "second"):
        for n in (40, 80):
            for k in (1, 2):
                assert cauchy_poly(kind, n, k, "binomial_conv") == cauchy_poly(kind, n, k, "gsn")


def test_numbers():
    assert cauchy_number("first", 4) == F(-19, 30)
    assert cauchy_number("second", 6) == F(19087, 84)
    assert cauchy_number("first", 2, 2) == F(-5, 36)
    assert cauchy_number("first", 0, 3) == 1


def test_coefficients():
    assert cauchy_coefficient("first", 3, 2) == F(-3, 2)
    assert cauchy_coefficient("second", 4, 3) == -8
    for n in range(9):
        assert cauchy_coefficient("first", n, n) == (-1) ** n
        assert cauchy_coefficient("second", n, n, 3) == 1
    with pytest.raises(ValueError):
        cauchy_coefficient("first", 3, 4)


def test_coefficient_agrees_with_polynomial():
    for kind in ("first", "second"):
        for n in range(8):
            for k in (1, 2, 3):
                poly = cauchy_poly(kind, n, k)
                for i in range(n + 1):
                    assert cauchy_coefficient(kind, n, i, k) == F(poly[i])


def test_degree_and_leading_laws():
    for kind, lead in (("first", lambda n: (-1) ** n), ("second", lambda n: 1)):
        for n in range(13):
            for k in (1, 2, 4):
                p = cauchy_poly(kind, n, k)
                assert p.degree == n
                assert p[n] == lead(n)


def test_reflection_only_at_order_one():
    for n in range(11):
        assert cauchy_poly("first", n) == cauchy_poly("second", n).affine_compose(-1, 1)
    assert cauchy_poly("first", 2, 2) != cauchy_poly("second", 2, 2).affine_compose(-1, 1)


def test_derivative():
    assert cauchy_derivative("first", 2, 1, 1) == Poly([0, 2])
    assert cauchy_derivative("second", 2, 1, 1) == Poly([-2, 2])
    for kind in ("first", "second"):
        for n in range(7):
            for k in (1, 3):
                assert cauchy_derivative(kind, n, k, 0) == cauchy_poly(kind, n, k)
                for i in range(n + 2):
                    want = cauchy_poly(kind, n, k).derivative(i)
                    assert cauchy_derivative(kind, n, k, i) == want


def test_recurrence_step():
    assert cauchy_recurrence_step("first", 0) == Poly([F(1, 2), -1])
    assert cauchy_recurrence_step("second", 0) == Poly([F(-1, 2), 1])
    for kind in ("first", "second"):
        for n in range(7):
            for k in (1, 2, 4):
                assert cauchy_recurrence_step(kind, n, k) == cauchy_poly(kind, n + 1, k)


def test_aux_polys():
    for k in (1, 2, 5):
        assert aux_poly(0, k) == Poly([1])
    assert aux_poly(1, 2) == Poly([F(-1, 4), 1])
    assert aux_poly_weighted(1, 1, (F(1),)) == Poly([F(-1, 2), 1])
    assert aux_poly_weighted(0, 2, (F(3), F(1, 2))) == Poly([F(3, 2)])
    with pytest.raises(ValueError):
        aux_poly(1, 0)
    with pytest.raises(ValueError):
        aux_poly(-1, 1)
    with pytest.raises(ValueError):
        aux_poly_weighted(1, 2, (F(1),))
    with pytest.raises(ValueError):
        aux_poly_weighted(1, 1, (F(0),))


def test_integration_formula():
    for n in range(11):
        want = (1 - n) * cauchy_number("first", n)
        assert cauchy_poly("first", n).integrate_01() == want
        assert cauchy_poly("second", n).integrate_01() == want


def test_poly_order_integration():
    for n in range(9):
        for k in range(1, 5):
            got = cauchy_poly("first", n, k).integrate_01()
            want = cauchy_number("first", n) - n * sum(
                cauchy_number("first", n, j) for j in range(1, k + 1)
            )
            assert got == want
            got2 = cauchy_poly("second", n, k).integrate_01()
            want2 = cauchy_number("second", n) - n * sum(
                cauchy_number("second", n, j) + (n - 1) * cauchy_number("second", n - 1, j)
                for j in range(1, k + 1)
            ) if n >= 1 else F(1)
            assert got2 == want2


def test_multiparam_validation():
    with pytest.raises(ValueError):
        MultiParam(-1, 1, 1, F(1), (F(1),), F(0))
    with pytest.raises(ValueError):
        MultiParam(1, 0, 1, F(1), (), F(0))
    with pytest.raises(ValueError):
        MultiParam(1, 1, 0, F(1), (F(1),), F(0))
    with pytest.raises(ValueError):
        MultiParam(1, 2, 1, F(1), (F(1),), F(0))
    with pytest.raises(ValueError):
        MultiParam(1, 1, 1, F(1), (F(0),), F(0))
    # list and int inputs are checked as tuples of Fractions are
    for bad in ([0], [1, 2], (), iter([1, 2])):
        with pytest.raises(ValueError):
            MultiParam(1, 1, 1, 1, bad, 0)
    for a in (-1, F(1)):
        with pytest.raises(ValueError):
            MultiParam(1, 1, a, 1, [1], 0)
    with pytest.raises(ValueError):
        multiparam_cauchy("first", MultiParam(1, 1, 1, F(1), (F(1),), F(0)), "magic")


def test_multiparam_stores_fractions_whatever_the_input():
    want = MultiParam(2, 2, 1, F(-3), (F(1, 2), F(2)), F(0))
    for p in (
        MultiParam(2, 2, 1, -3, [F(1, 2), 2], 0),
        MultiParam(2, 2, 1, F(-3), [F(1, 2), F(2)], F(0)),
        MultiParam(2, 2, 1, -3, (F(1, 2), 2), F(0)),
        want,
    ):
        assert p == want and hash(p) == hash(want)
        assert type(p.L) is tuple
        assert all(type(v) is F for v in (p.q, p.y, *p.L))


@pytest.mark.parametrize("call", [
    lambda: MultiParam(2, 1, 1, 0.1, (1,), 0),
    lambda: MultiParam(2, 1, 1, 1, (1,), 0.5),
    lambda: MultiParam(2, 1, 1, 1, (0.5,), 0),
    lambda: MultiParam(2, 2, 1, F(1), (F(1), 0.5), F(0)),
    lambda: MultiParam(2, 2, 1, F(1), [F(1), 0.5], F(0)),
    lambda: MultiParam(2, 1, 1, F(1), (F(1),), 0.5),
    lambda: aux_poly_weighted(2, 1, (0.1,)),
    lambda: shifted_cauchy_number("first", 3, 1, 1, 0.1, (1,)),
], ids=["MultiParam.q", "MultiParam.y", "MultiParam.L", "MultiParam.L-among-Fractions",
        "MultiParam.L-list", "MultiParam.y-with-Fraction-L", "aux_poly_weighted",
        "shifted_cauchy_number"])
def test_float_parameters_are_rejected(call):
    # a float's binary value would otherwise enter the exact result
    with pytest.raises(TypeError):
        call()


def test_multiparam_reduction_to_ordinary():
    for kind in ("first", "second"):
        for n in range(6):
            for k in (1, 2, 3):
                p = MultiParam(n, k, 1, F(1), (F(1),) * k, F(0))
                assert multiparam_cauchy(kind, p) == cauchy_poly(kind, n, k)


def test_multiparam_constructions_agree():
    points = [MultiParam(n, 2, a, F(-3), (F(1, 2), F(2)), F(-3, 2)) for n in range(4) for a in (1, 2, 3)]
    # high degree with weight product 1/2, so every moment carries a power of the weight
    points.append(MultiParam(40, 3, 2, F(-3), (F(1), F(1), F(1, 2)), F(-3, 2)))
    for kind in ("first", "second"):
        for p in points:
            assert multiparam_cauchy(kind, p) == multiparam_cauchy(kind, p, "integral")


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
weights = st.lists(rationals.filter(bool), min_size=1, max_size=3)


@given(st.sampled_from(["first", "second"]), st.integers(0, 6), st.integers(1, 3),
       rationals, weights, rationals)
def test_multiparam_constructions_agree_at_random_parameters(kind, n, a, q, L, y):
    p = MultiParam(n, len(L), a, q, L, y)
    assert multiparam_cauchy(kind, p) == multiparam_cauchy(kind, p, "integral")


def _moment(j, k, L):
    """The integral of (x - t_1...t_k)^j over [0,l_1] x ... x [0,l_k], term by
    term: the x^(j-i) coefficient is (-1)^i binom(j, i) prod_r l_r^(i+1)/(i+1)."""
    return sum((Poly([0] * (j - i) + [(-1) ** i * comb(j, i) * prod(l ** (i + 1) / (i + 1) for l in L)])
                for i in range(j + 1)), Poly())


@given(st.lists(st.one_of(st.just(0), st.integers(-4, 4), rationals), max_size=6),
       weights, st.integers(0, 3))
def test_moment_sum_matches_the_per_term_sum(coeffs, L, shift):
    L = tuple(L)
    want = sum((_moment(m + shift, len(L), L) * c for m, c in enumerate(coeffs)), Poly())
    assert _moment_sum(coeffs, len(L), L, shift) == want


def test_moment_sum_of_zero_coefficients_is_zero():
    for coeffs in ([], [0], [0, F(0), 0]):
        for shift in range(4):
            assert _moment_sum(coeffs, 2, (F(-1, 2), F(3)), shift) == Poly()


def test_multiparam_degree():
    p = MultiParam(3, 2, 2, F(1, 2), (F(1), F(2)), F(1, 2))
    assert multiparam_cauchy("first", p).degree == 3 + 2 - 1
    assert multiparam_cauchy("second", p).degree == 3 + 2 - 1


def test_multiparam_q_zero_allowed_in_integral_definition():
    p = MultiParam(2, 1, 1, F(0), (F(1),), F(1, 2))
    assert multiparam_cauchy("first", p) == multiparam_cauchy("first", p, "integral")


def test_moment_cache_does_not_grow_with_the_weights():
    # the moments are cached by (j, k) alone, so new weights add no entries
    p = MultiParam(6, 2, 2, F(1, 2), (F(1), F(1)), F(1, 3))

    def run_every_weighted_route(p):
        for kind in ("first", "second"):
            for construction in ("stirling", "integral"):
                multiparam_cauchy(kind, p, construction)
        multiparam_poly_bernoulli(p.n, p.k, p.a, p.q, p.L, p.y)
        aux_poly_weighted(p.n + p.a - 1, p.k, p.L)

    run_every_weighted_route(p)
    size = aux_poly.cache_info().currsize
    for i in range(2, 50):
        run_every_weighted_route(replace(p, L=(F(i), F(-1, i + 1))))
    assert aux_poly.cache_info().currsize == size


def test_shifted_numbers_match_multiparam_at_origin():
    for kind in ("first", "second"):
        for n in range(5):
            for a in (1, 2):
                for q in (F(1), F(-3), F(1, 2)):
                    L = (F(1), F(1, 2))
                    got = shifted_cauchy_number(kind, n, 2, a, q, L)
                    p = MultiParam(n, 2, a, q, L, F(0))
                    assert got == F(multiparam_cauchy(kind, p).constant())


def test_golden_sqrt5_evaluations():
    p = MultiParam(4, 3, 1, F(-3), (F(1), F(1), F(1, 2)), F(-3, 2))
    a1, b1 = eval_at_sqrt(multiparam_cauchy("first", p), 5)
    assert (a1, b1) == (F(114177911, 144000), F(-284203, 768))
    a2, b2 = eval_at_sqrt(multiparam_cauchy("second", p), 5)
    assert (a2, b2) == (F(14046697, 288000), F(10805, 768))


def test_negated_step_relates_kinds():
    for n in range(4):
        for a in (1, 2):
            p = MultiParam(n, 1, a, F(-3), (F(1, 2),), F(1, 2))
            p_neg = MultiParam(n, 1, a, F(3), (F(1, 2),), F(1, 2))
            lhs = multiparam_cauchy("first", p)
            rhs = multiparam_cauchy("second", p_neg) * (-1) ** n
            assert lhs == rhs
