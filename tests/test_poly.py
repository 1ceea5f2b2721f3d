from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycauchy import (
    Poly,
    binom_poly,
    eval_at_sqrt,
    falling_factorial_poly,
    poly_from_strings,
    poly_to_strings,
    rising_factorial_poly,
)
from polycauchy.poly import transpose_nested

coeffs = st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=20), max_size=5)
polys = coeffs.map(Poly)
small_inner = st.lists(st.integers(-4, 4), max_size=3).map(Poly)
nested = st.lists(small_inner, max_size=3).map(Poly)

# Degrees 0-24 and the zero polynomial; int-only, Fraction-only and mixed lists.
wide_fraction = st.fractions(min_value=-10**4, max_value=10**4, max_denominator=60)
wide_coeff_lists = st.one_of(
    st.lists(st.integers(-10**9, 10**9), max_size=25),
    st.lists(wide_fraction, max_size=25),
    st.lists(st.one_of(st.integers(-50, 50), wide_fraction), max_size=25),
)
wide_polys = wide_coeff_lists.map(Poly)
points = st.one_of(st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=12))
shifts = st.one_of(st.sampled_from([0, 1, -1, F(0), F(1), F(-1)]), st.integers(-9, 9),
                   st.fractions(min_value=-6, max_value=6, max_denominator=12))
signs = st.sampled_from([1, -1])
nested_wide = st.lists(st.lists(st.one_of(st.integers(-9, 9), wide_fraction), max_size=4).map(Poly),
                       max_size=6).map(Poly)


# Reference loops: the generic coefficient code Poly used for every ring
# before rational coefficients got integer kernels.
def ref_mul(p, q):
    a, b = p.coeffs, q.coeffs
    if not a or not b:
        return Poly()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return Poly(out)


def ref_eval(p, value):
    acc = 0
    for c in reversed(p.coeffs):
        acc = (ref_mul(acc, value) if isinstance(acc, Poly) and isinstance(value, Poly)
               else acc * value) + c
    return acc


def ref_affine_compose(p, sign, shift):
    result = ref_eval(p, Poly([shift, sign]))
    return result if isinstance(result, Poly) else Poly([result])


def assert_same(got, want):
    assert got == want
    assert str(got) == str(want)
    assert hash(got) == hash(want)


def test_canonical_trim_and_degree():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly().degree == -1
    assert Poly([0, 0]).degree == -1
    assert not Poly([F(0)])
    assert Poly([3]).degree == 0
    assert Poly([0, 0, 5]).degree == 2


def test_scalar_equality():
    assert Poly([F(1, 3)]) == F(1, 3)
    assert Poly() == 0
    assert Poly([0, 1]) != 1


def test_affine_compose_examples():
    p = Poly([F(1, 2), -1])  # 1/2 - x
    assert p.affine_compose(-1, 1) == Poly([F(-1, 2), 1])
    q = Poly([F(1), F(-2), F(3)])
    assert q.affine_compose(1, 0) == q
    assert (Poly([0, 0, 1])).affine_compose(1, 1) == Poly([1, 2, 1])


def test_affine_compose_sign_restricted():
    with pytest.raises(ValueError):
        Poly([1]).affine_compose(2, 0)


def test_derivative_examples():
    assert Poly([0, 0, 0, 1]).derivative(2) == Poly([0, 6])
    b3 = binom_poly(0, 1, 3)  # (x^3 - 3x^2 + 2x)/6
    assert b3 == Poly([0, F(1, 3), F(-1, 2), F(1, 6)])
    assert b3.derivative() == Poly([F(1, 3), -1, F(1, 2)])
    assert Poly([7]).derivative() == Poly()
    assert Poly([1, 2, 3]).derivative(0) == Poly([1, 2, 3])


def test_integrate_01_examples():
    assert binom_poly(0, 1, 2).integrate_01() == F(-1, 12)
    assert Poly([1]).integrate_01() == 1
    assert Poly([F(-1, 2), 1]).integrate_01() == 0


def test_binom_poly_examples():
    assert binom_poly(0, 1, 0) == Poly([1])
    assert binom_poly(0, 1, 2) == Poly([0, F(-1, 2), F(1, 2)])
    assert binom_poly(1, 1, 2) == Poly([0, F(1, 2), F(1, 2)])


def test_factorial_polys():
    assert falling_factorial_poly(3) == Poly([0, 2, -3, 1])
    assert rising_factorial_poly(3) == Poly([0, 2, 3, 1])
    assert falling_factorial_poly(0) == Poly([1])


def test_eval_examples():
    c2 = Poly([F(-1, 6), 0, 1])
    assert c2(F(0)) == F(-1, 6)
    assert Poly()(F(5)) == 0
    chat2 = Poly([F(5, 6), -2, 1])
    assert chat2(F(1)) == F(-1, 6)


@given(polys)
def test_reflection_involution(p):
    assert p.affine_compose(-1, 1).affine_compose(-1, 1) == p


@given(polys)
def test_fundamental_theorem(p):
    assert p.derivative().integrate_01() == p(F(1)) - p(F(0))


@given(st.integers(1, 8))
def test_binom_pascal_polynomial_identity(n):
    lhs = binom_poly(0, 1, n)
    rhs = binom_poly(-1, 1, n) + binom_poly(-1, 1, n - 1)
    assert lhs == rhs


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(nested, nested, nested)
def test_nested_ring_mul_assoc_comm(p, q, r):
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


def test_pow_and_stretch():
    assert Poly([1, 1]) ** 3 == Poly([1, 3, 3, 1])
    assert Poly([1, 1]) ** 0 == Poly([1])
    assert Poly([0, 0, 1]).stretch(F(1, 2)) == Poly([0, 0, F(1, 4)])


def test_eval_at_sqrt():
    p = Poly([1, 2, 3, 4])  # 1 + 2x + 3x^2 + 4x^3 at sqrt(5)
    a, b = eval_at_sqrt(p, 5)
    assert a == 1 + 15
    assert b == 2 + 20


def test_str_and_json_round_trip():
    p = Poly([F(-19, 30), 0, 4, -1])
    assert str(p) == "-19/30 + 4*x^2 - x^3"
    assert str(Poly()) == "0"
    assert poly_from_strings(poly_to_strings(p)) == p


def test_transpose_nested():
    # x + (2 + y) * x^2  <->  (x + 2x^2) + y * x^2
    p = Poly([Poly(), Poly([1]), Poly([2, 1])])
    t = transpose_nested(p)
    assert t == Poly([Poly([0, 1, 2]), Poly([0, 0, 1])])
    assert transpose_nested(t) == p


def test_exact_scalar_division():
    assert Poly([1, 2]) / 2 == Poly([F(1, 2), 1])
    assert Poly([F(1, 3)]) / F(1, 3) == Poly([1])


@given(wide_polys, wide_polys)
def test_mul_kernel_matches_reference(p, q):
    assert_same(p * q, ref_mul(p, q))


@given(wide_polys, points)
def test_eval_kernel_matches_reference(p, x):
    assert_same(p(x), ref_eval(p, x))


@given(wide_polys, signs, shifts)
def test_affine_compose_kernel_matches_reference(p, sign, shift):
    assert_same(p.affine_compose(sign, shift), ref_affine_compose(p, sign, shift))


@given(nested_wide, st.one_of(nested_wide, wide_polys))
def test_mul_nested_coefficients_match_reference(p, q):
    assert_same(p * q, ref_mul(p, q))
    assert_same(q * p, ref_mul(q, p))


@given(nested_wide, points, wide_polys)
def test_eval_nested_or_poly_argument_matches_reference(p, x, q):
    assert_same(p(x), ref_eval(p, x))  # nested coefficients at a rational point
    assert_same(q(Poly([x, 1])), ref_eval(q, Poly([x, 1])))  # composition


@given(st.one_of(nested_wide, wide_polys), signs, st.one_of(small_inner, shifts))
def test_affine_compose_nested_matches_reference(p, sign, shift):
    assert_same(p.affine_compose(sign, shift), ref_affine_compose(p, sign, shift))


def test_kernel_reference_examples():
    half = F(1, 2)
    assert_same(Poly([half, 3]) * Poly([4, F(2, 3)]), Poly([2, F(37, 3), 2]))
    assert_same(Poly([F(1, 3), 0, F(-2, 5)])(F(-3, 2)), F(-17, 30))
    assert_same(Poly([1, 2, 3])(-2), 9)
    assert_same(Poly([F(1, 6), -1, 1]).affine_compose(-1, 1), Poly([F(1, 6), -1, 1]))
    assert_same(Poly([0, 0, 1]).affine_compose(-1, F(1, 2)), Poly([F(1, 4), -1, 1]))
    assert_same(Poly().affine_compose(1, F(2, 3)), Poly())
    assert_same(Poly([F(7, 2)]).affine_compose(-1, 5), Poly([F(7, 2)]))
    assert_same(Poly()(F(1, 2)), 0)
    # an integral coefficient comes back as an int, equal to the Fraction it replaced
    assert repr(Poly([F(2)]) * Poly([F(3)])) == "Poly([6])"
