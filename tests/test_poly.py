from fractions import Fraction as F
from math import factorial, gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import polycauchy
from polycauchy import (
    Poly,
    binom_poly,
    eval_at_sqrt,
    falling_factorial_poly,
    hyperharmonic_poly,
    poly_from_strings,
    poly_to_strings,
    rising_factorial_poly,
)
from polycauchy.poly import _dot, _homogenised_row, _lincomb, _linear_product, _scale_each, _weighted_sum

coeffs = st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=20), max_size=5)
polys = coeffs.map(Poly)

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
scalars = st.one_of(st.integers(-10**6, 10**6), wide_fraction)
nonzero_scalars = scalars.filter(bool)


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


def ref_add(p, q):
    a, b = list(p.coeffs), list(q.coeffs)
    if len(a) < len(b):
        a, b = b, a
    for i, c in enumerate(b):
        a[i] = a[i] + c
    return Poly(a)


def ref_neg(p):
    return Poly([-c for c in p.coeffs])


def ref_scale(p, c):
    return Poly([a * c for a in p.coeffs])


def ref_div(p, c):
    return Poly([F(a) / c for a in p.coeffs])


def ref_derivative(p):
    return Poly([i * c for i, c in enumerate(p.coeffs)][1:])


def ref_stretch(p, factor):
    return Poly([c * F(factor) ** i for i, c in enumerate(p.coeffs)])


def ref_integrate_01(p):
    return sum((F(c, i + 1) for i, c in enumerate(p.coeffs)), F(0))


def ref_eq(p, q):
    a, b = p.coeffs, q.coeffs
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


def assert_canonical(p):
    """A rational Poly stores trimmed integer numerators over a positive,
    coprime denominator, and reads back as ints or Fractions."""
    nums, den = p._vec, p._den
    assert type(nums) is tuple and all(type(n) is int for n in nums)
    assert not nums or nums[-1]
    assert type(den) is int and den > 0 and gcd(den, *nums) == 1
    assert all(type(c) in (int, F) for c in p.coeffs)
    assert Poly(p.coeffs)._vec == nums and Poly(p.coeffs)._den == den


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
    # the rows of the Stirling triangle against n! times a product of n linear factors
    for n in range(81):
        assert falling_factorial_poly(n) == binom_poly(0, 1, n) * factorial(n), n
        assert rising_factorial_poly(n) == binom_poly(n - 1, 1, n) * factorial(n), n


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


@given(shifts, st.integers(1, 8))
def test_binom_pascal_polynomial_identity(r, n):
    lhs = binom_poly(r, 1, n)
    rhs = binom_poly(r - 1, 1, n) + binom_poly(r - 1, 1, n - 1)
    assert lhs == rhs


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def test_pow_and_stretch():
    assert Poly([1, 1]) ** 3 == Poly([1, 3, 3, 1])
    assert Poly([1, 1]) ** 0 == Poly([1])
    assert Poly([0, 0, 1]).stretch(F(1, 2)) == Poly([0, 0, F(1, 4)])


def test_eval_at_sqrt():
    p = Poly([1, 2, 3, 4])  # 1 + 2x + 3x^2 + 4x^3 at sqrt(5)
    a, b = eval_at_sqrt(p, 5)
    assert a == 1 + 15
    assert b == 2 + 20
    assert type(a) is F and type(b) is F
    assert eval_at_sqrt(Poly(), 5) == (0, 0)
    # 1/3 + 2x^2 + 5x^3 at sqrt(1/4): 1/3 + 2/4 + 5/4 sqrt(1/4)
    assert eval_at_sqrt(Poly([F(1, 3), 0, 2, 5]), F(1, 4)) == (F(5, 6), F(5, 4))
    # a float radicand would leak its binary value into the exact parts
    with pytest.raises(TypeError):
        eval_at_sqrt(Poly([1, F(1, 3), 2]), 0.1)


def test_str_and_json_round_trip():
    p = Poly([F(-19, 30), 0, 4, -1])
    assert str(p) == "-19/30 + 4*x^2 - x^3"
    assert str(Poly()) == "0"
    assert poly_from_strings(poly_to_strings(p)) == p


@pytest.mark.parametrize("item, error", [
    (0.1, TypeError), (True, TypeError), (2, TypeError), (F(1, 2), TypeError),
    ("1e3", ValueError), ("1E4000", ValueError), ("x", ValueError),
])
def test_poly_from_strings_reads_only_rational_text(item, error):
    # a float would load its binary value, exponent text a 10**exponent-sized integer
    with pytest.raises(error):
        poly_from_strings(["1", item])


def test_exact_scalar_division():
    assert Poly([1, 2]) / 2 == Poly([F(1, 2), 1])
    assert Poly([F(1, 3)]) / F(1, 3) == Poly([1])


@given(wide_polys, wide_polys)
def test_mul_kernel_matches_reference(p, q):
    assert_same(p * q, ref_mul(p, q))


@given(wide_polys, points)
def test_eval_kernel_matches_reference(p, x):
    got = p(x)
    assert_same(got, ref_eval(p, x))
    # an int exactly when the point and every coefficient are integral, or p is zero
    integral = not p or (F(x).denominator == 1 and all(type(c) is int for c in p.coeffs))
    assert type(got) is (int if integral else F)


@given(wide_polys, signs, shifts)
def test_affine_compose_kernel_matches_reference(p, sign, shift):
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


@given(wide_polys, wide_polys)
def test_add_sub_neg_match_reference(p, q):
    for got, want in ((p + q, ref_add(p, q)), (p - q, ref_add(p, ref_neg(q))),
                      (-p, ref_neg(p)), (q - q, Poly())):
        assert_canonical(got)
        assert_same(got, want)


@given(wide_polys, scalars)
def test_scalar_add_sub_match_reference(p, c):
    want = ref_add(p, Poly([c]))
    for got in (p + c, c + p):
        assert_canonical(got)
        assert_same(got, want)
    assert_same(p - c, ref_add(p, Poly([-c])))
    assert_same(c - p, ref_add(ref_neg(p), Poly([c])))


@given(wide_polys, scalars, nonzero_scalars)
def test_scalar_mul_div_match_reference(p, c, d):
    for got, want in ((p * c, ref_scale(p, c)), (c * p, ref_scale(p, c)), (p / d, ref_div(p, d))):
        assert_canonical(got)
        assert_same(got, want)


@given(wide_polys, st.integers(0, 4), scalars)
def test_derivative_stretch_integrate_match_reference(p, order, factor):
    want = p
    for _ in range(order):
        want = ref_derivative(want)
    for got, ref in ((p.derivative(order), want), (p.stretch(factor), ref_stretch(p, factor))):
        assert_canonical(got)
        assert_same(got, ref)
    assert_same(p.integrate_01(), ref_integrate_01(p))
    assert type(p.integrate_01()) is F


@given(wide_polys, wide_polys)
def test_equality_matches_reference(p, q):
    assert (p == q) == ref_eq(p, q)
    assert (p != q) == (not ref_eq(p, q))
    twin = Poly(list(p.coeffs))
    assert_same(twin, p)
    assert hash(p) == (hash(p[0]) if p.degree <= 0 else hash(tuple(p.coeffs)))
    half = p / 2  # same numerators as p, twice the denominator
    assert (half == p) == ref_eq(half, p) == (not p)


@given(st.lists(st.tuples(st.one_of(scalars, st.sampled_from([0, F(0)])),
                          st.one_of(wide_polys, st.just(Poly()))), max_size=6))
def test_lincomb_matches_reference(pairs):
    want = Poly()
    for c, p in pairs:
        want = ref_add(want, ref_mul(Poly([c]), p))
    got = _lincomb(pairs)
    assert_canonical(got)
    assert_same(got, want)


def test_lincomb_examples():
    assert_same(_lincomb([]), Poly())
    assert_same(_lincomb(iter([])), Poly())
    # zero weights and zero polynomials add nothing, whatever their denominators
    assert_same(_lincomb([(0, Poly([1, 2])), (F(0), Poly([F(1, 3)])), (F(5, 7), Poly())]), Poly())
    assert_same(_lincomb([(0, Poly([F(1, 9)])), (2, Poly([F(1, 3), 1])), (F(1, 11), Poly())]),
                Poly([F(2, 3), 2]))
    # a full cancellation is the canonical zero
    total = _lincomb([(F(1, 2), Poly([1, F(1, 3)])), (-1, Poly([F(1, 2), F(1, 6)]))])
    assert total == Poly() and total._vec == () and total._den == 1
    # int and Fraction weights in one call
    total = _lincomb([(2, Poly([1, 1])), (F(1, 3), Poly([0, 0, 3])), (F(-3, 4), Poly([F(4, 3)]))])
    assert_canonical(total)
    assert_same(total, Poly([1, 2, 1]))


@given(polys, st.lists(st.one_of(wide_polys, st.just(Poly())), max_size=6))
def test_weighted_sum_matches_reference(weights, ps):
    ps = ps + [Poly([1])] * (len(weights) - len(ps))  # one polynomial per weight at least
    want = Poly()
    for c, p in zip(weights.coeffs, ps):
        want = ref_add(want, ref_mul(Poly([c]), p))
    got = _weighted_sum(weights, ps)
    assert_canonical(got)
    assert_same(got, want)


def ref_homogenised(p, y, q):
    """q^n p(y/q) for n = p.degree, term by term in Fractions."""
    n = p.degree
    return sum((F(c) * F(y) ** i * F(q) ** (n - i) for i, c in enumerate(p.coeffs)), F(0))


@given(st.lists(wide_polys.filter(bool), min_size=1, max_size=6), points,
       st.one_of(st.just(0), points), st.data())
def test_homogenised_row_matches_reference(ps, y, q, data):
    # a row scaled by integers is the unscaled row through _scale_each
    scales = data.draw(st.one_of(st.none(), st.lists(st.integers(-10**6, 10**6),
                                                     min_size=len(ps), max_size=len(ps))))
    got = _homogenised_row(ps, y, q)
    if scales is not None:
        got = _scale_each(got, scales)
    assert_canonical(got)
    want = [ref_homogenised(p, y, q) * (1 if scales is None else scales[m]) for m, p in enumerate(ps)]
    assert_same(got, Poly(want))


@given(wide_polys, wide_polys)
def test_dot_matches_reference(a, b):
    # the lists differ in length, and either may be the zero polynomial
    want = F(0)
    for x, y in zip(a.coeffs, b.coeffs):
        want += F(x) * F(y)
    got = _dot(a, b)
    assert type(got) is F and got == want


def test_dot_examples():
    assert _dot(Poly(), Poly([1, 2])) == 0 and type(_dot(Poly(), Poly())) is F
    assert _dot(Poly([F(1, 2), 3]), Poly([F(2, 3)])) == F(1, 3)
    assert _dot(Poly([1, F(1, 2)]), Poly([0, F(-2, 3), 7])) == F(-1, 3)


def ref_linear_product(cs, slope, den=1):
    want = Poly([F(1, den)])
    for c in cs:
        want = ref_mul(want, Poly([c, slope]))
    return want


@given(st.lists(shifts, max_size=12), st.integers(-3, 3), st.integers(1, 10**6))
def test_linear_product_matches_reference(cs, slope, den):
    got = _linear_product(cs, slope, den)
    assert_canonical(got)
    assert_same(got, ref_linear_product(cs, slope, den))


@given(shifts, signs, st.integers(0, 12))
def test_binom_poly_matches_reference(shift, sign, n):
    got = binom_poly(shift, sign, n)
    assert_canonical(got)
    assert_same(got, ref_linear_product([shift - j for j in range(n)], sign, factorial(n)))


def test_only_poly_reads_the_storage():
    """The integer-numerators-over-one-denominator form is poly.py's alone:
    every other module goes through Poly's operations and kernels."""
    package = Path(polycauchy.__file__).resolve().parent
    readers = [
        (path.relative_to(package).as_posix(), token)
        for path in sorted(package.rglob("*.py")) if path != package / "poly.py"
        for token in ("._vec", "._den", "_make(", "_stored(") if token in path.read_text()
    ]
    assert not readers


def test_coefficients_read_back_as_ints_only_when_the_poly_is_integral():
    # a coefficient's type is part of the repr that the recorded check values hash
    mixed = Poly([F(1, 2), 1])
    assert mixed.coeffs == (F(1, 2), 1) and [type(c) for c in mixed.coeffs] == [F, F]
    assert type(mixed[1]) is F and type(mixed.leading()) is F
    assert repr(polycauchy.cauchy_poly("first", 2).coeffs[1:]) == "(Fraction(0, 1), Fraction(1, 1))"
    assert [type(c) for c in Poly([F(4, 2), 6]).coeffs] == [int, int] and type(Poly([2, 6])[1]) is int


@given(wide_polys, signs, shifts, wide_polys)
def test_kernel_results_are_canonical(p, sign, shift, q):
    for got in (p * q, p.affine_compose(sign, shift), p ** 2):
        assert_canonical(got)


def test_storage_examples():
    assert Poly([1, 1]) != Poly([F(1, 2), F(1, 2)]) and Poly([1]) != Poly([F(1, 3)])
    assert hash(Poly([1, 2])) == hash((1, 2)) and hash(Poly([F(1, 2)])) == hash(F(1, 2))
    assert Poly([F(2, 4), F(3, 2)])._den == 2 and Poly([F(2, 4), F(3, 2)])._vec == (1, 3)
    assert Poly([F(1, 6), F(1, 3)]) * 3 == Poly([F(1, 2), 1])
    assert (Poly([F(1, 6), F(1, 3)]) * 3)._den == 2
    assert (Poly([F(1, 2), 1]) + Poly([F(1, 2), -1]))._vec == (1,)
    assert (Poly([F(1, 2), 1]) + Poly([F(1, 2), -1]))._den == 1
    assert Poly([F(1, 3), F(2, 3)]).coeffs == (F(1, 3), F(2, 3))
    assert Poly([F(4, 2), 6]).coeffs == (2, 6)
    assert Poly([F(3, 2), 0, F(1, 2)]).derivative() == Poly([0, 1])
    assert Poly([0, 1, 1]).stretch(F(-2, 3)) == Poly([0, F(-2, 3), F(4, 9)])
    with pytest.raises(ZeroDivisionError):
        Poly([1, 2]) / 0


def test_float_coefficients_and_points_are_rejected():
    # an inexact float would otherwise pass silently into exact results, and
    # a Poly is not a coefficient, a point or a shift: coefficients are rational
    p = Poly([1, F(1, 2)])
    x = Poly([0, 1])
    for build in (
        lambda: Poly([0.5, 1]),
        lambda: Poly([1, 0.0]),  # checked before trailing zeros are trimmed
        lambda: Poly([0.0]),
        lambda: binom_poly(0.5, 1, 2),
        lambda: hyperharmonic_poly(3)(0.1),
        lambda: p * 0.5,
        lambda: p + 0.5,
        lambda: Poly([1, 2]) * 0.0,
        lambda: 0.0 * Poly([1, 2]),
        lambda: p.stretch(0.5),
        lambda: Poly([Poly([1])]),
        lambda: Poly([Poly([1]), 0.5]),
        lambda: Poly([1, 2])(x),
        lambda: p.affine_compose(1, x),
        lambda: binom_poly(x, 1, 2),
    ):
        with pytest.raises(TypeError):
            build()
