import os
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from math import factorial, gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import polycauchy
from polycauchy import (
    Poly,
    Series,
    cauchy_number,
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
from polycauchy.series import (
    _cauchy, _gen_bernoulli, _integers, _rising,
)
from polycauchy.stirling import _Triangle, _step_s1

units = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=10), min_size=3, max_size=6
).filter(lambda cs: cs[0] != 0)

# Orders 0-16; ints, Fractions and zeros mixed, so interior coefficients are
# often zero.  A unit's constant term is nonzero and often negative.
coefficient = st.one_of(
    st.just(0),
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-10**3, max_value=10**3, max_denominator=40),
)
orders = st.integers(0, 16)


def coefficient_lists(order, constant=coefficient):
    return st.tuples(constant, st.lists(coefficient, min_size=order, max_size=order)).map(
        lambda parts: [parts[0], *parts[1]])


series_lists = orders.flatmap(coefficient_lists)
unit_lists = orders.flatmap(lambda n: coefficient_lists(n, coefficient.filter(bool)))
pairs_of_lists = orders.flatmap(lambda n: st.tuples(coefficient_lists(n), coefficient_lists(n)))
scalars = st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=60))


# Reference loops over plain Fractions, one coefficient at a time; they call
# no Series kernel.
def ref_mul(a, b):
    return [sum((F(a[j]) * b[i - j] for j in range(i + 1)), F(0)) for i in range(len(a))]


def ref_reciprocal(a):
    out = [1 / F(a[0])]
    for i in range(1, len(a)):
        out.append(-sum((F(a[j]) * out[i - j] for j in range(1, i + 1)), F(0)) / a[0])
    return out


def ref_pow(a, k):
    out = [F(1)] + [F(0)] * (len(a) - 1)
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def assert_canonical(s, order):
    """A Series stores order + 1 integer numerators, trailing zeros kept, over
    a positive coprime denominator, and reads back as ints or Fractions, an
    integral coefficient as an int."""
    nums, lcd = _integers(s)
    assert type(nums) is tuple and len(nums) == order + 1 == s.order + 1
    assert all(type(n) is int for n in nums)
    assert type(lcd) is int and lcd > 0 and gcd(lcd, *nums) == 1
    assert all(type(c) is (int if F(c).denominator == 1 else F) for c in s.coeffs)
    assert _integers(Series(s.coeffs)) == (nums, lcd)


def assert_matches(got, want):
    assert_canonical(got, len(want) - 1)
    assert got.coeffs == tuple(want)
    assert got == Series(want)


@given(pairs_of_lists)
def test_mul_matches_reference(pair):
    a, b = pair
    assert_matches(Series(a) * Series(b), ref_mul(a, b))


@given(unit_lists)
def test_reciprocal_matches_reference(a):
    assert_matches(Series(a).reciprocal(), ref_reciprocal(a))


@given(series_lists, st.integers(0, 5))
def test_pow_int_matches_reference(a, k):
    assert_matches(Series(a).pow_int(k), ref_pow(a, k))


@given(series_lists, scalars)
def test_scale_and_negation_match_reference(a, c):
    assert_matches(Series(a).scale(c), [F(x) * c for x in a])
    assert_matches(-Series(a), [-F(x) for x in a])


@given(pairs_of_lists)
def test_add_sub_match_reference(pair):
    a, b = pair
    assert_matches(Series(a) + Series(b), [F(x) + y for x, y in zip(a, b)])
    assert_matches(Series(a) - Series(b), [F(x) - y for x, y in zip(a, b)])


@given(series_lists)
def test_construction_is_canonical(a):
    s = Series(a)
    assert_canonical(s, len(a) - 1)
    assert s.coeffs == tuple(a)


def test_storage_examples():
    assert _integers(Series([1, 0, 0])) == ((1, 0, 0), 1)
    assert _integers(Series([F(2, 4), F(3, 2), 0])) == ((1, 3, 0), 2)
    assert Series([F(4, 2), F(1, 3)]).coeffs == (2, F(1, 3)) and type(Series([F(4, 2), F(1, 3)])[0]) is int
    assert Series([F(1, 2), 0, F(1, 2)]) * Series([2, 0, 0]) == Series([1, 0, 1])
    assert _integers(Series([F(1, 2), 0, F(1, 2)]) * Series([2, 0, 0]))[1] == 1
    assert Series([-2, 0, 1]).reciprocal().coeffs == (F(-1, 2), 0, F(-1, 4))
    assert Series([F(-3, 7)]).reciprocal() == Series([F(-7, 3)])
    assert Series([F(1, 3), 1]) - Series([F(1, 3), 1]) == Series([0, 0])
    assert repr(Series([F(1, 2), 1])) == "Series([Fraction(1, 2), 1])"
    assert hash(Series([F(2, 4), 1])) == hash(Series([F(1, 2), F(2, 2)]))


def test_read_back_is_tuple_like():
    s = Series([F(1, 2), F(4, 2), 0, F(-1, 3)])
    assert s[-1] == F(-1, 3) and s[-4] == F(1, 2)
    assert s[1] == 2 and type(s[1]) is int and type(s[2]) is int
    assert [type(c) for c in s.coeffs] == [F, int, int, F]
    for i in (4, -5):
        with pytest.raises(IndexError):
            s[i]


def test_log1p():
    assert log1p_series(3).coeffs == (0, 1, F(-1, 2), F(1, 3))


def test_log_series_equal_their_defining_fractions():
    # each is one 1/j row over one denominator; the coefficients are the definitions'
    for order in range(41):
        log1p = Series([F(0)] + [F((-1) ** (n + 1), n) for n in range(1, order + 1)])
        log1p_over_t = Series([F((-1) ** n, n + 1) for n in range(order + 1)])
        for built, defined in ((log1p_series(order), log1p),
                               (log1p_over_t_series(order), log1p_over_t)):
            assert built == defined, order
            assert (built.order, built.coeffs) == (order, defined.coeffs)


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
    # the rows of A exp(x g) against the defining sum sum_j A g^j x^j / j!,
    # taken by the reference loop over Fractions; every third coefficient of
    # g is zero
    a = [F(2 * k - 3, k + 1) for k in range(order + 1)]
    g = [0] + [F(k, 3) - F(1, k) if k % 3 else 0 for k in range(1, order + 1)]
    want = ref_sheffer_powers(a, g)
    rows = sheffer_rows(lambda _: Series(a), lambda _: Series(g), order)
    assert rows == tuple(Poly([want[j][n] for j in range(n + 1)]) for n in range(order + 1))


# g = t h(t) for h dense, h a constant (g = c t), h with interior zeros, and
# h with trailing zeros.
# Small coefficients keep the order-20 reference products quick.
nonzero = st.builds(F, st.integers(1, 30) | st.integers(-30, -1), st.integers(1, 12))
small = st.just(0) | nonzero


def g_lists(order):
    shapes = (
        st.lists(nonzero, min_size=order, max_size=order),
        nonzero.map(lambda c: [c] + [0] * (order - 1)),
        st.lists(small, min_size=order, max_size=order),
        st.integers(0, order).flatmap(lambda w: st.lists(nonzero, min_size=w, max_size=w)
                                      .map(lambda h: h + [0] * (order - w))),
    )
    return st.sampled_from(shapes).flatmap(lambda shape: shape).map(lambda h: [0] + h[:order])


sheffer_pairs = st.integers(0, 20).flatmap(
    lambda n: st.tuples(st.lists(small, min_size=n + 1, max_size=n + 1), g_lists(n)))


def ref_sheffer_powers(a, g):
    """A g^j / j! for j = 0..order, each a full list t^0..t^order, by the
    truncated products of the reference loop scaled by 1/(j+1)."""
    powers = [[F(c) for c in a]]
    for j in range(len(a) - 1):
        powers.append([c / (j + 1) for c in ref_mul(powers[-1], g)])
    return powers


@given(sheffer_pairs)
def test_sheffer_rows_match_reference(pair):
    a, g = pair
    order = len(a) - 1
    A, G = (lambda n: Series(a[:n + 1])), (lambda n: Series(g[:n + 1]))
    want = ref_sheffer_powers(a, g)
    rows = sheffer_rows(A, G, order)
    assert rows == tuple(Poly([want[j][n] for j in range(n + 1)]) for n in range(order + 1))


@pytest.mark.parametrize("order", [0, 1, 2, 7, 30])
def test_neg_log1p_powers_extend_to_the_table_built_at_once(order):
    # row m of the first-kind triangle with the sign (-1)^m, the basis the
    # Cauchy pairs read, is m! [t^m] exp(x (-log(1+t))), m! times row m of
    # sheffer_rows at A = 1; a triangle stepped up to `order` in two parts
    # holds the same rows
    rows = sheffer_rows(Series.one, lambda n: -log1p_series(n), order)
    want = [row * factorial(m) for m, row in enumerate(rows)]
    assert [Poly(row) / d * (-1) ** m for m, (row, d) in enumerate(_rising(order))] == want
    triangle = _Triangle("stirling1", _step_s1)
    triangle.row(order // 2)
    assert [Poly(triangle.row(m)) * (-1) ** m for m in range(order + 1)] == want


def test_pair_numbers_are_the_families_numbers():
    # i! A_i of the Cauchy pairs are the Cauchy numbers, and those of the
    # Bernoulli pair are those of the reciprocal series to the power alpha
    (nums, den), _, _ = _cauchy(1, 30)
    assert [F(c, den) for c in nums] == [cauchy_number("first", i, 1) for i in range(31)]
    (nums, den), _, _ = _cauchy(-1, 30)
    assert [F(c, den) for c in nums] == [cauchy_number("second", i, 1) for i in range(31)]
    h = Series([F(1, factorial(i + 1)) for i in range(31)])
    for alpha in range(6):
        (nums, den), _, _ = _gen_bernoulli(alpha, 30)
        want = h.reciprocal().pow_int(alpha).coeffs
        assert [F(c, den) for c in nums] == [c * factorial(i) for i, c in enumerate(want)]


def test_sheffer_rows_of_exp_xt():
    rows = sheffer_rows(Series.one, lambda n: Series([0, 1] + [0] * (n - 1)), 6)
    assert rows == tuple(Poly([0] * n + [F(1, factorial(n))]) for n in range(7))


def test_sheffer_rows_rejects_bad_input():
    with pytest.raises(ValueError, match="series order must be >= 0, got -1"):
        sheffer_rows(Series.one, log1p_series, -1)
    with pytest.raises(ValueError, match="zero constant term"):
        sheffer_rows(Series.one, Series.one, 3)


def test_sheffer_rows_reject_a_series_of_the_wrong_order():
    # a g one order short once gave row 3 as 1 + x/2 + x^3/6, not 1 + 5x/6 + x^3/6
    def ones(n):
        return Series([1] * (n + 1))

    assert sheffer_rows(ones, log1p_series, 3)[3] == Poly([1, F(5, 6), 0, F(1, 6)])
    with pytest.raises(ValueError, match=r"g\(3\) has order 2, expected 3"):
        sheffer_rows(ones, lambda n: log1p_series(max(n - 1, 0)), 3)
    with pytest.raises(ValueError, match=r"A\(3\) has order 2, expected 3"):
        sheffer_rows(lambda n: Series([1] * n), log1p_series, 3)


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


# The rows, read in a fresh interpreter so that the first-kind triangle the
# Cauchy rows read starts empty.  Each family is compared with an oracle that
# builds no Sheffer row: both Cauchy kinds with gsn, and the order-alpha
# Bernoulli polynomials, alpha = 0..3, with the Norlund form, the alpha-fold
# convolution of the Bernoulli numbers.
_ORACLES = textwrap.dedent("""
    import sys, threading
    from functools import partial
    from math import comb, factorial
    from polycauchy import (Poly, bernoulli_number, cauchy_poly, gen_bernoulli_poly, gf_cauchy1,
                            gf_cauchy2, gf_gen_bernoulli)

    def norlund(n, alpha):
        numbers = [1] + [0] * n
        for _ in range(alpha):
            numbers = [sum(comb(k, j) * numbers[j] * bernoulli_number(k - j) for j in range(k + 1))
                       for k in range(n + 1)]
        return Poly([comb(n, i) * numbers[n - i] for i in range(n + 1)])

    def oracles(n):
        return [cauchy_poly(kind, n, 1, "gsn") for kind in ("first", "second")] + [
            norlund(n, alpha) for alpha in range(4)]
""")

# One row at a time, in the order given on the command line, through
# cauchy_poly and gen_bernoulli_poly; prints the rows that differ.
_ONE_ROW_AT_A_TIME = _ORACLES + textwrap.dedent("""
    orders = [int(n) for n in sys.argv[1].split(",")]
    bad = [n for n in orders if [cauchy_poly(kind, n, 1, "series") for kind in ("first", "second")]
           + [gen_bernoulli_poly(n, alpha) for alpha in range(4)] != oracles(n)]
    print(bad)
""")

# Four threads, each asking the generating functions for all rows up to its
# own order; prints the threads whose rows differ from the oracles'.
_FOUR_THREADS = _ORACLES + textwrap.dedent("""
    ORDERS = (12, 24, 36, 48)
    families = (gf_cauchy1, gf_cauchy2, *[partial(gf_gen_bernoulli, alpha) for alpha in range(4)])
    results = {}

    def worker(i):
        rows = [gf(ORDERS[i]) for gf in families]
        results[i] = [[r[n] * factorial(n) for r in rows] for n in range(ORDERS[i] + 1)]

    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    want = [oracles(n) for n in range(max(ORDERS) + 1)]
    print([i for i in range(4) if results.get(i) != want[:ORDERS[i] + 1]])
""")


def _fresh(session: str, *args: str) -> str:
    """The output of a session run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(polycauchy.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", session, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    return done.stdout.strip()


@pytest.mark.parametrize("orders", ["5,17,40", "40,17,5"])
def test_rows_read_from_a_held_table_equal_the_oracles(orders):
    # descending, every order after the first reads triangle rows the first filled
    assert _fresh(_ONE_ROW_AT_A_TIME, orders) == "[]"


def test_threads_asking_for_different_orders_get_the_oracles_rows():
    assert _fresh(_FOUR_THREADS) == "[]"
