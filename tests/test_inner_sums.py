"""The registries' inner sums, computed as polynomials or from integer rows of
values, against the plain-Fraction loops they replace: one Fraction per value,
product and partial sum, written here term by term."""

from fractions import Fraction as F
from math import factorial

from hypothesis import given
from hypothesis import strategies as st

from polycauchy.bernoulli import poly_bernoulli_gsn
from polycauchy.cauchy import KIND_SIGN, cauchy_number, cauchy_poly
from polycauchy.identities import get_case
from polycauchy.identities.registry_core import _inv_sum, _whitk
from polycauchy.identities.registry_poly import _kb_sum
from polycauchy.poly import Poly
from polycauchy.stirling import gsn1, gsn2, stirling1, whitney

kinds = st.sampled_from(["first", "second"])
indices = st.integers(0, 14)
orders = st.integers(1, 5)
# p/q with |p| <= 9 and q <= 7: zero, negatives and integers included
points = st.builds(F, st.integers(-9, 9), st.integers(1, 7))
whitney_ms = st.sampled_from([1, -1, 2, -2, 3])
nonzero_ms = st.integers(-7, 7).filter(bool)


def _kind_check(case_id):
    """The check behind a case registered per kind, taking the kind first."""
    return get_case(case_id).check.func


@given(kinds, indices, orders, points)
def test_inv_sum_at_y_matches_a_fraction_loop(kind, m, k, y):
    want = F(0)
    for l in range(m + 1):
        want += gsn2(m, l)(y) * cauchy_poly(kind, l, k)(KIND_SIGN[kind] * y)
    assert _inv_sum.__wrapped__(kind, m, k)(y) == want


@given(indices, orders, points)
def test_kb_sum_at_y_matches_a_fraction_loop(m, k, y):
    want = F(0)
    for l in range(m + 1):
        want += gsn1(m, l)(y) * poly_bernoulli_gsn(l, k)(y)
    assert _kb_sum.__wrapped__(m, k)(y) == want


def test_kb_sum_is_the_constant_m_factorial_over_m_plus_1_to_the_k():
    # so G17.kb3/kb4 read the same weights at every point y
    for m in range(13):
        for k in range(1, 6):
            assert _kb_sum(m, k) == Poly([F(factorial(m), (m + 1) ** k)]), (m, k)


@given(kinds, indices, orders, nonzero_ms, st.integers(-9, 9))
def test_whitk_right_side_matches_a_fraction_loop(kind, n, k, m, r):
    e = KIND_SIGN[kind]
    want = F(0)
    for l in range(n + 1):
        want += F((-1) ** n * (-e) ** l, (l + 1) ** k) * whitney("first", m, r, n, l) / F(m) ** (n - l)
    lhs, got = _whitk(kind, n, k, m, r)
    assert type(got) is F and got == want
    assert lhs == got


@given(kinds, indices, whitney_ms, st.integers(-9, 9))
def test_whit_rev_left_side_matches_a_fraction_loop(kind, n, m, r):
    point = F(KIND_SIGN[kind] * r, m)
    want = F(0)
    for l in range(n + 1):
        want += F(m) ** l * whitney("second", m, r, n, l) * cauchy_poly(kind, l, 1)(point)
    got, rhs = _kind_check("G08.whit1-rev")(kind, n, m, r)
    assert type(got) is F and got == want
    assert got == rhs


@given(kinds, indices, orders, st.integers(0, 5), st.data())
def test_korec_sides_match_fraction_loops(kind, n, k, r, data):
    r = min(r, n)
    s = data.draw(st.integers(0, r))
    e = KIND_SIGN[kind]
    want_lhs = F(0)
    for m in range(r, n + 1):
        want_lhs += gsn2(n - r, m - r)(r) * cauchy_poly(kind, m - s, k)(e * s)
    want_rhs = F(0)
    for l in range(s, r + 1):
        want_rhs += (F((-1) ** (n - s) * (-e) ** (n - s + r - l), (n + l - r - s + 1) ** k)
                     * gsn1(r - s, l - s)(F(s)))
    lhs, rhs = _kind_check("G15.korec1")(kind, n, k, r, s)
    assert (type(lhs), type(rhs)) == (F, F)
    assert (lhs, rhs) == (want_lhs, want_rhs)


@given(kinds, indices, orders, st.integers(0, 5))
def test_korec_s0_sides_match_fraction_loops(kind, n, k, r):
    e = KIND_SIGN[kind]
    want_lhs = F(0)
    for m in range(n + 1):
        want_lhs += gsn2(n, m)(F(r)) * cauchy_number(kind, m + r, k)
    want_rhs = F(0)
    for l in range(r + 1):
        want_rhs += F((-1) ** (n + r) * (-e) ** (n + l), (n + l + 1) ** k) * stirling1(r, l)
    lhs, rhs = _kind_check("G15.korec1-s0")(kind, n, k, r)
    assert (type(lhs), type(rhs)) == (F, F)
    assert (lhs, rhs) == (want_lhs, want_rhs)
