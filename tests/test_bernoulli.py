import random
import sys
import threading
from fractions import Fraction as F
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycauchy import (
    Poly,
    bernoulli_number,
    bernoulli_poly,
    euler_poly,
    gen_bernoulli_poly,
    gsn2,
    multiparam_poly_bernoulli,
    poly_bernoulli_gsn,
    poly_bernoulli_kl,
    power_sum_poly,
    stirling2,
)
import polycauchy.bernoulli as bernoulli_module


def test_bernoulli_polys():
    assert bernoulli_poly(0) == Poly([1])
    assert bernoulli_poly(1) == Poly([F(-1, 2), 1])
    assert bernoulli_poly(2) == Poly([F(1, 6), -1, 1])
    assert bernoulli_poly(4)(F(0)) == F(-1, 30)


def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == F(-1, 2)
    assert bernoulli_number(2) == F(1, 6)
    assert bernoulli_number(4) == F(-1, 30)
    assert all(bernoulli_number(2 * m + 1) == 0 for m in range(1, 7))
    with pytest.raises(ValueError):
        bernoulli_number(-1)


def test_concurrent_fill_of_a_fresh_memo(monkeypatch):
    want = [bernoulli_number(n) for n in range(161)]
    monkeypatch.setattr(bernoulli_module, "_EVEN", [F(1), F(1, 6)])
    monkeypatch.setattr(bernoulli_module, "_TANGENT_COLUMN", [1])
    results = {}

    def worker(i):
        ns = list(range(161))
        random.Random(i).shuffle(ns)
        results[i] = {n: bernoulli_number(n) for n in ns}

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert all([r[n] for n in range(161)] == want for r in results.values())
    assert len(results) == 8


def test_tangent_numbers_match_the_sheffer_rows():
    # the numbers come from the tangent numbers, the polynomials from the
    # generating function (t/(e^t - 1)) e^(xt): at x = 0 they agree
    for n in range(61):
        assert bernoulli_number(n) == bernoulli_poly(n).constant(), n


def test_reflection_value():
    for n in range(13):
        assert bernoulli_poly(n)(F(1)) == (-1) ** n * bernoulli_number(n)


def test_difference_equation():
    for n in range(1, 13):
        lhs = bernoulli_poly(n).affine_compose(1, 1) - bernoulli_poly(n)
        assert lhs == Poly([0] * (n - 1) + [n])


def test_gen_bernoulli():
    for n in range(6):
        assert gen_bernoulli_poly(n, 0) == Poly([0] * n + [1])
    # Appell derivative rule at every order
    for alpha in range(6):
        for n in range(1, 11):
            got = gen_bernoulli_poly(n, alpha).derivative()
            assert got == gen_bernoulli_poly(n - 1, alpha) * n
    with pytest.raises(ValueError):
        gen_bernoulli_poly(2, -1)


def test_power_sum():
    assert power_sum_poly(2)(F(3)) == 14
    assert power_sum_poly(1) == Poly([0, F(1, 2), F(1, 2)])
    for n in range(1, 8):
        assert power_sum_poly(n)(F(0)) == 0
    for n in range(6):
        for m in range(1, 6):
            assert power_sum_poly(n)(F(m)) == sum(F(i) ** n for i in range(1, m + 1))


def test_euler_polys():
    assert euler_poly(0) == Poly([1])
    assert euler_poly(1) == Poly([F(-1, 2), 1])
    assert euler_poly(3)(F(0)) == F(1, 4)


def test_euler_half_interval_integration():
    # integral of the Bernoulli polynomial over [a, a+1/2] equals
    # E_n(2a)/2^(n+1), as a polynomial identity in a
    for n in range(11):
        anti = bernoulli_poly(n + 1) / (n + 1)
        lhs = anti.affine_compose(1, F(1, 2)) - anti
        rhs = euler_poly(n).stretch(2) * F(1, 2 ** (n + 1))
        assert lhs == rhs


def test_bernoulli_from_second_kind_stirling():
    for n in range(11):
        total = Poly()
        for m in range(n + 1):
            total = total + gsn2(n, m) * F((-1) ** m * factorial(m), m + 1)
        assert total == bernoulli_poly(n)


def test_poly_bernoulli_examples():
    assert poly_bernoulli_gsn(1, 2)(F(0)) == F(1, 4)
    for k in range(1, 5):
        assert poly_bernoulli_gsn(0, k) == Poly([1])
    # oracle: direct m-sum over the plain triangle at x = 0
    def direct(n, k):
        return sum(
            F((-1) ** (n + m) * factorial(m), (m + 1) ** k) * stirling2(n, m)
            for m in range(n + 1)
        )

    assert direct(2, 1) == F(1, 6)
    assert poly_bernoulli_gsn(2, 1)(F(0)) == F(1, 6)
    for n in range(7):
        for k in range(1, 4):
            assert poly_bernoulli_gsn(n, k)(F(0)) == direct(n, k)


def test_poly_bernoulli_domain():
    with pytest.raises(ValueError):
        poly_bernoulli_gsn(2, 0)
    with pytest.raises(ValueError):
        poly_bernoulli_kl(2, 0)
    with pytest.raises(ValueError):
        poly_bernoulli_gsn(-1, 1)
    with pytest.raises(ValueError):
        poly_bernoulli_kl(-1, 1)


@pytest.mark.parametrize("fn", [euler_poly, power_sum_poly])
def test_negative_degree_rejected(fn):
    with pytest.raises(ValueError, match="degree must be >= 0"):
        fn(-1)


def test_poly_bernoulli_kl():
    for k in range(1, 4):
        assert poly_bernoulli_kl(0, k) == Poly([1])
        for n in range(7):
            assert poly_bernoulli_kl(n, k)(F(0)) == poly_bernoulli_gsn(n, k)(F(0))
    # brute-force double-sum oracle
    def direct(n, k):
        total = Poly()
        for m in range(n + 1):
            inner = Poly()
            for i in range(m + 1):
                inner = inner + Poly([0] * i + [F((-1) ** i * comb(m, i), (m - i + 1) ** k)])
            total = total + inner * ((-1) ** (n + m) * factorial(m) * stirling2(n, m))
        return total

    for n in range(17):
        for k in range(1, 5):
            assert poly_bernoulli_kl(n, k) == direct(n, k), (n, k)


def test_multiparam_poly_bernoulli():
    # single-term base case: the constant is the product of the weights
    assert multiparam_poly_bernoulli(0, 2, 1, F(1), (F(3), F(1, 2)), F(0)) == Poly([F(3, 2)])
    # unit parameters collapse onto the alternative poly-Bernoulli family
    for n in range(6):
        for k in (1, 2):
            got = multiparam_poly_bernoulli(n, k, 1, F(1), (F(1),) * k, F(0))
            assert got == poly_bernoulli_kl(n, k)
    # direct sum oracle at a nontrivial parameter point
    n, k, a, q, L, y = 1, 1, 1, F(1, 2), (F(2),), F(1, 3)
    got = multiparam_poly_bernoulli(n, k, a, q, L, y)
    want = Poly()
    for m in range(n + 1):
        biv = sum(
            F((-1) ** (m - l) * comb(m, l)) * (y + l * q) ** n for l in range(m + 1)
        ) / (factorial(m) * q**m)
        inner = Poly()
        if m + a - 1 == 0:
            inner = Poly([L[0]])
        else:
            for i in range(m + a):
                inner = inner + Poly(
                    [0] * (m + a - 1 - i)
                    + [F((-1) ** i * comb(m + a - 1, i), (i + 1) ** k) * L[0] ** (i + 1)]
                )
        want = want + inner * (factorial(m) * biv)
    want = want * (-1) ** n
    assert got == want


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(st.integers(0, 8), st.integers(1, 3), st.sampled_from([0, F(0)]),
       st.lists(rationals.filter(bool), min_size=1, max_size=3), rationals)
def test_multiparam_poly_bernoulli_refuses_a_zero_step(n, a, q, L, y):
    with pytest.raises(ValueError, match="needs q != 0"):
        multiparam_poly_bernoulli(n, len(L), a, q, L, y)


def test_multiparam_poly_bernoulli_domain():
    # q = 0 at every n, n = 0 included
    for n in range(3):
        with pytest.raises(ValueError):
            multiparam_poly_bernoulli(n, 1, 1, 0, (F(1),), F(0))
    with pytest.raises(ValueError):
        multiparam_poly_bernoulli(1, 1, 1, F(1), (F(0),), F(0))
    with pytest.raises(ValueError):
        multiparam_poly_bernoulli(1, 1, 0, F(1), (F(1),), F(0))
    with pytest.raises(ValueError):
        multiparam_poly_bernoulli(1, 1, F(3, 2), 1, (1,), 0)
    with pytest.raises(ValueError):
        multiparam_poly_bernoulli(1, 0, 1, F(1), (), F(0))
