import random
import sys
import threading
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycauchy import (
    Poly,
    binom_poly,
    gf_harmonic_poly,
    gf_hyperharmonic,
    harmonic_number,
    harmonic_poly,
    hyperharmonic_poly,
)
import polycauchy.harmonic as harmonic_module
import polycauchy.stirling as stirling
from polycauchy.stirling import _Triangle, rising_factorial_poly

GOLDEN = {
    0: Poly(),
    1: Poly([1]),
    2: Poly([F(1, 2), 1]),
    3: Poly([F(1, 3), 1, F(1, 2)]),
    4: Poly([F(1, 4), F(11, 12), F(3, 4), F(1, 6)]),
    5: Poly([F(1, 5), F(5, 6), F(7, 8), F(1, 3), F(1, 24)]),
    6: Poly([F(1, 6), F(137, 180), F(15, 16), F(17, 36), F(5, 48), F(1, 120)]),
    7: Poly([F(1, 7), F(7, 10), F(29, 30), F(7, 12), F(25, 144), F(1, 40), F(1, 720)]),
}


def test_harmonic_numbers():
    assert harmonic_number(0) == 0
    assert harmonic_number(1) == 1
    assert harmonic_number(3) == F(11, 6)
    with pytest.raises(ValueError):
        harmonic_number(-1)


@given(st.integers(0, 200))
def test_harmonic_number_matches_a_fraction_loop(n):
    want = F(0)
    for j in range(1, n + 1):
        want += F(1, j)
    got = harmonic_number(n)
    assert type(got) is F and got == want


def test_harmonic_number_large_index():
    # 5000 is beyond the default recursion limit
    assert harmonic_number(5000) == sum(F(1, j) for j in range(1, 5001))


def test_hyperharmonic_golden_table():
    for n, want in GOLDEN.items():
        assert hyperharmonic_poly(n) == want


def test_hyperharmonic_degree_and_specials():
    for n in range(1, 13):
        p = hyperharmonic_poly(n)
        assert p.degree == n - 1
        assert p(F(0)) == F(1, n)
        assert p(F(1)) == harmonic_number(n)


def test_series_oracle_matches_sum_form():
    s = gf_hyperharmonic(80)
    for n in range(81):
        assert s[n] == hyperharmonic_poly(n), n


def test_recurrence_matches_the_defining_sum():
    # the sum of binom(x + n - t - 1, n - t)/t over t = 1..n, each binomial
    # the rising factorial over (n - t)!
    for n in range(41):
        want = sum((rising_factorial_poly(n - t) * F(1, t * factorial(n - t))
                    for t in range(1, n + 1)), Poly())
        assert hyperharmonic_poly(n) == want, n


def test_concurrent_fill_of_a_fresh_memo(monkeypatch):
    want = [hyperharmonic_poly(n) for n in range(81)]
    # fresh first-kind rows too, so threads take both locks, in their one order
    monkeypatch.setitem(stirling._TRIANGLES, "stirling1", _Triangle("stirling1", stirling._step_s1))
    monkeypatch.setattr(harmonic_module, "_HYPER",
                        _Triangle("hyperharmonic", harmonic_module._step_hyper, ()))
    results = {}

    def worker(i):
        ns = list(range(81))
        random.Random(i).shuffle(ns)
        results[i] = {n: hyperharmonic_poly(n) for n in ns}

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
    assert all([r[n] for n in range(81)] == want for r in results.values())
    assert len(results) == 8


def test_derivative_representation():
    # the index-(j+1) polynomial is the derivative of binom(y+j, j+1)
    for j in range(11):
        assert hyperharmonic_poly(j + 1) == binom_poly(j, 1, j + 1).derivative()


def test_value_at_minus_one():
    assert hyperharmonic_poly(1)(F(-1)) == 1
    for n in range(1, 11):
        assert hyperharmonic_poly(n + 1)(F(-1)) == F(-1, n * (n + 1))


def test_harmonic_poly():
    assert harmonic_poly(0) == Poly([1])
    assert harmonic_poly(1) == Poly([F(3, 2), -1])
    for m in range(11):
        assert harmonic_poly(m)(F(0)) == harmonic_number(m + 1)
        assert harmonic_poly(m).degree == m
    s = gf_harmonic_poly(8)
    for m in range(9):
        assert s[m] == harmonic_poly(m)
    with pytest.raises(ValueError):
        harmonic_poly(-1)
