"""Memory held by families that keep no memo of their own, and by the
bounded memos of those that do."""

import os
import random
import subprocess
import sys
import textwrap
import threading

import polycauchy
from polycauchy import cauchy_number, cauchy_poly
from polycauchy.cauchy import _gsn_pair, _number_pair, cauchy_coefficient

# Euler and power-sum polynomials read the memoised Bernoulli rows, so the
# session warms those first; what it builds after them is dropped by each
# caller.  A fresh interpreter keeps other tests' calls out of the count.
_SESSION = textwrap.dedent("""
    import gc, tracemalloc
    from polycauchy import a_number, bernoulli_poly, euler_poly, harmonic_number, power_sum_poly
    for n in range(42):
        bernoulli_poly(n)
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    for n in range(40):
        euler_poly(n)
        power_sum_poly(n)
    for n in range(30):
        for m in range(n + 1):
            a_number(n, m)
    for n in range(300):
        harmonic_number(n)
    gc.collect()
    print(tracemalloc.get_traced_memory()[0] - before)
""")

# about 390 KB when each of the four families kept an unbounded memo
RETAINED_BUDGET = 64 * 1024

# 200 moment sums, each over fresh weights, of degrees up to 23 and orders k
# up to 3, at w = 1 and at other weight products; about 44 KB when the unit
# cube moments were memoised by (j, k)
_MOMENT_SESSION = textwrap.dedent("""
    import gc, tracemalloc
    from fractions import Fraction
    from polycauchy import Poly
    from polycauchy.cauchy import _moment_sum

    def moment_sum(i):
        weights = Poly([Fraction(i + m, 2 * m + 1) for m in range(i % 20 + 1)])
        L = tuple(Fraction(i + r + 2, r + 1) for r in range(1 + i % 3))
        _moment_sum(weights, len(L), L if i & 1 else (1,) * len(L), i // 50)

    moment_sum(0)
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    for i in range(1, 201):
        moment_sum(i)
    gc.collect()
    print(tracemalloc.get_traced_memory()[0] - before)
""")


# Six library memos flooded with four times their bounds of distinct keys, at
# degree 0 so that each call is cheap and the bytes kept are the memo entries
# themselves: 4,096 keys (0, k) each, asked for both kinds, for the Cauchy
# numbers' memo and cauchy_poly's gsn memo (bound 1,024), 4,096 steps q at
# y = 0, both kinds, for the integral memo (1,024), 2,048 for
# gen_bernoulli_poly (512) and 1,024 for each poly-Bernoulli form (256).
# gsn1 and gsn2 are left out: 4 x 4,096 keys (n, m) need rows past n = 180.
_FLOOD_SESSION = textwrap.dedent("""
    import gc, tracemalloc
    from polycauchy import (MultiParam, cauchy_number, cauchy_poly, gen_bernoulli_poly, multiparam_cauchy,
                            poly_bernoulli_gsn, poly_bernoulli_kl)
    cauchy_poly("first", 0, 1)
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    for k in range(1, 4097):
        for kind in ("first", "second"):
            cauchy_number(kind, 0, k)
            cauchy_poly(kind, 0, k)
            multiparam_cauchy(kind, MultiParam(0, 1, 1, k, (1,), 0), "integral")
    for k in range(1, 2049):
        gen_bernoulli_poly(0, k)
    for k in range(1, 1025):
        poly_bernoulli_gsn(0, k)
        poly_bernoulli_kl(0, k)
    gc.collect()
    print(tracemalloc.get_traced_memory()[0] - before)
""")

# about 1.6 MB with the bounds (Python 3.11; 1.1 MB before the integral memo),
# 3.8 MB when the memos were unbounded
FLOOD_BUDGET = 2 * 1024 * 1024


# Generating-function rows past n = 128, both Cauchy kinds at 128 and 136,
# and one Bernoulli row for each of 12 orders alpha, after the first-kind
# triangle the Cauchy rows read is filled to row 136.  The series module
# keeps nothing, and the Bernoulli rows' own memo is cleared before the
# bytes are read: 0 bytes are kept (Python 3.11.7).
_SERIES_SESSION = textwrap.dedent("""
    import gc, tracemalloc
    from polycauchy import cauchy_poly, gen_bernoulli_poly, stirling1
    stirling1(136, 0)
    cauchy_poly("first", 0, 1, "series")
    gen_bernoulli_poly(0, 0)
    gen_bernoulli_poly.cache_clear()
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    for n in (128, 136):
        for kind in ("first", "second"):
            cauchy_poly(kind, n, 1, "series")
    for alpha in range(12):
        gen_bernoulli_poly(128 + 8 * (alpha & 1), alpha)
    gen_bernoulli_poly.cache_clear()
    gc.collect()
    print(tracemalloc.get_traced_memory()[0] - before)
""")


def _output(session: str) -> str:
    """What a session prints, run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(polycauchy.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", session], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return done.stdout


def _retained(session: str) -> int:
    """The bytes a session's measured part leaves allocated, in a fresh interpreter."""
    return int(_output(session))


def test_unmemoised_families_retain_under_budget():
    assert _retained(_SESSION) < RETAINED_BUDGET


def test_moment_sums_over_fresh_weights_retain_nothing():
    # nothing at all here; the bound leaves room for the interpreter's own caches
    assert _retained(_MOMENT_SESSION) < 1024


def test_memos_flooded_past_their_bounds_retain_under_budget():
    assert _retained(_FLOOD_SESSION) < FLOOD_BUDGET


def test_threads_evicting_a_bounded_memo_get_equal_results():
    # more keys (n, k) than either memo holds, each read for both kinds twice
    # per thread in its own order, so entries are evicted and computed again
    # while other threads read
    keys = [(n, k) for n in range(4) for k in range(1, 301)]
    memos = (_number_pair, _gsn_pair)
    for memo in memos:
        assert len(keys) > (memo.cache_info().maxsize or len(keys))
        memo.cache_clear()
    kinds = ("first", "second")
    want = {(kind, *key): cauchy_coefficient(kind, key[0], 0, key[1]) for kind in kinds for key in keys}
    results = {}

    def worker(i):
        order = [(kind, *key) for kind in kinds for key in keys] * 2
        random.Random(i).shuffle(order)
        results[i] = all(cauchy_number(*key) == want[key] and cauchy_poly(*key)[0] == want[key]
                         for key in order)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert results == {i: True for i in range(4)}
    for memo in memos:
        info = memo.cache_info()
        assert info.currsize == info.maxsize and info.misses > len(keys)


def test_series_rows_keep_nothing_past_the_triangle():
    assert _retained(_SERIES_SESSION) < RETAINED_BUDGET
