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
from polycauchy.cauchy import _poly_gsn, cauchy_coefficient

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


# Five library memos flooded with four times their bounds of distinct keys, at
# degree 0 so that each call is cheap and the bytes kept are the memo entries
# themselves: 8,192 keys each for cauchy_number and for cauchy_poly's gsn memo
# (bound 2,048), 2,048 for gen_bernoulli_poly (512) and 1,024 for each
# poly-Bernoulli form (256).  gsn1 and gsn2 are left out: 4 x 4,096 keys (n, m)
# need rows past n = 180.
_FLOOD_SESSION = textwrap.dedent("""
    import gc, tracemalloc
    from polycauchy import cauchy_number, cauchy_poly, gen_bernoulli_poly, poly_bernoulli_gsn, poly_bernoulli_kl
    cauchy_poly("first", 0, 1)
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    for k in range(1, 4097):
        for kind in ("first", "second"):
            cauchy_number(kind, 0, k)
            cauchy_poly(kind, 0, k)
    for k in range(1, 2049):
        gen_bernoulli_poly(0, k)
    for k in range(1, 1025):
        poly_bernoulli_gsn(0, k)
        poly_bernoulli_kl(0, k)
    gc.collect()
    print(tracemalloc.get_traced_memory()[0] - before)
""")

# about 1.4 MB with the bounds (Python 3.11), 3.8 MB when the memos were unbounded
FLOOD_BUDGET = 2 * 1024 * 1024


def _retained(session: str) -> int:
    """The bytes a session's measured part leaves allocated, in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(polycauchy.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", session], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return int(done.stdout)


def test_unmemoised_families_retain_under_budget():
    assert _retained(_SESSION) < RETAINED_BUDGET


def test_moment_sums_over_fresh_weights_retain_nothing():
    # nothing at all here; the bound leaves room for the interpreter's own caches
    assert _retained(_MOMENT_SESSION) < 1024


def test_memos_flooded_past_their_bounds_retain_under_budget():
    assert _retained(_FLOOD_SESSION) < FLOOD_BUDGET


def test_threads_evicting_a_bounded_memo_get_equal_results():
    # more keys than either memo holds, each read twice per thread in its own
    # order, so entries are evicted and computed again while other threads read
    keys = [(kind, n, k) for kind in ("first", "second") for n in range(4) for k in range(1, 301)]
    memos = (cauchy_number, _poly_gsn)
    for memo in memos:
        assert len(keys) > (memo.cache_info().maxsize or len(keys))
        memo.cache_clear()
    want = {key: cauchy_coefficient(*key[:2], 0, key[2]) for key in keys}
    results = {}

    def worker(i):
        order = keys * 2
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
