"""Memory held by families that keep no memo of their own."""

import os
import subprocess
import sys
import textwrap

import polycauchy

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
