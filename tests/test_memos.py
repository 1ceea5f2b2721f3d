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


def test_unmemoised_families_retain_under_budget():
    src = os.path.dirname(os.path.dirname(polycauchy.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", _SESSION], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert int(done.stdout) < RETAINED_BUDGET
