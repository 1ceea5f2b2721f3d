"""Check the constructions past the deep grid's n against each other and their record.

    python ci/depth.py    # exit 1 on a comparison that fails or a value that differs from the record

``ROWS`` is the one declared table: each row computes one value and the value it
is compared with, as (function, arguments) calls, optionally read at a point.
One line per row is printed with its time.  ``ci/depth.json`` holds a sha256
of the text of each value computed, so an error shared by both sides of a row
fails here too; ``python ci/record.py`` writes it.  ``polycauchy`` must be
importable (installed, or ``PYTHONPATH=src``).
"""

import hashlib
import json
import sys
from dataclasses import fields
from fractions import Fraction as F
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

from polycauchy import (
    MultiParam, cauchy_number, cauchy_poly, cauchy_recurrence_step, multiparam_cauchy,
    poly_bernoulli_gsn, poly_bernoulli_kl, shifted_cauchy_number,
)

RECORD = Path(__file__).resolve().parent / "depth.json"
KINDS = ("first", "second")


class Call(NamedTuple):
    fn: Callable
    args: tuple
    at: object = None  # the point a polynomial is read at, if any

    def label(self) -> str:
        text = f"{self.fn.__name__}({', '.join(map(_arg, self.args))})"
        return text if self.at is None else f"{text}({self.at})"

    def value(self):
        value = self.fn(*self.args)
        return value if self.at is None else value(self.at)


def _arg(a) -> str:
    if isinstance(a, MultiParam):
        return f"MultiParam({', '.join(_arg(getattr(a, f.name)) for f in fields(a))})"
    if isinstance(a, tuple):
        return f"({', '.join(map(_arg, a))})"
    return repr(a) if isinstance(a, str) else str(a)


def _gsn_pairs(n, constructions):
    """Each (construction, k) of ``constructions`` against gsn at n, both kinds."""
    return [(Call(cauchy_poly, (kind, n, k, c)), Call(cauchy_poly, (kind, n, k, "gsn")))
            for kind in KINDS for c, ks in constructions for k in ks]


_MP40 = MultiParam(40, 3, 2, F(-3, 2), (F(1, 2), F(2), F(3)), F(5, 7))
# a negative weight product, w = -3/2, at y = 5/7 and at y = 0, where integral
# reads both kinds from one product
_MP40_SIGNED, _MP40_Y0 = (MultiParam(40, 2, 2, F(-3, 2), (F(-1, 2), F(3)), y) for y in (F(5, 7), F(0)))

# (what is computed, what it is compared with)
ROWS = (
    *(pair for n in (120, 80, 20) for pair in _gsn_pairs(n, (("series", (1,)),))),
    *_gsn_pairs(80, (("binomial_conv", (1, 3)), ("integral", (1, 3)), ("theorem1", (1,)))),
    # the recurrence step from n = 80 against the n = 81 polynomial
    *((Call(cauchy_recurrence_step, (kind, 80, k)), Call(cauchy_poly, (kind, 81, k)))
      for kind in KINDS for k in (1, 3)),
    *_gsn_pairs(160, (("integral", (1, 3)), ("binomial_conv", (1, 3)), ("series", (1,)))),
    # each kind's number, from the (n, k) memo's even/odd split, against the
    # constant term of the integral construction
    *((Call(cauchy_number, (kind, n, k)), Call(cauchy_poly, (kind, n, k, "integral"), 0))
      for kind in KINDS for n in (120, 200) for k in (1, 2, 3)),
    # the moment-sum poly-Bernoulli form equals the gsn form at x = 0 (only there)
    *((Call(poly_bernoulli_kl, (80, k), 0), Call(poly_bernoulli_gsn, (80, k), 0)) for k in (1, 2, 3)),
    # the multiparameter stirling route against its integral oracle
    *((Call(multiparam_cauchy, (kind, p)), Call(multiparam_cauchy, (kind, p, "integral")))
      for p in (_MP40, _MP40_SIGNED, _MP40_Y0) for kind in KINDS),
    # at y = 0 the value at 0 is the shifted number
    *((Call(multiparam_cauchy, (kind, _MP40_Y0), 0),
       Call(shifted_cauchy_number, (kind, 40, 2, 2, F(-3, 2), (F(-1, 2), F(3)))))
      for kind in KINDS),
)


def run(out=None) -> tuple[dict, list]:
    """Compute every row: {label: sha256 of the value's text} for each call, in
    table order, and the rows whose two values differ.  With ``out``, one line
    per row is printed there with its time."""
    values, digests, unequal = {}, {}, []
    for row in ROWS:
        start = perf_counter()
        for call in row:
            label = call.label()
            if label not in values:
                values[label] = call.value()
                digests[label] = hashlib.sha256(str(values[label]).encode()).hexdigest()
        lhs, rhs = (call.label() for call in row)
        same = values[lhs] == values[rhs]
        if not same:
            unequal.append(f"{lhs} != {rhs}")
        if out:
            print(f"{'ok' if same else 'FAIL'} {perf_counter() - start:7.3f} s  {lhs} == {rhs}", file=out)
    return digests, unequal


def main() -> int:
    digests, problems = run(sys.stdout)
    want = json.loads(RECORD.read_text())
    problems += [f"{label}: value differs from the record" for label in digests if want.get(label) != digests[label]]
    problems += [f"{label}: recorded value not computed" for label in want if label not in digests]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
