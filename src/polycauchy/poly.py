"""Dense univariate polynomials with rational coefficients.

Coefficients are ints or Fractions.  Any other coefficient, scalar
operand, evaluation point or shift raises ``TypeError``, so an inexact
float cannot pass silently into an exact result.

Conventions:

* trailing zero coefficients are trimmed; the zero polynomial stores no
  coefficients and has ``degree == -1`` (a sentinel, not -infinity);
* ``==`` against a bare scalar compares with the constant polynomial.

Storage.  A Poly is stored as FLINT's ``fmpq_poly`` is: one tuple of
integer numerators over one denominator, in canonical form (trailing
zeros trimmed, denominator > 0, gcd of the numerators and the
denominator 1), so equal polynomials store equal pairs.  ``Poly(list)``
splits its coefficients once; every operation works on the integers and
builds no Fraction:

* ``==`` (a tuple compare), negation, ``*`` and ``/`` by an int or
  Fraction, ``derivative``, ``stretch`` by a rational factor,
  ``affine_compose`` with a rational shift;
* ``+`` and ``-``, through ``_sum_scaled``, the kernel of every sum below,
  and Poly x Poly products, through ``_product``, one integer convolution
  cut at a given size, which is also every truncated product of a
  :class:`~polycauchy.series.Series`;
* evaluation at a point and ``eval_at_sqrt``, both by one integer Horner
  loop, and ``integrate_01``, which build one Fraction per value;
* ``_lincomb``, every rational-weighted sum of polynomials, the library's
  and the identity catalogue's, ``_weighted_sum``, the same sum with its
  weights read from a Poly's coefficients, ``_cube_moments``, every sum of
  the cube moments w^(j+1) A_j(x/w) as one integer correlation,
  ``_scale_each``, each coefficient times its own integer scale,
  ``_newton_sum``, every sum over a nested basis of linear-factor products
  (binomials, falling and rising factorials, powers of a shifted argument) by
  one Horner pass, and ``_linear_product``, its one-weight case, a product of
  linear factors (``binom_poly`` and the multiparameter ``integral``
  oracle), ``_homogenised_row``, the values
  q^n p(y/q) of a list of polynomials as one Poly's coefficients (the
  bivariate Stirling rows and values), and ``_dot``, the sum of the products
  of two such rows' values, which builds one Fraction.  No other module
  reads or writes this form.

``coeffs``, ``[i]`` and ``str`` build the Fractions when read; they are
not kept.  Every coefficient reads back as an int when the whole polynomial
is integral (denominator 1), and as a Fraction otherwise, an integral one
too: ``Poly([Fraction(1, 2), 1])[1]`` is ``Fraction(1, 1)``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import factorial, gcd, lcm, prod
from operator import mul
from typing import Iterable

from .rational import _exact, _reciprocal_powers, format_rational, parse_rational

__all__ = [
    "Poly",
    "binom_poly",
    "eval_at_sqrt",
    "poly_to_strings",
    "poly_from_strings",
]


_INT = frozenset([int])
_RATIONAL = frozenset([int, Fraction])


def _stored(vec: tuple, den: int) -> "Poly":
    p = Poly.__new__(Poly)
    p._vec = vec
    p._den = den
    return p


def _over_one_denominator(cs) -> tuple[list, int]:
    """Rationals cs as integer numerators over the lcm of their denominators."""
    den = lcm(*[c.denominator for c in cs])
    return [c.numerator * (den // c.denominator) for c in cs], den


def _power(base, exponent: int, one):
    """base ** exponent (exponent >= 0) by square-and-multiply, from the unit one."""
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


def _make(nums, den: int) -> "Poly":
    """The Poly sum(nums[i] x^i) / den (den > 0), made canonical."""
    end = len(nums)
    while end and not nums[end - 1]:
        end -= 1
    if end < len(nums):
        nums = nums[:end]
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
    return _stored(tuple(nums), den)


def _horner(nums, u: int, v: int) -> int:
    """sum(nums[i] u^i v^(n-i)) for the n + 1 integers nums (n >= 0)."""
    terms = reversed(nums)
    acc = next(terms)
    if v == 1:
        for c in terms:
            acc = acc * u + c
        return acc
    v_power = 1
    for c in terms:
        v_power *= v
        acc = acc * u + c * v_power
    return acc


class Poly:
    """Immutable dense polynomial; index i holds the coefficient of x^i.

    ``_vec`` holds the integer numerators over the denominator ``_den``.
    """

    __slots__ = ("_vec", "_den")

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        types = set(map(type, cs))
        den = 1
        if not types <= _INT:
            if not types <= _RATIONAL:
                cs = list(map(_exact, cs))
            # already canonical: each prime power in the lcm is the full
            # denominator power of some reduced coefficient, whose scaled
            # numerator that prime does not divide
            cs, den = _over_one_denominator(cs)
        while cs and not cs[-1]:
            cs.pop()
        self._vec, self._den = tuple(cs), den

    @classmethod
    def gen(cls) -> "Poly":
        """The generator polynomial x."""
        return cls([0, 1])

    @property
    def coeffs(self) -> tuple:
        den = self._den
        if den == 1:
            return self._vec
        return tuple([Fraction(n, den) for n in self._vec])

    @property
    def degree(self) -> int:
        return len(self._vec) - 1

    def __bool__(self) -> bool:
        return bool(self._vec)

    def __len__(self) -> int:
        return len(self._vec)

    def __getitem__(self, i: int):
        if not 0 <= i < len(self._vec):
            return 0
        den = self._den
        if den == 1:
            return self._vec[i]
        return Fraction(self._vec[i], den)

    def constant(self):
        return self[0]

    def leading(self):
        return self[len(self._vec) - 1]

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._den == other._den and self._vec == other._vec
        # scalar: compare against the constant polynomial
        if self.degree > 0:
            return False
        return self[0] == other

    def __hash__(self):
        if self.degree <= 0:
            return hash(self[0])
        return hash(self.coeffs)

    def __neg__(self) -> "Poly":
        return _stored(tuple([-n for n in self._vec]), self._den)

    def __add__(self, other) -> "Poly":
        return _sum_scaled([(self._vec, 1, self._den), _term(other, 1)])

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        return _sum_scaled([(self._vec, 1, self._den), _term(other, -1)])

    def __rsub__(self, other) -> "Poly":
        return _sum_scaled([(self._vec, -1, self._den), _term(other, 1)])

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = _exact(other)
            return _make([n * other.numerator for n in self._vec], self._den * other.denominator)
        return _product(self, other, len(self._vec) + len(other._vec) - 1)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Poly":
        """Exact division by a nonzero rational scalar p/q: numerators times q
        over the denominator times p, with the sign of p moved to q."""
        scalar = _exact(scalar)
        p, q = scalar.numerator, scalar.denominator
        if not p:
            raise ZeroDivisionError("polynomial division by zero")
        if p < 0:
            p, q = -p, -q
        return _make([n * q for n in self._vec], self._den * p)

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        return _power(self, exponent, Poly([1]))

    def __call__(self, value):
        """Value at an int or Fraction point p/q: sum(nums[i] p^i q^(n-i)) / (den q^n),
        so the single gcd is the one in the final Fraction.  An int when the
        point and the coefficients are integral (or the polynomial is zero).
        """
        value = _exact(value)
        if not self._vec:
            return 0
        p, q, den = value.numerator, value.denominator, self._den
        acc = _horner(self._vec, p, q)
        if q == 1 and den == 1:
            return acc
        return Fraction(acc, den * q ** (len(self._vec) - 1))

    def map_coeffs(self, fn) -> "Poly":
        return Poly([fn(c) for c in self.coeffs])

    def derivative(self, order: int = 1) -> "Poly":
        """Formal derivative of the given order (order >= 0)."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        p = self
        for _ in range(order):
            p = _make([i * n for i, n in enumerate(p._vec)][1:], p._den)
        return p

    def integrate_01(self):
        """Exact integral over [0, 1]: sum of coeff_i / (i + 1)."""
        weights, den = _reciprocal_powers(1, len(self._vec) + 1, 1)
        return Fraction(sum(map(mul, self._vec, weights)), self._den * den)

    def affine_compose(self, sign: int, shift) -> "Poly":
        """Substitute x -> sign*x + shift with sign in {+1, -1}.

        With shift = p/q and n the degree: b_i = nums[i] q^(n-i) is shifted by
        the integer p (repeated synthetic division), then coefficient j is
        b'_j sign^j q^j / (den q^n).
        """
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        shift = _exact(shift)
        if not self._vec:
            return self
        p, q, den = shift.numerator, shift.denominator, self._den
        n = len(self._vec) - 1
        b = list(self._vec)
        if q != 1:
            scale = 1
            for i in range(n, -1, -1):
                b[i] *= scale
                scale *= q
            den *= scale // q
        if p:
            for i in range(n):
                acc = b[n]
                for j in range(n - 1, i - 1, -1):
                    acc = b[j] = b[j] + p * acc
        if q != 1:
            scale = 1
            for j in range(n + 1):
                b[j] *= scale
                scale *= q
        if sign < 0:
            b[1::2] = [-c for c in b[1::2]]
        return _make(b, den)

    def stretch(self, factor) -> "Poly":
        """Substitute x -> factor*x (coefficient i picks up factor^i)."""
        factor = _exact(factor)
        if not self._vec or factor == 1:
            return self
        # coefficient i is nums[i] p^i q^(n-i) / (den q^n), factor = p/q
        p, q = factor.numerator, factor.denominator
        out = list(self._vec)
        n = len(out) - 1
        up = down = 1
        for i in range(n + 1):
            out[i] *= up
            out[n - i] *= down
            up *= p
            down *= q
        return _make(out, self._den * down // q)

    def __str__(self) -> str:
        if not self._vec:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            body = str(c)
            if i == 0:
                parts.append(body)
            elif body == "1":
                parts.append(f"x^{i}" if i > 1 else "x")
            elif body == "-1":
                parts.append(f"-x^{i}" if i > 1 else "-x")
            else:
                parts.append(f"{body}*x^{i}" if i > 1 else f"{body}*x")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


def _term(w, sign: int) -> tuple:
    """A Poly, int or Fraction w times the sign, as a ``_sum_scaled`` triple."""
    vec, den = _split(w if isinstance(w, Poly) else _exact(w))
    return vec, sign, den


def _product(p: Poly, q: Poly, size: int) -> Poly:
    """p q modulo x^size, FLINT's ``fmpq_poly_mullow``: one integer
    convolution of the numerators, cut at size, over the product of the
    denominators, made canonical once."""
    a, b = p._vec, q._vec
    if len(a) > len(b):
        a, b = b, a
    out = [0] * min(size, len(a) + len(b) - 1)
    m = len(b)
    for i, x in enumerate(a[:size]):
        if x:
            out[i:i + m] = [o + x * y for o, y in zip(out[i:i + m], b)]
    return _make(out, p._den * q._den)


def _lincomb(terms) -> Poly:
    """sum c p over the (c, p) pairs, c an int or Fraction: each term's
    numerators are brought over the lcm of every term's denominator, and the
    total is made canonical once.  Zero weights and polynomials are skipped."""
    return _sum_scaled([(p._vec, c.numerator, p._den * c.denominator) for c, p in terms if c and p._vec])


def _weighted_sum(weights: Poly, polys) -> Poly:
    """sum_m weights[m] polys[m], the weights read as integer numerators over
    weights' denominator, summed as ``_lincomb`` sums.  polys holds at least
    one polynomial per coefficient of weights."""
    den = weights._den
    return _sum_scaled([(p._vec, c, p._den * den) for c, p in zip(weights._vec, polys) if c and p._vec])


def _sum_scaled(scaled) -> Poly:
    """sum numerator vec / d over the (vec, numerator, d) triples, in integers
    over the lcm of the d's, made canonical once."""
    den = lcm(*[d for _, _, d in scaled])
    total = [0] * max([len(vec) for vec, _, _ in scaled], default=0)
    for vec, numerator, d in scaled:
        factor = numerator * (den // d)
        total[:len(vec)] = [t + factor * v for t, v in zip(total, vec)]
    return _make(total, den)


def _cube_moments(weights: Poly, k: int, u: int, v: int, shift: int) -> Poly:
    """sum_m c_m w^(m+shift+1) A_(m+shift)(x/w) for the coefficients c_m of
    weights, w = u/v (u != 0, v > 0) and the unit-cube moments
    A_j(x) = sum_i (-1)^i binom(j, i) x^(j-i) / (i+1)^k.  With N the top
    degree, d the numerators of weights behind shift zeros and R_i / B the
    weights 1/(i+1)^k, coefficient r is the one correlation
    sum_i a_i binom(r+i, i) d_(r+i), a_i = (-1)^i R_i u^(i+1) v^(N-i), over
    B v^(N+1) times weights' denominator.  Row r of the binomials is the
    prefix sums of row r - 1, and the whole is made canonical once."""
    cs = weights._vec
    top = len(cs) - 1 + shift
    recips, base = _reciprocal_powers(1, top + 2, k)
    ups = accumulate([u] + [-u] * top, mul)
    downs = list(accumulate([1] + [v] * top, mul))
    alphas = list(map(mul, map(mul, recips, ups), reversed(downs)))
    column = [0] * shift + list(cs)
    binoms = [1] * (top + 1)
    out = []
    for r in range(top + 1):
        out.append(sum(map(mul, map(mul, alphas, binoms), column[r:])))
        binoms = list(accumulate(binoms[:top - r]))
    return _make(out, weights._den * base * downs[-1] * v)


def _scale_each(p: Poly, scales) -> Poly:
    """The Poly whose coefficient i is p[i] times the integer scales[i]."""
    return _make([c * f for c, f in zip(p._vec, scales)], p._den)


def _newton_sum(weights, shifts, slope: int, divisors) -> Poly:
    """sum_m w_m prod_(j<m) (shifts[j] + slope x) / divisors[j] for the
    weights w_m (each a Poly, int or Fraction), int or Fraction shifts, an int
    slope and int divisors > 0, one shift and one divisor for each weight but
    the last, by Horner's rule from the last nonzero weight w_n.  Over the
    lcm Q of the shifts' denominators each factor is
    (a_j + slope Q x) / (Q divisors[j]) with a_j an integer, and over the lcm
    E of the weights' denominators the partial sum from m on times
    E prod_(m<=j<n) Q divisors[j] is an integer polynomial: each step
    multiplies it by one linear factor, and a nonzero w_m adds its scaled
    numerators.  The total is made canonical once, over
    E prod_(j<n) Q divisors[j]."""
    n = len(weights) - 1
    while n >= 0 and not weights[n]:
        n -= 1
    if n < 0:
        return _stored((), 1)
    nums, q = _over_one_denominator(shifts[:n])
    b = slope * q
    vec, scale = _split(weights[n])
    acc = list(vec)
    if any(weights[:n]):
        common = lcm(scale, *[w._den if isinstance(w, Poly) else w.denominator for w in weights[:n] if w])
        f = common // scale
        acc = [c * f for c in acc]
        scale = common
    # scale is E prod_(top<=j<n) Q divisors[j], top the last step that added a weight
    top = n
    for m in range(n - 1, -1, -1):
        a = nums[m]
        # a slope of 1 or -1 needs no multiplication
        if b == 1:
            acc = [a * lo + hi for lo, hi in zip(acc + [0], [0] + acc)]
        elif b == -1:
            acc = [a * lo - hi for lo, hi in zip(acc + [0], [0] + acc)]
        else:
            acc = [a * lo + b * hi for lo, hi in zip(acc + [0], [0] + acc)]
        if weights[m]:
            scale *= prod(divisors[m:top]) * q ** (top - m)
            top = m
            vec, d = _split(weights[m])
            if len(vec) > len(acc):
                acc += [0] * (len(vec) - len(acc))
            f = scale // d
            acc[:len(vec)] = [t + f * c for t, c in zip(acc, vec)]
    return _make(acc, scale * prod(divisors[:top]) * q ** top)


def _split(w) -> tuple:
    """The integer numerators and the denominator of a Poly, int or Fraction w."""
    return (w._vec, w._den) if isinstance(w, Poly) else ((w.numerator,), w.denominator)


def _linear_product(shifts, slope: int, den: int = 1) -> Poly:
    """prod_j (shifts[j] + slope x) / den for int or Fraction shifts, an int
    slope and an int den > 0: the Newton sum whose one weight, the last, is 1/den."""
    n = len(shifts)
    return _newton_sum([0] * n + [_stored((1,), den)], shifts, slope, [1] * n)


def _homogenised_row(polys, y, q) -> Poly:
    """The values q^(n_m) p_m(y/q) of the nonzero polynomials p_m, of degrees
    n_m, as the coefficients of one Poly: coefficient m is the value of p_m,
    and ``_scale_each`` scales the row by integers.  With y = a/b, q = c/d
    and D the lcm of the p_m's denominators, value m is
    _horner(nums_m, ad, cb) (D/den_m) (bd)^(n - n_m) over D (bd)^n, n the
    largest degree, and the row is made canonical once.  At q = 0 the loop
    leaves the leading term alone, times y^(n_m)."""
    y, q = _exact(y), _exact(q)
    b, d = y.denominator, q.denominator
    u, v, s = y.numerator * d, q.numerator * b, b * d
    n = max([len(p._vec) for p in polys]) - 1
    den = lcm(*[p._den for p in polys])
    nums = [_horner(p._vec, u, v) * (den // p._den) * s ** (n + 1 - len(p._vec)) for p in polys]
    return _make(nums, den * s**n)


def _dot(a: Poly, b: Poly) -> Fraction:
    """sum_i a[i] b[i], over the coefficients the two have in common: the
    integer dot product of the numerators over a's denominator times b's."""
    return Fraction(sum(map(mul, a._vec, b._vec)), a._den * b._den)


def binom_poly(shift=0, sign: int = 1, n: int = 0) -> Poly:
    """Binomial coefficient binom(sign*x + shift, n) as a polynomial in x.

    ``shift`` is an int or Fraction.
    ``n! * binom_poly(0, 1, n)`` is the falling factorial (x)_n and
    ``n! * binom_poly(n - 1, 1, n)`` is the rising factorial x^(n).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if n < 0:
        raise ValueError("binomial order must be >= 0")
    shift = _exact(shift)
    return _linear_product([shift - j for j in range(n)], sign, factorial(n))


def eval_at_sqrt(p: Poly, radicand: int):
    """Split p(sqrt(d)) into (A, B) with p(sqrt(d)) = A + B*sqrt(d).

    A is the even-index part of p evaluated at d (x^2 -> d), B the
    odd-index part; exact, no algebraic number type involved.  Both are
    Fractions, and a float radicand raises ``TypeError``.
    """
    d = _exact(radicand)
    a, b = d.numerator, d.denominator
    parts = p._vec[0::2], p._vec[1::2]
    return tuple([Fraction(_horner(part, a, b), p._den * b ** (len(part) - 1)) if part
                  else Fraction(0) for part in parts])


def poly_to_strings(p: Poly) -> list[str]:
    """JSON form: list of rational coefficient strings, index = power."""
    return [format_rational(c) for c in p.coeffs]


def poly_from_strings(strings: Iterable[str]) -> Poly:
    """Inverse of ``poly_to_strings``: each item must be ``parse_rational`` text."""
    return Poly([parse_rational(s) for s in strings])
