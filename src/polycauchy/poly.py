"""Dense univariate polynomials over an exact coefficient ring.

Coefficients may be ints, Fractions, or Poly values themselves (the
nested form is how two-variable work is done: the outer variable's
coefficients are polynomials in the inner variable).  Coefficients only
need ``+``, ``-``, ``*``, exact equality, and exact division by rational
scalars.

Conventions:

* trailing zero coefficients are trimmed; the zero polynomial stores no
  coefficients and has ``degree == -1`` (a sentinel, not -infinity);
* ``==`` against a bare scalar compares with the constant polynomial;
* a bare Poly operand of ``*`` / ``+`` is always treated as a polynomial
  in the *same* variable.  To scale a nested polynomial by an inner-ring
  value, wrap it first: ``outer * Poly([inner])``.

When every coefficient is an int or a Fraction, Poly x Poly products,
evaluation at an int or Fraction point and ``affine_compose`` with a
rational shift run on integer numerators over one common denominator
(the representation of FLINT's ``fmpq_poly``), and build one Fraction
per output value.  Results equal those of the generic coefficient loops,
which still serve nested coefficients and Poly arguments, in value,
``str``, ``hash`` and export form; only ``repr`` may differ, showing an
integral coefficient as ``2`` where it used to show ``Fraction(2, 1)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Iterable

__all__ = [
    "Poly",
    "binom_poly",
    "falling_factorial_poly",
    "rising_factorial_poly",
    "eval_at_sqrt",
    "poly_to_strings",
    "poly_from_strings",
]


_INT = frozenset([int])
_RATIONAL = frozenset([int, Fraction])


def _over_common_denominator(coeffs):
    """(integer numerators, common denominator) of rational coefficients.

    Returns None if some coefficient is neither an int nor a Fraction.
    """
    types = set(map(type, coeffs))
    if types <= _INT:
        return coeffs, 1
    if not types <= _RATIONAL:
        return None
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _from_common_denominator(nums, den) -> list:
    """Coefficients n/den, as ints when den is 1."""
    if den == 1:
        return nums
    return [Fraction(n, den) for n in nums]


class Poly:
    """Immutable dense polynomial; index i holds the coefficient of x^i."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def const(cls, value) -> "Poly":
        return cls([value])

    @classmethod
    def gen(cls) -> "Poly":
        """The generator polynomial x."""
        return cls([0, 1])

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __getitem__(self, i: int):
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return 0

    def constant(self):
        return self[0]

    def leading(self):
        return self._coeffs[-1] if self._coeffs else 0

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            if len(self._coeffs) != len(other._coeffs):
                return False
            return all(a == b for a, b in zip(self._coeffs, other._coeffs))
        # scalar: compare against the constant polynomial
        if self.degree > 0:
            return False
        return self[0] == other

    def __hash__(self):
        if self.degree <= 0:
            return hash(self[0])
        return hash(self._coeffs)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self._coeffs])

    def __add__(self, other) -> "Poly":
        if isinstance(other, Poly):
            a, b = self._coeffs, other._coeffs
            if len(a) < len(b):
                a, b = b, a
            out = list(a)
            for i, c in enumerate(b):
                out[i] = out[i] + c
            return Poly(out)
        if not self._coeffs:
            return Poly([other])
        out = list(self._coeffs)
        out[0] = out[0] + other
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            a, b = self._coeffs, other._coeffs
            if not a or not b:
                return Poly()
            out = [0] * (len(a) + len(b) - 1)
            split_a = _over_common_denominator(a)
            split_b = split_a and _over_common_denominator(b)
            if split_b:
                (na, da), (nb, db) = split_a, split_b
                if len(na) > len(nb):
                    na, nb = nb, na
                m = len(nb)
                for i, x in enumerate(na):
                    if x:
                        out[i:i + m] = [o + x * y for o, y in zip(out[i:i + m], nb)]
                return Poly(_from_common_denominator(out, da * db))
            for i, ca in enumerate(a):
                if not ca:
                    continue
                for j, cb in enumerate(b):
                    out[i + j] = out[i + j] + ca * cb
            return Poly(out)
        return Poly([c * other for c in self._coeffs])

    def __rmul__(self, other) -> "Poly":
        return Poly([other * c for c in self._coeffs])

    def __truediv__(self, scalar) -> "Poly":
        """Exact division by a rational scalar."""
        return self * (Fraction(1) / scalar)

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = Poly([1])
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, value):
        """Horner evaluation; `value` may be a scalar or another Poly."""
        if isinstance(value, (int, Fraction)) and self._coeffs:
            split = _over_common_denominator(self._coeffs)
            if split is not None:
                return _eval_rational(*split, value.numerator, value.denominator)
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * value + c
        return acc

    def map_coeffs(self, fn) -> "Poly":
        return Poly([fn(c) for c in self._coeffs])

    def derivative(self, order: int = 1) -> "Poly":
        """Formal derivative of the given order (order >= 0)."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        p = self
        for _ in range(order):
            p = Poly([i * c for i, c in enumerate(p._coeffs)][1:])
        return p

    def integrate_01(self):
        """Exact integral over [0, 1]: sum of coeff_i / (i + 1)."""
        total = Fraction(0)
        for i, c in enumerate(self._coeffs):
            total = total + c * Fraction(1, i + 1)
        return total

    def affine_compose(self, sign: int, shift) -> "Poly":
        """Substitute x -> sign*x + shift with sign in {+1, -1}."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if isinstance(shift, (int, Fraction)):
            split = _over_common_denominator(self._coeffs)
            if split is not None:
                return Poly(_affine_compose_rational(*split, sign, shift))
        result = self(Poly([shift, sign]))
        return result if isinstance(result, Poly) else Poly([result])

    def stretch(self, factor) -> "Poly":
        """Substitute x -> factor*x (coefficient i picks up factor^i)."""
        out = []
        scale = Fraction(1)
        for c in self._coeffs:
            out.append(c * scale)
            scale *= factor
        return Poly(out)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self._coeffs):
            if not c:
                continue
            if isinstance(c, Poly):
                body = f"({c})"
            else:
                body = str(Fraction(c)) if not isinstance(c, Fraction) else str(c)
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
        return f"Poly({list(self._coeffs)!r})"


def _eval_rational(nums, den, p, q):
    """Value at p/q of sum(nums[i] x^i) / den, for nonempty nums.

    Homogeneous integer Horner: sum(nums[i] p^i q^(n-i)) / (den q^n), so
    the single gcd is the one in the final Fraction.
    """
    terms = reversed(nums)
    acc = next(terms)
    if q == 1:
        for c in terms:
            acc = acc * p + c
        return acc if den == 1 else Fraction(acc, den)
    q_power = 1
    for c in terms:
        q_power *= q
        acc = acc * p + c * q_power
    return Fraction(acc, den * q_power)


def _affine_compose_rational(nums, den, sign, shift) -> list:
    """Coefficients of sum(nums[i] (sign*x + shift)^i) / den, shift rational.

    With shift = p/q and n the degree: b_i = nums[i] q^(n-i) is shifted by
    the integer p (repeated synthetic division), then coefficient j is
    b'_j sign^j / (den q^(n-j)).
    """
    p, q = shift.numerator, shift.denominator
    n = len(nums) - 1
    b = list(nums)
    if q != 1:
        scale = 1
        for i in range(n, -1, -1):
            b[i] *= scale
            scale *= q
    if p:
        for i in range(n):
            acc = b[n]
            for j in range(n - 1, i - 1, -1):
                acc = b[j] = b[j] + p * acc
    if sign < 0:
        b[1::2] = [-c for c in b[1::2]]
    out = [0] * (n + 1)
    for j in range(n, -1, -1):
        out[j] = b[j] if den == 1 else Fraction(b[j], den)
        den *= q
    return out


def binom_poly(shift=0, sign: int = 1, n: int = 0) -> Poly:
    """Binomial coefficient binom(sign*x + shift, n) as a polynomial in x.

    ``shift`` may be a rational or an inner Poly (for nested work).
    ``n! * binom_poly(0, 1, n)`` is the falling factorial (x)_n and
    ``n! * binom_poly(n - 1, 1, n)`` is the rising factorial x^(n).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if n < 0:
        raise ValueError("binomial order must be >= 0")
    result = Poly([1])
    for j in range(n):
        result = result * Poly([shift - j, sign])
    return result / factorial(n)


def falling_factorial_poly(n: int) -> Poly:
    """(x)_n = x(x-1)...(x-n+1), with (x)_0 = 1."""
    return binom_poly(0, 1, n) * factorial(n)


def rising_factorial_poly(n: int) -> Poly:
    """x^(n) = x(x+1)...(x+n-1), with x^(0) = 1."""
    return binom_poly(n - 1, 1, n) * factorial(n)


def eval_at_sqrt(p: Poly, radicand: int):
    """Split p(sqrt(d)) into (A, B) with p(sqrt(d)) = A + B*sqrt(d).

    Uses even/odd coefficient splitting (x^2 -> d); exact, no algebraic
    number type involved.
    """
    a = Fraction(0)
    b = Fraction(0)
    power = Fraction(1)
    for i in range(0, p.degree + 1, 2):
        a += p[i] * power
        if i + 1 <= p.degree:
            b += p[i + 1] * power
        power *= radicand
    return a, b


def transpose_nested(p: Poly) -> Poly:
    """Swap the outer and inner variables of a nested polynomial."""
    rows = [c if isinstance(c, Poly) else Poly([c]) for c in p.coeffs]
    height = max((r.degree for r in rows), default=-1) + 1
    return Poly([Poly([row[j] for row in rows]) for j in range(height)])


def poly_to_strings(p: Poly) -> list[str]:
    """JSON form: list of rational coefficient strings, index = power."""
    return [str(Fraction(c)) for c in p.coeffs]


def poly_from_strings(strings: Iterable[str]) -> Poly:
    return Poly([Fraction(s) for s in strings])
