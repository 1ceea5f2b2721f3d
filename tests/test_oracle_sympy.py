"""SymPy as an independent oracle for the scalar families and the
generating functions.

SymPy shares no code with this package, so agreement here cross-checks
the triangle fills, the falling and rising factorial polynomials read
from the first-kind rows, the Bernoulli series, the harmonic loop, the Euler
polynomials, and the central factorial, Lah and r-Whitney numbers through
the products and bases that define them, and the Cauchy, higher-order
Bernoulli, hyperharmonic and harmonic polynomials through SymPy's own
expansion of their closed-form generating functions.  The hyperharmonic
polynomials are also checked at integer points against Conway and Guy's
closed form in harmonic numbers.  The multiparameter Cauchy polynomials,
and the ordinary poly-Cauchy polynomials as their unit-parameter case, are
checked against SymPy's own iterated integral of the defining product, and
the poly-Bernoulli polynomials against Kaneko's generating function, expanded
in SymPy's polynomial ring.
SymPy uses B_1 = +1/2; this package uses B_1 = -1/2.
"""

from fractions import Fraction
from math import factorial

import pytest

sympy = pytest.importorskip("sympy")
from sympy import QQ  # noqa: E402
from sympy.functions.combinatorial.numbers import bernoulli, harmonic, stirling  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

from polycauchy import (  # noqa: E402
    MultiParam,
    Poly,
    bernoulli_number,
    cauchy_poly,
    central_u,
    euler_poly,
    falling_factorial_poly,
    gen_bernoulli_poly,
    gf_hyperharmonic,
    harmonic_number,
    harmonic_poly,
    hyperharmonic_poly,
    lah,
    multiparam_cauchy,
    poly_bernoulli_gsn,
    poly_bernoulli_kl,
    rising_factorial_poly,
    stirling1,
    stirling2,
    whitney,
)

x = sympy.Symbol("x")
t = sympy.Symbol("t")

# closed form in t and x, whether it is an EGF (row n times n!), row n
_GENERATING_FUNCTIONS = {
    "cauchy1": (t / ((1 + t) ** x * sympy.log(1 + t)), True,
                lambda n: cauchy_poly("first", n, 1, "series")),
    "cauchy2": (t * (1 + t) ** x / ((1 + t) * sympy.log(1 + t)), True,
                lambda n: cauchy_poly("second", n, 1, "series")),
    "gen-bernoulli-3": ((t / (sympy.exp(t) - 1)) ** 3 * sympy.exp(x * t), True,
                        lambda n: gen_bernoulli_poly(n, 3)),
    "hyperharmonic": (-sympy.log(1 - t) / (1 - t) ** x, False, hyperharmonic_poly),
    "hyperharmonic-gf": (-sympy.log(1 - t) / (1 - t) ** x, False,
                         lambda n: gf_hyperharmonic(6)[n]),
    "harmonic": (-sympy.log(1 - t) / (t * (1 - t) ** (1 - x)), False, harmonic_poly),
}


def _fraction(value) -> Fraction:
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


def _coeffs(expr) -> list:
    """Coefficients of a polynomial in x as Fractions, constant term first."""
    return [_fraction(c) for c in reversed(sympy.Poly(expr, x).all_coeffs())]


def test_stirling_numbers_match_sympy():
    for n in range(61):
        for m in range(n + 1):
            assert stirling1(n, m) == int(stirling(n, m, kind=1, signed=False)), (n, m)
            assert stirling2(n, m) == int(stirling(n, m, kind=2)), (n, m)


def test_factorial_polys_match_sympy():
    # SymPy multiplies the linear factors in its own polynomial ring
    ring_x = sympy.Poly(x, x)
    for n in range(31):
        assert list(falling_factorial_poly(n).coeffs) == _coeffs(sympy.ff(ring_x, n)), n
        assert list(rising_factorial_poly(n).coeffs) == _coeffs(sympy.rf(ring_x, n)), n


def test_bernoulli_numbers_match_sympy():
    for n in range(301):
        want = _fraction(bernoulli(n))
        if n == 1:
            want = -want
        assert bernoulli_number(n) == want, n


def test_harmonic_numbers_match_sympy():
    for n in range(301):
        assert harmonic_number(n) == _fraction(harmonic(n)), n


def test_euler_polynomials_match_sympy():
    for n in range(15):
        assert [Fraction(c) for c in euler_poly(n).coeffs] == _coeffs(sympy.euler(n, x)), n


def test_central_factorial_numbers_match_product():
    # u(n, m) is the coefficient of x^(2m) in x^2 (x^2 - 1^2) ... (x^2 - (n-1)^2)
    for n in range(1, 20):
        product = sympy.Poly(x**2 * sympy.prod([x**2 - j**2 for j in range(1, n)]), x)
        for m in range(n + 2):
            assert central_u(n, m) == product.coeff_monomial(x ** (2 * m)), (n, m)


def test_lah_numbers_expand_rising_in_falling_factorials():
    for n in range(15):
        expansion = sum(lah(n, m) * sympy.ff(x, m) for m in range(n + 1))
        assert _coeffs(sympy.rf(x, n)) == _coeffs(expansion), n


def test_hyperharmonic_numbers_match_conway_guy():
    # Conway and Guy: H_n^(r) = C(n+r-1, r-1) (H_{n+r-1} - H_{r-1}) at integer r >= 1
    for n in range(16):
        for r in range(1, 6):
            closed = sympy.binomial(n + r - 1, r - 1) * (harmonic(n + r - 1) - harmonic(r - 1))
            assert hyperharmonic_poly(n)(r) == _fraction(closed), (n, r)


def test_whitney_numbers_expand_powers_in_falling_factorials():
    # (mx + r)^n = sum over l of W_{m,r}(n, l) m^l (x)_l
    for m, r in ((1, 0), (2, 1), (3, -2), (-2, 3)):
        for n in range(9):
            expansion = sum(
                sympy.Rational(whitney("second", m, r, n, l)) * m**l * sympy.ff(x, l)
                for l in range(n + 1)
            )
            assert _coeffs((m * x + r) ** n) == _coeffs(expansion), (m, r, n)


@pytest.mark.parametrize("name", sorted(_GENERATING_FUNCTIONS))
def test_generating_functions_match_sympy_series(name):
    closed, egf, row = _GENERATING_FUNCTIONS[name]
    expansion = sympy.expand(sympy.series(closed, t, 0, 7).removeO())
    for n in range(7):
        want = expansion.coeff(t, n) * (sympy.factorial(n) if egf else 1)
        assert row(n) == Poly(_coeffs(want)), (name, n)


def _cube_integral(kind: str, n: int, a: int, q, L, y):
    """e^(a-1) (e u)^(a-1) prod_{j<n} (e(u - y) - jq), u = t_1...t_k - x,
    integrated by SymPy over [0,l_1] x ... x [0,l_k]."""
    e = {"first": 1, "second": -1}[kind]
    ts = sympy.symbols(f"t1:{len(L) + 1}")
    u = sympy.prod(ts) - x
    q, y = sympy.Rational(q), sympy.Rational(y)
    integrand = e ** (a - 1) * (e * u) ** (a - 1) * sympy.prod([e * (u - y) - j * q for j in range(n)])
    limits = [(ti, 0, sympy.Rational(li)) for ti, li in zip(ts, L)]
    return sympy.integrate(sympy.expand(integrand), *limits)


# (q, L, y): three from DEFAULT_GRID, the third with weight product 1/2, and
# ci/signed-weights.cfg's negative product -3/2 at y = 0, where the integral
# construction reads the second kind from the first kind's product at -v
_MULTIPARAM_POINTS = (
    (-1, (1,), Fraction(-3, 2)),
    (Fraction(1, 2), (Fraction(1, 2), 2), Fraction(1, 2)),
    (-3, (1, 1, Fraction(1, 2)), Fraction(-3, 2)),
    (Fraction(-3, 2), (Fraction(-1, 2), 3), 0),
)


@pytest.mark.parametrize("q, L, y", _MULTIPARAM_POINTS)
def test_multiparam_cauchy_matches_sympy_integral(q, L, y):
    for kind in ("first", "second"):
        for n in range(4):
            for a in (1, 2):
                want = Poly(_coeffs(_cube_integral(kind, n, a, q, L, y)))
                p = MultiParam(n, len(L), a, q, L, y)
                for construction in ("stirling", "integral"):
                    assert multiparam_cauchy(kind, p, construction) == want, (kind, n, a, construction)


def test_poly_cauchy_matches_sympy_integral_at_unit_parameters():
    for kind in ("first", "second"):
        for n in range(7):
            want = Poly(_coeffs(_cube_integral(kind, n, 1, 1, (1, 1), 0)))
            assert cauchy_poly(kind, n, 2) == want, (kind, n)


def test_poly_bernoulli_matches_kaneko_generating_function():
    # Li_k(1 - e^(-t)) / (1 - e^(-t)) e^(-xt) = sum_n B_n^(k)(x) t^n / n!, with
    # Li_k(u) / u = sum_m u^m / (m+1)^k cut at m = N, as u = 1 - e^(-t) = O(t);
    # each product in QQ[t, x] is cut past t^N
    N = 8
    R, ts, xs = ring("t, x", QQ)

    def cut(p):
        return R({m: c for m, c in p.items() if m[0] <= N})

    u = sum((-(-ts) ** j / factorial(j) for j in range(1, N + 1)), R.zero)
    exp_xt = sum(((-xs * ts) ** j / factorial(j) for j in range(N + 1)), R.zero)
    for k in (1, 2, 3):
        li_over_u, power = R.zero, R.one
        for m in range(N + 1):
            li_over_u += power / (m + 1) ** k
            power = cut(power * u)
        gf = cut(li_over_u * exp_xt)
        for n in range(N + 1):
            coeffs = [0] * (n + 1)
            for (i, j), c in gf.items():
                if i == n:
                    coeffs[j] = _fraction(QQ.to_sympy(c)) * factorial(n)
            want = Poly(coeffs)
            assert poly_bernoulli_gsn(n, k) == want, (n, k)
            # the moment-sum form has the same numbers, not the same polynomials
            assert poly_bernoulli_kl(n, k)(0) == want(0), (n, k)
    assert poly_bernoulli_gsn(2, 2) == Poly([Fraction(-1, 36), Fraction(-1, 2), 1])
    assert poly_bernoulli_kl(2, 2) == Poly([Fraction(-1, 36), 0, 2])
