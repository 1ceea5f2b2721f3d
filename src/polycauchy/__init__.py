"""Exact-rational Cauchy / Stirling / Bernoulli / hyperharmonic families
with an executable identity catalog and a batch CLI."""

from .rational import parse_rational, format_rational
from .poly import (
    Poly,
    binom_poly,
    eval_at_sqrt,
    poly_to_strings,
    poly_from_strings,
)
from .series import (
    Series,
    log1p_series,
    log1p_over_t_series,
    sheffer_rows,
    gf_cauchy1,
    gf_cauchy2,
    gf_gen_bernoulli,
    gf_hyperharmonic,
    gf_harmonic_poly,
)
from .stirling import (
    stirling1,
    stirling2,
    central_u,
    lah,
    gsn1,
    gsn2,
    gsn1_bivariate_at,
    gsn2_bivariate_at,
    whitney,
    a_number,
    falling_factorial_poly,
    rising_factorial_poly,
)
from .cauchy import (
    CONSTRUCTIONS,
    MultiParam,
    aux_poly,
    aux_poly_weighted,
    cauchy_poly,
    cauchy_number,
    cauchy_coefficient,
    cauchy_derivative,
    cauchy_recurrence_step,
    multiparam_cauchy,
    shifted_cauchy_number,
)
from .bernoulli import (
    bernoulli_number,
    bernoulli_poly,
    gen_bernoulli_poly,
    euler_poly,
    power_sum_poly,
    poly_bernoulli_gsn,
    poly_bernoulli_kl,
    multiparam_poly_bernoulli,
)
from .harmonic import harmonic_number, hyperharmonic_poly, harmonic_poly

__version__ = "0.1.0"
