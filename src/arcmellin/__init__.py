"""Exact closed forms and high-precision verification for hyperbolic
log-integrals and the Mellin transforms of 1/arctanh(x) and
1/(sqrt(1-x^2) arctanh(x)) on (0, 1).

The package is organized in layers:

* :mod:`arcmellin.exact` -- arbitrary-precision integers/rationals and the
  classical number tables (Bernoulli, Euler, harmonic, Eulerian A/B);
* :mod:`arcmellin.series` -- every exact Taylor coefficient family the
  closed forms consume;
* :mod:`arcmellin.closedform` -- symbolic closed forms over the fixed
  transcendental basis, assembled in pure rational arithmetic;
* :mod:`arcmellin.lfuncs` -- high-precision numerics for the basis symbols
  (accelerated alternating sums plus differentiated reflection formulas);
* :mod:`arcmellin.quadrature` -- double-exponential quadrature oracles;
* :mod:`arcmellin.verify` -- identity suites, bounds and coupled-series
  checks, cross-representation consistency, and reference-table replay;
* :mod:`arcmellin.cli` -- the ``arcmellin`` command-line front end (not
  imported here, so ``python -m arcmellin.cli`` runs it without a warning).
"""

from .exact import (
    DomainError,
    PrecisionError,
    bernoulli,
    binomial,
    euler_number,
    eulerian,
    harmonic,
)
from .series import (
    RootProductTables,
    binomial_power_sum,
    root_product_tables,
    x_over_sinh_coeffs,
)
from .closedform import (
    LN2,
    LNPI,
    ONE,
    BasisSymbol,
    ClosedForm,
    beta_prime_neg_coeffs,
    beta_prime_neg_symbol,
    beta_even_ratio,
    beta_prime_ratio,
    eta_prime_neg_coeffs,
    eta_prime_neg_symbol,
    log_integral_even_cosh,
    log_integral_odd_cosh,
    phi_even_closed_form,
    phi_odd_closed_form,
    sinh_over_z_integral,
    zeta_odd_ratio,
    zeta_prime_ratio,
)
from .lfuncs import (
    beta_at_negative_even,
    beta_prime_neg,
    beta_prime_odd,
    beta_prime_value,
    beta_value,
    eta_prime,
    eta_prime_neg,
    eta_value,
    eval_closed_form,
    euler_gamma,
    ln2,
    ln_pi,
    mellin_bound_gamma_ratio,
    phi1_bounds,
    zeta_even_value,
    zeta_prime_even,
)
from .quadrature import (
    QuadResult,
    quad_c_constant,
    quad_log_family,
    quad_phi,
    quad_phi_many,
    quad_sinh_over_z,
)
from .verify import (
    IdentityFamily,
    VerifyReport,
    all_suites,
    check_asymptotic_constants,
    check_bounds,
    check_coupled,
    check_cross_representation,
    check_even_argument_relations,
    reproduce_reference_tables,
    run_identity,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "PrecisionError",
    "bernoulli",
    "binomial",
    "euler_number",
    "eulerian",
    "harmonic",
    "RootProductTables",
    "binomial_power_sum",
    "root_product_tables",
    "x_over_sinh_coeffs",
    "LN2",
    "LNPI",
    "ONE",
    "BasisSymbol",
    "ClosedForm",
    "beta_prime_neg_coeffs",
    "beta_prime_neg_symbol",
    "beta_even_ratio",
    "beta_prime_ratio",
    "eta_prime_neg_coeffs",
    "eta_prime_neg_symbol",
    "log_integral_even_cosh",
    "log_integral_odd_cosh",
    "phi_even_closed_form",
    "phi_odd_closed_form",
    "sinh_over_z_integral",
    "zeta_odd_ratio",
    "zeta_prime_ratio",
    "beta_at_negative_even",
    "beta_prime_neg",
    "beta_prime_odd",
    "beta_prime_value",
    "beta_value",
    "eta_prime",
    "eta_prime_neg",
    "eta_value",
    "eval_closed_form",
    "euler_gamma",
    "ln2",
    "ln_pi",
    "mellin_bound_gamma_ratio",
    "phi1_bounds",
    "zeta_even_value",
    "zeta_prime_even",
    "QuadResult",
    "quad_c_constant",
    "quad_log_family",
    "quad_phi",
    "quad_phi_many",
    "quad_sinh_over_z",
    "IdentityFamily",
    "VerifyReport",
    "all_suites",
    "check_asymptotic_constants",
    "check_bounds",
    "check_coupled",
    "check_cross_representation",
    "check_even_argument_relations",
    "reproduce_reference_tables",
    "run_identity",
]
