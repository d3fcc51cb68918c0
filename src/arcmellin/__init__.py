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
  imported here, so ``python -m arcmellin.cli`` runs it without a warning),
  which imports argparse and the numeric layers only for the commands that
  use them, and takes the suite names from :mod:`arcmellin.suites`.

``import arcmellin`` imports none of them.  Each public name below, and each
layer above but the CLI, loads its module on first use (PEP 562), so a
caller pays only for the layers it reads: ``arcmellin.bernoulli`` loads
``exact`` alone, and nothing loads mpmath before ``lfuncs``.
"""

import importlib

__version__ = "0.1.0"

#: Each layer and the public names it defines, in ``__all__`` order.
_EXPORTS = {
    "exact": (
        "DomainError", "PrecisionError", "bernoulli", "binomial", "euler_number", "eulerian",
        "harmonic",
    ),
    "series": ("x_over_sinh_coeffs",),
    "closedform": (
        "LN2", "LNPI", "ONE", "BasisSymbol", "ClosedForm", "beta_prime_neg_symbol",
        "beta_even_ratio", "beta_prime_ratio", "eta_prime_neg_symbol", "log_integral_even_cosh",
        "log_integral_odd_cosh", "phi_even_closed_form", "phi_odd_closed_form",
        "sinh_over_z_integral", "zeta_odd_ratio", "zeta_prime_ratio",
    ),
    "lfuncs": (
        "beta_at_negative_even", "beta_prime_neg", "beta_prime_odd", "beta_prime_value",
        "beta_value", "eta_prime", "eta_prime_neg", "eta_value", "eval_closed_form",
        "euler_gamma", "ln2", "ln_pi", "mellin_bound_gamma_ratio", "phi1_bounds",
        "zeta_even_value", "zeta_prime_even",
    ),
    "quadrature": (
        "QuadResult", "quad_c_constant", "quad_log_family", "quad_phi", "quad_phi_many",
        "quad_sinh_over_z",
    ),
    "verify": (
        "IdentityFamily", "VerifyReport", "all_suites", "check_asymptotic_constants",
        "check_bounds", "check_coupled", "check_cross_representation",
        "check_even_argument_relations", "reproduce_reference_tables", "run_identity",
    ),
}

_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_LAYER_OF)


def __getattr__(name: str):
    """Import the layer that defines ``name`` and keep the value here, so
    later reads are plain attribute reads; a layer's own name imports it."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{layer}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
