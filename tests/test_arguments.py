"""One rule for every int argument of the public entry points, in every layer.

An index, a row, ``q``, ``n``, ``which``, a truncation or a precision in
digits is an int: a float or a string equal to a valid int, a bool (which
Python counts as an int), or an int below the entry point's range raises
:class:`DomainError`, and it does so whatever the caches hold.  Each row
is called once from cleared caches, where a refused call must leave them
empty, and once right after the same call with the valid int, whose cached
value a float, a bool or a string must not read.
"""

from fractions import Fraction

import pytest

from arcmellin import catalog, closedform, exact, lfuncs, quadrature, series, verify
from arcmellin.exact import DomainError

FORM = closedform.ClosedForm([(closedform.LN2, Fraction(3, 4))])

#: (entry point, its call with the checked int v, a valid int, an int below
#: the range or None where every int is in it)
ROWS = [
    # exact
    ("bernoulli(n)", lambda v: exact.bernoulli(v), 1, -1),
    ("euler_number(n)", lambda v: exact.euler_number(v), 1, -1),
    ("harmonic(n)", lambda v: exact.harmonic(v), 1, -1),
    ("eulerian(kind, n, k) n", lambda v: exact.eulerian("A", v, 0), 1, -1),
    ("eulerian(kind, n, k) k", lambda v: exact.eulerian("B", 2, v), 1, None),
    ("binomial(n, k) n", lambda v: exact.binomial(v, 1), 1, None),
    ("binomial(n, k) k", lambda v: exact.binomial(2, v), 1, None),
    # series
    ("x_over_sinh_coeffs(power, order) power", lambda v: series.x_over_sinh_coeffs(v, 2), 1, -1),
    ("x_over_sinh_coeffs(power, order) order", lambda v: series.x_over_sinh_coeffs(1, v), 1, -1),
    # closedform
    ("BasisSymbol(kind, index)", lambda v: closedform.BasisSymbol("zeta_odd_ratio", v), 1, -1),
    ("zeta_prime_ratio(p)", lambda v: closedform.zeta_prime_ratio(v), 1, -1),
    ("beta_prime_ratio(p)", lambda v: closedform.beta_prime_ratio(v), 1, -1),
    ("eta_prime_neg_symbol(i)", lambda v: closedform.eta_prime_neg_symbol(v), 1, -1),
    ("beta_prime_neg_symbol(i)", lambda v: closedform.beta_prime_neg_symbol(v), 1, -1),
    ("zeta_odd_ratio(p)", lambda v: closedform.zeta_odd_ratio(v), 1, -1),
    ("beta_even_ratio(p)", lambda v: closedform.beta_even_ratio(v), 1, -1),
    ("log_integral_odd_cosh(q, n) q", lambda v: closedform.log_integral_odd_cosh(v, 2), 1, -1),
    ("log_integral_odd_cosh(q, n) n", lambda v: closedform.log_integral_odd_cosh(0, v), 1, 0),
    ("log_integral_even_cosh(q, n) q", lambda v: closedform.log_integral_even_cosh(v, 2), 1, -1),
    ("log_integral_even_cosh(q, n) n", lambda v: closedform.log_integral_even_cosh(0, v), 1, 0),
    ("sinh_over_z_integral(q, N) q", lambda v: closedform.sinh_over_z_integral(v, 4), 1, 0),
    ("sinh_over_z_integral(q, N) N", lambda v: closedform.sinh_over_z_integral(1, v), 3, 2),
    ("phi_odd_closed_form(which, n) which", lambda v: closedform.phi_odd_closed_form(v, 2), 1, 0),
    ("phi_odd_closed_form(which, n) n", lambda v: closedform.phi_odd_closed_form(2, v), 1, 0),
    ("phi_even_closed_form(which, m) which", lambda v: closedform.phi_even_closed_form(v, 2), 1, 0),
    ("phi_even_closed_form(which, m) m", lambda v: closedform.phi_even_closed_form(1, v), 1, 0),
    ("catalog.phi_odd_as_sinh_over_z(which, n)", lambda v: catalog.phi_odd_as_sinh_over_z(v, 1), 1, 0),
    ("catalog.phi_odd_as_sinh_over_z(which, n) n", lambda v: catalog.phi_odd_as_sinh_over_z(1, v), 1, 0),
    # lfuncs
    ("zeta_even_value(k, prec) k", lambda v: lfuncs.zeta_even_value(v, 30), 1, 0),
    ("zeta_even_value(k, prec) prec", lambda v: lfuncs.zeta_even_value(1, v), 1, 0),
    ("beta_at_negative_even(i)", lambda v: lfuncs.beta_at_negative_even(v), 1, -1),
    ("zeta_prime_even(p, prec) p", lambda v: lfuncs.zeta_prime_even(v, 30), 1, -1),
    ("zeta_prime_even(p, prec) prec", lambda v: lfuncs.zeta_prime_even(0, v), 1, 0),
    ("beta_prime_odd(p, prec) p", lambda v: lfuncs.beta_prime_odd(v, 30), 1, -1),
    ("beta_prime_odd(p, prec) prec", lambda v: lfuncs.beta_prime_odd(0, v), 1, 0),
    ("eta_prime_neg(i, prec) i", lambda v: lfuncs.eta_prime_neg(v, 30), 1, -1),
    ("eta_prime_neg(i, prec, 'eta') i", lambda v: lfuncs.eta_prime_neg(v, 30, via="eta"), 1, -1),
    ("eta_prime_neg(i, prec) prec", lambda v: lfuncs.eta_prime_neg(0, v), 1, 0),
    ("beta_prime_neg(i, prec) i", lambda v: lfuncs.beta_prime_neg(v, 30), 1, -1),
    ("beta_prime_neg(i, prec, 'reflection') i",
     lambda v: lfuncs.beta_prime_neg(v, 30, via="reflection"), 1, -1),
    ("beta_prime_neg(i, prec) prec", lambda v: lfuncs.beta_prime_neg(0, v), 1, 0),
    ("symbol_value(kind, index, prec) index",
     lambda v: lfuncs.symbol_value("zeta_prime_ratio", v, 30), 1, -1),
    ("symbol_value(kind, index, prec) prec", lambda v: lfuncs.symbol_value("one", None, v), 1, 0),
    ("ln2(prec)", lambda v: lfuncs.ln2(v), 1, 0),
    ("ln_pi(prec)", lambda v: lfuncs.ln_pi(v), 1, 0),
    ("euler_gamma(prec)", lambda v: lfuncs.euler_gamma(v), 1, 0),
    ("eta_value(s, prec)", lambda v: lfuncs.eta_value(2, v), 1, 0),
    ("eta_prime(s, prec)", lambda v: lfuncs.eta_prime(2, v), 1, 0),
    ("beta_value(s, prec)", lambda v: lfuncs.beta_value(2, v), 1, 0),
    ("beta_prime_value(s, prec)", lambda v: lfuncs.beta_prime_value(2, v), 1, 0),
    ("eval_closed_form(form, prec)", lambda v: lfuncs.eval_closed_form(FORM, v), 1, 0),
    ("phi1_bounds(s, prec)", lambda v: lfuncs.phi1_bounds(2, v), 1, 0),
    ("mellin_bound_gamma_ratio(s, prec)", lambda v: lfuncs.mellin_bound_gamma_ratio(2, v), 1, 0),
    # quadrature
    ("quad_phi(which, s, prec) which", lambda v: quadrature.quad_phi(v, 3, 12), 1, 0),
    ("quad_phi(which, s, prec) prec", lambda v: quadrature.quad_phi(1, 3, v), 1, 0),
    ("quad_phi_many(requests, prec) which",
     lambda v: quadrature.quad_phi_many([(2, 3), (v, 5)], 12), 1, 0),
    ("quad_phi_many(requests, prec) prec", lambda v: quadrature.quad_phi_many([(2, 3)], v), 1, 0),
    ("quad_log_family(q, N, prec) q", lambda v: quadrature.quad_log_family(v, 5, 12), 1, -1),
    ("quad_log_family(q, N, prec) N", lambda v: quadrature.quad_log_family(0, v, 12), 2, 1),
    ("quad_log_family(q, N, prec) prec", lambda v: quadrature.quad_log_family(0, 3, v), 1, 0),
    ("quad_sinh_over_z(q, N, prec) q", lambda v: quadrature.quad_sinh_over_z(v, 5, 12), 1, 0),
    ("quad_sinh_over_z(q, N, prec) N", lambda v: quadrature.quad_sinh_over_z(1, v, 12), 3, 2),
    ("quad_sinh_over_z(q, N, prec) prec", lambda v: quadrature.quad_sinh_over_z(1, 3, v), 1, 0),
    ("quad_c_constant(which, prec) which", lambda v: quadrature.quad_c_constant(v, 12), 1, 0),
    ("quad_c_constant(which, prec) prec", lambda v: quadrature.quad_c_constant(1, v), 1, 0),
    # verify
    ("check_bounds(s_grid, prec)", lambda v: verify.check_bounds(("2",), v), 12, 11),
    ("check_coupled(s, truncation, prec) truncation", lambda v: verify.check_coupled(4, v, 12), 1, 0),
    ("check_coupled(s, truncation, prec) prec", lambda v: verify.check_coupled(4, 1, v), 12, 11),
    ("coupled_tail_bound(direction, truncation) direction",
     lambda v: verify.coupled_tail_bound(v, 30), 1, 0),
    ("coupled_tail_bound(direction, truncation) truncation",
     lambda v: verify.coupled_tail_bound(2, v), 1, 0),
    ("check_asymptotic_constants(prec)", lambda v: verify.check_asymptotic_constants(v), 12, 11),
    ("check_cross_representation(n_max, prec) n_max",
     lambda v: verify.check_cross_representation(v, 12), 1, 0),
    ("check_cross_representation(n_max, prec) prec",
     lambda v: verify.check_cross_representation(1, v), 12, 11),
    ("reproduce_reference_tables(prec)", lambda v: verify.reproduce_reference_tables(v), 12, 11),
    ("all_suites(prec)", lambda v: verify.all_suites(v), 12, 11),
    ("all_suites(prec, n_range) range start", lambda v: verify.all_suites(12, (v, 2)), 1, None),
    ("all_suites(prec, n_range) range end", lambda v: verify.all_suites(12, (1, v)), 2, 0),
    ("run_identity(family, n_range, prec) range start",
     lambda v: verify.run_identity("eta-coeff", n_range=(v, 3)), 1, None),
    ("run_identity(family, n_range, prec) range end",
     lambda v: verify.run_identity("eta-coeff", n_range=(1, v)), 1, 0),
    ("run_identity(family, n_range, prec) prec",
     lambda v: verify.run_identity("eta-coeff", prec=v), 1, 0),
    ("run_identity(numeric family, n_range, prec) prec",
     lambda v: verify.run_identity("coupled", prec=v), 12, 11),
]

CASES = [
    pytest.param(call, valid, bad, id=f"{name}={bad!r}")
    for name, call, valid, below in ROWS
    for bad in (float(valid), True, str(valid), *(() if below is None else (below,)))
]

_MEMOISED = (
    closedform.log_integral_odd_cosh,
    closedform.log_integral_even_cosh,
    closedform.sinh_over_z_integral,
    series.x_over_sinh_coeffs,
    series._x_over_sinh_row,
)


def _cache_sizes() -> list[int]:
    return [f.cache_info().currsize for f in _MEMOISED] + [
        len(lfuncs._constant_cache),
        len(quadrature._quad_cache),
    ]


def _clear_caches() -> None:
    for f in _MEMOISED:
        f.cache_clear()
    with lfuncs._cache_lock:
        lfuncs._constant_cache.clear()
    with quadrature._cache_lock:
        quadrature._quad_cache.clear()


def test_every_row_is_valid_at_its_int():
    # each row's valid int is accepted, so a refusal below is the check's
    for _, call, valid, _ in ROWS:
        call(valid)


@pytest.mark.parametrize("call, valid, bad", CASES)
def test_refused_from_cleared_caches(call, valid, bad):
    _clear_caches()
    with pytest.raises(DomainError):
        call(bad)
    assert not any(_cache_sizes())


@pytest.mark.parametrize("call, valid, bad", CASES)
def test_refused_after_the_valid_int(call, valid, bad):
    call(valid)
    with pytest.raises(DomainError):
        call(bad)
