"""Quadrature oracle: agreement with closed forms, convergence, domains."""

import hashlib
import sys
import threading
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from arcmellin import (
    DomainError,
    PrecisionError,
    beta_prime_value,
    eval_closed_form,
    log_integral_even_cosh,
    log_integral_odd_cosh,
    phi_even_closed_form,
    quad_c_constant,
    quad_log_family,
    quad_phi,
    quad_sinh_over_z,
    sinh_over_z_integral,
    phi_odd_closed_form,
)
from arcmellin import quadrature
from arcmellin.catalog import C1_CLOSED_FORM, C1_DECIMAL, C2_CLOSED_FORM, C2_DECIMAL


TOL25 = mpf(10) ** -25


class TestQuadPhi:
    def test_phi1_3_matches_closed_form(self):
        closed = eval_closed_form(sinh_over_z_integral(1, 4), 30)
        quad = quad_phi(1, 3, 30)
        assert abs(closed - quad.value) < TOL25

    def test_phi2_3_matches_closed_form(self):
        closed = eval_closed_form(sinh_over_z_integral(1, 3), 30)
        quad = quad_phi(2, 3, 30)
        assert abs(closed - quad.value) < TOL25

    def test_inside_bounds_at_fractional_s(self):
        s = Fraction(5, 2)
        value = quad_phi(1, s, 30).value
        with mp.workdps(45):
            assert 2 / (mpf(2.5) ** 2 - 1) < value < 1 / (mpf(2.5) - 1)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            quad_phi(1, 1, 20)
        with pytest.raises(DomainError):
            quad_phi(2, "0.9", 20)

    def test_monotone_decreasing_in_s(self):
        values = [quad_phi(1, s, 25).value for s in (2, 3, 5, 9)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_cache_returns_identical_result(self):
        a = quad_phi(1, 3, 25)
        b = quad_phi(1, 3, 25)
        assert a is b


class TestQuadLogFamily:
    @pytest.mark.parametrize(
        "q, big_n, builder",
        [
            (0, 3, lambda: log_integral_odd_cosh(0, 1)),
            (1, 4, lambda: log_integral_even_cosh(1, 2)),
            (0, 2, lambda: log_integral_even_cosh(0, 1)),
        ],
    )
    def test_matches_closed_form(self, q, big_n, builder):
        closed = eval_closed_form(builder(), 30)
        quad = quad_log_family(q, big_n, 30)
        assert abs(closed - quad.value) < TOL25

    def test_convergence_precondition(self):
        with pytest.raises(DomainError):
            quad_log_family(2, 4, 20)  # 2q+1 = 5 > 4


class TestQuadSinhOverZ:
    @pytest.mark.parametrize("q, big_n", [(1, 4), (2, 6), (1, 3)])
    def test_matches_closed_form(self, q, big_n):
        closed = eval_closed_form(sinh_over_z_integral(q, big_n), 30)
        quad = quad_sinh_over_z(q, big_n, 30)
        assert abs(closed - quad.value) < TOL25

    def test_equals_odd_mellin_value(self):
        # the (2, 6) instance is the s = 5 value of the plain transform
        quad = quad_sinh_over_z(2, 6, 30).value
        phi = quad_phi(1, 5, 30).value
        assert abs(quad - phi) < TOL25

    def test_convergence_precondition(self):
        with pytest.raises(DomainError):
            quad_sinh_over_z(0, 5, 20)
        with pytest.raises(DomainError):
            quad_sinh_over_z(3, 6, 20)


class TestQuadCConstant:
    def test_c1_against_printed_decimals(self):
        value = quad_c_constant(1, 30).value
        with mp.workdps(45):
            assert abs(value - mpf(C1_DECIMAL)) < mpf(10) ** -19

    def test_c2_against_printed_decimals(self):
        value = quad_c_constant(2, 30).value
        with mp.workdps(45):
            assert abs(value - mpf(C2_DECIMAL)) < mpf(10) ** -19

    def test_c1_against_closed_form(self):
        quad = quad_c_constant(1, 30).value
        closed = eval_closed_form(C1_CLOSED_FORM, 30)
        assert abs(quad - closed) < TOL25

    def test_c2_against_closed_form(self):
        quad = quad_c_constant(2, 30).value
        closed = eval_closed_form(C2_CLOSED_FORM, 30)
        assert abs(quad - closed) < TOL25


class TestWholeSupport:
    """For large s the integrand is negligible near z = 0.4 and peaks further
    out, so every node a finer level starts its wing with is below the
    cutoff; the level must still reach the peak that level 0 found."""

    @pytest.mark.parametrize("which", [1, 2])
    @pytest.mark.parametrize("s", [129, 200, 201, 300, 301])
    def test_large_s_matches_exact_form(self, which, s):
        prec = 30
        quad = quad_phi(which, s, prec)
        if s % 2:
            form = phi_odd_closed_form(which, s // 2)
        else:
            form = phi_even_closed_form(which, s // 2)
        exact = eval_closed_form(form, prec)
        assert abs(quad.value - exact) < mpf(10) ** -(prec - 5) * abs(exact)


class TestConvergenceBehaviour:
    def test_error_estimate_is_honest(self):
        # the reported estimate must dominate the distance to a
        # higher-precision recomputation
        low = quad_phi(1, 3, 20)
        high = quad_phi(1, 3, 40)
        assert abs(low.value - high.value) < low.error_estimate

    def test_level_doubling_improves(self):
        # requesting more digits must never move the value outside the
        # earlier error estimate, and estimates shrink with precision
        prev = quad_sinh_over_z(1, 4, 15)
        for prec in (25, 35):
            cur = quad_sinh_over_z(1, 4, prec)
            assert abs(cur.value - prev.value) < prev.error_estimate
            assert cur.error_estimate < prev.error_estimate
            prev = cur

    def test_unmet_target_raises(self):
        # one level halving cannot reach 102 digits; the answer must not
        # come back silently
        with quadrature._working(100):
            with pytest.raises(PrecisionError):
                quadrature._de_halfline(quadrature._monomial(2, 2), 100, max_level=1)

    def test_nodes_are_counted(self):
        result = quad_phi(2, 5, 25)
        assert result.nodes_used > 50
        assert result.levels >= 2

    def test_phi_odd_form_evaluates_to_quadrature(self):
        closed = eval_closed_form(phi_odd_closed_form(2, 2), 30)
        quad = quad_phi(2, 5, 30).value
        assert abs(closed - quad) < TOL25


MIXED_INTEGRALS = [
    lambda prec: quad_phi(1, 3, prec),
    lambda prec: quad_phi(2, 3, prec),
    lambda prec: quad_phi(1, Fraction(7, 2), prec),
    lambda prec: quad_phi(2, Fraction(5, 2), prec),
    lambda prec: quad_log_family(0, 3, prec),
    lambda prec: quad_log_family(1, 4, prec),
    lambda prec: quad_sinh_over_z(1, 4, prec),
    lambda prec: quad_c_constant(1, prec),
    lambda prec: quad_c_constant(2, prec),
]


class TestSharedState:
    def test_node_table_across_precisions_and_families(self):
        def run(prec):
            quadrature._quad_cache.clear()
            return [integral(prec) for integral in MIXED_INTEGRALS]

        reference = {}
        for prec in (100, 30):
            quadrature._node_tables.clear()
            reference[prec] = run(prec)
        # the table filled at 30 digits must give way to one at 100 and back
        for prec in (100, 30):
            assert run(prec) == reference[prec]
            assert len(quadrature._node_tables) == 1

    def test_quadrature_and_basis_values_share_the_mpmath_lock(self):
        # a 20-digit quadrature must not lower the working precision of a
        # 200-digit basis evaluation running in another thread
        ks = [2, 3, 4, 5, 6, 7]
        svals = [Fraction(3 + j, 2) + Fraction(1, 7) for j in range(12)]
        expected_beta = [beta_prime_value(k, 200) for k in ks]
        expected_quad = [quad_phi(1, s, 20) for s in svals]
        quadrature._quad_cache.clear()
        got_beta, got_quad = [], []
        threads = [
            threading.Thread(target=lambda: got_beta.extend(beta_prime_value(k, 200) for k in ks)),
            threading.Thread(target=lambda: got_quad.extend(quad_phi(1, s, 20) for s in svals)),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got_beta == expected_beta
        assert got_quad == expected_quad


# Recorded with the integrands written as mpf expressions,
# tanh_z ** a * sech_z ** b * (1 + u) [* ln z * z]: the raw-tuple kernel must
# reproduce every bit.  Each entry is the fingerprint of the value and error
# estimate, the node count and the level.
RECORDED = {
    ("phi(1, 3)", 30): ("640d65e0ef506c8d", 295, 5),
    ("phi(1, 3)", 100): ("65427d3bade6a22f", 1309, 7),
    ("phi(2, 7/2)", 30): ("c11bbc1d2ed37d46", 309, 5),
    ("phi(2, 7/2)", 100): ("61ac9ff39cf434b2", 1367, 7),
    ("phi(1, 1 + 1e-6)", 30): ("5288589f6b7d4f06", 765, 5),
    ("phi(1, 1 + 1e-6)", 100): ("5d2a172845d7eed5", 3177, 7),
    ("log(2, 7)", 30): ("8338db5081b148a0", 260, 5),
    ("log(2, 7)", 100): ("118335a623e1cf02", 1167, 7),
    ("log(1, 6)", 30): ("dee3aa33357219ee", 261, 5),
    ("log(1, 6)", 100): ("7addad865b3c1a21", 1170, 7),
    ("soz(3, 9)", 30): ("41a5b2c5171603af", 245, 5),
    ("soz(3, 9)", 100): ("c6cb71a8d1b49a28", 1111, 7),
    ("c(1)", 30): ("cb0681a89934e3bc", 296, 5),
    ("c(1)", 100): ("d79b60ed9ab55e76", 1311, 7),
    ("c(2)", 30): ("7e4eb63ce2f83ced", 317, 5),
    ("c(2)", 100): ("da9afdcaf3fb7cef", 1396, 7),
}
RECORDED_INTEGRALS = {
    "phi(1, 3)": lambda prec: quad_phi(1, 3, prec),
    "phi(2, 7/2)": lambda prec: quad_phi(2, Fraction(7, 2), prec),
    "phi(1, 1 + 1e-6)": lambda prec: quad_phi(1, 1 + Fraction(1, 10**6), prec),
    "log(2, 7)": lambda prec: quad_log_family(2, 7, prec),
    "log(1, 6)": lambda prec: quad_log_family(1, 6, prec),
    "soz(3, 9)": lambda prec: quad_sinh_over_z(3, 9, prec),
    "c(1)": lambda prec: quad_c_constant(1, prec),
    "c(2)": lambda prec: quad_c_constant(2, prec),
}


def fingerprint(result) -> str:
    """SHA-256 of (sign, int(man), exp, bc) of the value and of the error
    estimate; int() keeps it independent of mpmath's backend."""
    raw = [
        (sign, int(man), exp, bc)
        for sign, man, exp, bc in (result.value._mpf_, result.error_estimate._mpf_)
    ]
    return hashlib.sha256(repr(raw).encode()).hexdigest()[:16]


class TestBitIdentity:
    @pytest.mark.parametrize("name, prec", sorted(RECORDED))
    def test_matches_recorded_result(self, name, prec):
        quadrature._quad_cache.clear()
        result = RECORDED_INTEGRALS[name](prec)
        assert (fingerprint(result), result.nodes_used, result.levels) == RECORDED[name, prec]
