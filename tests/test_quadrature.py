"""Quadrature oracle: agreement with closed forms, convergence, domains."""

import hashlib
import statistics
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
from arcmellin.lfuncs import _as_mpf


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


class TestStoppingRule:
    """A level j >= 2 stops when its predicted digits, min(d1^2/d2, 2 d1),
    reach the working digits plus 10."""

    @pytest.mark.parametrize(
        "integral, form",
        [
            # without the 2 d1 cap, d1^2/d2 stops these at level 2 or 3
            (lambda prec: quad_log_family(2, 7, prec), lambda: log_integral_odd_cosh(2, 3)),
            (lambda prec: quad_log_family(2, 9, prec), lambda: log_integral_odd_cosh(2, 4)),
            (lambda prec: quad_log_family(1, 6, prec), lambda: log_integral_even_cosh(1, 3)),
        ],
    )
    def test_no_early_stop_on_a_lucky_level(self, integral, form):
        prec = 30
        value = integral(prec).value
        exact = eval_closed_form(form(), prec + 20)
        with mp.workdps(prec + 40):
            assert abs(value - exact) < mpf(10) ** -(prec + 5) * abs(exact)

    def test_stops_on_the_prediction_at_100_digits(self):
        # the change target alone runs to level 7 with 1,309 nodes
        quadrature._quad_cache.clear()
        result = quad_phi(1, 3, 100)
        assert result.levels == 6
        assert result.nodes_used < 1309

    @pytest.mark.parametrize("s, prec", [(231, 4), (78, 2)])
    def test_no_coincidental_stop_below_5_digits(self, s, prec):
        # levels 1 and 2 of these agree to 10^-(prec+2) by coincidence; a
        # change target met there returned 2.2 and 0.5 correct digits
        quadrature._quad_cache.clear()
        value = quad_phi(1, s, prec).value
        exact = eval_closed_form(_exact_phi(1, s), 30)
        with mp.workdps(40):
            assert abs(value - exact) <= mpf(10) ** -prec * abs(exact)


def _exact_phi(which: int, s: int):
    half = s // 2
    return phi_odd_closed_form(which, half) if s % 2 else phi_even_closed_form(which, half)


# (integral at a precision, exact closed form): the 66 integrals of acceptance
# criterion 5, Phi_1 and Phi_2 at seven s, and the two C constants
HONEST_CASES = (
    [
        (lambda prec, q=q, n=n: quad_log_family(q, 2 * n + 1, prec), lambda q=q, n=n: log_integral_odd_cosh(q, n))
        for n in range(1, 6)
        for q in range(n)
    ]
    + [
        (lambda prec, q=q, n=n: quad_log_family(q, 2 * n, prec), lambda q=q, n=n: log_integral_even_cosh(q, n))
        for n in range(1, 7)
        for q in range(n)
    ]
    + [
        (lambda prec, q=q, n=n: quad_sinh_over_z(q, n, prec), lambda q=q, n=n: sinh_over_z_integral(q, n))
        for n in range(3, 13)
        for q in range(1, (n - 1) // 2 + 1)
    ]
    + [
        (lambda prec, w=which, s=s: quad_phi(w, s, prec), lambda w=which, s=s: _exact_phi(w, s))
        for which in (1, 2)
        for s in (3, 4, 7, 10, 41, 129, 200)
    ]
    + [
        (lambda prec: quad_c_constant(1, prec), lambda: C1_CLOSED_FORM),
        (lambda prec: quad_c_constant(2, prec), lambda: C2_CLOSED_FORM),
    ]
)


class TestHonestEstimate:
    @pytest.mark.parametrize("prec", [10, 30, 60, 100])
    def test_estimate_bounds_the_true_error_closely(self, prec):
        assert len(HONEST_CASES) == 82
        over, missed = [], []
        for k, (integral, form) in enumerate(HONEST_CASES):
            result = integral(prec)
            exact = eval_closed_form(form(), prec + 20)
            with mp.workdps(prec + 40):
                error = abs(result.value - exact)
                if result.error_estimate < error:
                    missed.append(k)
                elif error:
                    over.append(float(mp.log10(result.error_estimate / error)))
        assert missed == []
        # digits by which the estimate exceeds the true error
        assert statistics.median(over) <= 6


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


def _mpf_expression(tanh_power, sech_power: int, log_z: bool = False):
    """The monomial integrand written as mpf operations,
    tanh_z ** a * sech_z ** b * (1 + u) [* ln z * z]: the oracle that the
    raw-tuple kernel ``quadrature._monomial`` must match bit for bit."""
    make_mpf = mp.make_mpf

    def term(ln_z, w, tanh_z, sech_z, z):
        val = make_mpf(tanh_z) ** tanh_power * make_mpf(sech_z) ** sech_power
        if log_z:
            return (val * make_mpf(ln_z) * make_mpf(w) * make_mpf(z))._mpf_
        return (val * make_mpf(w))._mpf_

    return term


def _c_constant_expression(which: int):
    """The integrands of ``quad_c_constant``, which are mpf expressions in
    the package too, written out again over its cancellation-safe brackets."""
    make_mpf = mp.make_mpf

    def term(ln_z, w, tanh_z, sech_z, z):
        tanh_z, sech_z, z, w = (make_mpf(x) for x in (tanh_z, sech_z, z, w))
        if which == 1:
            return (quadrature._one_over_z_minus_coth(z, tanh_z) * sech_z ** 2 * w * z)._mpf_
        return (quadrature._sinh_minus_z(z, tanh_z, sech_z) * sech_z ** 2 / tanh_z * w)._mpf_

    return term


# name: (the package's integral at a precision, its oracle integrand, built
# inside the working precision with the exponent s - 1 that quad_phi uses)
RECORDED_INTEGRALS = {
    "phi(1, 3)": (lambda prec: quad_phi(1, 3, prec), lambda: _mpf_expression(_as_mpf(3) - 1, 2)),
    "phi(2, 7/2)": (
        lambda prec: quad_phi(2, Fraction(7, 2), prec),
        lambda: _mpf_expression(_as_mpf(Fraction(7, 2)) - 1, 1),
    ),
    "phi(1, 1 + 1e-6)": (
        lambda prec: quad_phi(1, 1 + Fraction(1, 10**6), prec),
        lambda: _mpf_expression(_as_mpf(1 + Fraction(1, 10**6)) - 1, 2),
    ),
    "log(2, 7)": (lambda prec: quad_log_family(2, 7, prec), lambda: _mpf_expression(5, 2, log_z=True)),
    "log(1, 6)": (lambda prec: quad_log_family(1, 6, prec), lambda: _mpf_expression(3, 3, log_z=True)),
    "soz(3, 9)": (lambda prec: quad_sinh_over_z(3, 9, prec), lambda: _mpf_expression(6, 3)),
    "c(1)": (lambda prec: quad_c_constant(1, prec), lambda: _c_constant_expression(1)),
    "c(2)": (lambda prec: quad_c_constant(2, prec), lambda: _c_constant_expression(2)),
}


def oracle(name: str, prec: int):
    """``_de_halfline`` on the oracle integrand of ``name``."""
    with quadrature._working(prec):
        return quadrature._de_halfline(RECORDED_INTEGRALS[name][1](), prec)


def fingerprint(*values) -> str:
    """SHA-256 of (sign, int(man), exp, bc) of each mpf; int() keeps it
    independent of mpmath's backend."""
    raw = [(sign, int(man), exp, bc) for sign, man, exp, bc in (v._mpf_ for v in values)]
    return hashlib.sha256(repr(raw).encode()).hexdigest()[:16]


# The oracle's results: the fingerprint of the value and error estimate, the
# node count and the level.
RECORDED = {
    ("phi(1, 3)", 30): ("8d591ae3b08acf28", 295, 5),
    ("phi(1, 3)", 100): ("a56b4142f21368ff", 673, 6),
    ("phi(2, 7/2)", 30): ("25454ca430de7879", 309, 5),
    ("phi(2, 7/2)", 100): ("af4943de5362b437", 702, 6),
    ("phi(1, 1 + 1e-6)", 30): ("33667ff6412780e5", 765, 5),
    ("phi(1, 1 + 1e-6)", 100): ("fc4fc865c3ff7d50", 1607, 6),
    ("log(2, 7)", 30): ("5756d484b5f8f0cb", 260, 5),
    ("log(2, 7)", 100): ("c784c1799db934b9", 601, 6),
    ("log(1, 6)", 30): ("26ec59c16556a0b7", 261, 5),
    ("log(1, 6)", 100): ("37c4de762a0d0d66", 603, 6),
    ("soz(3, 9)", 30): ("6458d4baee0bfc4e", 245, 5),
    ("soz(3, 9)", 100): ("f274875f001f8601", 573, 6),
    ("c(1)", 30): ("242a48eeff3ea718", 296, 5),
    ("c(1)", 100): ("d3c3064e9672c311", 674, 6),
    ("c(2)", 30): ("65af60ea51ae0a82", 317, 5),
    ("c(2)", 100): ("410b8c833eebac4c", 716, 6),
}

# The fingerprints of the 30-digit values before the predicted-error stopping
# rule, when every integral ran one level past the first level that met the
# change target: at 30 digits both rules stop at the same level.
VALUES_30 = {
    "phi(1, 3)": "34c83a0e369d7d08",
    "phi(2, 7/2)": "994b811287a99afd",
    "phi(1, 1 + 1e-6)": "b06b2d44734dee72",
    "log(2, 7)": "d2d69293fa1efefa",
    "log(1, 6)": "b95f2655c9e283b2",
    "soz(3, 9)": "b32f7680690cf090",
    "c(1)": "acb3d6c3be883d47",
    "c(2)": "e2a5ee2dbc4483b2",
}


class TestBitIdentity:
    @pytest.mark.parametrize("name, prec", sorted(RECORDED))
    def test_kernel_matches_mpf_expression(self, name, prec):
        quadrature._quad_cache.clear()
        assert RECORDED_INTEGRALS[name][0](prec) == oracle(name, prec)

    @pytest.mark.parametrize("name, prec", sorted(RECORDED))
    def test_matches_recorded_result(self, name, prec):
        quadrature._quad_cache.clear()
        result = RECORDED_INTEGRALS[name][0](prec)
        recorded = (fingerprint(result.value, result.error_estimate), result.nodes_used, result.levels)
        assert recorded == RECORDED[name, prec]

    @pytest.mark.parametrize("name", sorted(VALUES_30))
    def test_30_digit_values_unchanged(self, name):
        quadrature._quad_cache.clear()
        assert fingerprint(RECORDED_INTEGRALS[name][0](30).value) == VALUES_30[name]
