"""Quadrature oracle: agreement with closed forms, convergence, domains."""

import functools
import hashlib
import os
import random
import statistics
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpf
from mpmath.libmp import libelefun

from arcmellin import (
    DomainError,
    PrecisionError,
    beta_prime_value,
    eval_closed_form,
    log_integral_even_cosh,
    log_integral_odd_cosh,
    phi1_bounds,
    phi_even_closed_form,
    quad_c_constant,
    quad_log_family,
    quad_phi,
    quad_sinh_over_z,
    sinh_over_z_integral,
    phi_odd_closed_form,
)
from arcmellin import exact, lfuncs, quadrature
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

    @pytest.mark.parametrize("s", [float("inf"), "inf", mpf("inf")])
    def test_infinite_s_rejected(self, s):
        # not a point of the domain; the integrand would vanish at every node
        with pytest.raises(DomainError, match="finite"):
            quad_phi(1, s, 30)

    def test_monotone_decreasing_in_s(self):
        values = [quad_phi(1, s, 25).value for s in (2, 3, 5, 9)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_cache_returns_identical_result(self):
        a = quad_phi(1, 3, 25)
        b = quad_phi(1, 3, 25)
        assert a is b


class TestPrecisionArgument:
    """Every entry point takes ``prec`` as an int number of digits in
    [1, 100]; a float or a bool is refused rather than cached under it."""

    ENTRIES = [
        lambda p: quad_phi(1, 3, p),
        lambda p: quadrature.quad_phi_many([(2, 3)], p)[0],
        lambda p: quad_log_family(0, 3, p),
        lambda p: quad_sinh_over_z(1, 3, p),
        lambda p: quad_c_constant(1, p),
    ]

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("prec", [30.0, 30.5, 1.0, True, False, 0, 101])
    def test_refused(self, entry, prec):
        with pytest.raises(DomainError, match=r"prec must be an int in \[1, 100\], got"):
            entry(prec)

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("prec", [1, 30, 100])
    def test_the_ends_are_accepted(self, entry, prec):
        # the two ends of the range, and 30, the default precision
        result = entry(prec)
        assert result.levels >= 1 and result.error_estimate < mpf(10) ** -prec * abs(result.value)


class TestIntegerArguments:
    """``which``, ``q`` and ``N`` name an integral: a value that is not an
    int, or is a bool, is refused as a domain error rather than failing
    inside a kernel or being cached under it."""

    @pytest.mark.parametrize("call", [
        lambda: quad_phi(2.0, 3, 12),
        lambda: quad_phi(True, 3, 12),
        lambda: quadrature.quad_phi_many([(2.0, 3)], 12),
        lambda: quadrature.quad_phi_many([(1, 3), (True, 5)], 12),
        lambda: quad_c_constant(2.0, 12),
        lambda: quad_c_constant(True, 12),
        lambda: quad_log_family(1.0, 5, 12),
        lambda: quad_log_family(0, "3", 12),
        lambda: quad_log_family(True, 5, 12),
        lambda: quad_log_family(1, 5.0, 12),
        lambda: quad_sinh_over_z(1, 5.0, 12),
        lambda: quad_sinh_over_z(True, 5, 12),
        lambda: quad_sinh_over_z(1.0, 5, 12),
    ])
    def test_refused(self, call):
        quadrature._quad_cache.clear()
        with pytest.raises(DomainError, match="must be an int"):
            call()
        assert not quadrature._quad_cache


class TestNextToThePole:
    """Phi_which(1 + eps) = 1/eps + C_which + O(eps): at eps = 10^-k the
    value is 10^k + C to the requested relative precision, which needs the
    exponent s - 1 formed exactly rather than from a rounded s (at k = 60,
    past the working digits, a rounded s is 1 and would be refused)."""

    @pytest.mark.parametrize("which", [1, 2])
    @pytest.mark.parametrize("k", [20, 40, 60])
    def test_pole_plus_constant(self, which, k):
        prec = 30
        value = quad_phi(which, 1 + Fraction(1, 10**k), prec).value
        constant = eval_closed_form(C1_CLOSED_FORM if which == 1 else C2_CLOSED_FORM, prec)
        with mp.workdps(prec + 15):
            expected = mpf(10) ** k + constant
            assert abs(value - expected) < mpf(10) ** -(prec - 2) * expected

    def test_decimal_string_is_exact(self):
        s = "1." + "0" * 39 + "1"
        assert quad_phi(1, s, 30).value == quad_phi(1, 1 + Fraction(1, 10**40), 30).value


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

    @pytest.mark.parametrize("prec", [1, 2, 3, 5, 8, 10, 12, 20, 45, 80])
    @pytest.mark.parametrize("which", [1, 2])
    def test_ten_digits_past_the_request_and_an_honest_estimate(self, which, prec):
        # the direct brackets lose relative digits near z = 0 but only about
        # 2^-wprec of absolute error per node
        result = quad_c_constant(which, prec)
        closed = eval_closed_form((C1_CLOSED_FORM, C2_CLOSED_FORM)[which - 1], prec + 20)
        with mp.workdps(prec + 40):
            error = abs(result.value - closed)
            assert error <= mpf(10) ** -(prec + 10) * abs(closed)
            assert result.error_estimate >= error

    def test_reads_no_bernoulli_number(self, monkeypatch):
        quadrature._quad_cache.clear()
        expected = quad_c_constant(1, 30)
        quadrature._quad_cache.clear()
        # a zigzag table with A_1 = 2 instead of 1, so B_2 = 1/3 instead of
        # 1/6, and every later A_n, read or grown, twice its value
        monkeypatch.setattr(exact, "_zigzag", [1, 2])
        monkeypatch.setattr(exact, "_seidel_row", [0, 2])
        try:
            assert quad_c_constant(1, 30) == expected
        finally:
            quadrature._quad_cache.clear()


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

    @pytest.mark.parametrize(
        "which, s, prec",
        [
            (1, 10**20, 30),
            (2, 10**20, 30),
            (1, 10**19, 100),
            (1, 5 * 10**18, 30),
            (2, 9 * 10**18, 100),
        ],
    )
    def test_no_level_zero_term_raises(self, which, s, prec):
        # the peak near z = (ln 2s)/2 lies past the three negligible level-0
        # nodes that end the right wing; a value from those nodes alone lies
        # far below the lower bound 2/(s^2-1).  Below 10^19 the level-0 guard
        # raises, from 10^19 on quad_phi before any node.
        with pytest.raises(PrecisionError, match="no level-0 term"):
            quad_phi(which, s, prec)

    @pytest.mark.parametrize("prec", [1, 30, 100])
    @pytest.mark.parametrize("which", [1, 2])
    def test_huge_s_raises_before_any_node(self, which, prec):
        with lfuncs._MP_LOCK:
            quadrature._node_tables.clear()
        with pytest.raises(PrecisionError, match="no level-0 term"):
            quad_phi(which, 10**19, prec)
        assert not quadrature._node_tables

    def test_huge_s_returns(self):
        # the centre node of s = 10^100000 alone is a power of tanh z with a
        # 332,000-bit exponent; in a child process, so that it cannot hang
        code = (
            "from arcmellin import PrecisionError, quad_phi\n"
            "try:\n"
            "    quad_phi(1, '1e100000', 30)\n"
            "except PrecisionError as error:\n"
            "    print(error)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30
        )
        assert proc.returncode == 0, proc.stderr
        assert "no level-0 term" in proc.stdout

    @pytest.mark.parametrize("which", [1, 2])
    def test_large_s_to_its_precision(self, which):
        # near the peak tanh z is close to 1, so a power a = s - 1 of a
        # rounded tanh z is off by about a 2^-wprec in every term, a bias no
        # level-to-level change sees; exp(a ln tanh z) is not
        low, high = quad_phi(which, 10**18, 30), quad_phi(which, 10**18, 60)
        with mp.workdps(80):
            gap = abs(low.value - high.value)
            assert gap <= mpf(10) ** -30 * high.value
            assert gap <= low.error_estimate

    def test_estimate_covers_the_error_at_a_million(self):
        low, high = quad_phi(2, 10**6, 30), quad_phi(2, 10**6, 60)
        with mp.workdps(80):
            assert abs(low.value - high.value) <= low.error_estimate

    def test_peak_seen_at_level_zero_still_converges(self):
        # Phi_1(s) = (2 + o(1)) / (s ln s): 0.971 of it at s = 10^18
        s = 10**18
        value = quad_phi(1, s, 30).value
        lo, hi = phi1_bounds(s, 30)
        assert lo < value < hi
        assert 0.95 < value * s * mp.log(s) / 2 < 1


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
        # the indicator of z < 1: its jump keeps each level-to-level change
        # near 2e-4, so no level meets 12 digits and the sweep must say so
        # at the level cap rather than return
        with quadrature._working(12):
            bits, _ = quadrature._scale()
            one = 1 << bits

            def term(entry, scratch):
                return entry[1] * entry[4] >> bits if entry[4] < one else 0

            with pytest.raises(PrecisionError, match="after 12 levels"):
                quadrature._de_halfline([quadrature._Kernel(term, 2)], 12)

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

    @pytest.mark.parametrize("which, s, prec", [(1, 219, 1), (1, 220, 1), (2, 175, 1), (2, 175, 2)])
    def test_estimate_bounds_a_level_3_stop_below_5_digits(self, which, s, prec):
        # these stop at level 3 on the change target after a level 0 that
        # saw almost none of the peak; the prediction with the growth capped
        # at 1.5 estimated 1.4e-6 to 6.8e-6 relative against true errors of
        # 7.2e-7 to 8.1e-6
        result = quad_phi(which, s, prec)
        exact = eval_closed_form(_exact_phi(which, s), 30)
        assert result.levels == 3
        with mp.workdps(40):
            assert abs(result.value - exact) <= result.error_estimate
            assert result.error_estimate <= mpf(10) ** -prec * exact

    @pytest.mark.parametrize("prec", [12, 15, 20])
    @pytest.mark.parametrize("k", range(10, 18))
    def test_change_target_is_relative_below_one(self, k, prec):
        # Phi_1(s) is about 2/(s ln s); a change target of 10^-(prec+2)
        # absolute let two coarse levels that both miss the narrow peak
        # agree, 37% off at s = 10^13 and 12 digits with an estimate of 11%
        result = quad_phi(1, 10**k, prec)
        reference = _phi1_at_40_digits(k)
        with mp.workdps(50):
            error = abs(result.value - reference)
            assert error <= mpf(10) ** -prec * reference
            assert error <= result.error_estimate

    def test_no_estimate_above_the_request_at_large_s(self):
        # level 10 met the change target with an estimate of 2.97e-99
        # relative at 100 digits; one more level brings it under 1e-100
        result = quad_phi(1, 10**15, 100)
        with mp.workdps(110):
            assert result.error_estimate <= mpf(10) ** -100 * result.value

    @pytest.mark.parametrize(
        "which, s", [(1, 32), (1, 34), (1, 36), (1, 38), (2, 34), (2, 36), (2, 38), (2, 40)]
    )
    def test_no_estimate_above_the_request_in_coupled(self, which, s):
        # integrals of verify coupled at 100 digits that stopped at level 6
        # with estimates of 1.6e-100 to 4.1e-95 relative
        result = quad_phi(which, s, 100)
        exact = eval_closed_form(phi_even_closed_form(which, s // 2), 120)
        with mp.workdps(130):
            assert result.error_estimate <= mpf(10) ** -100 * exact
            assert abs(result.value - exact) <= result.error_estimate


@functools.cache
def _phi1_at_40_digits(k: int) -> mpf:
    return quad_phi(1, 10**k, 40).value


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


def _suite_requests():
    """Every (which, s) the four numeric suites of ``verify all`` integrate."""
    from arcmellin.verify import DEFAULT_BOUNDS_GRID

    grid = [Fraction(s) for s in DEFAULT_BOUNDS_GRID]
    grid += [Fraction(s0 + 2 * n) for s0 in (2, 4, 6) for n in range(30)]
    grid += [1 + Fraction(1, 10**k) for k in range(1, 7)]
    grid += [Fraction(s) for n in range(1, 7) for s in (2 * n + 1, 2 * n)]
    return [(which, s) for s in grid for which in (1, 2)]


class TestBatch:
    """``quad_phi_many`` runs the uncached integrals as one lockstep sweep;
    each result must be the one a single call gives, bit for bit."""

    @pytest.mark.parametrize("prec", [12, 30])
    def test_suite_grids_match_single_calls(self, prec):
        # at 12 digits Phi_1(10^18) has no level-0 term above the cutoff
        requests = _suite_requests() + [
            (1, 10**18 if prec == 30 else 10**17),
            (2, 10**18),
            (1, 1 + Fraction(1, 10**40)),
            (2, "1." + "0" * 39 + "1"),
            # tanh exponents 1, 3, 7, ..., 127, each a binary prefix of the next
            *[(which, 2**k) for k in range(1, 8) for which in (1, 2)],
            # tanh exponents 4095 and 4096, either side of _LADDER_LIMIT
            *[(which, s) for s in (4096, 4097) for which in (1, 2)],
            *[(which, s) for s in (Fraction(7), "7.5") for which in (1, 2)],
            (1, 3),
            (1, "3.0"),
            (2, Fraction(7, 2)),
            (2, "3.5"),
        ]
        quadrature._quad_cache.clear()
        batch = quadrature.quad_phi_many(requests, prec)
        # every distinct s once, shared by its duplicates
        assert len(quadrature._quad_cache) == 105
        assert batch[-4] is batch[-3] and batch[-2] is batch[-1]
        assert len({result.levels for result in batch}) > 1
        alone = []
        for which, s in requests:
            quadrature._quad_cache.clear()
            alone.append(quad_phi(which, s, prec))
        assert batch == alone
        # the same results in reversed and shuffled sweeps
        shuffled = list(range(len(requests)))
        random.Random(prec).shuffle(shuffled)
        for order in (range(len(requests) - 1, -1, -1), shuffled):
            quadrature._quad_cache.clear()
            swept = quadrature.quad_phi_many([requests[i] for i in order], prec)
            assert swept == [alone[i] for i in order]

    def test_cache_keyed_by_the_exact_s(self):
        quadrature._quad_cache.clear()
        same = [quad_phi(1, s, 30) for s in (3, "3", "3.0", Fraction(3), mpf(3))]
        assert len(quadrature._quad_cache) == 1
        assert all(result is same[0] for result in same)
        assert quad_phi(1, "1.5", 30) is quad_phi(1, Fraction(3, 2), 30)
        assert len(quadrature._quad_cache) == 2

    @pytest.mark.parametrize(
        "bad, error, match",
        [
            (10**19, PrecisionError, "no level-0 term"),
            ("1e20", PrecisionError, "no level-0 term"),
            (1, DomainError, "s > 1"),
            ("0.5", DomainError, "s > 1"),
            (mpf("inf"), DomainError, "finite"),
        ],
    )
    def test_a_bad_member_raises_before_any_node(self, bad, error, match):
        quadrature._quad_cache.clear()
        with lfuncs._MP_LOCK:
            quadrature._node_tables.clear()
        with pytest.raises(error, match=match):
            quad_phi(2, bad, 30)
        with pytest.raises(error, match=match):
            quadrature.quad_phi_many([(1, 3), (2, bad), (1, 5)], 30)
        assert not quadrature._quad_cache
        assert not quadrature._node_tables

    def test_a_member_without_level_zero_terms_raises(self):
        # the level-0 guard of one kernel ends the sweep, and nothing of it
        # is cached
        quadrature._quad_cache.clear()
        with pytest.raises(PrecisionError, match="no level-0 term"):
            quadrature.quad_phi_many([(1, 3), (1, 5 * 10**18), (2, 5)], 30)
        assert not quadrature._quad_cache

    def test_overlapping_batches_in_two_threads(self):
        first = [(which, s) for s in range(2, 41, 2) for which in (1, 2)] + [(1, Fraction(5, 2))]
        second = [(which, s) for s in range(20, 61, 2) for which in (2, 1)] + [(2, Fraction(5, 2))]
        quadrature._quad_cache.clear()
        expected = [quadrature.quad_phi_many(first, 20), quadrature.quad_phi_many(second, 20)]
        quadrature._quad_cache.clear()
        got = [None, None]

        def run(i, requests):
            got[i] = quadrature.quad_phi_many(requests, 20)

        threads = [threading.Thread(target=run, args=(i, r)) for i, r in enumerate((first, second))]
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
        assert got == expected

    def test_the_two_constants_share_one_sweep(self):
        # each constant equals the one a sweep of its kernel alone gives
        quadrature._quad_cache.clear()
        pair = quad_c_constant(1, 30), quad_c_constant(2, 30)
        assert len(quadrature._quad_cache) == 2
        with quadrature._working(30):
            alone = [quadrature._de_halfline([quadrature._c_constant_term(which)], 30)[0] for which in (1, 2)]
        assert list(pair) == alone


def _floor_product(x: int, y: int, bits: int) -> int:
    """floor(x y 2^-bits)."""
    return x * y // 2**bits


def _integer_power(x: int, n: int, bits: int) -> int:
    """(x 2^-bits)^n at scale 2^bits for n >= 1, by recursion on n: the
    square of the power n // 2, times x when n is odd, each product floored.
    This takes the products in the order of a left-to-right binary ladder."""
    if n == 1:
        return x
    half = _integer_power(x, n // 2, bits)
    square = _floor_product(half, half, bits)
    return _floor_product(square, x, bits) if n % 2 else square


def _mpf_ln_tanh(z):
    """ln tanh z in mpf at the context precision: the log of tanh z below
    z = 1, and its equal -2 atanh(e^-2z) from there on, which keeps the
    relative digits that the log of a tanh z next to 1 loses."""
    return mp.log(mp.tanh(z)) if z < 1 else -2 * mp.atanh(mp.exp(-2 * z))


def _entry_ln_tanh(entry: list, bits: int, wp: int) -> mpf:
    """ln tanh z in mpf at 2 wp bits for the z of a node table entry's
    ln z, not read from the node table's sixth slot."""
    with mp.workprec(2 * wp):
        return _mpf_ln_tanh(mp.exp(mp.ldexp(entry[0], -bits)))


def _exp_power(exponent, entry: list, bits: int, wp: int) -> int:
    """floor(exp(a ln tanh z) 2^bits) in mpf operators at wp bits, with
    ln tanh z from ``_entry_ln_tanh``."""
    ln_tanh = _entry_ln_tanh(entry, bits, wp)
    with mp.workprec(wp):
        a = mpf(exponent.numerator) / exponent.denominator
        return int(mp.floor(mp.ldexp(mp.exp(a * ln_tanh), bits)))


def _integer_monomial(exponent, sech_power: int, log_z: bool = False):
    """The monomial integrand written on the node table's integers,
    tanh^a z sech^b z w or tanh^a z sech^b z (ln z w z): the oracle whose
    integral ``quadrature._monomial`` must match exactly.  An int a is an
    integer power, whose terms match bit for bit, and a Fraction a an exp of
    a ln tanh z in mpf, whose terms can differ from the kernel's integer
    exp by a unit or so at a node but not in the rounded sums.  Its error bound is
    the documented one: 3a units for an integer power and 4 for the exp,
    3b + 1 more for the product with sech^b z, then 2 more times 1 + w + z,
    or 4 more and 8 times that with ln z w z."""
    bits = mp.prec + quadrature._GUARD_BITS
    wp = bits + quadrature._FILL_BITS

    def term(entry, scratch):
        ln_z, w, tanh_z, sech_z, z = entry[:5]
        if isinstance(exponent, int):
            power = _integer_power(tanh_z, exponent, bits) if exponent else 2**bits
        else:
            power = _exp_power(exponent, entry, bits, wp)
        value = _floor_product(power, _integer_power(sech_z, sech_power, bits), bits)
        if log_z:
            return _floor_product(value, _floor_product(_floor_product(ln_z, w, bits), z, bits), bits)
        return _floor_product(value, w, bits)

    product = (3 * exponent if isinstance(exponent, int) else 4) + 3 * sech_power + 1
    return quadrature._Kernel(term, 8 * (product + 4) if log_z else product + 2)


def _integer_c_constant(which: int):
    """The integrand of ``quad_c_constant`` on the node table's integers,
    sech^(3 - which) z (1 - z/X) w with X = tanh z or sinh z, the bracket
    formed in mpf operators from z/tanh z = exp(ln z - ln tanh z) at the
    fill precision, with ln tanh z from ``_entry_ln_tanh``: the oracle whose
    integral ``quadrature._c_constant_term`` must match exactly, with its
    documented bound of 32 (1 + w + z) units."""
    bits = mp.prec + quadrature._GUARD_BITS
    wp = bits + quadrature._FILL_BITS

    def term(entry, scratch):
        ln_z, w, _, sech_z, _ = entry[:5]
        ln_tanh = _entry_ln_tanh(entry, bits, wp)
        with mp.workprec(wp):
            ratio = mp.exp(mp.ldexp(ln_z, -bits) - ln_tanh)
            if which == 2:
                ratio *= mp.ldexp(sech_z, -bits)
            bracket = int(mp.floor(mp.ldexp(1 - ratio, bits)))
        value = _floor_product(bracket, _integer_power(sech_z, 3 - which, bits), bits)
        return _floor_product(value, w, bits)

    return quadrature._Kernel(term, 32)


# name: (the package's integral at a precision, its oracle integrand, built
# inside the working precision with the exact exponent s - 1 that quad_phi
# uses, and the same integrand in mpf at any precision, as a function of t)
RECORDED_INTEGRALS = {
    "phi(1, 3)": (
        lambda prec: quad_phi(1, 3, prec),
        lambda: _integer_monomial(2, 2),
        lambda t: _mpf_monomial(t, 2, 2),
    ),
    "phi(2, 7/2)": (
        lambda prec: quad_phi(2, Fraction(7, 2), prec),
        lambda: _integer_monomial(Fraction(5, 2), 1),
        lambda t: _mpf_monomial(t, mpf(5) / 2, 1),
    ),
    "phi(1, 1 + 1e-6)": (
        lambda prec: quad_phi(1, 1 + Fraction(1, 10**6), prec),
        lambda: _integer_monomial(Fraction(1, 10**6), 2),
        lambda t: _mpf_monomial(t, mpf(1) / 10**6, 2),
    ),
    "log(2, 7)": (
        lambda prec: quad_log_family(2, 7, prec),
        lambda: _integer_monomial(5, 2, log_z=True),
        lambda t: _mpf_monomial(t, 5, 2, log_z=True),
    ),
    "log(1, 6)": (
        lambda prec: quad_log_family(1, 6, prec),
        lambda: _integer_monomial(3, 3, log_z=True),
        lambda t: _mpf_monomial(t, 3, 3, log_z=True),
    ),
    "soz(3, 9)": (
        lambda prec: quad_sinh_over_z(3, 9, prec),
        lambda: _integer_monomial(6, 3),
        lambda t: _mpf_monomial(t, 6, 3),
    ),
    "c(1)": (lambda prec: quad_c_constant(1, prec), lambda: _integer_c_constant(1), lambda t: _mpf_c_constant(t, 1)),
    "c(2)": (lambda prec: quad_c_constant(2, prec), lambda: _integer_c_constant(2), lambda t: _mpf_c_constant(t, 2)),
}


def oracle(name: str, prec: int):
    """``_de_halfline`` on the oracle integrand of ``name``."""
    with quadrature._working(prec):
        return quadrature._de_halfline([RECORDED_INTEGRALS[name][1]()], prec)[0]


def _mpf_monomial(t, tanh_power, sech_power: int, log_z: bool = False):
    """tanh^a z sech^b z w [ln z z] at t, in mpf at the context precision."""
    u = mp.exp(-t)
    z = mp.exp(t - u)
    value = mp.tanh(z) ** tanh_power * mp.sech(z) ** sech_power * (1 + u)
    return value * (t - u) * z if log_z else value


def _mpf_c_constant(t, which: int):
    """sech^(3 - which) z (1 - z/X) w at t, X = tanh z or sinh z, in mpf at
    the context precision."""
    u = mp.exp(-t)
    z = mp.exp(t - u)
    x = mp.tanh(z) if which == 1 else mp.sinh(z)
    return mp.sech(z) ** (3 - which) * (1 - z / x) * (1 + u)


_REFERENCE_DIGITS = 200


@functools.lru_cache(maxsize=None)
def mpf_reference(name: str) -> mpf:
    """The integral of ``name`` at ``_REFERENCE_DIGITS`` digits, twice the
    largest quadrature precision: a trapezoid sum of the mpf integrand on
    the same node map, over the t-range where level 0 sees terms above
    10^-(digits+20), with the mesh halved until a level j >= 3 changes the
    sum by under 10^-(digits/2+10) of it: the digits of the rule about
    double per level, so that level is good to about 10^-(digits+20)."""
    f = RECORDED_INTEGRALS[name][2]
    with mp.workdps(_REFERENCE_DIGITS + 20):
        eps = mpf(10) ** -(_REFERENCE_DIGITS + 20)

        def end(sign: int) -> int:
            k = 1
            while abs(f(mpf(sign * k))) > eps or abs(f(mpf(sign * (k + 1)))) > eps:
                k += 1
            return k + 1

        lo, hi = -end(-1), end(1)
        total = mp.fsum(f(mpf(k)) for k in range(lo, hi + 1))
        value, level = total, 0
        while True:
            level += 1
            h = mp.ldexp(1, -level)
            total += mp.fsum(f(k * h) for k in range(lo * 2**level + 1, hi * 2**level, 2))
            previous, value = value, total * h
            if level >= 3 and abs(value - previous) < mpf(10) ** -(_REFERENCE_DIGITS // 2 + 10) * abs(value):
                return value


def fingerprint(*values) -> str:
    """SHA-256 of (sign, int(man), exp, bc) of each mpf; int() keeps it
    independent of mpmath's backend."""
    raw = [(sign, int(man), exp, bc) for sign, man, exp, bc in (v._mpf_ for v in values)]
    return hashlib.sha256(repr(raw).encode()).hexdigest()[:16]


# The results of the integer kernels: the fingerprint of the value and error
# estimate, the node count and the level.  Every entry was recorded when the
# sums moved from mpf operations to integers at the scale 2^F; the nodes and
# levels stayed those of the mpf sums except for c(1) and c(2), which take 3
# or 4 more nodes: their brackets near z = 0 are now about -z^2/3 and z^2/6
# rather than exactly 0, so the left wings end a little further out.
RECORDED = {
    ("phi(1, 3)", 30): ("a2ff2e5d5a33f8fb", 295, 5),
    ("phi(1, 3)", 100): ("d368be7aadb28e4f", 673, 6),
    ("phi(2, 7/2)", 30): ("4ca3d9128ea40d6c", 309, 5),
    ("phi(2, 7/2)", 100): ("753f8c765a32cbaa", 702, 6),
    ("phi(1, 1 + 1e-6)", 30): ("ca3fe7bcb9dbfcad", 765, 5),
    ("phi(1, 1 + 1e-6)", 100): ("b8b8f76bdc348742", 1607, 6),
    ("log(2, 7)", 30): ("dd1f8d29c76855cd", 260, 5),
    ("log(2, 7)", 100): ("ad186bc66f27bbf4", 601, 6),
    ("log(1, 6)", 30): ("7b1d7d90b21a6e78", 261, 5),
    ("log(1, 6)", 100): ("ab403533c275daef", 603, 6),
    ("soz(3, 9)", 30): ("bcf138ef6354ed09", 245, 5),
    ("soz(3, 9)", 100): ("cc61747fb9be8df2", 573, 6),
    ("c(1)", 30): ("145500fce2fb7efe", 296, 5),
    ("c(1)", 100): ("9fb9c5ad0e551a4b", 674, 6),
    ("c(2)", 30): ("9a980a6752c5359f", 317, 5),
    ("c(2)", 100): ("54c431558df5ae22", 716, 6),
}

# The fingerprints of the 30-digit values alone, recorded with RECORDED.
VALUES_30 = {
    "phi(1, 3)": "05461abec56a4262",
    "phi(2, 7/2)": "95ba289193c43494",
    "phi(1, 1 + 1e-6)": "4b8b98eb52625968",
    "log(2, 7)": "8d838ec0cc1e8ee5",
    "log(1, 6)": "f8af474fbaa2c49c",
    "soz(3, 9)": "e97a506ea9004a98",
    "c(1)": "acb3d6c3be883d47",
    "c(2)": "d7f522d327ea7d07",
}


class TestBitIdentity:
    @pytest.mark.parametrize("name, prec", sorted(RECORDED))
    def test_kernel_matches_mpf_expression(self, name, prec):
        # the oracle is the test-local integer integrand, with its mpf steps
        # (ln tanh z, the exp of a ln tanh z and the C brackets) as mpf
        # expressions; their terms are within a few units of the kernels'
        # integer ones, far below the rounding of each level's sum
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


def _straight_ladder(x: int, n: int, bits: int) -> int:
    """(x 2^-bits)^n at scale 2^bits for n >= 1: a left-to-right binary
    ladder over the digits of n after its leading 1, each product floored."""
    power = x
    for digit in bin(n)[3:]:
        power = power * power >> bits
        if digit == "1":
            power = power * x >> bits
    return power


class TestTanhPowerMemo:
    """``_tanh_power`` memoises every binary prefix in the node's scratch;
    each power must be the integer a straight ladder makes, whatever the
    scratch already holds."""

    EXPONENTS = list(range(1, 301)) + [4095]

    @pytest.mark.parametrize("prec", [30, 100])
    @pytest.mark.parametrize("t", [-3, 0, Fraction(1, 2), 4])
    def test_matches_a_straight_ladder(self, prec, t):
        with quadrature._working(prec):
            bits, wp = quadrature._scale()
            key = int(t * 2**quadrature.MAX_LEVEL)
            entry = quadrature._fill(key, bits, wp)
            power = quadrature._tanh_power(bits, wp)
            expected = {n: _straight_ladder(entry[2], n, bits) for n in self.EXPONENTS}
            # each power from an empty scratch
            for n in self.EXPONENTS:
                assert power(entry, {}, n) == expected[n]
            # and from one that the powers before it, in random order, filled
            order = list(self.EXPONENTS)
            random.Random(prec + key).shuffle(order)
            scratch = {}
            for n in order:
                assert power(entry, scratch, n) == expected[n]
            # every prefix it kept, 511, 1023 and 2047 of 4095 too
            assert all(value == _straight_ladder(entry[2], n, bits) for n, value in scratch.items())
            assert set(scratch) == set(self.EXPONENTS[1:]) | {511, 1023, 2047}


def _fill_reference(key: int, bits: int, wp: int) -> list:
    """ln z, w, tanh z, sech z and z at t = key 2^-MAX_LEVEL, as mpf at
    twice the fill precision: the values a node table entry approximates."""
    with mp.workprec(2 * wp):
        t = mp.ldexp(key, -quadrature.MAX_LEVEL)
        u = mp.exp(-t)
        z = mp.exp(t - u)
        return [t - u, 1 + u, mp.tanh(z), mp.sech(z), z]


def _fill_misses(entry: list, reference: list, bits: int, wp: int) -> list[int]:
    """The slots of a node table entry outside the documented bound, one
    unit plus 2^(bits-wp+8) max(1, |v|) units of the value v, and the two
    slots formed from them that differ from their integer expressions."""
    misses = []
    with mp.workprec(2 * wp):
        for slot, value in enumerate(reference):
            bound = 1 + mp.ldexp(max(1, abs(value)), bits - wp + 8)
            if abs(entry[slot] - mp.ldexp(value, bits)) > bound:
                misses.append(slot)
    ln_z, w, _, _, z = entry[:5]
    if entry[6] != w + z:
        misses.append(6)
    if entry[7] != (ln_z * w >> bits) * z >> bits:
        misses.append(7)
    return misses


def _ln_tanh_excess(entry: list, key: int, bits: int, wp: int) -> mpf:
    """The error of the entry's ln tanh z slot, filled here, over its
    documented bound, a relative (6 + z/64) 2^-bits, against ln tanh z at
    twice the fill precision: at most 1 where the bound holds."""
    man, exp = quadrature._ln_tanh(entry, bits, wp)
    with mp.workprec(2 * wp):
        z = _fill_reference(key, bits, wp)[4]
        ln_tanh = _mpf_ln_tanh(z)
        return abs(mp.ldexp(man, exp) - ln_tanh) / (abs(ln_tanh) * mp.ldexp(6 + z / 64, -bits))


def _last_key_below(ln_z: mpf, wp: int) -> int:
    """The largest key whose node has t - e^-t below ``ln_z``."""
    lo, hi = -200 << quadrature.MAX_LEVEL, 20 << quadrature.MAX_LEVEL
    with mp.workprec(2 * wp):
        while hi - lo > 1:
            mid = (lo + hi) // 2
            t = mp.ldexp(mid, -quadrature.MAX_LEVEL)
            if t - mp.exp(-t) < ln_z:
                lo = mid
            else:
                hi = mid
    return lo


class TestFill:
    """``_fill`` on integers: every slot within its documented bound of an
    mpf reference, and every entry a pure function of (key, precision)."""

    # t from -22 to +10, a few hundred keys with every low binary digit set
    # somewhere, and the keys next to t = 0
    KEYS = list(range(-22 * 4096, 10 * 4096 + 1, 331)) + [-1, 0, 1]

    @pytest.mark.parametrize("prec", [1, 12, 30, 60, 100])
    def test_every_slot_within_its_bound(self, prec):
        floored_z = floored_e = 0
        with quadrature._working(prec):
            bits, wp = quadrature._scale()
            # ln tanh z is ln z itself below z = 2^-(wp+1), a series in z^2
            # below z = 1 and an atanh of e^-2z above: three keys on each
            # side of both ends too
            with mp.workprec(2 * wp):
                ends = [_last_key_below(-(wp + 1) * mp.ln2, wp), _last_key_below(mpf(0), wp)]
            for key in self.KEYS + [key for end in ends for key in range(end - 2, end + 4)]:
                entry = quadrature._fill(key, bits, wp)
                assert _fill_misses(entry, _fill_reference(key, bits, wp), bits, wp) == [], key
                # the sixth slot is filled on first use
                assert entry[5] is None
                assert _ln_tanh_excess(entry, key, bits, wp) <= 1, key
                assert entry[5] == quadrature._ln_tanh(entry, bits, wp)
                floored_z += entry[4] == 0 and entry[3] == 1 << bits
                floored_e += entry[3] == 0 and entry[2] == 1 << bits
        # the far left, where z floors to 0, and the far right, where e^-z does
        assert floored_z > 100 and floored_e > 30

    @staticmethod
    def _fill_table(keys, prec):
        """A node table filled for ``keys`` in their order, each entry on a
        miss inside ``_working(prec)``, as ``_de_halfline`` fills it."""
        for key in keys:
            with quadrature._working(prec):
                bits, wp = quadrature._scale()
                table = lfuncs._precision_table(quadrature._node_tables)
                if key not in table:
                    table[key] = quadrature._fill(key, bits, wp)
        with quadrature._working(prec):
            return dict(lfuncs._precision_table(quadrature._node_tables))

    @staticmethod
    def _clear():
        with lfuncs._MP_LOCK:
            quadrature._node_tables.clear()
            quadrature._factor_tables.clear()

    @pytest.mark.parametrize("prec", [12, 100])
    def test_shuffled_and_threaded_fills_agree(self, prec):
        keys = list(range(-9 * 4096, 7 * 4096, 97))
        self._clear()
        in_order = self._fill_table(keys, prec)
        # so the factor tables grow in another order too
        shuffled = list(keys)
        random.Random(prec).shuffle(shuffled)
        self._clear()
        assert self._fill_table(shuffled, prec) == in_order
        # two threads, each over every key in its own order, filling
        # whichever entries the other has not
        self._clear()
        orders = [shuffled, keys]
        threads = [threading.Thread(target=self._fill_table, args=(order, prec)) for order in orders]
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
        with quadrature._working(prec):
            assert lfuncs._precision_table(quadrature._node_tables) == in_order

    def test_one_factor_table_after_a_precision_switch(self):
        self._clear()
        for prec in (30, 60, 30):
            quadrature._quad_cache.clear()
            quad_phi(1, 3, prec)
            with quadrature._working(prec):
                assert list(quadrature._factor_tables) == [mp.prec]
                assert list(quadrature._node_tables) == [mp.prec]
                factors = quadrature._factor_tables[mp.prec]
                assert set(factors) == {-1, 1}
        # the factors after the switch back are the ones a fresh table holds
        kept = {sign: list(values) for sign, values in factors.items()}
        self._clear()
        quadrature._quad_cache.clear()
        quad_phi(1, 3, 30)
        with quadrature._working(30):
            assert quadrature._factor_tables[mp.prec] == kept


class TestExpParts:
    """``_exp_parts``, the one exponential of the fill and the kernels,
    within its documented relative (|n| + 4) 2^-wide of exp at three times
    the precision: for arguments from -200 to 10, for small ones that take
    no squaring, and at the scales of 1 to 100 digits."""

    @pytest.mark.parametrize("wide", [60, 120, 245, 477])
    def test_within_its_bound(self, wide):
        rng = random.Random(wide)
        ln2 = libelefun.ln2_fixed(wide)
        xs = [rng.randrange(-200 << wide, 10 << wide) for _ in range(100)]
        xs += [rng.randrange(-1 << wide, 1 << wide) >> rng.randrange(wide) for _ in range(100)]
        xs += [0, 1, -1, ln2, -ln2, ln2 >> 1, -(ln2 >> 1)]
        misses = []
        for x in xs:
            m, n = quadrature._exp_parts(x, ln2, wide)
            with mp.workprec(3 * wide):
                exact = mp.exp(mp.ldexp(x, -wide))
                if abs(mp.ldexp(m, n - wide) - exact) > exact * mp.ldexp(abs(n) + 4, -wide):
                    misses.append(x)
        assert misses == []


class TestTanhPowerExtremes:
    """tanh^a z for a fractional or large a, exp(a ln tanh z) on integers,
    within its declared 4 units of the mpf value at twice the fill
    precision, for a from 10^-60 to 10^18 - 1, at every node from t = -150,
    where Phi at s = 1 + 10^-60 peaks, to t = 10.  a and ln tanh z must
    both keep their relative digits: a fixed-point a would lose those of
    10^-60, and a fixed-point ln tanh z those of 10^18 - 1 near z = 21,
    where tanh^a z falls from 1 to 0."""

    EXPONENTS = [
        Fraction(1, 10**60), Fraction(1, 10**6), Fraction(1, 100), Fraction(1, 2),
        Fraction(5, 2), Fraction(4096), Fraction(10**18 - 1),
    ]
    KEYS = list(range(-150 << 12, 10 << 12, 997)) + list(range(10240, 14746, 61))

    @pytest.mark.parametrize("prec", [1, 12, 30, 60, 100])
    def test_within_its_units(self, prec):
        misses = []
        seen = dict.fromkeys(self.EXPONENTS, 0)
        with quadrature._working(prec):
            bits, wp = quadrature._scale()
            power = quadrature._tanh_power(bits, wp)
            exponents = [quadrature._exponent(a, wp) for a in self.EXPONENTS]
            assert not any(isinstance(exponent, int) for exponent in exponents)
            for key in self.KEYS:
                entry = quadrature._fill(key, bits, wp)
                with mp.workprec(2 * wp):
                    ln_tanh = _mpf_ln_tanh(_fill_reference(key, bits, wp)[4])
                    for a, exponent in zip(self.EXPONENTS, exponents):
                        value = power(entry, {}, exponent)
                        exact = mp.ldexp(mp.exp(a.numerator * ln_tanh / a.denominator), bits)
                        if abs(value - exact) > 4:
                            misses.append((a, key, float(value - exact)))
                        seen[a] += 4 < value < 2**bits - 4
        assert misses == []
        # every a falls from 1 to 0 over the nodes
        assert min(seen.values()) >= 3


class TestCConstantTerm:
    """The two C kernels, their brackets on integers, within their declared
    units (1 + w + z) of the mpf term at twice the fill precision at every
    node from t = -22 to 10, on both sides of z = 1, where the bracket
    changes from the series in z^2 to the entry's tanh z."""

    @pytest.mark.parametrize("prec", [1, 12, 30, 100])
    @pytest.mark.parametrize("which", [1, 2])
    def test_within_its_units(self, which, prec):
        misses = []
        with quadrature._working(prec):
            bits, wp = quadrature._scale()
            kernel = quadrature._c_constant_term(which)
            last = _last_key_below(mpf(0), wp)
            for key in TestFill.KEYS + list(range(last - 2, last + 4)):
                entry = quadrature._fill(key, bits, wp)
                with mp.workprec(2 * wp):
                    t = mp.ldexp(key, -quadrature.MAX_LEVEL)
                    exact = mp.ldexp(_mpf_c_constant(t, which), bits)
                    weight = 1 + mp.ldexp(entry[6], -bits)
                    if abs(kernel.term(entry, {}) - exact) > kernel.units * weight:
                        misses.append(key)
        assert misses == []


class TestNoMpfPerNode:
    """The kernels and the node fill run on integers: a sweep calls mpmath's
    mpf exp, log and cosh/sinh only in its set-up, for the factor table (at
    most 20 factors a sign) and for two mpf powers in each kernel's error
    estimate, however many nodes it fills and sums."""

    CODES = {libelefun.mpf_exp.__code__, libelefun.mpf_log.__code__, libelefun.mpf_cosh_sinh.__code__}

    @pytest.mark.parametrize("prec", [30, 100])
    @pytest.mark.parametrize("sweep, kernels", [
        (lambda p: quadrature.quad_phi_many([(1, Fraction(11, 10)), (2, Fraction(3, 2)), (1, 1 + Fraction(1, 10**6))], p), 3),
        (lambda p: [quad_c_constant(1, p), quad_c_constant(2, p)], 2),
    ])
    def test_a_fixed_number_per_sweep(self, sweep, kernels, prec):
        calls = []

        def count(frame, event, arg):
            if event == "call" and frame.f_code in self.CODES:
                calls.append(frame.f_code.co_name)

        with lfuncs._MP_LOCK:
            quadrature._quad_cache.clear()
            quadrature._node_tables.clear()
            quadrature._factor_tables.clear()
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            results = sweep(prec)
        finally:
            sys.setprofile(previous)
        nodes = sum(result.nodes_used for result in results)
        assert len(calls) <= 2 * 20 + 4 * kernels < nodes / 10


class TestAgainstMpf:
    """Each recorded integral within its error estimate of the mpf trapezoid
    sum at twice the largest quadrature precision."""

    @pytest.mark.parametrize("prec", [1, 5, 12, 30, 60, 100])
    @pytest.mark.parametrize("name", sorted(RECORDED_INTEGRALS))
    def test_within_the_estimate(self, name, prec):
        result = RECORDED_INTEGRALS[name][0](prec)
        reference = mpf_reference(name)
        with mp.workdps(_REFERENCE_DIGITS + 20):
            assert abs(result.value - reference) <= result.error_estimate
