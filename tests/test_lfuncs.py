"""Numeric basis evaluation: frozen references, dual paths, precision contract."""

import math
import sys
import threading
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from arcmellin import (
    ClosedForm,
    DomainError,
    PrecisionError,
    beta_at_negative_even,
    beta_prime_neg,
    beta_prime_odd,
    beta_prime_value,
    beta_value,
    eta_prime,
    eta_prime_neg,
    eta_value,
    eval_closed_form,
    mellin_bound_gamma_ratio,
    phi1_bounds,
    quad_phi,
    zeta_even_value,
    zeta_prime_even,
)
from arcmellin import lfuncs
from arcmellin.closedform import (
    LN2,
    LNPI,
    ONE,
    beta_prime_ratio,
    phi_even_closed_form,
    phi_odd_closed_form,
    zeta_prime_ratio,
)
from arcmellin.lfuncs import GUARD_DIGITS, ln2, ln_pi, symbol_value


def zeta_prime_euler_maclaurin(s: int, dps: int, head: int = 50, order: int = 30) -> mpf:
    """Independent zeta'(s) oracle: Euler-Maclaurin for sum ln(n)/n^s.

    f(x) = ln(x) x^{-s} has f^{(m)}(x) = x^{-s-m} (a_m + b_m ln x) with
    a_{m+1} = -(s+m) a_m + b_m and b_{m+1} = -(s+m) b_m.
    """
    from arcmellin import bernoulli

    with mp.workdps(dps):
        n = mpf(head)
        total = mp.fsum(mp.log(j) * mpf(j) ** (-s) for j in range(2, head))
        total += (mp.log(n) / (s - 1) + 1 / mpf(s - 1) ** 2) * n ** (1 - s)
        total += mp.log(n) * n ** (-s) / 2
        a, b = mpf(0), mpf(1)
        m = 0
        derivs = {}
        while m < 2 * order:
            a, b = -(s + m) * a + b, -(s + m) * b
            m += 1
            if m % 2 == 1:
                derivs[m] = n ** (-s - m) * (a + b * mp.log(n))
        for k in range(1, order + 1):
            br = bernoulli(2 * k)
            total -= mpf(br.numerator) / br.denominator / mp.factorial(2 * k) * derivs[2 * k - 1]
        return -total


BETA_PRIME_1 = "0.192901316796912429363189764028032785245096868"
ZETA_PRIME_2 = "-0.937548254315843753702574094567864977897860289"
BETA_PRIME_NEG_0 = "0.39159439270683677647194534689911102809"


class TestAlternatingSums:
    def test_eta_prime_at_1_closed_form(self):
        # eta'(1) = gamma ln 2 - (ln 2)^2 / 2
        got = eta_prime(1, 40)
        with mp.workdps(60):
            expected = mp.euler * mp.log(2) - mp.log(2) ** 2 / 2
            assert abs(got - expected) < mpf(10) ** -40

    def test_eta_at_2(self):
        got = eta_value(2, 40)
        with mp.workdps(60):
            assert abs(got - mp.pi**2 / 12) < mpf(10) ** -40

    def test_beta_at_1_leibniz(self):
        got = beta_value(1, 40)
        with mp.workdps(60):
            assert abs(got - mp.pi / 4) < mpf(10) ** -40

    def test_beta_prime_at_1_frozen(self):
        got = beta_prime_odd(0, 40)
        with mp.workdps(60):
            assert abs(got - mpf(BETA_PRIME_1)) < mpf(10) ** -40

    def test_prefix_consistency_30_vs_60(self):
        lo = eta_prime(2, 30)
        hi = eta_prime(2, 60)
        assert abs(lo - hi) < mpf(10) ** -30

    def test_beta_prime_3_prec_monotone(self):
        lo = beta_prime_odd(1, 25)
        hi = beta_prime_odd(1, 55)
        assert abs(lo - hi) < mpf(10) ** -25

    def test_domain_below_one(self):
        with pytest.raises(DomainError):
            eta_value("0.5", 30)


def per_term_log_value(func, s: Fraction, prec: int) -> mpf:
    """``func(s, prec)`` with the kernel rebuilt on every call: fresh
    Chebyshev weights, fresh ln m by the kernel's construction (mp.log of a
    prime, ln p + ln(m/p) for a composite m with smallest prime factor p)
    and c_k L(m) / m^s; a bit-identity oracle for the kernel tables."""
    odd = func in (beta_value, beta_prime_value)
    with_log = func in (eta_prime, beta_prime_value)
    with mp.workdps(prec + GUARD_DIGITS):
        sv = mpf(s.numerator) / s.denominator
        n = int(mp.dps / 0.75) + 8
        d = (3 + mp.sqrt(8)) ** n
        d = (d + 1 / d) / 2
        b, c, total, logs = mpf(-1), -d, mpf(0), {}
        for k in range(n):
            c = b - c
            b = (k + n) * (k - n) * b / ((k + mpf(1) / 2) * (k + 1))
            m = 2 * k + 1 if odd else k + 1
            if not with_log:
                total += c / m ** sv
            elif m > 1:
                p = next((q for q in range(2, math.isqrt(m) + 1) if m % q == 0), m)
                logs[m] = mp.log(m) if p == m else logs[p] + logs[m // p]
                total += c * logs[m] / m ** sv
        return -(total / d) if with_log else total / d


DIRICHLET_SUMS = [eta_value, eta_prime, beta_value, beta_prime_value]
KERNEL_ARGS = [Fraction(1), Fraction(2), Fraction(7, 2), Fraction(7), Fraction(26)]


class TestKernelTable:
    @pytest.mark.parametrize("prec", [10, 100, 500])
    def test_bit_identical_to_per_term_logs(self, prec):
        for func in DIRICHLET_SUMS:
            for s in KERNEL_ARGS:
                expected = per_term_log_value(func, s, prec)
                assert func(s, prec)._mpf_ == expected._mpf_, (func.__name__, s)

    def test_table_follows_the_precision(self):
        # a table kept across a precision change would hand 500-digit weights
        # and logs to the second 30-digit round
        for prec in (30, 500, 30):
            for func in DIRICHLET_SUMS:
                for s in (Fraction(2), Fraction(7, 2)):
                    expected = per_term_log_value(func, s, prec)
                    assert func(s, prec)._mpf_ == expected._mpf_, (func.__name__, prec)

    def test_two_precisions_in_two_threads(self):
        # each 20-digit eta' replaces the tables that the 500-digit form and
        # beta' sums fill; the lock must keep every value equal to its serial one
        ks, svals = [3, 4, 5, 6], [2, 3, 4, 5] * 5
        form = basis_form(12)

        def high():
            return [eval_closed_form(form, 500)] + [beta_prime_value(k, 500) for k in ks]

        clear_basis_caches()
        expected_high = high()
        expected_eta = [eta_prime(s, 20) for s in svals]
        clear_basis_caches()
        got_high, got_eta = [], []
        threads = [
            threading.Thread(target=lambda: got_high.extend(high())),
            threading.Thread(target=lambda: got_eta.extend(eta_prime(s, 20) for s in svals)),
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
        assert [v._mpf_ for v in got_high] == [v._mpf_ for v in expected_high]
        assert [v._mpf_ for v in got_eta] == [v._mpf_ for v in expected_eta]


def basis_form(n: int) -> ClosedForm:
    """A form reading all four kernel families at every index p <= n."""
    return (
        phi_odd_closed_form(1, n)
        + phi_odd_closed_form(2, n)
        + phi_even_closed_form(1, n + 1)
        + phi_even_closed_form(2, n + 1)
    )


def clear_basis_caches() -> None:
    with lfuncs._MP_LOCK:
        lfuncs._constant_cache.clear()
        lfuncs._weight_tables.clear()
        lfuncs._log_tables.clear()


def kernel_values(prec: int, p_max: int = 12) -> dict:
    return {
        (family, p): lfuncs._basis_sum(family, p, prec)._mpf_
        for family in lfuncs._FAMILIES
        for p in range(p_max + 1)
    }


def beta_prime_hurwitz(s) -> mpf:
    """beta'(s) for s > 1 as the derivative of 4^-s (zeta(s, 1/4) - zeta(s, 3/4));
    the two Hurwitz values cancel about s log10(3) digits."""
    quarter, three_quarters = mpf(1) / 4, mpf(3) / 4
    value = mp.zeta(s, quarter) - mp.zeta(s, three_quarters)
    slope = mp.zeta(s, quarter, 1) - mp.zeta(s, three_quarters, 1)
    return mpf(4) ** -s * (slope - mp.log(4) * value)


class TestRealSumsAgainstMpmath:
    """The public real-s sums against mpmath: eta against mp.altzeta, eta'
    against 2^{1-s} ln 2 zeta(s) + (1 - 2^{1-s}) zeta'(s) with
    mp.zeta(s, 1, 1), beta against mp.dirichlet and beta' against
    ``beta_prime_hurwitz``."""

    @pytest.mark.parametrize("prec", [10, 100, 500])
    @pytest.mark.parametrize("s", [Fraction(7, 2), Fraction(26)], ids=["7/2", "26"])
    @pytest.mark.parametrize("func", DIRICHLET_SUMS, ids=lambda f: f.__name__)
    def test_relative_error(self, func, s, prec):
        got = func(s, prec)
        with mp.workdps(prec + int(s) + 20):
            sv = mpf(s.numerator) / s.denominator
            if func is eta_value:
                oracle = mp.altzeta(sv)
            elif func is eta_prime:
                two = mpf(2) ** (1 - sv)
                oracle = two * mp.log(2) * mp.zeta(sv) + (1 - two) * mp.zeta(sv, 1, 1)
            elif func is beta_value:
                oracle = mp.dirichlet(sv, [0, 1, 0, -1])
            else:
                oracle = beta_prime_hurwitz(sv)
            assert abs(got - oracle) < mpf(10) ** -prec * abs(oracle)


class TestBasisKernelOracles:
    """The kernel against mpmath's own functions, each at its own precision:
    zeta' against mp.zeta(s, 1, 1), beta' against the derivative of
    4^-s (zeta(s, 1/4) - zeta(s, 3/4)) (at s = 1, where both Hurwitz values
    have their pole, against pi/4 (gamma + 2 ln 2 + 3 ln pi - 4 ln Gamma(1/4))),
    eta against mp.zeta and beta against mp.dirichlet."""

    CASES = [(100, p) for p in range(13)] + [(500, 0), (500, 12)]

    @pytest.mark.parametrize("prec, p", CASES)
    def test_zeta_prime_even(self, prec, p):
        got = zeta_prime_even(p, prec)
        with mp.workdps(prec + 20):
            assert abs(got - mp.zeta(2 * p + 2, 1, 1)) < mpf(10) ** -prec

    @pytest.mark.parametrize("prec, p", CASES)
    def test_beta_prime_odd(self, prec, p):
        got = beta_prime_odd(p, prec)
        s = 2 * p + 1
        with mp.workdps(prec + s + 20):
            if s == 1:
                gamma_quarter = mp.gamma(mpf(1) / 4)
                logs = mp.euler + 2 * mp.log(2) + 3 * mp.log(mp.pi) - 4 * mp.log(gamma_quarter)
                oracle = mp.pi / 4 * logs
            else:
                oracle = beta_prime_hurwitz(s)
            assert abs(got - oracle) < mpf(10) ** -prec

    @pytest.mark.parametrize("prec, p", CASES)
    def test_eta_odd(self, prec, p):
        got = lfuncs._basis_sum("eta", p, prec)
        s = 2 * p + 3
        with mp.workdps(prec + 20):
            assert abs(got - (1 - mpf(2) ** (1 - s)) * mp.zeta(s)) < mpf(10) ** -prec

    @pytest.mark.parametrize("prec, p", CASES)
    def test_beta_even(self, prec, p):
        got = lfuncs._basis_sum("beta", p, prec)
        with mp.workdps(prec + 20):
            assert abs(got - mp.dirichlet(2 * p + 2, [0, 1, 0, -1])) < mpf(10) ** -prec


class TestBasisKernelInvariants:
    @pytest.mark.parametrize("prec", [100, 500])
    def test_value_does_not_depend_on_the_sweep(self, prec):
        clear_basis_caches()
        alone = {}
        for family in lfuncs._FAMILIES:
            for p in range(13):
                with lfuncs._cache_lock:
                    lfuncs._constant_cache.clear()
                alone[family, p] = lfuncs._basis_sum(family, p, prec)._mpf_
        clear_basis_caches()
        eval_closed_form(basis_form(12), prec)
        assert kernel_values(prec) == alone
        for order in ((2, 3, 10), (10, 3, 2)):
            clear_basis_caches()
            for n in order:
                eval_closed_form(basis_form(n), prec)
            assert kernel_values(prec) == alone, order

    def test_two_precisions_in_two_threads(self):
        # every 30-digit form adds one index per family, so its sweeps keep
        # replacing the tables that the 500-digit sweeps fill
        forms = [basis_form(n) for n in range(1, 13)]
        clear_basis_caches()
        expected_high = eval_closed_form(forms[-1], 500)
        expected_low = [eval_closed_form(form, 30) for form in forms]
        expected_sums = kernel_values(500)
        clear_basis_caches()
        got_high, got_low = [], []
        threads = [
            threading.Thread(target=lambda: got_high.append(eval_closed_form(forms[-1], 500))),
            threading.Thread(target=lambda: got_low.extend(eval_closed_form(f, 30) for f in forms)),
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
        assert [v._mpf_ for v in got_high] == [expected_high._mpf_]
        assert [v._mpf_ for v in got_low] == [v._mpf_ for v in expected_low]
        assert kernel_values(500) == expected_sums


class TestZetaPrimeEven:
    def test_zeta2_recovered_from_eta(self):
        got = zeta_even_value(1, 40)
        with mp.workdps(60):
            assert abs(got - mp.pi**2 / 6) < mpf(10) ** -40
        eta2 = eta_value(2, 40)
        with mp.workdps(60):
            assert abs(eta2 / (1 - mpf(2) ** -1) - got) < mpf(10) ** -38

    def test_frozen_value(self):
        got = zeta_prime_even(0, 40)
        with mp.workdps(60):
            assert abs(got - mpf(ZETA_PRIME_2)) < mpf(10) ** -40

    def test_euler_maclaurin_oracle_at_double_precision(self):
        for p, prec in ((0, 30), (1, 30)):
            got = zeta_prime_even(p, prec)
            oracle = zeta_prime_euler_maclaurin(2 * p + 2, 2 * prec)
            assert abs(got - oracle) < mpf(10) ** -prec

    def test_dual_acceleration_agreement(self):
        # same target through the accelerated path at two precisions plus
        # the Euler-Maclaurin path: all three must coincide
        a = zeta_prime_even(1, 30)
        b = zeta_prime_even(1, 50)
        c = zeta_prime_euler_maclaurin(4, 80)
        assert abs(a - b) < mpf(10) ** -30
        assert abs(b - c) < mpf(10) ** -48


class TestNegativeArguments:
    def test_beta_side_products(self):
        assert beta_at_negative_even(0) == Fraction(1, 2)
        assert beta_at_negative_even(1) == Fraction(-1, 2)

    def test_beta_prime_neg0_against_lemniscatic_constant(self):
        # beta'(0) = ln(Gamma(1/4)^2 / (2 pi sqrt 2)), an independent route
        got = beta_prime_neg(0, 36)
        with mp.workdps(60):
            expected = mp.log(mp.gamma(mpf(1) / 4) ** 2 / (2 * mp.pi * mp.sqrt(2)))
            assert abs(got - expected) < mpf(10) ** -36
            assert abs(got - mpf(BETA_PRIME_NEG_0)) < mpf(10) ** -36

    @pytest.mark.parametrize("i", range(5))
    def test_eta_prime_neg_dual_arrangements(self, i):
        prec = 35
        a = eta_prime_neg(i, prec, via="zeta")
        b = eta_prime_neg(i, prec, via="eta")
        assert abs(a - b) < mpf(10) ** -(prec - 3)

    @pytest.mark.parametrize("i", range(5))
    def test_beta_prime_neg_dual_arrangements(self, i):
        prec = 35
        a = beta_prime_neg(i, prec, via="odd")
        b = beta_prime_neg(i, prec, via="reflection")
        assert abs(a - b) < mpf(10) ** -(prec - 3)

    # Both arrangements read the one summation kernel, so these check the
    # reflection algebra.  The values grow with i, so the tolerance is
    # relative.
    @pytest.mark.parametrize("i", range(13))
    def test_eta_prime_neg_dual_arrangements_at_200_digits(self, i):
        prec = 200
        a = eta_prime_neg(i, prec, via="zeta")
        b = eta_prime_neg(i, prec, via="eta")
        assert abs(a - b) < mpf(10) ** -(prec - 3) * abs(a)

    @pytest.mark.parametrize("i", range(13))
    def test_beta_prime_neg_dual_arrangements_at_200_digits(self, i):
        prec = 200
        a = beta_prime_neg(i, prec, via="odd")
        b = beta_prime_neg(i, prec, via="reflection")
        assert abs(a - b) < mpf(10) ** -(prec - 3) * abs(a)

    def test_cross_check_against_quadrature(self):
        # beta'(0) + beta'(-2) equals the x^2 Mellin value of the weighted
        # transform at s = 3
        prec = 25
        with mp.workdps(prec + 15):
            total = beta_prime_neg(0, prec) + beta_prime_neg(1, prec)
            quad = quad_phi(2, 3, prec).value
            assert abs(total - quad) < mpf(10) ** -(prec - 5)

    def test_eta_prime_neg_cross_check(self):
        prec = 25
        with mp.workdps(prec + 15):
            total = (
                mpf(4) / 3 * eta_prime_neg(0, prec)
                + mpf(8) / 3 * eta_prime_neg(1, prec)
            )
        quad = quad_phi(1, 3, prec).value
        assert abs(total - quad) < mpf(10) ** -(prec - 5)


class TestEvalClosedForm:
    def test_constant(self):
        form = ClosedForm([(ONE, Fraction(3, 4))])
        assert eval_closed_form(form, 20) == mpf(3) / 4

    def test_empty(self):
        assert eval_closed_form(ClosedForm(), 20) == 0

    def test_phi2_3_display(self):
        form = ClosedForm(
            [
                (beta_prime_ratio(0), Fraction(-2)),
                (beta_prime_ratio(1), Fraction(16)),
                (ONE, Fraction(3, 4)),
            ]
        )
        got = eval_closed_form(form, 30)
        quad = quad_phi(2, 3, 30).value
        assert abs(got - quad) < mpf(10) ** -25

    def test_linearity(self):
        x = ClosedForm([(zeta_prime_ratio(0), Fraction(2)), (LN2, Fraction(1, 3))])
        y = ClosedForm([(LNPI, Fraction(-1)), (LN2, Fraction(5))])
        a, b = Fraction(7, 3), Fraction(-2, 9)
        prec = 30
        lhs = eval_closed_form(x.scale(a) + y.scale(b), prec)
        with mp.workdps(prec + 15):
            rhs = (
                mpf(a.numerator) / a.denominator * eval_closed_form(x, prec)
                + mpf(b.numerator) / b.denominator * eval_closed_form(y, prec)
            )
            assert abs(lhs - rhs) < mpf(10) ** -(prec + 5)

    def test_phi_odd_250_keeps_the_precision_contract(self):
        # the alternating coefficients cancel about 22 digits, more than the
        # guard holds; a fixed guard left a relative error of 3e-5 at prec 10
        form = phi_odd_closed_form(1, 250)
        got = eval_closed_form(form, 10)
        values = [(coeff, symbol_value(sym.kind, sym.index, 60)) for sym, coeff in form.items()]
        with mp.workdps(90):
            reference = mp.fsum(mpf(c.numerator) / c.denominator * v for c, v in values)
            assert abs(got - reference) < mpf(10) ** -10 * abs(reference)

    @staticmethod
    def ln2_minus_rational(digits: int) -> tuple[ClosedForm, Fraction]:
        """ln 2 - r, where r is ln 2 cut to ``digits`` decimals."""
        with mp.workdps(digits + 20):
            r = Fraction(int(mp.log(2) * 10**digits), 10**digits)
        return ClosedForm([(LN2, Fraction(1)), (ONE, -r)]), r

    def test_cancellation_is_re_evaluated(self):
        form, r = self.ln2_minus_rational(22)
        got = eval_closed_form(form, 10)
        with mp.workdps(60):
            exact = mp.log(2) - mpf(r.numerator) / r.denominator
            assert abs(got - exact) < mpf(10) ** -10 * abs(exact)

    def test_cancellation_past_the_cap_fails_loudly(self):
        form, _ = self.ln2_minus_rational(30)
        with pytest.raises(PrecisionError):
            eval_closed_form(form, 980)

    def test_cache_hits_are_bit_identical(self):
        first = symbol_value("beta_prime_ratio", 1, 30)
        second = symbol_value("beta_prime_ratio", 1, 30)
        assert first == second and first is second


class TestPrecisionContract:
    @pytest.mark.parametrize(
        "fn",
        [
            lambda p: eta_prime(2, p),
            lambda p: beta_prime_odd(1, p),
            lambda p: zeta_prime_even(0, p),
            lambda p: eta_prime_neg(1, p),
            lambda p: beta_prime_neg(2, p),
            lambda p: ln2(p),
            lambda p: ln_pi(p),
        ],
    )
    @pytest.mark.parametrize("prec", [20, 35])
    def test_stability_under_precision_bump(self, fn, prec):
        assert abs(fn(prec) - fn(prec + 20)) < mpf(10) ** -prec


class TestBounds:
    def test_phi2_upper_at_3_is_one(self):
        lower, upper = mellin_bound_gamma_ratio(3, 30)
        with mp.workdps(45):
            assert abs(upper - 1) < mpf(10) ** -28
            assert abs(lower - mpf(1) / 3) < mpf(10) ** -28

    def test_phi1_bounds_at_2(self):
        lower, upper = phi1_bounds(2, 30)
        with mp.workdps(45):
            assert abs(lower - mpf(2) / 3) < mpf(10) ** -28
        assert upper == 1

    def test_bounds_bracket_quadrature(self):
        value = quad_phi(2, 3, 25).value
        lower, upper = mellin_bound_gamma_ratio(3, 25)
        assert lower < value < upper

    def test_s_at_most_one_rejected(self):
        with pytest.raises(DomainError):
            mellin_bound_gamma_ratio(1, 20)


class TestEvenArgumentSymbols:
    @pytest.mark.parametrize("p", [0, 1, 4])
    def test_zeta_odd_ratio_against_mpmath_zeta(self, p):
        got = symbol_value("zeta_odd_ratio", p, 40)
        with mp.workdps(60):
            assert abs(got - mp.zeta(2 * p + 3) / mp.pi ** (2 * p + 2)) < mpf(10) ** -40

    @pytest.mark.parametrize("p", [0, 1, 4])
    def test_beta_even_ratio_against_mpmath_dirichlet(self, p):
        got = symbol_value("beta_even_ratio", p, 40)
        with mp.workdps(60):
            beta = mp.dirichlet(2 * p + 2, [0, 1, 0, -1])
            assert abs(got - beta / mp.pi ** (2 * p + 1)) < mpf(10) ** -40

    def test_catalan_constant(self):
        with mp.workdps(45):
            assert abs(symbol_value("beta_even_ratio", 0, 30) * mp.pi - mp.catalan) < mpf(10) ** -30


def test_global_context_is_restored():
    from arcmellin import quad_phi, sinh_over_z_integral

    before = mp.dps
    eval_closed_form(sinh_over_z_integral(1, 4), 45)
    quad_phi(2, 3, 22)
    eta_prime_neg(1, 33)
    assert mp.dps == before


def test_concurrent_evaluation_is_consistent():
    from concurrent.futures import ThreadPoolExecutor

    from arcmellin import sinh_over_z_integral

    form = sinh_over_z_integral(1, 4)
    with ThreadPoolExecutor(max_workers=4) as pool:
        values = list(pool.map(lambda _: eval_closed_form(form, 25), range(12)))
    assert len(set(values)) == 1
