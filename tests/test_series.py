"""Power-series layer: coefficient families against independent oracles."""

import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcmellin import DomainError, bernoulli, binomial, x_over_sinh_coeffs
from arcmellin import series
from arcmellin.series import _cosh_moments, _x_over_sinh_row
from _series_oracles import (
    PowerSeries,
    binomial_power_sum_direct,
    cosh_kernel_coeffs,
    cosh_series,
    root_product_tables,
    sinh_x_over_x_series,
)


def _fraction_miller(power, order):
    # Miller's recurrence on Fractions, as it ran before the integer row:
    # b_m = (1/m) sum_j ((1 - power) j - m) b_{m-j} / (2j+1)!
    b = [Fraction(1)]
    for m in range(1, order // 2 + 1):
        acc = sum(
            ((1 - power) * j - m) * Fraction(1, math.factorial(2 * j + 1)) * b[m - j]
            for j in range(1, m + 1)
        )
        b.append(acc / m)
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[::2] = b
    return tuple(coeffs)


def _fraction_kernel(power, q, order):
    # the Fraction convolution of the kernel as it ran before the integer row
    b = _fraction_miller(power, order)[::2]
    cosh = [binomial_power_sum_direct(q, i) / math.factorial(2 * i) for i in range(len(b))]
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[::2] = [sum(cosh[i] * b[j - i] for i in range(j + 1)) for j in range(len(b))]
    return tuple(coeffs)


class TestPowerSeriesArithmetic:
    def test_reciprocal_requires_unit(self):
        with pytest.raises(DomainError):
            PowerSeries((Fraction(0), Fraction(1))).reciprocal()

    def test_reciprocal_roundtrip(self):
        s = sinh_x_over_x_series(12)
        prod = s * s.reciprocal()
        assert prod.coeffs[0] == 1
        assert all(c == 0 for c in prod.coeffs[1:])

    @settings(max_examples=50)
    @given(st.lists(st.fractions(), min_size=3, max_size=6),
           st.lists(st.fractions(), min_size=3, max_size=6))
    def test_mul_commutes(self, a, b):
        sa, sb = PowerSeries(tuple(a)), PowerSeries(tuple(b))
        assert (sa * sb).coeffs == (sb * sa).coeffs


class TestXOverSinhCoeffs:
    def test_leading_term(self):
        assert x_over_sinh_coeffs(1, 0)[0] == 1

    def test_first_correction_against_bernoulli_formula(self):
        # x/sinh x = sum (2 - 2^{2k}) B_{2k} x^{2k} / (2k)!  -- independent oracle
        got = x_over_sinh_coeffs(1, 16)
        for k in range(9):
            expected = (2 - Fraction(2) ** (2 * k)) * bernoulli(2 * k) / math.factorial(2 * k)
            assert got[2 * k] == expected
        assert got[2] == Fraction(-1, 6)

    def test_odd_coefficients_vanish(self):
        for power in (1, 2, 3, 5):
            coeffs = x_over_sinh_coeffs(power, 11)
            assert all(coeffs[k] == 0 for k in range(1, 12, 2))

    def test_squared_series(self):
        assert x_over_sinh_coeffs(2, 2)[0] == 1
        assert x_over_sinh_coeffs(2, 2)[2] == Fraction(-1, 3)

    def test_prefix_consistency_across_orders(self):
        short = x_over_sinh_coeffs(5, 8)
        long = x_over_sinh_coeffs(5, 30)
        assert short == long[:9]

    @pytest.mark.parametrize("power", [3, 7, 12, 25])
    def test_dual_path_power_vs_reciprocal(self, power):
        # Miller's recurrence (the production path) against the reciprocal
        # of (sinh x/x) ** power, which shares only the sinh x/x series
        order = 24
        base = sinh_x_over_x_series(order)
        path_b = base.pow(power).reciprocal()
        assert x_over_sinh_coeffs(power, order) == path_b.coeffs

    @pytest.fixture(scope="class")
    def binary_power_oracle(self):
        # (reciprocal of sinh x/x) ** e by binary exponentiation, to order 60
        base = sinh_x_over_x_series(60).reciprocal()
        return {e: base.pow(e).coeffs for e in range(62)}

    @pytest.mark.parametrize("power", range(62))
    def test_miller_matches_binary_power(self, power, binary_power_oracle):
        # every order for the end powers; elsewhere small, odd, near-power
        # (order < power) and the largest orders
        if power in (0, 1, 2, 61):
            orders = range(61)
        else:
            near = {0, 1, 2, 3, power - 1, power, power + 1, 29, 30, 59, 60}
            orders = sorted(near & set(range(61)))
        for order in orders:
            assert x_over_sinh_coeffs(power, order) == binary_power_oracle[power][: order + 1]


class TestScaledXOverSinhRow:
    @pytest.mark.parametrize("power", [0, 1, 2, 3, 7, 21])
    @pytest.mark.parametrize("order", [0, 1, 2, 9, 40])
    def test_row_reconstructs_coefficients(self, power, order):
        denom, row = _x_over_sinh_row(power, order)
        assert len(row) == order // 2 + 1
        assert all(isinstance(r, int) for r in row) and isinstance(denom, int)
        rebuilt = [Fraction(0)] * (order + 1)
        rebuilt[::2] = [Fraction(r, denom * math.factorial(2 * m)) for m, r in enumerate(row)]
        assert tuple(rebuilt) == x_over_sinh_coeffs(power, order) == _fraction_miller(power, order)

    @pytest.mark.parametrize("power", [0, 1, 2, 3, 7, 21])
    @pytest.mark.parametrize("order", [0, 1, 2, 9, 40])
    def test_denominator_is_lcm_of_scaled_denominators(self, power, order):
        denom, _ = _x_over_sinh_row(power, order)
        b = _fraction_miller(power, order)[::2]
        scaled = [math.factorial(2 * m) * c for m, c in enumerate(b)]
        assert denom == math.lcm(*(c.denominator for c in scaled))


class TestRootProductTables:
    def test_leading_column_formula(self):
        tables = root_product_tables(8)
        for k in range(9):
            assert tables.integer_root(0, k) == (-1) ** k * math.factorial(k) ** 2

    def test_row_one(self):
        tables = root_product_tables(3)
        for k in (0, 1):
            assert tables.integer_root(k, 1) == (-1) ** (k + 1)
            assert tables.odd_root(k, 1) == (-1) ** (k + 1)

    def test_out_of_triangle_is_zero(self):
        tables = root_product_tables(4)
        assert tables.integer_root(5, 4) == 0
        assert tables.odd_root(-1, 2) == 0

    def test_row_past_the_extent_raises(self):
        tables = root_product_tables(3)
        with pytest.raises(DomainError, match="built to n=3"):
            tables.integer_root(1, 4)
        with pytest.raises(DomainError, match="built to n=3"):
            tables.odd_root(1, 4)

    @staticmethod
    def _poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    @pytest.mark.parametrize("n", range(0, 11))
    def test_integer_root_expansion(self, n):
        # direct expansion of prod_{i=1}^{n} (x^2 - i^2) in x^2
        poly = [1]
        for i in range(1, n + 1):
            poly = self._poly_mul(poly, [-(i * i), 1])
        tables = root_product_tables(n)
        assert poly == [tables.integer_root(k, n) for k in range(n + 1)]

    @pytest.mark.parametrize("n", range(0, 11))
    def test_odd_root_expansion(self, n):
        # direct expansion of prod_{i=1}^{n} (y^2 - (2i-1)^2) in y^2
        poly = [1]
        for i in range(1, n + 1):
            poly = self._poly_mul(poly, [-((2 * i - 1) ** 2), 1])
        tables = root_product_tables(n)
        assert poly == [tables.odd_root(k, n) for k in range(n + 1)]

    def test_double_recurrence_holds_at_every_cell(self):
        tables = root_product_tables(12)
        for n in range(1, 13):
            for k in range(n + 1):
                assert tables.integer_root(k, n) == tables.integer_root(
                    k - 1, n - 1
                ) - n * n * tables.integer_root(k, n - 1)
                assert tables.odd_root(k, n) == tables.odd_root(k - 1, n - 1) - (
                    2 * n - 1
                ) ** 2 * tables.odd_root(k, n - 1)


class TestBinomialPowerSum:
    # the binomial power sums 4^{-q} sum_{k<=q} C(2q+1, k) (2q+1-2k)^{2p}
    # are the cosh moments over 4^q
    def test_zeroth_power_row(self):
        # half-row binomial sum: sum_{k<=q} C(2q+1,k) = 4^q
        assert all(_cosh_moments(q, 1) == [4**q] for q in range(10))

    def test_q_zero_column(self):
        assert _cosh_moments(0, 10) == [1] * 10

    def test_1_1_direct(self):
        assert _cosh_moments(1, 2)[1] == binomial(3, 0) * 9 + binomial(3, 1) == 4 * 3

    @pytest.mark.parametrize("q", range(7))
    @pytest.mark.parametrize("p", range(7))
    def test_derivative_definition_oracle(self, q, p):
        # the sum is the normalized 2p-th derivative of sinh^{2q+1} at an
        # imaginary pole, i.e. (2p)! [w^{2p}] cosh^{2q+1}(w)
        series = cosh_series(2 * p).pow(2 * q + 1)
        moment = Fraction(_cosh_moments(q, p + 1)[p], 4**q)
        assert moment == math.factorial(2 * p) * series.coefficient(2 * p)


class TestCoshMoments:
    # The recurrence keeps each q's row and extends it, so requests in
    # increasing and in decreasing length reach it by different paths; each
    # test starts from an empty store.
    COUNTS = {"increasing": range(1, 42), "decreasing": range(41, 0, -1)}

    @pytest.mark.parametrize("order", sorted(COUNTS))
    def test_moments_match_direct_sum(self, monkeypatch, order):
        monkeypatch.setattr(series, "_moment_rows", {})
        for q in range(41):
            for count in self.COUNTS[order]:
                expected = [4**q * binomial_power_sum_direct(q, p) for p in range(count)]
                assert _cosh_moments(q, count) == expected

    @pytest.mark.parametrize("attempt", range(3))
    def test_threads_extending_shared_rows(self, monkeypatch, attempt):
        # eight threads extend the same rows in interleaved steps; a lost or
        # doubled extension would put a wrong moment into a row (an unlocked
        # store fails about one attempt in two)
        monkeypatch.setattr(series, "_moment_rows", {})
        results = []

        def extend(start):
            for count in range(start, 42, 8):
                for q in range(41):
                    results.append((q, count, _cosh_moments(q, count)))

        threads = [threading.Thread(target=extend, args=(start,)) for start in range(1, 9)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 41 * 41
        for q, count, got in results:
            assert got == [4**q * binomial_power_sum_direct(q, p) for p in range(count)]


class TestCoshKernelCoeffs:
    @pytest.mark.parametrize("power, q", [(0, 0), (1, 0), (3, 1), (4, 2), (7, 0), (9, 3), (12, 5), (21, 10)])
    def test_matches_power_series_route(self, power, q):
        # (sinh x/x)^{-e} times cosh^{2q+1} by PowerSeries arithmetic, which
        # shares neither Miller's recurrence nor the binomial power sums
        order = 22
        oracle = sinh_x_over_x_series(order).pow(power).reciprocal() * cosh_series(order).pow(2 * q + 1)
        assert cosh_kernel_coeffs(power, q, order) == oracle.coeffs

    def test_prefix_consistency_across_orders(self):
        assert cosh_kernel_coeffs(5, 2, 6) == cosh_kernel_coeffs(5, 2, 20)[:7]

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 10, 25, 39, 40])
    @pytest.mark.parametrize("power, q", [(0, 0), (1, 0), (2, 3), (13, 6), (21, 10), (41, 20)])
    def test_matches_fraction_convolution(self, power, q, order):
        assert cosh_kernel_coeffs(power, q, order) == _fraction_kernel(power, q, order)
