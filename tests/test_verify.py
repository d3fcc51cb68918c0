"""Verification suites: spot values, report structure, determinism."""

import json
import math
import sys
import threading
from fractions import Fraction

import pytest
from mpmath import mpf

from arcmellin import (
    DomainError,
    IdentityFamily,
    all_suites,
    bernoulli,
    beta_prime_value,
    binomial,
    binomial_power_sum,
    eulerian,
    check_asymptotic_constants,
    check_bounds,
    check_coupled,
    check_cross_representation,
    check_even_argument_relations,
    euler_number,
    log_integral_even_cosh,
    log_integral_odd_cosh,
    reproduce_reference_tables,
    run_identity,
    x_over_sinh_coeffs,
)
from arcmellin import catalog, quadrature, verify
from arcmellin.closedform import ONE, ClosedForm
from arcmellin.verify import (
    MIN_PREC,
    SUITES,
    CellResult,
    VerifyReport,
    _alt_binom_even_row,
    _alt_binom_odd_row,
    _binom_cosh_row,
    _c_odd_power_row,
    _d_identity_row,
    _euler_bernoulli_row,
    _eulerian_a_row,
    _eulerian_b_row,
    _vanishing_row,
    coupled_tail_bound,
)


def _cell(row, params):
    """The cell of ``params`` from the row source of its n."""
    (cell,) = [c for c in row(params[0]) if c.params == params]
    return cell


class TestSpotValues:
    def test_alt_binom_odd_interior_zero(self):
        cell = _cell(_alt_binom_odd_row, (2, 1))
        assert cell.ok and cell.detail == "lhs=0"

    def test_alt_binom_odd_endpoint(self):
        cell = _cell(_alt_binom_odd_row, (2, 2))
        assert cell.ok and cell.detail == f"lhs={4**2 * math.factorial(5)}"
        assert 4**2 * math.factorial(5) == 1920

    def test_alt_binom_even_j0_is_half_central_binomial(self):
        # brute force: sum_{k=0}^{n-1} (-1)^k C(2n,k) = (-1)^{n+1} C(2n,n)/2
        for n in (1, 2, 3, 5, 8):
            lhs = sum((-1) ** k * binomial(2 * n, k) for k in range(n))
            assert Fraction(lhs) == Fraction((-1) ** (n + 1) * binomial(2 * n, n), 2)
        assert _cell(_alt_binom_even_row, (2, 0)).ok

    def test_d_identity_n1(self):
        cell = _cell(_d_identity_row, (1,))
        assert cell.ok and Fraction(4, 3) == Fraction(4**1, 2 * 1 + 1)

    def test_euler_bernoulli_q0_n1(self):
        cell = _cell(_euler_bernoulli_row, (1, 0))
        assert cell.ok
        # second line closed value: (-1)^{q+n+1} 2^{2q+1} q! n! (2n-2q-2)! /
        # ((n-q-1)! (2n)!) = 2 * 1 * 1 * 1 / (1 * 2) = 1
        assert "line2=1" in cell.detail

    @pytest.mark.parametrize("n", range(1, 9))
    def test_euler_bernoulli_matches_published_double_sums(self, n):
        # The two lines as the paper states them, double sums over the
        # (x/sinh x)^N coefficients; the cell reads the ln(pi) coefficients of
        # the production log-integral forms instead.
        c = x_over_sinh_coeffs(2 * n + 1, 2 * n)
        d = x_over_sinh_coeffs(2 * n, 2 * n)
        for q in range(n):
            line1 = sum(
                c[2 * n - 2 * m]
                / math.factorial(2 * m)
                * sum(
                    binomial(2 * m, 2 * m - 2 * p)
                    * binomial_power_sum(q, m - p)
                    * Fraction(2 ** (2 * p - 1) * (2 ** (2 * p) - 1), p)
                    * bernoulli(2 * p)
                    for p in range(1, m + 1)
                )
                for m in range(n + 1)
            )
            line2 = sum(
                d[2 * n - 2 * m - 2]
                / math.factorial(2 * m + 1)
                * sum(
                    binomial(2 * m + 1, 2 * m - 2 * p)
                    * binomial_power_sum(q, m - p)
                    * euler_number(2 * p)
                    for p in range(m + 1)
                )
                for m in range(n)
            )
            cell = _cell(_euler_bernoulli_row, (n, q))
            assert cell.ok
            assert cell.detail == f"line1={line1}, line2={line2}"


# The six integer-row cells against their sums as Fraction formulas, written
# out over x_over_sinh_coeffs and binomial_power_sum: each (ok, detail) must
# be the same, since the arithmetic is exact on both sides.

def _c_odd_power_fraction(n, k):
    c = x_over_sinh_coeffs(2 * n + 1, 2 * n)
    lhs = sum(
        c[2 * m] / math.factorial(2 * n - 2 * m) * (2 * k + 1) ** (2 * n - 2 * m)
        for m in range(n + 1)
    )
    return lhs == (4**n if k == n else 0), f"lhs={lhs}"


def _eulerian_a_fraction(n, p):
    c = x_over_sinh_coeffs(2 * n + 1, 2 * n)
    row = [eulerian("A", 2 * n, k) for k in range(n)]
    lhs = sum(
        c[2 * n - 2 * p - 2 * r]
        / math.factorial(2 * r)
        * sum(row[n - 1 - k] * (2 * k + 1) ** (2 * r) for k in range(n))
        for r in range(n - p + 1)
    )
    return lhs == (Fraction(math.factorial(2 * n), 2) if p == n else 0), f"lhs={lhs}"


def _eulerian_b_fraction(n, p):
    d = x_over_sinh_coeffs(2 * n, 2 * n)
    row = [eulerian("B", 2 * n - 1, k) for k in range(n)]
    lhs = sum(
        d[2 * n - 2 * m - 2 * p]
        / math.factorial(2 * m)
        * sum(row[k] * (2 * n - 1 - 2 * k) ** (2 * m) for k in range(n))
        for m in range(n - p + 1)
    )
    if p == 0:
        rhs = Fraction(2 ** (2 * n - 2) * (2 ** (2 * n - 1) - 1)) * bernoulli(2 * n) / n
    elif p == n:
        rhs = Fraction(2 ** (2 * n - 2) * math.factorial(2 * n - 1))
    else:
        rhs = Fraction(0)
    return lhs == rhs, f"lhs={lhs}"


def _binom_cosh_fraction(n, q):
    c = x_over_sinh_coeffs(2 * n + 1, 2 * n)
    lhs = sum(
        c[2 * n - 2 * m] / math.factorial(2 * m) * 4**q * binomial_power_sum(q, m)
        for m in range(n + 1)
    )
    return lhs == (4**n if q == n else 0), f"lhs={lhs}"


def _vanishing_fraction(n, q):
    c = x_over_sinh_coeffs(2 * n + 1, 2 * n)
    lhs = sum(
        c[2 * n - 2 * m] / math.factorial(2 * m) * binomial_power_sum(q, m)
        for m in range(n + 1)
    )
    return lhs == 0, f"lhs={lhs}"


def _d_identity_fraction(n):
    d = x_over_sinh_coeffs(2 * n + 2, 2 * n)
    lhs = sum(
        d[2 * m]
        / math.factorial(2 * n - 2 * m)
        * sum(
            binomial(4 * n + 2, 2 * n - 2 * k) * (2 * k + 1) ** (2 * n - 2 * m)
            for k in range(n + 1)
        )
        for m in range(n + 1)
    )
    return lhs == Fraction(4**n, 2 * n + 1), f"lhs={lhs}"


class TestIntegerCellsMatchFractionFormulas:
    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize(
        "row, formula, inner",
        [
            (_c_odd_power_row, _c_odd_power_fraction, 0),
            (_eulerian_a_row, _eulerian_a_fraction, 0),
            (_eulerian_b_row, _eulerian_b_fraction, 0),
            (_binom_cosh_row, _binom_cosh_fraction, 0),
            (_vanishing_row, _vanishing_fraction, -1),
        ],
        ids=["c-odd-power", "eulerian-a", "eulerian-b", "binom-cosh", "vanishing"],
    )
    def test_two_index_cells(self, row, formula, inner, n):
        # the suite's grid at n: (n, j) for 0 <= j <= n + inner, in order
        cells = list(row(n))
        assert [c.params for c in cells] == [(n, j) for j in range(n + inner + 1)]
        for j, result in enumerate(cells):
            assert (result.ok, result.detail) == formula(n, j)
            assert result.ok

    @pytest.mark.parametrize("n", range(13))
    def test_d_identity(self, n):
        (result,) = _d_identity_row(n)
        assert result.params == (n,)
        assert (result.ok, result.detail) == _d_identity_fraction(n)
        assert result.ok


class TestExactSuites:
    @pytest.mark.parametrize(
        "family",
        [
            IdentityFamily.ALT_BINOM_ODD,
            IdentityFamily.ALT_BINOM_EVEN,
            IdentityFamily.C_ODD_POWER,
            IdentityFamily.EULERIAN_A_SUM,
            IdentityFamily.EULERIAN_B_SUM,
            IdentityFamily.BINOM_COSH_SUM,
            IdentityFamily.VANISHING,
        ],
    )
    def test_small_ranges_pass(self, family):
        report = run_identity(family, n_range=(1, 8))
        assert report.passed
        assert report.first_counterexample is None

    def test_eta_coeff_small(self):
        assert run_identity(IdentityFamily.ETA_COEFF, n_range=(1, 12)).passed

    def test_zeta2_coeff_small(self):
        assert run_identity(IdentityFamily.ZETA2_COEFF, n_range=(2, 10)).passed

    def test_d_identity_small(self):
        assert run_identity(IdentityFamily.D_IDENTITY, n_range=(0, 8)).passed

    def test_euler_bernoulli_small(self):
        assert run_identity(IdentityFamily.EULER_BERNOULLI, n_range=(1, 8)).passed

    def test_euler_bernoulli_keeps_no_forms(self):
        # each cell reads one coefficient of two forms; memoising all 2 sum(n)
        # of them would hold them for the life of the process
        caches = (log_integral_odd_cosh, log_integral_even_cosh)
        before = [f.cache_info().currsize for f in caches]
        assert run_identity(IdentityFamily.EULER_BERNOULLI, n_range=(30, 31)).passed
        assert [f.cache_info().currsize for f in caches] == before

    @pytest.mark.parametrize(
        "family",
        [
            "alt-binom-odd", "alt-binom-even", "c-odd-power", "eulerian-a", "eulerian-b",
            "binom-cosh", "vanishing", "eta-coeff", "zeta2-coeff", "d-identity",
            "euler-bernoulli", "cross-rep", "bounds", "coupled", "asymptotic", "even-relations",
            "reference-tables",
        ],
    )
    def test_range_holding_no_n_is_a_domain_error(self, family):
        with pytest.raises(DomainError, match="holds no n"):
            run_identity(family, n_range=(5, 1))

    def test_accepts_string_names(self):
        assert run_identity("alt-binom-odd", n_range=(1, 4)).passed


NUMERIC_SUITES = ("bounds", "coupled", "asymptotic", "cross-rep", "reference-tables")


class TestRecords:
    """The records keep the fields, defaults, equality and repr they had as
    dataclasses."""

    def test_cell_result(self):
        cell = CellResult((1, 2), True)
        assert (cell.params, cell.ok, cell.detail) == ((1, 2), True, "")
        assert repr(cell) == "CellResult(params=(1, 2), ok=True, detail='')"
        assert cell == CellResult((1, 2), True, "") != CellResult((1, 2), False)
        with pytest.raises(AttributeError):
            cell.ok = False

    def test_verify_report(self):
        report = VerifyReport("x")
        assert (report.family, report.cells, report.precision, report.tolerance, report.elapsed_seconds) == (
            "x", [], None, None, 0.0,
        )
        assert report.cells is not VerifyReport("y").cells
        assert repr(VerifyReport("x", [CellResult((1,), True)], 30, "1e-25", 0.5)) == (
            "VerifyReport(family='x', cells=[CellResult(params=(1,), ok=True, detail='')], "
            "precision=30, tolerance='1e-25', elapsed_seconds=0.5)"
        )
        assert VerifyReport("x", [], 30) == VerifyReport("x", [], 30)
        assert VerifyReport("x", [], 30) != VerifyReport("x", [], 30, elapsed_seconds=1.0)
        with pytest.raises(TypeError):
            hash(report)
        report.elapsed_seconds = 2.0
        assert report.elapsed_seconds == 2.0
        with pytest.raises(AttributeError):
            report.extra = 1

    def test_quad_result(self):
        result = quadrature.QuadResult(mpf(1), mpf("1e-40"), 7, 3)
        assert result._fields == ("value", "error_estimate", "nodes_used", "levels")
        assert float(result) == 1.0
        assert repr(result) == (
            f"QuadResult(value={result.value!r}, error_estimate={result.error_estimate!r}, "
            "nodes_used=7, levels=3)"
        )


class TestRegistry:
    def test_every_family_has_one_runner(self):
        assert list(SUITES) == list(IdentityFamily)

    def test_all_suites_is_the_registry_in_order(self):
        prec = 20
        reports = all_suites(prec)
        assert len(reports) == len(IdentityFamily)
        for family, report in zip(IdentityFamily, reports):
            assert report.family == (
                "asymptotic-constants" if family is IdentityFamily.ASYMPTOTIC else family.value
            )
            assert report.precision == (prec if family.value in NUMERIC_SUITES else None)

    def test_reference_tables_run_by_name(self):
        report = run_identity("reference-tables", prec=25)
        assert report.passed
        assert report.precision == 25
        assert len(report.cells) == 35

    @pytest.mark.parametrize("name", ["asymptotic", "even-relations"])
    def test_numeric_suites_run_by_name(self, name):
        assert run_identity(name, prec=25).passed

    def test_cross_rep_reads_n_max_from_range(self):
        report = run_identity(IdentityFamily.CROSS_REP, n_range=(1, 2), prec=25)
        assert report.passed
        assert [c.params for c in report.cells] == [
            (1, 1), (2, 1), (1, 2), (2, 2),
            ("phi-even", 1, 1), ("phi-even", 2, 1), ("phi-even", 1, 2), ("phi-even", 2, 2),
        ]


class TestNumericSuites:
    def test_bounds_small_grid(self):
        report = check_bounds(s_grid=("2", "3"), prec=25)
        assert report.passed
        assert report.precision == 25

    def test_bounds_refuses_an_empty_grid(self):
        with pytest.raises(DomainError, match="bounds: the inputs give no cells"):
            check_bounds(s_grid=(), prec=20)

    @pytest.mark.parametrize("truncation", [0, -1])
    def test_coupled_refuses_a_truncation_below_one(self, truncation):
        quadrature._quad_cache.clear()
        with pytest.raises(DomainError, match="truncation must be an int >= 1"):
            check_coupled(4, truncation=truncation, prec=20)
        assert not quadrature._quad_cache

    def test_coupled_n0_term_sign(self):
        # at n = 0 the second identity's weight is -1/(2*0-1) = +1, so the
        # series starts at +Phi_2(s); a tiny truncation already reveals a
        # residual below the T=2 bound only because of that sign
        report = check_coupled(4, truncation=8, prec=20)
        assert report.passed

    def test_coupled_residual_decreases_with_truncation(self):
        def residual(report):
            return float(report.cells[1].detail.split("residual=")[1].split(" ")[0])

        r10 = check_coupled(6, truncation=10, prec=20)
        r20 = check_coupled(6, truncation=20, prec=20)
        r30 = check_coupled(6, truncation=30, prec=20)
        assert residual(r10) > residual(r20) > residual(r30)

    def test_tail_bound_shrinks(self):
        assert coupled_tail_bound(1, 60) < coupled_tail_bound(1, 30)
        assert coupled_tail_bound(2, 60) < coupled_tail_bound(2, 30)

    def test_cross_representation_small(self):
        report = check_cross_representation(n_max=2, prec=25)
        assert report.passed
        assert report.tolerance == "1e-20"

    def test_asymptotic_constants_suite(self):
        report = check_asymptotic_constants(prec=25)
        assert report.passed
        kinds = {params[1] for params in (c.params for c in report.cells)}
        assert kinds == {"closed-vs-quad", "printed-prefix", "limit-trend"}

    def test_limit_trend_checks_the_rate(self, monkeypatch):
        # Phi_1(1 + 10^-k) - 10^k - C1 is about 0.09 10^-k; against a C1
        # lowered by 1e-5 the errors still fall, to about 1e-5, but miss
        # |e_k| <= 10^-k at k = 5 and 6
        lowered = catalog.C1_CLOSED_FORM - ClosedForm({ONE: Fraction(1, 10**5)})
        monkeypatch.setattr(catalog, "C1_CLOSED_FORM", lowered)
        trend = {
            cell.params[0]: cell.ok
            for cell in check_asymptotic_constants(prec=30).cells
            if cell.params[1] == "limit-trend"
        }
        assert trend == {"C1": False, "C2": True}

    def test_coupled_shares_the_mpmath_lock(self):
        # a 20-digit suite must not lower the working precision of a
        # 200-digit basis evaluation running in another thread
        svals, ks = (3, 5, 7), [2, 3, 4, 5, 6, 7] * 3

        def coupled_details():
            details = []
            for s in svals:
                quadrature._quad_cache.clear()
                details += [c.detail for c in check_coupled(s, truncation=8, prec=20).cells]
            return details

        expected_beta = [beta_prime_value(k, 200) for k in ks]
        expected_coupled = coupled_details()
        got_beta, got_coupled = [], []
        threads = [
            threading.Thread(target=lambda: got_beta.extend(beta_prime_value(k, 200) for k in ks)),
            threading.Thread(target=lambda: got_coupled.extend(coupled_details())),
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
        assert got_coupled == expected_coupled

    def test_even_argument_relations(self):
        report = check_even_argument_relations()
        assert report.passed
        assert len(report.cells) == 7
        assert report.tolerance == "exact rational equality"
        assert report.precision is None
        assert all(cell.detail == "difference=0" for cell in report.cells)

    @pytest.mark.parametrize("index", range(len(catalog.EVEN_ARGUMENT_RELATIONS)))
    def test_even_relation_perturbed_by_1e20_fails(self, monkeypatch, index):
        # a relative change of 1e-20 to one published rational must fail its
        # cell, and only its cell
        relations = [dict(rel) for rel in catalog.EVEN_ARGUMENT_RELATIONS]
        zeta = dict(relations[index]["zeta"])
        k = min(zeta)
        zeta[k] *= 1 + Fraction(1, 10**20)
        relations[index]["zeta"] = zeta
        monkeypatch.setattr(catalog, "EVEN_ARGUMENT_RELATIONS", tuple(relations))
        report = check_even_argument_relations()
        assert [cell.ok for cell in report.cells] == [i != index for i in range(len(relations))]


class TestOneBatchPerSuite:
    @pytest.mark.parametrize("prec", [30, 100])
    def test_each_numeric_suite_asks_for_its_grid_once(self, monkeypatch, prec):
        # bounds, coupled, asymptotic and cross-rep each send their whole Phi
        # grid as one batch, and their cells read the QuadResults it returned
        batches, singles = [], []
        batch, single = verify.quad_phi_many, quadrature.quad_phi

        def counted_batch(requests, prec):
            batches.append(requests)
            return batch(requests, prec)

        def counted_single(*args, **kwargs):
            singles.append(args)
            return single(*args, **kwargs)

        monkeypatch.setattr(verify, "quad_phi_many", counted_batch)
        monkeypatch.setattr(quadrature, "quad_phi", counted_single)
        monkeypatch.setattr(verify, "quad_phi", counted_single, raising=False)
        assert all(report.passed for report in all_suites(prec))
        assert (len(batches), singles) == (4, [])


class TestPrecisionFloor:
    @pytest.mark.parametrize(
        "suite",
        [
            lambda prec: check_bounds(prec=prec),
            lambda prec: check_coupled(2, prec=prec),
            lambda prec: check_asymptotic_constants(prec=prec),
            lambda prec: check_cross_representation(prec=prec),
            lambda prec: reproduce_reference_tables(prec=prec),
        ],
    )
    def test_below_the_floor_is_a_domain_error(self, suite):
        with pytest.raises(DomainError, match=f"prec must be an int >= {MIN_PREC}"):
            suite(MIN_PREC - 1)

    @pytest.mark.parametrize("name", NUMERIC_SUITES)
    def test_below_the_floor_by_name(self, name):
        with pytest.raises(DomainError, match=f"prec must be an int >= {MIN_PREC}"):
            run_identity(name, prec=MIN_PREC - 1)

    def test_every_numeric_suite_passes_at_the_floor(self):
        reports = all_suites(MIN_PREC)
        assert [report.family for report in reports if not report.passed] == []

    def test_exact_suites_take_no_precision(self):
        assert run_identity("alt-binom-odd", n_range=(1, 3), prec=3).passed
        assert run_identity("even-relations", prec=3).passed


class TestReports:
    def test_json_schema(self):
        report = run_identity(IdentityFamily.D_IDENTITY, n_range=(0, 3))
        data = json.loads(report.to_json())
        assert set(data) == {
            "family",
            "precision",
            "tolerance",
            "cells",
            "passed",
            "first_counterexample",
        }
        assert data["family"] == "d-identity"
        assert data["passed"] is True
        assert all(set(c) == {"params", "ok", "detail"} for c in data["cells"])

    def test_json_deterministic(self):
        a = run_identity(IdentityFamily.ALT_BINOM_EVEN, n_range=(1, 5)).to_json()
        b = run_identity(IdentityFamily.ALT_BINOM_EVEN, n_range=(1, 5)).to_json()
        assert a == b

    def test_reference_tables_pass(self):
        report = reproduce_reference_tables(prec=25)
        assert report.passed
        assert len(report.cells) == 12 + 13 + 8 + 2
