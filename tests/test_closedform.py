"""Closed-form assembly: worked values, preconditions, serialization."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcmellin import (
    LN2,
    LNPI,
    ONE,
    BasisSymbol,
    ClosedForm,
    DomainError,
    beta_even_ratio,
    beta_prime_neg_coeffs,
    beta_prime_ratio,
    eta_prime_neg_coeffs,
    eta_prime_neg_symbol,
    beta_prime_neg_symbol,
    bernoulli,
    binomial,
    binomial_power_sum,
    cosh_kernel_coeffs,
    euler_number,
    harmonic,
    log_integral_even_cosh,
    log_integral_odd_cosh,
    phi_even_closed_form,
    phi_odd_closed_form,
    root_product_tables,
    sinh_over_z_integral,
    x_over_sinh_coeffs,
    zeta_odd_ratio,
    zeta_prime_ratio,
)
from arcmellin import catalog
from arcmellin.closedform import _log_residues
from arcmellin.exact import _signed_tangent


def cf(pairs):
    return ClosedForm([(sym, Fraction(c)) for sym, c in pairs])


class TestBasisSymbol:
    def test_indexed_requires_index(self):
        with pytest.raises(DomainError):
            BasisSymbol("zeta_prime_ratio")

    def test_plain_rejects_index(self):
        with pytest.raises(DomainError):
            BasisSymbol("ln2", 1)

    def test_canonical_order(self):
        symbols = [LN2, LNPI, ONE, beta_prime_ratio(0), zeta_prime_ratio(1),
                   zeta_prime_ratio(0), eta_prime_neg_symbol(0), beta_prime_neg_symbol(2)]
        ordered = sorted(symbols)
        assert ordered == [
            zeta_prime_ratio(0), zeta_prime_ratio(1), beta_prime_ratio(0),
            eta_prime_neg_symbol(0), beta_prime_neg_symbol(2), ONE, LNPI, LN2,
        ]


class TestClosedFormAlgebra:
    def test_zero_coefficients_dropped(self):
        form = cf([(ONE, 1), (LN2, 0)])
        assert form.symbols() == [ONE]

    def test_cancellation(self):
        a = cf([(ONE, "1/2"), (LN2, 2)])
        b = cf([(ONE, "-1/2"), (LNPI, 1)])
        assert (a + b).symbols() == [LNPI, LN2]

    def test_immutability(self):
        form = cf([(ONE, 1)])
        with pytest.raises(AttributeError):
            form.terms = {}

    @settings(max_examples=60)
    @given(st.fractions(), st.fractions(), st.fractions())
    def test_scaling_is_linear(self, a, b, c):
        x = cf([(ONE, a), (LN2, b)])
        y = cf([(LN2, c), (LNPI, a)])
        lhs = (x + y).scale(b)
        rhs = x.scale(b) + y.scale(b)
        assert lhs == rhs

    def test_json_round_trip_is_exact(self):
        form = log_integral_odd_cosh(1, 2)
        again = ClosedForm.from_json(form.to_json())
        assert again == form
        assert again.to_json() == form.to_json()

    @settings(max_examples=80)
    @given(
        st.dictionaries(
            st.sampled_from(
                [ONE, LN2, LNPI, zeta_prime_ratio(0), zeta_prime_ratio(3),
                 beta_prime_ratio(1), eta_prime_neg_symbol(2), beta_prime_neg_symbol(0)]
            ),
            st.fractions(),
            max_size=8,
        )
    )
    def test_json_round_trip_arbitrary_forms(self, mapping):
        form = ClosedForm(mapping)
        assert ClosedForm.from_json(form.to_json()) == form

    def test_json_field_names(self):
        text = cf([(zeta_prime_ratio(0), -3)]).to_json()
        assert '"symbol": "zeta_prime_ratio"' in text
        assert '"p": 0' in text
        assert '"coeff": "-3/1"' in text

    def test_latex_matches_published_style(self):
        text = log_integral_odd_cosh(0, 1).latex()
        assert text.startswith(r"-3\,\frac{\zeta'(2)}{\pi^{2}}")
        assert r"\ln \pi" in text and text.endswith(r"\frac{2}{3}\,\ln 2")

    def test_latex_term_ordering(self):
        text = log_integral_even_cosh(1, 2).latex()
        assert text.index(r"\beta'(1)") < text.index(r"\beta'(3)") < text.index(r"\ln \pi")
        assert text.index(r"\ln \pi") < text.index(r"\ln 2")

    def test_latex_unit_coefficient(self):
        assert phi_odd_closed_form(2, 1).latex() == r"\beta'(0) + \beta'(-2)"


class TestSCoeff:
    """S[p] = [w^{2n-2p-2}] (w/sinh w)^{2n+1} cosh^{2q+1}(w) / (2p+2)!, the
    kernel value behind every zeta'(2p+2) coefficient of the odd family."""

    @staticmethod
    def s_value(p, q, n):
        return cosh_kernel_coeffs(2 * n + 1, q, 2 * n)[2 * n - 2 * p - 2] / math.factorial(2 * p + 2)

    def test_boundary_rejected(self):
        # the kernel takes power, q and order >= 0
        for args in ((-1, 0, 4), (3, -1, 4), (3, 0, -1)):
            with pytest.raises(DomainError):
                cosh_kernel_coeffs(*args)

    def test_seed_value(self):
        # feeds the (q=0, n=1) closed form whose leading coefficient is -3
        assert self.s_value(0, 0, 1) == Fraction(1, 2)

    def test_consistency_with_worked_coefficient(self):
        # H = (-1)^{q+n+p} 2 (2p+1)! (2^{2p+2}-1) S must give -2 at (p,q,n)=(0,1,2)
        assert self.s_value(0, 1, 2) == Fraction(1, 3)
        assert (-1) ** (1 + 2 + 0) * 2 * 1 * 3 * self.s_value(0, 1, 2) == -2
        assert log_integral_odd_cosh(1, 2).coefficient(zeta_prime_ratio(0)) == -2


class TestLogIntegralOddCosh:
    def test_q0_n1(self):
        assert log_integral_odd_cosh(0, 1) == cf(
            [(zeta_prime_ratio(0), -3), (ONE, "-1/2"), (LNPI, "1/2"), (LN2, "-2/3")]
        )

    def test_q1_n2(self):
        assert log_integral_odd_cosh(1, 2) == cf(
            [
                (zeta_prime_ratio(0), -2),
                (zeta_prime_ratio(1), "15/2"),
                (ONE, "-13/72"),
                (LNPI, "1/4"),
                (LN2, "-16/45"),
            ]
        )

    def test_q2_n3(self):
        assert log_integral_odd_cosh(2, 3) == cf(
            [
                (zeta_prime_ratio(0), "-23/15"),
                (zeta_prime_ratio(1), 10),
                (zeta_prime_ratio(2), -21),
                (ONE, "-277/2700"),
                (LNPI, "1/6"),
                (LN2, "-694/2835"),
            ]
        )

    def test_divergent_rejected(self):
        with pytest.raises(DomainError, match="convergence"):
            log_integral_odd_cosh(3, 2)


class TestLogIntegralEvenCosh:
    def test_q0_n1(self):
        assert log_integral_even_cosh(0, 1) == cf(
            [(beta_prime_ratio(0), -4), (LNPI, 1), (LN2, -1)]
        )

    def test_q0_n2(self):
        assert log_integral_even_cosh(0, 2) == cf(
            [
                (beta_prime_ratio(0), "-2/3"),
                (beta_prime_ratio(1), "-16/3"),
                (ONE, "-1/4"),
                (LNPI, "1/3"),
                (LN2, "-1/3"),
            ]
        )

    def test_q1_n2(self):
        assert log_integral_even_cosh(1, 2) == cf(
            [
                (beta_prime_ratio(0), "-10/3"),
                (beta_prime_ratio(1), "16/3"),
                (ONE, "1/4"),
                (LNPI, "2/3"),
                (LN2, "-2/3"),
            ]
        )

    def test_divergent_rejected(self):
        with pytest.raises(DomainError, match="convergence"):
            log_integral_even_cosh(2, 2)

    @staticmethod
    def double_sum_form(q, n):
        # The published assembly: for each coefficient, a double sum over the
        # (x/sinh x)^{2n} coefficients d and the binomial power sums, without
        # the shared kernel table.
        d = x_over_sinh_coeffs(2 * n, 2 * n)

        def inner(m, p):
            return binomial(2 * m + 1, 2 * m - 2 * p) * binomial_power_sum(q, m - p)

        pairs = [
            (
                beta_prime_ratio(p),
                (-1) ** (q + n + p)
                * 2 ** (2 * p + 2)
                * math.factorial(2 * p)
                * sum(d[2 * n - 2 * m - 2] / math.factorial(2 * m + 1) * inner(m, p) for m in range(p, n)),
            )
            for p in range(n)
        ]
        n_coeff = (-1) ** (q + n + 1) * sum(
            d[2 * n - 2 * m - 2]
            / math.factorial(2 * m + 1)
            * sum(inner(m, p) * euler_number(2 * p) for p in range(m + 1))
            for m in range(n)
        )
        m_coeff = (-1) ** (q + n) * sum(
            d[2 * n - 2 * m - 2]
            / math.factorial(2 * m + 1)
            * sum(inner(m, p) * harmonic(2 * p) * euler_number(2 * p) for p in range(m + 1))
            for m in range(n)
        )
        return ClosedForm(pairs + [(ONE, m_coeff), (LNPI, n_coeff), (LN2, -n_coeff)])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_kernel_table_matches_published_double_sums(self, n):
        for q in range(n):
            assert log_integral_even_cosh(q, n) == self.double_sum_form(q, n)


def _fraction_log_odd_form(q, n):
    # The odd log form as it was assembled before the integer numerators:
    # Fraction kernel values, Bernoulli weights and harmonic numbers.
    kernel = cosh_kernel_coeffs(2 * n + 1, q, 2 * n)
    s_vals = [kernel[2 * n - 2 * p - 2] / math.factorial(2 * p + 2) for p in range(n)]
    sign = (-1) ** (q + n)
    pairs = [
        (zeta_prime_ratio(p), sign * (-1) ** p * 2 * math.factorial(2 * p + 1) * (2 ** (2 * p + 2) - 1) * s)
        for p, s in enumerate(s_vals)
    ]
    j_coeff = -sign * sum(
        Fraction(2 ** (2 * p + 1) * (2 ** (2 * p + 2) - 1), p + 1) * bernoulli(2 * p + 2) * s_vals[p]
        for p in range(n)
    )
    k_coeff = sign * sum(
        Fraction(2 ** (2 * p + 1), p + 1) * bernoulli(2 * p + 2) * s_vals[p] for p in range(n)
    )
    i_coeff = sign * sum(
        Fraction(2 ** (2 * p + 1) * (2 ** (2 * p + 2) - 1), p + 1)
        * bernoulli(2 * p + 2)
        * harmonic(2 * p + 1)
        * s_vals[p]
        for p in range(n)
    )
    return ClosedForm(pairs + [(ONE, i_coeff), (LNPI, j_coeff), (LN2, k_coeff - j_coeff)])


def _fraction_log_even_form(q, n):
    # The even log form as it was assembled before the integer numerators.
    kernel = cosh_kernel_coeffs(2 * n, q, 2 * n)
    u_vals = [kernel[2 * n - 2 * p - 2] / math.factorial(2 * p + 1) for p in range(n)]
    sign = (-1) ** (q + n)
    pairs = [
        (beta_prime_ratio(p), sign * (-1) ** p * 2 ** (2 * p + 2) * math.factorial(2 * p) * u)
        for p, u in enumerate(u_vals)
    ]
    n_coeff = -sign * sum(euler_number(2 * p) * u for p, u in enumerate(u_vals))
    m_coeff = sign * sum(harmonic(2 * p) * euler_number(2 * p) * u for p, u in enumerate(u_vals))
    return ClosedForm(pairs + [(ONE, m_coeff), (LNPI, n_coeff), (LN2, -n_coeff)])


class TestLogResidues:
    """``_log_residues``: the integer numerators both log forms and the
    ``euler-bernoulli`` suite read."""

    @pytest.mark.parametrize("n", range(1, 21))
    def test_forms_equal_the_fraction_assembly(self, n):
        for q in range(n):
            assert log_integral_odd_cosh(q, n) == _fraction_log_odd_form(q, n)
            assert log_integral_even_cosh(q, n) == _fraction_log_even_form(q, n)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_lnpi_value_is_the_form_coefficient(self, n):
        for q in range(n):
            for odd, form in ((True, log_integral_odd_cosh), (False, log_integral_even_cosh)):
                den, w, lnpi = _log_residues(odd, q, n)
                assert lnpi == form(q, n).coefficient(LNPI)
                # w[p] / den is the kernel value S[p] resp. U[p]
                top = 2 * n if odd else 2 * n - 1
                kernel = cosh_kernel_coeffs(top + 1, q, 2 * n)
                assert [Fraction(x, den) for x in w] == [
                    kernel[2 * n - 2 * p - 2] / math.factorial(top - 2 * n + 2 * p + 2) for p in range(n)
                ]

    def test_tangent_weights_are_integers(self):
        # 2^{2p+1} (2^{2p+2} - 1) B_{2p+2} / (p+1) = (-1)^p T_{2p+1}
        for p in range(20):
            t = _signed_tangent(p)
            assert isinstance(t, int)
            weight = Fraction(2 ** (2 * p + 1) * (2 ** (2 * p + 2) - 1), p + 1) * bernoulli(2 * p + 2)
            assert weight.denominator == 1 and weight == t
        assert [abs(_signed_tangent(p)) for p in range(5)] == [1, 2, 16, 272, 7936]

    def test_divergent_rejected(self):
        for odd in (True, False):
            with pytest.raises(DomainError, match="convergence"):
                _log_residues(odd, 2, 2)


class TestSinhOverZIntegral:
    def test_1_4(self):
        assert sinh_over_z_integral(1, 4) == cf(
            [
                (zeta_prime_ratio(0), -2),
                (zeta_prime_ratio(1), 30),
                (ONE, "5/18"),
                (LN2, "-4/45"),
            ]
        )

    def test_1_3(self):
        assert sinh_over_z_integral(1, 3) == cf(
            [(beta_prime_ratio(0), -2), (beta_prime_ratio(1), 16), (ONE, "3/4")]
        )

    def test_3_7(self):
        assert sinh_over_z_integral(3, 7) == cf(
            [
                (beta_prime_ratio(0), "-5/4"),
                (beta_prime_ratio(1), "878/45"),
                (beta_prime_ratio(2), "-352/3"),
                (beta_prime_ratio(3), 256),
                (ONE, "7051/21600"),
            ]
        )

    @pytest.mark.parametrize("q, n", [(0, 5), (2, 4), (3, 6)])
    def test_convergence_precondition(self, q, n):
        with pytest.raises(DomainError, match="convergence"):
            sinh_over_z_integral(q, n)

    def test_lnpi_always_cancels_to_16(self):
        for n_exp in range(3, 17):
            for q in range(1, (n_exp - 1) // 2 + 1):
                form = sinh_over_z_integral(q, n_exp)
                assert form.coefficient(LNPI) == 0

    def test_basis_parity_structure_to_16(self):
        # even cosh exponent: zeta' ratios + constant + ln 2 only;
        # odd cosh exponent: beta' ratios + constant, and ln 2 cancels too
        # (it enters each log piece with coefficient opposite to ln pi)
        for n_exp in range(3, 17):
            for q in range(1, (n_exp - 1) // 2 + 1):
                kinds = {s.kind for s in sinh_over_z_integral(q, n_exp).symbols()}
                if n_exp % 2 == 0:
                    assert kinds <= {"zeta_prime_ratio", "one", "ln2"}
                else:
                    assert kinds <= {"beta_prime_ratio", "one"}


class TestPhiOddClosedForm:
    def test_which1_n1(self):
        assert phi_odd_closed_form(1, 1) == cf(
            [(eta_prime_neg_symbol(0), "4/3"), (eta_prime_neg_symbol(1), "8/3")]
        )

    def test_which2_n2(self):
        assert phi_odd_closed_form(2, 2) == cf(
            [
                (beta_prime_neg_symbol(0), "3/4"),
                (beta_prime_neg_symbol(1), "7/6"),
                (beta_prime_neg_symbol(2), "1/12"),
            ]
        )

    def test_which1_n3(self):
        assert phi_odd_closed_form(1, 3) == cf(
            [
                (eta_prime_neg_symbol(0), "4/7"),
                (eta_prime_neg_symbol(1), "112/45"),
                (eta_prime_neg_symbol(2), "8/9"),
                (eta_prime_neg_symbol(3), "16/315"),
            ]
        )

    def test_pole_rejected(self):
        with pytest.raises(DomainError, match="pole"):
            phi_odd_closed_form(1, 0)

    def test_leading_coefficient_law(self):
        for n in range(1, 51):
            assert eta_prime_neg_coeffs(n)[0] == Fraction(4, 2 * n + 1)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_coefficients_equal_docstring_sums(self, n):
        tables = root_product_tables(n)
        eta = [
            sum(
                (
                    Fraction(math.comb(n, k) * 2 ** (2 * k + 2), math.factorial(2 * k + 1))
                    * tables.integer_root(i, k)
                    for k in range(i, n + 1)
                ),
                Fraction(0),
            )
            for i in range(n + 1)
        ]
        beta = [
            sum(
                (
                    Fraction(2 * math.comb(n, k), math.factorial(2 * k)) * tables.odd_root(i, k)
                    for k in range(i, n + 1)
                ),
                Fraction(0),
            )
            for i in range(n + 1)
        ]
        assert eta_prime_neg_coeffs(n) == tuple(eta)
        assert beta_prime_neg_coeffs(n) == tuple(beta)


class TestPhiEvenClosedForm:
    def test_phi1_at_2_is_7_zeta3_over_pi2(self):
        assert phi_even_closed_form(1, 1) == cf([(zeta_odd_ratio(0), 7)])

    def test_phi2_at_2_is_4_catalan_over_pi(self):
        assert phi_even_closed_form(2, 1) == cf([(beta_even_ratio(0), 4)])

    def test_phi1_at_4(self):
        # the zeta block of the published relation "zeta3-zeta5"
        assert phi_even_closed_form(1, 2) == cf([(zeta_odd_ratio(0), "14/3"), (zeta_odd_ratio(1), -31)])

    def test_top_coefficient(self):
        # only j = 0, with d_0 = 1, reaches the top index: the coefficient is
        # (-1)^{m-1} 2^N lambda(N) resp. (-1)^{m-1} 2^N beta(N)
        for m in range(1, 10):
            sign = (-1) ** (m - 1)
            assert phi_even_closed_form(1, m).coefficient(zeta_odd_ratio(m - 1)) == sign * (2 * 4**m - 1)
            assert phi_even_closed_form(2, m).coefficient(beta_even_ratio(m - 1)) == sign * 4**m

    def test_json_round_trip_of_both_kinds(self):
        for form in (phi_even_closed_form(1, 3), phi_even_closed_form(2, 3)):
            again = ClosedForm.from_json(form.to_json())
            assert again == form
            assert again.to_json() == form.to_json()
        assert '"symbol": "beta_even_ratio", "p": 0' in phi_even_closed_form(2, 1).to_json()

    def test_latex(self):
        assert phi_even_closed_form(1, 1).latex() == r"7\,\frac{\zeta(3)}{\pi^{2}}"
        assert phi_even_closed_form(2, 2).latex() == (
            r"\frac{10}{3}\,\frac{\beta(2)}{\pi} - 16\,\frac{\beta(4)}{\pi^{3}}"
        )

    def test_new_kinds_sort_after_the_old(self):
        assert sorted([beta_even_ratio(0), zeta_odd_ratio(1), LN2, zeta_odd_ratio(0)]) == [
            LN2, zeta_odd_ratio(0), zeta_odd_ratio(1), beta_even_ratio(0),
        ]

    @pytest.mark.parametrize("which, m", [(0, 1), (3, 1), (1, 0), (2, 0), (2, -1)])
    def test_bad_arguments(self, which, m):
        with pytest.raises(DomainError):
            phi_even_closed_form(which, m)


class TestTopCoefficientLaws:
    # The highest-order derivative ratio in each log integral has a closed
    # value that collapses out of the kernel sums: only the m = n (resp.
    # m = n-1) term survives, with c[0] = d[0] = 1 and W(q, 0) = 1.

    @pytest.mark.parametrize("n", range(1, 9))
    def test_top_zeta_coefficient(self, n):
        for q in range(n):
            top = log_integral_odd_cosh(q, n).coefficient(zeta_prime_ratio(n - 1))
            assert top == (-1) ** (q + 1) * Fraction(4**n - 1, n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_top_beta_coefficient(self, n):
        for q in range(n):
            top = log_integral_even_cosh(q, n).coefficient(beta_prime_ratio(n - 1))
            assert top == (-1) ** (q + 1) * Fraction(4**n, 2 * n - 1)


class TestFormCaches:
    # A long-lived process must not keep every form it ever built: each
    # memoised builder holds its 256 most recent forms.

    @pytest.mark.parametrize(
        "build, args",
        [
            (log_integral_odd_cosh, [(q, n) for n in range(1, 26) for q in range(n)]),
            (log_integral_even_cosh, [(q, n) for n in range(1, 26) for q in range(n)]),
            (sinh_over_z_integral, [(q, big) for big in range(3, 40) for q in range(1, (big + 1) // 2)]),
        ],
        ids=["log-odd", "log-even", "sinh-over-z"],
    )
    def test_bounded_and_evicted_forms_rebuild_equal(self, build, args):
        first, others = args[0], args[1:301]
        assert len(set(others)) == 300 and first not in others
        bound = build.cache_info().maxsize
        assert bound == 256
        build.cache_clear()
        original = build(*first)
        for a in others:
            build(*a)
            assert build.cache_info().currsize <= bound
        misses = build.cache_info().misses
        rebuilt = build(*first)
        assert build.cache_info().misses == misses + 1  # it was evicted
        assert rebuilt == original and rebuilt is not original


class TestCatalogReplay:
    @pytest.mark.parametrize("key", sorted(catalog.LOG_ODD_COSH))
    def test_log_odd(self, key):
        assert log_integral_odd_cosh(*key) == catalog.LOG_ODD_COSH[key]

    @pytest.mark.parametrize("key", sorted(catalog.LOG_EVEN_COSH))
    def test_log_even(self, key):
        assert log_integral_even_cosh(*key) == catalog.LOG_EVEN_COSH[key]

    @pytest.mark.parametrize("key", sorted(catalog.SINH_OVER_Z))
    def test_sinh_over_z(self, key):
        assert sinh_over_z_integral(*key) == catalog.SINH_OVER_Z[key]

    @pytest.mark.parametrize("key", sorted(catalog.PHI_ODD))
    def test_phi_odd(self, key):
        assert phi_odd_closed_form(*key) == catalog.PHI_ODD[key]
