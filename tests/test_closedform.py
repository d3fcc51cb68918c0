"""Closed-form assembly: worked values, preconditions, serialization."""

import copy
import math
import pickle
import re
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
    euler_number,
    harmonic,
    log_integral_even_cosh,
    log_integral_odd_cosh,
    phi_even_closed_form,
    phi_odd_closed_form,
    sinh_over_z_integral,
    x_over_sinh_coeffs,
    zeta_odd_ratio,
    zeta_prime_ratio,
)
from arcmellin import catalog, closedform
from arcmellin.closedform import _ln_pi_row, _log_residues
from arcmellin.exact import _signed_tangent
from _series_oracles import cosh_kernel_coeffs, odd_value_coeffs_by_triangle


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


KINDS = (
    "zeta_prime_ratio", "beta_prime_ratio", "eta_prime_neg", "beta_prime_neg",
    "one", "lnpi", "ln2", "zeta_odd_ratio", "beta_even_ratio",
)
INDEXED_KINDS = [k for k in KINDS if k not in ("one", "lnpi", "ln2")]

symbols = st.one_of(
    st.sampled_from([ONE, LNPI, LN2]),
    st.builds(BasisSymbol, st.sampled_from(INDEXED_KINDS), st.integers(0, 40)),
)
# zero, small, and numerators and denominators of up to 60 digits
coefficients = st.one_of(
    st.just(Fraction(0)),
    st.fractions(max_denominator=10**6),
    st.builds(Fraction, st.integers(-10**60, 10**60), st.integers(1, 10**60)),
)
scalars = st.one_of(st.just(0), st.integers(-10**30, 10**30), coefficients)
term_lists = st.lists(st.tuples(symbols, coefficients), max_size=10)


def oracle(pairs):
    """The form as a dict of nonzero Fractions, summed term by term."""
    acc = {}
    for sym, c in pairs:
        acc[sym] = acc.get(sym, Fraction(0)) + Fraction(c)
    return {s: c for s, c in acc.items() if c}


def oracle_latex(terms):
    if not terms:
        return "0"
    out = ""
    for k, (sym, c) in enumerate(sorted(terms.items(), key=lambda kv: kv[0].sort_key())):
        mag = abs(c)
        body = str(mag.numerator) if mag.denominator == 1 else rf"\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        symtex = sym.latex()
        term = (symtex if mag == 1 else rf"{body}\,{symtex}") if symtex else body
        sign = "-" if c < 0 else "+"
        out += (("-" if sign == "-" else "") if k == 0 else f" {sign} ") + term
    return out


def oracle_repr(terms):
    ordered = sorted(terms.items(), key=lambda kv: kv[0].sort_key())
    inner = ", ".join(
        f"{s.kind}[{s.index}]: {c}" if s.index is not None else f"{s.kind}: {c}" for s, c in ordered
    )
    return f"ClosedForm({{{inner}}})"


def assert_reduced(form):
    # one positive denominator, nonzero integer numerators, gcd 1 over all
    den, nums = form._den, form._nums
    assert type(den) is int and den > 0
    assert all(type(n) is int and n != 0 for n in nums.values())
    assert math.gcd(den, *nums.values()) == 1


def assert_matches(form, terms):
    """``form`` is reduced and reads back as the oracle ``terms``."""
    assert_reduced(form)
    items = form.items()
    assert [s for s, _ in items] == sorted(terms, key=BasisSymbol.sort_key) == form.symbols()
    assert all(type(c) is Fraction for _, c in items)
    assert dict(items) == terms and list(form) == items
    for sym in (*terms, ONE, LN2, zeta_prime_ratio(41)):
        assert form.coefficient(sym) == terms.get(sym, 0)
    assert len(form) == len(terms) and bool(form) == bool(terms)
    assert form.latex() == oracle_latex(terms)
    assert repr(form) == oracle_repr(terms)
    again = ClosedForm.from_json(form.to_json())
    assert again == form and again.to_json() == form.to_json()
    assert_reduced(again)
    # the same form built another way: one dict, its terms reversed
    for other in (ClosedForm(terms), ClosedForm(list(terms.items())[::-1])):
        assert other == form and hash(other) == hash(form)
        assert_reduced(other)


class TestIntegerRepresentation:
    """``ClosedForm`` on one reduced denominator against a dict of Fractions."""

    @settings(max_examples=150, deadline=None)
    @given(term_lists)
    def test_construction(self, pairs):
        assert_matches(ClosedForm(pairs), oracle(pairs))

    @settings(max_examples=150, deadline=None)
    @given(term_lists, term_lists)
    def test_add_and_subtract(self, a, b):
        x, y = ClosedForm(a), ClosedForm(b)
        assert_matches(x + y, oracle(a + b))
        assert_matches(x - y, oracle(a + [(s, -c) for s, c in b]))
        assert_matches(x - x, {})
        assert (x + y) - y == x

    @settings(max_examples=150, deadline=None)
    @given(term_lists, scalars)
    def test_scale(self, pairs, c):
        form = ClosedForm(pairs)
        expected = {s: v * c for s, v in oracle(pairs).items() if v * c}
        for scaled in (form.scale(c), form * c, c * form):
            assert_matches(scaled, expected)

    @settings(max_examples=100, deadline=None)
    @given(term_lists, st.fractions().filter(bool))
    def test_equal_forms_hash_equal_across_builds(self, pairs, c):
        form = ClosedForm(pairs)
        rebuilt = form.scale(c).scale(1 / c)
        summed = sum((ClosedForm([(s, v)]) for s, v in pairs), ClosedForm())
        for other in (rebuilt, summed):
            assert other == form and hash(other) == hash(form)
            assert_reduced(other)

    def test_empty_form(self):
        for empty in (ClosedForm(), cf([(ONE, 0)]), cf([(LN2, "1/3"), (LN2, "-1/3")]), cf([(ONE, 5)]).scale(0)):
            assert_matches(empty, {})
            assert empty.latex() == "0" and repr(empty) == "ClosedForm({})"

    @pytest.mark.parametrize("n", range(1, 9))
    def test_builders_are_reduced(self, n):
        forms = [phi_odd_closed_form(w, n) for w in (1, 2)] + [phi_even_closed_form(w, n) for w in (1, 2)]
        forms += [log_integral_odd_cosh(q, n) for q in range(n)] + [log_integral_even_cosh(q, n) for q in range(n)]
        forms += [sinh_over_z_integral(q, 2 * n + 1) for q in range(1, n + 1)]
        for form in forms:
            assert_matches(form, dict(form.items()))

    def test_catalog_forms_are_reduced(self):
        for table in (catalog.LOG_ODD_COSH, catalog.LOG_EVEN_COSH, catalog.SINH_OVER_Z, catalog.PHI_ODD):
            for form in table.values():
                assert_reduced(form)


class TestBasisSymbolTuple:
    """``BasisSymbol`` is an immutable (kind, index) tuple."""

    @pytest.mark.parametrize(
        "args, message",
        [
            pytest.param(
                ("zeta_prime_ratio",), "zeta_prime_ratio index must be an int >= 0, got None",
                id="args0-zeta_prime_ratio requires an integer index >= 0",
            ),
            pytest.param(
                ("beta_prime_neg", -1), "beta_prime_neg index must be an int >= 0, got -1",
                id="args1-beta_prime_neg requires an integer index >= 0",
            ),
            pytest.param(
                ("eta_prime_neg", True), "eta_prime_neg index must be an int >= 0, got True",
                id="args2-eta_prime_neg requires an integer index >= 0",
            ),
            pytest.param(
                ("zeta_odd_ratio", 1.0), "zeta_odd_ratio index must be an int >= 0, got 1.0",
                id="args3-zeta_odd_ratio requires an integer index >= 0",
            ),
            pytest.param(
                ("beta_even_ratio", "2"), "beta_even_ratio index must be an int >= 0, got '2'",
                id="args4-beta_even_ratio requires an integer index >= 0",
            ),
            (("ln2", 1), "ln2 takes no index"),
            (("one", 0), "one takes no index"),
            (("zeta", 1), "unknown basis symbol kind 'zeta'"),
            ((None,), "unknown basis symbol kind None"),
        ],
    )
    def test_domain_errors(self, args, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            BasisSymbol(*args)

    @settings(max_examples=100)
    @given(st.lists(symbols, max_size=12))
    def test_order_is_rank_then_index(self, syms):
        ranked = sorted(syms, key=lambda s: (KINDS.index(s.kind), s.index or 0))
        assert sorted(syms) == ranked
        for a, b in zip(ranked, ranked[1:]):
            assert (a < b) == (b > a) == (a.sort_key() < b.sort_key())
            assert a <= b and b >= a

    @given(symbols)
    def test_equal_symbols_hash_equal(self, sym):
        twin = BasisSymbol(sym.kind, sym.index)
        assert twin == sym and hash(twin) == hash(sym) and twin is not sym
        assert {sym: 1}[twin] == 1
        assert pickle.loads(pickle.dumps(sym)) == sym
        assert copy.deepcopy(sym) == sym

    def test_fields_and_repr(self):
        sym = BasisSymbol("beta_prime_ratio", 2)
        assert (sym.kind, sym.index) == ("beta_prime_ratio", 2) == tuple(sym)
        assert ONE.index is None
        assert repr(sym) == "BasisSymbol(kind='beta_prime_ratio', index=2)"
        assert repr(LN2) == "BasisSymbol(kind='ln2', index=None)"

    def test_immutable(self):
        sym = zeta_prime_ratio(1)
        for name in ("kind", "index", "other"):
            with pytest.raises(AttributeError):
                setattr(sym, name, 0)
        assert sym == zeta_prime_ratio(1)


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
            for odd in (True, False):
                den, w = _log_residues(odd, q, n)
                # w[p] / den is the kernel value S[p] resp. U[p]
                top = 2 * n if odd else 2 * n - 1
                kernel = cosh_kernel_coeffs(top + 1, q, 2 * n)
                assert [Fraction(x, den) for x in w] == [
                    kernel[2 * n - 2 * p - 2] / math.factorial(top - 2 * n + 2 * p + 2) for p in range(n)
                ]

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 15, 30])
    def test_ln_pi_row_is_each_residue_lnpi(self, n):
        # one weight vector per cosh power, dotted with each q's moments,
        # gives the ln(pi) coefficient each log form emits
        for odd, form in ((True, log_integral_odd_cosh), (False, log_integral_even_cosh)):
            assert _ln_pi_row(odd, n) == [form(q, n).coefficient(LNPI) for q in range(n)]

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

    @pytest.mark.parametrize("q, n_exp", [(2, 8), (2, 7)])
    def test_lnpi_guard(self, monkeypatch, q, n_exp):
        # a stray ln(pi) term on the upper neighbouring log form (odd cosh
        # power for even N, even for odd N) must stop the assembly; the
        # unmemoised function is called so that no cached form answers
        name = "log_integral_odd_cosh" if n_exp % 2 == 0 else "log_integral_even_cosh"
        real = getattr(closedform, name)
        upper_n = (n_exp + 1) // 2

        def skewed(qq, n):
            form = real(qq, n)
            return form + ClosedForm([(LNPI, 1)]) if (qq, n) == (q, upper_n) else form

        monkeypatch.setattr(closedform, name, skewed)
        with pytest.raises(AssertionError, match="ln\\(pi\\) coefficient failed to cancel"):
            sinh_over_z_integral.__wrapped__(q, n_exp)

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

    @pytest.mark.parametrize("n", range(1, 61))
    def test_coefficients_equal_docstring_sums(self, n):
        # the triangle sums over root_product_tables, against Horner's rule
        eta, beta = odd_value_coeffs_by_triangle(n)
        assert eta_prime_neg_coeffs(n) == eta
        assert beta_prime_neg_coeffs(n) == beta


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

    @pytest.mark.parametrize("m", range(1, 41))
    def test_equals_the_kernel_table_assembly(self, m):
        for which in (1, 2):
            assert phi_even_closed_form(which, m) == _table_phi_even(which, m)

    def test_lambda1_guard(self, monkeypatch):
        # a nonzero kernel coefficient at k = 1 (j = m, the last entry of the
        # (x/sinh x)^{2m+1} row, only for which = 1) must stop the assembly
        real = closedform._egf_convolution

        def skewed(row, moments, j):
            return real(row, moments, j) + (j == len(row) - 1)

        monkeypatch.setattr(closedform, "_egf_convolution", skewed)
        with pytest.raises(AssertionError, match=r"lambda\(1\) coefficient failed to vanish for m=3"):
            phi_even_closed_form(1, 3)
        assert phi_even_closed_form(2, 3) == _table_phi_even(2, 3)


def _table_phi_even(which, m):
    # phi_even_closed_form assembled from the whole kernel table
    big_n = 2 * m + 1 if which == 1 else 2 * m
    kernel = cosh_kernel_coeffs(big_n, m - 1, big_n)
    assert big_n % 2 == 0 or kernel[big_n - 1] == 0
    pairs = []
    for j in range(0, big_n - 1, 2):
        k, sign = big_n - j, (-1) ** (m - 1 - j // 2)
        if which == 1:
            pairs.append((zeta_odd_ratio((k - 3) // 2), sign * (2**k - 1) * kernel[j]))
        else:
            pairs.append((beta_even_ratio((k - 2) // 2), sign * 2**k * kernel[j]))
    return ClosedForm(pairs)


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
