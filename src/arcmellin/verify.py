"""Identity suites and numeric consistency checks.

The exact suites evaluate combinatorial identities in rational arithmetic
and compare against their stated closed values -- no floats anywhere; the
even-argument relations are one of them.  The numeric suites (bounds,
coupled series, asymptotic constants, cross representation, reference
tables) declare a working precision and tolerance in their reports, refuse
a precision below :data:`MIN_PREC`, and set the mpmath precision only
through ``lfuncs._working``: the one lock on the global context, at
``lfuncs.GUARD_DIGITS`` digits above the suite's precision.

Every suite is named by one :class:`IdentityFamily` member and dispatched
through :data:`SUITES`, which maps it to a runner ``(n_range, prec)``;
:func:`run_identity` looks one up and :func:`all_suites` runs them all in
registry order.  Each runner returns a :class:`VerifyReport` whose cells are
ordered by parameter tuple, so reports are deterministic for fixed inputs;
wall-clock timing is carried on the object but excluded from the canonical
JSON.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpf

from . import catalog
from .closedform import (
    ClosedForm,
    _log_residues,
    beta_even_ratio,
    eta_prime_neg_coeffs,
    log_integral_even_cosh,
    log_integral_odd_cosh,
    phi_even_closed_form,
    phi_odd_closed_form,
    sinh_over_z_integral,
    zeta_odd_ratio,
    zeta_prime_ratio,
)
from .exact import DomainError, bernoulli, binomial, eulerian
from .lfuncs import _working, eval_closed_form, mellin_bound_gamma_ratio, phi1_bounds
from .quadrature import quad_c_constant, quad_phi
from .series import _cosh_moments, _egf_convolution, _x_over_sinh_row


class IdentityFamily(str, Enum):
    ALT_BINOM_ODD = "alt-binom-odd"
    ALT_BINOM_EVEN = "alt-binom-even"
    C_ODD_POWER = "c-odd-power"
    EULERIAN_A_SUM = "eulerian-a"
    EULERIAN_B_SUM = "eulerian-b"
    BINOM_COSH_SUM = "binom-cosh"
    VANISHING = "vanishing"
    ETA_COEFF = "eta-coeff"
    ZETA2_COEFF = "zeta2-coeff"
    D_IDENTITY = "d-identity"
    EULER_BERNOULLI = "euler-bernoulli"
    BOUNDS = "bounds"
    COUPLED_SERIES = "coupled"
    ASYMPTOTIC = "asymptotic"
    CROSS_REP = "cross-rep"
    EVEN_RELATIONS = "even-relations"


@dataclass(frozen=True)
class CellResult:
    params: tuple
    ok: bool
    detail: str = ""


@dataclass
class VerifyReport:
    family: str
    cells: list[CellResult] = field(default_factory=list)
    precision: int | None = None
    tolerance: str | None = None
    elapsed_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def first_counterexample(self) -> tuple | None:
        for cell in self.cells:
            if not cell.ok:
                return cell.params
        return None

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "precision": self.precision,
            "tolerance": self.tolerance,
            "cells": [
                {"params": list(c.params), "ok": c.ok, "detail": c.detail}
                for c in self.cells
            ],
            "passed": self.passed,
            "first_counterexample": (
                list(self.first_counterexample)
                if self.first_counterexample is not None
                else None
            ),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = ""
        if not self.passed:
            extra = f" first counterexample at {self.first_counterexample}"
        return (
            f"{self.family}: {status} ({len(self.cells)} cells, "
            f"{self.elapsed_seconds:.2f}s){extra}"
        )


def _report(family: str, cells, precision=None, tolerance=None, started=None) -> VerifyReport:
    elapsed = time.perf_counter() - started if started is not None else 0.0
    return VerifyReport(
        family=family,
        cells=list(cells),
        precision=precision,
        tolerance=tolerance,
        elapsed_seconds=elapsed,
    )


# ---------------------------------------------------------------------------
# exact identity families: single-cell evaluators
# ---------------------------------------------------------------------------

def _alt_binom_odd_cell(params: tuple) -> CellResult:
    n, j = params
    lhs = sum(
        (-1) ** k * binomial(2 * n + 1, k) * (2 * n + 1 - 2 * k) ** (2 * j + 1)
        for k in range(n + 1)
    )
    rhs = 4**n * math.factorial(2 * n + 1) if j == n else 0
    return CellResult(params, lhs == rhs, f"lhs={lhs}")


def _alt_binom_even_cell(params: tuple) -> CellResult:
    # The half-range sum at j = 0 equals (-1)^{n+1} C(2n,n) / 2: pairing
    # k <-> 2n-k halves the full alternating sum around the central term,
    # the same halving that gives the j = n value 4^n (2n)! / 2.
    n, j = params
    lhs = Fraction(
        sum(
            (-1) ** k * binomial(2 * n, k) * (2 * n - 2 * k) ** (2 * j)
            for k in range(n)
        )
    )
    if j == 0:
        rhs = Fraction((-1) ** (n + 1) * binomial(2 * n, n), 2)
    elif j == n:
        rhs = Fraction(4**n * math.factorial(2 * n), 2)
    else:
        rhs = Fraction(0)
    return CellResult(params, lhs == rhs, f"lhs={lhs}")


# The cells below sum in integers.  With (D, row) = ``_x_over_sinh_row(e, K)``
# the x^{2m} coefficient of (x/sinh x)^e is row[m] / (D (2m)!), so a sum of
# c[2j-2i] / (2i)! * moment[i] is the binomial convolution
# ``_egf_convolution(row, moments, j)`` over D (2j)!, one Fraction per cell.

def _even_moments(terms, count: int) -> list[int]:
    """[sum_k w_k x_k^{2r} for r < count] for ``terms`` = [(w_k, x_k)]."""
    weights = [w for w, _ in terms]
    squares = [x * x for _, x in terms]
    moments = []
    for _ in range(count):
        moments.append(sum(weights))
        weights = [w * s for w, s in zip(weights, squares)]
    return moments


@lru_cache(maxsize=4)
def _eulerian_moments(kind: str, n: int) -> tuple[int, ...]:
    """sum_k E(kind, k) (2n-1-2k)^{2r} for r = 0..n over the Eulerian row of
    order 2n (kind "A") or 2n-1 (kind "B"): shared by every p of one n."""
    order = 2 * n if kind == "A" else 2 * n - 1
    terms = [(eulerian(kind, order, k), 2 * n - 1 - 2 * k) for k in range(n)]
    return tuple(_even_moments(terms, n + 1))


def _c_odd_power_cell(params: tuple) -> CellResult:
    # sum_m c[2m] (2k+1)^{2n-2m} / (2n-2m)!,  c = (x/sinh x)^{2n+1}
    n, k = params
    denom, row = _x_over_sinh_row(2 * n + 1, 2 * n)
    total = _egf_convolution(row, _even_moments([(1, 2 * k + 1)], n + 1), n)
    lhs = Fraction(total, denom * math.factorial(2 * n))
    rhs = Fraction(4**n) if k == n else Fraction(0)
    return CellResult(params, lhs == rhs, f"lhs={lhs}")


def _eulerian_a_cell(params: tuple) -> CellResult:
    # sum_r c[2n-2p-2r] / (2r)! sum_k A(2n, n-1-k) (2k+1)^{2r},  c = (x/sinh x)^{2n+1}
    n, p = params
    denom, row = _x_over_sinh_row(2 * n + 1, 2 * n)
    total = _egf_convolution(row, _eulerian_moments("A", n), n - p)
    lhs = Fraction(total, denom * math.factorial(2 * n - 2 * p))
    rhs = Fraction(math.factorial(2 * n), 2) if p == n else Fraction(0)
    return CellResult(params, lhs == rhs, f"lhs={lhs}")


def _eulerian_b_cell(params: tuple) -> CellResult:
    # sum_m d[2n-2p-2m] / (2m)! sum_k B(2n-1, k) (2n-1-2k)^{2m},  d = (x/sinh x)^{2n}
    n, p = params
    denom, row = _x_over_sinh_row(2 * n, 2 * n)
    total = _egf_convolution(row, _eulerian_moments("B", n), n - p)
    lhs = Fraction(total, denom * math.factorial(2 * n - 2 * p))
    if p == 0:
        rhs = Fraction(2 ** (2 * n - 2) * (2 ** (2 * n - 1) - 1)) * bernoulli(2 * n) / n
    elif p == n:
        rhs = Fraction(2 ** (2 * n - 2) * math.factorial(2 * n - 1))
    else:
        rhs = Fraction(0)
    return CellResult(params, lhs == rhs, f"lhs={lhs}")


def _binom_cosh_sum(n: int, q: int) -> tuple[int, int]:
    """(S, D (2n)!) with S / (D (2n)!) = sum_m c[2n-2m] / (2m)! 4^q W(q, m),
    c = (x/sinh x)^{2n+1} and W = ``binomial_power_sum``: the binom-cosh lhs,
    and 4^q times the vanishing lhs."""
    denom, row = _x_over_sinh_row(2 * n + 1, 2 * n)
    return _egf_convolution(row, _cosh_moments(q, n + 1), n), denom * math.factorial(2 * n)


def _binom_cosh_cell(params: tuple) -> CellResult:
    n, q = params
    total, denom = _binom_cosh_sum(n, q)
    lhs = Fraction(total, denom)
    rhs = Fraction(4**n) if q == n else Fraction(0)
    return CellResult(params, lhs == rhs, f"lhs={lhs}")


def _vanishing_cell(params: tuple) -> CellResult:
    n, q = params
    total, denom = _binom_cosh_sum(n, q)
    lhs = Fraction(total, denom * 4**q)
    return CellResult(params, lhs == 0, f"lhs={lhs}")


def _eta_coeff_cell(params: tuple) -> CellResult:
    (n,) = params
    lead = eta_prime_neg_coeffs(n)[0]
    return CellResult(params, lead == Fraction(4, 2 * n + 1), f"coeff={lead}")


def _zeta2_coeff_cell(params: tuple) -> CellResult:
    (n,) = params
    coeff = sinh_over_z_integral(n - 1, 2 * n).coefficient(zeta_prime_ratio(0))
    return CellResult(params, coeff == Fraction(-6, 2 * n - 1), f"coeff={coeff}")


def _d_identity_cell(params: tuple) -> CellResult:
    # sum_m d[2m] / (2n-2m)! sum_k C(4n+2, 2n-2k) (2k+1)^{2n-2m},  d = (x/sinh x)^{2n+2}
    (n,) = params
    denom, row = _x_over_sinh_row(2 * n + 2, 2 * n)
    terms = [(binomial(4 * n + 2, 2 * n - 2 * k), 2 * k + 1) for k in range(n + 1)]
    total = _egf_convolution(row, _even_moments(terms, n + 1), n)
    lhs = Fraction(total, denom * math.factorial(2 * n))
    return CellResult(params, lhs == Fraction(4**n, 2 * n + 1), f"lhs={lhs}")


def _euler_bernoulli_cell(params: tuple) -> CellResult:
    # Both beta-integral evaluations of int_0^oo sinh^{2q+1}/cosh^N dz: it is
    # (-1)^{q+n+1} times the ln(pi) coefficient of the log integral over the
    # same cosh^N, so each line reads the value the production forms read
    # (tangent numbers for N = 2n+1, Euler numbers for N = 2n) and builds no
    # form.
    n, q = params
    sign = (-1) ** (q + n + 1)
    line1 = sign * _log_residues(True, q, n)[2]
    rhs1 = Fraction(sign, 2) * Fraction(
        math.factorial(q) * math.factorial(n - q - 1), math.factorial(n)
    )
    line2 = sign * _log_residues(False, q, n)[2]
    rhs2 = sign * Fraction(
        2 ** (2 * q + 1)
        * math.factorial(q)
        * math.factorial(n)
        * math.factorial(2 * n - 2 * q - 2),
        math.factorial(n - q - 1) * math.factorial(2 * n),
    )
    ok = line1 == rhs1 and line2 == rhs2
    return CellResult(params, ok, f"line1={line1}, line2={line2}")


def _even_relation_cell(rel: dict) -> CellResult:
    # A relation states  zeta-block - beta-block = -sum_{n>=start} w_n
    # Phi_which(2n+offset).  The coupled series sum the whole tail to
    # Phi_2(offset) for which = 1 and to -Phi_1(offset) for which = 2, so the
    # block difference must equal -Phi_2(offset) resp. +Phi_1(offset), plus
    # the head sum_{n<start} w_n Phi_which(2n+offset), all exact.
    which, half = rel["which"], rel["offset"] // 2
    blocks = ClosedForm(
        [(zeta_odd_ratio((k - 3) // 2), c) for k, c in rel["zeta"].items()]
        + [(beta_even_ratio((k - 2) // 2), -c) for k, c in rel["beta"].items()]
    )
    rebuilt = phi_even_closed_form(3 - which, half).scale(1 if which == 2 else -1)
    for n in range(rel["start"]):
        weight = Fraction(binomial(2 * n, n), 4**n)
        if which == 2:
            weight /= 2 * n - 1
        rebuilt += phi_even_closed_form(which, n + half).scale(weight)
    return CellResult((rel["name"],), blocks == rebuilt, f"difference={(blocks - rebuilt).latex()}")


def check_even_argument_relations() -> VerifyReport:
    """The published even-argument relations between odd zeta and even beta
    values, each an exact equality of closed forms."""
    started = time.perf_counter()
    cells = [_even_relation_cell(rel) for rel in catalog.EVEN_ARGUMENT_RELATIONS]
    return _report("even-relations", cells, tolerance="exact rational equality", started=started)


# ---------------------------------------------------------------------------
# numeric suites
# ---------------------------------------------------------------------------

#: The lowest precision at which every numeric suite can pass on correct
#: code.  Below it the bounds margin 1e-(prec-10) stops being small against
#: the gaps it guards, the 19-decimal prefix checks ask for more digits than
#: were computed, and the cross-rep tolerance 1e-(prec-5) loosens toward 1.
MIN_PREC = 12


def _require_prec(prec: int) -> None:
    if prec < MIN_PREC:
        raise DomainError(f"numeric suites need prec >= {MIN_PREC}, got {prec}")


DEFAULT_BOUNDS_GRID = ("1.01", "1.1", "1.5", "2", "3", "5", "10", "25")


def check_bounds(s_grid=DEFAULT_BOUNDS_GRID, prec: int = 30) -> VerifyReport:
    """Strict two-sided bounds for both transforms on a grid of s > 1.

    Phi_1 is checked against 2/(s^2-1) < Phi_1(s) < 1/(s-1) and Phi_2
    against the Gamma-ratio enclosure; strictness demands a margin of
    10^{-(prec-10)} on each side.
    """
    _require_prec(prec)
    started = time.perf_counter()
    margin = mpf(10) ** (-(prec - 10))
    cells = []
    for s in s_grid:
        sf = Fraction(str(s))
        lo1, hi1 = phi1_bounds(sf, prec)
        v1 = quad_phi(1, sf, prec).value
        ok1 = (v1 - lo1) > margin and (hi1 - v1) > margin
        cells.append(CellResult((str(s), "phi1"), ok1, f"{lo1} < {v1} < {hi1}"))
        lo2, hi2 = mellin_bound_gamma_ratio(sf, prec)
        v2 = quad_phi(2, sf, prec).value
        ok2 = (v2 - lo2) > margin and (hi2 - v2) > margin
        cells.append(CellResult((str(s), "phi2"), ok2, f"{lo2} < {v2} < {hi2}"))
    return _report(
        IdentityFamily.BOUNDS.value,
        cells,
        precision=prec,
        tolerance=f"strict with margin 1e-{prec - 10}",
        started=started,
    )


def coupled_tail_bound(direction: int, truncation: int) -> mpf:
    """Upper bound on the dropped tail of the coupled-series identities.

    direction=2 bounds sum_{n>=T} C(2n,n) 4^{-n} Phi_1(s+2n) via
    C(2n,n) 4^{-n} <= 1/sqrt(pi n) and Phi_1(o) < 1/(o-1) < 1/(2n);
    direction=1 bounds the Phi_2 tail, additionally using Gautschi's
    inequality Gamma((o-1)/2)/Gamma(o/2) < sqrt(2/(o-2)).
    """
    t = mpf(truncation)
    if direction == 2:
        return (t ** mpf("-1.5") + 2 / mp.sqrt(t)) / (2 * mp.sqrt(mp.pi))
    if direction == 1:
        return (1 / (t * t) + 1 / t) / mp.sqrt(2)
    raise DomainError("direction must be 1 or 2")


def check_coupled(s, truncation: int = 30, prec: int = 30) -> VerifyReport:
    """Truncated coupled-series identities with rigorous tail bounds.

    Checks  Phi_2(s) = sum_{n<T} C(2n,n) 4^{-n} Phi_1(s+2n) + tail  and
    Phi_1(s) = -sum_{n<T} C(2n,n)/(4^n (2n-1)) Phi_2(s+2n) + tail (the n=0
    term of the second identity enters with +Phi_2(s) since 2n-1 = -1),
    requiring each residual to fall below its tail bound.
    """
    _require_prec(prec)
    started = time.perf_counter()
    sf = Fraction(str(s))
    if not sf > 1:
        raise DomainError(f"coupled series require s > 1, got {s}")
    with _working(prec):
        phi1_s = quad_phi(1, sf, prec).value
        phi2_s = quad_phi(2, sf, prec).value
        acc2 = mpf(0)
        acc1 = mpf(0)
        for n in range(truncation):
            weight = mpf(binomial(2 * n, n)) / mpf(4) ** n
            acc2 += weight * quad_phi(1, sf + 2 * n, prec).value
            acc1 -= weight / (2 * n - 1) * quad_phi(2, sf + 2 * n, prec).value
        residual2 = abs(phi2_s - acc2)
        residual1 = abs(phi1_s - acc1)
        bound2 = coupled_tail_bound(2, truncation)
        bound1 = coupled_tail_bound(1, truncation)
    cells = [
        CellResult(
            (str(s), "phi2-from-phi1", truncation),
            residual2 < bound2,
            f"residual={mp.nstr(residual2, 6)} bound={mp.nstr(bound2, 6)}",
        ),
        CellResult(
            (str(s), "phi1-from-phi2", truncation),
            residual1 < bound1,
            f"residual={mp.nstr(residual1, 6)} bound={mp.nstr(bound1, 6)}",
        ),
    ]
    return _report(
        IdentityFamily.COUPLED_SERIES.value,
        cells,
        precision=prec,
        tolerance="residual below analytic tail bound",
        started=started,
    )


def _prefix_matches(value: mpf, printed: str) -> bool:
    # within one unit in the last printed decimal place, at decimals + 25 digits
    decimals = len(printed.split(".")[1])
    with _working(decimals + 10):
        return abs(value - mpf(printed)) < mpf(10) ** (-decimals)


def check_asymptotic_constants(prec: int = 30) -> VerifyReport:
    """The s -> 1+ expansion constants of both transforms.

    Verifies quadrature against the closed forms and the published 19-digit
    decimals, and that Phi_which(1+eps) - 1/eps approaches the constant as
    eps shrinks through 10^{-1} .. 10^{-6}.
    """
    _require_prec(prec)
    started = time.perf_counter()
    tol = mpf(10) ** (-(prec - 5))
    cells = []
    closed = {1: catalog.C1_CLOSED_FORM, 2: catalog.C2_CLOSED_FORM}
    printed = {1: catalog.C1_DECIMAL, 2: catalog.C2_DECIMAL}
    for which in (1, 2):
        quad_val = quad_c_constant(which, prec).value
        closed_val = eval_closed_form(closed[which], prec)
        cells.append(
            CellResult(
                (f"C{which}", "closed-vs-quad"),
                abs(quad_val - closed_val) < tol,
                f"quad={mp.nstr(quad_val, prec)} closed={mp.nstr(closed_val, prec)}",
            )
        )
        cells.append(
            CellResult(
                (f"C{which}", "printed-prefix"),
                _prefix_matches(quad_val, printed[which])
                and _prefix_matches(closed_val, printed[which]),
                f"printed={printed[which]}",
            )
        )
        with _working(prec):
            errors = []
            for k in range(1, 7):
                eps = Fraction(1, 10**k)
                phi = quad_phi(which, 1 + eps, prec).value
                diff = phi - mpf(10) ** k
                errors.append(abs(diff - closed_val))
            trend_ok = all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
            ok = trend_ok and errors[2] < mpf("1e-2") and errors[-1] < mpf("1e-4")
        cells.append(
            CellResult(
                (f"C{which}", "limit-trend"),
                ok,
                "errors=" + ", ".join(mp.nstr(e, 3) for e in errors),
            )
        )
    return _report(
        "asymptotic-constants",
        cells,
        precision=prec,
        tolerance=f"1e-{prec - 5}; printed prefix to 19 decimals",
        started=started,
    )


def check_cross_representation(n_max: int = 6, prec: int = 30) -> VerifyReport:
    """Mellin values at s = 2n+1 through three routes, and at s = 2m through two.

    For each n and each transform: the negative-argument derivative form,
    the positive-argument derivative form assembled through the sinh/z
    bridge, and direct quadrature must agree pairwise to 10^{-(prec-5)}.
    Agreement validates the differentiated reflection formulas numerically.
    Then, in cells ("phi-even", which, m) for m = 1..n_max, the exact
    even-argument form must agree with quadrature to the same tolerance.
    Raises :class:`DomainError` for ``n_max < 1``, which holds no n.
    """
    _require_prec(prec)
    if n_max < 1:
        raise DomainError(f"cross-rep needs n_max >= 1, got {n_max}")
    started = time.perf_counter()
    tol = mpf(10) ** (-(prec - 5))
    cells = []
    for n in range(1, n_max + 1):
        for which in (1, 2):
            neg_form = eval_closed_form(phi_odd_closed_form(which, n), prec)
            q, big_n = catalog.phi_odd_as_sinh_over_z(which, n)
            pos_form = eval_closed_form(sinh_over_z_integral(q, big_n), prec)
            quad_val = quad_phi(which, 2 * n + 1, prec).value
            spread = max(
                abs(neg_form - pos_form),
                abs(neg_form - quad_val),
                abs(pos_form - quad_val),
            )
            cells.append(CellResult((which, n), spread < tol, f"spread={mp.nstr(spread, 3)}"))
    for m in range(1, n_max + 1):
        for which in (1, 2):
            exact = eval_closed_form(phi_even_closed_form(which, m), prec)
            gap = abs(exact - quad_phi(which, 2 * m, prec).value)
            cells.append(CellResult(("phi-even", which, m), gap < tol, f"gap={mp.nstr(gap, 3)}"))
    return _report(
        IdentityFamily.CROSS_REP.value,
        cells,
        precision=prec,
        tolerance=f"1e-{prec - 5}",
        started=started,
    )


# ---------------------------------------------------------------------------
# reference-table reproduction
# ---------------------------------------------------------------------------

def reproduce_reference_tables(prec: int = 30) -> VerifyReport:
    """Re-derive every cataloged closed form and compare exactly; then check
    the two asymptotic constants against their published decimal prefixes."""
    _require_prec(prec)
    started = time.perf_counter()
    cells = []
    for (q, n), expected in sorted(catalog.LOG_ODD_COSH.items()):
        got = log_integral_odd_cosh(q, n)
        cells.append(CellResult(("log-odd", q, n), got == expected, got.latex()))
    for (q, n), expected in sorted(catalog.LOG_EVEN_COSH.items()):
        got = log_integral_even_cosh(q, n)
        cells.append(CellResult(("log-even", q, n), got == expected, got.latex()))
    for (q, n_exp), expected in sorted(catalog.SINH_OVER_Z.items()):
        got = sinh_over_z_integral(q, n_exp)
        cells.append(CellResult(("sinh-over-z", q, n_exp), got == expected, got.latex()))
    for (which, n), expected in sorted(catalog.PHI_ODD.items()):
        got = phi_odd_closed_form(which, n)
        cells.append(CellResult(("phi-odd", which, n), got == expected, got.latex()))
    for which, form, printed in (
        (1, catalog.C1_CLOSED_FORM, catalog.C1_DECIMAL),
        (2, catalog.C2_CLOSED_FORM, catalog.C2_DECIMAL),
    ):
        quad_val = quad_c_constant(which, prec).value
        closed_val = eval_closed_form(form, prec)
        ok = _prefix_matches(quad_val, printed) and _prefix_matches(closed_val, printed)
        cells.append(CellResult((f"C{which}", "decimals"), ok, printed))
    return _report(
        "reference-tables",
        cells,
        precision=prec,
        tolerance="exact rational equality; constants to 19 decimals",
        started=started,
    )


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

_Runner = Callable[[tuple[int, int] | None, int], VerifyReport]


def _exact_suite(
    family: IdentityFamily, cell_fn, n_min: int, inner: int | None, default_range
) -> tuple[IdentityFamily, _Runner]:
    """An exact family's registry entry.

    The grid is n over the inclusive range (``default_range`` unless one is
    given) clipped below at ``n_min``; with an ``inner`` offset each n
    expands to the cells (n, j) for 0 <= j <= n + inner, otherwise to (n,).
    A range that holds no n raises :class:`DomainError` rather than passing
    with no cells.
    """

    def run(n_range, prec):
        lo, hi = n_range if n_range is not None else default_range
        started = time.perf_counter()
        ns = range(max(n_min, lo), hi + 1)
        if not ns:
            raise DomainError(
                f"{family.value}: range {lo}..{hi} holds no n >= {n_min}"
            )
        if inner is None:
            grid = [(n,) for n in ns]
        else:
            grid = [(n, j) for n in ns for j in range(n + inner + 1)]
        return _report(family.value, [cell_fn(p) for p in grid], started=started)

    return family, run


def _coupled_suite(prec: int) -> VerifyReport:
    """The coupled-series identities at s = 2, 4, 6 as one report."""
    parts = [check_coupled(s, truncation=30, prec=prec) for s in (2, 4, 6)]
    return replace(
        parts[0],
        cells=[cell for part in parts for cell in part.cells],
        elapsed_seconds=sum(part.elapsed_seconds for part in parts),
    )


#: The one suite registry, in ``verify all`` order.  Exact families take an
#: inclusive n-range (default sized to stay inside desk scale); the numeric
#: suites use their own grids, except that cross-rep reads n_max from it.
SUITES: dict[IdentityFamily, _Runner] = dict(
    [
        _exact_suite(IdentityFamily.ALT_BINOM_ODD, _alt_binom_odd_cell, 1, 0, (1, 25)),
        _exact_suite(IdentityFamily.ALT_BINOM_EVEN, _alt_binom_even_cell, 1, 0, (1, 25)),
        _exact_suite(IdentityFamily.C_ODD_POWER, _c_odd_power_cell, 1, 0, (1, 25)),
        _exact_suite(IdentityFamily.EULERIAN_A_SUM, _eulerian_a_cell, 1, 0, (1, 25)),
        _exact_suite(IdentityFamily.EULERIAN_B_SUM, _eulerian_b_cell, 1, 0, (1, 25)),
        _exact_suite(IdentityFamily.BINOM_COSH_SUM, _binom_cosh_cell, 1, 0, (1, 25)),
        _exact_suite(IdentityFamily.VANISHING, _vanishing_cell, 1, -1, (1, 20)),
        _exact_suite(IdentityFamily.ETA_COEFF, _eta_coeff_cell, 1, None, (1, 50)),
        _exact_suite(IdentityFamily.ZETA2_COEFF, _zeta2_coeff_cell, 2, None, (2, 25)),
        _exact_suite(IdentityFamily.D_IDENTITY, _d_identity_cell, 0, None, (0, 15)),
        _exact_suite(IdentityFamily.EULER_BERNOULLI, _euler_bernoulli_cell, 1, -1, (1, 15)),
        (IdentityFamily.BOUNDS, lambda n_range, prec: check_bounds(prec=prec)),
        (IdentityFamily.COUPLED_SERIES, lambda n_range, prec: _coupled_suite(prec)),
        (
            IdentityFamily.ASYMPTOTIC,
            lambda n_range, prec: check_asymptotic_constants(prec=prec),
        ),
        (
            IdentityFamily.CROSS_REP,
            lambda n_range, prec: check_cross_representation(
                n_max=n_range[1] if n_range is not None else 6, prec=prec
            ),
        ),
        (IdentityFamily.EVEN_RELATIONS, lambda n_range, prec: check_even_argument_relations()),
    ]
)


def run_identity(
    family: IdentityFamily | str,
    n_range: tuple[int, int] | None = None,
    prec: int = 30,
) -> VerifyReport:
    """Run one registered suite; ``n_range`` is ignored by suites without one."""
    return SUITES[IdentityFamily(family)](n_range, prec)


def all_suites(prec: int = 30) -> list[VerifyReport]:
    """Every registered suite at its default range, then the reference tables."""
    reports = [run_identity(family, prec=prec) for family in SUITES]
    reports.append(reproduce_reference_tables(prec=prec))
    return reports
