"""Identity suites and numeric consistency checks.

The exact suites evaluate combinatorial identities in rational arithmetic
and compare against their stated closed values -- no floats anywhere; the
even-argument relations are one of them.  The numeric suites (bounds,
coupled series, asymptotic constants, cross representation, reference
tables) declare a working precision and tolerance in their reports, refuse
a precision below :data:`MIN_PREC`, and set the mpmath precision only
through ``lfuncs._working``: the one lock on the global context, at
``lfuncs.GUARD_DIGITS`` digits above the suite's precision.  A numeric
suite that integrates Phi states its grid once and sends it to
``quad_phi_many`` as one batch; its cells read the results that batch
returned by (which, s), and what they share (the coupled series' weights
and tail bounds, the parsed bounds grid) is computed once per suite.

Every suite is a lazy source of :class:`CellResult` values (an exact suite
draws them from a row source that yields the cells of one n at a time), and
one builder, ``_build``, turns a source into a :class:`VerifyReport`: it
refuses a numeric suite's precision below :data:`MIN_PREC` before any cell
runs, then draws the cells under one timer.  Every suite is named by one
:class:`IdentityFamily` member (from :mod:`arcmellin.suites`, which the
CLI parser reads without loading this module) and dispatched through
:data:`SUITES`, which maps it to a runner ``(n_range, prec)``;
:func:`run_identity` looks one up and :func:`all_suites` runs them all in
registry order, the reference tables last.  Cells are ordered by
parameter tuple, so reports are deterministic for fixed inputs; wall-clock
timing is carried on the object but excluded from the canonical JSON.
"""

from __future__ import annotations

import json
import math
import operator
import time
from collections.abc import Callable, Iterable
from fractions import Fraction
from typing import NamedTuple

from mpmath import mp, mpf

from . import catalog
from .closedform import (
    ClosedForm,
    _ln_pi_row,
    beta_even_ratio,
    eta_prime_neg_symbol,
    log_integral_even_cosh,
    log_integral_odd_cosh,
    phi_even_closed_form,
    phi_odd_closed_form,
    sinh_over_z_integral,
    zeta_odd_ratio,
    zeta_prime_ratio,
)
from .exact import DomainError, _check_int, bernoulli, binomial, eulerian
from .lfuncs import _working, eval_closed_form, mellin_bound_gamma_ratio, phi1_bounds
from .quadrature import quad_c_constant, quad_phi_many
from .series import _cosh_moments, _dot, _egf_weights, _kernel_coeff, _x_over_sinh_row
from .suites import IdentityFamily


class CellResult(NamedTuple):
    params: tuple
    ok: bool
    detail: str = ""


class VerifyReport:
    """One suite's cells, with its working precision and tolerance; the
    wall-clock ``elapsed_seconds`` is kept off the canonical JSON."""

    __slots__ = ("family", "cells", "precision", "tolerance", "elapsed_seconds")

    def __init__(
        self,
        family: str,
        cells: list[CellResult] | None = None,
        precision: int | None = None,
        tolerance: str | None = None,
        elapsed_seconds: float = 0.0,
    ) -> None:
        self.family = family
        self.cells = [] if cells is None else cells
        self.precision = precision
        self.tolerance = tolerance
        self.elapsed_seconds = elapsed_seconds

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"VerifyReport({fields})"

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


#: The lowest precision at which every numeric suite can pass on correct
#: code.  Below it the bounds margin 1e-(prec-10) stops being small against
#: the gaps it guards, the 19-decimal prefix checks ask for more digits than
#: were computed, and the cross-rep tolerance 1e-(prec-5) loosens toward 1.
MIN_PREC = 12


def _build(
    family: str,
    cells: Iterable[CellResult],
    tolerance: Callable[[], str] | None = None,
    prec: int | None = None,
) -> VerifyReport:
    """The one report builder.  A numeric suite passes its ``prec``, which
    is refused unless an int >= :data:`MIN_PREC` before any cell runs; a
    ``tolerance`` is a function that states the report's tolerance, called
    only once ``prec`` is checked.  The lazy ``cells`` are then drawn under
    one timer, and a suite that yields none raises :class:`DomainError`
    rather than passing."""
    if prec is not None:
        _check_int("prec", prec, MIN_PREC)
    started = time.perf_counter()
    cells = list(cells)
    if not cells:
        raise DomainError(f"{family}: the inputs give no cells")
    return VerifyReport(family, cells, prec, tolerance and tolerance(), time.perf_counter() - started)


# ---------------------------------------------------------------------------
# exact identity families: one row of cells per n
# ---------------------------------------------------------------------------
#
# Each exact family is a row source: ``row(n)`` yields the cells of one n in
# order, (n, j) for the two-index families and (n,) otherwise, and computes
# what its cells share once.  The alternating binomial rows take every power
# from one weight vector multiplied by the squares per j (``_even_moments``).
# The kernel rows sum in integers: with c the coefficients of (x/sinh x)^e, a
# sum of c[2j-2i] / (2i)! * moment[i] over integer moments is
# ``_kernel_coeff(e, moments, j)``.  At j = n its convolution weights
# C(2n, 2i) row[n-i] are built once per n (``_kernel_weights``) and dotted
# with each cell's moments, one Fraction per cell; the Eulerian rows read one
# moments list per n at every j.  These rows are the only readers of
# ``_kernel_coeff``: the closed forms take the same convolutions, with the
# cosh moments, as integer numerators from ``closedform._log_residues``.

def _even_moments(terms, count: int) -> list[int]:
    """[sum_k w_k x_k^{2r} for r < count] for ``terms`` = [(w_k, x_k)]."""
    weights = [w for w, _ in terms]
    squares = [x * x for _, x in terms]
    moments = []
    for _ in range(count):
        moments.append(sum(weights))
        weights = list(map(operator.mul, weights, squares))
    return moments


def _kernel_weights(power: int, n: int) -> tuple[list[int], int]:
    """(v, den) with ``_kernel_coeff(power, m, n)`` = sum_i v[i] m[i] / den
    for any n + 1 integer moments m."""
    denom, row = _x_over_sinh_row(power, 2 * n)
    return _egf_weights(row, n), denom * math.factorial(2 * n)


def _alt_binom_odd_row(n: int):
    # sum_k (-1)^k C(2n+1, k) (2n+1-2k)^{2j+1} for j = 0..n
    terms = [
        ((-1) ** k * math.comb(2 * n + 1, k) * (2 * n + 1 - 2 * k), 2 * n + 1 - 2 * k)
        for k in range(n + 1)
    ]
    for j, lhs in enumerate(_even_moments(terms, n + 1)):
        rhs = 4**n * math.factorial(2 * n + 1) if j == n else 0
        yield CellResult((n, j), lhs == rhs, f"lhs={lhs}")


def _alt_binom_even_row(n: int):
    # sum_{k<n} (-1)^k C(2n, k) (2n-2k)^{2j} for j = 0..n.  The half-range
    # sum at j = 0 equals (-1)^{n+1} C(2n,n) / 2: pairing k <-> 2n-k halves
    # the full alternating sum around the central term, the same halving that
    # gives the j = n value 4^n (2n)! / 2.
    terms = [((-1) ** k * math.comb(2 * n, k), 2 * n - 2 * k) for k in range(n)]
    for j, lhs in enumerate(_even_moments(terms, n + 1)):
        if j == 0:
            rhs = Fraction((-1) ** (n + 1) * binomial(2 * n, n), 2)
        elif j == n:
            rhs = Fraction(4**n * math.factorial(2 * n), 2)
        else:
            rhs = 0
        yield CellResult((n, j), lhs == rhs, f"lhs={lhs}")


def _c_odd_power_row(n: int):
    # sum_m c[2m] (2k+1)^{2n-2m} / (2n-2m)!,  c = (x/sinh x)^{2n+1}, for
    # k = 0..n: the moments (2k+1)^{2i} enter by Horner's rule in (2k+1)^2
    weights, den = _kernel_weights(2 * n + 1, n)
    for k in range(n + 1):
        square, acc = (2 * k + 1) ** 2, 0
        for w in reversed(weights):
            acc = acc * square + w
        lhs = Fraction(acc, den)
        yield CellResult((n, k), lhs == (4**n if k == n else 0), f"lhs={lhs}")


def _eulerian_moments(kind: str, n: int) -> list[int]:
    """sum_k E(kind, k) (2n-1-2k)^{2r} for r = 0..n over the Eulerian row of
    order 2n (kind "A") or 2n-1 (kind "B")."""
    order = 2 * n if kind == "A" else 2 * n - 1
    return _even_moments([(eulerian(kind, order, k), 2 * n - 1 - 2 * k) for k in range(n)], n + 1)


def _eulerian_a_row(n: int):
    # sum_r c[2n-2p-2r] / (2r)! sum_k A(2n, n-1-k) (2k+1)^{2r},  c = (x/sinh x)^{2n+1}
    moments = _eulerian_moments("A", n)
    for p in range(n + 1):
        lhs = _kernel_coeff(2 * n + 1, moments, n - p)
        rhs = Fraction(math.factorial(2 * n), 2) if p == n else 0
        yield CellResult((n, p), lhs == rhs, f"lhs={lhs}")


def _eulerian_b_row(n: int):
    # sum_m d[2n-2p-2m] / (2m)! sum_k B(2n-1, k) (2n-1-2k)^{2m},  d = (x/sinh x)^{2n}
    moments = _eulerian_moments("B", n)
    for p in range(n + 1):
        lhs = _kernel_coeff(2 * n, moments, n - p)
        if p == 0:
            rhs = Fraction(2 ** (2 * n - 2) * (2 ** (2 * n - 1) - 1)) * bernoulli(2 * n) / n
        elif p == n:
            rhs = 2 ** (2 * n - 2) * math.factorial(2 * n - 1)
        else:
            rhs = 0
        yield CellResult((n, p), lhs == rhs, f"lhs={lhs}")


def _binom_cosh_row(n: int):
    # sum_m c[2n-2m] / (2m)! M(q, m),  c = (x/sinh x)^{2n+1}, M = _cosh_moments,
    # for q = 0..n
    weights, den = _kernel_weights(2 * n + 1, n)
    for q in range(n + 1):
        lhs = Fraction(_dot(weights, _cosh_moments(q, n + 1)), den)
        yield CellResult((n, q), lhs == (4**n if q == n else 0), f"lhs={lhs}")


def _vanishing_row(n: int):
    # the binom-cosh sum over 4^q for q = 0..n-1; at q = n - 1 it is the
    # lambda(1) coefficient that phi_even_closed_form(1, n) requires to vanish
    weights, den = _kernel_weights(2 * n + 1, n)
    for q in range(n):
        lhs = Fraction(_dot(weights, _cosh_moments(q, n + 1)), 4**q * den)
        yield CellResult((n, q), lhs == 0, f"lhs={lhs}")


def _eta_coeff_row(n: int):
    lead = phi_odd_closed_form(1, n).coefficient(eta_prime_neg_symbol(0))
    yield CellResult((n,), lead == Fraction(4, 2 * n + 1), f"coeff={lead}")


def _zeta2_coeff_row(n: int):
    coeff = sinh_over_z_integral(n - 1, 2 * n).coefficient(zeta_prime_ratio(0))
    yield CellResult((n,), coeff == Fraction(-6, 2 * n - 1), f"coeff={coeff}")


def _d_identity_row(n: int):
    # sum_m d[2m] / (2n-2m)! sum_k C(4n+2, 2n-2k) (2k+1)^{2n-2m},  d = (x/sinh x)^{2n+2}
    terms = [(binomial(4 * n + 2, 2 * n - 2 * k), 2 * k + 1) for k in range(n + 1)]
    lhs = _kernel_coeff(2 * n + 2, _even_moments(terms, n + 1), n)
    yield CellResult((n,), lhs == Fraction(4**n, 2 * n + 1), f"lhs={lhs}")


def _euler_bernoulli_row(n: int):
    # Both beta-integral evaluations of int_0^oo sinh^{2q+1}/cosh^N dz for
    # q = 0..n-1: it is (-1)^{q+n+1} times the ln(pi) coefficient of the log
    # integral over the same cosh^N, the value the production forms emit
    # (tangent numbers for N = 2n+1, Euler numbers for N = 2n), here for
    # every q of the row from one weight vector per N, with no form built.
    odd_lines, even_lines = _ln_pi_row(True, n), _ln_pi_row(False, n)
    for q in range(n):
        sign = (-1) ** (q + n + 1)
        line1 = sign * odd_lines[q]
        rhs1 = Fraction(sign, 2) * Fraction(
            math.factorial(q) * math.factorial(n - q - 1), math.factorial(n)
        )
        line2 = sign * even_lines[q]
        rhs2 = sign * Fraction(
            2 ** (2 * q + 1)
            * math.factorial(q)
            * math.factorial(n)
            * math.factorial(2 * n - 2 * q - 2),
            math.factorial(n - q - 1) * math.factorial(2 * n),
        )
        ok = line1 == rhs1 and line2 == rhs2
        yield CellResult((n, q), ok, f"line1={line1}, line2={line2}")


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
    return _build(
        IdentityFamily.EVEN_RELATIONS.value,
        map(_even_relation_cell, catalog.EVEN_ARGUMENT_RELATIONS),
        lambda: "exact rational equality",
    )


# ---------------------------------------------------------------------------
# numeric suites
# ---------------------------------------------------------------------------

DEFAULT_BOUNDS_GRID = ("1.01", "1.1", "1.5", "2", "3", "5", "10", "25")


def _phi_batch(requests: list[tuple], prec: int) -> dict:
    """{(which, s): QuadResult} for the Phi ``requests``, from one
    ``quad_phi_many`` batch; a numeric suite's cells read this, so a cell
    its grid misses raises :class:`KeyError`."""
    return dict(zip(requests, quad_phi_many(requests, prec)))


def check_bounds(s_grid=DEFAULT_BOUNDS_GRID, prec: int = 30) -> VerifyReport:
    """Strict two-sided bounds for both transforms on a grid of s > 1.

    Phi_1 is checked against 2/(s^2-1) < Phi_1(s) < 1/(s-1) and Phi_2
    against the Gamma-ratio enclosure; strictness demands a margin of
    10^{-(prec-10)} on each side.  An empty grid raises
    :class:`DomainError`.
    """

    def cells():
        margin = mpf(10) ** (-(prec - 10))
        grid = [(str(s), Fraction(str(s))) for s in s_grid]
        phi = _phi_batch([(which, sf) for _, sf in grid for which in (1, 2)], prec)
        for s, sf in grid:
            for which, bounds in ((1, phi1_bounds), (2, mellin_bound_gamma_ratio)):
                lo, hi = bounds(sf, prec)
                v = phi[which, sf].value
                ok = (v - lo) > margin and (hi - v) > margin
                with _working(prec):
                    detail = " < ".join(mp.nstr(x, prec) for x in (lo, v, hi))
                yield CellResult((s, f"phi{which}"), ok, detail)

    return _build(
        IdentityFamily.BOUNDS.value, cells(), lambda: f"strict with margin 1e-{prec - 10}", prec
    )


def coupled_tail_bound(direction: int, truncation: int) -> mpf:
    """Upper bound on the dropped tail of the coupled-series identities.

    direction=2 bounds sum_{n>=T} C(2n,n) 4^{-n} Phi_1(s+2n) via
    C(2n,n) 4^{-n} <= 1/sqrt(pi n) and Phi_1(o) < 1/(o-1) < 1/(2n);
    direction=1 bounds the Phi_2 tail, additionally using Gautschi's
    inequality Gamma((o-1)/2)/Gamma(o/2) < sqrt(2/(o-2)).
    """
    _check_int("direction", direction, 1, 2)
    _check_int("truncation", truncation, 1)
    t = mpf(truncation)
    if direction == 2:
        return (t ** mpf("-1.5") + 2 / mp.sqrt(t)) / (2 * mp.sqrt(mp.pi))
    return (1 / (t * t) + 1 / t) / mp.sqrt(2)


def check_coupled(s, truncation: int = 30, prec: int = 30) -> VerifyReport:
    """Truncated coupled-series identities with rigorous tail bounds.

    Checks  Phi_2(s) = sum_{n<T} C(2n,n) 4^{-n} Phi_1(s+2n) + tail  and
    Phi_1(s) = -sum_{n<T} C(2n,n)/(4^n (2n-1)) Phi_2(s+2n) + tail (the n=0
    term of the second identity enters with +Phi_2(s) since 2n-1 = -1),
    requiring each residual to fall below its tail bound.  A truncation
    that is not an int >= 1 raises :class:`DomainError` before any integral.
    """
    return _coupled((s,), truncation, prec)


def _coupled(svals, truncation: int, prec: int) -> VerifyReport:
    """The coupled-series cells of each s in ``svals``, in turn, as one report."""

    def cells():
        _check_int("truncation", truncation, 1)
        grid = [Fraction(str(s)) for s in svals]
        for s, sf in zip(svals, grid):
            if not sf > 1:
                raise DomainError(f"coupled series require s > 1, got {s}")
        phi = _phi_batch(
            [(which, sf + 2 * n) for sf in grid for n in range(truncation) for which in (1, 2)], prec
        )
        with _working(prec):
            weights = [mpf(binomial(2 * n, n)) / mpf(4) ** n for n in range(truncation)]
            bound2 = coupled_tail_bound(2, truncation)
            bound1 = coupled_tail_bound(1, truncation)
        for s, sf in zip(svals, grid):
            with _working(prec):
                acc2 = acc1 = mpf(0)
                for n, weight in enumerate(weights):
                    acc2 += weight * phi[1, sf + 2 * n].value
                    acc1 -= weight / (2 * n - 1) * phi[2, sf + 2 * n].value
                residual2 = abs(phi[2, sf].value - acc2)
                residual1 = abs(phi[1, sf].value - acc1)
            for name, residual, bound in (
                ("phi2-from-phi1", residual2, bound2),
                ("phi1-from-phi2", residual1, bound1),
            ):
                yield CellResult(
                    (str(s), name, truncation),
                    residual < bound,
                    f"residual={mp.nstr(residual, 6)} bound={mp.nstr(bound, 6)}",
                )

    tolerance = "residual below analytic tail bound"
    return _build(IdentityFamily.COUPLED_SERIES.value, cells(), lambda: tolerance, prec)


def _prefix_matches(printed: str, *values: mpf) -> bool:
    # each value within one unit in the last printed decimal place, at
    # decimals + 25 digits
    decimals = len(printed.split(".")[1])
    with _working(decimals + 10):
        return all(abs(value - mpf(printed)) < mpf(10) ** (-decimals) for value in values)


def _constants(prec: int):
    """(which, quadrature value, closed-form value, printed decimals) of C1,
    then of C2."""
    for which, form, printed in (
        (1, catalog.C1_CLOSED_FORM, catalog.C1_DECIMAL),
        (2, catalog.C2_CLOSED_FORM, catalog.C2_DECIMAL),
    ):
        yield which, quad_c_constant(which, prec).value, eval_closed_form(form, prec), printed


def check_asymptotic_constants(prec: int = 30) -> VerifyReport:
    """The s -> 1+ expansion constants of both transforms.

    Verifies quadrature against the closed forms and the published 19-digit
    decimals, and that Phi_which(1+eps) - 1/eps approaches the constant at
    the rate O(eps): with eps = 10^{-k} for k = 1 .. 6 the errors e_k must
    fall, and |e_k| <= 10^{-k} for every k <= min(6, (prec-1)//2).  Measured,
    10^k |e_k| is about 0.09 for Phi_1 and 0.055 for Phi_2; the cap on k
    keeps the error of Phi(1+10^{-k}) itself, about 10^{k-prec}, below a
    tenth of the bound.
    """

    def cells():
        tol = mpf(10) ** (-(prec - 5))
        eps = [Fraction(1, 10**k) for k in range(1, 7)]
        phi = _phi_batch([(which, 1 + e) for which in (1, 2) for e in eps], prec)
        for which, quad_val, closed_val, printed in _constants(prec):
            yield CellResult(
                (f"C{which}", "closed-vs-quad"),
                abs(quad_val - closed_val) < tol,
                f"quad={mp.nstr(quad_val, prec)} closed={mp.nstr(closed_val, prec)}",
            )
            yield CellResult(
                (f"C{which}", "printed-prefix"),
                _prefix_matches(printed, quad_val, closed_val),
                f"printed={printed}",
            )
            with _working(prec):
                errors = [
                    abs(phi[which, 1 + e].value - mpf(10) ** k - closed_val)
                    for k, e in enumerate(eps, 1)
                ]
                trend_ok = all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
                rate_ok = all(
                    errors[k - 1] <= mpf(10) ** -k for k in range(1, min(6, (prec - 1) // 2) + 1)
                )
                ok = trend_ok and rate_ok
            yield CellResult(
                (f"C{which}", "limit-trend"),
                ok,
                "errors=" + ", ".join(mp.nstr(e, 3) for e in errors),
            )

    return _build(
        "asymptotic-constants", cells(), lambda: f"1e-{prec - 5}; printed prefix to 19 decimals", prec
    )


def check_cross_representation(n_max: int = 6, prec: int = 30) -> VerifyReport:
    """Mellin values at s = 2n+1 through three routes, and at s = 2m through two.

    For each n and each transform: the negative-argument derivative form,
    the positive-argument derivative form assembled through the sinh/z
    bridge, and direct quadrature must agree pairwise to 10^{-(prec-5)}.
    Agreement validates the differentiated reflection formulas numerically.
    Then, in cells ("phi-even", which, m) for m = 1..n_max, the exact
    even-argument form must agree with quadrature to the same tolerance.
    Raises :class:`DomainError` for an ``n_max`` that is not an int >= 1.
    """

    def cells():
        _check_int("n_max", n_max, 1)
        tol = mpf(10) ** (-(prec - 5))
        svals = [s for n in range(1, n_max + 1) for s in (2 * n + 1, 2 * n)]
        phi = _phi_batch([(which, s) for s in svals for which in (1, 2)], prec)
        for n in range(1, n_max + 1):
            for which in (1, 2):
                neg_form = eval_closed_form(phi_odd_closed_form(which, n), prec)
                q, big_n = catalog.phi_odd_as_sinh_over_z(which, n)
                pos_form = eval_closed_form(sinh_over_z_integral(q, big_n), prec)
                quad_val = phi[which, 2 * n + 1].value
                spread = max(
                    abs(neg_form - pos_form),
                    abs(neg_form - quad_val),
                    abs(pos_form - quad_val),
                )
                yield CellResult((which, n), spread < tol, f"spread={mp.nstr(spread, 3)}")
        for m in range(1, n_max + 1):
            for which in (1, 2):
                exact = eval_closed_form(phi_even_closed_form(which, m), prec)
                gap = abs(exact - phi[which, 2 * m].value)
                yield CellResult(("phi-even", which, m), gap < tol, f"gap={mp.nstr(gap, 3)}")

    return _build(IdentityFamily.CROSS_REP.value, cells(), lambda: f"1e-{prec - 5}", prec)


# ---------------------------------------------------------------------------
# reference-table reproduction
# ---------------------------------------------------------------------------

def reproduce_reference_tables(prec: int = 30) -> VerifyReport:
    """Re-derive every cataloged closed form and compare exactly; then check
    the two asymptotic constants against their published decimal prefixes."""

    def cells():
        for name, table, build in (
            ("log-odd", catalog.LOG_ODD_COSH, log_integral_odd_cosh),
            ("log-even", catalog.LOG_EVEN_COSH, log_integral_even_cosh),
            ("sinh-over-z", catalog.SINH_OVER_Z, sinh_over_z_integral),
            ("phi-odd", catalog.PHI_ODD, phi_odd_closed_form),
        ):
            for key, expected in sorted(table.items()):
                got = build(*key)
                yield CellResult((name, *key), got == expected, got.latex())
        for which, quad_val, closed_val, printed in _constants(prec):
            ok = _prefix_matches(printed, quad_val, closed_val)
            yield CellResult((f"C{which}", "decimals"), ok, printed)

    tolerance = "exact rational equality; constants to 19 decimals"
    return _build(IdentityFamily.REFERENCE_TABLES.value, cells(), lambda: tolerance, prec)


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

_Runner = Callable[[tuple[int, int] | None, int], VerifyReport]


def _exact_suite(
    family: IdentityFamily, row: Callable[[int], Iterable[CellResult]], n_min: int, default_range
) -> tuple[IdentityFamily, _Runner]:
    """An exact family's registry entry.

    The grid is n over the inclusive range (``default_range`` unless one is
    given) clipped below at ``n_min``, and ``row(n)`` yields the cells of
    each n in turn, from one pass that computes what they share.  A range
    that holds no n raises :class:`DomainError` rather than passing with no
    cells.
    """

    def cells(n_range):
        lo, hi = n_range if n_range is not None else default_range
        ns = range(max(n_min, lo), hi + 1)
        if not ns:
            raise DomainError(
                f"{family.value}: range {lo}..{hi} holds no n >= {n_min}"
            )
        for n in ns:
            yield from row(n)

    return family, lambda n_range, prec: _build(family.value, cells(n_range))


#: The one suite registry, in ``verify all`` order.  Exact families take an
#: inclusive n-range (default sized to stay inside desk scale); the numeric
#: suites use their own grids, except that cross-rep reads n_max from it
#: (6 without one).
SUITES: dict[IdentityFamily, _Runner] = dict(
    [
        _exact_suite(IdentityFamily.ALT_BINOM_ODD, _alt_binom_odd_row, 1, (1, 25)),
        _exact_suite(IdentityFamily.ALT_BINOM_EVEN, _alt_binom_even_row, 1, (1, 25)),
        _exact_suite(IdentityFamily.C_ODD_POWER, _c_odd_power_row, 1, (1, 25)),
        _exact_suite(IdentityFamily.EULERIAN_A_SUM, _eulerian_a_row, 1, (1, 25)),
        _exact_suite(IdentityFamily.EULERIAN_B_SUM, _eulerian_b_row, 1, (1, 25)),
        _exact_suite(IdentityFamily.BINOM_COSH_SUM, _binom_cosh_row, 1, (1, 25)),
        _exact_suite(IdentityFamily.VANISHING, _vanishing_row, 1, (1, 20)),
        _exact_suite(IdentityFamily.ETA_COEFF, _eta_coeff_row, 1, (1, 50)),
        _exact_suite(IdentityFamily.ZETA2_COEFF, _zeta2_coeff_row, 2, (2, 25)),
        _exact_suite(IdentityFamily.D_IDENTITY, _d_identity_row, 0, (0, 15)),
        _exact_suite(IdentityFamily.EULER_BERNOULLI, _euler_bernoulli_row, 1, (1, 15)),
        (IdentityFamily.BOUNDS, lambda n_range, prec: check_bounds(prec=prec)),
        (IdentityFamily.COUPLED_SERIES, lambda n_range, prec: _coupled((2, 4, 6), 30, prec)),
        (IdentityFamily.ASYMPTOTIC, lambda n_range, prec: check_asymptotic_constants(prec)),
        (
            IdentityFamily.CROSS_REP,
            lambda n_range, prec: check_cross_representation(n_range[1] if n_range else 6, prec),
        ),
        (IdentityFamily.EVEN_RELATIONS, lambda n_range, prec: check_even_argument_relations()),
        (IdentityFamily.REFERENCE_TABLES, lambda n_range, prec: reproduce_reference_tables(prec)),
    ]
)


def run_identity(
    family: IdentityFamily | str,
    n_range: tuple[int, int] | None = None,
    prec: int = 30,
) -> VerifyReport:
    """Run one registered suite; a non-empty ``n_range`` is ignored by suites
    without one, and an empty one raises :class:`DomainError` for every
    suite, before any cell.  So do bounds of the range that are not ints
    and a ``prec`` that is not an int >= 1 (an exact suite reads no
    ``prec``; a numeric one needs :data:`MIN_PREC`)."""
    family = IdentityFamily(family)
    _check_int("prec", prec, 1)
    for end in n_range or ():
        _check_int("n_range bound", end, None)
    if n_range is not None and n_range[0] > n_range[1]:
        raise DomainError(f"{family.value}: range {n_range[0]}..{n_range[1]} holds no n")
    return SUITES[family](n_range, prec)


def all_suites(prec: int = 30, n_range: tuple[int, int] | None = None) -> list[VerifyReport]:
    """Every registered suite in registry order, each run by
    :func:`run_identity` over ``n_range`` (its default range without one).
    A ``prec`` that some suite refuses is refused before any suite runs,
    and so is a range whose start is past its end, by the first suite's
    check."""
    _check_int("prec", prec, MIN_PREC)
    return [run_identity(family, n_range, prec) for family in SUITES]
