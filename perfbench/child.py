"""One benchmark sample: run a workload in this fresh process and check it.

Reads a JSON request ``{"workload", "inputs", "trace", "spans_path"}`` on
stdin and prints one JSON result line on stdout.  Each workload has a run
phase, which is the work a user waits for (traced when asked), and a check
phase that compares the outputs against independent routes.  Layer functions
are called through their module attributes so that the tracer's wrappers see
them; the check phase uses its own bindings, made before any wrapping.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import statistics
import sys
from fractions import Fraction

from arcmellin import catalog, closedform, cli, lfuncs, quadrature, verify
from arcmellin.closedform import LN2, LNPI, ONE, ClosedForm, beta_prime_ratio, zeta_prime_ratio
from arcmellin.exact import bernoulli, euler_number, harmonic
from mpmath import mp

#: A passing exact rational comparison agrees to every digit; it reports the
#: largest precision the package evaluates at (a failing one reports 0).
EXACT_AGREEMENT_DIGITS = 1000.0
#: Each numeric route is accurate to its requested precision plus guard
#: digits, so agreement is capped where the working digits run out.
GUARD_DIGITS = 15


class Checks:
    """Counts of attempted and failed checks, with numeric agreement."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digits: list[float] = []
        self.est_over_true: list[float] = []

    def exact(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok
        self.digits.append(EXACT_AGREEMENT_DIGITS if ok else 0.0)

    def numeric(self, value, reference, prec: int, error_estimate=None) -> None:
        """Pass when the relative gap is at most 10^-(prec-5)."""
        with mp.workdps(prec + GUARD_DIGITS + 5):
            gap = abs(value - reference)
            rel = gap / abs(reference)
            digits = float(-mp.log10(rel)) if rel else float(prec + GUARD_DIGITS)
            if error_estimate is not None and gap:
                self.est_over_true.append(float(mp.log10(error_estimate / gap)))
        self.attempted += 1
        self.failed += not digits >= prec - 5
        self.digits.append(min(digits, prec + GUARD_DIGITS))


# ---------------------------------------------------------------------------
# verify-all: the headline CLI command
# ---------------------------------------------------------------------------

def run_verify_all(inputs):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.cli_main(inputs["argv"])
    return code, out.getvalue().splitlines()


_quad_phi, _quad_c_constant = quadrature.quad_phi, quadrature.quad_c_constant
_eval, _phi_odd = lfuncs.eval_closed_form, closedform.phi_odd_closed_form


def check_verify_all(inputs, state, checks: Checks) -> None:
    code, lines = state
    checks.exact(code == 0)
    for line in lines:
        checks.exact(": PASS (" in line)
    # Closed forms against the quadrature the suites already ran (cache hits).
    prec = inputs["prec"]
    for n in range(1, inputs["cross_rep_n_max"] + 1):
        for which in (1, 2):
            quad = _quad_phi(which, 2 * n + 1, prec)
            checks.numeric(quad.value, _eval(_phi_odd(which, n), prec), prec, quad.error_estimate)
    for which, form in ((1, catalog.C1_CLOSED_FORM), (2, catalog.C2_CLOSED_FORM)):
        quad = _quad_c_constant(which, prec)
        checks.numeric(quad.value, _eval(form, prec), prec, quad.error_estimate)


# ---------------------------------------------------------------------------
# identity-grid: exact suites and closed-form assembly, no mpmath
# ---------------------------------------------------------------------------

_FORM_BUILDERS = {
    "log-odd": "log_integral_odd_cosh",
    "log-even": "log_integral_even_cosh",
    "sinh-over-z": "sinh_over_z_integral",
}


def sinh_over_z_bridge(which: int, n: int) -> tuple[int, int]:
    """Phi_1(2n+1) and Phi_2(2n+1) as sinh^{2q}/(z cosh^N) integrals.

    Substituting x = tanh(z) turns x^{2n} dx / arctanh(x) into
    sinh^{2n}(z) / (z cosh^{2n+2}(z)) dz, and the extra sqrt(1-x^2) of
    Phi_2 removes one power of cosh.
    """
    return (n, 2 * n + 2) if which == 1 else (n, 2 * n + 1)


def run_identity_grid(inputs):
    reports = [verify.run_identity(name, n_range=tuple(rng)) for name, rng in inputs["suites"]]
    forms = []
    for point in inputs["points"]:
        family = point["family"]
        if family == "phi-odd":
            which, n = point["which"], point["n"]
            forms.append((
                closedform.phi_odd_closed_form(which, n),
                closedform.sinh_over_z_integral(*sinh_over_z_bridge(which, n)),
            ))
            continue
        build = getattr(closedform, _FORM_BUILDERS[family])
        q, n = point["q"], point["n"]
        step = 2 if family == "sinh-over-z" else 1
        # sinh^2 = cosh^2 - 1 gives F(q+1, n+step) = F(q, n) - F(q, n+step).
        forms.append((build(q + 1, n + step), build(q, n) - build(q, n + step)))
    return reports, forms


def reflect_to_positive_basis(form: ClosedForm) -> tuple[ClosedForm, Fraction]:
    """Rewrite eta'(-2i-1) and beta'(-2i) over the positive-argument basis.

    Uses the differentiated reflection formulas of zeta and beta in exact
    rationals; returns the rewritten form and its Euler-gamma coefficient,
    which a correct odd Mellin value cancels to zero.
    """
    terms: dict = {}
    gamma = Fraction(0)

    def add(symbol, c) -> None:
        terms[symbol] = terms.get(symbol, 0) + c

    for symbol, c in form.items():
        i = symbol.index
        if symbol.kind == "eta_prime_neg":
            # eta'(1-2k) = 4^k ln2 zeta(1-2k) + (1-4^k) zeta'(1-2k), k = i+1, with
            # zeta'(1-2k) = zeta(1-2k) (ln 2pi + gamma - H_{2k-1})
            #              + (-1)^{k+1} 2 (2k-1)! zeta'(2k) / (2pi)^{2k}
            k = i + 1
            zeta_neg = -bernoulli(2 * k) / (2 * k)
            b = (1 - 4**k) * zeta_neg * c
            add(LN2, 4**k * zeta_neg * c + b)
            add(LNPI, b)
            gamma += b
            add(ONE, -b * harmonic(2 * k - 1))
            sign = 1 if k % 2 else -1
            add(zeta_prime_ratio(i), c * (1 - 4**k) * sign * Fraction(2 * math.factorial(2 * k - 1), 4**k))
        elif symbol.kind == "beta_prime_neg":
            # beta'(-2i) = E_{2i}/2 (ln(pi/2) + gamma - H_{2i})
            #             - (-1)^i 2^{2i+1} (2i)! beta'(2i+1) / pi^{2i+1}
            e_half = Fraction(euler_number(2 * i), 2) * c
            add(LNPI, e_half)
            add(LN2, -e_half)
            gamma += e_half
            add(ONE, -e_half * harmonic(2 * i))
            sign = -1 if i % 2 else 1
            add(beta_prime_ratio(i), -c * sign * 2 ** (2 * i + 1) * math.factorial(2 * i))
        else:
            add(symbol, c)
    return ClosedForm((s, v) for s, v in terms.items() if v), gamma


def check_identity_grid(inputs, state, checks: Checks) -> None:
    reports, forms = state
    for report in reports:
        for cell in report.cells:
            checks.exact(cell.ok)
    for point, (left, right) in zip(inputs["points"], forms):
        if point["family"] == "phi-odd":
            left, gamma = reflect_to_positive_basis(left)
            checks.exact(gamma == 0 and left == right)
        else:
            checks.exact(left == right)


# ---------------------------------------------------------------------------
# crosscheck-100 and basis-500: two independent routes at high precision
# ---------------------------------------------------------------------------

def run_crosscheck(inputs):
    prec = inputs["prec"]
    pairs = []
    for item in inputs["integrals"]:
        family = item["family"]
        if family == "phi-odd":
            which, n = item["which"], item["n"]
            form = closedform.phi_odd_closed_form(which, n)
            quad = quadrature.quad_phi(which, 2 * n + 1, prec)
        elif family == "sinh-over-z":
            form = closedform.sinh_over_z_integral(item["q"], item["n"])
            quad = quadrature.quad_sinh_over_z(item["q"], item["n"], prec)
        else:
            q, n = item["q"], item["n"]
            odd = family == "log-odd"
            build = closedform.log_integral_odd_cosh if odd else closedform.log_integral_even_cosh
            form = build(q, n)
            quad = quadrature.quad_log_family(q, 2 * n + 1 if odd else 2 * n, prec)
        pairs.append((lfuncs.eval_closed_form(form, prec), quad))
    return pairs


def check_crosscheck(inputs, state, checks: Checks) -> None:
    for closed, quad in state:
        checks.numeric(quad.value, closed, inputs["prec"], quad.error_estimate)


def run_basis(inputs):
    prec = inputs["prec"]
    pairs = []
    for item in inputs["values"]:
        which, n = item["which"], item["n"]
        negative = closedform.phi_odd_closed_form(which, n)
        positive = closedform.sinh_over_z_integral(*sinh_over_z_bridge(which, n))
        pairs.append((lfuncs.eval_closed_form(negative, prec), lfuncs.eval_closed_form(positive, prec)))
    return pairs


def check_basis(inputs, state, checks: Checks) -> None:
    for negative, positive in state:
        checks.numeric(negative, positive, inputs["prec"])


WORKLOADS = {
    "verify-all": (run_verify_all, check_verify_all),
    "identity-grid": (run_identity_grid, check_identity_grid),
    "crosscheck-100": (run_crosscheck, check_crosscheck),
    "basis-500": (run_basis, check_basis),
}


def main() -> None:
    request = json.load(sys.stdin)
    run, check = WORKLOADS[request["workload"]]
    inputs = request["inputs"]
    tracer = None
    if request["trace"]:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    state = run(inputs)
    if tracer is not None:
        tracer.uninstall()
    checks = Checks()
    check(inputs, state, checks)
    result = {
        "attempted": checks.attempted,
        "failed": checks.failed,
        "min_agreement_digits": min(checks.digits),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["quadrature.est_over_true_digits"] = (
            statistics.median(checks.est_over_true) if checks.est_over_true else 0.0
        )
        result["layers"] = layers
        tracer.write_spans(request["spans_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
