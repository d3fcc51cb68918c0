"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else: exact rational equality
for every closed form and identity, 1e-25 at 30 working digits for every
numeric cross-check, and 19-decimal prefix agreement for the two constants.
"""

import importlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from mpmath import mp, mpf

import arcmellin

from arcmellin import (
    IdentityFamily,
    LNPI,
    check_bounds,
    check_coupled,
    check_cross_representation,
    eval_closed_form,
    eta_prime,
    eta_prime_neg,
    beta_prime_odd,
    log_integral_even_cosh,
    log_integral_odd_cosh,
    phi_even_closed_form,
    phi_odd_closed_form,
    quad_c_constant,
    quad_log_family,
    quad_phi,
    quad_sinh_over_z,
    run_identity,
    sinh_over_z_integral,
    zeta_prime_even,
)
from arcmellin import catalog
from _series_oracles import sinh_x_over_x_series


def _announce(number: int, label: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {label} ({elapsed:.2f}s)")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_worked_integral_tables():
    started = time.perf_counter()
    ok = True
    for (q, n), expected in catalog.LOG_ODD_COSH.items():
        ok = ok and log_integral_odd_cosh(q, n) == expected
    for (q, n), expected in catalog.LOG_EVEN_COSH.items():
        ok = ok and log_integral_even_cosh(q, n) == expected
    for (q, n_exp), expected in catalog.SINH_OVER_Z.items():
        ok = ok and sinh_over_z_integral(q, n_exp) == expected
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 5.0
    _announce(1, "25 worked closed forms, exact rational equality, < 5 s", ok, elapsed)


def test_criterion_2_odd_mellin_tables():
    started = time.perf_counter()
    ok = all(
        phi_odd_closed_form(which, n) == expected
        for (which, n), expected in catalog.PHI_ODD.items()
    )
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    _announce(2, "odd Mellin tables n = 1..4, both transforms, < 1 s", ok, elapsed)


def test_criterion_3_coefficient_laws():
    started = time.perf_counter()
    ok = run_identity(IdentityFamily.ETA_COEFF, n_range=(1, 50)).passed
    ok = ok and run_identity(IdentityFamily.ZETA2_COEFF, n_range=(2, 25)).passed
    ok = ok and run_identity(IdentityFamily.D_IDENTITY, n_range=(0, 15)).passed
    for n_exp in range(3, 17):
        for q in range(1, (n_exp - 1) // 2 + 1):
            ok = ok and sinh_over_z_integral(q, n_exp).coefficient(LNPI) == 0
    elapsed = time.perf_counter() - started
    _announce(
        3,
        "leading-coefficient laws and ln(pi) cancellation (N <= 16)",
        ok,
        elapsed,
    )


def test_criterion_4_identity_families():
    started = time.perf_counter()
    ok = True
    for family in (
        IdentityFamily.ALT_BINOM_ODD,
        IdentityFamily.ALT_BINOM_EVEN,
        IdentityFamily.C_ODD_POWER,
        IdentityFamily.EULERIAN_A_SUM,
        IdentityFamily.EULERIAN_B_SUM,
        IdentityFamily.BINOM_COSH_SUM,
    ):
        report = run_identity(family, n_range=(1, 25))
        ok = ok and report.passed
        ok = ok and report.elapsed_seconds < len(report.cells) * 1.0
    ok = ok and run_identity(IdentityFamily.VANISHING, n_range=(1, 20)).passed
    ok = ok and run_identity(IdentityFamily.EULER_BERNOULLI, n_range=(1, 15)).passed
    elapsed = time.perf_counter() - started
    _announce(4, "six identity families n <= 25, vanishing n <= 20, both beta-integral lines n <= 15", ok, elapsed)


def test_criterion_5_numeric_cross_check_sweep():
    started = time.perf_counter()
    prec, tol = 30, mpf(10) ** -25
    worst = mpf(0)
    count = 0
    for n in range(1, 6):  # cosh exponents 3..11
        for q in range(n):
            diff = abs(
                eval_closed_form(log_integral_odd_cosh(q, n), prec)
                - quad_log_family(q, 2 * n + 1, prec).value
            )
            worst = max(worst, diff)
            count += 1
    for n in range(1, 7):  # cosh exponents 2..12
        for q in range(n):
            diff = abs(
                eval_closed_form(log_integral_even_cosh(q, n), prec)
                - quad_log_family(q, 2 * n, prec).value
            )
            worst = max(worst, diff)
            count += 1
    for n_exp in range(3, 13):
        for q in range(1, (n_exp - 1) // 2 + 1):
            diff = abs(
                eval_closed_form(sinh_over_z_integral(q, n_exp), prec)
                - quad_sinh_over_z(q, n_exp, prec).value
            )
            worst = max(worst, diff)
            count += 1
    elapsed = time.perf_counter() - started
    ok = worst < tol and elapsed < 600 and count == 66
    _announce(
        5,
        f"{count} instances |closed - quadrature| < 1e-25 (worst {mp.nstr(worst, 3)})",
        ok,
        elapsed,
    )


def test_criterion_6_cross_representation():
    started = time.perf_counter()
    report = check_cross_representation(n_max=6, prec=30)
    elapsed = time.perf_counter() - started
    _announce(6, "negative-argument vs positive-argument vs quadrature, n <= 6", report.passed, elapsed)


def test_criterion_7_asymptotic_constants():
    started = time.perf_counter()
    ok = True
    for which, form, printed in (
        (1, catalog.C1_CLOSED_FORM, catalog.C1_DECIMAL),
        (2, catalog.C2_CLOSED_FORM, catalog.C2_DECIMAL),
    ):
        quad = quad_c_constant(which, 30).value
        closed = eval_closed_form(form, 30)
        with mp.workdps(45):
            ok = ok and abs(quad - mpf(printed)) < mpf(10) ** -19
            ok = ok and abs(closed - mpf(printed)) < mpf(10) ** -19
    elapsed = time.perf_counter() - started
    _announce(7, "C1/C2 match the printed 19 decimals from both routes", ok, elapsed)


def test_criterion_8_bounds_and_coupled_series():
    started = time.perf_counter()
    ok = check_bounds(prec=30).passed  # default grid 1.01 .. 25
    for s in (2, 4, 6):
        ok = ok and check_coupled(s, truncation=30, prec=30).passed
    elapsed = time.perf_counter() - started
    _announce(8, "strict bounds on the s-grid; coupled residuals under tail bounds", ok, elapsed)


def test_criterion_9_property_suites():
    started = time.perf_counter()
    ok = True
    # series dual path: production coefficients vs reciprocal-of-power
    from arcmellin import x_over_sinh_coeffs

    for power in (3, 8, 17):
        base = sinh_x_over_x_series(20)
        ok = ok and x_over_sinh_coeffs(power, 20) == base.pow(power).reciprocal().coeffs
    # precision monotonicity of the basis evaluators
    for fn in (
        lambda p: eta_prime(2, p),
        lambda p: beta_prime_odd(0, p),
        lambda p: zeta_prime_even(1, p),
        lambda p: eta_prime_neg(0, p),
    ):
        ok = ok and abs(fn(25) - fn(45)) < mpf(10) ** -25
    # quadrature level behaviour: value stable within the reported estimate
    low = quad_phi(1, 3, 18)
    high = quad_phi(1, 3, 38)
    ok = ok and abs(low.value - high.value) < low.error_estimate
    ok = ok and high.error_estimate < low.error_estimate
    elapsed = time.perf_counter() - started
    _announce(9, "dual-path series, precision monotonicity, quadrature convergence", ok, elapsed)


def test_criterion_10_even_mellin_values():
    started = time.perf_counter()
    prec, tol = 30, mpf(10) ** -25
    worst = mpf(0)
    for m in range(1, 13):
        for which in (1, 2):
            diff = abs(
                eval_closed_form(phi_even_closed_form(which, m), prec)
                - quad_phi(which, 2 * m, prec).value
            )
            worst = max(worst, diff)
    elapsed = time.perf_counter() - started
    _announce(
        10,
        f"even Mellin values m <= 12, both transforms, |exact - quadrature| < 1e-25 "
        f"(worst {mp.nstr(worst, 3)})",
        worst < tol,
        elapsed,
    )


#: ``arcmellin.__all__`` as the eager imports of the package defined it.
PUBLIC_NAMES = """
    DomainError PrecisionError bernoulli binomial euler_number eulerian harmonic
    x_over_sinh_coeffs
    LN2 LNPI ONE BasisSymbol ClosedForm beta_prime_neg_symbol
    beta_even_ratio beta_prime_ratio eta_prime_neg_symbol
    log_integral_even_cosh log_integral_odd_cosh phi_even_closed_form phi_odd_closed_form
    sinh_over_z_integral zeta_odd_ratio zeta_prime_ratio
    beta_at_negative_even beta_prime_neg beta_prime_odd beta_prime_value beta_value
    eta_prime eta_prime_neg eta_value eval_closed_form euler_gamma ln2 ln_pi
    mellin_bound_gamma_ratio phi1_bounds zeta_even_value zeta_prime_even
    QuadResult quad_c_constant quad_log_family quad_phi quad_phi_many quad_sinh_over_z
    IdentityFamily VerifyReport all_suites check_asymptotic_constants check_bounds
    check_coupled check_cross_representation check_even_argument_relations
    reproduce_reference_tables run_identity
""".split()


def _fresh_python(code: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter on this source tree."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestLazyPublicNames:
    """Every public name loads its layer on first use, so importing the
    package runs no submodule."""

    def test_import_loads_no_layer_and_no_mpmath(self):
        out = _fresh_python(
            "import sys, arcmellin\n"
            "print(sorted(m for m in sys.modules if m.startswith(('arcmellin.', 'mpmath'))))\n"
        )
        assert out.strip() == "[]"

    def test_closedform_loads_only_the_exact_layers(self):
        out = _fresh_python(
            "import sys, arcmellin.closedform\n"
            "print(sorted(m for m in sys.modules if m.startswith(('arcmellin.', 'mpmath'))))\n"
        )
        assert out.strip() == "['arcmellin.closedform', 'arcmellin.exact', 'arcmellin.series']"

    def test_layers_import_no_dataclasses_inspect_or_argparse(self):
        # every layer and the CLI module; argparse waits for a command line
        out = _fresh_python(
            "import sys\n"
            "before = set(sys.modules)\n"
            "from arcmellin import cli, verify, catalog, closedform, lfuncs, quadrature\n"
            "print(sorted({'dataclasses', 'inspect', 'argparse'} & (set(sys.modules) - before)))\n"
        )
        assert out.strip() == "[]"

    def test_layer_name_imports_its_layer(self):
        # arcmellin.verify was an attribute of the package after a bare import
        out = _fresh_python(
            "import arcmellin\n"
            "print(arcmellin.verify.__name__, arcmellin.verify.run_identity is arcmellin.run_identity)\n"
        )
        assert out.split() == ["arcmellin.verify", "True"]

    def test_all_is_unchanged(self):
        assert arcmellin.__all__ == PUBLIC_NAMES

    @pytest.mark.parametrize("name", PUBLIC_NAMES)
    def test_name_is_the_object_its_module_defines(self, name):
        obj = getattr(arcmellin, name)
        module = importlib.import_module(obj.__module__)
        assert module.__name__.startswith("arcmellin.")
        assert getattr(module, name) is obj

    def test_star_import(self):
        namespace = {}
        exec("from arcmellin import *", namespace)
        assert [name for name in namespace if name != "__builtins__"] == PUBLIC_NAMES
        assert namespace["quad_phi"] is arcmellin.quadrature.quad_phi

    def test_dir_lists_every_public_name(self):
        assert set(PUBLIC_NAMES) <= set(dir(arcmellin))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            arcmellin.no_such_name
        assert not hasattr(arcmellin, "cli_main")

    def test_concurrent_first_touch(self):
        # eight threads read three names of three layers at once from a
        # package that has loaded none of them, switching every microsecond
        out = _fresh_python(
            "import sys, threading, arcmellin\n"
            "sys.setswitchinterval(1e-6)\n"
            "names = ('quad_phi', 'ClosedForm', 'bernoulli')\n"
            "barrier = threading.Barrier(8, timeout=60)\n"
            "seen = []\n"
            "def touch():\n"
            "    barrier.wait()\n"
            "    seen.append([getattr(arcmellin, name) for name in names])\n"
            "threads = [threading.Thread(target=touch) for _ in range(8)]\n"
            "for thread in threads: thread.start()\n"
            "for thread in threads: thread.join(60)\n"
            "from arcmellin import closedform, exact, quadrature\n"
            "own = [quadrature.quad_phi, closedform.ClosedForm, exact.bernoulli]\n"
            "print(sum(thread.is_alive() for thread in threads), len(seen),\n"
            "      all(all(a is b for a, b in zip(got, own)) for got in seen))\n"
        )
        assert out.split() == ["0", "8", "True"]
