"""Command-line surface: output formats, exit codes, config handling."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arcmellin import ClosedForm, log_integral_odd_cosh, series
from arcmellin.cli import cli_main
from arcmellin.verify import SUITES


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClosedFormCommand:
    def test_latex_output(self, capsys):
        code, out, _ = run(capsys, "closed-form", "log-odd", "--q", "0", "--n", "1", "--latex")
        assert code == 0
        assert r"-3\,\frac{\zeta'(2)}{\pi^{2}}" in out

    def test_json_output_parses(self, capsys):
        code, out, _ = run(capsys, "closed-form", "log-even", "--q", "0", "--n", "1", "--json")
        assert code == 0
        assert ClosedForm.from_json(out) == ClosedForm.from_json(
            '{"terms": [{"symbol": "beta_prime_ratio", "p": 0, "coeff": "-4/1"},'
            ' {"symbol": "lnpi", "coeff": "1/1"}, {"symbol": "ln2", "coeff": "-1/1"}]}'
        )

    def test_sinh_over_z_uses_full_exponent(self, capsys):
        code, out, _ = run(capsys, "closed-form", "sinh-over-z", "--q", "1", "--n", "4", "--json")
        assert code == 0
        data = json.loads(out)
        assert {"symbol": "one", "coeff": "5/18"} in data["terms"]

    def test_divergent_parameters_exit_2(self, capsys):
        code, _, err = run(capsys, "closed-form", "log-odd", "--q", "3", "--n", "2")
        assert code == 2
        assert "convergence" in err

    def test_unknown_family_exit_2(self, capsys):
        code, _, _ = run(capsys, "closed-form", "nonsense", "--q", "0", "--n", "1")
        assert code == 2


class TestPhiOddCommand:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "phi-odd", "1", "--n", "1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["terms"][0] == {"symbol": "eta_prime_neg", "i": 0, "coeff": "4/3"}

    def test_pole_exit_2(self, capsys):
        code, _, err = run(capsys, "phi-odd", "2", "--n", "0")
        assert code == 2
        assert "pole" in err


class TestVerifyCommand:
    def test_identity_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "alt-binom-odd", "--range", "1..10")
        assert code == 0
        assert "PASS" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "d-identity", "--range", "0..4", "--json")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_even_relations_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "even-relations", "--prec", "25")
        assert code == 0
        assert "even-relations: PASS (7 cells" in out

    def test_reference_tables_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "reference-tables", "--prec", "25")
        assert code == 0
        assert "reference-tables: PASS (35 cells" in out

    def test_cross_rep_reaches_large_n(self, capsys):
        # Phi(2n+1) from n = 64 on needs quadrature wings that reach the peak
        code, out, _ = run(capsys, "verify", "cross-rep", "--range", "1..80")
        assert code == 0
        assert "cross-rep: PASS (320 cells" in out

    def test_bounds_details_carry_the_requested_digits(self, capsys):
        # each detail reads "lo < value < hi"; the quadrature value must print
        # to the requested 60 digits, not to mpmath's default 15
        code, out, _ = run(capsys, "verify", "bounds", "--prec", "60", "--json")
        assert code == 0
        for cell in json.loads(out)["cells"]:
            value = cell["detail"].split(" < ")[1]
            assert len(value.lstrip("-").replace(".", "").lstrip("0")) >= 50, cell

    def test_all_runs_every_suite_over_the_range(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--range", "1..2", "--prec", "12", "--json")
        assert code == 0
        decoder, reports, pos = json.JSONDecoder(), [], 0
        while out[pos:].strip():
            pos += len(out[pos:]) - len(out[pos:].lstrip())
            report, pos = decoder.raw_decode(out, pos)
            reports.append(report)
        assert len(reports) == 17
        # the exact suites: no precision, and n first in every cell
        exact = [r for r in reports if r["precision"] is None and isinstance(r["cells"][0]["params"][0], int)]
        assert len(exact) == 11
        for report in exact:
            assert all(cell["params"][0] <= 2 for cell in report["cells"]), report["family"]

    def test_bad_range_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "alt-binom-odd", "--range", "oops")
        assert code == 2

    def test_unknown_suite_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "not-a-suite")
        assert code == 2

    @pytest.mark.parametrize(
        "suite, n_range",
        [
            ("alt-binom-odd", "5..1"),
            ("alt-binom-odd", "0..0"),
            ("cross-rep", "1..0"),
            ("cross-rep", "5..1"),
            ("bounds", "5..1"),
            ("coupled", "5..1"),
            ("asymptotic", "5..1"),
            ("even-relations", "5..1"),
            ("reference-tables", "5..1"),
            ("all", "5..1"),
        ],
    )
    def test_range_holding_no_n_exit_2(self, capsys, suite, n_range):
        code, out, err = run(capsys, "verify", suite, "--range", n_range)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestEvalCommand:
    def test_evaluates_file(self, capsys, tmp_path):
        path = tmp_path / "form.json"
        path.write_text(log_integral_odd_cosh(0, 1).to_json())
        code, out, _ = run(capsys, "eval", "--json-file", str(path), "--prec", "25")
        assert code == 0
        # this instance happens to equal C1/2
        assert out.strip().startswith("-0.104752680901330382673")

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "eval", "--json-file", "/nonexistent.json")
        assert code == 2

    def test_directory_exit_2(self, capsys, tmp_path):
        # exit 1 would read as a verification mismatch
        code, out, err = run(capsys, "eval", "--json-file", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"terms": [{"symbol": "one", "coeff": "x/y"}]}')
        code, _, err = run(capsys, "eval", "--json-file", str(path))
        assert code == 2
        assert "invalid input" in err
        # wrong shapes and types are input errors too, never a traceback
        # (exit 1 would read as a verification mismatch)
        for text in (
            '{"terms": 5}',
            "[1, 2]",
            '{"terms": [5]}',
            '{"terms": [{"symbol": "one", "coeff": "1/0"}]}',
            '{"terms": [{"symbol": "one", "coeff": 3}]}',
            '{"terms": [{"symbol": ["one"], "coeff": "1"}]}',
            '{"terms": [{"symbol": "zeta_prime_ratio", "p": "1", "coeff": "1/2"}]}',
            '{"terms": [{"symbol": "zeta_prime_ratio", "p": true, "coeff": "1/2"}]}',
        ):
            path.write_text(text)
            code, _, err = run(capsys, "eval", "--json-file", str(path))
            assert code == 2, text
            assert err.startswith("error:") and err.count("\n") == 1, text


class TestConstantsCommand:
    def test_prints_both_constants(self, capsys):
        code, out, _ = run(capsys, "constants", "--prec", "25")
        assert code == 0
        assert "-0.209505361802660765" in out
        assert "0.205973120512140692" in out
        assert "gamma" in out

    def test_quadrature_lines_stop_at_the_digits_computed(self, capsys):
        # quadrature runs at most at 100 digits, so above that its lines
        # print those 100, each the closed-form line rounded to them
        from mpmath import mp, mpf

        code, out, _ = run(capsys, "constants", "--prec", "150")
        assert code == 0
        lines = dict(line.split(" = ") for line in out.splitlines())
        for c in ("C1", "C2"):
            closed, quad = lines[f"{c} (closed forms)"], lines[f"{c} (quadrature)  "]
            assert len(closed.lstrip("-0.").replace(".", "")) == 150
            with mp.workdps(160):
                assert quad == mp.nstr(mpf(closed), 100)


class TestConfigFile:
    def test_config_supplies_default_prec(self, capsys, tmp_path):
        cfg = tmp_path / "arcmellin.cfg"
        cfg.write_text("prec = 21\n# comment\n")
        path = tmp_path / "form.json"
        path.write_text('{"terms": [{"symbol": "one", "coeff": "3/4"}]}')
        code, out, _ = run(capsys, "--config", str(cfg), "eval", "--json-file", str(path))
        assert code == 0
        assert out.strip() == "0.75"

    def test_config_supplies_default_range(self, capsys, tmp_path):
        cfg = tmp_path / "arcmellin.cfg"
        cfg.write_text("range = 1..5\n")
        code, out, _ = run(capsys, "--config", str(cfg), "verify", "alt-binom-odd")
        assert code == 0
        assert "(20 cells" in out  # n = 1..5 gives sum(n+1) = 20 cells

    def test_bad_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "arcmellin.cfg"
        cfg.write_text("prec = lots\n")
        code, _, err = run(capsys, "--config", str(cfg), "constants")
        assert code == 2
        assert "bad config" in err

    @pytest.mark.parametrize(
        "text, line",
        [("precision = 50\nrange 1..3\n", 3), ("prec 50\n", 3), ("range = 1..5\nrange = 1..3\n", 4)],
    )
    def test_unusable_line_exit_2(self, capsys, tmp_path, text, line):
        # an unknown key, a line without "=" or a repeated key would leave a
        # setting silently unused
        cfg = tmp_path / "arcmellin.cfg"
        cfg.write_text("# defaults\n\n" + text)
        code, out, err = run(capsys, "--config", str(cfg), "verify", "alt-binom-odd")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: bad config: line {line}")


class TestReproduceCommand:
    def test_reproduce_all_tables(self, capsys):
        code, out, _ = run(capsys, "reproduce-paper", "--prec", "25")
        assert code == 0
        assert out.count("[ok ]") == 35
        assert "FAIL" not in out


class TestModuleEntryPoint:
    def test_python_m_arcmellin_reproduces_paper(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "arcmellin", "reproduce-paper", "--prec", "25"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("[ok ]") == 35

    def test_python_m_arcmellin_cli_warns_nothing(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "arcmellin.cli",
             "reproduce-paper", "--prec", "25"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_closed_stdout_exits_without_traceback(self):
        # `constants` prints between slow quadratures, so closing the read
        # end after the first line makes a later print hit a broken pipe.
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": "1"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "arcmellin", "constants", "--prec", "30"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            assert proc.stdout.readline().startswith("ln 2")
            proc.stdout.close()
            _, err = proc.communicate(timeout=300)
        finally:
            proc.kill()
        assert "Traceback" not in err
        assert "Exception ignored" not in err
        assert proc.returncode in (0, 141), err


class TestExactCommandsLoadNoNumerics:
    @pytest.mark.parametrize(
        "argv",
        [
            ["closed-form", "log-odd", "--q", "0", "--n", "1"],
            ["closed-form", "sinh-over-z", "--q", "1", "--n", "4", "--latex"],
            ["phi-odd", "2", "--n", "3", "--json"],
        ],
    )
    def test_no_mpmath_and_no_numeric_layer(self, argv):
        # in a fresh process, an exact command prints its form and leaves
        # mpmath and the numeric layers unimported
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = (
            "import sys\n"
            "from arcmellin.cli import cli_main\n"
            f"assert cli_main({argv!r}) == 0\n"
            "numeric = ('mpmath', 'arcmellin.lfuncs', 'arcmellin.quadrature', 'arcmellin.verify',"
            " 'arcmellin.catalog')\n"
            "print(sorted(m for m in sys.modules if m.startswith(numeric)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestPrecisionFloor:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "bounds", "--prec", "10"],
            ["verify", "asymptotic", "--prec", "3"],
            ["reproduce-paper", "--prec", "3"],
            ["verify", "cross-rep", "--prec", "5"],
            ["verify", "all", "--prec", "11"],
        ],
    )
    def test_below_the_floor_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "prec must be an int >= 12" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "all", "--prec", "11"],
            ["verify", "all", "--range", "5..3"],
            ["verify", "all", "--prec", "0"],
            ["verify", "all", "--prec", "-30"],
            ["verify", "all", "--range", "0..0"],
            ["verify", "all", "--range", "2..1", "--prec", "60"],
        ],
    )
    def test_all_refuses_before_any_suite_runs(self, capsys, argv):
        # the exact suites fill the (x/sinh x)^e rows, so a refusal that came
        # after them would find the cache filled
        series._x_over_sinh_row.cache_clear()
        code, out, _ = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert series._x_over_sinh_row.cache_info().currsize == 0

    def test_all_refuses_a_config_prec_below_the_floor(self, capsys, tmp_path):
        cfg = tmp_path / "arcmellin.cfg"
        cfg.write_text("prec = 11\n")
        series._x_over_sinh_row.cache_clear()
        code, out, err = run(capsys, "--config", str(cfg), "verify", "all")
        assert code == 2
        assert out == ""
        assert "prec must be an int >= 12" in err
        assert series._x_over_sinh_row.cache_info().currsize == 0

    def test_all_passes_at_the_floor(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--prec", "12")
        assert code == 0
        assert "FAIL" not in out


class TestVerifyAll:
    @pytest.fixture(scope="class")
    def all_reports(self):
        """The text of each report that ``verify all --json`` prints over a
        short range, with its newline, in registry order."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli_main(["verify", "all", "--range", "2..3", "--prec", "12", "--json"]) == 0
        text, decoder, reports, pos = out.getvalue(), json.JSONDecoder(), [], 0
        while pos < len(text):
            _, end = decoder.raw_decode(text, pos)
            reports.append(text[pos : end + 1])
            pos = end + 1
        return reports

    @pytest.mark.parametrize("index, family", enumerate(SUITES), ids=lambda v: getattr(v, "value", v))
    def test_each_report_is_its_suite_run_alone(self, capsys, all_reports, index, family):
        # verify all hands every suite the range and precision it was given,
        # so its reports are byte for byte the single-suite runs, in order
        code, out, _ = run(capsys, "verify", family.value, "--range", "2..3", "--prec", "12", "--json")
        assert code == 0
        assert len(all_reports) == len(SUITES)
        assert all_reports[index] == out

    def test_every_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--prec", "25")
        assert code == 0
        assert "FAIL" not in out
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "alt-binom-odd", "alt-binom-even", "c-odd-power", "eulerian-a",
            "eulerian-b", "binom-cosh", "vanishing", "eta-coeff", "zeta2-coeff",
            "d-identity", "euler-bernoulli", "bounds", "coupled",
            "asymptotic-constants", "cross-rep", "even-relations", "reference-tables",
        ]
        assert lines[12].startswith("coupled: PASS (6 cells")
