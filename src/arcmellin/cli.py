"""Command-line front end.

Subcommands
-----------
closed-form <family> --q Q --n N [--json | --latex]
    Print the exact closed form of one integral.  Families: ``log-odd``
    (sinh^{2q+1} ln z / cosh^{2n+1}), ``log-even`` (denominator cosh^{2n}),
    ``sinh-over-z`` (sinh^{2q} / (z cosh^n), where --n is the full cosh
    exponent).
phi-odd <1|2> --n N [--json | --latex]
    The odd Mellin value Phi_1(2n+1) or Phi_2(2n+1) over the
    negative-argument derivative basis.
verify <suite> [--range A..B] [--prec P]
    Run one verification suite (or ``all``) and print its report.
eval --json-file F [--prec P]
    Evaluate a JSON-encoded closed form numerically.
constants [--prec P]
    Print the basis constants and the two asymptotic constants, each also
    by quadrature, whose lines have at most 100 digits.
reproduce-paper [--prec P]
    Re-derive the full catalog of published closed forms and the printed
    19-digit constants; exit 0 only if everything matches.

Exit codes: 0 all checks passed, 1 a verification mismatch, 2 usage or
domain error, 141 (128 + SIGPIPE, as a shell reports a program that SIGPIPE
ended) when the reader of stdout closes it early, as ``| head`` does.  An
optional ``--config FILE`` (key=value lines) supplies defaults for ``prec``
and ``range``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from .closedform import (
    ClosedForm,
    log_integral_even_cosh,
    log_integral_odd_cosh,
    phi_odd_closed_form,
    sinh_over_z_integral,
)
from .exact import DomainError, PrecisionError
from .suites import IdentityFamily

#: The closed-form command's families, in the order the parser lists them.
_FAMILIES = {
    "log-odd": log_integral_odd_cosh,
    "log-even": log_integral_even_cosh,
    "sinh-over-z": sinh_over_z_integral,
}

# argparse and the numeric layers (mpmath, lfuncs, quadrature, verify, and
# catalog, which builds its forms at import) are imported by the functions
# that use them, so an exact command such as closed-form loads none of them.


def _load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    config = {}
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"line {number} is not key=value: {line!r}")
        if key not in ("prec", "range"):
            raise ValueError(f"line {number}: unknown key {key!r} (keys: prec, range)")
        if key in config:
            raise ValueError(f"line {number}: {key!r} is set twice")
        config[key] = value.strip()
    return config


def _parse_range(text: str) -> tuple[int, int]:
    import argparse

    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"range must look like A..B, got {text!r}")
    return int(lo), int(hi)


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="arcmellin",
        description="Exact closed forms and verification for hyperbolic "
        "log-integrals and arctanh-kernel Mellin transforms.",
    )
    parser.add_argument("--config", help="key=value file with default prec/range")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cf = sub.add_parser("closed-form", help="print one exact closed form")
    p_cf.add_argument("family", choices=list(_FAMILIES))
    p_cf.add_argument("--q", type=int, required=True)
    p_cf.add_argument("--n", type=int, required=True)
    out = p_cf.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true")
    out.add_argument("--latex", action="store_true")

    p_phi = sub.add_parser("phi-odd", help="odd Mellin value closed form")
    p_phi.add_argument("which", type=int, choices=[1, 2])
    p_phi.add_argument("--n", type=int, required=True)
    out = p_phi.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true")
    out.add_argument("--latex", action="store_true")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument(
        "suite", choices=[fam.value for fam in IdentityFamily] + ["all"]
    )
    p_ver.add_argument("--range", type=_parse_range, default=None, dest="n_range")
    p_ver.add_argument("--prec", type=int, default=None)
    p_ver.add_argument("--json", action="store_true", help="emit the JSON report")

    p_eval = sub.add_parser("eval", help="evaluate a JSON closed form")
    p_eval.add_argument("--json-file", required=True)
    p_eval.add_argument("--prec", type=int, default=None)

    p_const = sub.add_parser("constants", help="print the basis constants")
    p_const.add_argument("--prec", type=int, default=None)

    p_rep = sub.add_parser(
        "reproduce-paper", help="re-derive the published closed-form tables"
    )
    p_rep.add_argument("--prec", type=int, default=None)

    return parser


def _emit_form(form: ClosedForm, args) -> None:
    if args.json:
        print(form.to_json())
    elif args.latex:
        print(form.latex())
    else:
        print(repr(form))


def _run_suite(suite: str, n_range, prec: int, as_json: bool) -> int:
    from . import verify

    if suite == "all":  # one precision check before any suite runs
        reports = verify.all_suites(prec, n_range)
    else:
        reports = [verify.run_identity(suite, n_range, prec)]
    failed = False
    for report in reports:
        if as_json:
            print(report.to_json())
        else:
            print(report.summary())
        failed = failed or not report.passed
    return 1 if failed else 0


def cli_main(argv: list[str] | None = None) -> int:
    import argparse

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        config = _load_config(args.config)
        # --prec, where the command has one, over the config's prec
        prec = int(config.get("prec", 30))
        if getattr(args, "prec", None) is not None:
            prec = args.prec
        default_range = _parse_range(config["range"]) if "range" in config else None
    except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "closed-form":
            _emit_form(_FAMILIES[args.family](args.q, args.n), args)
            return 0

        if args.command == "phi-odd":
            _emit_form(phi_odd_closed_form(args.which, args.n), args)
            return 0

        if args.command == "verify":
            n_range = args.n_range if args.n_range is not None else default_range
            return _run_suite(args.suite, n_range, prec, args.json)

        if args.command == "eval":
            from mpmath import mp

            from .lfuncs import eval_closed_form

            try:
                text = Path(args.json_file).read_text()
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            form = ClosedForm.from_json(text)
            value = eval_closed_form(form, prec)
            print(mp.nstr(value, prec))
            return 0

        if args.command == "constants":
            from mpmath import mp

            from . import catalog
            from .lfuncs import eval_closed_form, euler_gamma, ln2, ln_pi
            from .quadrature import MAX_PREC, quad_c_constant

            print(f"ln 2   = {mp.nstr(ln2(prec), prec)}")
            print(f"ln pi  = {mp.nstr(ln_pi(prec), prec)}")
            print(f"gamma  = {mp.nstr(euler_gamma(prec), prec)}")
            # quadrature stops at MAX_PREC digits, so its lines print no more
            quad_prec = min(prec, MAX_PREC)
            for which, form in ((1, catalog.C1_CLOSED_FORM), (2, catalog.C2_CLOSED_FORM)):
                closed = eval_closed_form(form, prec)
                quad = quad_c_constant(which, quad_prec).value
                print(f"C{which} (closed forms) = {mp.nstr(closed, prec)}")
                print(f"C{which} (quadrature)   = {mp.nstr(quad, quad_prec)}")
            return 0

        if args.command == "reproduce-paper":
            from . import verify

            report = verify.reproduce_reference_tables(prec=prec)
            for cell in report.cells:
                status = "ok " if cell.ok else "FAIL"
                print(f"[{status}] {' '.join(str(p) for p in cell.params)}")
            print(report.summary())
            return 0 if report.passed else 1

    except (DomainError, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:  # malformed JSON / config input
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2
    return 2


def main() -> None:
    try:
        code = cli_main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at devnull so the
        # interpreter's final flush cannot raise again, and exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    main()
