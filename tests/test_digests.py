"""Byte identity of the exact layer's output and of ``verify all``.

SHA-256 digests of the canonical JSON of every exact suite and of the closed
forms, recorded before the suites moved to per-n rows, the cosh moments to
their recurrence and the odd-value coefficients to Horner's rule (the
250-term even-argument forms: before they moved to the log forms' integer
residues); and of the
output of ``arcmellin verify all --json`` at four precisions, recorded before
the numeric suites moved to one lockstep quadrature sweep per suite.  A
change of arithmetic that keeps every value must keep every byte.
"""

import hashlib

import pytest

from arcmellin import (
    log_integral_even_cosh,
    log_integral_odd_cosh,
    phi_even_closed_form,
    phi_odd_closed_form,
    run_identity,
    sinh_over_z_integral,
)
from arcmellin.cli import cli_main

#: The n-ranges of the identity-grid benchmark workload, beyond the defaults.
GRID_RANGES = {
    "alt-binom-odd": (1, 40),
    "alt-binom-even": (1, 40),
    "c-odd-power": (1, 30),
    "eulerian-a": (1, 30),
    "eulerian-b": (1, 30),
    "binom-cosh": (1, 30),
    "vanishing": (1, 30),
    "eta-coeff": (1, 60),
    "zeta2-coeff": (2, 30),
    "d-identity": (0, 25),
    "euler-bernoulli": (1, 20),
}

SUITE_DIGESTS = {
    ("alt-binom-odd", "default"): "a93ca98cfa03d06ce919de54dc1749ab3b50e5d36134d85a996c5fdb95e643d7",
    ("alt-binom-odd", "grid"): "952c2be3b2204b77ea5128ae6b12695ed3ada6732b0eb4397f7f8abf30bf747e",
    ("alt-binom-even", "default"): "0a6c5c9366013cbd261413ce4e599a9d5b339fb91d9c04ef9740580faf6a364f",
    ("alt-binom-even", "grid"): "b60ef1e6479e76530ffb40638f6162d64d58a06156c3926746a5c3229749d010",
    ("c-odd-power", "default"): "a5c696c733fbe43c108fb7ee9b687f995b7850acb855748aa30f169c83d39174",
    ("c-odd-power", "grid"): "0e5bc4e802ed1248690027bafe8893635eea192b1dc29a4ca7859f3d508c7a38",
    ("eulerian-a", "default"): "e6430900603349ddaf485ccb551bd33df347040346760e99217b7a457d0a5b05",
    ("eulerian-a", "grid"): "56df47eba2a31431afc9ffaf3f34140ac6b99b6311ffa067d045eb0b3a03a6bd",
    ("eulerian-b", "default"): "568ffb1c355c753d253db7c68b708d7326bcd040071d73a4fd8638c2a4ef0c59",
    ("eulerian-b", "grid"): "646b8d86749de44f2888ff30d18710cc75fda9eb8ef3c27a9bda61e0b2a6e994",
    ("binom-cosh", "default"): "a811f8728e586c41dec0f84746b314f6094d6b4ca9c19bb14f481dd4e8b24bb1",
    ("binom-cosh", "grid"): "be1fcf53c2cfcb9e1bb74d8a2ccd84793f2d56eaf36db6fb8f52a0ca38ccfb2f",
    ("vanishing", "default"): "5cce6c596a5ea7612e1e08d9977ac738030f6ebfc85623c753dde00e2b2984c4",
    ("vanishing", "grid"): "08ed5b21ab03b6b366c75769077c53526b4ef438b69620b1686650b7fa62da18",
    ("eta-coeff", "default"): "df80f4d74c503c89b478c401b1f32993a6307c49090c7fac418c9cfdeb0a575c",
    ("eta-coeff", "grid"): "cc2be64f3f592fedf4e372ac2dfbe1201d7408f89b4609fae65cd23816a9622d",
    ("zeta2-coeff", "default"): "4a9ae4e7f44fd83701724758bab535e232b1db3d027c18b13e10ac418795aef5",
    ("zeta2-coeff", "grid"): "4e147609d045cdde166980075f42418009e21a89ad7d91a3338ad25f394083a6",
    ("d-identity", "default"): "18c78e99da683cb1eb3d12d7aa6d0958017cf4caab67530a5778b8c76ce5aad3",
    ("d-identity", "grid"): "a4be51ac8393d39f23daf567082aef19e0f2cc1cb3fd03e8e21747a760f745e6",
    ("euler-bernoulli", "default"): "4e8be35ef1b65f7e307d8b57790320b2fa19f11f807dd67cf721c9e1b3fa10c8",
    ("euler-bernoulli", "grid"): "1d3b9b7e4aeed8e1e1e7d6333e28a280267fb6a13cd48a23386c323e10f119c3",
}

#: Each group's forms, in the order their JSON is joined before hashing.
FORM_GROUPS = {
    "phi-odd": lambda: (phi_odd_closed_form(w, n) for w in (1, 2) for n in range(1, 61)),
    "phi-odd-250": lambda: (phi_odd_closed_form(w, 250) for w in (1, 2)),
    "phi-even": lambda: (phi_even_closed_form(w, m) for w in (1, 2) for m in range(1, 41)),
    "phi-even-250": lambda: (phi_even_closed_form(w, 250) for w in (1, 2)),
    "log-odd": lambda: (log_integral_odd_cosh(q, n) for n in range(1, 21) for q in range(n)),
    "log-even": lambda: (log_integral_even_cosh(q, n) for n in range(1, 21) for q in range(n)),
    "sinh-over-z": lambda: (
        sinh_over_z_integral(q, big_n) for big_n in range(2, 21) for q in range(1, (big_n + 1) // 2)
    ),
}

FORM_DIGESTS = {
    "phi-odd": "b3e7e69decb698aa4a1e2cf81c5c24957962a5c9e4215784a8c5388c564d26d8",
    "phi-odd-250": "ea93975d0d1c4e0c3585d9cb68ada0fae6fe21a9e410c4a8c48109434bd25e2c",
    "phi-even": "5b9e779429281686317da41c8c9df78739bcfe386b9f7733cae22bb6ff9c58a0",
    "phi-even-250": "a66bcd59356a4463ae3372bd639ead807ab59c383c006ef2a7d4686ec825411a",
    "log-odd": "dfb7d860f8747e4983ccc69f7f65f4f7c6087bf3de5e08284e28dba8f9768d52",
    "log-even": "acefed7a0d56c7c4d63390a3db1dfa2dd5a910adb134a59ec4688c1aff69a8da",
    "sinh-over-z": "6c46f91158028c2f6906f4b657c94cff33f9b2abb965bd1cdd5c941aa6c815bd",
}


#: SHA-256 of the stdout of ``arcmellin verify all --prec P --json``.
VERIFY_ALL_DIGESTS = {
    12: "1fa650e8a0f4d9ae90779946b09a390a13667e476347c702615f6c4b3994ff42",
    30: "8ecfd3c5de84acb8f06da7a24894c31c688144aacf767fcdea46f7317354ca1b",
    60: "210b0fb9237d14b5479d3f6978b873009a22bee7c548bcbaa6ad20495f20b0a2",
    100: "9c15d4278884f0b177e4956b70d4d870fd5314c0ced63e02e9e0e41c5b04bef2",
}


def _digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


class TestByteIdentity:
    @pytest.mark.parametrize("family, ranges", sorted(SUITE_DIGESTS))
    def test_exact_suite_json(self, family, ranges):
        n_range = GRID_RANGES[family] if ranges == "grid" else None
        report = run_identity(family, n_range=n_range)
        assert report.passed
        assert _digest([report.to_json()]) == SUITE_DIGESTS[family, ranges]

    @pytest.mark.parametrize("group", sorted(FORM_DIGESTS))
    def test_closed_form_json(self, group):
        assert _digest(form.to_json() for form in FORM_GROUPS[group]()) == FORM_DIGESTS[group]


class TestVerifyAllBytes:
    @pytest.mark.parametrize("prec", sorted(VERIFY_ALL_DIGESTS))
    def test_verify_all_json(self, prec, capsys):
        assert cli_main(["verify", "all", "--prec", str(prec), "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_DIGESTS[prec]
