"""The names of the verification suites.

One enum names every suite: :mod:`arcmellin.verify` keys its registry by it
and the command-line parser takes its ``verify`` choices from it.  It lives
apart from ``verify`` so that the parser can list the suites without loading
the numeric layers.
"""

from enum import Enum


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
    REFERENCE_TABLES = "reference-tables"
