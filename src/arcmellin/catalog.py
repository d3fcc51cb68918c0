"""Reference catalog of published closed-form values.

These are the worked evaluations that the construction pipeline must
reproduce exactly: twelve log-weighted hyperbolic integrals, thirteen
sinh/z integrals (including the odd Mellin values they specialize to),
the odd-Mellin-value tables over the negative-argument derivative basis,
the two asymptotic constants with their published 19-digit decimals, and
the even-argument relations between odd zeta and even beta values.

Each entry is transcribed literally from the published tables, so an exact
match against the assembled :class:`~arcmellin.closedform.ClosedForm` is a
genuine end-to-end check of the whole coefficient pipeline.
"""

from __future__ import annotations

from fractions import Fraction

from .closedform import (
    LN2,
    LNPI,
    ONE,
    ClosedForm,
    beta_prime_neg_symbol,
    beta_prime_ratio,
    eta_prime_neg_symbol,
    zeta_prime_ratio,
)
from .exact import _check_int


def _cf(zeta=None, beta=None, eta_neg=None, beta_neg=None, one=None, lnpi=None, ln2=None) -> ClosedForm:
    pairs = []
    for p, c in (zeta or {}).items():
        pairs.append((zeta_prime_ratio(p), Fraction(c)))
    for p, c in (beta or {}).items():
        pairs.append((beta_prime_ratio(p), Fraction(c)))
    for i, c in (eta_neg or {}).items():
        pairs.append((eta_prime_neg_symbol(i), Fraction(c)))
    for i, c in (beta_neg or {}).items():
        pairs.append((beta_prime_neg_symbol(i), Fraction(c)))
    if one is not None:
        pairs.append((ONE, Fraction(one)))
    if lnpi is not None:
        pairs.append((LNPI, Fraction(lnpi)))
    if ln2 is not None:
        pairs.append((LN2, Fraction(ln2)))
    return ClosedForm(pairs)


#: int_0^oo sinh^{2q+1} z ln z / cosh^{2n+1} z dz, keyed by (q, n)
LOG_ODD_COSH: dict[tuple[int, int], ClosedForm] = {
    (0, 1): _cf(zeta={0: -3}, one="-1/2", lnpi="1/2", ln2="-2/3"),
    (0, 2): _cf(zeta={0: -1, 1: "-15/2"}, one="-23/72", lnpi="1/4", ln2="-14/45"),
    (1, 2): _cf(zeta={0: -2, 1: "15/2"}, one="-13/72", lnpi="1/4", ln2="-16/45"),
    (0, 3): _cf(zeta={0: "-8/15", 1: -5, 2: -21}, one="-163/675", lnpi="1/6", ln2="-568/2835"),
    (1, 3): _cf(zeta={0: "-7/15", 1: "-5/2", 2: 21}, one="-421/5400", lnpi="1/12", ln2="-314/2835"),
    (2, 3): _cf(zeta={0: "-23/15", 1: 10, 2: -21}, one="-277/2700", lnpi="1/6", ln2="-694/2835"),
}

#: int_0^oo sinh^{2q+1} z ln z / cosh^{2n} z dz, keyed by (q, n)
LOG_EVEN_COSH: dict[tuple[int, int], ClosedForm] = {
    (0, 1): _cf(beta={0: -4}, lnpi=1, ln2=-1),
    (0, 2): _cf(beta={0: "-2/3", 1: "-16/3"}, one="-1/4", lnpi="1/3", ln2="-1/3"),
    (1, 2): _cf(beta={0: "-10/3", 1: "16/3"}, one="1/4", lnpi="2/3", ln2="-2/3"),
    (0, 3): _cf(beta={0: "-3/10", 1: "-8/3", 2: "-64/5"}, one="-61/288", lnpi="1/5", ln2="-1/5"),
    (1, 3): _cf(beta={0: "-11/30", 1: "-8/3", 2: "64/5"}, one="-11/288", lnpi="2/15", ln2="-2/15"),
    (2, 3): _cf(beta={0: "-89/30", 1: 8, 2: "-64/5"}, one="83/288", lnpi="8/15", ln2="-8/15"),
}

#: int_0^oo sinh^{2q} z / (z cosh^N z) dz, keyed by (q, N)
SINH_OVER_Z: dict[tuple[int, int], ClosedForm] = {
    (1, 4): _cf(zeta={0: -2, 1: 30}, one="5/18", ln2="-4/45"),
    (1, 6): _cf(zeta={0: "-4/5", 2: 126}, one="77/450", ln2="-8/189"),
    (2, 6): _cf(zeta={0: "-6/5", 1: 30, 2: -126}, one="8/75", ln2="-44/945"),
    (1, 8): _cf(zeta={0: "-16/35", 1: -2, 2: 42, 3: 510}, one="16469/132300", ln2="-368/14175"),
    (2, 8): _cf(zeta={0: "-12/35", 1: 2, 2: 84, 3: -510}, one="6169/132300", ln2="-232/14175"),
    (3, 8): _cf(zeta={0: "-6/7", 1: 28, 2: -210, 3: 510}, one="7943/132300", ln2="-428/14175"),
    (1, 3): _cf(beta={0: -2, 1: 16}, one="3/4"),
    (1, 5): _cf(beta={0: "-1/2", 1: "-8/3", 2: 64}, one="89/288"),
    (2, 5): _cf(beta={0: "-3/2", 1: "56/3", 2: -64}, one="127/288"),
    (1, 7): _cf(beta={0: "-1/4", 1: "-82/45", 2: "32/3", 3: 256}, one="4201/21600"),
    (2, 7): _cf(beta={0: "-1/4", 1: "-38/45", 2: "160/3", 3: -256}, one="1237/10800"),
    (3, 7): _cf(beta={0: "-5/4", 1: "878/45", 2: "-352/3", 3: 256}, one="7051/21600"),
    (1, 9): _cf(
        beta={0: "-5/32", 1: "-397/315", 2: "8/15", 3: 128, 4: 1024},
        one="4798639/33868800",
    ),
}

#: odd Mellin values Phi_which(2n+1) over the negative-argument basis,
#: keyed by (which, n)
PHI_ODD: dict[tuple[int, int], ClosedForm] = {
    (1, 1): _cf(eta_neg={0: "4/3", 1: "8/3"}),
    (2, 1): _cf(beta_neg={0: 1, 1: 1}),
    (1, 2): _cf(eta_neg={0: "4/5", 1: "8/3", 2: "8/15"}),
    (2, 2): _cf(beta_neg={0: "3/4", 1: "7/6", 2: "1/12"}),
    (1, 3): _cf(eta_neg={0: "4/7", 1: "112/45", 2: "8/9", 3: "16/315"}),
    (2, 3): _cf(beta_neg={0: "5/8", 1: "439/360", 2: "11/72", 3: "1/360"}),
    (1, 4): _cf(eta_neg={0: "4/9", 1: "6544/2835", 2: "152/135", 3: "16/135", 4: "8/2835"}),
    (2, 4): _cf(beta_neg={0: "35/64", 1: "1247/1008", 2: "301/1440", 3: "1/144", 4: "1/20160"}),
}

#: Asymptotic constants Phi_which(s) = 1/(s-1) + C_which + O(s-1) at s -> 1+.
C1_CLOSED_FORM = _cf(zeta={0: -6}, one=-1, lnpi=1, ln2="-4/3")
C2_CLOSED_FORM = _cf(beta={0: -4}, lnpi=1, ln2=-1)

#: Published decimal prefixes (19 digits).
C1_DECIMAL = "-0.2095053618026607653"
C2_DECIMAL = "0.2059731205121406923"

#: The sinh/z instances that equal odd Mellin values: Phi_1(2n+1) is the
#: (q, N) = (n, 2n+2) instance and Phi_2(2n+1) the (n, 2n+1) instance.
def phi_odd_as_sinh_over_z(which: int, n: int) -> tuple[int, int]:
    _check_int("which", which, 1, 2)
    _check_int("n", n, 1)
    return (n, 2 * n + 3 - which)


#: Published even-argument relations.  Each states
#:
#:   sum_k zeta[k] zeta(k)/pi^{k-1}
#:     = sum_k beta[k] beta(k)/pi^{k-1} - sum_{n>=start} w_n Phi_which(2n+offset)
#:
#: with w_n = C(2n,n)/4^n for which=1 and C(2n,n)/(4^n (2n-1)) for which=2.
#: ``verify even-relations`` rebuilds each block exactly from the even-argument
#: closed forms, closing the tail with the coupled series.
EVEN_ARGUMENT_RELATIONS = (
    {
        "name": "zeta3",
        "zeta": {3: Fraction(7)},
        "beta": {
            2: Fraction(5386925, 3407872),
            4: Fraction(1492525919, 94617600),
            6: Fraction(-3669179, 92160),
            8: Fraction(357259, 2880),
            10: Fraction(-11967, 40),
            12: Fraction(462),
            14: Fraction(-336),
        },
        "which": 2,
        "start": 7,
        "offset": 2,
    },
    {
        "name": "zeta3-zeta5",
        "zeta": {3: Fraction(14, 3), 5: Fraction(-31)},
        "beta": {
            2: Fraction(11197885, 9371648),
            4: Fraction(56749463, 14192640),
            6: Fraction(-120684359, 1451520),
            8: Fraction(80843, 432),
            10: Fraction(-4189, 10),
            12: Fraction(1880, 3),
            14: Fraction(-448),
        },
        "which": 2,
        "start": 6,
        "offset": 4,
    },
    {
        "name": "zeta3-zeta5-zeta7",
        "zeta": {3: Fraction(161, 45), 5: Fraction(-124, 3), 7: Fraction(127)},
        "beta": {
            2: Fraction(44248103, 42172416),
            4: Fraction(-200799329, 106444800),
            6: Fraction(-9160721, 145152),
            8: Fraction(415337, 1080),
            10: Fraction(-659),
            12: Fraction(2768, 3),
            14: Fraction(-640),
        },
        "which": 2,
        "start": 5,
        "offset": 6,
    },
    {
        "name": "beta2",
        "zeta": {
            3: Fraction(87350741, 6589440),
            5: Fraction(-13911343, 172800),
            7: Fraction(10591927, 23040),
            9: Fraction(-11093299, 5760),
            11: Fraction(5602639, 1024),
            13: Fraction(-1204077, 128),
            15: Fraction(7569177, 1024),
        },
        "beta": {2: Fraction(4)},
        "which": 1,
        "start": 7,
        "offset": 2,
    },
    {
        "name": "beta2-beta4",
        "zeta": {
            3: Fraction(9308719, 988416),
            5: Fraction(-2158068007, 19958400),
            7: Fraction(9143873, 17280),
            9: Fraction(-1547819, 720),
            11: Fraction(4632361, 768),
            13: Fraction(-1318751, 128),
            15: Fraction(2064321, 256),
        },
        "beta": {2: Fraction(10, 3), 4: Fraction(-16)},
        "which": 1,
        "start": 6,
        "offset": 4,
    },
    {
        "name": "beta2-beta4-beta6",
        "zeta": {
            3: Fraction(88983991, 12355200),
            5: Fraction(-27337753, 249480),
            7: Fraction(13701649, 20160),
            9: Fraction(-1075655, 432),
            11: Fraction(2618113, 384),
            13: Fraction(-368595, 32),
            15: Fraction(1146845, 128),
        },
        "beta": {2: Fraction(89, 30), 4: Fraction(-24), 6: Fraction(64)},
        "which": 1,
        "start": 5,
        "offset": 6,
    },
    {
        "name": "beta2-beta4-beta6-beta8",
        "zeta": {
            3: Fraction(20241929, 3603600),
            5: Fraction(-6040691, 59400),
            7: Fraction(5856097, 7560),
            9: Fraction(-432671, 135),
            11: Fraction(128961, 16),
            13: Fraction(-106483, 8),
            15: Fraction(163835, 16),
        },
        "beta": {2: Fraction(381, 140), 4: Fraction(-434, 15), 6: Fraction(416, 3), 8: Fraction(-256)},
        "which": 1,
        "start": 4,
        "offset": 8,
    },
)
