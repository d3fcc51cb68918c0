"""Double-exponential quadrature oracles for every integral family.

All integrals are taken over (0, oo) after the substitution x = tanh(z),
which removes the arctanh endpoint singularity of the Mellin integrands:

    Phi_1(s) = int_0^oo tanh^{s-1}(z) sech^2(z) / z dz,
    Phi_2(s) = int_0^oo tanh^{s-1}(z) sech(z)   / z dz,
    C_1 = int_0^oo sech^2(z) (1 - z coth(z)) / z dz,
    C_2 = int_0^oo sech(z) (1 - z / sinh(z)) / z dz,
    int_0^oo sinh^{2q+1}(z) ln(z) / cosh^N(z) dz
             = int_0^oo tanh^{2q+1}(z) sech^{N-2q-1}(z) ln(z) dz,
    int_0^oo sinh^{2q}(z) / (z cosh^N(z)) dz
             = int_0^oo tanh^{2q}(z) sech^{N-2q}(z) / z dz.

The integrands decay exponentially at infinity and have at worst integrable
algebraic/logarithmic behaviour at 0, so the node map

    z = exp(t - exp(-t)),   dz = (1 + exp(-t)) z dt

turns the trapezoid sum into a double-exponentially convergent rule.  Levels
halve the mesh; each level reuses the previous sum and adds the odd
multiples of the new spacing, extending each wing adaptively until terms are
negligible, but never ending it inside the range where level 0 found terms
above the cutoff: for large s the first nodes of a fine level can all be
negligible with the peak still ahead.  A level 0 that finds no term above
the cutoff at all, at the centre or on either wing, raises
:class:`PrecisionError`: for Phi at s from about 2 10^18 (30 digits) or
7 10^18 (100 digits) on, the level-0 nodes at t = 1, 2, 3 are negligible and
end the right wing before the peak near z = (ln 2s)/2.  Every term falls as s
grows, and at s = 10^19 level 0 is empty for both Phi at every precision
from 1 to 100 digits, so ``quad_phi`` raises there before it evaluates a
node: the centre node alone of s = 10^100000 would spend minutes in an
integer power of tanh.

A level j >= 2 stops on a predicted error, the rule of Bailey, Jeyabalan and
Li ("A comparison of three high-precision quadrature schemes", Exp. Math. 14,
2005) for the double-exponential rule of Takahasi and Mori (1974).  With d1
and d2 the relative digits of the last two level-to-level changes, I_j is
predicted to min(d1^2/d2, 2 d1) digits (the digits at most double per level),
and the rule stops once that reaches the working digits plus 10, so no level
is computed only to confirm the one before.  A level j >= 3 also stops on
a change below 10^-(prec+2) times min(max(1, |I_j|), |I_j| + 2 h |sum of
the negative terms|).  That target is relative below |I_j| = 1 too: Phi_1(s)
is about 2/(s ln s), and an absolute one let two coarse levels that both
missed the peak agree (Phi_1(10^13) at 12 digits came back 37% off).  Where
terms cancel it is relative to h sum |f|, not to a small |I_j|.  Levels 1 and 2
may not stop on the change, since two coarse sums can agree by coincidence
(below 5 requested digits that ended integrals with under one correct
digit).  A level that would stop with an error estimate (below) above
10^-prec |I_j| runs one more level instead, so no estimate exceeds the
request: Phi_1(10^15) at 100 digits met the change target at level 10 with
an estimate of 3.0e-99 relative, and eight Phi of ``verify coupled`` met
the prediction at level 6 with estimates up to 4.1e-95.  A level cap
reached first raises :class:`PrecisionError`.
The reported error estimate is computed, never asserted, and is meant as an
upper bound: the same prediction with the growth capped at 1.5 instead of 2,
min(d1^2/d2, 1.5 d1) digits, plus a relative rounding floor of nodes
2^-wprec times the sum of |terms|, plus the absolute floor of the
fixed-point terms (below), plus a bound on the dropped tails, whose terms
are each below the cutoff.  Below 5 requested digits, a level-3 stop also
estimates at least its own change: after a level 0 that saw almost none of
the peak the digits there grew by only 1.3 times (Phi_1(219) at 1 digit).

The sums run on Python integers at the scale 2^F, F = wprec +
``_GUARD_BITS``.  Every node is t = k 2^-level, so every integrand samples
the same grid.  A node table, one for the current working precision and
replaced when the precision changes, keeps the integrand-independent values
at each node, keyed by the integer t 2^MAX_LEVEL: ln z, w = 1 + exp(-t),
tanh z, sech z and z as integers at scale 2^F, a slot for ln tanh z, and
w + z and ln z w z, the node's weight in the absolute error floor and the
factor of the log family, from the integers before them.  A node is filled
on integers at W = F + ``_FILL_BITS`` + ``_FILL_GUARD`` bits: exp(-t) is a
product of the factors exp(-+2^(j-MAX_LEVEL)) over the binary digits j of
|t| 2^MAX_LEVEL, kept in a factor table per precision beside the node
table, ln z = t - exp(-t) is exact from there, and z and x = exp(-z) are
the node's two exponentials (``_exp_parts``: a reduction by ln 2, then a
Taylor series that skips more squarings the smaller the remainder is);
tanh z = (1 - x^2)/(1 + x^2) and sech z = 2x/(1 + x^2) are one integer
division each.  A z or an x below 2^-(W+2) skips the exponentials
whose floors are then known.  Its sixth slot, ln tanh z, is filled on first
use, for the kernels with a fractional or large power of tanh z, on integers
from the entry's ln z and z (``_ln_tanh``): ln z itself below z = 2^-(F +
``_FILL_BITS`` + 1); ln z - 2 atanh((C - S)/(C + S)) below z = 1, with
S = sinh z / z and C = cosh z short series in z^2; and -2 atanh(e^-2z)
from z = 1 on, with e^-2z a mantissa and a power of 2, so it keeps its
relative digits where tanh z is close to 1.

Each integrand is a kernel: a term function of one table entry that
returns f(z) dz/dt at scale 2^F, as products of the entry's integers, each
shifted down by F.  ``_monomial`` writes the Mellin and sinh/z families as
tanh^a z sech^b z w and the log family as tanh^a z sech^b z (ln z w z); an
integer power below ``_LADDER_LIMIT`` is a left-to-right binary ladder of
such products, and a larger or fractional a of tanh z is exp(a ln tanh z):
the exact product of the mantissas of a and ln tanh z, shifted once, then
the same integer exponential.  Its argument near the peak of a large s is
O(1), so its error stays a few units whatever s is.
``_c_constant_term`` writes the two constants as
sech^{3-which} z (1 - z/X) w, X = tanh z or sinh z, with the bracket from
the series S and C below z = 1, where none of their terms cancel, so it
keeps its relative digits at small z, and from the entry's tanh z, sech z
and z above, one integer division.  No ``mpf`` operation runs at a node:
``mpf`` is left to the set-up of each sweep, its level sums and the factor
table.  On a 2-core Intel Xeon (Python 3.11.7, mpmath 1.3.0 on its
pure-Python backend) the ln tanh z slot takes about 0.4, 6 and 7 us a node
by route at 30 digits and 0.5, 13 and 17 at 100 (7, 23 and 17 us, and 15,
49 and 34, by the earlier ``mpf`` routes, which recomputed z from ln z),
exp(a ln tanh z) 4 and 9 us (7 and 13), the brackets of both constants 3
and 7 us (10 and 19), and a node fill 12 and 23 us (12 and 26 with
mpmath's ``exp_basecase``).  Each kernel carries ``units``, a bound
c on its term's error in units of 2^-F times 1 + w + z at the node; the
level sums are exact integers, so the absolute floor of the estimate is
c h 2^-F sum (1 + w + z) over every node summed.

``_de_halfline`` integrates a list of kernels in one lockstep sweep: on
each level and side it walks the nodes once, and at each node every kernel
whose wing has not ended adds its term.  Each kernel keeps its own wing
ends, level-0 guard, stop rule, level cap and error estimate, so its result
is the one a sweep of that kernel alone gives.  At each node the kernels
share a scratch dict, dropped after the node, where ``_tanh_power`` keeps
tanh^a z under the key a, beside the series S and C of the two constants.
An integer a is the square of the power a >> 1, times tanh z when a is odd:
the left-to-right binary ladder as a recursion, which keeps every binary
prefix of a, and the power after a prefix is the same chain of floored
products whichever power it is on the way to.  So a kernel that reads a
prefix another kernel left makes every product its own ladder would make,
in whatever order the kernels come, and the terms are unchanged bit for
bit; a fractional or large a is one exp(a ln tanh z) per node, and
sech^b z a short ladder inside each term.  ``quad_phi_many`` sweeps every
uncached Phi of a request list at once, in request order (each numeric
suite of :mod:`arcmellin.verify` sends its whole grid as one batch, and
its cells read the results that batch returned); ``quad_phi`` is that
batch of one, and ``quad_c_constant`` sweeps the two constants together.

Results are cached per (family, parameters, precision), Phi under its exact
s, so 3, "3.0" and Fraction(3) share one entry; cached replies are
bit-identical.  Every integral runs inside ``lfuncs._working(prec)``, at
``prec + lfuncs.GUARD_DIGITS`` working digits under the one lock on the
global mpmath context, which also guards the node table, so the evaluators
of this module and :mod:`arcmellin.lfuncs` are safe to call concurrently.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Callable, NamedTuple

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, mpf_exp, round_nearest
from mpmath.libmp.libelefun import ln2_fixed

from .exact import DomainError, PrecisionError, _check_int
from .lfuncs import _exact, _fixed, _precision_table, _working

DEFAULT_PREC = 30
MAX_PREC = 100
MAX_LEVEL = 12
#: From this s on, every level-0 node of Phi_1 and Phi_2 is below the cutoff
#: at every precision 1 ... MAX_PREC, so ``quad_phi`` raises before any node.
_PHI_S_LIMIT = 10**19
#: G: the fixed-point scale is 2^F with F = mp.prec + G.  A term off by
#: c (1 + w + z) units of 2^-F is off by 2^-G c units of the working
#: precision, so even Phi near s = 10^19, about 2^-67, where the absolute
#: floor sums to about 2^-(mp.prec+48), keeps mp.prec - 19 relative bits,
#: about 31 bits more than the requested digits need.
_GUARD_BITS = 64
#: Bits past F at which ln tanh z and exp(a ln tanh z) are computed; each
#: value v of a node table entry, filled on integers ``_FILL_GUARD`` bits
#: further on, is within 1 + 2^(8 - _FILL_BITS) max(1, |v|) units of 2^-F.
_FILL_BITS = 16
#: Bits past F + ``_FILL_BITS`` of the integers a node table entry is
#: filled on.
_FILL_GUARD = 12
#: An integer power of tanh z below this is a ladder of at most 24 integer
#: products, within 3a < 2^14 units; from here on it is exp(a ln tanh z),
#: within a few units whatever a is, at the cost of an exp per term.
_LADDER_LIMIT = 2**12
#: A wing that takes more than 600,000 steps at its level has failed to end.
_WING_LIMIT = 600_000

_cache_lock = threading.Lock()
_quad_cache: dict[tuple, "QuadResult"] = {}
# {mp.prec: {t * 2^MAX_LEVEL: [ln z, w = 1 + exp(-t), tanh z, sech z, z as
# integers at scale 2^F, ln tanh z as (m, e) for m 2^e or None, w + z,
# ln z w z]}},
# holding one precision at a time; filled and read by _de_halfline and the
# kernels.
_node_tables: dict[int, dict[int, list]] = {}
# {mp.prec: {sign: [e^(-sign 2^(j - MAX_LEVEL)) at the fill's scale, j = 0,
# 1, ...]}}, holding the precision of the node table; read by _fill.
_factor_tables: dict[int, dict[int, list[int]]] = {}


class QuadResult(NamedTuple):
    """One quadrature answer with its computed error estimate."""

    value: mpf
    error_estimate: mpf
    nodes_used: int
    levels: int

    def __float__(self) -> float:
        return float(self.value)


class _Kernel(NamedTuple):
    """An integrand: ``term(entry, scratch)`` returns f(z) dz/dt at scale
    2^F from a node table entry, within ``units`` (1 + w + z) units of
    2^-F; ``scratch`` holds the values the kernels of one sweep share at
    that node."""

    term: Callable[[list, dict], int]
    units: int


def _scale() -> tuple[int, int]:
    """(F, the bits of the node fill) at the working precision."""
    bits = mp.prec + _GUARD_BITS
    return bits, bits + _FILL_BITS


def _atanh(x: int, scale: int) -> int:
    """atanh(x 2^-scale) at scale 2^scale, for 0 <= x 2^-scale <= e^-2: the
    series x + x^3/3 + x^5/5 ... on integers, each term gaining at least
    5.7 bits and floored, so within one unit per term."""
    power = total = x
    square = x * x >> scale
    j = 1
    while power:
        power = power * square >> scale
        j += 2
        total += power // j
    return total


def _sinhc_cosh(z: int, bits: int, wp: int) -> tuple[int, int]:
    """(sinh z / z - 1, cosh z - 1) at scale 2^wp for z < 1 at scale 2^bits:
    the series of z^2k / (2k+1)! and z^2k / (2k)! from k = 1, whose terms
    are positive and at most 1/12 of the one before.  Each term is floored
    from the one before it, so both are within two units per term of their
    values at the given z."""
    square = z * z >> 2 * bits - wp
    term = square >> 1  # z^2k / (2k)! at k = 1
    sinhc = cosh = 0
    k = 1
    while term:
        cosh += term
        sinhc += term // (2 * k + 1)
        term = (term * square >> wp) // ((2 * k + 1) * (2 * k + 2))
        k += 1
    return sinhc, cosh


def _exp_factors(sign: int, count: int, wide: int) -> list[int]:
    """The first ``count`` (at least) of e^(-sign 2^(j - MAX_LEVEL)),
    j = 0, 1, ..., at scale 2^wide, from this precision's factor table.

    Each factor is exp at wide + 16 bits, floored, so within one unit plus
    a relative 2^-(wide+16), a pure function of (sign, j, the precision)
    whichever key asked first.  Must be called inside ``lfuncs._working``.
    """
    factors = _precision_table(_factor_tables).setdefault(sign, [])
    while len(factors) < count:
        x = from_man_exp(-sign, len(factors) - MAX_LEVEL)
        factors.append(_fixed(mpf_exp(x, wide + 16, round_nearest), wide))
    return factors


def _exp_parts(x: int, ln2: int, wide: int) -> tuple[int, int]:
    """(m, n) with exp(x 2^-wide) = m 2^(n - wide), for ln2 = ln 2 at scale
    2^wide: x is reduced to n ln 2 + r with |r| <= ln 2 / 2, and m = exp r
    at scale 2^wide is the Taylor series of exp(r 2^-j), its even and odd
    terms apart, squared j times, as in mpmath's ``exp_basecase``, at j + 8
    bits past wide, so its floors stay below a unit.  ``exp_basecase``
    squares about sqrt(wide) times whatever r is; here j is sqrt(wide) -
    log2(1/|r|), and 0 for |r| below 2^-sqrt(wide), so a small r, as in
    exp(a ln tanh z) for a small a, takes a few terms and no squaring.  m
    is off by a relative (|n| + 4) 2^-wide, since ln2 is short by less than
    a unit."""
    half = ln2 >> 1
    n, r = divmod(x + half, ln2)
    r -= half
    j = max(0, math.isqrt(wide) + abs(r).bit_length() - wide)
    # r 2^-j at scale 2^bits
    bits = wide + j + 8
    r <<= 8
    square = r * r >> bits
    even = odd = 1 << bits
    term, k = square, 2
    while term:
        term //= k
        even += term
        term //= k + 1
        odd += term
        term = term * square >> bits
        k += 2
    m = even + (odd * r >> bits)
    for _ in range(j):
        m = m * m >> bits
    return m >> j + 8, n


def _exp_fixed(x: int, ln2: int, wide: int) -> int:
    """exp(x 2^-wide) at scale 2^wide from ``_exp_parts``: off by a
    relative (|n| + 4) 2^-wide plus one unit for a shift down."""
    m, n = _exp_parts(x, ln2, wide)
    return m << n if n >= 0 else m >> -n


def _fill(key: int, bits: int, wp: int) -> list:
    """The node table entry at t = key 2^-MAX_LEVEL: ln z, w, tanh z, sech z
    and z as integers at scale 2^bits, an empty slot for ln tanh z, then
    w + z and ln z w z (two floored products) from those integers.

    Every value is computed on integers at scale 2^W, W = wp +
    ``_FILL_GUARD``, and floored to scale 2^bits.  u = e^-t is the product
    of the factors e^(-+2^(j-MAX_LEVEL)) of ``_exp_factors`` over the binary
    digits j of |key|, in increasing j: for t > 0 every factor is below 1
    and u is within 2 units per factor; for t < 0 every factor is at least
    1 and u is within a relative 2^(6-W), since the wing limit keeps |key|
    below 2^32.
    ln z = t - u is exact from there.  z = exp(ln z) and x = e^-z are the
    node's two exponentials (``_exp_fixed``), so z is off by a relative
    (u + W) 2^(7-W) and x by z times that; sech z = 2x / (1 + x^2) and
    tanh z = (1 - x^2) / (1 + x^2), one integer division each, are then off
    by at most (u + W) 2^(7-W), since 2 z e^-z < 3/4.  A z below 2^-(W+2)
    is stored as 0, with tanh z 0 and sech z 1, and an x below 2^-(W+2) as
    tanh z 1 and sech z 0: each the floor of its value, to within one unit.
    Where z is computed, u + W < 2W < 2^13 for every W up to the 1000-digit
    cap, so each of the first five values is within one unit plus
    2^(bits-wp+8) max(1, |v|) units of its true value v, that is 2^(20-W)
    max(1, |v|) in absolute terms (ln z and w grow as e^-t on the left wing,
    and z as e^t on the right).
    """
    wide = wp + _FILL_GUARD
    down = wide - bits
    one = 1 << wide
    ln2 = ln2_fixed(wide)
    digits = abs(key)
    factors = _exp_factors(1 if key > 0 else -1, digits.bit_length(), wide)
    u = one
    for j in range(digits.bit_length()):
        if digits >> j & 1:
            u = u * factors[j] >> wide
    ln_z = (key << (wide - MAX_LEVEL)) - u
    if ln_z < -(wide + 2) * ln2:  # z < 2^-(W+2)
        tanh, sech, z = 0, 1 << bits, 0
    else:
        z = _exp_fixed(ln_z, ln2, wide)
        if z > (wide + 2) * ln2:  # e^-z < 2^-(W+2)
            tanh, sech = 1 << bits, 0
        else:
            x = _exp_fixed(-z, ln2, wide)
            square = x * x >> wide
            tanh = ((one - square) << bits) // (one + square)
            sech = (x << (bits + 1)) // (one + square)
        z >>= down
    ln_z >>= down
    w = (1 << bits) + (u >> down)
    return [ln_z, w, tanh, sech, z, None, w + z, (ln_z * w >> bits) * z >> bits]


def _ln_tanh(entry: list, bits: int, wp: int) -> tuple[int, int]:
    """ln tanh z of a node table entry as (m, e), the value m 2^e with about
    wp bits in m, filled into the entry on first use by one of three
    integer routes, chosen by the entry's ln z:

    - z < 2^-(wp+1): ln z itself, (ln z, -bits) from the entry, since
      tanh z = z (1 - z^2/3 ...);
    - z < 1: ln z + ln(tanh z / z), and tanh z / z = S/C for S = sinh z / z
      and C = cosh z from ``_sinhc_cosh``, so ln(tanh z / z) is
      -2 atanh((C - S)/(C + S)) with (C - S)/(C + S) <= e^-2, at scale 2^wp;
      at 30 digits the two series take up to about 25 and 40 terms at z = 1
      and a handful where z is small;
    - z >= 1: -2 atanh(q) with q = e^-2z as a mantissa of wp bits and a
      power of 2, from the entry's z by ``_exp_parts``, so it keeps its
      relative digits however close to 1 tanh z is; the series gains 5.8 z
      bits a term.

    The entry's ln z and z are within 1 + 2^-8 max(1, |v|) units of 2^-bits
    of their values v, and ln tanh z moves by at most 0.45 dz below z = 1
    (beside d ln z) and by at most 2.03 |ln tanh z| dz above, so the slot
    is within a relative (6 + z/64) 2^-bits of ln tanh z.
    """
    ln_tanh = entry[5]
    if ln_tanh is None:
        ln_z = entry[0]
        if ln_z < -(wp + 1) * ln2_fixed(bits):
            ln_tanh = ln_z, -bits
        elif ln_z < 0:
            sinhc, cosh = _sinhc_cosh(entry[4], bits, wp)
            ratio = ((cosh - sinhc) << wp) // ((2 << wp) + cosh + sinhc)
            ln_tanh = (ln_z << wp - bits) - 2 * _atanh(ratio, wp), -wp
        else:
            # q = e^-2z = m 2^(n - wp), so m is q at scale 2^(wp - n)
            m, n = _exp_parts(-entry[4] << wp - bits + 1, ln2_fixed(wp), wp)
            ln_tanh = -_atanh(m, wp - n), 1 + n - wp
        entry[5] = ln_tanh
    return ln_tanh


class _Run:
    """One kernel's state in a sweep: the exact sum S_j of its terms so far,
    the sum of its negative terms, its node count and sum of w + z, its
    level-0 reach on each side, its last relative digits and change, and its
    result once it stops; while a side is walked, its run of negligible
    terms, the floor that run must pass and the |t| 2^MAX_LEVEL where the
    side ended."""

    __slots__ = (
        "term", "units", "total", "negative", "nodes", "weight", "reach",
        "consec", "far", "floor", "d1", "change", "result",
    )

    def __init__(self, kernel: _Kernel) -> None:
        self.term, self.units = kernel
        self.reach = [0, 0]
        self.d1 = 0.0


def _de_halfline(kernels: list[_Kernel], prec: int) -> list[QuadResult]:
    """Integrate each kernel over (0, oo) with the z = exp(t - exp(-t)) node
    map, in one lockstep sweep of the nodes; returns one result per kernel.

    ``kernel.term(entry, scratch)`` takes one node table entry ([ln z, w,
    tanh z, sech z, z] as integers at scale 2^F, w = 1 + exp(-t), F =
    mp.prec + ``_GUARD_BITS``, then the slot for ln tanh z, w + z and
    ln z w z) and must return f(z) dz/dt = f(z) w z as an integer at the
    same scale, within ``kernel.units`` (1 + w + z) units.  ``scratch`` is
    a dict that every kernel sees at one node and that is dropped after it,
    where ``_tanh_power`` memoises the powers of tanh z: a value there is
    the integer any kernel of the sweep would compute by the same
    operations, so no value per batch is kept in the node table, and a
    term is the same integer whichever kernel made what it read.

    On each level and side the nodes are walked once, for every kernel still
    running.  Each kernel keeps its own wing end (3 negligible terms past
    its own reach), level-0 guard, stop rule and error estimate, so its
    result is the one a sweep of that kernel alone gives; its node count and
    sum of w + z are the side's running totals when its wing ends.  Each
    level's sum is the exact integer sum of every term so far, rounded to
    mp.prec once.  A kernel stops at the first level j >= 2 whose predicted
    digits reach ``mp.dps + 10``, or the first level j >= 3 whose
    level-to-level change is below 10^-(prec+2) min(max(1, |I_j|), |I_j| +
    2 h |sum of the negative terms|), unless its error estimate there is
    above 10^-prec |I_j|.  Raises :class:`PrecisionError`, for the whole sweep,
    when a kernel reaches ``MAX_LEVEL`` first, or when level 0 finds no term
    of a kernel above the negligibility cutoff.

    Must be called inside ``lfuncs._working``, whose lock also guards the
    node table.
    """
    cutoff = mpf(10) ** (-(mp.dps + 5))
    target = mpf(10) ** (-(prec + 2))
    request = mpf(10) ** -prec
    bits, wp = _scale()
    wprec = mp.prec
    # |term| < cut is |term| 2^-F < cutoff
    cut = int(mp.floor(mp.ldexp(cutoff, bits))) + 1
    table = _precision_table(_node_tables)
    make_mpf = mp.make_mpf
    runs = [_Run(kernel) for kernel in kernels]

    def fixed(total: int, level: int) -> mpf:
        """total 2^-(F + level), rounded once."""
        return make_mpf(from_man_exp(total, -bits - level, wprec, round_nearest))

    def wing(live: list[_Run], level: int, start: int, step: int) -> None:
        """Add to each run of ``live`` its terms at t = k 2^-level for
        k = start, start+step, ... on both sides.

        A run's side ends after 3 consecutive terms below the negligibility
        cutoff, counted only at |t| 2^MAX_LEVEL beyond that side's reach.
        Level 0 records each side's reach: the largest |t| 2^MAX_LEVEL with
        a term above the cutoff.
        """
        shift = MAX_LEVEL - level
        stride = step << shift
        first = start << shift
        limit = _WING_LIMIT << shift
        for side, sign in enumerate((1, -1)):
            for run in live:
                run.consec = 0
                run.floor = run.reach[side]
            walking = live
            weight = 0
            # |t| 2^MAX_LEVEL of the node, and its key in the table
            at, key, kstride = first, sign * first, sign * stride
            scratch = {}
            while walking:
                entry = table.get(key)
                if entry is None:
                    entry = table[key] = _fill(key, bits, wp)
                weight += entry[6]
                if scratch:  # a new one for each node the kernels share
                    scratch = {}
                ended = False
                for run in walking:
                    term = run.term
                    val = term(entry, scratch)
                    run.total += val
                    if val >= cut:
                        run.consec = 0
                    elif val > -cut:  # negligible
                        if val < 0:
                            run.negative += val
                        if at > run.floor:
                            run.consec += 1
                            if run.consec == 3:
                                run.nodes += (at - first) // stride + 1
                                run.weight += weight
                                run.far = at
                                ended = True
                    else:
                        run.negative += val
                        run.consec = 0
                at += stride
                key += kstride
                if at > limit:
                    raise PrecisionError("double-exponential wing failed to terminate")
                if ended:
                    walking = [run for run in walking if run.consec < 3]
            if not level:
                # every level-0 node is beyond the floor 0, so a side ends
                # three nodes after its last term above the cutoff, or at
                # t = 3 with none
                for run in live:
                    run.reach[side] = run.far - (3 << shift)

    def digits(change: mpf, value: mpf) -> float:
        """Relative digits of a level-to-level change, at most 2 mp.dps."""
        if not value:
            return 0.0
        if not change:
            return 2.0 * mp.dps
        return min(math.log10(float(abs(value) / change)), 2.0 * mp.dps)

    def result(run: _Run, level: int, value: mpf, d2: float) -> QuadResult:
        d1, nodes = run.d1, run.nodes
        h = mp.ldexp(1, -level)
        # The same prediction with the growth capped at 1.5 instead of 2: at
        # early levels the digits can grow by as little as 1.56 times.
        remainder = abs(value) * mpf(10) ** -min(d1 * d1 / d2, 1.5 * d1) if d2 > 0 else run.change
        if level == 3 and prec < 5:
            # A level-3 stop below 5 digits can follow a level 0 that saw
            # almost none of the peak, after which the digits grew by only
            # 1.3 times: Phi_1(219) at 1 digit predicted 2.0e-9 against a
            # true error of 1.1e-8.  Its own change bounds it instead.
            remainder = max(remainder, run.change)
        # Relative rounding: nodes 2^-wprec h sum |f|, the recursive-sum bound
        # of a floating-point sum, which also covers the relative errors inside
        # each term and the one rounding of the value; h sum |f| is at most
        # |I| + 2 h |sum of the negative terms|.
        rounding = nodes * mp.ldexp(abs(value) + 2 * h * abs(fixed(run.negative, 0)), -wprec)
        # Absolute: every term within units (1 + w + z) units of 2^-F, each
        # entering the exact sum with weight h.
        absolute = mp.ldexp(run.units * ((nodes << bits) + run.weight), -2 * bits - level)
        # The dropped tail: on each side of each level, terms below the cutoff
        # that shrink by at least cutoff^(2h) per step, since near either end
        # ln|term| of a double-exponential rule falls in t at least as fast as
        # |ln|term|| itself.
        tail = 2 * (level + 1) * h * cutoff / (1 - cutoff ** (2 * h))
        error = remainder + rounding + absolute + tail
        return QuadResult(value=value, error_estimate=error, nodes_used=nodes, levels=level)

    entry = table.get(0)
    if entry is None:
        entry = table[0] = _fill(0, bits, wp)
    scratch = {}
    for run in runs:
        run.total = center = run.term(entry, scratch)
        run.negative = min(center, 0)
        run.nodes = 1
        run.weight = entry[6]
    centers = [run.total for run in runs]
    # the finer levels may not end a wing inside level 0's reach
    wing(runs, 0, 1, 1)
    for run, center in zip(runs, centers):
        # a level 0 that sees no term above the cutoff stepped over the
        # integrand, and no finer level would look for it
        if run.reach == [0, 0] and -cut < center < cut:
            raise PrecisionError(
                "double-exponential quadrature found no level-0 term above the "
                f"cutoff 1e-{mp.dps + 5}"
            )
        run.change = abs(fixed(run.total, 0))
    running = runs
    for level in range(1, MAX_LEVEL + 1):
        # S_j: the exact sum of every term through level j, I_j = S_j 2^-(F+j)
        previous = [run.total for run in running]
        wing(running, level, 1, 2)
        still = []
        for run, prev_total in zip(running, previous):
            value = fixed(run.total, level)
            run.change = change = abs(fixed(run.total - 2 * prev_total, level))
            # d1, d2: the relative digits of the last two level-to-level changes
            d2 = run.d1
            run.d1 = d1 = digits(change, value)
            # digits grow by at most a factor 2 per level, so predict I_level
            # to min(d1^2/d2, 2 d1) digits (Bailey, Jeyabalan and Li 2005); d2
            # is 0 at level 1
            predicted = min(d1 * d1 / d2, 2 * d1) if d2 > 0 else 0.0
            stop = predicted >= mp.dps + 10
            # levels 1 and 2 can meet a loose change target by coincidence
            if not stop and level >= 3:
                # relative to |I| (to 1 above 1); where terms cancel, to
                # h sum |f| <= |I| + 2 h |sum of the negative terms| instead,
                # so a value near 0 can still stop
                size = abs(value)
                stop = change < target * min(max(mpf(1), size), size + 2 * abs(fixed(run.negative, level)))
            if stop:
                answer = result(run, level, value, d2)
                # an estimate above the request runs one more level
                stop = answer.error_estimate <= request * abs(value)
            if stop:
                run.result = answer
            else:
                still.append(run)
        running = still
        if not running:
            break
    else:
        raise PrecisionError(
            f"double-exponential quadrature missed its target 1e-{prec + 2} "
            f"after {MAX_LEVEL} levels (last change {mp.nstr(running[0].change, 3)})"
        )
    return [run.result for run in runs]


def _cached(keys: list[tuple], prec: int, kernels: Callable[[list[tuple]], list[_Kernel]]) -> dict:
    """{key: result} for ``keys``: the cached results, and for the keys not
    yet cached, in their order, one sweep of their ``kernels(todo)``, whose
    results are cached.  Must be called inside ``lfuncs._working(prec)``."""
    with _cache_lock:
        found = {key: _quad_cache.get(key) for key in keys}
    todo = [key for key, hit in found.items() if hit is None]
    if todo:
        results = _de_halfline(kernels(todo), prec)
        with _cache_lock:
            for key, result in zip(todo, results):
                found[key] = _quad_cache.setdefault(key, result)
    return found


def _ladder_bits(n: int) -> tuple[bool, ...]:
    """The binary digits of n >= 1 after its leading 1, as a ladder takes them."""
    return tuple(bit == "1" for bit in bin(n)[3:])


def _tanh_power(bits: int, wp: int) -> Callable[[list, dict, object], int]:
    """(entry, scratch, a) -> tanh^a z at scale 2^bits for a node table
    entry, left in the node's scratch under the key a for every a but 1.

    An int a >= 1 is the left-to-right binary ladder of x = tanh z, as a
    recursion: tanh z for a = 1, and otherwise the square of the power
    a >> 1, times x when a is odd, each product shifted down by ``bits``.
    For x within e units of the true value, the result is within
    a e + a - 1 units.  The power after each binary prefix m of a is the
    same integer whichever power it is on the way to, so every prefix a
    kernel reaches is kept, and a later kernel of the sweep that passes m
    reads it in any order.  Any other a is a pair (m, e) of ``_exponent``,
    and tanh^a z is exp(y) for y = a ln tanh z: the product of the two
    mantissas, exact, shifted once to the scale 2^wp, then ``_exp_fixed``
    at wp bits, floored to ``bits``, and 0 where y < -(bits + 2) ln 2.  So
    a and ln tanh z each keep their relative digits: a fixed-point a would
    lose the digits of a = 10^-60, and a fixed-point ln tanh z those of a
    large a at the node where tanh^a z is about 1/2, where ln tanh z is
    about -1/a.  ln tanh z is within a relative (6 + z/64) 2^-bits
    (``_ln_tanh``), and |y| e^y is at most 1/e, and below 2^-20 from z = 32
    on for a < 2^64 (every Phi); so y moves the result by at most 2.4
    units, and with the exponential within a relative (bits + 6) 2^-wp and
    the floor, the result is within 4 units.
    """
    ln2 = ln2_fixed(wp)
    # exp(y) < 2^-(bits+2) floors to 0
    negligible = -(bits + 2) * ln2

    def power(entry: list, scratch: dict, a) -> int:
        if a == 1:
            return entry[2]
        result = scratch.get(a)
        if result is None:
            if isinstance(a, int):
                result = power(entry, scratch, a >> 1)
                result = result * result >> bits
                if a & 1:
                    result = result * entry[2] >> bits
            else:
                man, exp = entry[5] or _ln_tanh(entry, bits, wp)
                shift = a[1] + exp + wp
                y = a[0] * man
                y = y << shift if shift >= 0 else y >> -shift
                result = 0 if y < negligible else _exp_fixed(y, ln2, wp) >> wp - bits
            scratch[a] = result
        return result

    return power


def _exponent(tanh_power, wp: int):
    """The power a of tanh z as a kernel takes it: an int below
    ``_LADDER_LIMIT``, a binary ladder, and otherwise the pair (m, e) of
    a = m 2^e, exact for an int and with m = floor(a 2^-e) of wp bits for
    a Fraction, the exponent of exp(a ln tanh z)."""
    if isinstance(tanh_power, Fraction):
        if tanh_power.denominator != 1:
            num, den = tanh_power.numerator, tanh_power.denominator
            shift = wp + den.bit_length() - num.bit_length()
            return (num << shift) // den, -shift
        tanh_power = tanh_power.numerator
    return tanh_power if tanh_power < _LADDER_LIMIT else (tanh_power, 0)


def _monomial(tanh_power, sech_power: int, log_z: bool = False, share: bool = False) -> _Kernel:
    """The term tanh^a z sech^b z w, or tanh^a z sech^b z (ln z w z) with
    ``log_z``, as a kernel on the node table.

    a = ``tanh_power`` is an int or a Fraction, b = ``sech_power`` an
    int >= 1.  The node values are within 1 + 2^-8 units, so an int a
    below ``_LADDER_LIMIT`` is a binary ladder within 3a units, and
    sech^b z, always a ladder inside the term, within 3b; any other a is
    exp(a ln tanh z) at F + ``_FILL_BITS`` bits on integers, floored to 0
    below 2^-(F+2), within 4 units (``_tanh_power``).  The product of the
    two powers is within e_pq = e_a + 3b + 1
    units, since each is at most 1; w multiplies it by at most w, and
    ln z w z, whose own error is a few units times 1 + w + z, by at most
    6 (1 + w + z) on every node where sech^b z is above a unit (z below
    about F).  A kernel alone with an int a runs its tanh ladder inside its
    term too, one call per term; with ``share``, for a sweep of several
    kernels, or with any other a, tanh^a z is ``_tanh_power``'s, memoised
    in the node's scratch.  Must be called inside ``lfuncs._working``.
    """
    bits, wp = _scale()
    a = _exponent(tanh_power, wp)
    error_pq = (3 * a if isinstance(a, int) else 4) + 3 * sech_power + 1
    # w, or ln z w z with log_z
    slot = 7 if log_z else 1
    sech_bits = _ladder_bits(sech_power)
    if isinstance(a, int) and not share:
        tanh_bits = _ladder_bits(a)

        def term(entry, scratch):
            x = p = entry[2]
            for odd in tanh_bits:
                p = p * p >> bits
                if odd:
                    p = p * x >> bits
            x = q = entry[3]
            for odd in sech_bits:
                q = q * q >> bits
                if odd:
                    q = q * x >> bits
            return (p * q >> bits) * entry[slot] >> bits

    else:
        power = _tanh_power(bits, wp)

        def term(entry, scratch):
            x = q = entry[3]
            for odd in sech_bits:
                q = q * q >> bits
                if odd:
                    q = q * x >> bits
            return (power(entry, scratch, a) * q >> bits) * entry[slot] >> bits

    return _Kernel(term, 8 * (error_pq + 4) if log_z else error_pq + 2)


def _c_constant_term(which: int) -> _Kernel:
    """The term sech^{3-which} z (1 - z/X) w of ``quad_c_constant``, with
    X = tanh z for which = 1 and X = tanh z / sech z = sinh z for which = 2,
    as a kernel on the node table.

    The bracket is formed on integers.  Below z = 1 it is (S - C)/S or
    (S - 1)/S for S = sinh z / z and C = cosh z, from the series of
    ``_sinhc_cosh`` at F + ``_FILL_BITS`` bits, whose terms all have the
    bracket's sign: near z = 0, where it is about -z^2/3 or z^2/6, nothing
    cancels, so it keeps its relative digits rather than losing 2 log2(1/z)
    bits as 1 - z/X would, and it is within two units of 2^-F, the floor
    and the entry's z.  The two series are left in the node's scratch for
    the other constant of the sweep.  From z = 1 on it is (tanh z - z) /
    tanh z or (tanh z - z sech z) / tanh z, one integer division from the
    entry, within 3 + 2z units, which sech^2 z or sech z (within 6 units)
    brings below 4.  Times w, the term is within 32 (1 + w + z) units.
    Must be called inside ``lfuncs._working``.
    """
    bits, wp = _scale()

    def term(entry, scratch):
        ln_z, w, tanh_z, sech_z, z = entry[:5]
        if ln_z < 0:
            series = scratch.get("sinh z / z, cosh z")
            if series is None:
                series = scratch["sinh z / z, cosh z"] = _sinhc_cosh(z, bits, wp)
            sinhc, cosh = series
            bracket = ((sinhc - cosh if which == 1 else sinhc) << bits) // ((1 << wp) + sinhc)
        else:
            bracket = ((tanh_z - (z if which == 1 else z * sech_z >> bits)) << bits) // tanh_z
        sech = sech_z * sech_z >> bits if which == 1 else sech_z
        return (bracket * sech >> bits) * w >> bits

    return _Kernel(term, 32)


def _phi_key(which: int, s, prec: int) -> tuple:
    """The cache key of Phi_which(s) at ``prec``, with s as the exact
    Fraction it is (a finite mpf is a dyadic rational); raises for a
    ``which`` or an s that ``quad_phi`` refuses.  Must be called inside
    ``lfuncs._working``."""
    _check_int("which", which, 1, 2)
    sx = _exact(s)
    if not sx > 1:
        raise DomainError(f"Phi_{which} converges only for s > 1, got s={s}")
    if isinstance(sx, mpf):
        if not mp.isfinite(sx):
            raise DomainError(f"Phi_{which} needs a finite s, got s={s}")
        man, exp = sx.man_exp
        sx = Fraction(man) * Fraction(2) ** exp
    if sx >= _PHI_S_LIMIT:
        raise PrecisionError(
            f"Phi_{which} at s >= 10^19 has no level-0 term above the cutoff "
            f"at any precision; got s={s}"
        )
    return ("phi", which, sx, prec)


def _phi_kernels(keys: list[tuple]) -> list[_Kernel]:
    """The kernels of the Phi keys, which share their powers of tanh z
    through the node's scratch when there are several.  Must be called inside
    ``lfuncs._working``."""
    # sech^2 for Phi_1, sech^1 for Phi_2, and s - 1 exact
    return [_monomial(key[2] - 1, 3 - key[1], share=len(keys) > 1) for key in keys]


def quad_phi_many(requests, prec: int = DEFAULT_PREC) -> list[QuadResult]:
    """[quad_phi(which, s, prec) for (which, s) in ``requests``].

    Every request is checked before any node, and raises as ``quad_phi``
    would.  The integrals not yet cached, each once however often it is
    requested, then run in request order as one lockstep sweep, which walks
    each node once for all of them and shares the powers of tanh z, and
    their binary prefixes, that they have in common; each result is
    bit-identical to the one a sweep of that integral alone gives, whatever
    the order of the requests.
    """
    _check_int("prec", prec, 1, MAX_PREC)
    with _working(prec):
        keys = [_phi_key(which, s, prec) for which, s in requests]
        found = _cached(keys, prec, _phi_kernels)
    return [found[key] for key in keys]


def quad_phi(which: int, s, prec: int = DEFAULT_PREC) -> QuadResult:
    """Mellin transform value Phi_which(s), s > 1.

    which=1 integrates x^{s-1}/arctanh(x), which=2 integrates
    x^{s-1}/(sqrt(1-x^2) arctanh(x)), both over (0, 1).  The value is
    cached under the exact s, so 3, "3.0" and Fraction(3) share one entry.
    """
    return quad_phi_many([(which, s)], prec)[0]


def quad_log_family(q: int, n_exponent: int, prec: int = DEFAULT_PREC) -> QuadResult:
    """int_0^oo sinh^{2q+1}(z) ln(z) / cosh^N(z) dz with N = n_exponent > 2q+1."""
    _check_int("prec", prec, 1, MAX_PREC)
    _check_int("q", q, None)
    _check_int("N", n_exponent, None)
    if q < 0 or 2 * q + 1 >= n_exponent:
        raise DomainError(
            f"convergence requires 2q+1 < N with q >= 0; got q={q}, N={n_exponent}"
        )

    def kernels(todo):
        return [_monomial(2 * q + 1, n_exponent - 2 * q - 1, log_z=True)]

    key = ("log", q, n_exponent, prec)
    with _working(prec):
        return _cached([key], prec, kernels)[key]


def quad_sinh_over_z(q: int, n_exponent: int, prec: int = DEFAULT_PREC) -> QuadResult:
    """int_0^oo sinh^{2q}(z) / (z cosh^N(z)) dz with 0 < 2q < N = n_exponent."""
    _check_int("prec", prec, 1, MAX_PREC)
    _check_int("q", q, None)
    _check_int("N", n_exponent, None)
    if not 0 < 2 * q < n_exponent:
        raise DomainError(
            f"convergence requires 0 < 2q < N; got q={q}, N={n_exponent}"
        )

    key = ("soz", q, n_exponent, prec)
    with _working(prec):
        return _cached([key], prec, lambda todo: [_monomial(2 * q, n_exponent - 2 * q)])[key]


def quad_c_constant(which: int, prec: int = DEFAULT_PREC) -> QuadResult:
    """The constant term of Phi_which(s) - 1/(s-1) at s -> 1+, as an integral:

    which=1: int_0^1 (1/arctanh(x) - 1/x) dx,
    which=2: int_0^1 (1/(sqrt(1-x^2) arctanh(x)) - 1/x) dx,

    both evaluated on (0, oo) through x = tanh(z), as
    int sech^2 z (1 - z coth z) dz / z and int sech z (1 - z / sinh z) dz / z.

    The brackets are formed on integers, below z = 1 from the series of
    sinh z / z - 1 and cosh z - 1 in z^2, whose terms do not cancel, so
    they keep their relative digits near z = 0, where the brackets are about
    -z^2/3 and z^2/6, and a term is off by a few units of 2^-F, far below
    the rounding floor of the error estimate.  Both constants read those
    series at every node, so a miss computes whichever of the two is not
    cached in one sweep.
    """
    _check_int("prec", prec, 1, MAX_PREC)
    _check_int("which", which, 1, 2)
    keys = [("c_constant", 1, prec), ("c_constant", 2, prec)]
    with _working(prec):
        found = _cached(keys, prec, lambda todo: [_c_constant_term(key[1]) for key in todo])
    return found[keys[which - 1]]
