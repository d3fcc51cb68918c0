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
is computed only to confirm the one before.  A change below 10^-(prec+2)
at a level j >= 3 also stops it (at levels 1 and 2 two coarse sums can
agree by coincidence, which below 5 requested digits ended integrals with
under one correct digit), and a level cap reached first raises
:class:`PrecisionError`.
The reported error estimate is computed, never asserted, and is meant as an
upper bound: the same prediction with the growth capped at 1.5 instead of 2,
min(d1^2/d2, 1.5 d1) digits, plus a relative rounding floor of nodes
2^-wprec times the sum of |terms|, plus the absolute floor of the
fixed-point terms (below), plus a bound on the dropped tails, whose terms
are each below the cutoff.

The sums run on Python integers at the scale 2^F, F = wprec +
``_GUARD_BITS``.  Every node is t = k 2^-level, so every integrand samples
the same grid.  A node table, one for the current working precision and
replaced when the precision changes, keeps the integrand-independent values
ln z, w = 1 + exp(-t), tanh z, sech z and z at each node as integers at
scale 2^F, keyed by the integer t 2^MAX_LEVEL.  A node is filled at
F + ``_FILL_BITS`` bits, with tanh z = sinh z / cosh z and sech z = 1/cosh z
from one ``mpf_cosh_sinh``: one exp(z) and exp(-z), with the bits that
sinh z would lose below z = 1 added to its precision (an expm1).  Its sixth
slot, ln tanh z, is filled on first use, for the kernels that need it:
ln(tanh z) below z = 1 and log1p(-x) - log1p(x), x = exp(-2z), above, so
it keeps its relative digits where tanh z is close to 1.

Each integrand is a kernel: a term function of one table entry that
returns f(z) dz/dt at scale 2^F, as products of the entry's integers, each
shifted down by F.  ``_monomial`` writes the Mellin and sinh/z families as
tanh^a z sech^b z w and the log family as tanh^a z sech^b z (ln z w z); an
integer power below ``_LADDER_LIMIT`` is a left-to-right binary ladder of
such products, and a larger or fractional a of tanh z is exp(a ln tanh z),
whose argument near the peak of a large s is O(1), so its error stays a few
units whatever s is.  ``_c_constant_term`` writes the two constants as
sech^{3-which} z (1 - z/X) w, X = tanh z or sinh z, with the bracket formed
once in ``mpf`` from z/tanh z = exp(ln z - ln tanh z), which keeps its
relative digits at small z.  Each kernel carries ``units``, a bound c on
its term's error in units of 2^-F times 1 + w + z at the node; the level
sums are exact integers, so the absolute floor of the estimate is
c h 2^-F sum (1 + w + z) over every node summed.

Results are cached per (family, parameters, precision); cached replies are
bit-identical.  Every integral runs inside ``lfuncs._working(prec)``, at
``prec + lfuncs.GUARD_DIGITS`` working digits under the one lock on the
global mpmath context, which also guards the node table, so the evaluators
of this module and :mod:`arcmellin.lfuncs` are safe to call concurrently.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from mpmath import mp, mpf
from mpmath.libmp import (
    fone, from_int, from_man_exp, from_rational, mpf_cosh_sinh, mpf_div, mpf_exp, mpf_log,
    mpf_lt, mpf_mul, mpf_neg, mpf_shift, mpf_sub, round_nearest,
)

from .exact import DomainError, PrecisionError
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
#: Bits past F at which a node table entry and ln tanh z are computed.
_FILL_BITS = 16
#: An integer power of tanh z below this is a ladder of at most 24 integer
#: products, within 3a < 2^14 units; from here on it is exp(a ln tanh z),
#: within a few units whatever a is, at the cost of an exp per term.
_LADDER_LIMIT = 2**12

_cache_lock = threading.Lock()
_quad_cache: dict[tuple, "QuadResult"] = {}
# {mp.prec: {t * 2^MAX_LEVEL: [ln z, 1 + exp(-t), tanh z, sech z, z as
# integers at scale 2^F, ln tanh z as a raw mpf or None]}}, holding one
# precision at a time; filled and read by _de_halfline and the kernels.
_node_tables: dict[int, dict[int, list]] = {}


@dataclass(frozen=True)
class QuadResult:
    """One quadrature answer with its computed error estimate."""

    value: mpf
    error_estimate: mpf
    nodes_used: int
    levels: int

    def __float__(self) -> float:
        return float(self.value)


class _Kernel(NamedTuple):
    """An integrand: ``term(entry)`` returns f(z) dz/dt at scale 2^F from a
    node table entry, within ``units`` (1 + w + z) units of 2^-F."""

    term: Callable[[list], int]
    units: int


def _check_prec(prec: int) -> None:
    if not 1 <= prec <= MAX_PREC:
        raise DomainError(f"quadrature precision must be in [1, {MAX_PREC}], got {prec}")


def _scale() -> tuple[int, int]:
    """(F, the bits of the node fill) at the working precision."""
    bits = mp.prec + _GUARD_BITS
    return bits, bits + _FILL_BITS


def _atanh(x: tuple, wp: int) -> tuple:
    """atanh(x) for a raw mpf 0 < x <= e^-2, to about wp relative bits: the
    series x + x^3/3 + x^5/5 ... on integers at the scale 2^s where x 2^s
    has wp bits, each term gaining at least 5.7 bits."""
    scale = wp - (x[2] + x[3])
    power = total = _fixed(x, scale)
    square = power * power >> scale
    j = 1
    while power:
        power = power * square >> scale
        j += 2
        total += power // j
    return from_man_exp(total, -scale)


def _fill(key: int, bits: int, wp: int) -> list:
    """The node table entry at t = key 2^-MAX_LEVEL: ln z, w, tanh z, sech z
    and z as integers at scale 2^bits, and an empty slot for ln tanh z.

    tanh z and sech z come from one cosh and sinh, which ``mpf_cosh_sinh``
    takes from one exp(z) and exp(-z), with the bits that sinh z loses
    below z = 1 added to its precision.  Each value is the floor of its
    value at wp bits, so within one unit of the true value plus a relative
    2^(bits-wp+8) (ln z and w grow as e^-t on the left wing, and sech z
    carries the relative error of z times z).
    """
    rnd = round_nearest
    t = from_man_exp(key, -MAX_LEVEL)
    u = mpf_exp(mpf_neg(t), wp, rnd)
    ln_z = mpf_sub(t, u, wp, rnd)
    z = mpf_exp(ln_z, wp, rnd)
    cosh, sinh = mpf_cosh_sinh(z, wp, rnd)
    return [
        _fixed(ln_z, bits),
        (1 << bits) + _fixed(u, bits),
        _fixed(mpf_div(sinh, cosh, wp, rnd), bits),
        _fixed(mpf_div(fone, cosh, wp, rnd), bits),
        _fixed(z, bits),
        None,
    ]


def _ln_tanh(entry: list, bits: int, wp: int) -> tuple:
    """ln tanh z of a node table entry as a raw mpf, filled on first use.

    z is exp of the entry's ln z, so z carries a relative error of about
    2^-bits.  Below z = 1, ln tanh z is the log of tanh z from
    ``mpf_cosh_sinh``, which keeps its relative digits at small z, or ln z
    itself where z < 2^-wp; from z = 1 on it is
    log1p(-x) - log1p(x) = -2 atanh(x) with x = exp(-2z), so its relative
    error is about 2z 2^-bits.
    """
    ln_tanh = entry[5]
    if ln_tanh is None:
        rnd = round_nearest
        ln_z = from_man_exp(entry[0], -bits)
        z = mpf_exp(ln_z, wp, rnd)
        if -(z[2] + z[3]) > wp:  # tanh z = z (1 - z^2/3 ...)
            ln_tanh = ln_z
        elif mpf_lt(z, fone):
            ln_tanh = mpf_log(mpf_cosh_sinh(z, wp, rnd, tanh=1), wp, rnd)
        else:
            ln_tanh = mpf_neg(mpf_shift(_atanh(mpf_exp(mpf_neg(mpf_shift(z, 1)), wp, rnd), wp), 1))
        entry[5] = ln_tanh
    return ln_tanh


def _de_halfline(kernel: _Kernel, prec: int, max_level: int = MAX_LEVEL) -> QuadResult:
    """Integrate over (0, oo) with the z = exp(t - exp(-t)) node map.

    ``kernel.term(entry)`` takes one node table entry, [ln z, w, tanh z,
    sech z, z] as integers at scale 2^F (w = 1 + exp(-t), F = mp.prec +
    ``_GUARD_BITS``) and a slot for ln tanh z, and must return
    f(z) dz/dt = f(z) w z as an integer at the same scale, within
    ``kernel.units`` (1 + w + z) units.  Each level's sum is the exact
    integer sum of every term so far, rounded to mp.prec once.
    ``max_level`` may not exceed ``MAX_LEVEL``.  Stops at the first level
    j >= 2 whose predicted digits reach ``mp.dps + 10``, or the first level
    j >= 3 whose level-to-level change meets the target; raises
    :class:`PrecisionError` when ``max_level`` is reached first, or when
    level 0 finds no term above the negligibility cutoff.

    Must be called inside ``lfuncs._working``, whose lock also guards the
    node table.
    """
    cutoff = mpf(10) ** (-(mp.dps + 5))
    target = mpf(10) ** (-(prec + 2))
    bits, wp = _scale()
    wprec = mp.prec
    # |term| < cut is |term| 2^-F < cutoff
    cut = int(mp.floor(mp.ldexp(cutoff, bits))) + 1
    table = _precision_table(_node_tables)
    term = kernel.term
    make_mpf = mp.make_mpf

    def fixed(total: int, level: int) -> mpf:
        """total 2^-(F + level), rounded once."""
        return make_mpf(from_man_exp(total, -bits - level, wprec, round_nearest))

    def wing(level: int, start: int, step: int, reach=(0, 0)) -> tuple[int, int, int, int, list[int]]:
        """Sum the terms at t = k * 2^-level for k = start, start+step, ...
        on both sides.

        A side ends after 3 consecutive terms below the negligibility cutoff,
        counted only at |t| 2^MAX_LEVEL beyond that side's ``reach``.  Returns
        the exact sum, the sum of the negative terms, the node count, the sum
        of w + z at scale 2^F, and each side's reach: the largest
        |t| 2^MAX_LEVEL with a term above the cutoff.
        """
        shift = MAX_LEVEL - level
        total = negative = count = weight = 0
        reached = []
        for sign, floor in zip((1, -1), reach):
            consec = 0
            k = start
            far = 0
            while consec < 3:
                key = (sign * k) << shift
                entry = table.get(key)
                if entry is None:
                    entry = table[key] = _fill(key, bits, wp)
                val = term(entry)
                total += val
                weight += entry[1] + entry[4]
                if val < 0:
                    negative += val
                count += 1
                if -cut < val < cut:
                    if k << shift > floor:
                        consec += 1
                else:
                    consec = 0
                    far = k << shift
                k += step
                if k > 600_000:
                    raise PrecisionError("double-exponential wing failed to terminate")
            reached.append(far)
        return total, negative, count, weight, reached

    def digits(change: mpf, value: mpf) -> float:
        """Relative digits of a level-to-level change, at most 2 mp.dps."""
        if not value:
            return 0.0
        if not change:
            return 2.0 * mp.dps
        return min(math.log10(float(abs(value) / change)), 2.0 * mp.dps)

    entry = table.get(0)
    if entry is None:
        entry = table[0] = _fill(0, bits, wp)
    center = term(entry)
    negative = min(center, 0)
    weight = entry[1] + entry[4]
    # the finer levels may not end a wing inside level 0's reach
    wing_sum, wing_negative, nodes, wing_weight, reach = wing(0, 1, 1)
    nodes += 1
    # a level 0 that sees no term above the cutoff stepped over the
    # integrand, and no finer level would look for it
    if reach == [0, 0] and -cut < center < cut:
        raise PrecisionError(
            "double-exponential quadrature found no level-0 term above the "
            f"cutoff 1e-{mp.dps + 5}"
        )
    negative += wing_negative
    weight += wing_weight
    # S_j: the exact sum of every term through level j, I_j = S_j 2^-(F+j)
    prev_total = center + wing_sum
    value = fixed(prev_total, 0)
    change = abs(value)
    d1 = 0.0
    for level in range(1, max_level + 1):
        odd_sum, odd_negative, n, odd_weight, _ = wing(level, 1, 2, reach)
        nodes += n
        negative += odd_negative
        weight += odd_weight
        total = prev_total + odd_sum
        value = fixed(total, level)
        change = abs(fixed(total - 2 * prev_total, level))
        # d1, d2: the relative digits of the last two level-to-level changes
        d1, d2 = digits(change, value), d1
        # digits grow by at most a factor 2 per level, so predict I_level to
        # min(d1^2/d2, 2 d1) digits (Bailey, Jeyabalan and Li 2005); d2 is 0
        # at level 1
        predicted = min(d1 * d1 / d2, 2 * d1) if d2 > 0 else 0.0
        # levels 1 and 2 can meet a loose change target by coincidence
        if predicted >= mp.dps + 10 or (level >= 3 and change < target * max(mpf(1), abs(value))):
            break
        prev_total = total
    else:
        raise PrecisionError(
            f"double-exponential quadrature missed its target 1e-{prec + 2} "
            f"after {max_level} levels (last change {mp.nstr(change, 3)})"
        )
    h = mp.ldexp(1, -level)
    # The same prediction with the growth capped at 1.5 instead of 2: at
    # early levels the digits can grow by as little as 1.56 times.
    remainder = abs(value) * mpf(10) ** -min(d1 * d1 / d2, 1.5 * d1) if d2 > 0 else change
    # Relative rounding: nodes 2^-wprec h sum |f|, the recursive-sum bound of
    # a floating-point sum, which also covers the relative errors inside each
    # term and the one rounding of the value; h sum |f| is at most
    # |I| + 2 h |sum of the negative terms|.
    rounding = nodes * mp.ldexp(abs(value) + 2 * h * abs(fixed(negative, 0)), -wprec)
    # Absolute: every term within units (1 + w + z) units of 2^-F, each
    # entering the exact sum with weight h.
    absolute = mp.ldexp(kernel.units * ((nodes << bits) + weight), -2 * bits - level)
    # The dropped tail: on each side of each level, terms below the cutoff
    # that shrink by at least cutoff^(2h) per step, since near either end
    # ln|term| of a double-exponential rule falls in t at least as fast as
    # |ln|term|| itself.
    tail = 2 * (level + 1) * h * cutoff / (1 - cutoff ** (2 * h))
    error = remainder + rounding + absolute + tail
    return QuadResult(value=value, error_estimate=error, nodes_used=nodes, levels=level)


def _cached_quad(key: tuple, prec: int, make_integrand) -> QuadResult:
    with _cache_lock:
        hit = _quad_cache.get(key)
    if hit is not None:
        return hit
    with _working(prec):
        result = _de_halfline(make_integrand(), prec)
    with _cache_lock:
        return _quad_cache.setdefault(key, result)


def _ladder(n: int, bits: int) -> Callable[[int], int]:
    """x -> (x 2^-bits)^n at scale 2^bits: a left-to-right binary ladder of
    products, each shifted down by ``bits``.  For 0 <= x <= 2^bits within
    e units of the true value, the result is within n e + n - 1 units."""
    if n == 0:
        return lambda x: 1 << bits
    pattern = bin(n)[3:]

    def power(x: int) -> int:
        result = x
        for bit in pattern:
            result = result * result >> bits
            if bit == "1":
                result = result * x >> bits
        return result

    return power


def _monomial(tanh_power, sech_power: int, log_z: bool = False) -> _Kernel:
    """The term tanh^a z sech^b z w, or tanh^a z sech^b z (ln z w z) with
    ``log_z``, as a kernel on the node table.

    a = ``tanh_power`` is an int, a Fraction or an mpf, b = ``sech_power``
    an int >= 1.  The node values are within 1 + 2^-8 units, so an int a
    below ``_LADDER_LIMIT`` is a ``_ladder`` within 3a units, and sech^b z
    within 3b; any other a is exp(a ln tanh z) at F + ``_FILL_BITS`` bits,
    floored to 0 below 2^-(F+2), within 3 + z units (ln tanh z is off by
    about 2z 2^-F relative and |y| e^y <= 1/e for y = a ln tanh z), which
    times sech^b z is under 4.  The product of the two powers is within
    e_pq = e_a + 3b + 1 units, since each is at most 1; w multiplies it by
    at most w, and ln z w z, whose own error is a few units times
    1 + w + z, by at most 6 (1 + w + z) on every node where sech^b z is
    above a unit (z below about F).  Must be called inside
    ``lfuncs._working``.
    """
    bits, wp = _scale()
    if isinstance(tanh_power, Fraction) and tanh_power.denominator == 1:
        tanh_power = tanh_power.numerator
    sech_part = _ladder(sech_power, bits)
    if isinstance(tanh_power, int) and tanh_power < _LADDER_LIMIT:
        tanh_ladder = _ladder(tanh_power, bits)
        error_a = 3 * tanh_power

        def tanh_part(entry):
            return tanh_ladder(entry[2])

    else:
        if isinstance(tanh_power, int):
            a = from_int(tanh_power)
        elif isinstance(tanh_power, Fraction):
            a = from_rational(tanh_power.numerator, tanh_power.denominator, wp, round_nearest)
        else:
            a = tanh_power._mpf_
        error_a = 4
        # exp(y) < 2^-(F+2) floors to 0
        negligible = mpf_neg(mpf_mul(from_int(bits + 2), mp.ln2._mpf_, wp, round_nearest))

        def tanh_part(entry):
            y = mpf_mul(a, _ln_tanh(entry, bits, wp), wp, round_nearest)
            if mpf_lt(y, negligible):
                return 0
            return _fixed(mpf_exp(y, wp, round_nearest), bits)

    error_pq = error_a + 3 * sech_power + 1

    if log_z:

        def term(entry):
            ln_z, w, _, sech_z, z, _ = entry
            pq = tanh_part(entry) * sech_part(sech_z) >> bits
            return pq * ((ln_z * w >> bits) * z >> bits) >> bits

        return _Kernel(term, 8 * (error_pq + 4))

    def term(entry):
        return (tanh_part(entry) * sech_part(entry[3]) >> bits) * entry[1] >> bits

    return _Kernel(term, error_pq + 2)


def _c_constant_term(which: int) -> _Kernel:
    """The term sech^{3-which} z (1 - z/X) w of ``quad_c_constant``, with
    X = tanh z for which = 1 and X = tanh z / sech z = sinh z for which = 2,
    as a kernel on the node table.

    The bracket is formed in ``mpf`` and converted once: z/tanh z is
    exp(ln z - ln tanh z), so near z = 0, where the bracket is about -z^2/3
    or -z^2/6, it is off by a few units of 2^-F rather than by 2^-F/z, and
    above z = 1 by about z units.  Times sech^b z (within 3b units) and w,
    the term is within 32 (1 + w + z) units.  Must be called inside
    ``lfuncs._working``.
    """
    bits, wp = _scale()
    rnd = round_nearest
    sech_part = _ladder(3 - which, bits)

    def term(entry):
        ln_z, w, _, sech_z, _, _ = entry
        ratio = mpf_exp(mpf_sub(from_man_exp(ln_z, -bits), _ln_tanh(entry, bits, wp), wp, rnd), wp, rnd)
        if which == 2:
            ratio = mpf_mul(ratio, from_man_exp(sech_z, -bits), wp, rnd)
        bracket = _fixed(mpf_sub(fone, ratio, wp, rnd), bits)
        return (bracket * sech_part(sech_z) >> bits) * w >> bits

    return _Kernel(term, 32)


def quad_phi(which: int, s, prec: int = DEFAULT_PREC) -> QuadResult:
    """Mellin transform value Phi_which(s), s > 1.

    which=1 integrates x^{s-1}/arctanh(x), which=2 integrates
    x^{s-1}/(sqrt(1-x^2) arctanh(x)), both over (0, 1).
    """
    _check_prec(prec)
    if which not in (1, 2):
        raise DomainError(f"which must be 1 or 2, got {which}")
    with _working(prec):
        sx = _exact(s)
        if not sx > 1:
            raise DomainError(f"Phi_{which} converges only for s > 1, got s={s}")
        if isinstance(sx, mpf) and not mp.isfinite(sx):
            raise DomainError(f"Phi_{which} needs a finite s, got s={s}")
        if sx >= _PHI_S_LIMIT:
            raise PrecisionError(
                f"Phi_{which} at s >= 10^19 has no level-0 term above the cutoff "
                f"at any precision; got s={s}"
            )

    def make():
        # sech^2 for Phi_1, sech^1 for Phi_2; s - 1 exact for an int or a
        # Fraction s
        return _monomial(_exact(s) - 1, 3 - which)

    return _cached_quad(("phi", which, s, prec), prec, make)


def quad_log_family(q: int, n_exponent: int, prec: int = DEFAULT_PREC) -> QuadResult:
    """int_0^oo sinh^{2q+1}(z) ln(z) / cosh^N(z) dz with N = n_exponent > 2q+1."""
    _check_prec(prec)
    if q < 0 or 2 * q + 1 >= n_exponent:
        raise DomainError(
            f"convergence requires 2q+1 < N with q >= 0; got q={q}, N={n_exponent}"
        )

    def make():
        return _monomial(2 * q + 1, n_exponent - 2 * q - 1, log_z=True)

    return _cached_quad(("log", q, n_exponent, prec), prec, make)


def quad_sinh_over_z(q: int, n_exponent: int, prec: int = DEFAULT_PREC) -> QuadResult:
    """int_0^oo sinh^{2q}(z) / (z cosh^N(z)) dz with 0 < 2q < N = n_exponent."""
    _check_prec(prec)
    if not 0 < 2 * q < n_exponent:
        raise DomainError(
            f"convergence requires 0 < 2q < N; got q={q}, N={n_exponent}"
        )

    def make():
        return _monomial(2 * q, n_exponent - 2 * q)

    return _cached_quad(("soz", q, n_exponent, prec), prec, make)


def quad_c_constant(which: int, prec: int = DEFAULT_PREC) -> QuadResult:
    """The constant term of Phi_which(s) - 1/(s-1) at s -> 1+, as an integral:

    which=1: int_0^1 (1/arctanh(x) - 1/x) dx,
    which=2: int_0^1 (1/(sqrt(1-x^2) arctanh(x)) - 1/x) dx,

    both evaluated on (0, oo) through x = tanh(z), as
    int sech^2 z (1 - z coth z) dz / z and int sech z (1 - z / sinh z) dz / z.

    The brackets are formed from z/tanh z = exp(ln z - ln tanh z), which
    keeps its relative digits near z = 0, where the brackets are about
    -z^2/3 and -z^2/6, so a term is off by a few units of 2^-F, far below
    the rounding floor of the error estimate.
    """
    _check_prec(prec)
    if which not in (1, 2):
        raise DomainError(f"which must be 1 or 2, got {which}")
    return _cached_quad(("c_constant", which, prec), prec, lambda: _c_constant_term(which))
