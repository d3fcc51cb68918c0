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
min(d1^2/d2, 1.5 d1) digits, plus a rounding floor of nodes 2^-wprec times
the sum of |terms|, plus a bound on the dropped tails, whose terms are each
below the cutoff.

Every node is t = k 2^-level, so every integrand samples the same grid.  A
node table, one for the current working precision and replaced when the
precision changes, keeps the integrand-independent values ln z = t - u,
w = 1 + u (with u = exp(-t)), tanh z, sech z and z at each node, keyed by
the integer t 2^MAX_LEVEL, as raw ``_mpf_`` tuples.  Every integrand is a
raw-tuple function of those values.  The monomial kernel ``_monomial``
writes the Mellin and sinh/z families as tanh^a z sech^b z w and the log
family as tanh^a z sech^b z ln z w z; ``_c_constant_term`` writes the two
constants as sech^{3-which} z (1 - z/X) w, with X = tanh z or sinh z.
Those brackets are formed directly: near z = 0 they lose relative digits,
but the rule needs each term to a small absolute error, and z/X is within
a unit of 2^-wprec of 1 there, so a term is off by about 2^-wprec w, the
size of the rounding floor in the error estimate.  The kernels and the wing
sums run on the raw tuples through the ``mpmath.libmp`` functions that the
``mpf`` operators call, at the working precision with rounding to nearest
and in the order the written expression gives, so they skip building an
``mpf`` per operation and still return the value, bit for bit, that the
``mpf`` expression would.

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

from mpmath import mp, mpf
from mpmath.libmp import (
    fone, fzero, mpf_abs, mpf_add, mpf_div, mpf_lt, mpf_mul, mpf_pow, mpf_pow_int, mpf_sub,
    round_floor, round_nearest,
)

from .exact import DomainError, PrecisionError
from .lfuncs import _as_mpf, _exact, _precision_table, _working

DEFAULT_PREC = 30
MAX_PREC = 100
MAX_LEVEL = 12
#: From this s on, every level-0 node of Phi_1 and Phi_2 is below the cutoff
#: at every precision 1 ... MAX_PREC, so ``quad_phi`` raises before any node.
_PHI_S_LIMIT = 10**19

_cache_lock = threading.Lock()
_quad_cache: dict[tuple, "QuadResult"] = {}
# {mp.prec: {t * 2^MAX_LEVEL: (ln z, 1 + exp(-t), tanh z, sech z, z) as raw
# _mpf_ tuples}}, holding one precision at a time; filled and read by
# _de_halfline.
_node_tables: dict[int, dict[int, tuple]] = {}


@dataclass(frozen=True)
class QuadResult:
    """One quadrature answer with its computed error estimate."""

    value: mpf
    error_estimate: mpf
    nodes_used: int
    levels: int

    def __float__(self) -> float:
        return float(self.value)


def _check_prec(prec: int) -> None:
    if not 1 <= prec <= MAX_PREC:
        raise DomainError(f"quadrature precision must be in [1, {MAX_PREC}], got {prec}")


def _de_halfline(term, prec: int, max_level: int = MAX_LEVEL) -> QuadResult:
    """Integrate over (0, oo) with the z = exp(t - exp(-t)) node map.

    ``term(ln_z, w, tanh_z, sech_z, z)`` takes the raw ``_mpf_`` tuples of
    one node table entry, with w = 1 + u and u = exp(-t), and must return
    f(z) dz/dt = f(z) w z as a raw tuple at ``mp.prec``.  ``max_level`` may
    not exceed ``MAX_LEVEL``.  Stops at the first level j >= 2 whose
    predicted digits reach ``mp.dps + 10``, or the first level j >= 3 whose
    level-to-level change meets the target; raises :class:`PrecisionError`
    when ``max_level`` is reached first, or when level 0 finds no term above
    the negligibility cutoff.

    Must be called inside ``lfuncs._working``, whose lock also guards the
    node table.
    """
    cutoff = mpf(10) ** (-(mp.dps + 5))
    eps_term = cutoff._mpf_
    target = mpf(10) ** (-(prec + 2))
    table = _precision_table(_node_tables)
    wprec = mp.prec
    make_mpf = mp.make_mpf
    nodes = 0

    def node(key: int) -> tuple:
        """term at t = key * 2^-MAX_LEVEL, from the table or filling it."""
        entry = table.get(key)
        if entry is None:
            t = mp.ldexp(key, -MAX_LEVEL)
            u = mp.exp(-t)
            log_z = t - u
            z = mp.exp(log_z)
            entry = table[key] = (
                log_z._mpf_, (1 + u)._mpf_, mp.tanh(z)._mpf_, mp.sech(z)._mpf_, z._mpf_
            )
        return term(*entry)

    def wing(level: int, start: int, step: int, reach=(0, 0)) -> tuple[mpf, mpf, int, list[int]]:
        """Sum the terms at t = k * 2^-level for k = start, start+step, ...
        on both sides.

        A side ends after 3 consecutive terms below the negligibility cutoff,
        counted only at |t| 2^MAX_LEVEL beyond that side's ``reach``.  Also
        returns the sum of the negative terms, rounded down at 53 bits, and
        each side's reach: the largest |t| 2^MAX_LEVEL with a term above the
        cutoff.
        """
        shift = MAX_LEVEL - level
        total = fzero
        negative = fzero
        count = 0
        reached = []
        for sign, floor in zip((1, -1), reach):
            consec = 0
            k = start
            far = 0
            while consec < 3:
                val = node((sign * k) << shift)
                total = mpf_add(total, val, wprec, round_nearest)
                if val[0]:
                    negative = mpf_add(negative, val, 53, round_floor)
                count += 1
                if mpf_lt(mpf_abs(val), eps_term):
                    if k << shift > floor:
                        consec += 1
                else:
                    consec = 0
                    far = k << shift
                k += step
                if k > 600_000:
                    raise PrecisionError("double-exponential wing failed to terminate")
            reached.append(far)
        return make_mpf(total), make_mpf(negative), count, reached

    def digits(change: mpf, value: mpf) -> float:
        """Relative digits of a level-to-level change, at most 2 mp.dps."""
        if not value:
            return 0.0
        if not change:
            return 2.0 * mp.dps
        return min(math.log10(float(abs(value) / change)), 2.0 * mp.dps)

    h = mpf(1)
    center = make_mpf(node(0))
    negative = center if center < 0 else mpf(0)
    nodes += 1
    # the finer levels may not end a wing inside level 0's reach
    wing_sum, wing_negative, n, reach = wing(0, 1, 1)
    nodes += n
    # a level 0 that sees no term above the cutoff stepped over the
    # integrand, and no finer level would look for it
    if reach == [0, 0] and abs(center) < cutoff:
        raise PrecisionError(
            "double-exponential quadrature found no level-0 term above the "
            f"cutoff 1e-{mp.dps + 5}"
        )
    negative += wing_negative
    value = h * (center + wing_sum)
    prev = value
    change = abs(value)
    d1 = 0.0
    for level in range(1, max_level + 1):
        h = h / 2
        odd_sum, odd_negative, n, _ = wing(level, 1, 2, reach)
        nodes += n
        negative += odd_negative
        value = prev / 2 + h * odd_sum
        change = abs(value - prev)
        # d1, d2: the relative digits of the last two level-to-level changes
        d1, d2 = digits(change, value), d1
        # digits grow by at most a factor 2 per level, so predict I_level to
        # min(d1^2/d2, 2 d1) digits (Bailey, Jeyabalan and Li 2005); d2 is 0
        # at level 1
        predicted = min(d1 * d1 / d2, 2 * d1) if d2 > 0 else 0.0
        # levels 1 and 2 can meet a loose change target by coincidence
        if predicted >= mp.dps + 10 or (level >= 3 and change < target * max(mpf(1), abs(value))):
            break
        prev = value
    else:
        raise PrecisionError(
            f"double-exponential quadrature missed its target 1e-{prec + 2} "
            f"after {max_level} levels (last change {mp.nstr(change, 3)})"
        )
    # The same prediction with the growth capped at 1.5 instead of 2: at
    # early levels the digits can grow by as little as 1.56 times.
    remainder = abs(value) * mpf(10) ** -min(d1 * d1 / d2, 1.5 * d1) if d2 > 0 else change
    # Rounding: the recursive-sum bound, nodes 2^-wprec h sum |f|, which also
    # covers the few roundings inside each term; h sum |f| is at most
    # |I| + 2 h |sum of the negative terms|.
    rounding = nodes * mp.ldexp(abs(value) + 2 * h * abs(negative), -wprec)
    # The dropped tail: on each side of each level, terms below the cutoff
    # that shrink by at least cutoff^(2h) per step, since near either end
    # ln|term| of a double-exponential rule falls in t at least as fast as
    # |ln|term|| itself.
    tail = 2 * (level + 1) * h * cutoff / (1 - cutoff ** (2 * h))
    error = remainder + rounding + tail
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


def _monomial(tanh_power, sech_power: int, log_z: bool = False):
    """The term tanh^a z sech^b z w, or tanh^a z sech^b z ln z w z with
    ``log_z``, on the raw tuples of a node table entry.

    a = ``tanh_power`` is an int or an mpf, b = ``sech_power`` an int.  Each
    operation is the ``mpmath.libmp`` call the ``mpf`` operators make, at
    ``mp.prec`` with rounding to nearest, in the left-to-right order of the
    written product, so the value is the one the ``mpf`` expression gives.
    Must be called inside ``lfuncs._working``.
    """
    prec, rnd = mp.prec, round_nearest
    if isinstance(tanh_power, int):
        pow_a, a = mpf_pow_int, tanh_power
    else:
        pow_a, a = mpf_pow, tanh_power._mpf_

    def term(ln_z, w, tanh_z, sech_z, z):
        val = mpf_mul(pow_a(tanh_z, a, prec, rnd), mpf_pow_int(sech_z, sech_power, prec, rnd), prec, rnd)
        if log_z:
            return mpf_mul(mpf_mul(mpf_mul(val, ln_z, prec, rnd), w, prec, rnd), z, prec, rnd)
        return mpf_mul(val, w, prec, rnd)

    return term


def _c_constant_term(which: int):
    """The term sech^{3-which} z (1 - z/X) w of ``quad_c_constant``, with
    X = tanh z for which = 1 and X = tanh z / sech z = sinh z for which = 2,
    on the raw tuples of a node table entry.

    Built as ``_monomial`` is, in the order of the written expression
    sech_z ** (3 - which) * (1 - z / X) * w.  Must be called inside
    ``lfuncs._working``.
    """
    prec, rnd = mp.prec, round_nearest

    def term(ln_z, w, tanh_z, sech_z, z):
        x = tanh_z if which == 1 else mpf_div(tanh_z, sech_z, prec, rnd)
        bracket = mpf_sub(fone, mpf_div(z, x, prec, rnd), prec, rnd)
        return mpf_mul(mpf_mul(mpf_pow_int(sech_z, 3 - which, prec, rnd), bracket, prec, rnd), w, prec, rnd)

    return term


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
        # sech^2 for Phi_1, sech^1 for Phi_2
        return _monomial(_as_mpf(_exact(s) - 1), 3 - which)

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

    The brackets are formed directly.  Near z = 0 they are about -z^2/3 and
    -z^2/6 and lose relative digits, but z/tanh z and z/sinh z are each
    within a unit of 2^-wprec of 1, so a term is off by about 2^-wprec w in
    absolute terms: the size of the rounding floor in the error estimate.
    """
    _check_prec(prec)
    if which not in (1, 2):
        raise DomainError(f"which must be 1 or 2, got {which}")
    return _cached_quad(("c_constant", which, prec), prec, lambda: _c_constant_term(which))
