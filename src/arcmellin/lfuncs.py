"""High-precision evaluation of the transcendental basis.

All basis symbols reduce to four ingredients:

* alternating Dirichlet sums eta(s), eta'(s), beta(s), beta'(s) for real
  s >= 1, all summed by one kernel with the Chebyshev-polynomial
  convergence acceleration of Cohen, Rodriguez Villegas and Zagier (about
  0.77 correct digits per retained term);
* exact special values zeta(2k) and beta(2k+1) through Bernoulli and Euler
  numbers;
* the reflection formulas of zeta and beta, differentiated once and
  rearranged *symbolically* (never by numeric differentiation), which push
  the derivative evaluations to negative arguments:
      eta'(-2i-1)  from  zeta(2i+2), zeta'(2i+2), ln 2, ln pi, gamma,
      beta'(-2i)   from  beta'(2i+1), Euler numbers, ln(pi/2), gamma;
* elementary constants ln 2, ln pi, gamma.

Every public function takes a target precision in decimal digits and
computes with ``GUARD_DIGITS`` extra working digits; results are correct to
at least the requested precision.  Values are cached per (symbol, precision)
and cache hits return bit-identical numbers; a miss runs its builder inside
the working precision.  The mpmath working context is global, so
``_working(digits)`` is the one place in the package that sets it: it holds
the module lock at ``digits + GUARD_DIGITS``, and :mod:`arcmellin.quadrature`
and :mod:`arcmellin.verify` enter it too.  All entry points of these modules
are therefore safe to call from multiple threads.

The kernel, ``_basis_value``, takes one family (eta, eta', beta or beta')
and one exponent s, and returns sum_k c_k L(m) / m^s / d, with L(m) = ln m
for the derivative families and 1 otherwise, as one exact Python-integer
sum rounded once.  Its numerators are fixed-point integers,
T_k = floor(c_k L(m) 2^P) with P = mp.prec + bitlength(n) + 3 -
bitlength(d), so P depends only on the precision.  With m0 the first m
with L(m) != 0, the sum at s is m0^-s 2^-P / d times sum_k T_k (m0/m)^s:
an int s takes each term as the exact quotient (T_k m0^s) // m^s, and an
mpf s as T_k floor((m0/m)^s 2^f), f the bit length of the largest T_k,
with (m0/m)^s from mpf powers.  Both stop at the first m where the factor
times the largest T_k falls below one unit; it only falls as m grows, so a
huge s sums one term.  Each term is off by at most about one unit, so
when the integer sum has fewer than mp.prec + bitlength(n) + 2 bits (as at
small s, where 2^s eta'(s) is smallest) it is taken again with P raised by
the shortfall.  The result is the exact quotient by the integer d, rounded
once, and negated for the derivative families.  Each value depends only on
(family, s, precision).
The integer-argument sums behind the basis symbols, eta'(2p+2) (for
zeta'(2p+2)), beta'(2p+1), eta(2p+3) (for zeta(2p+3)) and beta(2p+2), pass
an int exponent and are cached per (family, p, precision); ``eval_closed_form``
reads each symbol of a form through that cache.  The real-s sums
``eta_value``, ``eta_prime``, ``beta_value`` and ``beta_prime_value`` pass
an mpf exponent, so no m^s of a huge s is ever an integer; the two
derivative sums refuse s > 10^10000 with a ``PrecisionError``.

The kernel reads three tables, all on Python integers, each keyed by the
binary precision ``mp.prec`` and holding one precision at a time: the
exact Chebyshev weights (c_0 ... c_{n-1}, d = T_n(3)) for each term count
n, ln p 2^G for every prime p a derivative sum has used, and the
numerators T_k for each family and term count.  ln 2 is 2 atanh(1/3) and a
prime p > 2 is ln(p-1) + 2 atanh(1/(2p-1)), each atanh series summed on
integers; a composite m with smallest prime factor p gets
ln m = ln p + ln(m/p) when the numerators are built, so every sum reads
ln m one way.  With G = P + bitlength(d) + 64 at P's default, and at
least 48 past any raised P, each T_k is floor(c_k (ln m 2^G) 2^(P-G)) by
shifts alone, and it is the exact floor unless c_k ln m 2^P lies within
2^-33 above an integer.  One log table per precision serves P raised by
up to 16 bits (a short sum raises it by one bit, as eta'(2) does at 1000
digits), so the prime logs are built once per precision.  The tables are
filled lazily under ``_MP_LOCK``, so the kernel must run inside
``_working``; reusing them leaves every value bit-identical.
``eval_closed_form`` also measures the digits its sum loses to cancellation
and evaluates again at a higher precision when they eat into the guard.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import (
    from_int, from_man_exp, mpf_div, mpf_exp, mpf_log, mpf_mul, mpf_pow, round_nearest,
)

from .closedform import BasisSymbol, ClosedForm
from .exact import DomainError, PrecisionError, _check_int, bernoulli, euler_number, harmonic

GUARD_DIGITS = 15
#: Guard digits that cancellation in ``eval_closed_form`` may use up before
#: the form is evaluated again at a higher precision.
_CANCELLATION_SLACK = 5

_MAX_PREC = 1000
#: The largest s of ``eta_prime`` and ``beta_prime_value``.  m0^s costs
#: about 0.3 s at s = 10^10000, at 30 and at 1000 digits, and 0.7 to 0.9 s at
#: 10^20000 (2 cores, mpmath 1.3.0 on its pure-Python backend).
_REAL_S_LIMIT = 10**10000

_MP_LOCK = threading.RLock()

_cache_lock = threading.Lock()
_constant_cache: dict[tuple, mpf] = {}
# The kernel tables of the accelerated sums, each {mp.prec: table} holding one
# precision at a time, all on Python integers: {n: (Chebyshev weights
# c_0 ... c_{n-1}, d)} for the n-term sum, {G: {p: ln p 2^G}} for primes p,
# and {(family, n): (P, max |T_k|, (T_k ...))}, the fixed-point numerators
# T_k = floor(c_k L(m) 2^P) of ``_numerators``.  Filled and read only inside
# _working.
_weight_tables: dict[int, dict[int, tuple]] = {}
_log_tables: dict[int, dict[int, dict[int, int]]] = {}
_numerator_tables: dict[int, dict[tuple, tuple]] = {}
#: Bits of ln m 2^G past those of c_k ln m 2^P and of d: G - P - bitlength(d).
_LOG_GUARD_BITS = 48
#: Bits by which the log table is wider still at P's default, so that a sum
#: taken again with P raised by up to this many bits reads the same table.
_LOG_SPARE_BITS = 16


def _as_mpf(x) -> mpf:
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    if isinstance(x, float):
        return mpf(x)
    return mp.mpmathify(x)


def _exact(s):
    """s as a ``Fraction`` when it is an int, a Fraction or a decimal string,
    otherwise as an mpf.

    Next to the pole at s = 1, s - 1 taken from a rounded mpf s keeps only
    the digits s carried past its leading 1, about prec - k of them at
    s = 1 + 10^-k, so the callers test s > 1 and form s - 1 (and s^2 - 1)
    from this value, rounding once: ``_as_mpf(_exact(s) - 1)``.
    """
    if isinstance(s, (int, Fraction, str)):
        try:
            return Fraction(s)
        except ValueError:
            pass
    return _as_mpf(s)


@contextmanager
def _working(digits: int):
    """Hold ``_MP_LOCK`` with the mpmath context at ``digits + GUARD_DIGITS``.

    The one way this package sets the working precision: the basis numerics
    here, :mod:`arcmellin.quadrature` and the numeric :mod:`arcmellin.verify`
    suites all enter it.  The lock is re-entrant, so nested entries at the
    same ``digits`` leave every value unchanged.
    """
    with _MP_LOCK, mp.workdps(digits + GUARD_DIGITS):
        yield


def _cached(key: tuple, prec: int, builder):
    """The cached value for ``key``; a miss runs ``builder()`` inside
    ``_working(prec)``."""
    with _cache_lock:
        hit = _constant_cache.get(key)
    if hit is not None:
        return hit
    with _working(prec):
        value = builder()
    with _cache_lock:
        return _constant_cache.setdefault(key, value)


# ---------------------------------------------------------------------------
# the accelerated Dirichlet sums: one kernel for every family and every s
# ---------------------------------------------------------------------------

def _precision_table(tables: dict[int, dict]) -> dict:
    """``tables[mp.prec]``, a new empty dict on a miss.

    A miss drops every other precision, so ``tables`` holds one at a time
    and its memory stays bounded.  Must be called inside ``_working``, whose
    lock guards ``tables``.
    """
    table = tables.get(mp.prec)
    if table is None:
        tables.clear()
        table = tables[mp.prec] = {}
    return table


def _term_count() -> int:
    """Terms of every accelerated sum at the working precision,
    int(working digits / 0.75) + 8: each term gains about 0.765 digits."""
    return int(mp.dps / 0.75) + 8


def _chebyshev_weights(n: int) -> tuple[tuple[int, ...], int]:
    """The integer weights (c_0 ... c_{n-1}) and divisor d of the n-term sum.

    d = T_n(3) from T_{k+1} = 6 T_k - T_{k-1}; c_k = b_k - c_{k-1} from
    c_{-1} = -d and b_0 = -1, with the exact division
    b_{k+1} = 2 (k+n) (k-n) b_k / ((2k+1) (k+1)).  Every |c_k| < d.
    """
    weights = _precision_table(_weight_tables)
    hit = weights.get(n)
    if hit is None:
        t, d = 1, 3
        for _ in range(n - 1):
            t, d = d, 6 * d - t
        b, c = -1, -d
        cs = []
        for k in range(n):
            c = b - c
            cs.append(c)
            b = 2 * (k + n) * (k - n) * b // ((2 * k + 1) * (k + 1))
        hit = weights[n] = (tuple(cs), d)
    return hit


# family -> (m = 2k+1 rather than k+1, with the ln m factor, s at p = 0); the
# basis sum of index p is at s + 2p.
_FAMILIES = {
    "eta_prime": (False, True, 2),  # eta'(2p+2), for zeta'(2p+2)
    "beta_prime": (True, True, 1),  # beta'(2p+1)
    "eta": (False, False, 3),  # eta(2p+3), for zeta(2p+3)
    "beta": (True, False, 2),  # beta(2p+2)
}


def _atanh_inverse(q: int, bits: int) -> int:
    """atanh(1/q) 2^bits for an integer q >= 3, floor-summed: the series
    sum_j 1 / ((2j+1) q^(2j+1)) with each term its exact floor, stopped at
    the first power that floors to 0, so the result is below the true value
    by less than one unit per term plus one for the tail."""
    power, q2 = (1 << bits) // q, q * q
    total, j = 0, 1
    while power:
        total += power // j
        power //= q2
        j += 2
    return total


def _sum_log_table(top: int, bits: int) -> dict[int, int]:
    """The log table of one sum: ln m 2^bits as integers, for m = 2 ... top.

    A prime p is ln(p-1) + 2 atanh(1/(2p-1)) (ln 2 = 2 atanh(1/3)), its
    atanh from ``_atanh_inverse``, and is kept in ``_log_tables``; a
    composite m with smallest prime factor p is ln p + ln(m/p), so ln m
    depends only on m, ``bits`` and the precision.  Every error is a
    floor, so each value is at most ln m 2^bits, and short by less than
    2 (J + 2) units for each atanh series of J terms along its chain of
    factors: under 2^15 units for every m and bits that the 1000-digit cap
    reads.
    """
    primes = _precision_table(_log_tables).setdefault(bits, {})
    smallest = list(range(top + 1))
    for p in range(2, math.isqrt(top) + 1):
        if smallest[p] == p:
            for multiple in range(p * p, top + 1, p):
                if smallest[multiple] == multiple:
                    smallest[multiple] = p
    logs = {1: 0}
    for m in range(2, top + 1):
        p = smallest[m]
        if p < m:
            logs[m] = logs[p] + logs[m // p]
        else:
            if m not in primes:
                primes[m] = logs[m - 1] + 2 * _atanh_inverse(2 * m - 1, bits)
            logs[m] = primes[m]
    return logs


def _floor_shift(x: int, shift: int) -> int:
    """floor(x 2^shift)."""
    return x << shift if shift >= 0 else x >> -shift


def _fixed(x: tuple, shift: int) -> int:
    """floor(x 2^shift) for a raw mpf x."""
    sign, man, exp, _ = x
    return _floor_shift(-man if sign else man, exp + shift)


def _numerators(family: str, extra: int = 0) -> tuple[int, int, tuple[int, ...]]:
    """(P, max |T_k|, numerators) of the family's sum at the working precision.

    The numerators are T_k = floor(c_k L(m) 2^P) for every m with L(m) != 0,
    in increasing m, formed on integers by shifts alone: c_k 2^P from the
    exact ``_chebyshev_weights``, and c_k ln m 2^P as c_k l_m 2^(P-G) with
    l_m = ln m 2^G from ``_sum_log_table`` at G = P + bitlength(d) +
    ``_LOG_GUARD_BITS`` + ``_LOG_SPARE_BITS`` - ``extra``, or at
    G = P + bitlength(d) + ``_LOG_GUARD_BITS`` for an ``extra`` past the
    spare bits.  So every sum at one precision with ``extra`` up to
    ``_LOG_SPARE_BITS`` reads one log table.  Since |c_k| < d and l_m is
    short by less than 2^15 units, the product is short by less than
    2^-33, so each T_k is the exact floor unless c_k ln m 2^P lies that
    close above an integer.  P = mp.prec + bitlength(n) + 3 -
    bitlength(d) + ``extra``, so the largest T_k have bitlength(n) + 3
    bits more than the working precision.  The table at ``extra`` = 0 is
    kept in ``_numerator_tables``.
    """
    n = _term_count()
    table = _precision_table(_numerator_tables)
    if not extra and (family, n) in table:
        return table[family, n]
    odd, with_log, _ = _FAMILIES[family]
    cs, d = _chebyshev_weights(n)
    shift = mp.prec + n.bit_length() + 3 - d.bit_length() + extra
    if with_log:  # ln 1 = 0 drops m = 1, the first term
        bits = shift + d.bit_length() + _LOG_GUARD_BITS + max(_LOG_SPARE_BITS - extra, 0)
        logs = _sum_log_table(2 * n - 1 if odd else n, bits)
        ms = range(3, 2 * n, 2) if odd else range(2, n + 1)
        products = [c * logs[m] for c, m in zip(cs[1:], ms)]
    else:
        bits, products = 0, cs
    numerators = [_floor_shift(x, shift - bits) for x in products]
    entry = (shift, max(map(abs, numerators)), tuple(numerators))
    if not extra:
        table[family, n] = entry
    return entry


def _power_factors(s, m0: int, top: int):
    """(m0^s as a raw mpf, f, factor) for the sum at s, with numerators of
    largest magnitude ``top``.

    factor(m) = (num, den) with num / den = (m0/m)^s 2^f.  An int s gives
    the exact m0^s / m^s with f = 0, and num = 0 from the first m with
    top (m0/m)^s < 1; an mpf s gives floor((m0/m)^s 2^f) / 1 with f the bit
    length of ``top``, from mpf powers carrying 16 + mag(s) bits more than
    f (m0^s as exp(s ln m0)), and so num = 0 from the first m with
    (m0/m)^s 2^f < 1.  Past that m every term is below one unit.
    """
    if isinstance(s, int):
        a = m0**s
        limit = top * a

        def quotient(m):
            b = m**s
            return (a, b) if b <= limit else (0, 1)

        return from_int(a), 0, quotient
    s = s._mpf_
    f = top.bit_length()
    wp = f + 16 + max(0, s[2] + s[3])
    # exp(s ln m0) at wp bits: an integer power of 3 by a huge s squares
    # once per bit of s at several times the precision
    ln_m0 = mpf_log(from_int(m0), wp, round_nearest)
    a = mpf_exp(mpf_mul(s, ln_m0, wp, round_nearest), wp, round_nearest)
    slope = float(mp.make_mpf(s))  # inf for an s past the float range

    def floored(m):
        if m == m0:
            return 1 << f, 1
        # (m0/m)^s < 2^-(f+4) floors to 0; no mpf power of a huge s
        if slope * math.log2(m / m0) > f + 4:
            return 0, 1
        power = mpf_pow(from_int(m), s, wp, round_nearest)
        return _fixed(mpf_div(a, power, wp, round_nearest), f), 1

    return a, f, floored


def _accumulate(numerators, ms, factor) -> int:
    """sum_k T_k num // den with (num, den) = factor(m), up to the first m
    whose num is 0: the one accumulation of every sum."""
    total = 0
    for m, t in zip(ms, numerators):
        num, den = factor(m)
        if not num:
            break
        total += t * num // den
    return total


def _basis_value(family: str, s) -> mpf:
    """The family's sum at one s (an int or an mpf), one exact integer sum
    rounded once.

    With m0 the first m with L(m) != 0, the sum at s is
    m0^-s 2^-P / d * sum_k T_k (m0/m)^s, each term floored.  Every T_k from
    ``_numerators`` is the exact floor of c_k L(m) 2^P, so the integer sum
    is off by at most about one unit per term.  When its bit length is
    short of mp.prec + bitlength(n) + 2, P is raised by the shortfall and
    the sum taken again.  The sum is divided once by m0^s times the exact
    integer d and rounded to mp.prec, so the value depends only on (family,
    s, precision).  Must be called inside ``_working``.
    """
    odd, with_log, _ = _FAMILIES[family]
    m0 = (3 if odd else 2) if with_log else 1
    step = 2 if odd else 1
    n = _term_count()
    needed = mp.prec + n.bit_length() + 2
    _, d = _chebyshev_weights(n)
    extra = 0
    while True:
        shift, top, numerators = _numerators(family, extra)
        scale, frac, factor = _power_factors(s, m0, top)
        total = _accumulate(numerators, range(m0, m0 + step * len(numerators), step), factor)
        short = needed - (abs(total).bit_length() - frac)
        if short <= 0:
            break
        extra += short
    if with_log:  # d/ds m^-s = -ln m m^-s
        total = -total
    denominator = mpf_mul(scale, from_int(d))  # m0^s d, exact
    value = mpf_div(from_man_exp(total, -shift - frac), denominator, mp.prec, round_nearest)
    return mp.make_mpf(value)


def _basis_sum(family: str, p: int, prec: int) -> mpf:
    """The family's sum of index p, at s = s0 + 2p, cached per
    (family, p, prec)."""
    s = _FAMILIES[family][2] + 2 * p
    return _cached((family, p, prec), prec, lambda: _basis_value(family, s))


def _real_s_sum(family: str, s, prec: int) -> mpf:
    """The family's sum at one real s >= 1.  s stays an mpf even when it is
    integral, so eta_value(10**6, 30) builds no million-digit m^s.

    A non-finite s raises :class:`DomainError`.  The derivative families
    raise :class:`PrecisionError` for s > ``_REAL_S_LIMIT``: their m0^s is
    exp(s ln m0) at mag(s) bits more than the sum's, and its cost grows
    faster than mag(s).
    """
    _check_int("prec", prec, 1, _MAX_PREC)
    with _working(prec):
        sv = _as_mpf(s)
        if not sv >= 1:
            raise DomainError(f"alternating-series region requires s >= 1, got {sv}")
        if not mp.isfinite(sv):
            raise DomainError(f"alternating series need a finite s, got s={s}")
        if _FAMILIES[family][1] and sv > _REAL_S_LIMIT:
            raise PrecisionError(
                f"{family} needs s <= 10^10000, where m^-s at mag(s) extra bits stays cheap; got s={s}"
            )
        return _basis_value(family, sv)


def eta_value(s, prec: int) -> mpf:
    """Dirichlet eta(s) = sum (-1)^{n-1} n^{-s} for real s >= 1."""
    return _real_s_sum("eta", s, prec)


def eta_prime(s, prec: int) -> mpf:
    """eta'(s) = sum (-1)^n ln(n) n^{-s} (n >= 1), accelerated, s >= 1."""
    return _real_s_sum("eta_prime", s, prec)


def beta_value(s, prec: int) -> mpf:
    """Dirichlet beta(s) = sum (-1)^n (2n+1)^{-s} for real s >= 1."""
    return _real_s_sum("beta", s, prec)


def beta_prime_value(s, prec: int) -> mpf:
    """beta'(s) = sum (-1)^{n+1} ln(2n+1) (2n+1)^{-s}, accelerated, s >= 1."""
    return _real_s_sum("beta_prime", s, prec)


# ---------------------------------------------------------------------------
# exact-rational special values and elementary constants
# ---------------------------------------------------------------------------

def zeta_even_value(k: int, prec: int) -> mpf:
    """zeta(2k) = (-1)^{k+1} B_{2k} (2 pi)^{2k} / (2 (2k)!), k >= 1."""
    _check_int("prec", prec, 1, _MAX_PREC)
    _check_int("k", k, 1)
    def build():
        b = bernoulli(2 * k)
        sign = 1 if k % 2 else -1
        return sign * _as_mpf(b) * (2 * mp.pi) ** (2 * k) / (2 * mp.factorial(2 * k))
    return _cached(("zeta_even", k, prec), prec, build)


def beta_at_negative_even(i: int) -> Fraction:
    """Exact rational beta(-2i) = E_{2i} / 2."""
    _check_int("i", i)
    return Fraction(euler_number(2 * i), 2)


def ln2(prec: int) -> mpf:
    _check_int("prec", prec, 1, _MAX_PREC)
    return _cached(("ln2", prec), prec, lambda: mp.log(2))


def ln_pi(prec: int) -> mpf:
    _check_int("prec", prec, 1, _MAX_PREC)
    return _cached(("lnpi", prec), prec, lambda: mp.log(mp.pi))


def euler_gamma(prec: int) -> mpf:
    """Euler-Mascheroni constant, cached alongside the basis constants."""
    _check_int("prec", prec, 1, _MAX_PREC)
    return _cached(("gamma", prec), prec, lambda: +mp.euler)


# ---------------------------------------------------------------------------
# derivatives at the paper-facing argument families
# ---------------------------------------------------------------------------

def zeta_prime_even(p: int, prec: int) -> mpf:
    """zeta'(2p+2), from eta'(s) = 2^{1-s} ln2 zeta(s) + (1-2^{1-s}) zeta'(s)."""
    _check_int("prec", prec, 1, _MAX_PREC)
    _check_int("p", p)
    def build():
        ep = _basis_sum("eta_prime", p, prec)
        two = mpf(2) ** (-2 * p - 1)
        return (ep - two * mp.log(2) * zeta_even_value(p + 1, prec)) / (1 - two)
    return _cached(("zeta_prime_even", p, prec), prec, build)


def beta_prime_odd(p: int, prec: int) -> mpf:
    """beta'(2p+1), the basis kernel's sum."""
    _check_int("prec", prec, 1, _MAX_PREC)
    _check_int("p", p)
    return _basis_sum("beta_prime", p, prec)


def _zeta_prime_at_negative_odd(k: int, prec: int) -> mpf:
    # zeta'(1-2k) = -B_{2k}/(2k) (ln 2pi + gamma - H_{2k-1})
    #              + (-1)^{k+1} 2 (2k-1)! zeta'(2k) / (2 pi)^{2k}
    # Called only from a cache builder, so already inside _working(prec).
    zp = zeta_prime_even(k - 1, prec)
    b_term = _as_mpf(-bernoulli(2 * k) / (2 * k))
    h = _as_mpf(harmonic(2 * k - 1))
    first = b_term * (mp.log(2 * mp.pi) + mp.euler - h)
    sign = 1 if k % 2 else -1
    second = sign * 2 * mp.factorial(2 * k - 1) * zp / (2 * mp.pi) ** (2 * k)
    return first + second


def eta_prime_neg(i: int, prec: int, via: str = "zeta") -> mpf:
    """eta'(-2i-1) through a differentiated reflection formula.

    ``via="zeta"`` (default) rearranges through zeta'(2i+2) and the exact
    rational zeta(-2i-1); ``via="eta"`` differentiates the eta-to-eta
    reflection directly and consumes eta(2i+2), eta'(2i+2), and digamma.
    The two arrangements agree to working precision and serve as mutual
    checks of the reflection algebra; both read the one summation kernel.
    """
    _check_int("prec", prec, 1, _MAX_PREC)
    _check_int("i", i)
    if via == "zeta":
        def build():
            zp_neg = _zeta_prime_at_negative_odd(i + 1, prec)
            zeta_neg = _as_mpf(-bernoulli(2 * i + 2) / (2 * i + 2))
            scale = mpf(2) ** (2 * i + 2)
            return scale * mp.log(2) * zeta_neg + (1 - scale) * zp_neg
        return _cached(("eta_prime_neg", i, prec), prec, build)
    if via == "eta":
        ev = eta_value(2 * i + 2, prec)
        ep = eta_prime(2 * i + 2, prec)
        with _working(prec):
            s0 = -2 * i - 1
            sin_half = -mpf(1) if i % 2 == 0 else mpf(1)  # sin(pi s0 / 2)
            pow_hi = mpf(2) ** (1 - s0)
            pow_lo = mpf(2) ** s0
            f = (
                (1 - pow_hi)
                * pow_lo
                * mp.pi ** (s0 - 1)
                * sin_half
                * mp.gamma(1 - s0)
                / (1 - pow_lo)
            )
            logderiv = (
                pow_hi * mp.log(2) / (1 - pow_hi)
                + mp.log(2)
                + mp.log(mp.pi)
                - mp.digamma(1 - s0)
                + pow_lo * mp.log(2) / (1 - pow_lo)
            )
            return f * logderiv * ev - f * ep
    raise DomainError(f"unknown arrangement {via!r}; expected 'zeta' or 'eta'")


def beta_prime_neg(i: int, prec: int, via: str = "odd") -> mpf:
    """beta'(-2i) through the differentiated beta reflection formula.

    ``via="odd"`` (default) uses the exact rational beta(-2i) = E_{2i}/2 and
    beta'(2i+1); ``via="reflection"`` differentiates the reflection product
    directly, consuming beta(2i+1), beta'(2i+1) and digamma, so the two
    check the reflection algebra against each other.
    """
    _check_int("prec", prec, 1, _MAX_PREC)
    _check_int("i", i)
    if via == "odd":
        def build():
            bp = beta_prime_odd(i, prec)
            e_half = _as_mpf(beta_at_negative_even(i))
            h = _as_mpf(harmonic(2 * i))
            sign = -1 if i % 2 else 1
            first = e_half * (mp.log(mp.pi / 2) + mp.euler - h)
            second = (
                sign
                * mpf(2) ** (2 * i + 1)
                * mp.factorial(2 * i)
                * bp
                / mp.pi ** (2 * i + 1)
            )
            return first - second
        return _cached(("beta_prime_neg", i, prec), prec, build)
    if via == "reflection":
        bv = beta_value(2 * i + 1, prec)
        bp = beta_prime_value(2 * i + 1, prec)
        with _working(prec):
            s0 = -2 * i
            sign = -1 if i % 2 else 1
            g = (mp.pi / 2) ** (s0 - 1) * mp.gamma(1 - s0) * sign
            gp = g * (mp.log(mp.pi / 2) - mp.digamma(1 - s0))
            return gp * bv - g * bp
    raise DomainError(f"unknown arrangement {via!r}; expected 'odd' or 'reflection'")


# ---------------------------------------------------------------------------
# closed-form evaluation and bounds
# ---------------------------------------------------------------------------

def symbol_value(kind: str, index: int | None, prec: int) -> mpf:
    """Numeric value of one basis symbol at the requested precision; a kind
    and index that are no :class:`BasisSymbol` raise :class:`DomainError`."""
    BasisSymbol(kind, index)
    _check_int("prec", prec, 1, _MAX_PREC)
    if kind == "one":
        return mpf(1)
    if kind == "ln2":
        return ln2(prec)
    if kind == "lnpi":
        return ln_pi(prec)
    if kind == "zeta_prime_ratio":
        return _cached(
            ("zeta_prime_ratio", index, prec),
            prec,
            lambda: zeta_prime_even(index, prec) / mp.pi ** (2 * index + 2),
        )
    if kind == "beta_prime_ratio":
        return _cached(
            ("beta_prime_ratio", index, prec),
            prec,
            lambda: beta_prime_odd(index, prec) / mp.pi ** (2 * index + 1),
        )
    if kind == "eta_prime_neg":
        return eta_prime_neg(index, prec)
    if kind == "beta_prime_neg":
        return beta_prime_neg(index, prec)
    if kind == "zeta_odd_ratio":
        # zeta(s) = eta(s) / (1 - 2^{1-s}) at s = 2p+3
        return _cached(
            ("zeta_odd_ratio", index, prec),
            prec,
            lambda: _basis_sum("eta", index, prec)
            / ((1 - mpf(2) ** (-2 * index - 2)) * mp.pi ** (2 * index + 2)),
        )
    # beta_even_ratio, the last kind BasisSymbol admits
    return _cached(
        ("beta_even_ratio", index, prec),
        prec,
        lambda: _basis_sum("beta", index, prec) / mp.pi ** (2 * index + 1),
    )


def _combine(form: ClosedForm, prec: int) -> tuple[mpf, float]:
    """sum c*v over the form at ``prec``, and the digits lost to cancellation
    in it, log10(sum |c*v| / |sum c*v|), a float taken at 53 bits."""
    values = [(coeff, symbol_value(sym.kind, sym.index, prec)) for sym, coeff in form.items()]
    with _working(prec):
        total = scale = mpf(0)
        for coeff, value in values:
            term = _as_mpf(coeff) * value
            total += term
            scale += abs(term)
        if not scale:
            return total, 0.0
        if not total:  # every working digit cancelled
            return total, float(mp.dps)
        with mp.workprec(53):
            return total, float(mp.log10(scale / abs(total)))


def eval_closed_form(form: ClosedForm, prec: int) -> mpf:
    """Evaluate a closed form numerically; deterministic for fixed prec.

    When cancellation among the terms loses more than ``_CANCELLATION_SLACK``
    of the guard digits, the symbols are evaluated again with the excess
    added to the precision, so the result stays correct to ``prec`` digits.
    Raises :class:`PrecisionError` when that would pass the 1000-digit cap.
    """
    _check_int("prec", prec, 1, _MAX_PREC)
    work = prec
    while True:
        total, lost = _combine(form, work)
        needed = prec + max(0, math.ceil(lost) - _CANCELLATION_SLACK)
        if needed <= work:
            break
        if needed > _MAX_PREC:
            raise PrecisionError(
                f"closed form loses {lost:.1f} digits to cancellation; "
                f"{prec} digits would need {needed}, cap is {_MAX_PREC}"
            )
        work = needed
    if work == prec:
        return total
    with _working(prec):
        return +total


def phi1_bounds(s, prec: int) -> tuple[mpf, mpf]:
    """Strict enclosure 2/(s^2-1) < Phi_1(s) < 1/(s-1) for s > 1."""
    _check_int("prec", prec, 1, _MAX_PREC)
    with _working(prec):
        sx = _exact(s)
        if not sx > 1:
            raise DomainError(f"bounds require s > 1, got {s}")
        return 2 / _as_mpf(sx * sx - 1), 1 / _as_mpf(sx - 1)


def mellin_bound_gamma_ratio(s, prec: int) -> tuple[mpf, mpf]:
    """Strict enclosure of Phi_2(s) for s > 1:

    sqrt(pi)/(2s) * G < Phi_2(s) < sqrt(pi)/2 * G,  G = Gamma((s-1)/2)/Gamma(s/2).
    """
    _check_int("prec", prec, 1, _MAX_PREC)
    with _working(prec):
        sx = _exact(s)
        if not sx > 1:
            raise DomainError(f"bounds require s > 1, got {s}")
        sv = _as_mpf(sx)
        ratio = mp.gamma(_as_mpf((sx - 1) / 2)) / mp.gamma(sv / 2)
        upper = mp.sqrt(mp.pi) / 2 * ratio
        return upper / sv, upper
