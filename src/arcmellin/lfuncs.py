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

The kernel, ``_basis_sweep``, takes one family (eta, eta', beta or beta')
and a list of exponents s, and sums every c_k L(m) / m^s in a single sweep
over k, with L(m) = ln m for the derivative families and 1 otherwise.
t_k = c_k L(m) is one mpf per k, so each value depends only on (family, s,
precision), never on which other exponents shared the sweep.  The
integer-argument sums behind the basis symbols, eta'(2p+2) (for
zeta'(2p+2)), beta'(2p+1), eta(2p+3) (for zeta(2p+3)) and beta(2p+2), pass
int exponents, so m^s is an exact integer; ``eval_closed_form`` fills every
missing sum of a form with one sweep per family.  The real-s sums
``eta_value``, ``eta_prime``, ``beta_value`` and ``beta_prime_value`` pass
one mpf exponent, so m^s stays an mpf power and a huge s stays cheap.

The kernel reads two tables, each keyed by the binary precision ``mp.prec``
and holding one precision at a time: the Chebyshev weights
(c_0 ... c_{n-1}, d) for each term count n, and ln p = mp.log(p) for every
prime p a derivative sum has used.  A composite m with smallest prime
factor p gets ln m = ln p + ln(m/p) in a dict local to the sweep, so every
sum reads ln m one way.  The tables are filled lazily under ``_MP_LOCK``, so
the kernel must run inside ``_working``; reusing them leaves every value
bit-identical.
``eval_closed_form`` also measures the digits its sum loses to cancellation
and evaluates again at a higher precision when they eat into the guard.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from fractions import Fraction

from mpmath import mp, mpf

from .closedform import ClosedForm
from .exact import DomainError, PrecisionError, bernoulli, euler_number, harmonic

GUARD_DIGITS = 15
#: Guard digits that cancellation in ``eval_closed_form`` may use up before
#: the form is evaluated again at a higher precision.
_CANCELLATION_SLACK = 5

_MAX_PREC = 1000

_MP_LOCK = threading.RLock()

_cache_lock = threading.Lock()
_constant_cache: dict[tuple, mpf] = {}
# The kernel tables of the accelerated sums, each {mp.prec: table} holding one
# precision at a time: {n: (Chebyshev weights c_0 ... c_{n-1}, d)} for the
# n-term sum, and {p: ln p} for primes p.  Filled and read only inside _working.
_weight_tables: dict[int, dict[int, tuple]] = {}
_log_tables: dict[int, dict[int, mpf]] = {}


def _check_prec(prec: int) -> None:
    if not 1 <= prec <= _MAX_PREC:
        raise DomainError(f"precision must be in [1, {_MAX_PREC}] digits, got {prec}")


def _as_mpf(x) -> mpf:
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    if isinstance(x, float):
        return mpf(x)
    return mp.mpmathify(x)


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


def _chebyshev_weights(n: int) -> tuple[tuple[mpf, ...], mpf]:
    """The weights (c_0 ... c_{n-1}) and divisor d of the n-term sum."""
    weights = _precision_table(_weight_tables)
    hit = weights.get(n)
    if hit is None:
        d = (3 + mp.sqrt(8)) ** n
        d = (d + 1 / d) / 2
        b, c = mpf(-1), -d
        cs = []
        for k in range(n):
            c = b - c
            cs.append(c)
            b = (k + n) * (k - n) * b / ((k + mpf(1) / 2) * (k + 1))
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
# The family each integer-argument symbol reads.
_SYMBOL_FAMILY = {
    "zeta_prime_ratio": "eta_prime",
    "eta_prime_neg": "eta_prime",
    "beta_prime_ratio": "beta_prime",
    "beta_prime_neg": "beta_prime",
    "zeta_odd_ratio": "eta",
    "beta_even_ratio": "beta",
}


def _sweep_logs(top: int, odd: bool) -> dict[int, mpf]:
    """ln m for m = 2 ... top (odd m only, if ``odd``).

    A prime p reads mp.log(p) from ``_log_tables``; a composite m with
    smallest prime factor p is ln p + ln(m/p), so ln m depends only on m and
    the precision.
    """
    primes = _precision_table(_log_tables)
    smallest = list(range(top + 1))
    for p in range(2, math.isqrt(top) + 1):
        if smallest[p] == p:
            for multiple in range(p * p, top + 1, p):
                if smallest[multiple] == multiple:
                    smallest[multiple] = p
    logs = {}
    for m in range(3 if odd else 2, top + 1, 2 if odd else 1):
        p = smallest[m]
        if p < m:
            logs[m] = logs[p] + logs[m // p]
        else:
            if m not in primes:
                primes[m] = mp.log(m)
            logs[m] = primes[m]
    return logs


def _basis_sweep(family: str, exponents) -> list[mpf]:
    """The family's sum at every s in ``exponents``, in one sweep over k.

    Each sum is sum_k c_k L(m) / m^s / d over the weights of
    ``_chebyshev_weights(_term_count())``, with L(m) = ln m for the
    derivative families (negated, as d/ds m^-s = -ln m m^-s) and 1
    otherwise.  t_k = c_k L(m) is one mpf per k, so every value depends only
    on (family, s, precision), never on the other exponents.  An int s makes
    m^s an exact integer; an mpf s keeps it an mpf power, which stays cheap
    however large s is.  Must be called inside ``_working``.
    """
    odd, with_log, _ = _FAMILIES[family]
    cs, d = _chebyshev_weights(_term_count())
    sums = [mpf(0)] * len(exponents)
    logs = _sweep_logs(2 * len(cs) - 1 if odd else len(cs), odd) if with_log else {}
    for k, c in enumerate(cs):
        m = 2 * k + 1 if odd else k + 1
        if with_log:
            if m == 1:  # ln 1 = 0
                continue
            c = c * logs[m]
        for i, s in enumerate(exponents):
            sums[i] += c / m ** s
    return [-(total / d) if with_log else total / d for total in sums]


def _basis_sum(family: str, p: int, prec: int) -> mpf:
    """The family's sum of index p, cached per (family, p, prec); a miss
    sweeps for p alone, which gives the same value as a shared sweep."""
    s = _FAMILIES[family][2] + 2 * p
    return _cached((family, p, prec), prec, lambda: _basis_sweep(family, [s])[0])


def _fill_basis_sums(symbols, prec: int) -> None:
    """Cache every family sum the integer-argument ``symbols`` read at
    ``prec``: one sweep per family for all its missing indices."""
    missing: dict[str, set[int]] = {}
    with _cache_lock:
        for sym in symbols:
            family = _SYMBOL_FAMILY.get(sym.kind)
            if family is not None and (family, sym.index, prec) not in _constant_cache:
                missing.setdefault(family, set()).add(sym.index)
    for family, indices in missing.items():
        ps = sorted(indices)
        s0 = _FAMILIES[family][2]
        with _working(prec):
            values = _basis_sweep(family, [s0 + 2 * p for p in ps])
        with _cache_lock:
            for p, value in zip(ps, values):
                _constant_cache.setdefault((family, p, prec), value)


def _real_s_sum(family: str, s, prec: int) -> mpf:
    """The family's sum at one real s >= 1.  s stays an mpf even when it is
    integral, so eta_value(10**6, 30) builds no million-digit m^s."""
    _check_prec(prec)
    with _working(prec):
        sv = _as_mpf(s)
        if not sv >= 1:
            raise DomainError(f"alternating-series region requires s >= 1, got {sv}")
        return _basis_sweep(family, [sv])[0]


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
    _check_prec(prec)
    if k < 1:
        raise DomainError("zeta_even_value requires k >= 1")
    def build():
        b = bernoulli(2 * k)
        sign = 1 if k % 2 else -1
        return sign * _as_mpf(b) * (2 * mp.pi) ** (2 * k) / (2 * mp.factorial(2 * k))
    return _cached(("zeta_even", k, prec), prec, build)


def beta_at_negative_even(i: int) -> Fraction:
    """Exact rational beta(-2i) = E_{2i} / 2."""
    if i < 0:
        raise DomainError("index must be >= 0")
    return Fraction(euler_number(2 * i), 2)


def ln2(prec: int) -> mpf:
    _check_prec(prec)
    return _cached(("ln2", prec), prec, lambda: mp.log(2))


def ln_pi(prec: int) -> mpf:
    _check_prec(prec)
    return _cached(("lnpi", prec), prec, lambda: mp.log(mp.pi))


def euler_gamma(prec: int) -> mpf:
    """Euler-Mascheroni constant, cached alongside the basis constants."""
    _check_prec(prec)
    return _cached(("gamma", prec), prec, lambda: +mp.euler)


# ---------------------------------------------------------------------------
# derivatives at the paper-facing argument families
# ---------------------------------------------------------------------------

def zeta_prime_even(p: int, prec: int) -> mpf:
    """zeta'(2p+2), from eta'(s) = 2^{1-s} ln2 zeta(s) + (1-2^{1-s}) zeta'(s)."""
    _check_prec(prec)
    if p < 0:
        raise DomainError("zeta_prime_even requires p >= 0")
    def build():
        ep = _basis_sum("eta_prime", p, prec)
        two = mpf(2) ** (-2 * p - 1)
        return (ep - two * mp.log(2) * zeta_even_value(p + 1, prec)) / (1 - two)
    return _cached(("zeta_prime_even", p, prec), prec, build)


def beta_prime_odd(p: int, prec: int) -> mpf:
    """beta'(2p+1), the basis kernel's sum."""
    _check_prec(prec)
    if p < 0:
        raise DomainError("beta_prime_odd requires p >= 0")
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
    _check_prec(prec)
    if i < 0:
        raise DomainError("eta_prime_neg requires i >= 0")
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
    _check_prec(prec)
    if i < 0:
        raise DomainError("beta_prime_neg requires i >= 0")
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
    """Numeric value of one basis symbol at the requested precision."""
    _check_prec(prec)
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
    if kind == "beta_even_ratio":
        return _cached(
            ("beta_even_ratio", index, prec),
            prec,
            lambda: _basis_sum("beta", index, prec) / mp.pi ** (2 * index + 1),
        )
    raise DomainError(f"unsupported basis symbol {kind!r}")


def _combine(form: ClosedForm, prec: int) -> tuple[mpf, float]:
    """sum c*v over the form at ``prec``, and the digits lost to cancellation
    in it, log10(sum |c*v| / |sum c*v|)."""
    items = form.items()
    _fill_basis_sums([sym for sym, _ in items], prec)
    values = [(coeff, symbol_value(sym.kind, sym.index, prec)) for sym, coeff in items]
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
        return total, float(mp.log10(scale / abs(total)))


def eval_closed_form(form: ClosedForm, prec: int) -> mpf:
    """Evaluate a closed form numerically; deterministic for fixed prec.

    When cancellation among the terms loses more than ``_CANCELLATION_SLACK``
    of the guard digits, the symbols are evaluated again with the excess
    added to the precision, so the result stays correct to ``prec`` digits.
    Raises :class:`PrecisionError` when that would pass the 1000-digit cap.
    """
    _check_prec(prec)
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
    _check_prec(prec)
    with _working(prec):
        sv = _as_mpf(s)
        if not sv > 1:
            raise DomainError(f"bounds require s > 1, got {s}")
        return 2 / (sv * sv - 1), 1 / (sv - 1)


def mellin_bound_gamma_ratio(s, prec: int) -> tuple[mpf, mpf]:
    """Strict enclosure of Phi_2(s) for s > 1:

    sqrt(pi)/(2s) * G < Phi_2(s) < sqrt(pi)/2 * G,  G = Gamma((s-1)/2)/Gamma(s/2).
    """
    _check_prec(prec)
    with _working(prec):
        sv = _as_mpf(s)
        if not sv > 1:
            raise DomainError(f"bounds require s > 1, got {s}")
        ratio = mp.gamma((sv - 1) / 2) / mp.gamma(sv / 2)
        upper = mp.sqrt(mp.pi) / 2 * ratio
        return upper / sv, upper
