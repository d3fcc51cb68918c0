"""Symbolic closed forms over a fixed transcendental basis.

Every integral family handled by this package evaluates to a rational linear
combination of the basis symbols

    1,  ln 2,  ln pi,
    zeta'(2p+2) / pi^{2p+2},   beta'(2p+1) / pi^{2p+1}      (p >= 0),
    eta'(-2i-1),               beta'(-2i)                   (i >= 0),
    zeta(2p+3) / pi^{2p+2},    beta(2p+2) / pi^{2p+1}       (p >= 0),

and a :class:`ClosedForm` is exactly such a combination.  It holds one
positive integer denominator and a dict from :class:`BasisSymbol` (an
immutable (kind, index) tuple) to nonzero integer numerators, kept reduced,
so that each form has one representation: ``+``, ``-`` and ``scale`` are
integer operations with one gcd pass per result, and a coefficient becomes a
reduced ``Fraction`` only when it is read.  Equality is exact and
structural; nothing in this module ever touches floating point.

Every residue weight below, at the poles i pi (k + 1/2) of 1/cosh^N, is a
Taylor coefficient of one kernel,

    K_{N,q}(w) = (w / sinh w)^N * cosh^{2q+1}(w),

which ``_log_residues`` gives as integer numerators over one denominator,
for the log forms and the even Mellin values alike.

The integral families and their coefficient pipelines:

* ``log_integral_odd_cosh(q, n)``:
      I(q, n) = int_0^oo sinh^{2q+1}(z) ln(z) / cosh^{2n+1}(z) dz
              = sum_p H[p] zeta'(2p+2)/pi^{2p+2} + I0 + J ln(pi) + (K - J) ln(2)
  where, with S[p] = [w^{2n-2p-2}] K_{2n+1,q}(w) / (2p+2)! and
  t_p = (-1)^p T_{2p+1} = 2^{2p+1} (2^{2p+2}-1) B_{2p+2} / (p+1), the signed
  tangent numbers (integers),
      H[p] = (-1)^{q+n+p} 2 (2p+1)! (2^{2p+2} - 1) S[p],
      J    = (-1)^{q+n+1} sum_p t_p S[p],
      K    = (-1)^{q+n}   sum_p t_p S[p] / (2^{2p+2} - 1),
      I0   = (-1)^{q+n}   sum_p t_p H_{2p+1} S[p].

* ``log_integral_even_cosh(q, n)``: the cosh^{2n} analogue,
      int_0^oo sinh^{2q+1}(z) ln(z) / cosh^{2n}(z) dz
              = sum_p L[p] beta'(2p+1)/pi^{2p+1} + M + N ln(pi) - N ln(2)
  where, with U[p] = [w^{2n-2p-2}] K_{2n,q}(w) / (2p+1)!,
      L[p] = (-1)^{q+n+p} 2^{2p+2} (2p)! U[p],
      N    = (-1)^{q+n+1} sum_p E_{2p} U[p],
      M    = (-1)^{q+n}   sum_p H_{2p} E_{2p} U[p].

  Both families read one helper, ``_log_residues``, which returns S[p]
  resp. U[p] as integer numerators w[p] over one denominator: with
  T = 2n resp. 2n-1, w[p] = C(T, 2j) conv_j for j = n-1-p, the binomial
  convolution of the integer (x/sinh x)^{T+1} row with the integer moments
  of 4^q cosh^{2q+1}, over D 4^q T!.  Each form multiplies w[p] by its
  tangent resp. Euler weight once; J and N are the sum of those products,
  K, I0 and M one integer sum each over the lcm of their weights'
  denominators, and the form is every coefficient's integer numerator over
  D 4^q T! times that lcm, reduced once.  J and N are the beta integrals
  int_0^oo sinh^{2q+1} / cosh^{2n+1 or 2n} dz times (-1)^{q+n+1}; the
  ``euler-bernoulli`` suite reads them for every q at once from
  ``_ln_pi_row`` and checks them against their closed values.

* ``sinh_over_z_integral(q, N)``:
      int_0^oo sinh^{2q}(z) / (z cosh^N(z)) dz
  assembled by one integration by parts as
      -2q * log_integral(q-1, N-1)  +  N * log_integral(q, N+1),
  after which the ln(pi) contributions cancel identically (this is checked,
  not assumed).

* ``phi_odd_closed_form(which, n)``: the odd-argument values of the two
  Mellin transforms on (0, 1),
      int_0^1 x^{2n} / arctanh(x) dx                  (which = 1),
      int_0^1 x^{2n} / (sqrt(1-x^2) arctanh(x)) dx    (which = 2),
  expanded over eta'(-2i-1) resp. beta'(-2i) with coefficients summed
  against the root products prod_{i<=k} (y - r_i), r_i = i^2 resp.
  (2i-1)^2, by Horner's rule on one integer polynomial over (2n+1)!
  resp. (2n)! (``_root_product_sum``).  The eta'(-1) coefficient is
  4/(2n+1) for every n, which the ``eta-coeff`` suite checks.

* ``phi_even_closed_form(which, m)``: the same transforms at s = 2m, expanded
  over zeta(2p+3)/pi^{2p+2} resp. beta(2p+2)/pi^{2p+1} by closing the contour
  over the poles of 1/cosh^N, with weights [w^j] K_{N,m-1}(w): the
  ``_log_residues`` numerators of the log integral with (q, n) = (m-1, m),
  over that integral's denominator.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

from .exact import DomainError, _check_int, _signed_tangent, binomial, euler_number, harmonic
from .series import (
    _cosh_moments,
    _dot,
    _egf_convolution,
    _egf_weights,
    _x_over_sinh_row,
)

_KINDS = (
    "zeta_prime_ratio",
    "beta_prime_ratio",
    "eta_prime_neg",
    "beta_prime_neg",
    "one",
    "lnpi",
    "ln2",
    "zeta_odd_ratio",
    "beta_even_ratio",
)
_RANK = {kind: i for i, kind in enumerate(_KINDS)}
_INDEX_KEY = {
    "zeta_prime_ratio": "p",
    "beta_prime_ratio": "p",
    "eta_prime_neg": "i",
    "beta_prime_neg": "i",
    "zeta_odd_ratio": "p",
    "beta_even_ratio": "p",
}
_INDEXED = frozenset(_INDEX_KEY)


class BasisSymbol(tuple):
    """One transcendental basis term: the immutable pair (kind, index), so
    hashing and equality are a tuple's; totally ordered for canonical output."""

    __slots__ = ()

    def __new__(cls, kind: str, index: int | None = None) -> "BasisSymbol":
        if kind not in _RANK:
            raise DomainError(f"unknown basis symbol kind {kind!r}")
        if kind in _INDEXED:
            _check_int(f"{kind} index", index)
        elif index is not None:
            raise DomainError(f"{kind} takes no index")
        return tuple.__new__(cls, (kind, index))

    kind = property(itemgetter(0))
    index = property(itemgetter(1))

    def __getnewargs__(self) -> tuple[str, int | None]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"BasisSymbol(kind={self[0]!r}, index={self[1]!r})"

    def sort_key(self) -> tuple[int, int]:
        return (_RANK[self[0]], self[1] or 0)

    def __lt__(self, other: "BasisSymbol") -> bool:
        return self.sort_key() < other.sort_key()

    def __gt__(self, other: "BasisSymbol") -> bool:
        return self.sort_key() > other.sort_key()

    def __le__(self, other: "BasisSymbol") -> bool:
        return self.sort_key() <= other.sort_key()

    def __ge__(self, other: "BasisSymbol") -> bool:
        return self.sort_key() >= other.sort_key()

    def latex(self) -> str:
        if self.kind == "zeta_prime_ratio":
            e = 2 * self.index + 2
            return rf"\frac{{\zeta'({e})}}{{\pi^{{{e}}}}}"
        if self.kind == "beta_prime_ratio":
            e = 2 * self.index + 1
            denom = r"\pi" if e == 1 else rf"\pi^{{{e}}}"
            return rf"\frac{{\beta'({e})}}{{{denom}}}"
        if self.kind == "eta_prime_neg":
            return rf"\eta'({-(2 * self.index + 1)})"
        if self.kind == "beta_prime_neg":
            return rf"\beta'({-2 * self.index})"
        if self.kind == "zeta_odd_ratio":
            e = 2 * self.index + 2
            return rf"\frac{{\zeta({e + 1})}}{{\pi^{{{e}}}}}"
        if self.kind == "beta_even_ratio":
            e = 2 * self.index + 1
            denom = r"\pi" if e == 1 else rf"\pi^{{{e}}}"
            return rf"\frac{{\beta({e + 1})}}{{{denom}}}"
        if self.kind == "lnpi":
            return r"\ln \pi"
        if self.kind == "ln2":
            return r"\ln 2"
        return ""  # "one": the coefficient stands alone


ONE = BasisSymbol("one")
LNPI = BasisSymbol("lnpi")
LN2 = BasisSymbol("ln2")


def zeta_prime_ratio(p: int) -> BasisSymbol:
    """zeta'(2p+2) / pi^{2p+2}."""
    return BasisSymbol("zeta_prime_ratio", p)


def beta_prime_ratio(p: int) -> BasisSymbol:
    """beta'(2p+1) / pi^{2p+1}."""
    return BasisSymbol("beta_prime_ratio", p)


def eta_prime_neg_symbol(i: int) -> BasisSymbol:
    """eta'(-2i-1)."""
    return BasisSymbol("eta_prime_neg", i)


def beta_prime_neg_symbol(i: int) -> BasisSymbol:
    """beta'(-2i)."""
    return BasisSymbol("beta_prime_neg", i)


def zeta_odd_ratio(p: int) -> BasisSymbol:
    """zeta(2p+3) / pi^{2p+2}."""
    return BasisSymbol("zeta_odd_ratio", p)


def beta_even_ratio(p: int) -> BasisSymbol:
    """beta(2p+2) / pi^{2p+1}."""
    return BasisSymbol("beta_even_ratio", p)


class ClosedForm:
    """Rational linear combination of basis symbols; exact, immutable.

    Held as one positive integer denominator and a dict of nonzero integer
    numerators, kept reduced: the gcd of the denominator and every
    numerator is 1.  So a form has one representation, ``==`` compares it
    directly, and ``+``, ``-`` and ``scale`` work on integers with one gcd
    pass per result; the ``Fraction`` of a coefficient is made only when it
    is read.
    """

    __slots__ = ("_den", "_nums")

    def __init__(self, terms: Mapping[BasisSymbol, Fraction] | Iterable[tuple[BasisSymbol, Fraction]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[BasisSymbol, Fraction] = {}
        for sym, coeff in items:
            coeff = Fraction(coeff)
            if coeff:
                acc[sym] = acc[sym] + coeff if sym in acc else coeff
        # reduced without a gcd: the top power of a prime in the lcm is all
        # of it in one coefficient's denominator, prime to that numerator
        den = math.lcm(*(c.denominator for c in acc.values()))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_nums", {s: c.numerator * (den // c.denominator) for s, c in acc.items() if c})

    @classmethod
    def _over(cls, den: int, nums: Iterable[tuple[BasisSymbol, int]]) -> "ClosedForm":
        """The form sum n s / den from integer numerators n over a positive
        ``den``, each symbol once: zeros dropped, then one gcd pass."""
        nums = {s: n for s, n in nums if n}
        g = math.gcd(den, *nums.values())
        if g > 1:
            den //= g
            nums = {s: n // g for s, n in nums.items()}
        form = object.__new__(cls)
        object.__setattr__(form, "_den", den)
        object.__setattr__(form, "_nums", nums)
        return form

    def __setattr__(self, *_args) -> None:
        raise AttributeError("ClosedForm is immutable")

    def coefficient(self, symbol: BasisSymbol) -> Fraction:
        return Fraction(self._nums.get(symbol, 0), self._den)

    def items(self) -> list[tuple[BasisSymbol, Fraction]]:
        """Terms in canonical symbol order."""
        den = self._den
        return [(s, Fraction(n, den)) for s, n in sorted(self._nums.items(), key=lambda kv: kv[0].sort_key())]

    def symbols(self) -> list[BasisSymbol]:
        return sorted(self._nums, key=BasisSymbol.sort_key)

    def __iter__(self) -> Iterator[tuple[BasisSymbol, Fraction]]:
        return iter(self.items())

    def __len__(self) -> int:
        return len(self._nums)

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClosedForm):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._nums.items())))

    def _combine(self, other: "ClosedForm", sign: int) -> "ClosedForm":
        """self + sign * other over the lcm of the two denominators."""
        d1, d2 = self._den, other._den
        g = math.gcd(d1, d2)
        a, b = d2 // g, sign * (d1 // g)
        nums = {s: n * a for s, n in self._nums.items()} if a != 1 else dict(self._nums)
        for s, n in other._nums.items():
            nums[s] = nums.get(s, 0) + n * b
        return ClosedForm._over(d1 * a, nums.items())

    def __add__(self, other: "ClosedForm") -> "ClosedForm":
        return self._combine(other, 1)

    def __sub__(self, other: "ClosedForm") -> "ClosedForm":
        return self._combine(other, -1)

    def scale(self, c) -> "ClosedForm":
        if type(c) is not int:
            c = Fraction(c)
            num, den = c.numerator, c.denominator
        else:
            num, den = c, 1
        return ClosedForm._over(self._den * den, [(s, n * num) for s, n in self._nums.items()])

    def __mul__(self, c) -> "ClosedForm":
        return self.scale(c)

    __rmul__ = __mul__

    def to_json(self) -> str:
        terms = []
        for sym, coeff in self.items():
            entry: dict[str, object] = {"symbol": sym.kind}
            if sym.kind in _INDEXED:
                entry[_INDEX_KEY[sym.kind]] = sym.index
            entry["coeff"] = f"{coeff.numerator}/{coeff.denominator}"
            terms.append(entry)
        return json.dumps({"terms": terms})

    @staticmethod
    def from_json(text: str) -> "ClosedForm":
        data = json.loads(text)
        if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
            raise DomainError('a JSON closed form is an object with a "terms" list')
        pairs = []
        for entry in data["terms"]:
            if not isinstance(entry, dict):
                raise DomainError(f"JSON closed-form term {entry!r} is not an object")
            kind = entry["symbol"]
            if not isinstance(kind, str) or kind not in _RANK:
                raise DomainError(f"unknown symbol {kind!r} in JSON closed form")
            index = entry.get(_INDEX_KEY[kind]) if kind in _INDEXED else None
            coeff = entry["coeff"]
            if not isinstance(coeff, str):
                raise DomainError(f"coefficient {coeff!r} is not a string 'num/den'")
            num, _, den = coeff.partition("/")
            num, den = int(num), int(den or "1")
            if den == 0:
                raise DomainError(f"coefficient {coeff!r} has a zero denominator")
            pairs.append((BasisSymbol(kind, index), Fraction(num, den)))
        return ClosedForm(pairs)

    def latex(self) -> str:
        """Render in display style: derivative ratios ascending, then the
        rational constant, then ln pi, then ln 2, then the zeta and beta value
        ratios ascending."""
        if not self._nums:
            return "0"
        parts: list[str] = []
        for sym, coeff in self.items():
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            if mag.denominator == 1:
                body = str(mag.numerator)
            else:
                body = rf"\frac{{{mag.numerator}}}{{{mag.denominator}}}"
            symtex = sym.latex()
            if symtex:
                term = symtex if mag == 1 else rf"{body}\,{symtex}"
            else:
                term = body
            parts.append((sign, term))
        first_sign, first_term = parts[0]
        out = ("-" if first_sign == "-" else "") + first_term
        for sign, term in parts[1:]:
            out += f" {sign} {term}"
        return out

    def __repr__(self) -> str:
        inner = ", ".join(f"{s.kind}[{s.index}]: {c}" if s.index is not None else f"{s.kind}: {c}"
                          for s, c in self.items())
        return f"ClosedForm({{{inner}}})"


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


def _log_residues(odd: bool, q: int, n: int) -> tuple[int, list[int]]:
    """(den, w) of the log integral over cosh^{2n+1} (``odd``) or cosh^{2n}:
    S[p] resp. U[p] is w[p] / den (module docstring).  With (q, n) =
    (m-1, m) they are the weights of Phi_1(2m) resp. Phi_2(2m).  Checks q
    and n for both log families: ints, in the convergence region."""
    _check_int("q", q, None)
    _check_int("n", n, None)
    if n < 1 or q < 0 or q > n - 1:
        raise DomainError(
            f"convergence requires 2q+1 < {'2n+1' if odd else '2n'} with q >= 0, n >= 1; "
            f"got q={q}, n={n}"
        )
    top = 2 * n if odd else 2 * n - 1
    denom, row = _x_over_sinh_row(top + 1, 2 * n)
    moments = _cosh_moments(q, n)
    den = denom * 4**q * math.factorial(top)
    return den, [math.comb(top, 2 * j) * _egf_convolution(row, moments, j) for j in range(n - 1, -1, -1)]


def _ln_pi_row(odd: bool, n: int) -> list[Fraction]:
    """The ln(pi) coefficients J resp. N of ``log_integral_odd_cosh(q, n)``
    (``odd``) or ``log_integral_even_cosh(q, n)`` for q = 0..n-1, every log
    integral over one cosh power.

    Each is sign sum_p weight(p) C(top, 2j) sum_i C(2j, 2i) row[j-i] m_q[i]
    over den, with j = n-1-p, the moments m_q of 4^q cosh^{2q+1} and den
    the one of ``_log_residues``; summed over j first, the weights of m_q[i]
    do not depend on q, so the row is one weight vector dotted with each
    q's moments.
    """
    top = 2 * n if odd else 2 * n - 1
    denom, row = _x_over_sinh_row(top + 1, 2 * n)
    weight = _signed_tangent if odd else (lambda p: euler_number(2 * p))
    v = [0] * n
    for j in range(n):
        c = weight(n - 1 - j) * math.comb(top, 2 * j)
        for i, x in enumerate(_egf_weights(row, j)):
            v[i] += c * x
    den = denom * math.factorial(top)
    return [Fraction(_sign(q + n + 1) * _dot(v, _cosh_moments(q, n)), den * 4**q) for q in range(n)]


def _weighted_sum(weights: list[Fraction], terms: list[int]) -> tuple[int, int]:
    """(num, lcm) with sum_p weights[p] terms[p] = num / lcm: one integer sum
    over the lcm of the weights' denominators."""
    lcm = math.lcm(*(f.denominator for f in weights))
    return sum(lcm // f.denominator * f.numerator * x for f, x in zip(weights, terms)), lcm


@lru_cache(maxsize=256, typed=True)
def log_integral_odd_cosh(q: int, n: int) -> ClosedForm:
    """Closed form of int_0^oo sinh^{2q+1}(z) ln(z) / cosh^{2n+1}(z) dz.

    Requires 2q+1 < 2n+1 (i.e. 0 <= q <= n-1) for convergence.  Memoised,
    keeping the 256 most recent forms, by argument type too, so a float or
    a bool misses the cache and is refused however the cache is filled.
    """
    den, w = _log_residues(True, q, n)
    tw = [_signed_tangent(p) * x for p, x in enumerate(w)]
    k_num, k_den = _weighted_sum([Fraction(1, 4 ** (p + 1) - 1) for p in range(n)], tw)
    i_num, i_den = _weighted_sum([harmonic(2 * p + 1) for p in range(n)], tw)
    # every coefficient over den * m
    m = math.lcm(k_den, i_den)
    sign = _sign(q + n)
    j = -sign * sum(tw) * m
    nums = [
        (zeta_prime_ratio(p), _sign(q + n + p) * 2 * math.factorial(2 * p + 1) * (4 ** (p + 1) - 1) * x * m)
        for p, x in enumerate(w)
    ]
    nums += [(ONE, sign * i_num * (m // i_den)), (LNPI, j), (LN2, sign * k_num * (m // k_den) - j)]
    return ClosedForm._over(den * m, nums)


@lru_cache(maxsize=256, typed=True)
def log_integral_even_cosh(q: int, n: int) -> ClosedForm:
    """Closed form of int_0^oo sinh^{2q+1}(z) ln(z) / cosh^{2n}(z) dz.

    Requires 2q+1 < 2n (i.e. 0 <= q <= n-1) for convergence.  Memoised by
    argument type like ``log_integral_odd_cosh``.
    """
    den, w = _log_residues(False, q, n)
    ew = [euler_number(2 * p) * x for p, x in enumerate(w)]
    m_num, m = _weighted_sum([harmonic(2 * p) for p in range(n)], ew)
    # every coefficient over den * m
    ln_pi = _sign(q + n + 1) * sum(ew) * m
    nums = [
        (beta_prime_ratio(p), _sign(q + n + p) * 2 ** (2 * p + 2) * math.factorial(2 * p) * x * m)
        for p, x in enumerate(w)
    ]
    nums += [(ONE, _sign(q + n) * m_num), (LNPI, ln_pi), (LN2, -ln_pi)]
    return ClosedForm._over(den * m, nums)


@lru_cache(maxsize=256, typed=True)
def sinh_over_z_integral(q: int, n_exponent: int) -> ClosedForm:
    """Closed form of int_0^oo sinh^{2q}(z) / (z cosh^N(z)) dz, N = n_exponent.

    Requires 0 < 2q < N.  Built from the two neighbouring log-integral closed
    forms; the resulting ln(pi) coefficient must cancel to exactly zero and is
    verified here rather than assumed.  Memoised by argument type like
    ``log_integral_odd_cosh``.
    """
    _check_int("q", q, None)
    _check_int("N", n_exponent, None)
    N = n_exponent
    if not 0 < 2 * q < N:
        raise DomainError(f"convergence requires 0 < 2q < N; got q={q}, N={N}")
    if N % 2 == 0:
        lower = log_integral_odd_cosh(q - 1, (N - 2) // 2)
        upper = log_integral_odd_cosh(q, N // 2)
    else:
        lower = log_integral_even_cosh(q - 1, (N - 1) // 2)
        upper = log_integral_even_cosh(q, (N + 1) // 2)
    form = lower.scale(-2 * q) + upper.scale(N)
    residue = form.coefficient(LNPI)
    if residue != 0:
        raise AssertionError(
            f"ln(pi) coefficient failed to cancel for (q={q}, N={N}): {residue}"
        )
    return form


def _root_product_sum(weights: list[int], roots: list[int]) -> list[int]:
    """Coefficients in y of sum_k weights[k] prod_{i<k} (y - roots[i]).

    Horner's rule from the top, P = P (y - roots[k]) + weights[k] for k
    descending, so each step multiplies the integer polynomial by one small
    root.
    """
    poly = [weights[-1]]
    for k in range(len(weights) - 2, -1, -1):
        r = roots[k]
        poly = [a - r * b for a, b in zip([0, *poly], [*poly, 0])]
        poly[0] += weights[k]
    return poly


def phi_odd_closed_form(which: int, n: int) -> ClosedForm:
    """Odd-argument Mellin value Phi_which(2n+1) over the negative-argument
    derivative basis, n an int >= 1 (s = 1 is a pole).  The coefficients of
    eta'(-2i-1) (which=1) resp. beta'(-2i) (which=2), i = 0..n, are

        sum_{k=i}^{n} C(n, k) 2^{2k+2} / (2k+1)! * [y^i] prod_{j<=k} (y - j^2),
        sum_{k=i}^{n} 2 C(n, k) / (2k)! * [y^i] prod_{j<=k} (y - (2j-1)^2),

    summed over k by Horner's rule in y (``_root_product_sum``) on integer
    numerators over one factorial, (2n+1)! resp. (2n)!.
    """
    _check_int("which", which, 1, 2)
    _check_int("n", n, None)
    if n < 1:
        raise DomainError(f"odd Mellin values require n >= 1 (s = 1 is a pole), got n={n}")
    if which == 1:
        symbol, den = eta_prime_neg_symbol, math.factorial(2 * n + 1)
        weights = [
            binomial(n, k) * 2 ** (2 * k + 2) * (den // math.factorial(2 * k + 1)) for k in range(n + 1)
        ]
        roots = [j * j for j in range(1, n + 1)]
    else:
        symbol, den = beta_prime_neg_symbol, math.factorial(2 * n)
        weights = [binomial(n, k) * 2 * (den // math.factorial(2 * k)) for k in range(n + 1)]
        roots = [(2 * j - 1) ** 2 for j in range(1, n + 1)]
    return ClosedForm._over(den, [(symbol(i), c) for i, c in enumerate(_root_product_sum(weights, roots))])


def phi_even_closed_form(which: int, m: int) -> ClosedForm:
    """Even-argument Mellin value Phi_which(2m) over zeta(2p+3)/pi^{2p+2}
    (which=1) or beta(2p+2)/pi^{2p+1} (which=2).

    x = tanh z turns Phi_which(2m) into int_0^oo sinh^{2m-1} z / (z cosh^N z) dz
    with N = 2m+1 (which=1) or N = 2m (which=2).  Closing the contour over the
    poles i pi (k + 1/2) of 1/cosh^N gives

        sum_{j even, k = N-j >= 2} (-1)^{m-1-j/2} 2^k d_j L(k) / pi^{k-1},

    with d_j = [w^j] K_{N,m-1}(w) = [w^j] cosh^{2m-1}(w) (w/sinh w)^N, and
    L(k) = (1-2^{-k}) zeta(k) for odd N, beta(k) for even N.  With
    j = 2(m-1-p), d_j = (k-1)! w[p] / den for the ``_log_residues`` of the
    log integral over cosh^N with (q, n) = (m-1, m), and k = 2p+3 resp.
    2p+2.  The k = 1 coefficient (j = 2m, odd N only) must vanish because
    the integrand decays; it is checked here rather than assumed.
    """
    _check_int("which", which, 1, 2)
    _check_int("m", m, None)
    if m < 1:
        raise DomainError("m must be >= 1: the transforms converge only for s > 1")
    odd = which == 1
    if odd and _egf_convolution(_x_over_sinh_row(2 * m + 1, 2 * m)[1], _cosh_moments(m - 1, m + 1), m):
        raise AssertionError(f"lambda(1) coefficient failed to vanish for m={m}")
    den, w = _log_residues(odd, m - 1, m)
    symbol = zeta_odd_ratio if odd else beta_even_ratio
    nums = []
    for p, x in enumerate(w):
        k = 2 * p + 3 if odd else 2 * p + 2
        # 2^k lambda(k) = (2^k - 1) zeta(k) for which = 1
        nums.append((symbol(p), _sign(p) * (2**k - 1 if odd else 2**k) * math.factorial(k - 1) * x))
    return ClosedForm._over(den, nums)
