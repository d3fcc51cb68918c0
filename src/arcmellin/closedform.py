"""Symbolic closed forms over a fixed transcendental basis.

Every integral family handled by this package evaluates to a rational linear
combination of the basis symbols

    1,  ln 2,  ln pi,
    zeta'(2p+2) / pi^{2p+2},   beta'(2p+1) / pi^{2p+1}      (p >= 0),
    eta'(-2i-1),               beta'(-2i)                   (i >= 0),
    zeta(2p+3) / pi^{2p+2},    beta(2p+2) / pi^{2p+1}       (p >= 0),

and a :class:`ClosedForm` is exactly such a combination: a map from
:class:`BasisSymbol` to ``Fraction`` with no zero entries.  Equality is exact
and structural; nothing in this module ever touches floating point.

Every residue weight below, at the poles i pi (k + 1/2) of 1/cosh^N, is a
Taylor coefficient of one kernel,

    K_{N,q}(w) = (w / sinh w)^N * cosh^{2q+1}(w),

which ``series.cosh_kernel_coeffs`` tabulates for the even Mellin values.

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
  of 4^q cosh^{2q+1}, over D 4^q T!.  J and N are then one integer sum
  each, with the tangent resp. Euler numbers as weights; K, I0 and M are
  one integer sum each over the lcm of their weights' denominators, and
  every coefficient is one ``Fraction``.  J and N are the beta integrals
  int_0^oo sinh^{2q+1} / cosh^{2n+1 or 2n} dz times (-1)^{q+n+1}; the
  ``euler-bernoulli`` suite reads them from the same helper and checks them
  against their closed values.

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
  expanded over eta'(-2i-1) resp. beta'(-2i) with coefficients built from the
  root-product triangles.

* ``phi_even_closed_form(which, m)``: the same transforms at s = 2m, expanded
  over zeta(2p+3)/pi^{2p+2} resp. beta(2p+2)/pi^{2p+1} by closing the contour
  over the poles of 1/cosh^N, with weights [w^j] K_{N,m-1}(w).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .exact import DomainError, _signed_tangent, binomial, euler_number, harmonic
from .series import (
    _cosh_moments,
    _egf_convolution,
    _x_over_sinh_row,
    cosh_kernel_coeffs,
    root_product_tables,
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


@dataclass(frozen=True, order=False)
class BasisSymbol:
    """One transcendental basis term; totally ordered for canonical output."""

    kind: str
    index: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _RANK:
            raise DomainError(f"unknown basis symbol kind {self.kind!r}")
        if self.kind in _INDEXED:
            if not isinstance(self.index, int) or isinstance(self.index, bool) or self.index < 0:
                raise DomainError(f"{self.kind} requires an integer index >= 0")
        elif self.index is not None:
            raise DomainError(f"{self.kind} takes no index")

    def sort_key(self) -> tuple[int, int]:
        return (_RANK[self.kind], self.index or 0)

    def __lt__(self, other: "BasisSymbol") -> bool:
        return self.sort_key() < other.sort_key()

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
    """Rational linear combination of basis symbols; exact, immutable."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[BasisSymbol, Fraction] | Iterable[tuple[BasisSymbol, Fraction]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[BasisSymbol, Fraction] = {}
        for sym, coeff in items:
            coeff = Fraction(coeff)
            if coeff:
                acc[sym] = acc[sym] + coeff if sym in acc else coeff
        object.__setattr__(self, "_terms", {s: c for s, c in acc.items() if c})

    def __setattr__(self, *_args) -> None:
        raise AttributeError("ClosedForm is immutable")

    def coefficient(self, symbol: BasisSymbol) -> Fraction:
        return self._terms.get(symbol, Fraction(0))

    def items(self) -> list[tuple[BasisSymbol, Fraction]]:
        """Terms in canonical symbol order."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def symbols(self) -> list[BasisSymbol]:
        return [s for s, _ in self.items()]

    def __iter__(self) -> Iterator[tuple[BasisSymbol, Fraction]]:
        return iter(self.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClosedForm):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __add__(self, other: "ClosedForm") -> "ClosedForm":
        merged = dict(self._terms)
        for sym, coeff in other._terms.items():
            merged[sym] = merged.get(sym, Fraction(0)) + coeff
        return ClosedForm(merged)

    def __sub__(self, other: "ClosedForm") -> "ClosedForm":
        return self + other.scale(-1)

    def scale(self, c) -> "ClosedForm":
        c = Fraction(c)
        return ClosedForm({s: c * v for s, v in self._terms.items()})

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
        if not self._terms:
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


def _log_residues(odd: bool, q: int, n: int) -> tuple[int, list[int], Fraction]:
    """(den, w, lnpi) of the log integral over cosh^{2n+1} (``odd``) or cosh^{2n}:
    S[p] resp. U[p] is w[p] / den, and lnpi is J resp. N (module docstring)."""
    if n < 1 or q < 0 or q > n - 1:
        raise DomainError(
            f"convergence requires 2q+1 < {'2n+1' if odd else '2n'} with q >= 0, n >= 1; "
            f"got q={q}, n={n}"
        )
    top = 2 * n if odd else 2 * n - 1
    denom, row = _x_over_sinh_row(top + 1, 2 * n)
    moments = _cosh_moments(q, n)
    den = denom * 4**q * math.factorial(top)
    w = [math.comb(top, 2 * j) * _egf_convolution(row, moments, j) for j in range(n - 1, -1, -1)]
    weight = _signed_tangent if odd else (lambda p: euler_number(2 * p))
    lnpi = Fraction(_sign(q + n + 1) * sum(weight(p) * x for p, x in enumerate(w)), den)
    return den, w, lnpi


def _weighted_sum(weights: list[Fraction], terms: list[int]) -> Fraction:
    """sum_p weights[p] terms[p], one integer sum over the lcm of the weights'
    denominators."""
    lcm = math.lcm(*(f.denominator for f in weights))
    return Fraction(sum(lcm // f.denominator * f.numerator * x for f, x in zip(weights, terms)), lcm)


@lru_cache(maxsize=256)
def log_integral_odd_cosh(q: int, n: int) -> ClosedForm:
    """Closed form of int_0^oo sinh^{2q+1}(z) ln(z) / cosh^{2n+1}(z) dz.

    Requires 2q+1 < 2n+1 (i.e. 0 <= q <= n-1) for convergence.  Memoised,
    keeping the 256 most recent forms.
    """
    den, w, j_coeff = _log_residues(True, q, n)
    pairs = [
        (zeta_prime_ratio(p),
         Fraction(_sign(q + n + p) * 2 * math.factorial(2 * p + 1) * (4 ** (p + 1) - 1) * x, den))
        for p, x in enumerate(w)
    ]
    tw = [_signed_tangent(p) * x for p, x in enumerate(w)]
    k_coeff = _sign(q + n) * _weighted_sum([Fraction(1, 4 ** (p + 1) - 1) for p in range(n)], tw) / den
    i_coeff = _sign(q + n) * _weighted_sum([harmonic(2 * p + 1) for p in range(n)], tw) / den
    pairs += [(ONE, i_coeff), (LNPI, j_coeff), (LN2, k_coeff - j_coeff)]
    return ClosedForm(pairs)


@lru_cache(maxsize=256)
def log_integral_even_cosh(q: int, n: int) -> ClosedForm:
    """Closed form of int_0^oo sinh^{2q+1}(z) ln(z) / cosh^{2n}(z) dz.

    Requires 2q+1 < 2n (i.e. 0 <= q <= n-1) for convergence.  Memoised,
    keeping the 256 most recent forms.
    """
    den, w, n_coeff = _log_residues(False, q, n)
    pairs = [
        (beta_prime_ratio(p), Fraction(_sign(q + n + p) * 2 ** (2 * p + 2) * math.factorial(2 * p) * x, den))
        for p, x in enumerate(w)
    ]
    ew = [euler_number(2 * p) * x for p, x in enumerate(w)]
    m_coeff = _sign(q + n) * _weighted_sum([harmonic(2 * p) for p in range(n)], ew) / den
    pairs += [(ONE, m_coeff), (LNPI, n_coeff), (LN2, -n_coeff)]
    return ClosedForm(pairs)


@lru_cache(maxsize=256)
def sinh_over_z_integral(q: int, n_exponent: int) -> ClosedForm:
    """Closed form of int_0^oo sinh^{2q}(z) / (z cosh^N(z)) dz, N = n_exponent.

    Requires 0 < 2q < N.  Built from the two neighbouring log-integral closed
    forms; the resulting ln(pi) coefficient must cancel to exactly zero and is
    verified here rather than assumed.  Memoised, keeping the 256 most recent
    forms.
    """
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


def eta_prime_neg_coeffs(n: int) -> tuple[Fraction, ...]:
    """Coefficients of eta'(-2i-1), i = 0..n, in the odd Mellin value of
    the 1/arctanh transform at s = 2n+1:

        c_i = sum_{k=i}^{n} C(n, k) 2^{2k+2} / (2k+1)! * integer_root(i, k).
    """
    if n < 1:
        raise DomainError("odd Mellin values require n >= 1 (s = 1 is a pole)")
    tables = root_product_tables(n)
    # integer numerators over the common denominator (2n+1)!
    denom = math.factorial(2 * n + 1)
    weights = [
        binomial(n, k) * 2 ** (2 * k + 2) * (denom // math.factorial(2 * k + 1))
        for k in range(n + 1)
    ]
    return tuple(
        Fraction(sum(weights[k] * tables.integer_root(i, k) for k in range(i, n + 1)), denom)
        for i in range(n + 1)
    )


def beta_prime_neg_coeffs(n: int) -> tuple[Fraction, ...]:
    """Coefficients of beta'(-2i), i = 0..n, in the odd Mellin value of the
    1/(sqrt(1-x^2) arctanh) transform at s = 2n+1:

        c_i = sum_{k=i}^{n} 2 C(n, k) / (2k)! * odd_root(i, k).
    """
    if n < 1:
        raise DomainError("odd Mellin values require n >= 1 (s = 1 is a pole)")
    tables = root_product_tables(n)
    # integer numerators over the common denominator (2n)!
    denom = math.factorial(2 * n)
    weights = [binomial(n, k) * 2 * (denom // math.factorial(2 * k)) for k in range(n + 1)]
    return tuple(
        Fraction(sum(weights[k] * tables.odd_root(i, k) for k in range(i, n + 1)), denom)
        for i in range(n + 1)
    )


def phi_odd_closed_form(which: int, n: int) -> ClosedForm:
    """Odd-argument Mellin value Phi_which(2n+1) over the negative-argument
    derivative basis (eta'(-2i-1) for which=1, beta'(-2i) for which=2)."""
    if which not in (1, 2):
        raise DomainError(f"which must be 1 or 2, got {which}")
    if n < 1:
        raise DomainError("n must be >= 1: the transforms have a pole at s = 1")
    if which == 1:
        coeffs = eta_prime_neg_coeffs(n)
        return ClosedForm((eta_prime_neg_symbol(i), c) for i, c in enumerate(coeffs))
    coeffs = beta_prime_neg_coeffs(n)
    return ClosedForm((beta_prime_neg_symbol(i), c) for i, c in enumerate(coeffs))


def phi_even_closed_form(which: int, m: int) -> ClosedForm:
    """Even-argument Mellin value Phi_which(2m) over zeta(2p+3)/pi^{2p+2}
    (which=1) or beta(2p+2)/pi^{2p+1} (which=2).

    x = tanh z turns Phi_which(2m) into int_0^oo sinh^{2m-1} z / (z cosh^N z) dz
    with N = 2m+1 (which=1) or N = 2m (which=2).  Closing the contour over the
    poles i pi (k + 1/2) of 1/cosh^N gives

        sum_{j even, k = N-j >= 2} (-1)^{m-1-j/2} 2^k d_j L(k) / pi^{k-1},

    with d_j = [w^j] K_{N,m-1}(w) = [w^j] cosh^{2m-1}(w) (w/sinh w)^N, and
    L(k) = (1-2^{-k}) zeta(k) for odd N, beta(k) for even N.  The k = 1
    coefficient must vanish because the integrand decays; it is checked here
    rather than assumed.
    """
    if which not in (1, 2):
        raise DomainError(f"which must be 1 or 2, got {which}")
    if m < 1:
        raise DomainError("m must be >= 1: the transforms converge only for s > 1")
    N = 2 * m + 1 if which == 1 else 2 * m
    kernel = cosh_kernel_coeffs(N, m - 1, N)
    pairs: list[tuple[BasisSymbol, Fraction]] = []
    for j in range(0, N, 2):
        d = kernel[j]
        k = N - j
        if k == 1:
            if d != 0:
                raise AssertionError(f"lambda(1) coefficient failed to vanish for m={m}: {d}")
        elif which == 1:  # 2^k lambda(k) = (2^k - 1) zeta(k)
            pairs.append((zeta_odd_ratio((k - 3) // 2), _sign(m - 1 - j // 2) * (2**k - 1) * d))
        else:
            pairs.append((beta_even_ratio((k - 2) // 2), _sign(m - 1 - j // 2) * 2**k * d))
    return ClosedForm(pairs)
