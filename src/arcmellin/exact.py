"""Exact integer and rational number tables.

Everything downstream (series coefficients, closed-form assembly, identity
suites) consumes these tables, so they are computed in exact arithmetic only:
Python ints and ``fractions.Fraction``.  Conventions fixed here:

* Bernoulli numbers with B_1 = -1/2 (the recurrence convention), so
  B_0 = 1, B_1 = -1/2, B_2 = 1/6, and B_{2k+1} = 0 for k >= 1.
* Euler numbers in the secant convention, sech x = sum E_n x^n / n!,
  so E_0 = 1, E_2 = -1, E_4 = 5, and all odd-index values vanish.
* Harmonic numbers with H_0 = 0.
* Signed tangent numbers (-1)^k T_{2k+1}, tan x = sum T_n x^n / n!, so
  1, -2, 16, -272, ...
* Eulerian numbers of type A (descents of permutations, row sums n!) and
  type B (descents of signed permutations, row sums 2^n n!).

The Bernoulli, Euler and tangent numbers are read from one table, the zigzag
numbers A_n of sec x + tan x = sum A_n x^n / n! (1, 1, 1, 2, 5, 16, 61, 272,
...), whose even entries are |E_n| and odd entries T_n:

    E_{2k}   = (-1)^k A_{2k},
    T_{2k+1} = A_{2k+1},
    B_{2k}   = (-1)^{k-1} 2k A_{2k-1} / (4^k (4^k - 1))   for k >= 1,

the last from T_{2k-1} = (-1)^{k-1} 4^k (4^k - 1) B_{2k} / (2k) (Knuth and
Buckholtz, Math. Comp. 21, 1967).  The table grows by Seidel's boustrophedon
(Millar, Sloane and Young, J. Combin. Theory A 76, 1996): row m is the
running sums, from 0, of row m-1 read backwards, and A_m is its last entry,
so A_m costs m integer additions and only the last row is kept.

Every table of this layer, and the root-product rows of ``series``, is an
append-only list grown by ``_grow`` under the one lock ``_lock``; published
entries are immutable, so concurrent reads are safe.

Every int argument of the package's public entry points, in every layer (an
index, a row, ``q``, ``n``, ``which``, a truncation, a precision in digits),
is checked by one helper, ``_check_int``, before any cache sees it: a value
that is not an int, a bool, or an int outside the entry point's range raises
``DomainError``.  A range that says more than "an int", such as an integral's
convergence region or the pole at s = 1, is checked where it is stated.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from itertools import accumulate


class DomainError(ValueError):
    """A parameter combination outside an operation's validity region."""


class PrecisionError(ArithmeticError):
    """A numeric target precision that cannot be reached within limits."""


def _check_int(name: str, value, low: int | None = 0, high: int | None = None) -> None:
    """Refuse ``value`` as ``DomainError`` unless it is an int in [low, high];
    ``low=None`` leaves the range open, ``high=None`` its top.  A bool is
    refused too, though Python counts it as an int: ``True`` is no index."""
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if not (is_int and (low is None or value >= low) and (high is None or value <= high)):
        bound = "" if low is None else f" >= {low}" if high is None else f" in [{low}, {high}]"
        raise DomainError(f"{name} must be an int{bound}, got {value!r}")


_lock = threading.RLock()

_zigzag: list[int] = [1]  # A_0, A_1, A_2, ...
_seidel_row: list[int] = [1]  # the boustrophedon row that ends in _zigzag[-1]
_harmonic: list[Fraction] = [Fraction(0)]


def _grow(table: list, n: int, step) -> list:
    """``table`` with index n filled: under ``_lock``, each missing entry m
    is ``step(table[m - 1], m)``, appended."""
    with _lock:
        while len(table) <= n:
            table.append(step(table[-1], len(table)))
    return table


def _seidel_step(_last: int, _m: int) -> int:
    _seidel_row[:] = list(accumulate(reversed(_seidel_row), initial=0))
    return _seidel_row[-1]


def _zigzag_number(n: int) -> int:
    return _grow(_zigzag, n, _seidel_step)[n]


def _neighbours(row: list[int]):
    """(row[k-1], row[k]) for k = 0..len(row), with 0 outside the row."""
    return zip([0, *row], [*row, 0])


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention that out-of-range values are 0."""
    _check_int("n", n, None)
    _check_int("k", k, None)
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention)."""
    _check_int("n", n)
    if n < 2:
        return (Fraction(1), Fraction(-1, 2))[n]
    if n % 2:
        return Fraction(0)
    k = n // 2
    return Fraction((-1) ** (k - 1) * n * _zigzag_number(n - 1), 4**k * (4**k - 1))


def euler_number(n: int) -> int:
    """Exact Euler number E_n (secant convention); 0 for odd n."""
    _check_int("n", n)
    return 0 if n % 2 else (-1) ** (n // 2) * _zigzag_number(n)


def _signed_tangent(k: int) -> int:
    """(-1)^k T_{2k+1}, the signed tangent number; k >= 0."""
    return (-1) ** k * _zigzag_number(2 * k + 1)


def harmonic(n: int) -> Fraction:
    """Exact harmonic number H_n = sum_{k=1}^{n} 1/k, with H_0 = 0."""
    _check_int("n", n)
    return _grow(_harmonic, n, lambda h, m: h + Fraction(1, m))[n]


#: kind -> (rows, the rule that builds row m from row m - 1)
_EULERIAN = {
    # A(m, k) = (k+1) A(m-1, k) + (m-k) A(m-1, k-1); row m >= 1 spans
    # k = 0..m-1, one entry fewer than row 0 = [1] gives, so row 1 is seeded
    "A": ([[1], [1]], lambda row, m: [
        (k + 1) * b + (m - k) * a for k, (a, b) in enumerate(_neighbours(row))
    ]),
    # B(m, k) = (2k+1) B(m-1, k) + (2m-2k+1) B(m-1, k-1); row m spans k = 0..m
    "B": ([[1]], lambda row, m: [
        (2 * k + 1) * b + (2 * m - 2 * k + 1) * a for k, (a, b) in enumerate(_neighbours(row))
    ]),
}


def eulerian(kind: str, n: int, k: int) -> int:
    """Eulerian number of the requested type, 0 outside the triangle.

    ``kind`` is "A" for the classical triangle (row n spans k = 0..n-1,
    row sum n!) or "B" for the signed-permutation triangle (row n spans
    k = 0..n, row sum 2^n n!), in either case; any other kind raises
    ``DomainError``.
    """
    if not isinstance(kind, str) or kind.upper() not in _EULERIAN:
        raise DomainError(f"eulerian kind must be 'A' or 'B', got {kind!r}")
    _check_int("n", n)
    _check_int("k", k, None)
    rows, rule = _EULERIAN[kind.upper()]
    row = _grow(rows, n, rule)[n]
    return row[k] if 0 <= k < len(row) else 0
