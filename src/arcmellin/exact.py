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
  1, -2, 16, -272, ...: the integers 2^{2k+1} (2^{2k+2} - 1) B_{2k+2} / (k+1)
  (Knuth and Buckholtz, Math. Comp. 21, 1967).
* Eulerian numbers of type A (descents of permutations, row sums n!) and
  type B (descents of signed permutations, row sums 2^n n!).

Tables are append-only caches guarded by a lock; published entries are
immutable, so concurrent reads are safe.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction


class DomainError(ValueError):
    """A parameter combination outside an operation's validity region."""


class PrecisionError(ArithmeticError):
    """A numeric target precision that cannot be reached within limits."""


_lock = threading.RLock()

_PREFILL = 64

_bernoulli_cache: list[Fraction] = [Fraction(1)]
_euler_cache: list[int] = [1]  # E_0, E_2, E_4, ... (even indices only)
_tangent_cache: list[int] = [1]  # T_1, -T_3, T_5, ...
_harmonic_cache: list[Fraction] = [Fraction(0)]
_eulerian_a_rows: list[list[int]] = [[1]]
_eulerian_b_rows: list[list[int]] = [[1]]


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention that out-of-range values are 0."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention)."""
    if n < 0:
        raise DomainError(f"bernoulli index must be >= 0, got {n}")
    with _lock:
        while len(_bernoulli_cache) <= n:
            m = len(_bernoulli_cache)
            if m > 1 and m % 2:
                _bernoulli_cache.append(Fraction(0))
                continue
            # sum_{k=0}^{m} C(m+1,k) B_k = 0 for m >= 1; the odd B_k past B_1 vanish
            acc = sum(
                math.comb(m + 1, k) * _bernoulli_cache[k]
                for k in range(m)
                if k < 2 or k % 2 == 0
            )
            _bernoulli_cache.append(-acc / (m + 1))
    return _bernoulli_cache[n]


def euler_number(n: int) -> int:
    """Exact Euler number E_n (secant convention); 0 for odd n."""
    if n < 0:
        raise DomainError(f"euler_number index must be >= 0, got {n}")
    if n % 2:
        return 0
    m = n // 2
    with _lock:
        while len(_euler_cache) <= m:
            j = len(_euler_cache)
            # cosh * sech = 1  =>  sum_{k=0}^{j} C(2j,2k) E_{2k} = 0 for j >= 1
            acc = sum(
                math.comb(2 * j, 2 * k) * _euler_cache[k] for k in range(j)
            )
            _euler_cache.append(-acc)
    return _euler_cache[m]


def _signed_tangent(k: int) -> int:
    """(-1)^k T_{2k+1}, the signed tangent number; k >= 0."""
    with _lock:
        while len(_tangent_cache) <= k:
            j = len(_tangent_cache)
            # sin = tan * cos  =>  sum_{i=0}^{j} C(2j+1, 2i+1) (-1)^i T_{2i+1} = 1
            acc = sum(math.comb(2 * j + 1, 2 * i + 1) * _tangent_cache[i] for i in range(j))
            _tangent_cache.append(1 - acc)
    return _tangent_cache[k]


def harmonic(n: int) -> Fraction:
    """Exact harmonic number H_n = sum_{k=1}^{n} 1/k, with H_0 = 0."""
    if n < 0:
        raise DomainError(f"harmonic index must be >= 0, got {n}")
    with _lock:
        while len(_harmonic_cache) <= n:
            m = len(_harmonic_cache)
            _harmonic_cache.append(_harmonic_cache[m - 1] + Fraction(1, m))
    return _harmonic_cache[n]


def _extend_eulerian_a(n: int) -> None:
    while len(_eulerian_a_rows) <= n:
        m = len(_eulerian_a_rows)
        prev = _eulerian_a_rows[m - 1]

        def a(k: int) -> int:
            return prev[k] if 0 <= k < len(prev) else 0

        # row m has entries k = 0 .. m-1 for m >= 1
        row = [(k + 1) * a(k) + (m - k) * a(k - 1) for k in range(m)]
        _eulerian_a_rows.append(row)


def _extend_eulerian_b(n: int) -> None:
    while len(_eulerian_b_rows) <= n:
        m = len(_eulerian_b_rows)
        prev = _eulerian_b_rows[m - 1]

        def b(k: int) -> int:
            return prev[k] if 0 <= k < len(prev) else 0

        # row m has entries k = 0 .. m
        row = [(2 * k + 1) * b(k) + (2 * m - 2 * k + 1) * b(k - 1) for k in range(m + 1)]
        _eulerian_b_rows.append(row)


def eulerian(kind: str, n: int, k: int) -> int:
    """Eulerian number of the requested type, 0 outside the triangle.

    ``kind`` is "A" for the classical triangle (row n spans k = 0..n-1,
    row sum n!) or "B" for the signed-permutation triangle (row n spans
    k = 0..n, row sum 2^n n!).
    """
    if n < 0:
        raise DomainError(f"eulerian row must be >= 0, got {n}")
    kind = kind.upper()
    if kind == "A":
        with _lock:
            _extend_eulerian_a(n)
            row = _eulerian_a_rows[n]
        return row[k] if 0 <= k < len(row) else 0
    if kind == "B":
        with _lock:
            _extend_eulerian_b(n)
            row = _eulerian_b_rows[n]
        return row[k] if 0 <= k < len(row) else 0
    raise DomainError(f"eulerian kind must be 'A' or 'B', got {kind!r}")


def _prefill() -> None:
    bernoulli(_PREFILL)
    euler_number(_PREFILL)
    harmonic(_PREFILL)
    eulerian("A", 16, 0)
    eulerian("B", 13, 0)


_prefill()
