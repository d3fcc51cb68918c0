"""Exact Taylor coefficient families for the closed-form assembly, each by
its own recurrence in integer and rational arithmetic:

* ``x_over_sinh_coeffs(e, K)`` -- Taylor coefficients of (x / sinh x)^e,
  the kernel weights of the residue expansion of 1 / cosh^e at its poles,
  by J.C.P. Miller's power recurrence on sinh(x)/x = sum a_j x^{2j} with
  exponent -e: b_0 = 1, b_m = (1/m) sum_{j=1}^{m} ((1-e) j - m) a_j b_{m-j}.
* ``_x_over_sinh_row(e, K)`` -- the same coefficients as one integer row,
  (D, (D (2m)! b_m for m = 0..K/2)), which the recurrence runs on and
  ``x_over_sinh_coeffs`` only divides out.  Scaled by (2m)! (the
  exponential generating function) they are 2^{2m} times Noerlund's
  generalised Bernoulli values B_{2m}^{(e)}(e/2), and the factorial that
  swells the denominators of the b_m is gone: D is a product of primes up
  to K+1, mostly to the first power, with at most 16 digits for e <= 41
  and K = 40, where the b_m themselves carry denominators of up to 53
  digits.  Every product of such a row with another even exponential
  series is then a binomial convolution sum_i C(2j, 2i) row[j-i] u[i] of
  integers (``_egf_convolution``, the dot product of the moments with the
  weights ``_egf_weights``), divided once at the end.  Every such dot
  product, here and in the identity suites, is ``_dot``: one exact integer
  ``sum(map(operator.mul, ...))``, whose loop runs in C.  Memoised per
  (e, K) and unbounded, like ``x_over_sinh_coeffs``.
* ``root_product_tables(n)`` -- integer coefficient triangles of the
  polynomials x * prod_{i<=n} (x^2 - i^2)  and  prod_{i<=n} (y^2 - (2i-1)^2),
  generated by the two-term recurrences
      g[k][n] = g[k-1][n-1] - n^2 g[k][n-1],
      h[k][n] = h[k-1][n-1] - (2n-1)^2 h[k][n-1].
  The rows are append-only lists at module level, grown like every table
  of ``exact`` by ``exact._grow`` under the exact layer's one lock, and
  ``RootProductTables`` is a named tuple of their extent whose two lookups
  share one bounds check.  Demo 02 and the tests read
  them; they are not on the closed-form path, where
  ``closedform._odd_value_numerators`` sums against the same products by
  Horner's rule.
* ``_cosh_moments(q, count)`` -- the integer power sums
  sum_{k=0}^{q} C(2q+1, k) (2q+1-2k)^{2i} for i < count, the moments
  (2i)! [x^{2i}] of 4^q cosh^{2q+1}(x).  Each moment sums the terms of the
  previous one multiplied by their squares (2q+1-2k)^2, so there is no
  ``Fraction`` and no power per moment; each q keeps its row and last terms,
  and a longer request extends the row instead of rebuilding it.
* ``binomial_power_sum(q, p)`` -- 4^{-q} sum_{k=0}^{q} C(2q+1,k) (2q+1-2k)^{2p},
  the normalized even-order derivative of sinh^{2q+1} at its imaginary poles:
  one moment of ``_cosh_moments`` over 4^q.
* ``_kernel_coeff(e, moments, j)`` -- the x^{2j} coefficient of
  (x / sinh x)^e * sum_i moments[i] x^{2i} / (2i)!: the residue kernel of
  1 / cosh^e against an even series with integer moments, one binomial
  convolution of the scaled row and one ``Fraction``, for the identity
  suites' own moments.  With the moments of 4^q cosh^{2q+1}(x)
  (``_cosh_moments``) the same convolutions are the residue weights of the
  log-integral forms and the even Mellin values, which read them as
  integers over one denominator (``closedform._log_residues``).
"""

from __future__ import annotations

import math
import operator
import threading
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .exact import DomainError, _check_int, _grow, _neighbours


@lru_cache(maxsize=None)
def _x_over_sinh_row(power: int, order: int) -> tuple[int, tuple[int, ...]]:
    """(D, row) with row[m] = D (2m)! b_m for m = 0..order//2, all integers.

    b_m is the x^{2m} coefficient of (x / sinh x)^power and D the lcm of the
    denominators of the (2m)! b_m.  Miller's recurrence scaled by (2m)!
    (with (2m)! / ((2j+1)! (2m-2j)!) = C(2m+1, 2j+1) / (2m+1)) reads
        (2m)! b_m = sum_{j=1}^{m} ((1 - power) j - m) C(2m+1, 2j+1)
                    (2m-2j)! b_{m-j} / (m (2m+1)),
    so each coefficient costs one integer sum and one ``Fraction``, and D
    grows only when a new denominator appears.
    """
    denom, row = 1, [1]
    for m in range(1, order // 2 + 1):
        acc = sum(
            ((1 - power) * j - m) * math.comb(2 * m + 1, 2 * j + 1) * row[m - j]
            for j in range(1, m + 1)
        )
        scaled = Fraction(acc, denom * m * (2 * m + 1))
        grow = scaled.denominator // math.gcd(denom, scaled.denominator)
        if grow > 1:
            denom *= grow
            row = [r * grow for r in row]
        row.append(scaled.numerator * (denom // scaled.denominator))
    return denom, tuple(row)


def _egf_weights(row, j: int) -> list[int]:
    """[C(2j, 2i) row[j-i] for i = 0..j], the weights that
    ``_egf_convolution(row, moments, j)`` dots with the moments; a caller
    with many moment vectors builds them once."""
    return [math.comb(2 * j, 2 * i) * row[j - i] for i in range(j + 1)]


def _dot(weights, moments) -> int:
    return sum(map(operator.mul, weights, moments))


def _egf_convolution(row, moments, j: int) -> int:
    """sum_{i=0}^{j} C(2j, 2i) row[j-i] moments[i].

    (2j)! times the x^{2j} coefficient of the product of
    sum_m row[m] x^{2m} / (2m)!  and  sum_i moments[i] x^{2i} / (2i)!.
    """
    return _dot(_egf_weights(row, j), moments)


@lru_cache(maxsize=None, typed=True)
def x_over_sinh_coeffs(power: int, order: int) -> tuple[Fraction, ...]:
    """Taylor coefficients 0..order of (x / sinh x)^power.

    J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, sec. 4.7) applied
    to sinh(x)/x = sum a_j t^j, t = x^2, a_j = 1/(2j+1)!, with exponent
    -power: b_0 = 1 and
        b_m = (1/m) sum_{j=1}^{m} ((1 - power) j - m) a_j b_{m-j},
    where b_m is the x^{2m} coefficient, run on the integer row
    (2m)! D b_m of ``_x_over_sinh_row``.  Odd-index coefficients are
    identically zero (the function is even).  Memoised by argument type
    too, so a float or a bool misses the cache and is refused.
    """
    _check_int("power", power)
    _check_int("order", order)
    denom, row = _x_over_sinh_row(power, order)
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[::2] = [Fraction(r, denom * math.factorial(2 * m)) for m, r in enumerate(row)]
    return tuple(coeffs)


_int_root_rows: list[list[int]] = [[1]]   # rows n, entries k = 0..n
_odd_root_rows: list[list[int]] = [[1]]


class RootProductTables(NamedTuple):
    """Coefficient triangles of the two root-product polynomial families.

    ``integer_root(k, n)`` is the x^{2k+1} coefficient of
    x * prod_{i=1}^{n} (x^2 - i^2), whose roots are 0, +-1, ..., +-n.
    ``odd_root(k, n)`` is the y^{2k} coefficient of
    prod_{i=1}^{n} (y^2 - (2i-1)^2), whose roots are +-1, +-3, ..., +-(2n-1).
    Both are 0 outside 0 <= k <= n.
    """

    max_n: int

    def _entry(self, rows: list[list[int]], k: int, n: int) -> int:
        _check_int("k", k, None)
        _check_int("n", n, None)
        if k < 0 or n < 0 or k > n:
            return 0
        if n > self.max_n:
            raise DomainError(f"table built to n={self.max_n}, requested n={n}")
        return rows[n][k]

    def integer_root(self, k: int, n: int) -> int:
        return self._entry(_int_root_rows, k, n)

    def odd_root(self, k: int, n: int) -> int:
        return self._entry(_odd_root_rows, k, n)


def root_product_tables(n_max: int) -> RootProductTables:
    """Build (or reuse) both triangles up to row ``n_max``, an int >= 0."""
    _check_int("n_max", n_max)
    # row m is row m - 1 times (x^2 - r^2), r = m or 2m - 1
    _grow(_int_root_rows, n_max, lambda row, m: [a - m * m * b for a, b in _neighbours(row)])
    _grow(_odd_root_rows, n_max, lambda row, m: [a - (2 * m - 1) ** 2 * b for a, b in _neighbours(row)])
    return RootProductTables(n_max)


_moments_lock = threading.Lock()
#: q -> (terms, row): row[i] = sum_k C(2q+1, k) (2q+1-2k)^{2i} for the moments
#: computed so far, and terms[k] = C(2q+1, k) (2q+1-2k)^{2i} for the last of them.
_moment_rows: dict[int, tuple[list[int], list[int]]] = {}


def _cosh_moments(q: int, count: int) -> list[int]:
    """sum_{k=0}^{q} C(2q+1, k) (2q+1-2k)^{2i} for i < count: (2i)! [x^{2i}]
    of 4^q cosh^{2q+1}(x), integers.

    Each moment is the sum of the previous moment's terms, each multiplied by
    its square (2q+1-2k)^2, so no power is taken.  The row of each q is kept
    with its last terms, and a longer request extends it rather than
    rebuilding it.
    """
    with _moments_lock:
        if q not in _moment_rows:
            terms = [math.comb(2 * q + 1, k) for k in range(q + 1)]
            _moment_rows[q] = (terms, [sum(terms)])
        terms, row = _moment_rows[q]
        if len(row) < count:
            squares = [(2 * q + 1 - 2 * k) ** 2 for k in range(q + 1)]
            while len(row) < count:
                terms[:] = [t * s for t, s in zip(terms, squares)]
                row.append(sum(terms))
        return row[:count]


def binomial_power_sum(q: int, p: int) -> Fraction:
    """4^{-q} sum_{k=0}^{q} C(2q+1, k) (2q+1-2k)^{2p}, exactly."""
    _check_int("q", q)
    _check_int("p", p)
    return Fraction(_cosh_moments(q, p + 1)[p], 4**q)


def _kernel_coeff(power: int, moments, j: int) -> Fraction:
    """[x^{2j}] (x / sinh x)^power * sum_i moments[i] x^{2i} / (2i)!.

    ``moments`` are integers; the row is ``_x_over_sinh_row(power,
    2 len(moments) - 2)``, so a caller whose moments run to the same length
    as a log form's shares that form's cached row.  The convolution is
    summed in integers and divided once by D (2j)!.
    """
    denom, row = _x_over_sinh_row(power, 2 * len(moments) - 2)
    return Fraction(_egf_convolution(row, moments, j), denom * math.factorial(2 * j))
