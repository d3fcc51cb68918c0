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
* ``_cosh_moments(q, count)`` -- the integer power sums
  sum_{k=0}^{q} C(2q+1, k) (2q+1-2k)^{2i} for i < count, the moments
  (2i)! [x^{2i}] of 4^q cosh^{2q+1}(x); over 4^q, the i-th is the
  normalized 2i-th derivative of sinh^{2q+1} at its imaginary poles.  Each
  moment sums the terms of the previous one multiplied by their squares
  (2q+1-2k)^2, so there is no ``Fraction`` and no power per moment; each q
  keeps its row and last terms, and a longer request extends the row
  instead of rebuilding it.
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

from .exact import _check_int


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


def _kernel_coeff(power: int, moments, j: int) -> Fraction:
    """[x^{2j}] (x / sinh x)^power * sum_i moments[i] x^{2i} / (2i)!.

    ``moments`` are integers; the row is ``_x_over_sinh_row(power,
    2 len(moments) - 2)``, so a caller whose moments run to the same length
    as a log form's shares that form's cached row.  The convolution is
    summed in integers and divided once by D (2j)!.
    """
    denom, row = _x_over_sinh_row(power, 2 * len(moments) - 2)
    return Fraction(_egf_convolution(row, moments, j), denom * math.factorial(2 * j))
