"""Reference routes the series and closed-form tests compare the production
kernels against.

``binomial_power_sum_direct`` is the cosh moment sum with one power per
term, against the recurrence of ``series._cosh_moments``, and
``odd_value_coeffs_by_triangle`` sums the odd-value coefficients over the
rows of the root-product triangles (``root_product_tables``), against the
Horner evaluation in ``closedform.phi_odd_closed_form``.

``cosh_kernel_coeffs`` tabulates the residue kernel (x / sinh x)^e *
cosh^{2q+1}(x) as one whole ``Fraction`` table; the package reads the same
coefficients one at a time through ``series._kernel_coeff`` and as integer
numerators in ``closedform._log_residues``.

A :class:`PowerSeries` holds finitely many exact Taylor coefficients.  Its
arithmetic (multiplication, reciprocal, powers) is closed over ``Fraction``
and truncates to the shortest operand; nothing is extended silently, so the
set of known-correct coefficients is always explicit.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from arcmellin import DomainError
from arcmellin.exact import _grow, _neighbours
from arcmellin.series import _cosh_moments, _egf_convolution, _x_over_sinh_row


@dataclass(frozen=True)
class PowerSeries:
    """Truncated exact power series; ``coeffs[k]`` is the x^k coefficient."""

    coeffs: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        """Number of known coefficients (indices 0 .. order-1)."""
        return len(self.coeffs)

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k < self.order:
            raise IndexError(f"coefficient {k} not computed (order {self.order})")
        return self.coeffs[k]

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a:
                for j in range(n - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return PowerSeries(tuple(out))

    def reciprocal(self) -> "PowerSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        if self.order == 0 or self.coeffs[0] == 0:
            raise DomainError("reciprocal requires a nonzero constant term")
        inv0 = 1 / self.coeffs[0]
        out = [inv0] + [Fraction(0)] * (self.order - 1)
        for m in range(1, self.order):
            acc = sum(self.coeffs[i] * out[m - i] for i in range(1, m + 1))
            out[m] = -acc * inv0
        return PowerSeries(tuple(out))

    def pow(self, e: int) -> "PowerSeries":
        """e-th power by binary exponentiation, e >= 0."""
        if e < 0:
            raise DomainError("pow exponent must be >= 0")
        result = PowerSeries((Fraction(1),) + (Fraction(0),) * (self.order - 1))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result


def sinh_x_over_x_series(order: int) -> PowerSeries:
    """sinh(x)/x = sum x^{2k} / (2k+1)! up to ``order`` coefficients inclusive."""
    coeffs = [Fraction(0)] * (order + 1)
    for k in range(0, order + 1, 2):
        coeffs[k] = Fraction(1, math.factorial(k + 1))
    return PowerSeries(tuple(coeffs))


def cosh_series(order: int) -> PowerSeries:
    coeffs = [Fraction(0)] * (order + 1)
    for k in range(0, order + 1, 2):
        coeffs[k] = Fraction(1, math.factorial(k))
    return PowerSeries(tuple(coeffs))


@lru_cache(maxsize=32)
def cosh_kernel_coeffs(power: int, q: int, order: int) -> tuple[Fraction, ...]:
    """Taylor coefficients 0..order of (x / sinh x)^power * cosh^{2q+1}(x).

    The x^{2j} coefficient is sum_{i=0}^{j} W(q, i) / (2i)! * b[2j-2i], with
    b = ``x_over_sinh_coeffs(power, order)`` and W the binomial power sum.
    It is summed in integers as one binomial convolution of the scaled row
    of ``_x_over_sinh_row`` with 4^q W(q, i), and divided once by
    D 4^q (2j)!; odd-index coefficients are identically zero (the function
    is even).
    """
    if power < 0 or q < 0 or order < 0:
        raise DomainError("cosh_kernel_coeffs requires power, q and order >= 0")
    denom, row = _x_over_sinh_row(power, order)
    moments = _cosh_moments(q, len(row))
    denom *= 4**q
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[::2] = [
        Fraction(_egf_convolution(row, moments, j), denom * math.factorial(2 * j))
        for j in range(len(row))
    ]
    return tuple(coeffs)


@lru_cache(maxsize=None)
def binomial_power_sum_direct(q: int, p: int) -> Fraction:
    """4^{-q} sum_{k=0}^{q} C(2q+1, k) (2q+1-2k)^{2p}, one power per term."""
    return Fraction(
        sum(math.comb(2 * q + 1, k) * (2 * q + 1 - 2 * k) ** (2 * p) for k in range(q + 1)), 4**q
    )


_int_root_rows: list[list[int]] = [[1]]  # rows n, entries k = 0..n
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
    """Both triangles up to row ``n_max``, by the two-term recurrences

        g[k][n] = g[k-1][n-1] - n^2 g[k][n-1],
        h[k][n] = h[k-1][n-1] - (2n-1)^2 h[k][n-1],

    on append-only rows grown like the tables of ``exact``, by
    ``exact._grow`` under its one lock."""
    _grow(_int_root_rows, n_max, lambda row, m: [a - m * m * b for a, b in _neighbours(row)])
    _grow(_odd_root_rows, n_max, lambda row, m: [a - (2 * m - 1) ** 2 * b for a, b in _neighbours(row)])
    return RootProductTables(n_max)


def odd_value_coeffs_by_triangle(n: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The eta'(-2i-1) and beta'(-2i) coefficients of Phi_1(2n+1) and
    Phi_2(2n+1), i = 0..n, as the sums over the triangle rows k >= i:

        sum_k C(n, k) 2^{2k+2} / (2k+1)! * integer_root(i, k),
        sum_k 2 C(n, k) / (2k)! * odd_root(i, k).
    """
    tables = root_product_tables(n)
    eta = tuple(
        sum(
            (
                Fraction(math.comb(n, k) * 2 ** (2 * k + 2), math.factorial(2 * k + 1))
                * tables.integer_root(i, k)
                for k in range(i, n + 1)
            ),
            Fraction(0),
        )
        for i in range(n + 1)
    )
    beta = tuple(
        sum(
            (
                Fraction(2 * math.comb(n, k), math.factorial(2 * k)) * tables.odd_root(i, k)
                for k in range(i, n + 1)
            ),
            Fraction(0),
        )
        for i in range(n + 1)
    )
    return eta, beta
