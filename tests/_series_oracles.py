"""Reference routes the series and closed-form tests compare the production
kernels against.

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

from arcmellin import DomainError
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
