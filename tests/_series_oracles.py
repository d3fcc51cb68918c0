"""Truncated exact power series: the independent route the series tests
compare the production kernels against.

A :class:`PowerSeries` holds finitely many exact Taylor coefficients.  Its
arithmetic (multiplication, reciprocal, powers) is closed over ``Fraction``
and truncates to the shortest operand; nothing is extended silently, so the
set of known-correct coefficients is always explicit.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from arcmellin import DomainError


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
