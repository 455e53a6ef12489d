"""Reference Q(i) scalar for the tests: a + b*i stored as two Fractions.

This is the `GaussianRational` that `foltools.gaussian` used before it
stored a reduced Gaussian-integer numerator over one denominator; it is kept
here as an independent oracle.  Fraction keeps every component normalized
(lowest terms, positive denominator), so equality is plain structural
equality and hashing is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


@dataclass(frozen=True)
class FractionGaussian:
    """An element of Q(i), stored as exact real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    @staticmethod
    def coerce(x) -> "FractionGaussian":
        if isinstance(x, FractionGaussian):
            return x
        if isinstance(x, (int, Fraction)):
            return FractionGaussian(_as_fraction(x), Fraction(0))
        raise TypeError(f"cannot coerce {type(x).__name__} to FractionGaussian")

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __add__(self, other) -> "FractionGaussian":
        other = FractionGaussian.coerce(other)
        return FractionGaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "FractionGaussian":
        return FractionGaussian(-self.re, -self.im)

    def __sub__(self, other) -> "FractionGaussian":
        return self + (-FractionGaussian.coerce(other))

    def __rsub__(self, other) -> "FractionGaussian":
        return FractionGaussian.coerce(other) + (-self)

    def __mul__(self, other) -> "FractionGaussian":
        other = FractionGaussian.coerce(other)
        return FractionGaussian(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "FractionGaussian":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("inverse of zero")
        return FractionGaussian(self.re / n, -self.im / n)

    def __truediv__(self, other) -> "FractionGaussian":
        return self * FractionGaussian.coerce(other).inverse()

    def __rtruediv__(self, other) -> "FractionGaussian":
        return FractionGaussian.coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "FractionGaussian":
        if n < 0:
            return self.inverse() ** (-n)
        result = FractionGaussian(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def sqrt(self) -> "FractionGaussian | None":
        """Exact square root inside Q(i), or None when no such root exists."""
        if self.is_zero():
            return FractionGaussian()
        if not self.im:
            a = self.re
            if a > 0:
                u = _fraction_sqrt(a)
                return FractionGaussian(u, Fraction(0)) if u is not None else None
            v = _fraction_sqrt(-a)
            return FractionGaussian(Fraction(0), v) if v is not None else None
        # w = u + v*i with u^2 - v^2 = re, 2uv = im; requires |z| rational
        n = _fraction_sqrt(self.norm())
        if n is None:
            return None
        u2 = (self.re + n) * Fraction(1, 2)
        if u2 < 0:
            return None
        u = _fraction_sqrt(u2)
        if u is None or not u:
            return None
        cand = FractionGaussian(u, self.im / (2 * u))
        return cand if cand * cand == self else None

    def as_fraction(self) -> Fraction:
        if self.im:
            raise ValueError("value is not real")
        return self.re

    def __float__(self) -> float:
        return float(self.as_fraction())

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i" if abs(self.im) != 1 else ("i" if self.im > 0 else "-i")
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}*i"
        return f"{self.re} {sign} {imag}"

    def __repr__(self) -> str:  # the scalar type's repr, so the two compare equal
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    """Square root of a nonnegative rational if it is rational, else None."""
    if q < 0:
        return None
    ns = math.isqrt(q.numerator)
    ds = math.isqrt(q.denominator)
    if ns * ns == q.numerator and ds * ds == q.denominator:
        return Fraction(ns, ds)
    return None
