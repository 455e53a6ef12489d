"""Exact Gaussian-rational numbers: a + b*i with a, b arbitrary-precision rationals.

This is the coefficient field for the whole toolkit.  Fraction keeps every
component normalized (lowest terms, positive denominator), so equality is
plain structural equality and hashing is safe.
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
class GaussianRational:
    """An element of Q(i), stored as exact real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(_as_fraction(x), Fraction(0))
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "GaussianRational":
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other) -> "GaussianRational":
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other) -> "GaussianRational":
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other) -> "GaussianRational":
        other = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("inverse of zero")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other) -> "GaussianRational":
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other) -> "GaussianRational":
        return GaussianRational.coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "GaussianRational":
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- exact square root --------------------------------------------

    def sqrt(self) -> "GaussianRational | None":
        """Exact square root inside Q(i), or None when no such root exists."""
        if self.is_zero():
            return ZERO
        if not self.im:
            a = self.re
            if a > 0:
                u = _fraction_sqrt(a)
                return GaussianRational(u, Fraction(0)) if u is not None else None
            v = _fraction_sqrt(-a)
            return GaussianRational(Fraction(0), v) if v is not None else None
        # w = u + v*i with u^2 - v^2 = re, 2uv = im; requires |z| rational
        n = _fraction_sqrt(self.norm())
        if n is None:
            return None
        half = Fraction(1, 2)
        u2 = (self.re + n) * half
        if u2 < 0:
            return None
        u = _fraction_sqrt(u2)
        if u is None or not u:
            return None
        v = self.im / (2 * u)
        cand = GaussianRational(u, v)
        return cand if cand * cand == self else None

    # -- ordering helpers (real values only) ---------------------------

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

    def __repr__(self) -> str:
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


ZERO = GaussianRational(Fraction(0), Fraction(0))
ONE = GaussianRational(Fraction(1), Fraction(0))
I = GaussianRational(Fraction(0), Fraction(1))


def gr(re, im=0) -> GaussianRational:
    """Shorthand constructor accepting ints, Fractions and 'p/q' strings."""
    return GaussianRational(_as_fraction(re), _as_fraction(im))
