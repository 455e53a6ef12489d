"""Exact Gaussian-rational numbers: a + b*i with a, b arbitrary-precision rationals.

This is the coefficient field for the whole toolkit.  A value is stored as
a Gaussian-integer numerator x + y*i over one positive denominator d, with
gcd(x, y, d) = 1, so equality is plain structural equality and every
operation runs in integers; `re` and `im` are Fraction views of x/d and y/d.
Polynomials and series store Gaussian-integer numerators over one
denominator too, as FLINT's `fmpq_poly` does; `lift` and `canonical` are the
only code that builds that form.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

GInt = tuple[int, int]  # a + b*i, a Gaussian integer


def _rational(v) -> tuple[int, int]:
    """(numerator, denominator > 0) of an int, a Fraction or a 'p/q' string."""
    if isinstance(v, (int, Fraction)):
        return v.numerator, v.denominator
    if isinstance(v, str):
        q = Fraction(v)
        return q.numerator, q.denominator
    raise TypeError(f"cannot build an exact rational from {type(v).__name__}")


def _parts(v) -> tuple[int, int, int]:
    """(x, y, d) of a Q(i) operand: a GaussianRational, an int or a Fraction."""
    if type(v) is GaussianRational:
        return v._x, v._y, v._d
    if isinstance(v, (int, Fraction)):
        return v.numerator, 0, v.denominator
    raise TypeError(f"cannot coerce {type(v).__name__} to GaussianRational")


class GaussianRational:
    """An element of Q(i): (x + y*i) / d with d > 0 and gcd(x, y, d) = 1.

    The slots are written only when a value is made, so a value never
    changes; `re` and `im` are read-only.
    """

    __slots__ = ("_x", "_y", "_d")

    def __init__(self, re=0, im=0):
        (a, p), (b, q) = _rational(re), _rational(im)
        # a/p and b/q are in lowest terms, so gcd(x, y, lcm(p, q)) = 1 already
        d = p if p == q else math.lcm(p, q)
        self._x, self._y, self._d = a * (d // p), b * (d // q), d

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if type(x) is GaussianRational:
            return x
        return _make(*_parts(x))

    # -- views ------------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._x, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._y, self._d)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._x and not self._y

    def is_real(self) -> bool:
        return not self._y

    # -- arithmetic ---------------------------------------------------

    def _plus(self, x: int, y: int, d: int) -> "GaussianRational":
        """self + (x + y*i) / d over the least common denominator."""
        if d == self._d:
            return _make(self._x + x, self._y + y, d)
        g = math.gcd(self._d, d)
        s, t = d // g, self._d // g
        return _make(self._x * s + x * t, self._y * s + y * t, self._d * s)

    def __add__(self, other) -> "GaussianRational":
        return self._plus(*_parts(other))

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return _raw(-self._x, -self._y, self._d)

    def __sub__(self, other) -> "GaussianRational":
        x, y, d = _parts(other)
        return self._plus(-x, -y, d)

    def __rsub__(self, other) -> "GaussianRational":
        return (-self)._plus(*_parts(other))

    def __mul__(self, other) -> "GaussianRational":
        x, y, d = _parts(other)
        return _make(self._x * x - self._y * y, self._x * y + self._y * x, self._d * d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        """d (x - y*i) / (x^2 + y^2)."""
        x, y, d = self._x, self._y, self._d
        n = x * x + y * y
        if not n:
            raise ZeroDivisionError("inverse of zero")
        return _make(d * x, -d * y, n)

    def __truediv__(self, other) -> "GaussianRational":
        """(x1 + y1*i)/d1 times d2 (x2 - y2*i) / (x2^2 + y2^2)."""
        x, y, d = _parts(other)
        n = x * x + y * y
        if not n:
            raise ZeroDivisionError("inverse of zero")
        return _make((self._x * x + self._y * y) * d, (self._y * x - self._x * y) * d, self._d * n)

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
        """Exact square root inside Q(i), or None when no such root exists.

        A real x/d (gcd(x, d) = 1) has a rational root sqrt(|x| d) / d, real
        or imaginary by the sign of x.  Otherwise z = w / d^2 with
        w = d (x + y*i) = X + Y*i, and the root with positive real part is
        (M/2 + (Y/M) i) / d, M^2 = 2 (X + |w|): it lies in Q(i) exactly
        when |w| and M are integers.
        """
        x, y, d = self._x, self._y, self._d
        if not y:
            if not x:
                return ZERO
            r = _exact_isqrt(abs(x) * d)
            if r is None:
                return None
            return _make(r, 0, d) if x > 0 else _make(0, r, d)
        X, Y = d * x, d * y
        n = _exact_isqrt(X * X + Y * Y)
        m = None if n is None else _exact_isqrt(2 * (X + n))
        if not m:
            return None
        return _make(m * m, 2 * Y, 2 * m * d)

    # -- conversion (real values only) ---------------------------------

    def __float__(self) -> float:
        if self._y:
            raise ValueError("value is not real")
        return self._x / self._d

    def __bool__(self) -> bool:
        return bool(self._x or self._y)

    def __eq__(self, other) -> bool:
        if type(other) is not GaussianRational:
            return NotImplemented
        return self._x == other._x and self._y == other._y and self._d == other._d

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __str__(self) -> str:
        x, y, d = self._x, self._y, self._d
        if not y:
            return _rational_str(x, d)
        unit = abs(y) == d  # im = +-1
        if not x:
            return f"{_rational_str(y, d)}*i" if not unit else ("i" if y > 0 else "-i")
        imag = "i" if unit else f"{_rational_str(abs(y), d)}*i"
        return f"{_rational_str(x, d)} {'+' if y > 0 else '-'} {imag}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__


def _raw(x: int, y: int, d: int) -> GaussianRational:
    """(x + y*i) / d, already reduced with d > 0."""
    z = _new(GaussianRational)
    z._x, z._y, z._d = x, y, d
    return z


def _make(x: int, y: int, d: int) -> GaussianRational:
    """(x + y*i) / d with d > 0, reduced by gcd(x, y, d)."""
    g = math.gcd(x, y, d)
    if g != 1:
        x, y, d = x // g, y // g, d // g
    z = _new(GaussianRational)  # `_raw` inlined: every operation ends here
    z._x, z._y, z._d = x, y, d
    return z


def _rational_str(n: int, d: int) -> str:
    """n / d (d > 0) as Fraction prints it: 'p' or 'p/q' in lowest terms."""
    g = math.gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def _exact_isqrt(n: int) -> int | None:
    """The integer square root of n >= 0 if n is a perfect square, else None."""
    r = math.isqrt(n)
    return r if r * r == n else None


ZERO = _raw(0, 0, 1)
ONE = _raw(1, 0, 1)
I = _raw(0, 1, 1)


def gr(re, im=0) -> GaussianRational:
    """Shorthand constructor accepting ints, Fractions and 'p/q' strings."""
    return GaussianRational(re, im)


def lift(values) -> tuple[int, list[GInt]]:
    """(den, [(re, im), ...]), values[k] = (re + im*i) / den with den > 0 least."""
    parts = [_parts(v) for v in values]
    den = math.lcm(*(d for _, _, d in parts))
    return den, [(x * (den // d), y * (den // d)) for x, y, d in parts]


def canonical(den: int, nums):
    """nums / den (den > 0) with both divided by gcd(den, every part), the unique form."""
    g = 1 if den == 1 else math.gcd(den, *itertools.chain.from_iterable(nums))
    return (den, nums) if g == 1 else (den // g, [(re // g, im // g) for re, im in nums])


def from_gint(u: GInt, den: int = 1) -> GaussianRational:
    """The Gaussian rational u / den, den > 0."""
    return _make(u[0], u[1], den)
