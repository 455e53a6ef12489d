"""Truncated power series in one parameter t over the Gaussian rationals.

A series is known modulo t^(truncation+1): coefficient list indices
0..truncation are meaningful, everything above is unknown (not zero).
All operations track the truncation honestly, in integers: like `MultiPoly`,
a series is num / den, Gaussian-integer numerators over one denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .gaussian import GInt, GaussianRational, ZERO, ONE, canonical, from_gint, lift


@dataclass(frozen=True)
class PowerSeries:
    """PowerSeries(coeffs), index k for t^k, or PowerSeries(numerators, den)."""

    num: tuple[GInt, ...]
    den: int | None = None

    def __post_init__(self):
        den, num = lift(self.num) if self.den is None else canonical(self.den, self.num)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    @cached_property
    def coeffs(self) -> tuple[GaussianRational, ...]:
        """Read-only view: index k = coefficient of t^k."""
        return tuple(from_gint(u, self.den) for u in self.num)

    @property
    def truncation(self) -> int:
        return len(self.num) - 1

    @staticmethod
    def from_list(cs, truncation: int) -> "PowerSeries":
        den, num = lift(list(cs)[: truncation + 1])
        return PowerSeries(num + [(0, 0)] * (truncation + 1 - len(num)), den)

    @staticmethod
    def constant(value: GaussianRational, truncation: int) -> "PowerSeries":
        return PowerSeries.from_list([value], truncation)

    @staticmethod
    def identity(truncation: int) -> "PowerSeries":
        """The series t."""
        return PowerSeries.from_list([ZERO, ONE], truncation)

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        g = math.gcd(self.den, other.den)
        s, t = other.den // g, self.den // g
        return PowerSeries([(u[0] * s + v[0] * t, u[1] * s + v[1] * t) for u, v in zip(self.num, other.num)], self.den * s)

    def __neg__(self) -> "PowerSeries":
        return PowerSeries([(-re, -im) for re, im in self.num], self.den)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self + (-other)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        """The product; zeros of self are skipped, so self should be the sparser factor."""
        n = min(self.truncation, other.truncation)
        re_out, im_out = [0] * (n + 1), [0] * (n + 1)
        for i, (ar, ai) in enumerate(self.num[: n + 1]):
            if ar or ai:
                for j, (br, bi) in enumerate(other.num[: n + 1 - i], i):
                    re_out[j] += ar * br - ai * bi
                    im_out[j] += ar * bi + ai * br
        return PowerSeries(list(zip(re_out, im_out)), self.den * other.den)

    def scale(self, c: GaussianRational) -> "PowerSeries":
        d, ((cr, ci),) = lift((c,))
        return PowerSeries([(re * cr - im * ci, re * ci + im * cr) for re, im in self.num], self.den * d)

    def truncate(self, n: int) -> "PowerSeries":
        if n >= self.truncation:
            return self
        return PowerSeries(self.num[: n + 1], self.den)

    def shift_constant(self, c: GaussianRational) -> "PowerSeries":
        return self + PowerSeries.constant(c, self.truncation)

    def derivative(self) -> "PowerSeries":
        """d/dt; knowledge drops by one order."""
        return PowerSeries([(re * k, im * k) for k, (re, im) in enumerate(self.num) if k] or [(0, 0)], self.den)

    def order(self) -> int | None:
        """Index of the lowest nonzero coefficient; None if zero to truncation."""
        return next((k for k, u in enumerate(self.num) if u != (0, 0)), None)

    def is_zero_to_truncation(self) -> bool:
        return self.order() is None

    def coefficient(self, k: int) -> GaussianRational:
        if k > self.truncation:
            raise IndexError("coefficient beyond truncation")
        return from_gint(self.num[k], self.den)

    def divide(self, other: "PowerSeries") -> "PowerSeries | None":
        """self / other when the division stays a power series.

        Requires ord(other) <= ord(self) (with the convention that division
        by an identically-unknown-zero series fails).  The result is known
        to one order less per stripped power of t.

        With c the conjugate of b_0, a/b = ac/bc with (bc)_0 = N = |c|^2, and over
        D = N^(n+1) Q_k = (D (ac)_k - sum_(j<k) Q_j (bc)_(k-j)) / N exactly.
        """
        v = other.order()
        if v is None or any(u != (0, 0) for u in self.num[:v]):
            return None
        a, b = self.num[v:], other.num[v:]
        n = min(len(a), len(b)) - 1
        if n < 0:
            return None
        cr, ci = b[0][0], -b[0][1]
        ac = [(re * cr - im * ci, re * ci + im * cr) for re, im in a[: n + 1]]
        bc = [(re * cr - im * ci, re * ci + im * cr) for re, im in b[: n + 1]]
        N = bc[0][0]
        D = N ** (n + 1)
        out: list[GInt] = []
        for k in range(n + 1):
            re, im = ac[k][0] * D, ac[k][1] * D
            for (qr, qi), (br, bi) in zip(out, bc[k:0:-1]):
                re -= qr * br - qi * bi
                im -= qr * bi + qi * br
            out.append((re // N, im // N))
        # self / other = (out / D) * (other.den / self.den)
        return PowerSeries([(re * other.den, im * other.den) for re, im in out], D * self.den)

    def __str__(self) -> str:
        parts = []
        for k, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            if k == 0:
                parts.append(str(a))
            else:
                parts.append(f"({a})*t^{k}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(t^{self.truncation + 1})"


def compose_poly(poly, phi1: PowerSeries, phi2: PowerSeries) -> PowerSeries:
    """Evaluate an arity-2 MultiPoly on a pair of series (exact, truncated):
    Horner's rule in phi1 over rows sum_b num[a, b] phi2^b, divided by den once."""
    n = min(phi1.truncation, phi2.truncation)
    zero = PowerSeries([(0, 0)] * (n + 1), 1)
    powers = [PowerSeries([(1, 0)] + [(0, 0)] * n, 1)]
    for _ in range(poly.degree_in(1)):
        powers.append(powers[-1] * phi2)
    rows: dict[int, PowerSeries] = {}
    for (a, b), (ur, ui) in poly.num.items():
        p = powers[b]
        rows[a] = rows.get(a, zero) + PowerSeries([(re * ur - im * ui, re * ui + im * ur) for re, im in p.num], p.den)
    total = zero
    for a in range(poly.degree_in(0), -1, -1):
        total = phi1 * total + rows.get(a, zero)
    return PowerSeries(total.num, total.den * poly.den)
