"""Truncated power series in one parameter t over the Gaussian rationals.

A series is known modulo t^(truncation+1): coefficient list indices
0..truncation are meaningful, everything above is unknown (not zero).
All operations track the truncation honestly, in integers: like `MultiPoly`,
a series is num / den, Gaussian-integer numerators over one denominator,
which `PowerSeries(num, den)` canonicalizes; `PowerSeries.from_list` lifts
Gaussian-rational coefficients to that form.
"""

from __future__ import annotations

import math

from .gaussian import GInt, GaussianRational, ZERO, ONE, canonical, lift


class PowerSeries:
    """num[k] / den is the coefficient of t^k."""

    __slots__ = _fields = ("num", "den")

    def __init__(self, num, den: int):
        self.den, num = canonical(den, num)
        self.num: tuple[GInt, ...] = tuple(num)

    def __eq__(self, other) -> bool:
        return isinstance(other, PowerSeries) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

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
        return PowerSeries(_product(self.num, other.num, n), self.den * other.den)

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


def _product(a, b, n: int) -> list[GInt]:
    """Coefficients 0..n of a * b for Z[i] lists of n + 1 or more; zeros of a are skipped."""
    re_out, im_out = [0] * (n + 1), [0] * (n + 1)
    for i, (ar, ai) in enumerate(a[: n + 1]):
        if ar or ai:
            for j, (br, bi) in enumerate(b[: n + 1 - i], i):
                re_out[j] += ar * br - ai * bi
                im_out[j] += ar * bi + ai * br
    return list(zip(re_out, im_out))


def compose_poly(poly, phi1: PowerSeries, phi2: PowerSeries) -> PowerSeries:
    """Evaluate an arity-2 MultiPoly on a pair of series (exact, truncated).

    With phi_k = n_k / d_k and A, B the degrees of poly in x and y, Horner's
    rule in n_1 runs on Z[i] lists over the rows sum_b num[a, b] d_1^(A-a)
    d_2^(B-b) n_2^b, and the sum is put over den d_1^A d_2^B once."""
    n = min(phi1.truncation, phi2.truncation)
    if poly.is_zero():
        return PowerSeries([(0, 0)] * (n + 1), 1)
    A, B = poly.degree_in(0), poly.degree_in(1)
    d1, d2 = phi1.den, phi2.den
    powers = [[(1, 0)] + [(0, 0)] * n]
    for _ in range(B):
        powers.append(_product(powers[-1], phi2.num, n))
    rows: dict[int, tuple[list[int], list[int]]] = {}
    for (a, b), (ur, ui) in poly.num.items():
        s = d1 ** (A - a) * d2 ** (B - b)
        ur, ui = ur * s, ui * s
        re_row, im_row = rows.setdefault(a, ([0] * (n + 1), [0] * (n + 1)))
        for k, (re, im) in enumerate(powers[b]):
            if re or im:
                re_row[k] += re * ur - im * ui
                im_row[k] += re * ui + im * ur
    total = list(zip(*rows[A]))
    for a in range(A - 1, -1, -1):
        total = _product(phi1.num, total, n)
        if a in rows:
            re_row, im_row = rows[a]
            total = [(re + x, im + y) for (re, im), x, y in zip(total, re_row, im_row)]
    return PowerSeries(total, poly.den * d1**A * d2**B)
