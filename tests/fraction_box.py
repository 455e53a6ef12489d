"""Reference default box for the tests: the bisection in Fraction intervals.

This is the route `default_box` took before it bisected in integers; it is
kept here as an independent oracle.  Each interval bound is taken term by
term with exact rational interval powers, and the box half-width B = 2, 4,
8, ... is tested in Fractions.
"""

from __future__ import annotations

from fractions import Fraction

from foltools.errors import DegenerateInput, PreconditionError
from foltools.polyring import MultiPoly, leading_form
from foltools.realtopo import Box, _top_form_on, compactness_check


def interval_pow(lo: Fraction, hi: Fraction, e: int) -> tuple[Fraction, Fraction]:
    if e == 0:
        return Fraction(1), Fraction(1)
    if e % 2 == 1 or lo >= 0:
        return lo**e, hi**e
    if hi <= 0:
        return hi**e, lo**e
    return Fraction(0), max(lo**e, hi**e)


def interval_eval(coeffs: list[int], lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Bounds of the polynomial with coefficients `coeffs` (low to high) on
    [lo, hi], term by term."""
    lo_total, hi_total = Fraction(0), Fraction(0)
    for k, c in enumerate(coeffs):
        tlo, thi = interval_pow(lo, hi, k)
        if c >= 0:
            lo_total += c * tlo
            hi_total += c * thi
        else:
            lo_total += c * thi
            hi_total += c * tlo
    return lo_total, hi_total


def min_abs_on_interval(coeffs: list[int], lo: Fraction, hi: Fraction, depth: int = 14) -> Fraction:
    """Positive lower bound for |poly| on [lo, hi]; poly must be zero-free there."""

    def rec(a: Fraction, b: Fraction, d: int) -> Fraction:
        vlo, vhi = interval_eval(coeffs, a, b)
        if vlo > 0:
            return vlo
        if vhi < 0:
            return -vhi
        if d == 0:
            raise DegenerateInput("could not bound the top form away from zero")
        m = (a + b) / 2
        return min(rec(a, m, d - 1), rec(m, b, d - 1))

    return rec(lo, hi, depth)


def default_box(f: MultiPoly) -> Box:
    """A rigorous bounding box: beyond it the top form dominates the rest."""
    if not compactness_check(f):
        raise PreconditionError("real locus is unbounded; supply a box explicitly")
    L = leading_form(f)
    n = int(f.degree)
    lam = min(min_abs_on_interval(_top_form_on(L, var), Fraction(-1), Fraction(1)) for var in (1, 0)) / L.den
    lower_mass: dict[int, Fraction] = {}
    for (a, b), c in f.terms.items():
        d = a + b
        if d < n:
            lower_mass[d] = lower_mass.get(d, Fraction(0)) + abs(c.re)
    B = Fraction(2)
    while True:
        slack = sum(mass * B**d for d, mass in lower_mass.items())
        if lam * B**n > slack:
            return Box(-B, B, -B, B)
        B *= 2
        if B > 2**40:
            raise DegenerateInput("failed to find a bounding box")
