"""Shared fixtures and random generators for the test suite."""

from __future__ import annotations

import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

import foltools
from foltools.gaussian import GaussianRational, from_gint, gr, lift
from foltools.polyring import MultiPoly
from foltools.series import PowerSeries


def src_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports the foltools under test."""
    return dict(os.environ, PYTHONPATH=str(Path(foltools.__file__).resolve().parent.parent))


def affine_vars() -> tuple[MultiPoly, MultiPoly]:
    return MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)


def projective_vars() -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    return MultiPoly.variable(3, 0), MultiPoly.variable(3, 1), MultiPoly.variable(3, 2)


def const2(value) -> MultiPoly:
    return MultiPoly.constant(2, gr(value) if isinstance(value, (int, str, Fraction)) else value)


def gr_norm(z: GaussianRational) -> Fraction:
    """|z|^2 as an exact rational."""
    return z.re * z.re + z.im * z.im


def as_fraction(z: GaussianRational) -> Fraction:
    """A real scalar as a Fraction; ValueError when it is not real."""
    if not z.is_real():
        raise ValueError("value is not real")
    return z.re


def series_coeffs(s: PowerSeries) -> tuple[GaussianRational, ...]:
    """The coefficients of a series as scalars: index k is that of t^k."""
    return tuple(from_gint(u, s.den) for u in s.num)


def series_coefficient(s: PowerSeries, k: int) -> GaussianRational:
    if k > s.truncation:
        raise IndexError("coefficient beyond truncation")
    return from_gint(s.num[k], s.den)


def series_scale(s: PowerSeries, c: GaussianRational) -> PowerSeries:
    """c times s."""
    d, ((cr, ci),) = lift((c,))
    return PowerSeries([(re * cr - im * ci, re * ci + im * cr) for re, im in s.num], s.den * d)


def substitute(p: MultiPoly, values: dict[int, MultiPoly]) -> MultiPoly:
    """Substitute polynomials (same arity as the replacements) for variables.

    Every variable must be covered by `values`; result arity is the
    replacements' arity.
    """
    if not values:
        raise ValueError("no substitutions given")
    target_arity = next(iter(values.values())).arity
    result = MultiPoly.zero(target_arity)
    powers: dict[int, list[MultiPoly]] = {}
    for var in range(p.arity):
        if var not in values:
            raise ValueError(f"missing substitution for variable {var}")
        powers[var] = [MultiPoly.constant(target_arity, 1)]
    for exp, u in p.num.items():
        term = powers[0][0]
        for var, e in enumerate(exp):
            plist = powers[var]
            while len(plist) <= e:
                plist.append(plist[-1] * values[var])
            if e:
                term = term * plist[e]
        result = result + term._times(u, term.den * p.den)
    return result


def random_coeff(rng: random.Random, complex_prob: float = 0.3) -> GaussianRational:
    num = rng.randint(-9, 9)
    den = rng.randint(1, 4)
    re = Fraction(num, den)
    im = Fraction(0)
    if rng.random() < complex_prob:
        im = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return GaussianRational(re, im)


def random_poly(
    rng: random.Random,
    arity: int = 2,
    max_degree: int = 3,
    max_terms: int = 4,
    complex_prob: float = 0.3,
    nonzero: bool = False,
) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
        exps = []
        remaining = max_degree
        for _v in range(arity - 1):
            e = rng.randint(0, remaining)
            exps.append(e)
            remaining -= e
        exps.append(rng.randint(0, remaining))
        c = random_coeff(rng, complex_prob)
        if not c.is_zero():
            terms[tuple(exps)] = c
    p = MultiPoly(arity, terms)
    if nonzero and p.is_zero():
        return MultiPoly.constant(arity, gr(rng.randint(1, 5)))
    return p


def random_real_poly(rng: random.Random, arity: int = 2, max_degree: int = 3, max_terms: int = 5) -> MultiPoly:
    return random_poly(rng, arity, max_degree, max_terms, complex_prob=0.0)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)


@pytest.fixture(scope="session")
def quartic_ovalset():
    """Counting the 4-oval quartic at resolution 512 is the slow oracle run;
    share it across tests."""
    from foltools.construct import gallery
    from foltools.realtopo import Box, count_ovals

    curve = gallery("quartic-4-ovals").curve
    return curve, count_ovals(curve, Box.square(2), 512)
