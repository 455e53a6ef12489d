import random
from fractions import Fraction

import pytest
from conftest import as_fraction, gr_norm
from fraction_gaussian import FractionGaussian

from foltools.gaussian import GaussianRational, I, ONE, ZERO, gr


def test_normalization_and_equality():
    a = GaussianRational(Fraction(2, 4), Fraction(-6, 4))
    assert a.re == Fraction(1, 2) and a.im == Fraction(-3, 2)
    assert a == gr("1/2", "-3/2")
    assert hash(a) == hash(gr("1/2", "-3/2"))


def test_field_arithmetic():
    assert I * I == gr(-1)
    z = gr(1, 2)
    w = gr(3, -1)
    assert z * w == gr(5, 5)
    assert (z / w) * w == z
    assert z + (-z) == ZERO
    assert z * z.inverse() == ONE
    assert (z**5) * (z**-5) == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_sqrt_exact_cases():
    assert gr(4).sqrt() == gr(2)
    assert gr(-9).sqrt() == gr(0, 3)
    assert gr(0, 2).sqrt() in (gr(1, 1), gr(-1, -1))
    assert gr(2).sqrt() is None  # irrational
    assert gr(1, 1).sqrt() is None  # |1+i| is irrational
    assert gr("9/4").sqrt() == gr("3/2")


def test_sqrt_roundtrip_random():
    rng = random.Random(7)
    for _ in range(300):
        w = gr(Fraction(rng.randint(-8, 8), rng.randint(1, 5)), Fraction(rng.randint(-8, 8), rng.randint(1, 5)))
        z = w * w
        s = z.sqrt()
        assert s is not None and s * s == z


def test_real_predicates():
    assert gr(3).is_real() and not gr(3, 1).is_real()
    assert float(gr("7/2")) == 3.5
    with pytest.raises(ValueError):
        as_fraction(gr(1, 1))


def _oracle_pairs(count: int, seed: int):
    """(GaussianRational, FractionGaussian) pairs of one value: zero, units,
    real, imaginary and general values with parts up to 2^80, and squares."""
    rng = random.Random(seed)

    def part() -> Fraction:
        return Fraction(rng.randint(-(2 ** rng.choice((3, 20, 80))), 2 ** rng.choice((3, 20, 80))), rng.randint(1, 2 ** rng.choice((1, 20, 80))))

    out = []
    for _ in range(count):
        kind = rng.randrange(7)
        if kind == 0:
            re, im = Fraction(0), Fraction(0)
        elif kind == 1:
            re, im = map(Fraction, rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1))))
        elif kind == 2:
            re, im = part(), Fraction(0)
        elif kind == 3:
            re, im = Fraction(0), part()
        else:
            re, im = part(), part()
        if kind == 6:  # a square, so sqrt has a root to find
            w = FractionGaussian(Fraction(rng.randint(-99, 99), rng.randint(1, 30)), Fraction(rng.randint(-99, 99), rng.randint(1, 30)))
            re, im = (w * w).re, (w * w).im
        out.append((GaussianRational(re, im), FractionGaussian(re, im)))
    return out


def _same(new, old):
    assert (new.re, new.im) == (old.re, old.im)
    assert str(new) == str(old) and repr(new) == repr(old) and hash(new) == hash(old)


def test_scalar_matches_the_fraction_oracle():
    pairs = _oracle_pairs(2000, 39)
    for (z, oz), (w, ow) in zip(pairs, pairs[1:] + pairs[:1]):
        _same(z, oz)
        _same(z + w, oz + ow)
        _same(z - w, oz - ow)
        _same(z * w, oz * ow)
        _same(-z, -oz)
        assert (z == w) == (oz == ow) and (z != w) == (oz != ow) and z == GaussianRational(oz.re, oz.im)
        assert bool(z) == bool(oz) and z.is_zero() == oz.is_zero() and z.is_real() == oz.is_real()
        assert gr_norm(z) == oz.norm()
        k, q = -3, Fraction(7, 2**80 + 1)
        _same(z + k, oz + k)
        _same(k - z, k - oz)
        _same(z * q, oz * q)
        _same(q - z, q - oz)
        if w:
            _same(z / w, oz / ow)
            _same(Fraction(3, 7) / w, Fraction(3, 7) / ow)
        else:
            with pytest.raises(ZeroDivisionError):
                z / w
        if z:
            _same(z.inverse(), oz.inverse())
        else:
            with pytest.raises(ZeroDivisionError):
                z.inverse()
        for n in (-3, 0, 2) if z else (0, 2):
            _same(z**n, oz**n)
        root, oroot = z.sqrt(), oz.sqrt()
        assert (root is None) == (oroot is None)
        if root is not None:
            _same(root, oroot)
        if oz.is_real():
            assert as_fraction(z) == oz.as_fraction() and float(z) == float(oz)
        else:
            for read in (as_fraction, float):
                with pytest.raises(ValueError):
                    read(z)


def test_sqrt_both_none_cases():
    # |1 + i| is irrational; |4i| = 4 is rational but sqrt(4i) = sqrt(2)(1 + i) is not in Q(i)
    for z in (gr(1, 1), gr(0, 4), gr(2), gr(-3, 4) * gr(2)):
        assert z.sqrt() is None and FractionGaussian(z.re, z.im).sqrt() is None
    assert gr(-3, 4).sqrt() == gr(1, 2)
