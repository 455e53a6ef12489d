"""Reference gcd for the tests: recursive contents and the subresultant PRS.

This is the bivariate route `poly_gcd` used before it took its gcds from
evaluation images; it is kept here as an independent oracle.  Its contents
are gcds of polynomials in x alone, which `poly_gcd` takes by `ugcd`.
"""

from __future__ import annotations

from foltools.polyring import MultiPoly, _monic, exact_divide, poly_gcd


def coeffs_in(f: MultiPoly, var: int) -> dict[int, MultiPoly]:
    """View f as univariate in `var` with MultiPoly coefficients (same arity)."""
    blocks: dict[int, dict] = {}
    for exp, u in f.num.items():
        blocks.setdefault(exp[var], {})[exp[:var] + (0,) + exp[var + 1 :]] = u
    return {e: MultiPoly._of(f.arity, f.den, block) for e, block in blocks.items()}


def content(f: MultiPoly, var: int) -> MultiPoly:
    cont = MultiPoly.zero(f.arity)
    for p in coeffs_in(f, var).values():
        cont = poly_gcd(cont, p)
        if cont.is_constant():
            break  # the monic constant 1, which divides every coefficient left
    return cont


def primitive_part(f: MultiPoly, var: int) -> MultiPoly:
    if f.is_zero():
        return f
    q = exact_divide(f, content(f, var))
    if q is None:
        raise ArithmeticError("the content must divide exactly")
    return q


def pseudo_rem(a: MultiPoly, b: MultiPoly, var: int) -> MultiPoly:
    """Pseudo-remainder of a by b in `var`: lc(b)^(da-db+1) * a mod b."""
    db = b.degree_in(var)
    lb = coeffs_in(b, var)[db]
    v = MultiPoly.variable(a.arity, var)
    r = a
    da = a.degree_in(var)
    steps = 0
    while not r.is_zero() and r.degree_in(var) >= db:
        dr = r.degree_in(var)
        r = r * lb - b * (coeffs_in(r, var)[dr] * v ** (dr - db))
        steps += 1
    # match the classical normalization lc(b)^(da-db+1) * a mod b exactly
    missing = (da - db + 1) - steps
    if missing > 0 and not r.is_zero():
        r = r * lb**missing
    return r


def subresultant_gcd(pa: MultiPoly, pb: MultiPoly, var: int) -> MultiPoly:
    """Gcd of var-primitive polynomials by the subresultant PRS.

    Divisions by g * h^delta are exact (Brown-Traub), so no per-step content
    extraction is needed; one primitive-part at the end.
    """
    one = MultiPoly.constant(pa.arity, 1)
    A, B = pa, pb
    if A.degree_in(var) < B.degree_in(var):
        A, B = B, A
    g, h = one, one
    while True:
        if B.is_zero():
            return primitive_part(A, var)
        if B.degree_in(var) == 0:
            return one
        delta = A.degree_in(var) - B.degree_in(var)
        R = pseudo_rem(A, B, var)
        if R.is_zero():
            return primitive_part(B, var)
        quotient = exact_divide(R, g * h**delta)
        if quotient is None:
            raise ArithmeticError("subresultant divisibility must hold")
        A, B = B, quotient
        g = coeffs_in(A, var)[A.degree_in(var)]
        if delta == 1:
            h = g
        elif delta > 1:
            h = exact_divide(g**delta, h ** (delta - 1))
            if h is None:
                raise ArithmeticError("subresultant divisibility must hold")


def prs_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """gcd(a, b) of two nonzero affine polynomials, monic: the gcd of the contents in x times the PRS gcd in y."""
    ca, cb = content(a, 1), content(b, 1)
    return _monic(poly_gcd(ca, cb) * subresultant_gcd(primitive_part(a, 1), primitive_part(b, 1), 1))
