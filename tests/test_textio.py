import random
from fractions import Fraction

import pytest

import ll1_parser  # the parser before it read each term in one loop, kept as an oracle
from conftest import affine_vars, const2, random_poly
from foltools.errors import ParseError, PreconditionError
from foltools.gaussian import GaussianRational, gr
from foltools.polyring import MultiPoly
from foltools.realtopo import Box
from foltools.singularities import ProjectivePoint
from foltools.textio import (
    _coeff_literal,
    format_system,
    parse_poly,
    parse_system,
    print_poly,
    report_json,
    to_jsonable,
)

x, y = affine_vars()


def test_parse_basic():
    assert parse_poly("x^2 + y^2 - 1", 2) == x**2 + y**2 - const2(1)
    assert parse_poly("X*Y*(Y - X - Z)", 3).degree == 3
    assert parse_poly("(1/2 + 3*i)*x", 2) == x.scale(gr("1/2", 3))
    assert parse_poly("-x^2", 2) == -(x**2)  # ^ binds tighter than unary minus
    assert parse_poly("2**3", 2) == const2(8)


def test_parse_grammar_corners():
    assert parse_poly("-2^2", 2) == const2(-4)
    assert parse_poly("2*-x", 2) == -(x.scale(2))
    assert parse_poly("2/3^2", 2) == const2(Fraction(4, 9))  # a fraction literal is one atom
    assert parse_poly("i^3", 2) == const2(gr(0, -1))
    assert parse_poly("x**2 * y ** 3", 2) == x**2 * y**3
    assert parse_poly("0^0 + 0*x + x^0", 2) == const2(2)
    assert parse_poly("--x - -(-y)", 2) == x - y


def test_parse_errors_carry_location():
    def where(text, arity=2):
        with pytest.raises(ParseError) as exc:
            parse_poly(text, arity)
        return str(exc.value).rpartition(" (")[0], exc.value.line, exc.value.column

    assert where("x +") == ("unexpected 'end of input'", 1, 4)
    assert where("x + X") == ("variable 'X' not in this variable set (x y)", 1, 5)
    assert where("X + x", 3) == ("variable 'x' not in this variable set (X Y Z)", 1, 5)
    assert where("x/2") == ("unexpected '/'", 1, 2)  # division only between integer literals
    assert where("x^(2)") == ("exponent must be a nonnegative integer literal", 1, 3)
    assert where("x y") == ("unexpected 'y'", 1, 3)  # juxtaposition forbidden
    assert where("(x + 1") == ("expected ')', found 'end of input'", 1, 7)
    assert where("2/x") == ("denominator must be an integer literal", 1, 3)
    assert where("1 + 2/0") == ("zero denominator", 1, 7)
    assert where("x + w") == ("unknown name 'w'", 1, 5)
    assert where("x * )") == ("unexpected ')'", 1, 5)
    # the offending character itself, not the whitespace before it
    assert where("x + $") == ("unexpected character '$'", 1, 5)
    # end of input on the line where the text ends
    assert where("x +\n  ") == ("unexpected 'end of input'", 2, 3)
    assert where("x +\n\n  y y") == ("unexpected 'y'", 3, 5)


def test_an_overlong_integer_literal_is_a_parse_error():
    # more digits than the interpreter converts: refused where the literal stands
    digits = "7" * 5000
    for text, column in ((f"{digits}*x", 1), (f"x + 1/{digits}", 7), (f"x^{digits}", 3)):
        with pytest.raises(ParseError) as exc:
            parse_poly(text, 2)
        assert (str(exc.value).rpartition(" (")[0], exc.value.line, exc.value.column) == ("integer literal of 5000 digits is too long", 1, column)
    with pytest.raises(ParseError) as exc:
        parse_system(f"[field f]\np = x\nq = {digits}*y\n")
    assert (exc.value.line, exc.value.column) == (3, 5)


def test_document_errors_carry_document_positions():
    def where(doc):
        with pytest.raises(ParseError) as exc:
            parse_system(doc)
        return exc.value.line, exc.value.column

    assert where("[curve a]\nf = x + $\n") == (2, 9)
    assert where("[curve a]\n  f =  x +   \n") == (2, 11)  # just after the value
    assert where("# c\n[param a]\nvalue = 1\n\n[field f]\np = a*x\nq = (y\n") == (7, 7)
    assert where("[curve a]\r\nf = x\r\n\r\n[curve b]\r\nf = y^x\r\n") == (5, 7)
    assert where("[param a]\nvalue = x\n") == (2, 1)  # not a constant: the line of the value


PARAMS = {"a": gr(1, 2), "b": gr("-3/4"), "c0": gr(0)}


def random_expr(rng, arity, depth=0):
    names = ("x", "y") if arity == 2 else ("X", "Y", "Z")

    def ws():
        return rng.choice(("", "", " ", "  "))

    def atom():
        roll = rng.random()
        if roll < 0.25:
            return str(rng.randint(0, 12))
        if roll < 0.4:
            return f"{rng.randint(0, 9)}/{rng.randint(1, 9)}"
        if roll < 0.5:
            return "i"
        if roll < 0.8:
            return rng.choice(names)
        if roll < 0.9 or depth >= 3:
            return rng.choice(tuple(PARAMS))
        return "(" + random_expr(rng, arity, depth + 1) + ")"

    def factor():
        text = "-" * rng.choice((0, 0, 0, 1, 2)) + ws() + atom()
        if rng.random() < 0.3:
            text += ws() + rng.choice(("^", "**")) + ws() + str(rng.randint(0, 3))
        return text

    def term():
        return (ws() + "*" + ws()).join(factor() for _ in range(rng.randint(1, 3)))

    text = term()
    for _ in range(rng.randint(0, 3)):
        text += ws() + rng.choice("+-") + ws() + term()
    return text


def outcome(parse, text, arity):
    try:
        return parse(text, arity, PARAMS)
    except ParseError as exc:
        return str(exc).rpartition(" (")[0], exc.line, exc.column


def test_parser_matches_the_ll1_oracle(rng):
    # every MultiPoly equal in arity, den and num, on seeded expressions
    for _ in range(1500):
        arity = rng.choice((2, 3))
        text = random_expr(rng, arity)
        got = parse_poly(text, arity, PARAMS)
        assert got == ll1_parser.parse_poly(text, arity, PARAMS), text


def test_parse_errors_match_the_ll1_oracle(rng):
    # random edits of valid expressions: the same value or the same error; the
    # oracle's position is taken where it is right (one line, no bad character)
    for _ in range(3000):
        arity = rng.choice((2, 3))
        text = list(random_expr(rng, arity))
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(text) + 1)
            edit = rng.choice(("()+-*/^ 0i" + "xyzXYZ" + "w$", ""))
            text[k : k + rng.randint(0, 1)] = [rng.choice(edit)] if edit else []
        text = "".join(text)
        got, want = outcome(parse_poly, text, arity), outcome(ll1_parser.parse_poly, text, arity)
        if isinstance(want, MultiPoly):
            assert got == want, text
            continue
        assert got[0] == want[0], text
        if want[0].startswith("unexpected character"):
            bad = want[0][-2]
            assert got[1:] == (1, text.index(bad) + 1), text
        else:
            assert got == want, text


def test_parse_errors_in_documents_are_shifted_to_the_value(rng):
    for _ in range(300):
        text = random_expr(rng, 2)
        k = rng.randrange(len(text) + 1)
        text = text[:k] + rng.choice(")*/^w") + text[k:]
        want = outcome(ll1_parser.parse_poly, text, 2)
        if isinstance(want, MultiPoly):
            continue
        with pytest.raises(ParseError) as exc:
            parse_system("[param a]\nvalue = 1 + 2*i\n[param b]\nvalue = -3/4\n[param c0]\nvalue = 0\n\n[curve k]\n   f =  " + text + "  \n")
        assert str(exc.value).rpartition(" (")[0] == want[0]
        assert (exc.value.line, exc.value.column) == (9, want[2] + 8), text


def test_print_parse_roundtrip_random(rng):
    for _ in range(1000):
        p = random_poly(rng, arity=rng.choice((2, 3)), max_degree=5, max_terms=6)
        assert parse_poly(print_poly(p), p.arity) == p


def test_a_coefficient_too_long_to_print_is_a_precondition_error():
    # a numerator, a denominator or an imaginary part past the interpreter's 4,300-digit limit
    x = MultiPoly.variable(2, 0)
    cases = ((gr(2**20000), 6021), (gr(Fraction(1, 3**10000)), 4772), (gr(1, 2**20000), 6021))
    for c, digits in cases:
        with pytest.raises(PreconditionError) as exc:
            print_poly(x.scale(c) + MultiPoly.constant(2, 1))
        assert str(exc.value) == f"a coefficient of {digits} digits is past the 4300-digit limit on printed integers"
    assert print_poly(x.scale(gr(10**4299))) == "1" + "0" * 4299 + "*x"  # at the limit it prints


def test_print_idempotent_on_canonical(rng):
    for _ in range(200):
        p = random_poly(rng, arity=2, max_degree=4)
        text = print_poly(p)
        assert print_poly(parse_poly(text, 2)) == text


def test_parse_system_sections():
    doc = parse_system(
        """
# a comment
[param alpha]
value = 1 + 2*i

[field eee]
p = x^2+y^2-1 - (x-2)*2*y
q = x^2+y^2-1 + (x-2)*2*x

[curve circle]
f = x^2 + y^2 - 1

[curve scaled]
f = alpha*x
"""
    )
    assert set(doc.fields) == {"eee"}
    assert doc.fields["eee"].r.is_zero()
    assert doc.curves["circle"].f == x**2 + y**2 - const2(1)
    assert doc.curves["scaled"].f == x.scale(gr(1, 2))
    assert doc.params["alpha"] == gr(1, 2)


def test_parse_system_errors():
    with pytest.raises(ParseError) as exc:
        parse_system("[field broken]\np = x\n")
    assert "q" in str(exc.value)
    with pytest.raises(ParseError):
        parse_system("[curve a]\nf = x\n\n[curve a]\nf = y\n")
    with pytest.raises(ParseError):
        parse_system("key = 1\n")
    assert parse_system("") .fields == {}


def test_component_product_verified():
    good = """
[curve a]
f = x

[curve b]
f = y - 1

[curve ab]
f = x*y - x
components = a, b
"""
    doc = parse_system(good)
    assert doc.curves["ab"].components == ["a", "b"]
    with pytest.raises(ParseError) as exc:
        parse_system(good.replace("f = x*y - x", "f = x*y + x"))
    assert "multiply" in str(exc.value)
    with pytest.raises(ParseError):
        parse_system("[curve ab]\nf = x\ncomponents = missing\n")


def test_format_system_roundtrip():
    doc = parse_system("[field f1]\np = -y\nq = x\n\n[curve c]\nf = x^2 + y^2 - 1\n")
    text = format_system(doc)
    again = parse_system(text)
    assert again.fields["f1"].p == doc.fields["f1"].p
    assert again.curves["c"].f == doc.curves["c"].f


def test_report_json_stable():
    payload = {"b": gr("1/2", 1), "a": [x + y, 1.25], "c": {"z": True}}
    out1 = report_json(payload)
    out2 = report_json(payload)
    assert out1 == out2
    assert '"a"' in out1 and "x + y" in out1


def test_a_dataclass_renders_as_its_fields():
    from dataclasses import dataclass
    from typing import ClassVar

    from foltools.realtopo import Box

    # there is no dataclass rule: a dataclass is a record like any other once
    # its class declares _fields, and a field it leaves out is not rendered
    @dataclass
    class Report:
        _fields: ClassVar[tuple] = ("box", "value", "kind")
        box: Box
        value: object
        kind: type
        note: str = "not rendered"

    report = Report(Box.square(Fraction(1, 2)), gr("1/2", 1), Box)
    assert to_jsonable(report) == {
        "box": {"x_lo": "-1/2", "x_hi": "1/2", "y_lo": "-1/2", "y_hi": "1/2"},
        "value": "1/2 + i",
        "kind": Box,
    }

    # without _fields a dataclass is not a record and passes through unchanged
    @dataclass
    class Bare:
        box: Box

    bare = Bare(Box.square(Fraction(1, 2)))
    assert to_jsonable(bare) is bare


def test_a_record_renders_as_its_declared_fields():
    from typing import NamedTuple

    from foltools.fields import AffineVectorField

    # a field's cached properties live beside its fields and are not rendered
    field = AffineVectorField.make(x * y, -y, x**2)
    assert not field.component_gcd.is_zero()
    assert to_jsonable(field) == {"p": "x*y", "q": "-y", "r": "x^2", "m": 2}

    # a NamedTuple is a record, not a list
    class Pair(NamedTuple):
        left: object
        right: object

    assert to_jsonable([Pair(gr("1/2"), Fraction(3, 4))]) == [{"left": "1/2", "right": "3/4"}]

    # fields are rendered one level at a time: a box is a record, a Q(i)
    # value renders as its text, unparenthesised, and a class stays as it is
    report = Pair(Box.square(Fraction(1, 2)), [gr("1/2", 1), Box])
    assert to_jsonable(report) == {
        "left": {"x_lo": "-1/2", "x_hi": "1/2", "y_lo": "-1/2", "y_hi": "1/2"},
        "right": ["1/2 + i", Box],
    }


def test_a_point_renders_as_its_text():
    point = ProjectivePoint.make(gr("1/2", -1), 3, 1)
    assert to_jsonable(point) == str(point) == "(1/2 - i : 3 : 1)"
    assert report_json({"points": [point, ProjectivePoint.make(1, 0, 0)]}) == '{\n  "points": [\n    "(1/2 - i : 3 : 1)",\n    "(1 : 0 : 0)"\n  ]\n}'


# -- the printer on the integer store against the printer on Fraction views --


def _fraction_coeff_str(c, monomial):
    """(sign, body) of a coefficient as the printer built it from Fraction views."""
    if c.is_real():
        sign = "-" if c.re < 0 else "+"
        mag = abs(c.re)
        if monomial and mag == 1:
            return sign, monomial
        body = str(mag)
        return sign, f"{body}*{monomial}" if monomial else body
    if not c.re:
        sign = "-" if c.im < 0 else "+"
        mag = abs(c.im)
        head = "i" if mag == 1 else f"{mag}*i"
        return sign, f"{head}*{monomial}" if monomial else head
    re_sign, re_body = _fraction_coeff_str(GaussianRational(c.re, Fraction(0)), "")
    im_sign, im_body = _fraction_coeff_str(GaussianRational(Fraction(0), c.im), "")
    inner = (re_body if re_sign == "+" else "-" + re_body) + f" {im_sign} {im_body}"
    return "+", f"({inner})*{monomial}" if monomial else f"({inner})"


def _fraction_print_poly(p):
    """print_poly as it was: sorted GaussianRational terms through `_fraction_coeff_str`."""
    if p.is_zero():
        return "0"
    names = ("x", "y") if p.arity == 2 else ("X", "Y", "Z")
    pieces = []
    for exp, c in sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
        mono = "*".join(name if e == 1 else f"{name}^{e}" for e, name in zip(exp, names) if e)
        sign, body = _fraction_coeff_str(c, mono)
        pieces.append((body if sign == "+" else f"-{body}") if not pieces else f"{sign} {body}")
    return " ".join(pieces)


def _printer_coeff(rng):
    """A real, imaginary or mixed coefficient, or one of +-1 and +-i."""
    def part():
        return Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 7, 12)))

    kind = rng.randrange(4)
    if kind == 0:
        return gr(*rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1))))
    return gr(part() if kind != 2 else 0, part() if kind != 1 else 0)


def test_printer_on_the_integer_store_matches_the_fraction_printer():
    rng = random.Random(8080)
    for n in range(600):
        arity = 2 + n % 2
        terms = {}
        for _ in range(rng.randint(0, 7)):
            exp = tuple(rng.randint(0, 3) for _ in range(arity))
            terms[exp] = _printer_coeff(rng)
        p = MultiPoly(arity, terms)
        assert print_poly(p) == _fraction_print_poly(p), n
        c = _printer_coeff(rng)
        sign, body = _fraction_coeff_str(c, "")
        assert _coeff_literal(c) == (body if sign == "+" else f"-{body}")
        assert to_jsonable(c) == str(c)
