import pytest

from conftest import affine_vars, const2, random_poly
from foltools.errors import ParseError
from foltools.gaussian import gr
from foltools.polyring import MultiPoly
from foltools.textio import (
    format_system,
    parse_poly,
    parse_system,
    print_poly,
    report_json,
)

x, y = affine_vars()


def test_parse_basic():
    assert parse_poly("x^2 + y^2 - 1", 2) == x**2 + y**2 - const2(1)
    assert parse_poly("X*Y*(Y - X - Z)", 3).degree == 3
    assert parse_poly("(1/2 + 3*i)*x", 2) == x.scale(gr("1/2", 3))
    assert parse_poly("-x^2", 2) == -(x**2)  # ^ binds tighter than unary minus
    assert parse_poly("2**3", 2) == const2(8)


def test_parse_errors_carry_location():
    with pytest.raises(ParseError):
        parse_poly("x +", 2)
    with pytest.raises(ParseError) as exc:
        parse_poly("x + X", 2)
    assert "variable" in str(exc.value)
    with pytest.raises(ParseError):
        parse_poly("x/2", 2)  # division only between integer literals
    with pytest.raises(ParseError):
        parse_poly("x^(2)", 2)  # exponents are integer literals
    with pytest.raises(ParseError):
        parse_poly("x y", 2)  # juxtaposition forbidden


def test_print_parse_roundtrip_random(rng):
    for _ in range(1000):
        p = random_poly(rng, arity=rng.choice((2, 3)), max_degree=5, max_terms=6)
        assert parse_poly(print_poly(p), p.arity) == p


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
