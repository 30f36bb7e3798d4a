import pytest
from fractions import Fraction

from conjlab.fields import (
    GF,
    QQ,
    QQT,
    FieldError,
    RatFunc,
    UniPoly,
    field_from_name,
    ipoly_format,
    ipoly_gcd,
    integral,
    ipoly_parse,
)


def test_gf_requires_prime():
    GF(2)
    GF(2**31 - 1)
    with pytest.raises(FieldError):
        GF(4)
    with pytest.raises(FieldError):
        GF(1)
    with pytest.raises(FieldError):
        GF(2**31 + 11)
    # refused by its size before a trial division that would not finish
    with pytest.raises(FieldError):
        GF(10**30 + 57)


def test_integral():
    assert [integral(x) for x in (3, -2, 2.0, "7", " 8 ")] == [3, -2, 2, 7, 8]
    # JSON booleans are not numbers, though bool is an int subclass
    for bad in (True, False, 1.5, float("inf"), "t", None, [1]):
        assert integral(bad) is None


def test_gf_arithmetic():
    f = GF(7)
    assert f.add(5, 4) == 2
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.div(1, 3) == 5
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    assert list(f.elements()) == list(range(7))
    assert f.parse("10") == 3
    assert f.parse("1/3") == 5
    assert f.parse(" -2/ 3 ") == f.parse("-2/3") == 4
    for bad in ("1/2/3", "t", "1.5", "", "1/"):
        with pytest.raises(FieldError, match=f"cannot parse {bad!r} over gf:7: write an "
                                             "integer a or a quotient a/b of integers"):
            f.parse(bad)
    assert f.format(f.coerce(-1)) == "6"


def test_qq_basics():
    f = QQ()
    assert f.coerce(2) == Fraction(2)
    assert f.parse("-2/3") == Fraction(-2, 3)
    assert f.format(Fraction(4, 6)) == "2/3"
    assert f.characteristic == 0


def test_field_from_name():
    assert field_from_name("gf:5") == GF(5)
    assert field_from_name("qq") == QQ()
    assert field_from_name("qq_t") == QQT()
    with pytest.raises(FieldError):
        field_from_name("zz")


def test_ratfunc_canonical():
    one = RatFunc.make((2,), (2,))
    assert one == RatFunc((1,), (1,))
    # (t^2 - 1)/(t - 1) reduces to t + 1
    r = RatFunc.make((-1, 0, 1), (-1, 1))
    assert r == RatFunc((1, 1), (1,))
    # denominator sign is normalized
    r = RatFunc.make((1,), (-2,))
    assert r.den == (2,) and r.num == (-1,)
    with pytest.raises(ZeroDivisionError):
        RatFunc.make((1,), ())


def test_ratfunc_field_ops():
    f = QQT()
    t = f.t
    a = f.div(f.one, f.add(f.one, t))  # 1/(1+t)
    assert f.mul(a, f.add(f.one, t)) == f.one
    assert f.sub(a, a) == f.zero
    assert f.value_at_zero(a) == Fraction(1)
    assert f.has_pole_at_zero(f.inv(t))
    s = f.add(f.mul(t, t), f.one)
    assert f.format(s) == "t^2+1"


def test_ipoly_parse_format_roundtrip():
    for s in ("t^2+1", "-2*t^3-t+4", "7", "t", "-t", "0"):
        p = ipoly_parse(s)
        assert ipoly_parse(ipoly_format(p)) == p
    assert ipoly_parse("t^2+1") == (1, 0, 1)
    with pytest.raises(FieldError):
        ipoly_parse("t^")


def test_ipoly_gcd():
    # gcd((t-1)(t+2), (t-1)) = t - 1
    assert ipoly_gcd((-2, 1, 1), (-1, 1)) == (-1, 1)
    assert ipoly_gcd((2, 2), (4,)) == (1,)


def test_qqt_parse_variants():
    f = QQT()
    assert f.parse("(1)/(t+1)") == RatFunc((1,), (1, 1))
    assert f.parse("2/3") == RatFunc((2,), (3,))
    assert f.parse("t^2+1") == RatFunc((1, 0, 1), (1,))
    # a monomial over an integer, as 2/3 parses
    assert f.parse("t/3") == RatFunc((0, 1), (3,)) == f.parse("(t)/(3)")
    assert f.parse("-2*t^2/5") == RatFunc((0, 0, -2), (5,))
    assert f.parse("4*t/-6") == RatFunc((0, -2), (3,))
    for s in ("t+1/3", "1/3+t", "1/t", "t/3/4", "/3", "t/"):
        with pytest.raises(FieldError, match=r"\(num\)/\(den\)"):
            f.parse(s)
    # round trip through format
    for s in ("(1)/(t+1)", "-2/3", "t^2+1", "0", "(t)/(t^2+1)"):
        v = f.parse(s)
        assert f.parse(f.format(v)) == v


def test_unipoly_ops():
    f = QQ()
    x = UniPoly.x(f)
    p = x.mul(x).sub(UniPoly.constant(f, 1))  # x^2 - 1
    assert p.eval(3) == 8
    assert p.degree == 2
    q = p.add(UniPoly.constant(f, 1))
    assert q.coeffs == (Fraction(0), Fraction(0), Fraction(1))
    assert UniPoly.make(f, [0, 0]).is_zero()
