import math
import random

import pytest
from fractions import Fraction

from conftest import ipoly_gcd_oracle, rational_roots_oracle

from conjlab.fields import (
    GF,
    QQ,
    QQT,
    FieldError,
    RatFunc,
    field_from_name,
    gfpoly_roots,
    ipoly_add,
    ipoly_content,
    ipoly_eval,
    ipoly_exquo,
    ipoly_format,
    ipoly_gcd,
    ipoly_interpolate,
    ipoly_lcm,
    ipoly_mul,
    ipoly_neg,
    ipoly_primitive,
    ipoly_trim,
    integral,
    ipoly_parse,
    is_prime,
    qpoly_rational_roots,
)


def rand_ipoly(rng, max_deg=4, height=9):
    """A trimmed integer polynomial of degree at most max_deg; () now and then."""
    return ipoly_trim([rng.randint(-height, height) for _ in range(rng.randint(0, max_deg + 1))])


def power_sum(a, x):
    """a(x) as the sum of c x^i, the oracle for Horner evaluation."""
    return sum(c * x**i for i, c in enumerate(a))


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


def test_scalar_exponents_stop_at_the_int_digit_limit():
    # an exponent of t or of 10 up to 4300, Python's default digit limit on
    # int(str), parses; one above it, of either sign, is refused before any
    # power is built
    assert len(ipoly_parse("t^4300")) == 4301 and ipoly_parse("2*t^003") == (0, 0, 0, 2)
    assert QQ().parse("1e4300") == 10**4300 and QQ().parse("3E-4_300") == Fraction(3, 10**4300)
    assert QQ().parse(" 25e-1 ") == Fraction(5, 2)
    for parse, s in ((ipoly_parse, "t^4301"), (QQT().parse, "(1)/(t^99999999999)"),
                     (QQ().parse, "1e4301"), (QQ().parse, "1e-4301"), (QQ().parse, "2.5E+0" + "9" * 5000)):
        with pytest.raises(FieldError, match="exponent"):
            parse(s)


def test_ipoly_gcd():
    # gcd((t-1)(t+2), (t-1)) = t - 1
    assert ipoly_gcd((-2, 1, 1), (-1, 1)) == (-1, 1)
    assert ipoly_gcd((2, 2), (4,)) == (1,)


def test_ipoly_gcd_matches_euclid_over_qq_on_planted_factors():
    """Products that share a planted factor, and some that do not, give the
    gcd of Euclid over QQ; most pairs take the mod-p coprimality exit."""
    rng = random.Random(29)
    for _ in range(400):
        common = rand_ipoly(rng, max_deg=3) if rng.random() < 0.6 else (1,)
        a = ipoly_mul(rand_ipoly(rng, max_deg=4, height=30), common)
        b = ipoly_mul(rand_ipoly(rng, max_deg=4, height=30), common)
        assert ipoly_gcd(a, b) == ipoly_gcd_oracle(a, b), (a, b)


P = 2**31 - 1


@pytest.mark.parametrize("a, b", [
    # a leading coefficient divisible by p: the reduction drops a degree, and
    # the common factor 1 + pt of the last pair becomes a unit mod p
    ((1, P), (1, 1)), ((-1, 0, 2 * P), (1, P)), ((2, 2 * P + 1, P), (3, 3 * P + 1, P)),
    # unlucky p: t and t + p are coprime over QQ but equal mod p
    ((0, 1), (P, 1)), ((0, 0, 1), (P, 2 * P + 1, 1)),
    # a constant operand
    ((6,), (2, 4)), ((-5,), (0, 1)), ((1, 2, 1), (7,)),
    # a zero operand
    ((), (2, 4)), ((0, -3, -6), ()), ((), ()), ((), (-7,)),
    # negative leading coefficients
    ((1, 0, -1), (-1, -1)), ((2, -3, -1), (4, 0, -2)), ((1, -1), (-1, 1)),
    # nontrivial content
    ((6, 6), (4, 4)), ((-10, 0, 10), (15, 15)), ((4, 8, 4), (6, 6)),
], ids=str)
def test_ipoly_gcd_matches_euclid_over_qq_on_each_fallback(a, b):
    assert ipoly_gcd(a, b) == ipoly_gcd_oracle(a, b)
    assert ipoly_gcd(b, a) == ipoly_gcd_oracle(b, a)


def test_sturm_chain_divides_by_a_negative_leading_coefficient():
    # the squarefree part -2 - 3t + 6t^2 - 4t^3 + t^4 has the Sturm chain
    # S, S', 11 - 3t, -1: dividing S' by 11 - 3t needs a pseudo-remainder
    # that keeps the sign of the remainder over QQ, or the root 2 is lost
    coeffs = [4, 4, -15, 14, -6, 1]
    assert qpoly_rational_roots(coeffs) == rational_roots_oracle(coeffs) == [Fraction(2)]


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


def test_is_prime_matches_a_sieve():
    N = 3000
    sieve = [False, False] + [True] * (N - 2)
    for d in range(2, math.isqrt(N) + 1):
        if sieve[d]:
            sieve[d * d :: d] = [False] * len(range(d * d, N, d))
    assert [n for n in range(-5, N) if is_prime(n)] == [n for n in range(N) if sieve[n]]
    assert is_prime(2**31 - 1) and not is_prime(2**31 + 1)


def test_ipoly_ring_operations_agree_with_evaluation():
    """add, neg and mul are the ring operations of ZZ[t]: they commute with
    evaluation at every integer and return trimmed tuples."""
    rng = random.Random(5)
    for _ in range(200):
        a, b = rand_ipoly(rng), rand_ipoly(rng)
        for out in (ipoly_add(a, b), ipoly_neg(a), ipoly_mul(a, b)):
            assert out == ipoly_trim(out)
        for x in range(-3, 4):
            assert power_sum(ipoly_add(a, b), x) == power_sum(a, x) + power_sum(b, x)
            assert power_sum(ipoly_neg(a), x) == -power_sum(a, x)
            assert power_sum(ipoly_mul(a, b), x) == power_sum(a, x) * power_sum(b, x)
    assert ipoly_add((1, 2, 3), (0, 0, -3)) == (1, 2)
    assert ipoly_mul((), (1, 1)) == ()
    assert ipoly_mul((1, 1), (-1, 1)) == (-1, 0, 1)


def test_ipoly_eval_is_exact_at_ints_and_fractions():
    rng = random.Random(6)
    for _ in range(100):
        a = rand_ipoly(rng, max_deg=6)
        x = rng.randint(-20, 20)
        y = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        assert ipoly_eval(a, x) == power_sum(a, x) and type(ipoly_eval(a, x)) is int
        assert ipoly_eval(a, y) == power_sum(a, y)
    assert ipoly_eval((), 5) == 0
    assert ipoly_eval((-1, 0, 2), Fraction(1, 2)) == Fraction(-1, 2)


def test_ipoly_content_and_primitive_part():
    rng = random.Random(7)
    for _ in range(200):
        a = rand_ipoly(rng)
        c = rng.randint(1, 12)
        scaled = tuple(c * x for x in a)
        g = ipoly_content(scaled)
        assert g == math.gcd(*scaled) if scaled else g == 0
        prim = ipoly_primitive(scaled)
        assert ipoly_content(prim) in ((0,) if not a else (1,))
        if scaled:
            assert tuple(g * x for x in prim) == scaled
    assert ipoly_content((6, -9, 12)) == 3
    assert ipoly_primitive((6, -9, 12)) == (2, -3, 4)
    # the sign of the leading coefficient is kept
    assert ipoly_primitive((-4, -8)) == (-1, -2)
    assert ipoly_primitive(()) == ()


def test_ipoly_exquo_undoes_mul():
    rng = random.Random(8)
    for _ in range(200):
        a, b = rand_ipoly(rng), rand_ipoly(rng)
        if not b:
            continue
        assert ipoly_exquo(ipoly_mul(a, b), b) == a
    # (t^2 - 1) / (t + 1) = t - 1
    assert ipoly_exquo((-1, 0, 1), (1, 1)) == (-1, 1)


def test_ipoly_exquo_refuses_what_does_not_divide_in_zz():
    # a non-integral quotient coefficient: (1 + t) / 2
    with pytest.raises(FieldError, match="does not divide"):
        ipoly_exquo((1, 1), (2,))
    # a nonzero remainder: t^2 + 1 = (t - 1)(t + 1) + 2
    with pytest.raises(FieldError, match="does not divide"):
        ipoly_exquo((1, 0, 1), (1, 1))


def test_ipoly_lcm_is_the_least_common_multiple():
    """For nonzero a and b, lcm(a, b) is divisible by both, has positive leading
    coefficient, and lcm * gcd = |a b| up to the contents, which the lcm takes
    as the integer lcm of the two contents."""
    rng = random.Random(9)
    for _ in range(150):
        a, b = rand_ipoly(rng, max_deg=3), rand_ipoly(rng, max_deg=3)
        if not a or not b:
            continue
        # give a and b a common factor now and then
        if rng.random() < 0.5:
            common = (rng.randint(-3, 3), 1)
            a, b = ipoly_mul(a, common), ipoly_mul(b, common)
        m = ipoly_lcm(a, b)
        assert m[-1] > 0
        for f in (a, b):
            q = ipoly_exquo(m, f)
            assert ipoly_mul(q, f) == m
        ca, cb = ipoly_content(a), ipoly_content(b)
        pa, pb = ipoly_primitive(a), ipoly_primitive(b)
        prod = ipoly_mul(pa, pb)
        if prod[-1] < 0:
            prod = ipoly_neg(prod)
        assert ipoly_mul(ipoly_primitive(m), ipoly_gcd(pa, pb)) == prod
        assert ipoly_content(m) == math.lcm(ca, cb)
    assert ipoly_lcm((-1, 1), (1, 1)) == (-1, 0, 1)
    assert ipoly_lcm((2, 2), (3,)) == (6, 6)
    assert ipoly_lcm((1, -1), (-1, 1)) == (-1, 1)


def test_ipoly_interpolate_recovers_integer_polynomials():
    rng = random.Random(10)
    for _ in range(150):
        a = rand_ipoly(rng, max_deg=5, height=20)
        m = rng.randint(len(a), len(a) + 3) or 1
        xs = rng.sample(range(-15, 16), m)
        assert ipoly_interpolate(xs, [power_sum(a, x) for x in xs]) == a
    assert ipoly_interpolate([0, 1, 2], [1, 2, 5]) == (1, 0, 1)
    assert ipoly_interpolate([3], [0]) == ()


def test_gfpoly_roots_match_a_scan_of_the_field():
    """The distinct roots in GF(p), sorted, on both paths: the scan when p is
    at most the degree, and the gcd with x^p - x split by Cantor-Zassenhaus
    otherwise; products of linear factors with repeats test the splitting."""
    rng = random.Random(11)
    for p in (2, 3, 5, 7, 11, 13, 31, 101):
        for _ in range(40):
            if rng.random() < 0.5:
                f = (rng.randint(1, p - 1),)
                for _ in range(rng.randint(0, 6)):
                    f = ipoly_mul(f, (-rng.randrange(p), 1))
            else:
                f = ipoly_trim([rng.randint(-50, 50) for _ in range(rng.randint(1, 8))])
            f = ipoly_trim([c + p * rng.randint(-2, 2) for c in f])  # any integer lift
            if not ipoly_trim([c % p for c in f]):
                continue
            assert gfpoly_roots(f, p) == [x for x in range(p) if power_sum(f, x) % p == 0]
    # x^2 + 1 has the roots 2, 3 in GF(5) and none in GF(7)
    assert gfpoly_roots((1, 0, 1), 5) == [2, 3]
    assert gfpoly_roots((1, 0, 1), 7) == []
    # x^p - x vanishes on all of GF(p), by the scan path
    assert gfpoly_roots((0, -1, 0, 0, 0, 1), 5) == [0, 1, 2, 3, 4]


def test_ratfunc_from_fraction_and_str():
    for q in (Fraction(0), Fraction(3), Fraction(-4, 6), Fraction(7, 9)):
        r = RatFunc.from_fraction(q)
        assert r == QQT().coerce(q) == RatFunc.make((q.numerator,), (q.denominator,))
        assert QQT().value_at_zero(r) == q
    assert str(RatFunc.from_fraction(Fraction(-2, 3))) == "-2/3"
    assert str(RatFunc.from_fraction(Fraction(0))) == "0"
    assert str(RatFunc.make((1, 0, 1), (1,))) == "t^2+1"
    assert str(RatFunc.make((0, 1), (3,))) == "(t)/(3)"
    assert str(RatFunc.make((1,), (1, 1))) == "(1)/(t+1)"


def test_qqt_value_at_zero_and_poles():
    f = QQT()
    t = f.t
    assert f.value_at_zero(f.zero) == 0
    assert f.value_at_zero(f.parse("(2*t+3)/(5*t-4)")) == Fraction(-3, 4)
    assert not f.has_pole_at_zero(f.parse("(t)/(t+1)"))
    for polar in (f.inv(t), f.parse("(1)/(t^2+t)"), f.div(f.one, f.mul(t, t))):
        assert f.has_pole_at_zero(polar)
        with pytest.raises(FieldError, match="pole at t=0"):
            f.value_at_zero(polar)
    # t/t is canonicalised to 1, so it has no pole
    assert f.value_at_zero(f.div(t, t)) == 1


def test_sort_keys_order_distinct_scalars_distinctly():
    """sort_key is injective on canonical scalars, so sorting by it is one
    order whatever the input order; descriptors rely on it."""
    rng = random.Random(12)
    for fld in (GF(7), QQ(), QQT()):
        vals = list({fld.random(rng) for _ in range(60)} | {fld.zero, fld.one})
        keys = [fld.sort_key(v) for v in vals]
        assert len(set(keys)) == len(vals)
        first = sorted(vals, key=fld.sort_key)
        rng.shuffle(vals)
        assert sorted(vals, key=fld.sort_key) == first
    assert sorted([3, 0, 5], key=GF(7).sort_key) == [0, 3, 5]
    assert sorted([Fraction(1, 2), Fraction(-3)], key=QQ().sort_key) == [Fraction(-3), Fraction(1, 2)]
    # QQ(t): lower degree numerators first
    q = QQT()
    assert sorted([q.t, q.one, q.zero], key=q.sort_key) == [q.zero, q.one, q.t]


