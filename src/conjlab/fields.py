"""Exact scalar arithmetic over GF(p), the rationals, and rational functions in t.

Scalars are plain canonical values rather than wrapper objects: residues in
``range(p)`` for GF(p), ``fractions.Fraction`` for QQ, and :class:`RatFunc`
(a reduced fraction of integer-coefficient polynomials) for QQ(t).  A field
object supplies the arithmetic.  This keeps inner loops cheap and makes
equality structural everywhere.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd


class FieldError(ValueError):
    pass


class UnsupportedFieldOperation(FieldError):
    """Raised when an operation is undefined for the field (e.g. eigenvalues over QQ(t))."""


def _parser(parse):
    """A scalar string with a zero denominator is malformed input, not arithmetic."""
    @functools.wraps(parse)
    def wrapper(self, s):
        try:
            return parse(self, s)
        except ZeroDivisionError:
            raise FieldError(f"zero denominator in {s!r}") from None
    return wrapper


def integral(x):
    """x as an int when it is an integral finite number or an integer string
    (as JSON documents give them); None otherwise, for a JSON boolean too."""
    if isinstance(x, bool):
        return None
    if isinstance(x, float):
        return int(x) if x.is_integer() else None
    if isinstance(x, (int, str)):
        try:
            return int(x)
        except ValueError:
            return None
    return None


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# Integer polynomials in t, as trimmed ascending coefficient tuples.
# () is the zero polynomial; the last coefficient is never 0.  Division, gcd
# and Sturm chains stay in ZZ[t]: exact quotients and pseudo-remainders.
# ---------------------------------------------------------------------------

def ipoly_trim(cs) -> tuple[int, ...]:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ipoly_add(a, b):
    n = max(len(a), len(b))
    return ipoly_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def ipoly_neg(a):
    return tuple(-c for c in a)


def ipoly_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return ipoly_trim(out)


def ipoly_content(a) -> int:
    g = 0
    for c in a:
        g = gcd(g, abs(c))
    return g


def ipoly_primitive(a):
    g = ipoly_content(a)
    if g in (0, 1):
        return a
    return tuple(c // g for c in a)


def _qpoly_primitive(r):
    """The primitive integer polynomial that is a positive multiple of the
    Fraction polynomial r."""
    lcm_den = 1
    for c in r:
        lcm_den = lcm_den * c.denominator // gcd(lcm_den, c.denominator)
    return ipoly_primitive(ipoly_trim([int(c * lcm_den) for c in r]))


def _ipoly_prem(a, b):
    """The remainder of |lc b|^k a by nonzero b in ZZ[t], k <= deg a - deg b + 1:
    a positive multiple of the remainder of a by b in QQ[t], without fractions."""
    if b[-1] < 0:
        b = ipoly_neg(b)
    r, db, lc = list(a), len(b) - 1, b[-1]
    for k in range(len(r) - 1 - db, -1, -1):
        c = r.pop()
        if c:
            r = [x * lc for x in r]
            for i in range(db):
                r[k + i] -= c * b[i]
    return ipoly_trim(r)


_BROWN_PRIME = 2**31 - 1  # the p of Brown's criterion in ipoly_gcd


def ipoly_gcd(a, b):
    """Primitive gcd in ZZ[t] with positive leading coefficient.

    For nonzero primitive a and b whose leading coefficients p does not
    divide, gcd(a mod p, b mod p) = 1 gives gcd(a, b) = 1 (Brown, JACM 18(4),
    1971), the common case.  Otherwise the primitive remainder sequence runs
    on integer pseudo-remainders (Collins, JACM 14(1), 1967): each is a
    positive multiple of the remainder in QQ[t], so the primitive parts are
    those of Euclid over QQ.
    """
    a = ipoly_primitive(ipoly_trim(a))
    b = ipoly_primitive(ipoly_trim(b))
    if a and b:
        p = _BROWN_PRIME
        ap, bp = ipoly_trim([v % p for v in a]), ipoly_trim([v % p for v in b])
        if len(ap) == len(a) and len(bp) == len(b) and len(_gfpoly_gcd(ap, bp, p)) == 1:
            return (1,)
    while b:
        r = _ipoly_prem(a, b)
        if not r:
            a = b
            break
        a, b = b, ipoly_primitive(r)
    if a and a[-1] < 0:
        a = ipoly_neg(a)
    return a


def ipoly_exquo(a, b):
    """a / b in ZZ[t] by long division; FieldError unless b divides a there."""
    r, db = list(a), len(b) - 1
    q = [0] * max(len(r) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        q[k], m = divmod(r[k + db], b[-1])
        if m:  # r[k + db] stays nonzero
            break
        for i, bi in enumerate(b):
            r[k + i] -= q[k] * bi
    if any(r):
        raise FieldError(f"{ipoly_format(b)} does not divide {ipoly_format(a)} in ZZ[t]")
    return ipoly_trim(q)


def ipoly_lcm(a, b):
    """Least common multiple in ZZ[t] of nonzero a and b, with positive
    leading coefficient."""
    ca, cb = ipoly_content(a), ipoly_content(b)
    pa, pb = ipoly_primitive(a), ipoly_primitive(b)
    c = ca * cb // gcd(ca, cb)
    m = tuple(c * x for x in ipoly_exquo(ipoly_mul(pa, pb), ipoly_gcd(pa, pb)))
    return ipoly_neg(m) if m[-1] < 0 else m


def ipoly_eval(a, x):
    """a(x); an int for an int x, a Fraction for a Fraction x."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ipoly_interpolate(xs, ys) -> tuple[int, ...]:
    """The polynomial in ZZ[t] of degree < len(xs) that takes the integer value
    ys[i] at the integer xs[i] (all distinct), by Newton's divided differences.

    For an integer polynomial every divided difference at integer points is
    an integer (true of each power of t), so the divisions are exact.
    """
    c = list(ys)
    m = len(c)
    for k in range(1, m):
        for i in range(m - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) // (xs[i] - xs[i - k])
    p = c[-1:]
    for k in range(m - 2, -1, -1):  # p <- p * (t - xs[k]) + c[k]
        x = xs[k]
        p = [c[k] - x * p[0]] + [p[i - 1] - x * p[i] for i in range(1, len(p))] + p[-1:]
    return ipoly_trim(p)


def _ipoly_derivative(a):
    return tuple(i * c for i, c in enumerate(a))[1:]


def _sign_changes(chain, x) -> int:
    signs = [v > 0 for v in (ipoly_eval(p, x) for p in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def qpoly_rational_roots(coeffs) -> list[Fraction]:
    """The distinct rational roots, in increasing order, of a polynomial with
    ascending rational coefficients.

    Clearing denominators gives a primitive P = a_n x^n + ... + a_0 in ZZ[x],
    and y = a_n x turns it into the monic Q(y) = a_n^(n-1) P(y / a_n), whose
    rational roots are integers.  The squarefree part S of Q has the same
    roots y = a_n x, all in (-B, B) for B = a_n + max |a_i|, a_n times the
    Cauchy bound of P (the Cauchy bound of Q itself grows like a_n^(n-1)).  For
    squarefree S the Sturm chain S, S', -rem(S, S'), ... has V(a) - V(b) roots
    in (a, b], V counting sign changes; bisecting (-B, B] by that count down
    to unit intervals (h - 1, h] leaves h as the only candidate in each, a
    root exactly when S(h) = 0 (Collins & Akritas, SYMSAC 1976).
    """
    p = _qpoly_primitive([Fraction(c) for c in coeffs])
    n = len(p) - 1
    if n < 1:
        return []
    if p[-1] < 0:
        p = ipoly_neg(p)
    an = p[-1]
    q = tuple(c * an ** (n - 1 - i) for i, c in enumerate(p[:-1])) + (1,)
    s = ipoly_exquo(q, ipoly_gcd(q, _ipoly_derivative(q)))
    chain = [s, _ipoly_derivative(s)]
    while len(chain[-1]) > 1:
        chain.append(ipoly_neg(ipoly_primitive(_ipoly_prem(chain[-2], chain[-1]))))
    bound = an + max(map(abs, p[:-1]))
    roots = []
    todo = [(-bound, _sign_changes(chain, -bound), bound, _sign_changes(chain, bound))]
    while todo:
        lo, vlo, hi, vhi = todo.pop()
        if vlo == vhi:
            continue
        if hi - lo == 1:
            if ipoly_eval(s, hi) == 0:
                roots.append(Fraction(hi, an))
            continue
        mid = (lo + hi) // 2
        vmid = _sign_changes(chain, mid)
        todo += [(mid, vmid, hi, vhi), (lo, vlo, mid, vmid)]
    return roots


# Polynomials over GF(p), as trimmed ascending tuples of residues.

def _gfpoly_divmod(a, b, p):
    """(q, r) with a = q b + r and deg r < deg b, for nonzero trimmed b."""
    a, db, inv = list(a), len(b) - 1, pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a[k + db] * inv % p
        if c:
            a[k : k + db + 1] = [(x - c * y) % p for x, y in zip(a[k : k + db + 1], b)]
    return ipoly_trim(q), ipoly_trim(a[:db])


def _gfpoly_powmod(a, e, m, p):
    """a^e mod m."""
    out, a = (1,), _gfpoly_divmod(a, m, p)[1]
    while e:
        if e & 1:
            out = _gfpoly_divmod([v % p for v in ipoly_mul(out, a)], m, p)[1]
        a = _gfpoly_divmod([v % p for v in ipoly_mul(a, a)], m, p)[1]
        e >>= 1
    return out


def _gfpoly_gcd(a, b, p):
    """The monic gcd of a and b, for nonzero a reduced mod p and any integer b."""
    b = ipoly_trim([v % p for v in b])
    while b:
        a, b = b, _gfpoly_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return tuple(v * inv % p for v in a)


def gfpoly_roots(coeffs, p) -> list[int]:
    """The distinct roots in GF(p), in increasing order, of a nonzero
    polynomial with ascending integer coefficients.

    When p exceeds the degree n, g = gcd(f, x^p - x) is the product of the
    distinct linear factors of f, with x^p taken by repeated squaring mod f;
    g splits into gcd(g, (x + a)^((p-1)/2) - 1) and its cofactor for the
    first shift a = 0, 1, ... that separates two of its roots, recursively
    (Cantor & Zassenhaus, Math. Comp. 36, 1981).  Otherwise f is evaluated
    at the p <= n elements.
    """
    f = ipoly_trim([c % p for c in coeffs])
    if len(f) - 1 >= p:
        return [x for x in range(p) if ipoly_eval(f, x) % p == 0]
    xp = _gfpoly_powmod((0, 1), p, f, p)
    todo = [_gfpoly_gcd(f, ipoly_add(xp, (0, -1)), p)]
    roots = []
    while todo:
        g = todo.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
        elif len(g) > 2:
            for a in range(p):
                h = _gfpoly_gcd(g, ipoly_add(_gfpoly_powmod((a, 1), (p - 1) // 2, g, p), (-1,)), p)
                if 1 < len(h) < len(g):
                    todo += [h, _gfpoly_divmod(g, h, p)[0]]
                    break
    return sorted(roots)


_TERM_RE = re.compile(r"^([+-]?\d*)(?:(\*?)(t)(?:\^(\d+))?)?$")
# The largest exponent of t or of 10 that scalar input may carry: Python's
# default digit limit on int(str).  A parser that took a longer one would
# build a coefficient slot per degree of t, or compute 10**e, without bound.
_MAX_EXPONENT = 4300


def _exponent(text: str, s: str) -> int:
    """The exponent written as ``text`` (a sign, then digits and underscores)
    in the scalar ``s``, refused when its size is above _MAX_EXPONENT, before
    any power is built."""
    digits = text.lstrip("+-").replace("_", "").lstrip("0") or "0"
    if len(digits) > len(str(_MAX_EXPONENT)) or int(digits) > _MAX_EXPONENT:
        raise FieldError(f"exponent {text} in {s!r} is above {_MAX_EXPONENT} in size")
    return int(text.replace("_", ""))


def ipoly_parse(s: str) -> tuple[int, ...]:
    """Parse integer polynomials like ``t^2+1``, ``-2*t^3-t+4`` or ``7``."""
    s = s.replace(" ", "")
    if not s:
        raise FieldError("empty polynomial")
    chunks = re.findall(r"[+-]?[^+-]+", s)
    if "".join(chunks) != s:
        raise FieldError(f"cannot parse polynomial {s!r}")
    coeffs: dict[int, int] = {}
    for chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m or (m.group(1) in ("", "+", "-") and not m.group(3)):
            raise FieldError(f"bad term {chunk!r} in {s!r}")
        num, _, tvar, exp = m.groups()
        if tvar is None:
            coeffs[0] = coeffs.get(0, 0) + int(num)
        else:
            c = 1 if num in ("", "+") else -1 if num == "-" else int(num)
            e = 1 if exp is None else _exponent(exp, s)
            coeffs[e] = coeffs.get(e, 0) + c
    if not coeffs:
        return ()
    deg = max(coeffs)
    return ipoly_trim([coeffs.get(i, 0) for i in range(deg + 1)])


def ipoly_format(a) -> str:
    if not a:
        return "0"
    parts = []
    for e in range(len(a) - 1, -1, -1):
        c = a[e]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            t = "t" if e == 1 else f"t^{e}"
            body = t if mag == 1 else f"{mag}*{t}"
        parts.append(sign + body)
    return "".join(parts)


@dataclass(frozen=True)
class RatFunc:
    """A rational function num/den in ZZ[t], in canonical reduced form."""

    num: tuple[int, ...]
    den: tuple[int, ...]

    @staticmethod
    def make(num, den) -> "RatFunc":
        num = ipoly_trim(num)
        den = ipoly_trim(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            return RatFunc((), (1,))
        if len(den) == 1:
            c = gcd(ipoly_content(num), abs(den[0]))
            num = tuple(x // c for x in num)
            d = den[0] // c
            if d < 0:
                num, d = ipoly_neg(num), -d
            return RatFunc(num, (d,))
        g = ipoly_gcd(num, den)
        if len(g) > 1 or (g and g[0] != 1):
            num = ipoly_exquo(num, g)
            den = ipoly_exquo(den, g)
        c = gcd(ipoly_content(num), ipoly_content(den))
        if c > 1:
            num = tuple(x // c for x in num)
            den = tuple(x // c for x in den)
        if den[-1] < 0:
            num = ipoly_neg(num)
            den = ipoly_neg(den)
        return RatFunc(num, den)

    @staticmethod
    def from_fraction(q: Fraction) -> "RatFunc":
        return RatFunc.make((q.numerator,), (q.denominator,))

    def __str__(self) -> str:
        if self.den == (1,):
            return ipoly_format(self.num)
        if len(self.num) <= 1 and len(self.den) <= 1:
            n = self.num[0] if self.num else 0
            return f"{n}/{self.den[0]}"
        return f"({ipoly_format(self.num)})/({ipoly_format(self.den)})"


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

class GF:
    """The prime field GF(p); scalars are residues in range(p)."""

    def __init__(self, p: int):
        if not (isinstance(p, int) and p < 2**31 and is_prime(p)):
            raise FieldError(f"GF modulus must be a prime below 2^31, got {p!r}")
        self.p = p
        self.characteristic = p
        self.name = f"gf:{p}"
        self.zero = 0
        self.one = 1

    def __eq__(self, other):
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self):
        return hash(("gf", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def coerce(self, v):
        if type(v) is int:
            return v % self.p
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise FieldError(f"denominator of {v} not invertible mod {self.p}")
            return v.numerator * pow(v.denominator, -1, self.p) % self.p
        return int(v) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a % self.p == 0

    def elements(self):
        return range(self.p)

    def sort_key(self, a):
        return a

    def random(self, rng):
        return rng.randrange(self.p)

    @_parser
    def parse(self, s: str):
        try:
            nums = [int(x) % self.p for x in s.split("/")]
        except ValueError:
            nums = []
        if len(nums) not in (1, 2):
            raise FieldError(f"cannot parse {s!r} over {self.name}: write an integer a "
                             "or a quotient a/b of integers")
        return nums[0] if len(nums) == 1 else self.div(*nums)

    def format(self, a) -> str:
        return str(a % self.p)


class QQ:
    """The rationals; scalars are fractions.Fraction."""

    def __init__(self):
        self.characteristic = 0
        self.name = "qq"
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __eq__(self, other):
        return isinstance(other, QQ)

    def __hash__(self):
        return hash("qq")

    def __repr__(self):
        return "QQ()"

    def coerce(self, v):
        if isinstance(v, RatFunc):
            raise FieldError("cannot coerce a rational function into QQ")
        return Fraction(v)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def div(self, a, b):
        return a / b

    def is_zero(self, a):
        return a == 0

    def elements(self):
        raise UnsupportedFieldOperation("QQ is not enumerable")

    def sort_key(self, a):
        return a

    def random(self, rng):
        # bounded height keeps exact arithmetic fast
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    @_parser
    def parse(self, s: str):
        if m := re.search(r"e([-+]?[\d_]+)\s*$", s, re.IGNORECASE):
            _exponent(m.group(1), s)
        return Fraction(s.strip())

    def format(self, a) -> str:
        return str(a)


class QQT:
    """Rational functions QQ(t); scalars are RatFunc values."""

    def __init__(self):
        self.characteristic = 0
        self.name = "qq_t"
        self.zero = RatFunc((), (1,))
        self.one = RatFunc((1,), (1,))

    def __eq__(self, other):
        return isinstance(other, QQT)

    def __hash__(self):
        return hash("qq_t")

    def __repr__(self):
        return "QQT()"

    @property
    def t(self) -> RatFunc:
        return RatFunc((0, 1), (1,))

    def coerce(self, v):
        if isinstance(v, RatFunc):
            return v
        if isinstance(v, Fraction):
            return RatFunc.from_fraction(v)
        return RatFunc.make((int(v),), (1,))

    def add(self, a, b):
        if a.den == (1,) and b.den == (1,):
            return RatFunc(ipoly_add(a.num, b.num), (1,))
        return RatFunc.make(
            ipoly_add(ipoly_mul(a.num, b.den), ipoly_mul(b.num, a.den)),
            ipoly_mul(a.den, b.den),
        )

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return RatFunc(ipoly_neg(a.num), a.den)

    def mul(self, a, b):
        if a.den == (1,) and b.den == (1,):
            return RatFunc(ipoly_mul(a.num, b.num), (1,))
        return RatFunc.make(ipoly_mul(a.num, b.num), ipoly_mul(a.den, b.den))

    def inv(self, a):
        if not a.num:
            raise ZeroDivisionError("inverse of 0 in QQ(t)")
        return RatFunc.make(a.den, a.num)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return not a.num

    def elements(self):
        raise UnsupportedFieldOperation("QQ(t) is not enumerable")

    def sort_key(self, a):
        return (len(a.num), a.num, a.den)

    def random(self, rng):
        # polynomial of degree <= 1: enough variety, never a pole at a sample point
        return RatFunc.make((rng.randint(-9, 9), rng.randint(-9, 9)), (1,))

    def value_at_zero(self, a) -> Fraction:
        """Evaluate at t=0; raises if the entry has a pole there."""
        if not a.den or a.den[0] == 0:
            raise FieldError("pole at t=0")
        n = a.num[0] if a.num else 0
        return Fraction(n, a.den[0])

    def has_pole_at_zero(self, a) -> bool:
        return a.den[0] == 0

    @_parser
    def parse(self, s: str):
        s = s.strip().replace(" ", "")
        m = re.fullmatch(r"\((?P<num>[^()]*)\)/\((?P<den>[^()]*)\)", s)
        if m:
            return RatFunc.make(ipoly_parse(m.group("num")), ipoly_parse(m.group("den")))
        if "/" in s:  # a monomial over an integer, as t/3, -2*t^2/5 or 2/3
            a, _, b = s.partition("/")
            if not (re.fullmatch(r"[+-]?[^+-]+", a) and re.fullmatch(r"[+-]?\d+", b)):
                raise FieldError(f"cannot parse {s!r}: write a quotient other than a monomial "
                                 "over an integer as (num)/(den)")
            return RatFunc.make(ipoly_parse(a), (int(b),))
        return RatFunc.make(ipoly_parse(s), (1,))

    def format(self, a) -> str:
        return str(a)


_QQ = QQ()
_QQT = QQT()


def field_from_name(name: str):
    if not isinstance(name, str):
        raise FieldError(f"field name must be a string, not {name!r}")
    name = name.strip().lower()
    if name == "qq":
        return _QQ
    if name == "qq_t":
        return _QQT
    if name.startswith("gf:"):
        return GF(int(name[3:]))
    raise FieldError(f"unknown field {name!r} (expected gf:<p>, qq or qq_t)")


# ---------------------------------------------------------------------------
# Dense univariate polynomials over a field (characteristic polynomials)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniPoly:
    """A univariate polynomial as the tuple of its ascending coefficients,
    elements of the field with the last nonzero.  ``char_poly`` returns one,
    monic."""

    field: object
    coeffs: tuple
