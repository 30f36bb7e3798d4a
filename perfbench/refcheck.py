"""Reference arithmetic for the benchmark's output checks.

A check must not trust the code it checks, so nothing here calls conjlab's
matrix kernels.  Entries become plain values first: ints mod p over GF(p),
Fractions over QQ, and a QQ(t) entry is evaluated at a rational point t0.
Integer polynomials in t are ascending coefficient tuples, as in conjlab.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def modulus(field) -> int | None:
    """p for GF(p), None for QQ and QQ(t)."""
    return getattr(field, "p", None)


def poly_eval(coeffs, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def scalar(field, x, t0=None):
    """A conjlab scalar as a reference value; QQ(t) entries need t0."""
    p = modulus(field)
    if p:
        return int(x) % p
    if field.name == "qq":
        return Fraction(x)
    den = poly_eval(x.den, t0)
    if den == 0:
        raise ZeroDivisionError("pole at the sample point")
    return poly_eval(x.num, t0) / den


def rows_of(M, t0=None) -> list[list]:
    return [[scalar(M.field, M.entry(i, j), t0) for j in range(M.cols)]
            for i in range(M.rows)]


def _norm(p, x):
    return x % p if p else x


def _inv(p, x):
    return pow(x, -1, p) if p else 1 / Fraction(x)


def rank_det(rows, p=None) -> tuple[int, object]:
    """Rank, and the determinant (0 unless square of full rank)."""
    a = [list(r) for r in rows]
    n = len(a)
    m = len(a[0]) if n else 0
    r, d = 0, 1
    for c in range(m):
        piv = next((i for i in range(r, n) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            d = -d
        d = _norm(p, d * a[r][c])
        inv = _inv(p, a[r][c])
        for i in range(r + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [_norm(p, x - f * y) for x, y in zip(a[i], a[r])]
        r += 1
        if r == n:
            break
    full = n == m and r == n
    return r, (_norm(p, d) if full else 0)


def rank(rows, p=None) -> int:
    return rank_det(rows, p)[0]


def det(rows, p=None):
    return rank_det(rows, p)[1]


def inverse(rows, p=None):
    """Gauss-Jordan inverse, or None when singular."""
    n = len(rows)
    a = [list(r) + [1 if j == i else 0 for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return None
        a[c], a[piv] = a[piv], a[c]
        inv = _inv(p, a[c][c])
        a[c] = [_norm(p, x * inv) for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [_norm(p, x - f * y) for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def matmul(a, b, p=None):
    return [[_norm(p, sum(x * b[t][j] for t, x in enumerate(row))) for j in range(len(b[0]))]
            for row in a]


def add(a, b, p=None):
    return [[_norm(p, x + y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def identity(n) -> list[list]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def shift(rows, lam, p=None):
    """rows - lam * I."""
    return [[_norm(p, x - (lam if i == j else 0)) for j, x in enumerate(r)]
            for i, r in enumerate(rows)]


def conjugate(g, P, p=None):
    """g P g^-1, or None when g is singular."""
    gi = inverse(g, p)
    return None if gi is None else matmul(matmul(g, P, p), gi, p)


def projective_points(p: int, k: int):
    """All points of P^{k-1}(F_p), first nonzero coordinate 1 (any order)."""
    for lead in range(k):
        for tail in product(range(p), repeat=k - lead - 1):
            yield (0,) * lead + (1,) + tail


def is_projective_point(mu, p: int) -> bool:
    nz = [c % p for c in mu if c % p]
    return bool(nz) and nz[0] == 1


def pencil_rank(mats, mu, p: int) -> int:
    n = len(mats[0])
    comb = [[sum(c * M[i][j] for c, M in zip(mu, mats)) % p for j in range(len(mats[0][0]))]
            for i in range(n)]
    return rank(comb, p)


# -- rational functions in t, unreduced (num, den) pairs of int polynomials --

def _padd(a, b):
    n = max(len(a), len(b))
    return tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def rf_add(x, y):
    return (_padd(_pmul(x[0], y[1]), _pmul(y[0], x[1])), _pmul(x[1], y[1]))


def rf_mul(x, y):
    return (_pmul(x[0], y[0]), _pmul(x[1], y[1]))


def rf_matmul(a, b):
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = ((), (1,))
            for t, x in enumerate(row):
                acc = rf_add(acc, rf_mul(x, b[t][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def rf_limit_at_zero(x) -> Fraction:
    """Value at t = 0 of num/den; ZeroDivisionError on a pole."""
    num, den = x
    lo_n = next((i for i, c in enumerate(num) if c), None)
    lo_d = next(i for i, c in enumerate(den) if c)
    if lo_n is None or lo_n > lo_d:
        return Fraction(0)
    if lo_n < lo_d:
        raise ZeroDivisionError("pole at t = 0")
    return Fraction(num[lo_n], den[lo_d])


def rf_rows(M) -> list[list]:
    """A QQ(t) matrix as (num, den) pairs."""
    return [[(tuple(x.num), tuple(x.den)) for x in (M.entry(i, j) for j in range(M.cols))]
            for i in range(M.rows)]


def rf_lift(rows) -> list[list]:
    """Fraction rows as constant (num, den) pairs."""
    return [[((x.numerator,), (x.denominator,)) for x in r] for r in rows]
