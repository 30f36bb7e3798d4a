"""Shared test oracles, independent of the code paths they check."""

import functools
import itertools
import math
import os
import pathlib
import random
import resource
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from conjlab.fields import UniPoly
from conjlab.matrix import Matrix, Span, det, inverse, kernel_basis, random_matrix, rank
from conjlab.pencil import enumerate_subspaces

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# prints the child's peak RSS as the last line of its stderr: its ru_maxrss
# would carry the peak of the test process, which Linux keeps across fork and exec
_PEAK_HOOK = """import atexit, sys
def _peak():
    with open("/proc/self/status") as fh:
        print(next(line for line in fh if line.startswith("VmHWM:")), end="", file=sys.stderr)
atexit.register(_peak)
"""


def run_capped(code: str, stdin: str = "", mem_mb: int = 512, timeout: float = 60):
    """Run ``code`` in a fresh interpreter with src/ on its path, under an
    address-space cap of ``mem_mb`` and a timeout (subprocess.TimeoutExpired
    past it), so that a test of an unbounded input fails without taking the
    machine's memory.  Returns (exit code, stdout, stderr, peak RSS in kB),
    the peak None when the child did not exit normally."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (mem_mb << 20, mem_mb << 20))
    out = subprocess.run([sys.executable, "-c", _PEAK_HOOK + textwrap.dedent(code)],
                         input=stdin, capture_output=True, text=True, timeout=timeout,
                         preexec_fn=cap, env={**os.environ, "PYTHONPATH": str(SRC)})
    lines = out.stderr.splitlines(keepends=True)
    if not lines or not lines[-1].startswith("VmHWM:"):
        return out.returncode, out.stdout, out.stderr, None
    return out.returncode, out.stdout, "".join(lines[:-1]), int(lines[-1].split()[1])


def _poly_add(f, a, b):
    """The sum of two ascending coefficient lists over the field f."""
    n = max(len(a), len(b))
    a, b = a + [f.zero] * (n - len(a)), b + [f.zero] * (n - len(b))
    return [f.add(x, y) for x, y in zip(a, b)]


def _poly_mul(f, a, b):
    """The product of two ascending coefficient lists over the field f."""
    out = [f.zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = f.add(out[i + j], f.mul(x, y))
    return out


def cofactor_det(field, grid):
    """Recursive Laplace expansion of a grid of ascending coefficient lists,
    through the field's add, neg and mul only."""
    n = len(grid)
    if n == 0:
        return [field.one]
    acc = []
    for j in range(n):
        minor = [[grid[i][jj] for jj in range(n) if jj != j] for i in range(1, n)]
        term = _poly_mul(field, grid[0][j], cofactor_det(field, minor))
        if j % 2:
            term = [field.neg(c) for c in term]
        acc = _poly_add(field, acc, term)
    return acc


def charpoly_oracle(M: Matrix) -> UniPoly:
    """det(xI - M) by cofactor expansion over the polynomial ring."""
    f = M.field
    n = M.rows
    grid = [
        [[f.neg(M.entry(i, j))] + ([f.one] if i == j else []) for j in range(n)]
        for i in range(n)
    ]
    return UniPoly(f, tuple(cofactor_det(f, grid)))


def berkowitz_oracle(M: Matrix) -> UniPoly:
    """det(xI - M) by the generic division-free Berkowitz loop through the
    field's add and mul, as char_poly ran it over every field before the
    Hessenberg and integer backends."""
    f = M.field
    n = M.rows
    if n == 0:
        return UniPoly(f, (f.one,))
    p = [f.one, f.neg(M.entry(0, 0))]
    for k in range(1, n):
        a = M.entry(k, k)
        R = [M.entry(k, j) for j in range(k)]
        C = [M.entry(i, k) for i in range(k)]
        Asub = [[M.entry(i, j) for j in range(k)] for i in range(k)]
        s = []
        v = C[:]
        for _ in range(k):
            s.append(_field_dot(f, R, v))
            v = [_field_dot(f, Asub[i], v) for i in range(k)]
        first_col = [f.one, f.neg(a)] + [f.neg(x) for x in s]
        newp = []
        for i in range(k + 2):
            acc = f.zero
            for j in range(k + 1):
                d = i - j
                if 0 <= d < len(first_col):
                    acc = f.add(acc, f.mul(first_col[d], p[j]))
            newp.append(acc)
        p = newp
    return UniPoly(f, tuple(reversed(p)))


def _field_dot(f, xs, ys):
    acc = f.zero
    for x, y in zip(xs, ys):
        acc = f.add(acc, f.mul(x, y))
    return acc


def matmul_oracle(A: Matrix, B: Matrix) -> Matrix:
    """A @ B by the textbook triple loop through the field's add and mul."""
    f = A.field
    return Matrix(f, A.rows, B.cols, tuple(
        _field_dot(f, A.row_list(i), [B.entry(t, j) for t in range(B.rows)])
        for i in range(A.rows) for j in range(B.cols)))


def coordpoly_value(f, point):
    """The value of the linear form f at point, a dict from each variable
    family of f to its block as a Matrix: p[i,j], q[i,j] and r[i,j] read entry
    (i-1, j-1) of their block, v[i] and w[i] entry (i-1, 0)."""
    fld = f.field
    acc = fld.zero
    for (fam, i, *j), c in f.terms:
        x = point[fam].entry(i - 1, j[0] - 1 if j else 0)
        acc = fld.add(acc, fld.mul(c, x))
    return acc


def eigen_scan_oracle(M: Matrix) -> list[tuple]:
    """The eigenvalues of M over GF(p) with geometric multiplicities, by one
    rank per element of the field."""
    f, n = M.field, M.rows
    ident = Matrix.identity(f, n)
    out = []
    for lam in f.elements():
        r = gauss_jordan_oracle(M - ident.scale(lam))[0]
        if r < n:
            out.append((lam, n - r))
    return out


def laplace_det(M: Matrix, rows=None, cols=None):
    """The minor on rows x cols (default: all of M) by Laplace expansion along its first row."""
    f = M.field
    rows = list(range(M.rows)) if rows is None else rows
    cols = list(range(M.cols)) if cols is None else cols
    if not rows:
        return f.one
    if len(rows) == 1:
        return M.entry(rows[0], cols[0])
    acc = f.zero
    for idx, c in enumerate(cols):
        sub = laplace_det(M, rows[1:], cols[:idx] + cols[idx + 1 :])
        term = f.mul(M.entry(rows[0], c), sub)
        acc = f.add(acc, term) if idx % 2 == 0 else f.sub(acc, term)
    return acc


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def rational_roots_oracle(coeffs) -> list[Fraction]:
    """Distinct rational roots, in increasing order, of a nonzero polynomial
    with ascending rational coefficients, by the rational root theorem: after
    clearing denominators and dividing out x^v, every root is +-p/q with p
    dividing the constant and q the leading coefficient; each candidate is
    tested exactly.  Time grows with the size of those two coefficients."""
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    lcm_den = 1
    for c in coeffs:
        lcm_den = lcm_den * c.denominator // math.gcd(lcm_den, c.denominator)
    ints = [int(c * lcm_den) for c in coeffs]
    roots = set()
    v = 0
    while v < len(ints) and ints[v] == 0:
        v += 1
    if v > 0:
        roots.add(Fraction(0))
        ints = ints[v:]
    if len(ints) > 1:
        a0, an = ints[0], ints[-1]
        for pnum in _int_divisors(a0):
            for qden in _int_divisors(an):
                for s in (1, -1):
                    cand = Fraction(s * pnum, qden)
                    if sum(c * cand**i for i, c in enumerate(coeffs)) == 0:
                        roots.add(cand)
    return sorted(roots)


def ipoly_gcd_oracle(a, b):
    """Primitive gcd in ZZ[t] with positive leading coefficient, by Euclid
    over QQ: Fraction division with remainder, each remainder scaled back to
    a primitive integer polynomial."""

    def divmod_qq(a, b):
        a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
        while len(a) >= len(b):
            coef = a[-1] / b[-1]
            deg = len(a) - len(b)
            for i, bi in enumerate(b):
                a[deg + i] -= coef * bi
            while a and a[-1] == 0:
                a.pop()
        return a

    def primitive(r):
        r = [Fraction(c) for c in r]
        while r and r[-1] == 0:
            r.pop()
        den = math.lcm(*(c.denominator for c in r))
        ints = [int(c * den) for c in r]
        return [c // math.gcd(*ints) for c in ints]

    a, b = primitive(a), primitive(b)
    while b:
        a, b = b, primitive(divmod_qq(a, b))
    if a and a[-1] < 0:
        a = [-c for c in a]
    return tuple(a)


def minor_rank_oracle(M: Matrix) -> int:
    """Largest k with a nonzero k x k minor (scalar cofactor determinants)."""
    f = M.field
    best = 0
    for k in range(1, min(M.rows, M.cols) + 1):
        found = False
        for rows in itertools.combinations(range(M.rows), k):
            for cols in itertools.combinations(range(M.cols), k):
                if not f.is_zero(laplace_det(M, list(rows), list(cols))):
                    found = True
                    break
            if found:
                break
        if found:
            best = k
        else:
            break
    return best


def gauss_jordan_oracle(M: Matrix):
    """(rank, rref, transform, pivots) by the textbook Gauss-Jordan loop on
    [M | I]: first nonzero pivot at or below the current row, swap, scale,
    clear every other row across the full width."""
    f = M.field
    n, m = M.rows, M.cols
    a = [M.row_list(i) + [f.one if j == i else f.zero for j in range(n)] for i in range(n)]
    pivots = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, n) if not f.is_zero(a[i][c])), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = f.inv(a[r][c])
        a[r] = [f.mul(inv, v) for v in a[r]]
        for i in range(n):
            if i != r and not f.is_zero(a[i][c]):
                coef = a[i][c]
                a[i] = [f.sub(v, f.mul(coef, w)) for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    rref = Matrix(f, n, m, tuple(v for row in a for v in row[:m]))
    transform = Matrix(f, n, n, tuple(v for row in a for v in row[m:]))
    return r, rref, transform, tuple(pivots)


def matrix_of_rank(field, n, k, rng) -> Matrix:
    """Random n x n matrix of rank exactly k, as a product of full-rank factors."""
    if k == 0:
        return Matrix.zeros(field, n)
    while True:
        A = random_matrix(n, k, field, rng)
        B = random_matrix(k, n, field, rng)
        M = A @ B
        if rank(M) == k:
            return M


def skew_of_rank(field, n, rk, rng) -> Matrix:
    assert rk % 2 == 0
    while True:
        S = Matrix.zeros(field, n)
        for _ in range(rk // 2):
            u = random_matrix(n, 1, field, rng)
            v = random_matrix(n, 1, field, rng)
            S = S + u @ v.transpose() - v @ u.transpose()
        if rank(S) == rk:
            return S


@pytest.fixture
def rng():
    return random.Random(20240801)


def square_matrices(field, n):
    """All of gl_n(F_p) in code order: entry k is base-p digit k of the code."""
    return [Matrix(field, n, n, t[::-1])
            for t in itertools.product(range(field.p), repeat=n * n)]


def first_missing(mats, image):
    """The first matrix of mats whose entries are not in image, as a list; None if all are."""
    return next((list(M.entries) for M in mats if M.entries not in image), None)


def first_uncovered_oracle(p, dim, bases):
    """The least code of a vector of F_p^dim (entry k is base-p digit k) in
    none of the spans of bases, or -1: every vector of every span built as
    a tuple and marked by its code."""
    covered = bytearray(p ** dim)
    for basis in bases:
        vecs = [(0,) * dim]
        for row in basis:
            vecs = [tuple((a + c * b) % p for a, b in zip(v, row)) for v in vecs for c in range(p)]
        for v in vecs:
            covered[sum(x * p ** k for k, x in enumerate(v))] = 1
    return covered.find(0)


def char2a_oracle(field, n):
    """First target of gl_n(F_p) missed by A B + A^T B^T over every pair (A, B)."""
    mats = square_matrices(field, n)
    image = {(A @ B + A.transpose() @ B.transpose()).entries for A in mats for B in mats}
    return first_missing(mats, image)


def commutator_oracle(field, m):
    """First target of gl_m(F_p) missed by [X, Y] + lambda*I over every (X, Y, lambda)."""
    mats = square_matrices(field, m)
    comms = {X @ Y - Y @ X for X in mats for Y in mats}
    image = {(C + Matrix.scalar(field, m, lam)).entries for C in comms for lam in range(field.p)}
    return first_missing(mats, image)


@functools.lru_cache(maxsize=None)
def _with_inverse(field, rows):
    g = Matrix.from_rows(field, rows)
    return g, inverse(g)


def enumerate_gl_rows(n: int, p: int):
    """Yield the row tuples of every element of GL_n(F_p), lexicographically."""
    vectors = list(itertools.product(range(p), repeat=n))[1:]  # skip zero; lex order

    def extend(rows, span):
        if len(rows) == n:
            yield tuple(rows)
            return
        for v in vectors:
            if v in span:
                continue
            new_span = set()
            for s in span | {(0,) * n}:
                for c in range(p):
                    new_span.add(tuple((a + c * b) % p for a, b in zip(s, v)))
            new_span.discard((0,) * n)
            rows.append(v)
            yield from extend(rows, new_span)
            rows.pop()

    yield from extend([], set())


def _conjugates(P: Matrix):
    """(g, g P g^-1) for every g of GL_n(F_p), in enumerate_gl_rows order."""
    for rows in enumerate_gl_rows(P.rows, P.field.p):
        g, gi = _with_inverse(P.field, rows)
        yield g, g @ P @ gi


def offdiag_gl_oracle(P: Matrix, k: int, m: int):
    """The off-diagonal criterion by a scan of all of GL_n(F_p): (True, None),
    or (False, (g, K, L)) for the first g whose block Q_[K,L] has rank > k."""
    K, L = tuple(range(m)), tuple(range(m, 2 * m))
    for g, Q in _conjugates(P):
        if rank(Q.submatrix(K, L)) > k:
            return False, (g, K, L)
    return True, None


def offdiag_bad_pairs_oracle(P: Matrix, k: int, m: int) -> list:
    """Every pair (R, C) with rank(R P C) > k, listed before any walk: R runs
    over Gr(m, n) and C = (X B)^T over the m-dimensional subspaces of ker R
    (B the basis rows of ker R), both in enumerate_subspaces order; an R with
    rank(R P B^T) <= k is skipped, as it has no bad C."""
    f, n = P.field, P.rows
    bad = []
    for r_rows in enumerate_subspaces(m, n, f.p):
        R = Matrix.from_rows(f, r_rows)
        B = kernel_basis(R)
        W = R @ P @ B.transpose()
        if rank(W) <= k:
            continue
        for x_rows in enumerate_subspaces(m, n - m, f.p):
            X = Matrix.from_rows(f, x_rows)
            if rank(W @ X.transpose()) > k:
                bad.append((R, (X @ B).transpose()))
    return bad


def offdiag_pairs_oracle(P: Matrix, k: int, m: int):
    """The exhaustive off-diagonal check with its bad pairs listed eagerly,
    and the witness walk over that list without a budget: ((True, None), 0)
    or ((False, (g, K, L)), T), T the rows the walk tested.

    Each row is the least vector outside the span of the rows before it that
    keeps some bad (R, C) reachable: a row in K lies in R, a row in L is
    independent modulo A = ann(C) together with the L rows before it, and a
    row after L lies in A."""
    f, n = P.field, P.rows
    K, L = tuple(range(m)), tuple(range(m, 2 * m))
    bad = offdiag_bad_pairs_oracle(P, k, m)
    if not bad:
        return (True, None), 0
    live = [(Span(f, R.to_rows()), C) for R, C in bad]
    prefix, rows, tested = Span(f), [], 0
    for d in range(n):
        if d == m:
            live = [(Span(f, A), Span(f, A))
                    for A in (kernel_basis(C.transpose()).to_rows() for _, C in live)]
        for v in itertools.product(range(f.p), repeat=n):
            if prefix.contains(v):
                continue
            tested += 1
            if d < m:
                keep = [(R, C) for R, C in live if R.contains(v)]
            elif d < 2 * m:
                keep = [(A, AL) for A, AL in live if not AL.contains(v)]
            else:
                keep = [(A, AL) for A, AL in live if A.contains(v)]
            if keep:
                break
        live = keep
        if m <= d < 2 * m:
            for _, AL in live:
                AL.add(v)
        prefix.add(v)
        rows.append(v)
    return (False, (Matrix.from_rows(f, rows), K, L)), tested


def minor_gl_oracle(P: Matrix, k: int) -> bool:
    """Whether the leading k x k minor of g P g^-1 vanishes for every g of GL_n(F_p)."""
    return all(P.field.is_zero(det(Q.block(0, k, 0, k))) for _, Q in _conjugates(P))
