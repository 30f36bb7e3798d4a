"""Sparse polynomials on matrix coordinates, with group action, gradings,
pullbacks along dual projections, and Vandermonde coefficient extraction.

Variables come in families p, q, r (matrix entries) and v, w (vector
entries).  One table per context, :func:`_layout`, states the canonical
variables and the signed ambient positions each one fills: q[k,l] and
r[k,l] with k <= l for the symmetric blocks of type C and k < l for the
skew blocks of types B and D, whose other positions read as +/- the
canonical variable.  Variable validation, positions, the symbolic matrix
and the pullbacks are all read off it.  Monomials are sorted variable-power
tuples; terms are kept in a fixed graded order so printing is canonical.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache

from .chains import ChainSpec, GroupType, dual_projection_instructions, group_membership
from .matrix import Matrix, inverse


class PolyError(ValueError):
    pass


@dataclass(frozen=True)
class PolyContext:
    kind: str  # "gl", "B", "C", "D"
    n: int

    def __post_init__(self):
        if self.kind not in ("gl", "B", "C", "D") or self.n < 1:
            raise PolyError(f"bad polynomial context {self.kind!r}, n={self.n}")

    @property
    def families(self):
        if self.kind == "gl":
            return ("p",)
        if self.kind == "B":
            return ("p", "q", "r", "v", "w")
        return ("p", "q", "r")

    @property
    def ambient(self) -> int:
        if self.kind == "gl":
            return self.n
        if self.kind == "B":
            return 2 * self.n + 1
        return 2 * self.n


@cache
def _layout(ctx: PolyContext) -> dict:
    """Each canonical variable of ``ctx`` -> the signed ambient positions it
    fills, its own position first; every other ambient entry is zero."""
    n, idx = ctx.n, range(1, ctx.n + 1)
    if ctx.kind == "gl":
        return {("p", i, j): ((1, (i - 1, j - 1)),) for i in idx for j in idx}
    o = n + 1 if ctx.kind == "B" else n  # first row and column of the lower blocks
    s = 1 if ctx.kind == "C" else -1  # the q and r blocks are symmetric or skew
    out = {}
    for i in idx:
        for j in idx:
            out["p", i, j] = ((1, (i - 1, j - 1)), (-1, (o + j - 1, o + i - 1)))
            if i < j or i == j and ctx.kind == "C":
                k = 2 if i < j else 1  # a diagonal entry has no mirror
                out["q", i, j] = ((1, (i - 1, o + j - 1)), (s, (j - 1, o + i - 1)))[:k]
                out["r", i, j] = ((1, (o + i - 1, j - 1)), (s, (o + j - 1, i - 1)))[:k]
    if ctx.kind == "B":
        for i in idx:
            out["v", i] = ((1, (i - 1, n)), (-1, (n, o + i - 1)))
            out["w", i] = ((1, (o + i - 1, n)), (-1, (n, i - 1)))
    return out


def canonical_var(ctx: PolyContext, family: str, i: int, j: int | None = None):
    """Validate and return a canonical variable key."""
    var = (family, i) if j is None else (family, i, j)
    if var not in _layout(ctx):
        idx = i if j is None else f"{i},{j}"
        raise PolyError(f"{family}[{idx}] is not a canonical variable of {ctx.kind}, n={ctx.n}")
    return var


@dataclass(frozen=True)
class CoordPoly:
    context: PolyContext
    field: object
    terms: tuple  # sorted ((monomial, coeff), ...); monomial = sorted ((var, exp), ...)

    # -- construction ---------------------------------------------------------

    @staticmethod
    def _normalize(ctx, field, d: dict) -> "CoordPoly":
        items = []
        for mono, c in d.items():
            if field.is_zero(c):
                continue
            items.append((tuple(sorted(mono)), c))
        items.sort(key=lambda t: (-sum(e for _, e in t[0]), t[0]))
        return CoordPoly(ctx, field, tuple(items))

    @staticmethod
    def zero(ctx, field) -> "CoordPoly":
        return CoordPoly(ctx, field, ())

    @staticmethod
    def constant(ctx, field, c) -> "CoordPoly":
        return CoordPoly._normalize(ctx, field, {(): field.coerce(c)})

    @staticmethod
    def variable(ctx, field, family, i, j=None) -> "CoordPoly":
        var = canonical_var(ctx, family, i, j)
        return CoordPoly(ctx, field, ((((var, 1),), field.one),))

    # -- ring operations ------------------------------------------------------

    def _dict(self) -> dict:
        return {mono: c for mono, c in self.terms}

    def _chk(self, other):
        if self.context != other.context or self.field != other.field:
            raise PolyError("context or field mismatch")

    def __add__(self, other) -> "CoordPoly":
        other = self._coerce(other)
        self._chk(other)
        f = self.field
        d = self._dict()
        for mono, c in other.terms:
            d[mono] = f.add(d.get(mono, f.zero), c)
        return CoordPoly._normalize(self.context, f, d)

    def __sub__(self, other) -> "CoordPoly":
        return self + (-self._coerce(other))

    def __neg__(self) -> "CoordPoly":
        f = self.field
        return CoordPoly(self.context, f, tuple((m, f.neg(c)) for m, c in self.terms))

    def __mul__(self, other) -> "CoordPoly":
        other = self._coerce(other)
        self._chk(other)
        f = self.field
        d: dict = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                exps: dict = {}
                for var, e in m1 + m2:
                    exps[var] = exps.get(var, 0) + e
                mono = tuple(sorted(exps.items()))
                d[mono] = f.add(d.get(mono, f.zero), f.mul(c1, c2))
        return CoordPoly._normalize(self.context, f, d)

    def _coerce(self, v) -> "CoordPoly":
        if isinstance(v, CoordPoly):
            return v
        return CoordPoly.constant(self.context, self.field, v)

    def scale(self, c) -> "CoordPoly":
        f = self.field
        c = f.coerce(c)
        return CoordPoly._normalize(
            self.context, f, {m: f.mul(c, coef) for m, coef in self.terms})

    def power(self, e: int) -> "CoordPoly":
        out = CoordPoly.constant(self.context, self.field, self.field.one)
        for _ in range(e):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- structure ------------------------------------------------------------

    def variables(self) -> set:
        return {var for mono, _ in self.terms for var, _ in mono}

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e for _, e in m) for m, _ in self.terms)


# ---------------------------------------------------------------------------
# Matrices of polynomials, structured symbolic matrices and evaluation
# ---------------------------------------------------------------------------

def linear_combination(ctx: PolyContext, field, pairs) -> CoordPoly:
    """sum c * p over the (scalar c, CoordPoly p) pairs: zero scalars are
    skipped, the terms summed into one dict and normalized once."""
    d: dict = {}
    for c, p in pairs:
        if not field.is_zero(c):
            for mono, coef in p.terms:
                d[mono] = field.add(d.get(mono, field.zero), field.mul(c, coef))
    return CoordPoly._normalize(ctx, field, d)


class PolyGrid:
    """A matrix of CoordPoly entries with the block vocabulary of Matrix:
    ``entry``, ``block``, ``transpose``, ``+``, ``-``, ``scale``, and ``@`` by
    a scalar Matrix on either side.

    ``A @ X`` lists the nonzero entries (t, c) of each row of A once, the
    row-wise sparse product of Gustavson (ACM Trans. Math. Softw. 4(3),
    1978): a row equal to e_t shares row t of X as it is, and any other row
    is one :func:`linear_combination` per column over its nonzero entries
    only.  The shears and diagonal embeddings that conjugate symbolic grids
    are mostly unit rows.  ``X @ B`` is (B^T X^T)^T.

    A grid without rows has ``cols`` columns, and ``zero``, the zero poly of
    its context and field, is read off the first entry when there is one, so
    blocks, transposes and products with a dimension 0 keep their shape."""

    def __init__(self, polys, cols=0, zero=None):
        self.polys = [list(row) for row in polys]
        self.rows = len(self.polys)
        self.cols = len(self.polys[0]) if self.polys else cols
        if zero is None and self.rows and self.cols:
            p = self.polys[0][0]
            zero = CoordPoly.zero(p.context, p.field)
        self.zero = zero

    def _like(self, polys, cols) -> "PolyGrid":
        return PolyGrid(polys, cols, self.zero)

    def entry(self, i, j) -> CoordPoly:
        return self.polys[i][j]

    def block(self, r0, r1, c0, c1) -> "PolyGrid":
        return self._like([row[c0:c1] for row in self.polys[r0:r1]], len(range(self.cols)[c0:c1]))

    def transpose(self) -> "PolyGrid":
        return self._like(zip(*self.polys) if self.rows else [()] * self.cols, self.rows)

    def __add__(self, other: "PolyGrid") -> "PolyGrid":
        return self._like([[x + y for x, y in zip(a, b)] for a, b in zip(self.polys, other.polys)],
                          self.cols)

    def __sub__(self, other: "PolyGrid") -> "PolyGrid":
        return self._like([[x - y for x, y in zip(a, b)] for a, b in zip(self.polys, other.polys)],
                          self.cols)

    def scale(self, c) -> "PolyGrid":
        return self._like([[x.scale(c) for x in row] for row in self.polys], self.cols)

    def __matmul__(self, B) -> "PolyGrid":
        if not isinstance(B, Matrix):
            return NotImplemented
        return (B.transpose() @ self.transpose()).transpose()

    def __rmatmul__(self, A) -> "PolyGrid":
        if not isinstance(A, Matrix):
            return NotImplemented
        if A.cols != self.rows:
            raise PolyError("shape mismatch in @")
        f, k, X, z = A.field, A.cols, self.polys, self.zero
        out = []
        for i in range(A.rows):
            nz = [(t, c) for t, c in enumerate(A.entries[i * k:i * k + k]) if not f.is_zero(c)]
            if len(nz) == 1 and nz[0][1] == f.one:
                out.append(X[nz[0][0]])
            else:
                out.append([linear_combination(z.context, z.field, [(c, X[t][j]) for t, c in nz])
                            for j in range(self.cols)])
        return self._like(out, self.cols)


def pos_of_var(ctx: PolyContext, var) -> tuple[int, int]:
    """Ambient (row, col) of the canonical variable in the structured matrix."""
    return _layout(ctx)[var][0][1]


def symbolic_matrix(ctx: PolyContext, field) -> PolyGrid:
    """The structured matrix: each canonical variable, signed, at its positions."""
    N = ctx.ambient
    polys = [[CoordPoly.zero(ctx, field)] * N for _ in range(N)]
    for var, places in _layout(ctx).items():
        for sg, (r, c) in places:
            polys[r][c] = CoordPoly(ctx, field, ((((var, 1),), field.coerce(sg)),))
    return PolyGrid(polys)


def _check_point_shapes(ctx: PolyContext, point: dict):
    n = ctx.n
    for fam in ctx.families:
        if fam not in point:
            continue
        M = point[fam]
        want = (n, 1) if fam in ("v", "w") else (n, n)
        if (M.rows, M.cols) != want:
            raise PolyError(f"{fam} block must be {want}")
        if fam in ("q", "r"):
            if ctx.kind == "C" and M != M.transpose():
                raise PolyError(f"{fam} block must be symmetric")
            if ctx.kind in ("B", "D") and not (M + M.transpose()).is_zero():
                raise PolyError(f"{fam} block must be skew")


def evaluate(f: CoordPoly, point: dict):
    """Exact evaluation at matrices {'p': P, 'q': Q, 'r': R, 'v': v, 'w': w}."""
    ctx, fld = f.context, f.field
    _check_point_shapes(ctx, point)
    vals = {}
    for var in f.variables():
        fam = var[0]
        if fam not in point:
            raise PolyError(f"point is missing the {fam!r} block")
        M = point[fam]
        if fam in ("v", "w"):
            vals[var] = M.entry(var[1] - 1, 0)
        else:
            vals[var] = M.entry(var[1] - 1, var[2] - 1)
    acc = fld.zero
    for mono, c in f.terms:
        term = c
        for var, e in mono:
            for _ in range(e):
                term = fld.mul(term, vals[var])
        acc = fld.add(acc, term)
    return acc


# ---------------------------------------------------------------------------
# Group action on polynomials
# ---------------------------------------------------------------------------

def group_act(f: CoordPoly, g: Matrix) -> CoordPoly:
    """(g . f)(X) = f(g^{-1} X g), re-expressed in canonical variables.

    For contexts B/C/D the conjugator must preserve the form so the
    conjugated matrix stays in the algebra shape.
    """
    ctx = f.context
    if g.rows != ctx.ambient or not g.is_square:
        raise PolyError(f"conjugator must be {ctx.ambient}x{ctx.ambient}")
    if ctx.kind == "gl":
        if not (g.field == f.field):
            raise PolyError("field mismatch")
    else:
        gt = GroupType(ctx.kind, ctx.n)
        if not group_membership(gt, g):
            raise PolyError(f"conjugator is not in the type {ctx.kind} group")
    Y = inverse(g) @ symbolic_matrix(ctx, f.field) @ g
    mapping = {var: Y.entry(*pos_of_var(ctx, var)) for var in f.variables()}
    return _substitute(f, ctx, mapping)


def _substitute(f: CoordPoly, ctx: PolyContext, mapping: dict) -> CoordPoly:
    """f with each variable replaced by its image in ``mapping``, a polynomial on ``ctx``."""
    out = CoordPoly.zero(ctx, f.field)
    for mono, c in f.terms:
        term = CoordPoly.constant(ctx, f.field, c)
        for var, e in mono:
            term = term * mapping[var].power(e)
        out = out + term
    return out


# ---------------------------------------------------------------------------
# Pullback along a dual projection
# ---------------------------------------------------------------------------

def level_context(chain: ChainSpec, level: int) -> PolyContext:
    return PolyContext("gl" if chain.letter == "A" else chain.letter, chain.n_at(level))


def pullback_projection(f: CoordPoly, chain: ChainSpec, i: int) -> CoordPoly:
    """Compose a level-i polynomial with the dual projection from level i+1."""
    ctx_lo = level_context(chain, i)
    ctx_hi = level_context(chain, i + 1)
    if f.context != ctx_lo:
        raise PolyError(f"polynomial lives on {f.context}, not level {i} of the chain")
    fld = f.field
    X = symbolic_matrix(ctx_hi, fld)
    by_dst: dict = {}
    for sg, src, dst in dual_projection_instructions(chain, i):
        by_dst.setdefault(dst, []).append((fld.coerce(sg), X.entry(*src)))
    mapping = {var: linear_combination(ctx_hi, fld, by_dst.get(pos_of_var(ctx_lo, var), ()))
               for var in f.variables()}
    return _substitute(f, ctx_hi, mapping)


# ---------------------------------------------------------------------------
# Gradings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradingWeights:
    p: int = 1
    q: int = 1
    r: int = 1
    v: int = 1
    w: int = 1

    def of(self, family: str) -> int:
        return getattr(self, family)


GRAD = GradingWeights(p=1, q=2, r=0, v=1, w=0)
DEG = GradingWeights()


def weighted_degree(mono, weights: GradingWeights) -> int:
    return sum(weights.of(var[0]) * e for var, e in mono)


def graded_part(f: CoordPoly, weights: GradingWeights, which="top") -> CoordPoly:
    """Sum of terms of maximal (or exactly given) weighted degree."""
    if f.is_zero():
        return f
    if which == "top":
        k = max(weighted_degree(m, weights) for m, _ in f.terms)
    else:
        k = int(which)
    kept = {m: c for m, c in f.terms if weighted_degree(m, weights) == k}
    return CoordPoly._normalize(f.context, f.field, kept)


# ---------------------------------------------------------------------------
# Vandermonde coefficient extraction
# ---------------------------------------------------------------------------

def vandermonde_coefficients(family_fn, degree_bound: int, sample_points) -> list[CoordPoly]:
    """Recover c_0..c_d with family(lambda) = sum c_j lambda^j from d+1 samples."""
    pts = list(sample_points)
    if len(pts) != degree_bound + 1:
        raise PolyError("need exactly degree_bound + 1 sample points")
    values = [family_fn(lam) for lam in pts]
    fld = values[0].field
    pts = [fld.coerce(lam) for lam in pts]
    if len(set(pts)) != len(pts):
        raise PolyError("sample points must be distinct")
    d = degree_bound
    V = Matrix.from_rows(fld, [[_pow(fld, lam, j) for j in range(d + 1)] for lam in pts])
    Vi = inverse(V)
    return [linear_combination(values[0].context, fld, zip(Vi.row_list(j), values))
            for j in range(d + 1)]


def _pow(fld, x, e):
    acc = fld.one
    for _ in range(e):
        acc = fld.mul(acc, x)
    return acc


# ---------------------------------------------------------------------------
# Off-diagonal support detection
# ---------------------------------------------------------------------------

def off_diagonal_test(f: CoordPoly, m: int | None = None):
    """Witnessing disjoint row / column index sets covering the support, if any.

    The polynomial must involve only p variables; the returned sets satisfy
    |K|, |L| <= m (default floor((n-1)/2)) and K disjoint from L.
    """
    ctx = f.context
    if ctx.kind != "gl":
        raise PolyError("off-diagonal detection applies to gl contexts")
    bound = (ctx.n - 1) // 2
    if m is not None:
        if m > bound:
            return None
        bound = m
    rows, cols = set(), set()
    for var in f.variables():
        if var[0] != "p":
            return None
        rows.add(var[1])
        cols.add(var[2])
    if rows & cols:
        return None
    if len(rows) > bound or len(cols) > bound:
        return None
    return (tuple(sorted(rows)), tuple(sorted(cols)))


# ---------------------------------------------------------------------------
# Text format: "3*p[1,2]*q[2,3] - 1/2*w[4]"
# ---------------------------------------------------------------------------

def poly_format(f: CoordPoly) -> str:
    if f.is_zero():
        return "0"
    fld = f.field
    parts = []
    for mono, c in f.terms:
        cs = fld.format(c)
        neg = cs.startswith("-")
        mag = cs[1:] if neg else cs
        factors = []
        if not mono or mag != "1":
            factors.append(mag)
        for var, e in mono:
            fam = var[0]
            idx = ",".join(str(x) for x in var[1:])
            factors.append(f"{fam}[{idx}]" + (f"^{e}" if e > 1 else ""))
        body = "*".join(factors)
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def poly_parse(text: str, ctx: PolyContext, field) -> CoordPoly:
    s = text.strip()
    if s in ("0", ""):
        return CoordPoly.zero(ctx, field)
    s = s.replace(" ", "")
    chunks = re.findall(r"[+-]?[^+-]+(?:\^\d+)?", s)
    # re-join: exponents never contain signs, so the simple split is safe
    if "".join(chunks) != s:
        raise PolyError(f"cannot parse polynomial {text!r}")
    acc = CoordPoly.zero(ctx, field)
    var_re = re.compile(r"^([pqrvw])\[(\d+)(?:,(\d+))?\](?:\^(\d+))?$")
    for chunk in chunks:
        sign = 1
        if chunk.startswith("+"):
            chunk = chunk[1:]
        elif chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:]
        coeff = field.one
        mono: dict = {}
        for fac in chunk.split("*"):
            m = var_re.match(fac)
            if m:
                fam, i, j, e = m.groups()
                var = canonical_var(ctx, fam, int(i), int(j) if j else None)
                mono[var] = mono.get(var, 0) + (int(e) if e else 1)
            else:
                coeff = field.mul(coeff, field.parse(fac))
        if sign < 0:
            coeff = field.neg(coeff)
        term = CoordPoly._normalize(ctx, field, {tuple(sorted(mono.items())): coeff})
        acc = acc + term
    return acc
