"""Sparse polynomials on matrix coordinates, and matrices of them.

Variables come in families p, q, r (matrix entries) and v, w (vector
entries).  One table per context, :func:`_layout`, states the canonical
variables and the signed ambient positions each one fills: q[k,l] and
r[k,l] with k <= l for the symmetric blocks of type C and k < l for the
skew blocks of types B and D, whose other positions read as +/- the
canonical variable.  Variable validation and the symbolic matrix are read
off it.  Monomials are sorted variable-power tuples; terms are kept in a
fixed graded order so printing is canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .matrix import Matrix


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

    def _coerce(self, v) -> "CoordPoly":
        if isinstance(v, CoordPoly):
            return v
        return CoordPoly.constant(self.context, self.field, v)

    def scale(self, c) -> "CoordPoly":
        f = self.field
        c = f.coerce(c)
        return CoordPoly._normalize(
            self.context, f, {m: f.mul(c, coef) for m, coef in self.terms})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- structure ------------------------------------------------------------

    def variables(self) -> set:
        return {var for mono, _ in self.terms for var, _ in mono}


# ---------------------------------------------------------------------------
# Matrices of polynomials and structured symbolic matrices
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
        """Rows r0..r1-1 and columns c0..c1-1, in range as for Matrix.block."""
        if r0 < 0 or c0 < 0 or r1 > self.rows or c1 > self.cols:
            raise PolyError("block out of range")
        cols = len(range(c0, c1))
        return self._like([self.polys[i][c0:c0 + cols] for i in range(r0, r1)], cols)

    def transpose(self) -> "PolyGrid":
        return self._like(zip(*self.polys) if self.rows else [()] * self.cols, self.rows)

    def _entrywise(self, other: "PolyGrid", op, symbol) -> "PolyGrid":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise PolyError(f"shape mismatch in {symbol}")
        return self._like([list(map(op, a, b)) for a, b in zip(self.polys, other.polys)], self.cols)

    def __add__(self, other: "PolyGrid") -> "PolyGrid":
        return self._entrywise(other, CoordPoly.__add__, "+")

    def __sub__(self, other: "PolyGrid") -> "PolyGrid":
        return self._entrywise(other, CoordPoly.__sub__, "-")

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


def symbolic_matrix(ctx: PolyContext, field) -> PolyGrid:
    """The structured matrix: each canonical variable, signed, at its positions."""
    N = ctx.ambient
    polys = [[CoordPoly.zero(ctx, field)] * N for _ in range(N)]
    for var, places in _layout(ctx).items():
        for sg, (r, c) in places:
            polys[r][c] = CoordPoly(ctx, field, ((((var, 1),), field.coerce(sg)),))
    return PolyGrid(polys)


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
