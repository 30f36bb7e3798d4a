"""Linear forms on matrix coordinates, and matrices of them.

Variables come in families p, q, r (matrix entries) and v, w (vector
entries).  One table per context, :func:`_layout`, states the canonical
variables and the signed ambient positions each one fills.  For types B,
C and D it is read off the form of ``chains.form_matrix`` by
:func:`form_layout`, which derives the generic element of {X : X J + J X^T
= 0} from the form J; so q[k,l] and r[k,l] come with k <= l for the
symmetric blocks of type C and k < l for the skew blocks of types B and D,
whose other positions read as +/- the canonical variable.  The symbolic
matrix is read off it.  An entry is a linear form, its terms sorted by
variable so printing is canonical.
"""

from __future__ import annotations

from functools import cache

from .chains import GroupType, form_matrix
from .fields import QQ, Record, _set
from .matrix import Matrix


class PolyError(ValueError):
    pass


class PolyContext(Record):
    __slots__ = ("kind", "n")  # kind: "gl", "B", "C" or "D"

    def __init__(self, kind, n):
        if kind not in ("gl", "B", "C", "D") or n < 1:
            raise PolyError(f"bad polynomial context {kind!r}, n={n}")
        super().__init__(kind, n)

    @property
    def ambient(self) -> int:
        if self.kind == "gl":
            return self.n
        if self.kind == "B":
            return 2 * self.n + 1
        return 2 * self.n


def form_layout(J: Matrix, top: int, low: int) -> dict:
    """The generic element of the algebra {X : X J + J X^T = 0} of a form J
    with one entry s_i = +/-1 in each row i, at column sigma(i): each
    canonical position -> the signed positions its entry fills, its own
    first; every other entry is zero.

    The algebra ties X[i][a] to its partner X[sigma(a)][sigma(i)] =
    -s_a s_i X[i][a].  A pair's canonical position is the smaller of the two
    under (row block, row, column), where the rows < top come first, then the
    rows >= low, then the rows between.  A position that is its own partner
    is free when its sign is +1 and zero otherwise."""
    f = J.field
    sigma, s = [], []
    for row in J.to_rows():
        (j, v), = [(j, v) for j, v in enumerate(row) if not f.is_zero(v)]
        sigma.append(j)
        s.append(1 if v == f.one else -1)
    key = lambda i, a: (0 if i < top else 1 if i >= low else 2, i, a)
    out = {}
    for i in range(J.rows):
        for a in range(J.cols):
            partner, sign = (sigma[a], sigma[i]), -s[a] * s[i]
            if partner == (i, a):
                if sign == 1:
                    out[i, a] = ((1, (i, a)),)
            elif key(i, a) < key(*partner):
                out[i, a] = ((1, (i, a)), (sign, partner))
    return out


@cache
def _layout(ctx: PolyContext) -> dict:
    """Each canonical variable of ``ctx`` -> the signed ambient positions it
    fills, its own position first; every other ambient entry is zero.  For
    B, C and D this is :func:`form_layout` of ``chains.form_matrix``, each
    canonical position named by its block: p top-left, q top-right, r
    bottom-left, and v, w the middle column of B in the top and bottom rows."""
    n, idx = ctx.n, range(1, ctx.n + 1)
    if ctx.kind == "gl":
        return {("p", i, j): ((1, (i - 1, j - 1)),) for i in idx for j in idx}
    o = ctx.ambient - n  # first row and column of the lower blocks

    def name(r, c):
        i = r + 1 if r < n else r - o + 1
        if c == n < o:
            return ("v" if r < n else "w", i)
        fam = ("q" if c >= o else "p") if r < n else "r"
        return (fam, i, c + 1 if c < n else c - o + 1)

    J = form_matrix(QQ(), GroupType(ctx.kind, n))
    return {name(*pos): places for pos, places in form_layout(J, n, o).items()}


class CoordPoly(Record):
    """A linear form: the sum of coeff * var over its terms."""

    # terms: ((var, coeff), ...), sorted by var, every coeff nonzero
    __slots__ = ("context", "field", "terms")

    def __init__(self, context, field, terms):
        _set(self, "context", context)
        _set(self, "field", field)
        _set(self, "terms", terms)

    @staticmethod
    def _normalize(ctx, field, d: dict) -> "CoordPoly":
        return CoordPoly(ctx, field, tuple(sorted(
            (var, c) for var, c in d.items() if not field.is_zero(c))))

    @staticmethod
    def zero(ctx, field) -> "CoordPoly":
        return CoordPoly(ctx, field, ())

    def _chk(self, other):
        if self.context != other.context or self.field != other.field:
            raise PolyError("context or field mismatch")

    def __add__(self, other: "CoordPoly") -> "CoordPoly":
        self._chk(other)
        f = self.field
        d = dict(self.terms)
        for var, c in other.terms:
            d[var] = f.add(d.get(var, f.zero), c)
        return CoordPoly._normalize(self.context, f, d)

    def __sub__(self, other: "CoordPoly") -> "CoordPoly":
        return self + (-other)

    def __neg__(self) -> "CoordPoly":
        f = self.field
        return CoordPoly(self.context, f, tuple((var, f.neg(c)) for var, c in self.terms))

    def scale(self, c) -> "CoordPoly":
        f = self.field
        c = f.coerce(c)
        return CoordPoly._normalize(
            self.context, f, {var: f.mul(c, coef) for var, coef in self.terms})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def variables(self) -> set:
        return {var for var, _ in self.terms}


# ---------------------------------------------------------------------------
# Matrices of polynomials and structured symbolic matrices
# ---------------------------------------------------------------------------

def linear_combination(ctx: PolyContext, field, pairs) -> CoordPoly:
    """sum c * p over the (scalar c, CoordPoly p) pairs: zero scalars are
    skipped, the terms summed into one dict and normalized once."""
    d: dict = {}
    for c, p in pairs:
        if not field.is_zero(c):
            for var, coef in p.terms:
                d[var] = field.add(d.get(var, field.zero), field.mul(c, coef))
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


def layout_grid(ctx: PolyContext, field, layout: dict) -> PolyGrid:
    """The ambient grid of ``layout``: each variable, signed, at its positions."""
    N = ctx.ambient
    polys = [[CoordPoly.zero(ctx, field)] * N for _ in range(N)]
    for var, places in layout.items():
        for sg, (r, c) in places:
            polys[r][c] = CoordPoly(ctx, field, ((var, field.coerce(sg)),))
    return PolyGrid(polys)


def symbolic_matrix(ctx: PolyContext, field) -> PolyGrid:
    """The structured matrix: each canonical variable, signed, at its positions."""
    return layout_grid(ctx, field, _layout(ctx))


# ---------------------------------------------------------------------------
# Text format: "p[1,2] - 1/2*w[4]"
# ---------------------------------------------------------------------------

def poly_format(f: CoordPoly) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for (fam, *idx), c in f.terms:
        cs = f.field.format(c)
        neg = cs.startswith("-")
        mag = cs[1:] if neg else cs
        body = ("" if mag == "1" else f"{mag}*") + f"{fam}[{','.join(map(str, idx))}]"
        sign = ("-" if neg else "") if not parts else ("- " if neg else "+ ")
        parts.append(sign + body)
    return " ".join(parts)
