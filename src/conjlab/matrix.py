"""Dense exact matrices and the rank / characteristic polynomial / eigenvalue kernel.

Everything is immutable and pure.  Matrices store a flat row-major tuple of
canonical scalars together with the owning field.

``@``, ``rank_and_rref``, ``rref_rows``, ``rank``, ``det``, ``inverse`` and
``char_poly`` look their field's class up once in ``_KERNELS``, one record
of private kernels per field.  ``_GENERIC`` runs the generic
scalar loop through the field's own operations; it is the record of a field
class without one, and the tests keep it as the oracle of the faster
kernels.  Every other record is ``_GENERIC`` with only its own kernels
replaced, except that the GF record picks by p between two of them.  Each
field supplies one elimination loop, and rref, rref_rows, rank, det and
inverse are read off it by one set of readers: over GF(p) the loop works on
plain int rows with one ``% p`` per entry of each row operation.  At p = 2
the rows are packed into ints, one bit per entry, and a row operation is one
XOR; those kernels read their results off the packed rows themselves.  QQ
replaces rank, det and inverse by the Bareiss elimination of row-cleared
integers, QQ(t) by evaluation at integer points.  The GF(p) and QQ products
skip the zero entries of rows of the left factor that have at most one
nonzero entry.  Every elimination keeps the generic loop's pivot rule, so
rref, transform and pivots do not depend on the field's record.  ``Span``
has no record: it reduces through the field's own operations over every
field.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce
from math import lcm, prod
from types import SimpleNamespace

from .fields import (
    GF,
    QQ,
    QQT,
    FieldError,
    RatFunc,
    Record,
    UniPoly,
    UnsupportedFieldOperation,
    gfpoly_roots,
    ipoly_eval,
    ipoly_exquo,
    ipoly_interpolate,
    ipoly_lcm,
    ipoly_mul,
    qpoly_rational_roots,
    _set,
)


class MatrixError(ValueError):
    pass


class PoleAtZero(FieldError):
    """An entry of a QQ(t) matrix has a pole at t=0, named 1-based in the message."""

    def __init__(self, row: int, col: int):
        super().__init__(f"pole at t=0 in entry ({row},{col})")


class Matrix(Record):
    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, rows, cols, entries):
        _set(self, "field", field)
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "entries", entries)

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_rows(field, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        if any(len(r) != nc for r in rows):
            raise MatrixError("ragged rows")
        ent = tuple(field.coerce(v) for r in rows for v in r)
        return Matrix(field, nr, nc, ent)

    @staticmethod
    def zeros(field, rows, cols=None) -> "Matrix":
        cols = rows if cols is None else cols
        return Matrix(field, rows, cols, (field.zero,) * (rows * cols))

    @staticmethod
    def identity(field, n) -> "Matrix":
        ent = [field.zero] * (n * n)
        for i in range(n):
            ent[i * n + i] = field.one
        return Matrix(field, n, n, tuple(ent))

    @staticmethod
    def basis(field, n, i, j) -> "Matrix":
        """The matrix unit E_{ij} (0-based) in gl_n."""
        ent = [field.zero] * (n * n)
        ent[i * n + j] = field.one
        return Matrix(field, n, n, tuple(ent))

    @staticmethod
    def scalar(field, n, c) -> "Matrix":
        return Matrix.identity(field, n).scale(c)

    @staticmethod
    def diag_blocks(blocks) -> "Matrix":
        field = blocks[0].field
        n = sum(b.rows for b in blocks)
        m = sum(b.cols for b in blocks)
        ent = [field.zero] * (n * m)
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.rows):
                base = (r0 + i) * m + c0
                ent[base:base + b.cols] = b.entries[i * b.cols:(i + 1) * b.cols]
            r0 += b.rows
            c0 += b.cols
        return Matrix(field, n, m, tuple(ent))

    @staticmethod
    def from_blocks(grid) -> "Matrix":
        """Assemble from a 2d list of blocks with matching shapes."""
        field = grid[0][0].field
        row_h = [row[0].rows for row in grid]
        col_w = [b.cols for b in grid[0]]
        n, m = sum(row_h), sum(col_w)
        ent = [field.zero] * (n * m)
        r0 = 0
        for bi, row in enumerate(grid):
            c0 = 0
            for bj, b in enumerate(row):
                if b.rows != row_h[bi] or b.cols != col_w[bj]:
                    raise MatrixError("block shape mismatch")
                for i in range(b.rows):
                    base = (r0 + i) * m + c0
                    ent[base:base + b.cols] = b.entries[i * b.cols:(i + 1) * b.cols]
                c0 += b.cols
            r0 += row_h[bi]
        return Matrix(field, n, m, tuple(ent))

    # -- access --------------------------------------------------------------

    def entry(self, i, j):
        return self.entries[i * self.cols + j]

    def row_list(self, i):
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def to_rows(self):
        return [self.row_list(i) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        e, c = self.entries, self.cols
        rows = [e[i * c:(i + 1) * c] for i in row_idx]
        return Matrix(self.field, len(rows), len(col_idx),
                      tuple([row[j] for row in rows for j in col_idx]))

    def block(self, r0, r1, c0, c1) -> "Matrix":
        """Rows r0..r1-1 and columns c0..c1-1, one slice of entries a row."""
        e, c = self.entries, self.cols
        if r0 < 0 or c0 < 0 or r1 > self.rows or c1 > c:
            raise MatrixError("block out of range")  # a slice would run into the next row
        rows = range(r0, r1)
        return Matrix(self.field, len(rows), len(range(c0, c1)),
                      tuple([v for i in rows for v in e[i * c + c0:i * c + c1]]))

    # -- arithmetic -----------------------------------------------------------

    def _chk(self, other):
        if self.field != other.field:
            raise MatrixError("field mismatch")

    def _entrywise(self, other, op, symbol) -> "Matrix":
        self._chk(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise MatrixError(f"shape mismatch in {symbol}")
        return Matrix(self.field, self.rows, self.cols, tuple(map(op, self.entries, other.entries)))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, self.field.add, "+")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, self.field.sub, "-")

    def __neg__(self) -> "Matrix":
        f = self.field
        return Matrix(f, self.rows, self.cols, tuple(f.neg(a) for a in self.entries))

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.coerce(c)
        return Matrix(f, self.rows, self.cols, tuple(f.mul(c, a) for a in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented  # e.g. a coordpoly.PolyGrid, through its __rmatmul__
        self._chk(other)
        if self.cols != other.rows:
            raise MatrixError("shape mismatch in @")
        return _kernels(self.field).matmul(self, other)

    def transpose(self) -> "Matrix":
        """Row j of the transpose is the column slice entries[j::cols]."""
        e, c = self.entries, self.cols
        return Matrix(self.field, c, self.rows, tuple([v for j in range(c) for v in e[j::c]]))

    def trace(self):
        if not self.is_square:
            raise MatrixError("trace of non-square matrix")
        f = self.field
        acc = f.zero
        for v in self.entries[::self.cols + 1]:
            acc = f.add(acc, v)
        return acc

    def is_zero(self) -> bool:
        f = self.field
        return all(f.is_zero(a) for a in self.entries)

    def map_field(self, new_field, convert) -> "Matrix":
        return Matrix(new_field, self.rows, self.cols,
                      tuple(convert(a) for a in self.entries))


class RrefResult(Record):
    __slots__ = ("rank", "rref", "transform", "pivots")


def rank_and_rref(M: Matrix) -> RrefResult:
    """Gauss-Jordan elimination of [M | I]; returns invertible T with T @ M = rref."""
    return _kernels(M.field).rref(M)


def rref_rows(M: Matrix) -> tuple[tuple, list]:
    """(pivots, rows): the pivot columns and the nonzero rows, as lists, of
    the reduced row echelon form of M, from the elimination of M alone; the
    rref and pivots of rank_and_rref without the transform of [M | I]."""
    return _kernels(M.field).rref_rows(M)


def rank(M: Matrix) -> int:
    """Rank by forward elimination, without building a transform: over GF(p)
    on residue rows, over QQ by Bareiss on the row-cleared integer matrix,
    over QQ(t) the largest rank of the cleared matrix at D + 1 integer
    points."""
    return _kernels(M.field).rank(M)


def det(M: Matrix):
    """Signed product of the elimination pivots over GF(p); over QQ, the
    Bareiss determinant of the row-cleared matrix over the product of the
    d_i; over QQ(t), interpolated from the cleared matrix's determinants at
    D + 1 points."""
    if not M.is_square:
        raise MatrixError("determinant of non-square matrix")
    return _kernels(M.field).det(M)


def inverse(M: Matrix) -> Matrix:
    """The transform of [M | I]'s Gauss-Jordan elimination over GF(p); over
    QQ, M^-1 = N^-1 diag(d) = adj(N) diag(d) / det N for the row-cleared N;
    over QQ(t) by interpolation."""
    if not M.is_square:
        raise MatrixError("inverse of non-square matrix")
    return _kernels(M.field).inverse(M)


# -- kernels per field ---------------------------------------------------------
#
# A record of private kernels for one field class.  The public functions
# check shapes; a kernel gets well-shaped input.


class _Kernels(Record):
    __slots__ = ("matmul",     # (A, B) -> A @ B
                 "rref",       # M -> RrefResult of the Gauss-Jordan elimination of [M | I]
                 "rref_rows",  # M -> (pivots, nonzero rows of rref M), without [M | I]
                 "rank",       # M -> rank M
                 "det",        # square M -> det M
                 "inverse",    # square M -> M^-1; MatrixError "matrix is singular"
                 "char_poly")  # square M -> det(xI - M)


def _kernels(field) -> _Kernels:
    return _KERNELS.get(type(field), _GENERIC)


def _elimination_readers(rows_of, eliminate) -> dict:
    """The rref, rref_rows, rank, det and inverse kernels of a field, read off
    its elimination loop: rows_of(M) gives M's rows as fresh lists in the
    loop's form, and eliminate(rows, field, ncols, reduced=...) runs the loop
    in place and returns the pivot columns, the pivot entries before scaling
    and the sign of the row permutation."""
    def rref(M):
        f, n, m = M.field, M.rows, M.cols
        a = rows_of(M)
        for i, row in enumerate(a):
            row += [f.zero] * n
            row[m + i] = f.one
        pivots, _, _ = eliminate(a, f, m, reduced=True)
        return RrefResult(len(pivots), Matrix(f, n, m, tuple([v for row in a for v in row[:m]])),
                          Matrix(f, n, n, tuple([v for row in a for v in row[m:]])),
                          tuple(pivots))

    def rref_rows(M):
        rows = rows_of(M)
        pivots, _, _ = eliminate(rows, M.field, M.cols, reduced=True)
        return tuple(pivots), rows[:len(pivots)]

    def rank(M):
        return len(eliminate(rows_of(M), M.field, M.cols, reduced=False)[0])

    def det(M):
        """The signed product of the elimination's pivot entries."""
        f = M.field
        pivots, entries, sign = eliminate(rows_of(M), f, M.cols, reduced=False)
        if len(pivots) < M.rows:
            return f.zero
        acc = reduce(f.mul, entries, f.one)
        return acc if sign == 1 else f.neg(acc)

    def inverse(M):
        """The transform of rref(M)."""
        res = rref(M)
        if res.rank != M.rows:
            raise MatrixError("matrix is singular")
        return res.transform

    return dict(rref=rref, rref_rows=rref_rows, rank=rank, det=det, inverse=inverse)


# -- the generic scalar loop, through the field's operations -------------------


def _generic_matmul(A, B):
    f = A.field
    n, k, m = A.rows, A.cols, B.cols
    a, b = A.entries, B.entries
    out = []
    for i in range(n):
        arow = a[i * k : (i + 1) * k]
        for j in range(m):
            acc = f.zero
            for t in range(k):
                av = arow[t]
                if not f.is_zero(av):
                    acc = f.add(acc, f.mul(av, b[t * m + j]))
            out.append(acc)
    return Matrix(f, n, m, tuple(out))


def _eliminate(rows, field, ncols, *, reduced):
    """Gaussian elimination, in place, on the first ncols columns of rows.

    The pivot of each column is the first nonzero entry at or below the
    current row; its row is swapped up, scaled to 1 and subtracted from the
    rows below it, and from the rows above it too when reduced.  The pivot
    row is zero left of the pivot, so row operations start at the pivot
    column.  Returns the pivot columns, the pivot entries before scaling,
    and the sign of the row permutation.
    """
    f = field
    n = len(rows)
    pivots, entries, sign = [], [], 1
    for c in range(ncols):
        r = len(pivots)
        if r == n:
            break
        pr = next((i for i in range(r, n) if not f.is_zero(rows[i][c])), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        piv = rows[r][c]
        inv = f.inv(piv)
        tail = rows[r][c:] = [f.mul(inv, v) for v in rows[r][c:]]
        for i in range(0 if reduced else r + 1, n):
            coef = rows[i][c]
            if i != r and not f.is_zero(coef):
                rows[i][c:] = [f.sub(v, f.mul(coef, w)) for v, w in zip(rows[i][c:], tail)]
        pivots.append(c)
        entries.append(piv)
    return pivots, entries, sign


# -- GF(p): the same loops on plain int rows -----------------------------------
#
# The product reduces each entry's sum of int products once.  Elimination
# reduces its entries into range(p) on the way in, so a residue is
# zero exactly when it is falsy; each row operation then takes one % p per
# entry.


def _gf_matmul(A, B):
    """Row by row, the row-wise sparse product of Gustavson (ACM Trans. Math.
    Softw. 4(3), 1978) for the rows of A with at most one nonzero entry,
    which the shears and diagonal embeddings of the verifiers are mostly
    made of: a zero row gives zeros, a row whose one nonzero entry, c = the
    row's sum, sits at t gives c times row t of B, and any other row one dot
    product per column slice B.entries[j::m].  Entries of A and B may lie
    outside range(p), so every entry is reduced."""
    p, k, m = A.field.p, A.cols, B.cols
    a, b = A.entries, B.entries
    cols = [b[j::m] for j in range(m)]
    out = []
    for i in range(A.rows):
        r = a[i * k:i * k + k]
        zeros = r.count(0)
        if zeros < k - 1:
            out += [sum(map(operator.mul, r, col)) % p for col in cols]
        elif zeros == k:
            out += [0] * m
        else:
            c = sum(r)
            t = r.index(c) * m
            out += [c * v % p for v in b[t:t + m]]
    return Matrix(A.field, A.rows, m, tuple(out))


def _gf_rows(M):
    p, m, e = M.field.p, M.cols, M.entries
    return [[v % p for v in e[i * m : (i + 1) * m]] for i in range(M.rows)]


def _gf_eliminate(rows, field, ncols, *, reduced):
    """_eliminate over GF(p), in place, on rows of residues in range(p):
    the same pivots, swaps and row operations, and the same return value."""
    p, n = field.p, len(rows)
    pivots, entries, sign = [], [], 1
    for c in range(ncols):
        r = len(pivots)
        if r == n:
            break
        for pr in range(r, n):
            if rows[pr][c]:
                break
        else:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        piv = rows[r][c]
        if piv != 1:
            inv = pow(piv, -1, p)
            rows[r][c:] = [inv * v % p for v in rows[r][c:]]
        tail = rows[r][c:]
        for i in range(0 if reduced else r + 1, n):
            row = rows[i]
            coef = row[c]
            if coef and i != r:
                row[c:] = [(v - coef * w) % p for v, w in zip(row[c:], tail)]
        pivots.append(c)
        entries.append(piv)
    return pivots, entries, sign


# -- GF(2): rows packed into ints, bit j holding column j ----------------------
#
# Addition is XOR and every pivot is 1, so a row operation is one XOR of two
# ints (the M4RI idea: Albrecht, Bard & Hart, ACM TOMS 37(1), 2010).  The GF
# record runs these kernels when p = 2; entries are read by parity, so they
# may lie outside range(2).

def _gf2_pack(M):
    """M's rows as ints, bit j the parity of column j."""
    m, e = M.cols, M.entries
    if not m:
        return [0] * M.rows
    rows = []
    for i in range(0, len(e), m):
        x = 0
        for v in reversed(e[i:i + m]):
            x = x << 1 | v & 1
        rows.append(x)
    return rows


def _gf2_unpack(rows, lo, hi):
    """Bits lo..hi-1 of each row, as 0/1 ints, row after row."""
    return tuple([x >> j & 1 for x in rows for j in range(lo, hi)])


def _gf2_eliminate(rows, ncols, *, reduced):
    """_eliminate over GF(2), in place, on packed rows: the same pivots,
    swaps and row operations.  Rows at and below the current one are zero
    left of the current column, so the next pivot column is the lowest bit
    of their union.  Returns the pivot columns."""
    n, mask = len(rows), (1 << ncols) - 1
    pivots = []
    while len(pivots) < n:
        r = len(pivots)
        rest = reduce(operator.or_, rows[r:], 0)
        bit = rest & mask & -rest
        if not bit:
            break
        pr = next(i for i in range(r, n) if rows[i] & bit)
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        for i in range(0 if reduced else r + 1, n):
            if rows[i] & bit and i != r:
                rows[i] ^= prow
        pivots.append(bit.bit_length() - 1)
    return pivots


def _gf2_augmented(M):
    """The reduced elimination of [M | I] on packed rows: (pivots, rows)."""
    m = M.cols
    rows = [x | 1 << (m + i) for i, x in enumerate(_gf2_pack(M))]
    return _gf2_eliminate(rows, m, reduced=True), rows


def _gf2_rref(M):
    f, n, m = M.field, M.rows, M.cols
    pivots, rows = _gf2_augmented(M)
    return RrefResult(len(pivots), Matrix(f, n, m, _gf2_unpack(rows, 0, m)),
                      Matrix(f, n, n, _gf2_unpack(rows, m, m + n)), tuple(pivots))


def _gf2_rref_rows(M):
    rows = _gf2_pack(M)
    pivots = _gf2_eliminate(rows, M.cols, reduced=True)
    return tuple(pivots), [[x >> j & 1 for j in range(M.cols)] for x in rows[:len(pivots)]]


def _gf2_rank(M):
    return len(_gf2_eliminate(_gf2_pack(M), M.cols, reduced=False))


def _gf2_det(M):
    return int(_gf2_rank(M) == M.rows)


def _gf2_inverse(M):
    n = M.rows
    pivots, rows = _gf2_augmented(M)
    if len(pivots) < n:
        raise MatrixError("matrix is singular")
    return Matrix(M.field, n, n, _gf2_unpack(rows, n, 2 * n))


def _gf2_matmul(A, B):
    """Row i of A @ B is the XOR of the packed rows t of B with A[i][t] odd."""
    k = A.cols
    a, b = A.entries, _gf2_pack(B)
    out = []
    for i in range(A.rows):
        acc = 0
        for v, x in zip(a[i * k:i * k + k], b):
            if v & 1:
                acc ^= x
        out.append(acc)
    return Matrix(A.field, A.rows, B.cols, _gf2_unpack(out, 0, B.cols))


def _gf2_char_poly(M):
    """_hessenberg_char_poly at p = 2 on packed rows.  The row operations of
    one m clear column m - 1 below the subdiagonal by XOR with row m; their
    column operations all add columns to column m, so they run as one: row r
    gains at column m the parity of its bits in the set U of cleared rows.
    The chi_m are GF(2)[x] polynomials held as ints, bit j the coefficient of
    x^j."""
    a = _gf2_pack(M)
    n = len(a)
    for m in range(1, n - 1):
        bit = 1 << (m - 1)
        k = next((i for i in range(m, n) if a[i] & bit), None)
        if k is None:
            continue  # column m - 1 is zero below the subdiagonal already
        if k != m:
            a[k], a[m] = a[m], a[k]
            swap = 1 << k | 1 << m
            a = [x ^ swap if (x >> k ^ x >> m) & 1 else x for x in a]
        U = 0
        for i in range(m + 1, n):
            if a[i] & bit:
                a[i] ^= a[m]
                U |= 1 << i
        if U:
            a = [x ^ 1 << m if (x & U).bit_count() & 1 else x for x in a]
    chi = [1]
    for m in range(n):
        c = chi[m] << 1 ^ (chi[m] if a[m] >> m & 1 else 0)
        for i in range(m - 1, -1, -1):
            if not a[i + 1] >> i & 1:
                break  # a zero subdiagonal entry ends the sum
            if a[i] >> m & 1:
                c ^= chi[i]
        chi.append(c)
    return UniPoly(M.field, _gf2_unpack([chi[n]], 0, n + 1))


# -- QQ: fraction-free elimination of the row-cleared integer matrix -----------


def _bareiss(rows, ncols, *, reduced):
    """Fraction-free Gaussian elimination over ZZ (Bareiss, Math. Comp. 22,
    1968), in place, on the first ncols columns of integer rows, with
    _eliminate's pivot rule.  Each step sets a[i] <- (p a[i] - a[i][c] a[r]) / p'
    for every other row i below the pivot p = a[r][c], and above it too when
    reduced, p' being the previous pivot; the division is exact, since every
    entry is then a minor of the input, and the earlier pivots all become p.
    Returns the pivot columns, the last pivot (1 if none) and the sign of the
    row permutation: sign * last pivot is the determinant of a nonsingular
    square matrix."""
    n = len(rows)
    pivots, prev, sign = [], 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == n:
            break
        pr = next((i for i in range(r, n) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        prow = rows[r]
        piv = prow[c]
        for i in range(0 if reduced else r + 1, n):
            if i != r:
                row, s = rows[i], 0 if i < r else c
                coef = row[c]
                row[s:] = [(piv * v - coef * w) // prev for v, w in zip(row[s:], prow[s:])]
        pivots.append(c)
        prev = piv
    return pivots, prev, sign


def _int_det(rows):
    n = len(rows)
    pivots, last, sign = _bareiss(rows, n, reduced=False)
    return sign * last if len(pivots) == n else 0


def _int_adjugate(rows):
    """(det N, adj N) of a square integer matrix N, from the reduced Bareiss
    elimination of [N | I] into [p I | p N^-1], p = sign det N; (0, None)
    when N is singular."""
    n = len(rows)
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    pivots, last, sign = _bareiss(a, n, reduced=True)
    if len(pivots) < n:
        return 0, None
    return sign * last, [[sign * v for v in row[n:]] for row in a]


def _cleared_rows(M):
    """The rows of a QQ matrix as int lists, row i multiplied by the lcm d_i
    of its denominators, and the d_i."""
    rows, ds = [], []
    for i in range(M.rows):
        row = M.entries[i * M.cols : (i + 1) * M.cols]
        d = lcm(*(a.denominator for a in row))
        rows.append([a.numerator * (d // a.denominator) for a in row])
        ds.append(d)
    return rows, ds


def _qq_matmul(A, B):
    """Row by row, as over GF(p), on the rows of A cleared to ints: a zero
    row gives zeros, a row whose one nonzero entry c sits at t gives row t of
    B, times c unless c = 1, and any other row times the column-cleared B in
    ints, one Fraction per entry.  B is cleared on the first such row."""
    k, m = A.cols, B.cols
    a, b = A.entries, B.entries
    cols = None
    out = []
    for i, (row, d) in enumerate(zip(*_cleared_rows(A))):
        zeros = row.count(0)
        if zeros < k - 1:
            if cols is None:
                cols = list(zip(*_cleared_rows(B.transpose())))
            out += [Fraction(sum(map(operator.mul, row, col)), d * dc) for col, dc in cols]
        elif zeros == k:
            out += [Fraction(0)] * m
        else:
            t = row.index(sum(row))
            c, brow = a[i * k + t], b[t * m:t * m + m]
            out += brow if c == 1 else [c * v for v in brow]
    return Matrix(A.field, A.rows, m, tuple(out))


def _qq_rank(M):
    return len(_bareiss(_cleared_rows(M)[0], M.cols, reduced=False)[0])


def _qq_det(M):
    """det N / prod d_i for the row-cleared N."""
    rows, ds = _cleared_rows(M)
    return Fraction(_int_det(rows), prod(ds))


def _qq_inverse(M):
    """M^-1 = N^-1 diag(d) = adj(N) diag(d) / det N for the row-cleared N."""
    rows, ds = _cleared_rows(M)
    d, adj = _int_adjugate(rows)
    if not d:
        raise MatrixError("matrix is singular")
    return Matrix(M.field, M.rows, M.rows, tuple(Fraction(v * dj, d)
                                                 for row in adj for v, dj in zip(row, ds)))


# -- QQ(t) rank, det and inverse by evaluation at integer points ---------------
#
# Scaling row i of M by the lcm q_i of its denominators gives N = diag(q) M
# over ZZ[t].  Every minor of N has degree at most D, the sum of N's row
# degrees, so a nonzero one is nonzero at one of any D + 1 points, and a
# minor is the interpolant of its values there.  Each point N(t0) is an
# integer matrix, eliminated by _bareiss; RatFunc.make keeps every entry in
# canonical form.


def _qqt_cleared(M):
    """(N, q, D): the rows of N as lists of ZZ[t] entries, the q_i, and D."""
    N, q, D = [], [], 0
    for i in range(M.rows):
        row = M.row_list(i)
        qi = (1,)
        for a in row:
            if a.den != (1,):
                qi = ipoly_lcm(qi, a.den)
        N.append([ipoly_mul(a.num, ipoly_exquo(qi, a.den)) for a in row])
        q.append(qi)
        D += max([0] + [len(v) - 1 for v in N[-1]])
    return N, q, D


def _at(N, t0):
    """N(t0) as integer rows."""
    return [[ipoly_eval(v, t0) for v in row] for row in N]


def _qqt_rank(M):
    N, _, D = _qqt_cleared(M)
    full = min(M.rows, M.cols)
    best = 0
    for t0 in range(D + 1):
        best = max(best, len(_bareiss(_at(N, t0), M.cols, reduced=False)[0]))
        if best == full:
            break
    return best


def _qqt_det(M):
    N, q, D = _qqt_cleared(M)
    xs = range(D + 1)
    den = (1,)
    for qi in q:
        den = ipoly_mul(den, qi)
    return RatFunc.make(ipoly_interpolate(xs, [_int_det(_at(N, t0)) for t0 in xs]), den)


def _qqt_inverse(M):
    """adj(N) and det N interpolated from D + 1 points where det N(t0) != 0;
    a nonzero det N has at most D roots, so 0, ..., 2D hold enough of them.
    M^-1 = N^-1 diag(q) = adj(N) diag(q) / det N."""
    n = M.rows
    N, q, D = _qqt_cleared(M)
    xs, dets, adjs = [], [], []
    for t0 in range(2 * D + 1):
        d, adj = _int_adjugate(_at(N, t0))
        if d:
            xs.append(t0)
            dets.append(d)
            adjs.append([v for row in adj for v in row])
            if len(xs) == D + 1:
                break
    else:
        raise MatrixError("matrix is singular")
    det_n = ipoly_interpolate(xs, dets)
    ent = tuple(RatFunc.make(ipoly_mul(ipoly_interpolate(xs, [adj[j] for adj in adjs]), q[j % n]),
                             det_n)
                for j in range(n * n))
    return Matrix(M.field, n, n, ent)


def kernel_basis(M: Matrix) -> Matrix:
    """The canonical basis of {v : M v = 0}, one vector per row, one row per
    free column of the rref in column order; (M.cols - rank) x M.cols."""
    ker = _kernel_vectors(M.field, M.cols, *rref_rows(M))
    return Matrix(M.field, len(ker), M.cols, tuple(x for v in ker for x in v))


def _kernel_vectors(f, ncols, pivots, rows) -> list:
    """The vectors of kernel_basis, as lists, read off the pivots and the
    nonzero rows of an rref with ncols columns (as rref_rows gives them)."""
    piv = set(pivots)
    basis = []
    for free in range(ncols):
        if free in piv:
            continue
        v = [f.zero] * ncols
        v[free] = f.one
        for row, pc in zip(rows, pivots):
            v[pc] = f.neg(row[free])
        basis.append(v)
    return basis


class Span:
    """Incremental span of vectors over a field, for membership tests while a
    basis is built one vector at a time; starts as the span of vecs."""

    def __init__(self, field, vecs=()):
        self.field = field
        self.rows = {}  # pivot index -> reduced row (list), 1 at its pivot and 0 left of it
        for v in vecs:
            self.add(v)

    def _reduce(self, vec) -> tuple[list, int | None]:
        """vec reduced by the rows, in the order of their pivots, and the
        index of its first nonzero entry, None when it reduces to zero."""
        f, v = self.field, list(vec)
        for piv in sorted(self.rows):
            if not f.is_zero(v[piv]):
                c = v[piv]
                v = [f.sub(a, f.mul(c, b)) for a, b in zip(v, self.rows[piv])]
        return v, next((i for i, x in enumerate(v) if not f.is_zero(x)), None)

    def contains(self, vec) -> bool:
        return self._reduce(vec)[1] is None

    def add(self, vec) -> bool:
        """Add vec; False when it is in the span already."""
        v, piv = self._reduce(vec)
        if piv is None:
            return False
        inv = self.field.inv(v[piv])
        self.rows[piv] = [self.field.mul(inv, x) for x in v]
        return True


def solve_right(A: Matrix, B: Matrix) -> Matrix | None:
    """A particular X with A @ X = B, or None; free variables are set to 0."""
    if A.rows != B.rows:
        raise MatrixError("shape mismatch in solve")
    f = A.field
    res = rank_and_rref(A)
    rb = res.transform @ B
    for i in range(res.rank, A.rows):
        for j in range(B.cols):
            if not f.is_zero(rb.entry(i, j)):
                return None
    ent = [f.zero] * (A.cols * B.cols)
    for r, pc in enumerate(res.pivots):
        for j in range(B.cols):
            ent[pc * B.cols + j] = rb.entry(r, j)
    return Matrix(f, A.cols, B.cols, tuple(ent))


def solve_left(A: Matrix, B: Matrix) -> Matrix | None:
    """A particular X with X @ A = B, or None."""
    xt = solve_right(A.transpose(), B.transpose())
    return None if xt is None else xt.transpose()


_ZZ = SimpleNamespace(zero=0, one=1, add=operator.add, mul=operator.mul, neg=operator.neg)


def char_poly(M: Matrix) -> UniPoly:
    """det(xI - M), monic: over GF(p) by Hessenberg reduction; over QQ by
    Berkowitz on the integer matrix d M, d the lcm of all denominators, whose
    coefficient of x^i is d^(n-i) times M's; over QQ(t) by Berkowitz."""
    if not M.is_square:
        raise MatrixError("characteristic polynomial of non-square matrix")
    return _kernels(M.field).char_poly(M)


def _generic_char_poly(M):
    return UniPoly(M.field, tuple(_berkowitz(M.to_rows(), M.field)[::-1]))


def _gf_char_poly(M):
    return UniPoly(M.field, tuple(_hessenberg_char_poly(_gf_rows(M), M.field.p)))


def _qq_char_poly(M):
    rows, ds = _cleared_rows(M)
    d = lcm(*ds)
    c = _berkowitz([[v * (d // di) for v in row] for row, di in zip(rows, ds)], _ZZ)
    return UniPoly(M.field, tuple(Fraction(ci, d ** i) for i, ci in enumerate(c))[::-1])


def _berkowitz(a, R):
    """Descending coefficients of det(xI - A), A a square list of rows over
    the ring R (its zero, one, add, mul and neg), by the division-free
    Berkowitz scheme: with A_k the leading k x k block, r and c the row and
    column that extend it and a = A[k][k], det(xI - A_(k+1)) is the product
    of the lower triangular Toeplitz matrix on 1, -a, -r c, -r A_k c, ...,
    -r A_k^(k-1) c with the coefficients of det(xI - A_k)."""
    dot = lambda xs, ys: reduce(R.add, map(R.mul, xs, ys), R.zero)
    p = [R.one]
    for k in range(len(a)):
        block = [row[:k] for row in a[:k]]
        r, v = a[k][:k], [row[k] for row in a[:k]]
        col = [R.one, R.neg(a[k][k])]
        for _ in range(k):
            col.append(R.neg(dot(r, v)))
            v = [dot(row, v) for row in block]
        p = [dot(col[i::-1], p) for i in range(k + 2)]
    return p


def _hessenberg_char_poly(a, p):
    """Ascending coefficients of det(xI - A) over GF(p), A a square list of
    residue rows (changed in place): a similarity reduces A to upper
    Hessenberg form H, then chi_0 = 1 and
    chi_(m+1) = (x - h_mm) chi_m - sum_(i<m) h_im h_(i+1,i) ... h_(m,m-1) chi_i
    over H's leading blocks (Cohen, GTM 138, Alg. 2.2.9)."""
    n = len(a)
    for m in range(1, n - 1):
        k = next((i for i in range(m, n) if a[i][m - 1]), None)
        if k is None:
            continue  # column m - 1 is zero below the subdiagonal already
        if k != m:
            a[k], a[m] = a[m], a[k]
            for row in a:
                row[k], row[m] = row[m], row[k]
        inv = pow(a[m][m - 1], -1, p)
        for i in range(m + 1, n):
            u = a[i][m - 1] * inv % p
            if u:  # row_i -= u row_m, then column_m += u column_i
                a[i][m - 1 :] = [(x - u * y) % p for x, y in zip(a[i][m - 1 :], a[m][m - 1 :])]
                for row in a:
                    row[m] = (row[m] + u * row[i]) % p
    chi = [[1]]
    for m in range(n):
        c = [0] + chi[m]
        h = a[m][m]
        for j, v in enumerate(chi[m]):
            c[j] -= h * v
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * a[i + 1][i] % p
            if not t:
                break  # a zero subdiagonal entry ends the sum
            u = a[i][m] * t
            for j, v in enumerate(chi[i]):
                c[j] -= u * v
        chi.append([v % p for v in c])
    return chi[n]


_GENERIC = _Kernels(matmul=_generic_matmul, **_elimination_readers(Matrix.to_rows, _eliminate),
                    char_poly=_generic_char_poly)
_GFP = _GENERIC._replace(matmul=_gf_matmul, **_elimination_readers(_gf_rows, _gf_eliminate),
                         char_poly=_gf_char_poly)
_GF2 = _Kernels(matmul=_gf2_matmul, rref=_gf2_rref, rref_rows=_gf2_rref_rows, rank=_gf2_rank,
                det=_gf2_det, inverse=_gf2_inverse, char_poly=_gf2_char_poly)


def _by_p(name):
    """The GF kernel ``name``: on packed rows at p = 2, on int rows above."""
    two, odd = getattr(_GF2, name), getattr(_GFP, name)
    if name == "matmul":
        return lambda A, B: (two if A.field.p == 2 else odd)(A, B)
    return lambda M: (two if M.field.p == 2 else odd)(M)


# Over QQ and QQ(t) the transform of singular input is not unique, so rref
# stays on the generic loop there
_KERNELS = {
    GF: _Kernels(*map(_by_p, _Kernels.__slots__)),
    QQ: _GENERIC._replace(matmul=_qq_matmul, rank=_qq_rank, det=_qq_det, inverse=_qq_inverse,
                          char_poly=_qq_char_poly),
    QQT: _GENERIC._replace(rank=_qqt_rank, det=_qqt_det, inverse=_qqt_inverse),
}


def eigen_data(M: Matrix) -> list[tuple]:
    """All K-rational eigenvalues with geometric multiplicities, in canonical order."""
    if not M.is_square:
        raise MatrixError("eigen_data of non-square matrix")
    f = M.field
    n = M.rows
    if isinstance(f, QQT):
        raise UnsupportedFieldOperation("eigenvalues over QQ(t) are not supported")
    if isinstance(f, GF):
        candidates = gfpoly_roots(char_poly(M).coeffs, f.p)
    else:
        candidates = qpoly_rational_roots(char_poly(M).coeffs)
    out = []
    ident = Matrix.identity(f, n)
    for lam in candidates:
        r = rank(M - ident.scale(lam))
        if r < n:
            out.append((lam, n - r))
    out.sort(key=lambda t: f.sort_key(t[0]))
    return out


def limit_at_zero(M: Matrix) -> Matrix:
    """Entrywise evaluation of a QQ(t) matrix at t=0; PoleAtZero on failure."""
    f = M.field
    if not isinstance(f, QQT):
        raise MatrixError("limit_at_zero expects a matrix over QQ(t)")
    qq = QQ()
    ent = []
    for i in range(M.rows):
        for j in range(M.cols):
            a = M.entry(i, j)
            if f.has_pole_at_zero(a):
                raise PoleAtZero(i + 1, j + 1)
            ent.append(f.value_at_zero(a))
    return Matrix(qq, M.rows, M.cols, tuple(ent))


def lift_to_qqt(M: Matrix) -> Matrix:
    """Embed a QQ matrix into QQ(t)."""
    if not isinstance(M.field, QQ):
        raise MatrixError("lift_to_qqt expects a QQ matrix")
    qqt = QQT()
    return M.map_field(qqt, qqt.coerce)


def random_matrix(n: int, m: int, field, rng) -> Matrix:
    return Matrix(field, n, m, tuple(field.random(rng) for _ in range(n * m)))


def random_invertible(n: int, field, rng) -> Matrix:
    """Deterministic-given-seed invertible sample over GF(p) or QQ."""
    if isinstance(field, QQT):
        raise UnsupportedFieldOperation("random_invertible over QQ(t) is not supported")
    while True:
        M = random_matrix(n, n, field, rng)
        if rank(M) == n:
            return M
