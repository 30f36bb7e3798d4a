"""Tuple rank, shift rank, and the off-diagonal submatrix criterion.

The rank of a tuple (Q_1, ..., Q_k) is the minimum rank of a nonzero linear
combination, indexed by projective space.  Over finite fields the minimum is
found by full projective enumeration; for tuples (P, I) it reduces to the
shift rank min over lambda of rank(P - lambda I), which eigenvalue data gives
over any field with decidable eigenvalues.

The off-diagonal criterion asks whether every conjugate g P g^{-1} has a
small block in rows K and columns L.  That block's rank depends only on a
pair of subspaces (the row space of g[K,:] and the column space of
g^{-1}[:,L]), so the exhaustive check works over Grassmannian pairs in RREF
order, 35 for n = 4, m = 2 over GF(2) instead of the 20160 elements of
GL_4(F_2).  What does not depend on P (each subspace as a matrix, a basis of
its kernel, and the subspaces' order by RREF rows read last first) is built
once per (m, n, p), on first use, and cached.  The witness's first m rows
are the RREF rows, last first, of the first subspace in that order with a
failing pair, and a walk ranks a subspace's pairs only when it reaches it.
A failed check reports the first conjugator g of GL_n(F_q) in the
lexicographic order of (row 0, ..., row n-1), each row a tuple of residues.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cache, cached_property

from .fields import GF, UnsupportedFieldOperation
from .matrix import (
    Matrix,
    MatrixError,
    _kernel_vectors,
    eigen_data,
    inverse,
    random_invertible,
    rank,
)

ENUMERATION_BUDGET = 10**6


class BudgetExceeded(ValueError):
    pass


@dataclass(frozen=True)
class PencilTuple:
    matrices: tuple

    @staticmethod
    def make(matrices) -> "PencilTuple":
        ms = tuple(matrices)
        if not ms:
            raise MatrixError("empty pencil tuple")
        f, r, c = ms[0].field, ms[0].rows, ms[0].cols
        for m in ms:
            if m.field != f or (m.rows, m.cols) != (r, c):
                raise MatrixError("pencil matrices must share shape and field")
        return PencilTuple(ms)


@dataclass(frozen=True)
class ShiftRankResult:
    lam: object  # scalar or None when no K-eigenvalue exists
    rank: int


def shift_rank(P: Matrix) -> ShiftRankResult:
    """Minimize rank(P - lambda I) over lambda in K.

    Ties break toward lambda = 0, then the field's canonical scalar order.
    When P has no K-eigenvalue the result carries lam=None and rank n.
    """
    if not P.is_square:
        raise MatrixError("shift_rank of non-square matrix")
    f = P.field
    n = P.rows
    eig = eigen_data(P)
    if not eig:
        return ShiftRankResult(None, n)
    best_mult = max(m for _, m in eig)
    cands = [lam for lam, m in eig if m == best_mult]
    zero = f.zero
    lam = zero if zero in cands else min(cands, key=f.sort_key)
    return ShiftRankResult(lam, n - best_mult)


def tuple_rank_identity(P: Matrix) -> int:
    """rk(P, I_n): the minimum rank over the projective pencil through P and I."""
    return min(P.rows, shift_rank(P).rank)


def projective_points(field, k: int):
    """Points of P^{k-1}(F_q), first nonzero coordinate normalized to 1.

    Canonical order: by position of the leading 1, then remaining coordinates
    lexicographically in the field's scalar order.  Witness reporting relies
    on this order being fixed.
    """
    if not isinstance(field, GF):
        raise UnsupportedFieldOperation("projective enumeration needs a finite field")
    elems = list(field.elements())
    for lead in range(k):
        for tail in itertools.product(elems, repeat=k - lead - 1):
            yield (field.zero,) * lead + (field.one,) + tail


def projective_count(q: int, k: int) -> int:
    return (q**k - 1) // (q - 1)


def pencil_rank_enumerate(tup: PencilTuple) -> tuple[int, tuple]:
    """Exact minimum rank over P^{k-1}(F_q) with the canonical minimizing witness."""
    ms = tup.matrices
    f = ms[0].field
    if not isinstance(f, GF):
        raise UnsupportedFieldOperation("pencil_rank_enumerate needs a finite field")
    k = len(ms)
    if projective_count(f.p, k) > ENUMERATION_BUDGET:
        raise BudgetExceeded(f"P^{k-1}(F_{f.p}) exceeds the enumeration budget")
    best_rank = None
    best_point = None
    for mu in projective_points(f, k):
        comb = None
        for c, M in zip(mu, ms):
            if f.is_zero(c):
                continue
            term = M if c == f.one else M.scale(c)
            comb = term if comb is None else comb + term
        r = rank(comb)
        if best_rank is None or r < best_rank:
            best_rank, best_point = r, mu
            if r == 0:
                break
    return best_rank, best_point


# ---------------------------------------------------------------------------
# Subspaces of F_q^n (Grassmannians in reduced row echelon form)
# ---------------------------------------------------------------------------

def gaussian_binomial(n: int, k: int, q: int) -> int:
    """The number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def enumerate_subspaces(k: int, n: int, p: int):
    """Yield every k-dimensional subspace of F_p^n once, as its RREF rows.

    Canonical order: by pivot columns in itertools.combinations order, then
    the free entries lexicographically, row by row.
    """
    for pivots in itertools.combinations(range(n), k):
        free = [(i, c) for i, pc in enumerate(pivots) for c in range(pc + 1, n)
                if c not in pivots]
        for vals in itertools.product(range(p), repeat=len(free)):
            rows = [[int(c == pc) for c in range(n)] for pc in pivots]
            for (i, c), v in zip(free, vals):
                rows[i][c] = v
            yield tuple(tuple(r) for r in rows)


class _SubspaceTable:
    """What the exhaustive checks over Gr(m, n) at GF(p) read that does not
    depend on P.  For each R, in the order of :func:`enumerate_subspaces`:
    its Matrix of RREF rows and B^T for the canonical basis rows B of ker R,
    read off those rows (each pivot is the row's first 1) with no elimination.
    For each X of Gr(m, n - m), in that order: X^T, so that the candidate
    C = (X B)^T in ker R is B^T X^T; a check forms C only for a pair it finds
    bad.  The transposes of the R's and the walk's order of the R's are built
    on first use, so the minor test never sorts the R's and the off-diagonal
    check never transposes an R.  Only values are held."""

    def __init__(self, m: int, n: int, p: int):
        f = GF(p)
        rs, bts = [], []
        for rows in enumerate_subspaces(m, n, p):
            ker = _kernel_vectors(f, n, [row.index(1) for row in rows], rows)
            rs.append(Matrix.from_rows(f, rows))
            bts.append(Matrix(f, n, n - m, tuple(v[i] for i in range(n) for v in ker)))
        self.rs, self.bts = tuple(rs), tuple(bts)
        self.xts = tuple(Matrix.from_rows(f, rows).transpose()
                         for rows in enumerate_subspaces(m, n - m, p))

    @cached_property
    def rts(self) -> tuple:
        return tuple(R.transpose() for R in self.rs)

    @cached_property
    def order(self) -> tuple:
        """The indices of the R's sorted by their RREF rows read last first,
        the order in which :func:`_witness_walk` meets them; each key is one
        int with those rows' entries as base-p digits, to keep the keys small."""
        p = self.rs[0].field.p

        def key(i):
            c = 0
            for row in reversed(self.rs[i].to_rows()):
                for x in row:
                    c = c * p + x
            return c
        return tuple(sorted(range(len(self.rs)), key=key))


@cache
def _subspace_table(m: int, n: int, p: int) -> _SubspaceTable:
    """The table of Gr(m, n) over GF(p), built on its first use."""
    return _SubspaceTable(m, n, p)


def _bad_columns(P: Matrix, k: int, table: _SubspaceTable, i: int) -> list:
    """Every C in ker R, R = table.rs[i], with rank(R P C) > k, as a Matrix of
    basis columns, in the order of the X's.

    R P C = W X^T with W = R P B^T, so an R with rank W <= k has no bad C
    and costs one rank; otherwise each X costs the rank of the m x m
    product W X^T."""
    Bt = table.bts[i]
    W = table.rs[i] @ P @ Bt
    if rank(W) <= k:
        return []  # rank(R P C) = rank(W X^T) <= rank W
    return [Bt @ Xt for Xt in table.xts if rank(W @ Xt) > k]


def _grow(vecs: set, v, p: int) -> set:
    """The vectors of span(vecs, v) mod p, for vecs the vectors of a span."""
    return vecs | {tuple((a + c * b) % p for a, b in zip(u, v)) for u in vecs for c in range(1, p)}


def _witness_walk(P: Matrix, k: int, m: int) -> list | None:
    """Rows of the first g of GL_n(F_p), in the lexicographic order of its
    rows, whose key (R, C), R the row space of g[K] and C the kernel of the
    rows of g outside L, has rank(R P C) > k; None when no pair (R, C) has,
    so P passes.

    The rows are chosen one at a time, each the least vector outside the span
    of the rows before it that keeps some bad pair (R, C) reachable.  A row
    in K must lie in R.  For R in RREF with rows r_1, ..., r_m, the least
    vector of R outside span(r_(j+1), ..., r_m) is r_j: its first nonzero
    entry sits at r_j's pivot, as late as any can, with value 1 and 0 at the
    later pivots.  So the K rows are r_m, ..., r_1 of the first R in
    ``table.order`` with a bad C (:func:`_bad_columns`, found only for the
    R's the walk reaches): a bad R holding the rows picked so far has them
    as its last RREF rows, or an R before it would be bad.  The other rows
    are tested by their image v C in F_p^m, as ann(C) is the kernel of
    v -> v C: a row after L must have image 0, and a row in L an image
    outside the span of the images of the L rows before it.  Exactly the
    prefixes that meet these conditions extend to an invertible g with key
    (R, C), so the walk never backtracks.  Each candidate row tested counts
    against the enumeration budget; a tested row that fails stands for at
    least one g the full enumeration visits before the witness, so wherever
    |GL_n| fits the budget, the walk does.  Every vector of
    span(r_(j+1), ..., r_m) comes before r_j, so the K rows test
    sum_j code(r_j) + m - (p^m - 1)/(p - 1) rows, code(v) =
    sum_i v_i p^(n-1-i) being the vectors before v; a P that passes tests none.
    """
    n, p = P.rows, P.field.p
    table = _subspace_table(m, n, p)

    def image(cols, v):  # v C, for C given by its columns
        return tuple(sum(map(operator.mul, v, col)) % p for col in cols)

    for r in table.order:
        bad = _bad_columns(P, k, table, r)
        if bad:
            break
    else:
        return None
    rows = [tuple(v) for v in table.rs[r].to_rows()[::-1]]
    tested = sum(x * p ** (n - 1 - i) for v in rows for i, x in enumerate(v))
    tested += m - (p**m - 1) // (p - 1)
    if tested > ENUMERATION_BUDGET:
        raise BudgetExceeded("the witness walk exceeds the enumeration budget")
    # each live C: its columns, and the span of the L rows' images
    live, prefix = [(C.transpose().to_rows(), {(0,) * m}) for C in bad], {(0,) * n}
    for d in range(1, n):
        prefix = _grow(prefix, rows[d - 1], p)
        if d < m:
            continue
        for v in itertools.product(range(p), repeat=n):
            if v in prefix:
                continue
            tested += 1
            if tested > ENUMERATION_BUDGET:
                raise BudgetExceeded("the witness walk exceeds the enumeration budget")
            if d < 2 * m:
                keep = [(cols, ims) for cols, ims in live if image(cols, v) not in ims]
            else:
                keep = [(cols, ims) for cols, ims in live if not any(image(cols, v))]
            if keep:
                live = keep
                break
        if d < 2 * m:
            live = [(cols, _grow(ims, image(cols, v), p)) for cols, ims in live]
        rows.append(v)
    return rows


def _refuse_over_budget(trials: int) -> None:
    """Refuse, before any draw, a sampled count above the enumeration budget."""
    if trials > ENUMERATION_BUDGET:
        raise BudgetExceeded(f"{trials} trials exceed the enumeration budget "
                             f"of {ENUMERATION_BUDGET}")


def _sampled_conjugates(P: Matrix, trials: int, rng):
    """Yield (g, g P g^{-1}) for ``trials`` random invertible g drawn from rng,
    one draw per pair, the sampled mode of both conjugation criteria."""
    if rng is None:
        raise ValueError("sampled mode needs an rng")
    if not isinstance(trials, int) or trials < 1:
        raise ValueError(f"sampled mode needs an int trials >= 1, got {trials!r}")
    _refuse_over_budget(trials)
    for _ in range(trials):
        g = random_invertible(P.rows, P.field, rng)
        yield g, g @ P @ inverse(g)


def offdiag_criterion_check(P: Matrix, k: int, m: int, mode: str = "exhaustive",
                            trials: int | None = None, rng=None):
    """Decide whether every conjugate Q of P has rank(Q_[K,L]) <= k.

    K = the first m indices and L = the next m indices.  In exhaustive mode the
    verdict equals tuple_rank_identity(P) <= k whenever n >= 2m >= 2(k+1).

    Exhaustive mode scans subspace pairs, not GL_n(F_q): with U = g[K,:] and
    V = g^{-1}[:,L], Q_[K,L] = U P V and U V = 0, so the rank depends only on
    R = row space of U and C = column space of V, with C inside ker R; since
    n >= 2m every such pair comes from some g.  A False verdict carries a
    certified witness (g, K, L): g is the first element of GL_n(F_q), in the
    lexicographic order of its rows, whose block has rank > k, found by a walk
    that skips every row prefix that cannot reach such a pair and ranks the
    pairs of a subspace only when it reaches it.  The enumeration budget
    bounds the number of pairs and the rows the walk tests.

    Sampled mode draws ``trials`` random conjugators and random disjoint index
    pairs from rng; both have no default, a count above the enumeration
    budget raises BudgetExceeded before any draw, and a pass is statistical.
    """
    f = P.field
    n = P.rows
    if not P.is_square:
        raise MatrixError("offdiag criterion expects a square matrix")
    if not (n >= 2 * m >= 2 * (k + 1) and k >= 0):
        raise ValueError(f"need n >= 2m >= 2(k+1) and k >= 0, got n={n}, m={m}, k={k}")
    K = tuple(range(m))
    L = tuple(range(m, 2 * m))
    if mode == "exhaustive":
        if not isinstance(f, GF):
            raise UnsupportedFieldOperation("exhaustive mode needs a finite field")
        if gaussian_binomial(n, m, f.p) * gaussian_binomial(n - m, m, f.p) > ENUMERATION_BUDGET:
            raise BudgetExceeded("the subspace pairs exceed the enumeration budget")
        rows = _witness_walk(P, k, m)
        if rows is None:
            return True, None
        g = Matrix.from_rows(f, rows)
        if rank((g @ P @ inverse(g)).submatrix(K, L)) <= k:
            raise AssertionError("the witness walk returned a conjugator that does not certify")
        return False, (g, K, L)
    if mode == "sampled":
        for g, Q in _sampled_conjugates(P, trials, rng):
            idx = list(range(n))
            rng.shuffle(idx)
            Ks, Ls = tuple(sorted(idx[:m])), tuple(sorted(idx[m : 2 * m]))
            if rank(Q.submatrix(Ks, Ls)) > k:
                return False, (g, Ks, Ls)
        return True, None
    raise ValueError(f"unknown mode {mode!r}")
