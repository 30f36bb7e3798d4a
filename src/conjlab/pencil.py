"""Tuple rank, shift rank, and the off-diagonal submatrix criterion.

The rank of a tuple (Q_1, ..., Q_k) is the minimum rank of a nonzero linear
combination, indexed by projective space.  Over finite fields the minimum is
found by full projective enumeration; for tuples (P, I) it reduces to the
shift rank min over lambda of rank(P - lambda I), which eigenvalue data gives
over any field with decidable eigenvalues.

The off-diagonal criterion asks whether every conjugate g P g^{-1} has a
small block in rows K and columns L.  When rk(P, I) <= k a lemma decides a
pass.  Otherwise the block's rank depends only on a pair of subspaces (the
row space of g[K,:] and the column space of g^{-1}[:,L]), so the check
searches Grassmannian points, streamed in the order of their RREF rows read
last first, not the 20160 elements of GL_4(F_2), and is charged for the work
it does (:class:`_Budget`).  A failed check reports the first conjugator g of
GL_n(F_q) in the lexicographic order of (row 0, ..., row n-1), each row a
tuple of residues; its first m rows are the RREF rows, last first, of the
first subspace with a failing pair.
"""

from __future__ import annotations

import itertools
import operator

from .fields import GF, Record, UnsupportedFieldOperation
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


class PencilTuple(Record):
    __slots__ = ("matrices",)

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


class ShiftRankResult(Record):
    __slots__ = ("lam", "rank")  # lam: a scalar, or None when no K-eigenvalue exists


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

    Canonical order, the one in which :func:`_witness_walk` meets the
    subspaces: by the RREF rows read last first, each row a tuple of residues.
    The pivot of the last row runs from n - 1 down and its free entries in
    itertools.product order; each earlier row takes a smaller pivot, is 0 at
    the later pivots, and runs the same way.
    """
    return _extend_subspace(k, n, p, (), ())


def _extend_subspace(k: int, n: int, p: int, later: tuple, pivots: tuple):
    """The subspaces whose last RREF rows are ``later``, read last first, at
    ``pivots``; a module function, as a recursive closure makes a cycle."""
    if len(later) == k:
        yield later[::-1]
        return
    for pc in range((pivots[-1] if pivots else n) - 1, k - len(later) - 2, -1):
        free = [c for c in range(pc + 1, n) if c not in pivots]
        for vals in itertools.product(range(p), repeat=len(free)):
            row = [0] * n
            row[pc] = 1
            for c, v in zip(free, vals):
                row[c] = v
            yield from _extend_subspace(k, n, p, later + (tuple(row),), pivots + (pc,))


def _with_kernel(f, rows) -> tuple[Matrix, Matrix]:
    """R, the Matrix of the RREF rows of a subspace, and B^T for the canonical
    basis rows B of ker R, read off those rows (each pivot is the row's first
    1) with no elimination."""
    n = len(rows[0])
    ker = _kernel_vectors(f, n, [row.index(1) for row in rows], rows)
    R = Matrix(f, len(rows), n, tuple(x for row in rows for x in row))
    return R, Matrix(f, n, len(ker), tuple(v[i] for i in range(n) for v in ker))


class _Budget:
    """The enumeration budget of one all-conjugates search, the off-diagonal
    walk or the minor search, charged before the work each charge counts; a
    pass that a lemma decides makes no search and costs nothing."""

    def __init__(self, search: str):
        self.search, self.spent = search, 0

    def charge(self, units: int) -> None:
        self.spent += units
        if self.spent > ENUMERATION_BUDGET:
            raise BudgetExceeded(f"{self.search} exceeds the enumeration budget")


def _grow(vecs: set, v, p: int, budget: _Budget) -> set:
    """The vectors of span(vecs, v) mod p, for vecs the vectors of a span and
    v outside it; charges the entries of the (p - 1) |vecs| vectors it adds."""
    budget.charge((p - 1) * len(vecs) * len(v))
    return vecs | {tuple((a + c * b) % p for a, b in zip(u, v)) for u in vecs for c in range(1, p)}


def _witness_walk(P: Matrix, k: int, m: int, budget: _Budget) -> list:
    """Rows of the first g of GL_n(F_p), in the lexicographic order of its
    rows, whose key (R, C), R the row space of g[K] and C the kernel of the
    rows of g outside L, has rank(R P C) > k.  It raises AssertionError when
    no pair (R, C) has, as the check calls it only when rk(P, I) > k.

    The rows are chosen one at a time, each the least vector outside the span
    of the rows before it that keeps some bad pair (R, C) reachable.  A row
    in K must lie in R.  For R in RREF with rows r_1, ..., r_m, the least
    vector of R outside span(r_(j+1), ..., r_m) is r_j: its first nonzero
    entry sits at r_j's pivot, as late as any can, with value 1 and 0 at the
    later pivots.  So the K rows are r_m, ..., r_1 of the first R with a bad C
    in the streamed order of :func:`enumerate_subspaces`: a bad R holding the
    rows picked so far has them as its last RREF rows, or an R before it
    would be bad.  The C's in ker R are B^T X^T, B the canonical basis rows
    of ker R and X in Gr(m, n - m), and R P C = W X^T for W = R P B^T; as
    n - m >= m some X keeps rank W, so the first bad R is the first with
    rank W > k.  The other rows are tested by their image v C in F_p^m, as
    ann(C) is the kernel of v -> v C: a row after L must have image 0, and a
    row in L an image outside the span of the images of the L rows before it.
    Exactly the prefixes that meet these conditions extend to an invertible g
    with key (R, C), so the walk never backtracks.  It charges ``budget``
    the entries it builds: first m n per X^T, as every walk lists them at
    its first bad R; n^2 per R, for R and B^T; the entries of each vector
    that :func:`_grow` adds; and n per row tested after the K rows.
    """
    f, n = P.field, P.rows
    p = f.p

    def image(cols, v):  # v C, for C given by its columns
        return tuple(sum(map(operator.mul, v, col)) % p for col in cols)

    budget.charge(m * n * gaussian_binomial(n - m, m, p))
    for r_rows in enumerate_subspaces(m, n, p):
        budget.charge(n * n)
        R, Bt = _with_kernel(f, r_rows)
        W = R @ P @ Bt
        if rank(W) > k:
            break
    else:
        raise AssertionError("no subspace pair is bad, so rk(P, I) <= k")
    xts = (Matrix.from_rows(f, x).transpose() for x in enumerate_subspaces(m, n - m, p))
    # each live C: its columns, and the span of the L rows' images
    live = [((Bt @ Xt).transpose().to_rows(), {(0,) * m}) for Xt in xts if rank(W @ Xt) > k]
    rows, prefix = list(r_rows[::-1]), {(0,) * n}
    for d in range(1, n):
        prefix = _grow(prefix, rows[d - 1], p, budget)
        if d < m:
            continue
        for v in itertools.product(range(p), repeat=n):
            if v in prefix:
                continue
            budget.charge(n)
            if d < 2 * m:
                keep = [(cols, ims) for cols, ims in live if image(cols, v) not in ims]
            else:
                keep = [(cols, ims) for cols, ims in live if not any(image(cols, v))]
            if keep:
                live = keep
                break
        if d < 2 * m:
            live = [(cols, _grow(ims, image(cols, v), p, budget)) for cols, ims in live]
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

    Exhaustive mode returns a pass when rank(P - lambda I) <= k for some
    lambda: K and L are disjoint, so (g P g^{-1})_[K,L] is the block of
    g (P - lambda I) g^{-1}.  Otherwise it searches subspace pairs, not
    GL_n(F_q): with U = g[K,:] and V = g^{-1}[:,L], Q_[K,L] = U P V and
    U V = 0, so the rank depends only on R = row space of U and C = column
    space of V, with C inside ker R; since n >= 2m every such pair comes from
    some g.  A False verdict carries a certified witness (g, K, L): g is the
    first element of GL_n(F_q), in the lexicographic order of its rows, whose
    block has rank > k (:func:`_witness_walk`).  A pass costs nothing of the
    enumeration budget; the walk is charged for what it builds and tests.

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
        if tuple_rank_identity(P) <= k:
            return True, None
        g = Matrix.from_rows(f, _witness_walk(P, k, m, _Budget("the witness walk")))
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
