"""Constructive conjugation lemmas: placing prescribed top-left blocks,
raising the rank of sums of conjugates, orbit-closure classification, the
level-raising tuple-rank witness, and exact degeneration curves over QQ(t).

Each construction realizes a block shape by one explicit change of basis
(greedy, deterministic tie-breaks over the standard basis) and then corrects
with unipotent factors.  The skew normal form behind the degeneration curves
is symplectic Gram-Schmidt, one Gram product V R V^T per hyperbolic pair.
Only tuple_rank_lift draws random conjugators, from a fixed seed.  Every
returned witness is verified against its postcondition before returning.
"""

from __future__ import annotations

import random

from .chains import ChainSpec, ChainError, project_dual
from .fields import GF, QQ, QQT, Record, UnsupportedFieldOperation
from .matrix import (
    Matrix,
    MatrixError,
    Span,
    _kernel_vectors,
    det,
    inverse,
    kernel_basis,
    lift_to_qqt,
    limit_at_zero,
    rank,
    random_invertible,
    rref_rows,
    solve_left,
    solve_right,
)
from .pencil import (
    _Budget,
    _sampled_conjugates,
    enumerate_subspaces,
    shift_rank,
    tuple_rank_identity,
)


class ConstructionError(RuntimeError):
    pass


def _col(M: Matrix, j: int) -> list:
    return [M.entry(i, j) for i in range(M.rows)]


def _vec_add(f, a, b):
    return [f.add(x, y) for x, y in zip(a, b)]


def _complete_basis(field, cols, n) -> list:
    """Extend the given independent columns to a basis of K^n.

    Standard basis vectors are tried in index order (the lexicographically
    least column selection); they span K^n, so they always complete it.
    """
    span = Span(field, cols)
    out = [list(c) for c in cols]
    if len(span.rows) < len(out):
        raise ConstructionError("given columns are dependent")
    for i in range(n):
        if len(out) == n:
            break
        e = [field.one if t == i else field.zero for t in range(n)]
        if span.add(e):
            out.append(e)
    return out


# ---------------------------------------------------------------------------
# Block-shape conjugation: zero right columns, full-rank lower-left block
# ---------------------------------------------------------------------------

def shape_left(P: Matrix, m: int):
    """h with B = h P h^{-1} satisfying B[:, m:] = 0 and rank(B[m:, :m]) = rank(P).

    Needs rank(P) <= m and m + rank(P) <= n.  The new basis is (W | Z) with
    Z inside ker P and span(W) meeting im P trivially.

    One greedy pass builds it.  For each pivot j the candidates are e_j and
    e_j + kv for kv in a basis of ker P, and the first outside the running
    span S (im P plus the vectors chosen so far) is taken.  No random
    combination e_j + sum c_i kv_i can do better: if e_j and every e_j + kv
    lie in S, every kv lies in S, and then so does every such combination.
    So the pass fails only when ker P fits inside S, which needs
    n < 3 rank(P); no retry could then succeed, and it raises
    ConstructionError.
    """
    f = P.field
    n = P.rows
    pivots, rows = rref_rows(P)
    k = len(pivots)
    if not (k <= m and m + k <= n):
        raise ConstructionError(f"shape_left needs rank <= m and m + rank <= n (rank {k}, m {m}, n {n})")
    im_cols = [_col(P, c) for c in pivots]
    ker = _kernel_vectors(f, n, pivots, rows)
    failed = ConstructionError("shape_left search failed")
    span = Span(f, im_cols)
    W: list = []
    # particular solutions P e_j = (pivot column j), adjusted by kernel vectors
    for j in pivots:
        base = [f.one if t == j else f.zero for t in range(n)]
        cand = next((c for c in [base] + [_vec_add(f, base, kv) for kv in ker]
                     if not span.contains(c)), None)
        if cand is None:
            raise failed
        span.add(cand)
        W.append(cand)
    for kv in ker:
        if len(W) == m:
            break
        if span.add(kv):
            W.append(kv)
    if len(W) < m:
        raise failed
    # complete with kernel vectors independent of W (and of each other)
    wspan = Span(f, W)
    Z = [kv for kv in ker if wspan.add(kv)][: n - m]
    if len(Z) < n - m:
        raise failed
    Mb = Matrix.from_rows(f, W + Z).transpose()
    try:
        h = inverse(Mb)
    except MatrixError:
        raise failed from None
    B = h @ P @ Mb
    if not (B.block(0, n, m, n).is_zero() and rank(B.block(m, n, 0, m)) == k):
        raise failed
    return h, B


def shape_right(P: Matrix, m: int):
    """g with C = g P g^{-1} satisfying C[m:, :] = 0 and rank(C[:m, m:]) = rank(P)."""
    hT, BT = shape_left(P.transpose(), m)
    g = inverse(hT).transpose()
    C = BT.transpose()  # g^{-1} = hT^T, so g P g^{-1} = (hT P^T hT^{-1})^T
    n = P.rows
    assert C.block(m, n, 0, n).is_zero()
    assert rank(C.block(0, m, m, n)) == rank(P)
    return g, C


# ---------------------------------------------------------------------------
# Prescribed top-left block
# ---------------------------------------------------------------------------

def topleft_realization(P: Matrix, Q: Matrix) -> Matrix:
    """g with (g P g^{-1})[:n, :n] = Q, for P in gl_{2n} of rank k < n and
    rank(Q) <= k.  Steps: realize a rank-k lower-left block, align kernels,
    then a unipotent correction."""
    f = P.field
    if not (P.is_square and Q.is_square and P.rows == 2 * Q.rows):
        raise MatrixError("need P in gl_{2n} and Q in gl_n")
    n = Q.rows
    k = rank(P)
    if not (k < n and rank(Q) <= k):
        raise ValueError(f"need rank(P) = k < n and rank(Q) <= k (got {k}, n={n}, rank Q {rank(Q)})")
    h1, B = shape_left(P, n)
    R = B.block(n, 2 * n, 0, n)
    # kernel alignment: h . ker(R) inside ker(Q)
    kR = kernel_basis(R).to_rows()
    src = _complete_basis(f, kR, n)
    tgt = _complete_basis(f, kernel_basis(Q).to_rows()[: len(kR)], n)
    Msrc = Matrix.from_rows(f, src).transpose()
    Mtgt = Matrix.from_rows(f, tgt).transpose()
    h = Mtgt @ inverse(Msrc)
    g2 = Matrix.diag_blocks([h, Matrix.identity(f, n)])
    B2 = g2 @ B @ inverse(g2)
    R2 = B2.block(n, 2 * n, 0, n)
    S = solve_left(R2, Q)
    T = solve_left(R2, B2.block(0, n, 0, n))
    if S is None or T is None:
        raise ConstructionError("block equations unexpectedly unsolvable")
    U = Matrix.from_blocks([
        [Matrix.identity(f, n), S - T],
        [Matrix.zeros(f, n), Matrix.identity(f, n)],
    ])
    g = U @ g2 @ h1
    got = (g @ P @ inverse(g)).block(0, n, 0, n)
    if got != Q:
        raise ConstructionError("top-left realization failed verification")
    return g


# ---------------------------------------------------------------------------
# Raising the rank of a sum of conjugates
# ---------------------------------------------------------------------------

def raise_sum_rank(mats) -> list[Matrix]:
    """Conjugators g_i with k < rank(sum g_i P_i g_i^{-1}) <= 3k and the sum's
    identity-tuple rank equal to its rank.  Requires each rank exactly k >= 1,
    at least two matrices, and n >= 6k."""
    mats = list(mats)
    if len(mats) < 2:
        raise ValueError("need at least two matrices")
    f = mats[0].field
    n = mats[0].rows
    k = rank(mats[0])
    if k < 1:
        raise ValueError("need rank k >= 1")
    for M in mats:
        if M.rows != n or not M.is_square or rank(M) != k:
            raise ValueError("all matrices must be n x n of rank exactly k")
    if n < 6 * k:
        raise ValueError("need n >= 6k")
    # first pair: disjointly supported blocks add ranks
    h1, B1 = shape_left(mats[0], k)
    h2, C2 = shape_right(mats[1], k)
    gs = [h1, h2]
    S = B1 + C2
    for j in range(2, len(mats)):
        r = rank(S)
        m = max(r, k)
        hS, BS = shape_left(S, m)
        hj, Bj = (shape_right if r <= 2 * k else shape_left)(mats[j], m)
        gs = [hS @ g for g in gs] + [hj]
        S = BS + Bj
    r = rank(S)
    if not (k < r <= 3 * k):
        raise ConstructionError(f"sum rank {r} escaped the bound ({k}, {3 * k}]")
    if tuple_rank_identity(S) != r:
        raise ConstructionError("identity-tuple rank of the sum does not match its rank")
    check = None
    for g, M in zip(gs, mats):
        term = g @ M @ inverse(g)
        check = term if check is None else check + term
    assert check == S
    return gs


# ---------------------------------------------------------------------------
# All-conjugates leading-minor criterion
# ---------------------------------------------------------------------------

def minor_vanishing_test(P: Matrix, k: int, mode: str = "exhaustive",
                         trials: int | None = None, rng=None) -> bool:
    """Whether det((g P g^{-1})_[k],[k]) = 0 for all conjugates.

    Exhaustive mode returns True when rank P < k, as every k x k minor of
    every conjugate then vanishes.  Otherwise it scans pairs of subspaces, not
    the finite group: with U = g[:k,:] and V = g^{-1}[:,:k], the minor is
    det(U P V), U V = I_k, and a pair (R = row space of U, C = column space
    of V) of Gr(k, n) comes from some g exactly when det(R C^T) != 0.  It
    streams R, then C, up to a pair with det(R P C^T) != 0 too and returns
    False; finding none raises ConstructionError.  It charges the enumeration
    budget k n per R and per C it tries, the entries of R or C^T.

    Sampled mode checks the minor of ``trials`` random conjugates drawn from
    rng; both have no default, and a count above the enumeration budget
    raises BudgetExceeded before any draw.
    """
    f = P.field
    n = P.rows
    if not P.is_square:
        raise MatrixError("minor criterion expects a square matrix")
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    if mode == "exhaustive":
        if not isinstance(f, GF):
            raise UnsupportedFieldOperation("exhaustive mode needs a finite field")
        if rank(P) < k:
            return True
        budget = _Budget("the minor search")
        for r_rows in enumerate_subspaces(k, n, f.p):
            budget.charge(k * n)
            R = Matrix.from_rows(f, r_rows)
            RP = R @ P
            if rank(RP) < k:
                continue
            for c_rows in enumerate_subspaces(k, n, f.p):
                budget.charge(k * n)
                Ct = Matrix.from_rows(f, c_rows).transpose()
                if not f.is_zero(det(RP @ Ct)) and not f.is_zero(det(R @ Ct)):
                    return False
        raise ConstructionError("no subspace pair has a nonzero minor, although rank(P) >= k")
    if mode == "sampled":
        return all(f.is_zero(det(Q.block(0, k, 0, k)))
                   for _, Q in _sampled_conjugates(P, trials, rng))
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Orbit-closure classification at a finite level
# ---------------------------------------------------------------------------

class OrbitClosure(Record):
    __slots__ = ("kind", "lam", "rank", "level")  # kind: "dense" or "stratum"

    def __init__(self, kind, lam=None, rank=None, level=None):
        super().__init__(kind, lam, rank, level)


def classify_orbit_closure(P: Matrix) -> OrbitClosure:
    """Shift stratum when some shift has corank above n/2 (where the minimizing
    shift is unique); otherwise a dense marker for this level."""
    n = P.rows
    sr = shift_rank(P)
    if sr.lam is not None and sr.rank < n / 2:
        return OrbitClosure("stratum", sr.lam, sr.rank, n)
    return OrbitClosure("dense", None, None, n)


# ---------------------------------------------------------------------------
# Level-raising witness for bounded tuple rank
# ---------------------------------------------------------------------------

def tuple_rank_lift(chain: ChainSpec, i: int, P: Matrix) -> Matrix:
    """A level-(i+1) conjugator g such that the dual projection of g P g^{-1}
    has identity-tuple rank strictly above k = rk(P, I).

    P is a level-(i+1) representative; the shift normalization picks the
    representative of minimal rank.  Scalar classes (k = 0) admit no witness:
    conjugation fixes them and they project to scalar classes.
    """
    s = chain.signature_at(i)
    if chain.letter != "A" or s.l + s.r < 2:
        raise ChainError("needs a type A chain with l + r >= 2 at this level")
    f = P.field
    N = chain.group_for(i + 1, P).ambient
    m = chain.n_at(i)
    k = tuple_rank_identity(P)
    if k == 0:
        raise ChainError("tuple rank 0 means a scalar class; its conjugates project to scalars")
    if m < 6 * k:
        raise ChainError("needs n_i >= 6k")
    sr = shift_rank(P)
    P0 = P - Matrix.scalar(f, N, sr.lam)
    assert rank(P0) == k
    rng = random.Random(0)
    for _ in range(300):
        g0 = random_invertible(N, f, rng)
        B = g0 @ P0 @ inverse(g0)
        blocks = [B.block(jb * m, (jb + 1) * m, jb * m, (jb + 1) * m) for jb in range(s.l + s.r)]
        if all(rank(blk) == k for blk in blocks):
            break
    else:
        raise ConstructionError("could not position rank-k diagonal blocks (diagnostic: "
                                f"N={N}, m={m}, k={k})")
    summands = blocks[: s.l] + [-(Qb.transpose()) for Qb in blocks[s.l:]]
    hs = raise_sum_rank(summands)
    diag = hs[: s.l] + [inverse(h).transpose() for h in hs[s.l:]]
    if s.z:
        diag.append(Matrix.identity(f, s.z))
    g = Matrix.diag_blocks(diag) @ g0
    proj = project_dual(chain, i, g @ P @ inverse(g))
    if tuple_rank_identity(proj) <= k:
        raise ConstructionError("projection failed to raise the tuple rank")
    return g


# ---------------------------------------------------------------------------
# Skew congruence normal form and degeneration curves
# ---------------------------------------------------------------------------

def is_skew(M: Matrix) -> bool:
    return M.is_square and (M + M.transpose()).is_zero()


def skew_normal_form(R: Matrix):
    """g with g R g^T = Diag(J_2, ..., J_2, 0), J_2 = [[0,1],[-1,0]].

    Symplectic Gram-Schmidt on working rows V, from the standard basis: each
    round takes G = V R V^T and the first a < b with c = G[a][b] != 0, keeps
    the pair u = V[a], v = V[b]/c, and replaces every other row w by
    w - G[a][w] v + (G[b][w]/c) u, which pairs to zero with both.  g lists
    u_1, v_1, ..., then the rows left when G vanishes (the radical).
    """
    f = R.field
    n = R.rows
    if not is_skew(R):
        raise MatrixError("expected a skew matrix")
    V = Matrix.identity(f, n)
    pairs = []
    while V.rows > 1:
        G = V @ R @ V.transpose()
        ab = next(((a, b) for a in range(V.rows) for b in range(a + 1, V.rows)
                   if not f.is_zero(G.entry(a, b))), None)
        if ab is None:
            break
        a, b = ab
        inv_c = f.inv(G.entry(a, b))
        u, v = V.block(a, a + 1, 0, n), V.block(b, b + 1, 0, n).scale(inv_c)
        pairs += [u, v]
        rest = [w for w in range(V.rows) if w not in (a, b)]
        V = (V.submatrix(rest, range(n)) - G.submatrix([a], rest).transpose() @ v
             + G.submatrix([b], rest).transpose().scale(inv_c) @ u)
    g = Matrix.from_blocks([[row] for row in pairs + [V]])
    if g @ R @ g.transpose() != _skew_jform(f, n, len(pairs) // 2):
        raise ConstructionError("skew normal form failed verification")
    return g, len(pairs) // 2


def _skew_jform(field, n, npairs) -> Matrix:
    J2 = Matrix.from_rows(field, [[0, 1], [-1, 0]])
    return Matrix.diag_blocks([J2] * npairs + [Matrix.zeros(field, n - 2 * npairs)])


def _qqt_diag_scale(n: int, keep: int) -> Matrix:
    """Diag(I_keep, t, ..., t) over QQ(t)."""
    qqt = QQT()
    return Matrix.diag_blocks([Matrix.identity(qqt, keep), Matrix.scalar(qqt, n - keep, qqt.t)])


def degeneration_witness(R: Matrix, W: Matrix, Q: Matrix, V: Matrix) -> Matrix:
    """An invertible curve g over QQ(t) with limits g R g^T -> Q and g W -> V
    at t = 0; the action is simultaneous congruence on the skew part and left
    multiplication on the column part.  Requires rank(W) = k columns and
    rank(Q) <= rank(R) - 2k."""
    f = R.field
    if not isinstance(f, QQ):
        raise MatrixError("degeneration curves are built over QQ")
    n = R.rows
    k = W.cols
    if W.rows != n or V.rows != n or V.cols != k:
        raise MatrixError("W and V must be n x k")
    if not (is_skew(R) and is_skew(Q)) or Q.rows != n:
        raise MatrixError("R and Q must be skew n x n")
    if rank(W) != k:
        raise ValueError("W must have full column rank")
    if rank(Q) > rank(R) - 2 * k:
        raise ValueError("need rank(Q) <= rank(R) - 2k")
    G = _degen(R, W, Q, V)
    if rank(G) != G.rows:
        raise ConstructionError("degeneration curve is singular over QQ(t)")
    Rl = limit_at_zero(G @ lift_to_qqt(R) @ G.transpose())
    Wl = limit_at_zero(G @ lift_to_qqt(W))
    if Rl != Q or Wl != V:
        raise ConstructionError("degeneration limits missed the target")
    return G


def _degen(R: Matrix, W: Matrix, Q: Matrix, V: Matrix) -> Matrix:
    f = R.field
    qqt = QQT()
    n = R.rows
    k = W.cols
    if k == 0:
        gR, _ = skew_normal_form(R)
        gQ, sQ = skew_normal_form(Q)
        D = _qqt_diag_scale(n, 2 * sQ)
        return lift_to_qqt(inverse(gQ)) @ D @ lift_to_qqt(gR)
    # step 1: move the last column of W to e_n
    wl = _col(W, k - 1)
    others = _complete_basis(f, [wl], n)[1:]
    Mb = Matrix.from_rows(f, others + [wl]).transpose()
    g1 = inverse(Mb)
    R1, W1 = g1 @ R @ g1.transpose(), g1 @ W
    # step 2: push the last column of R out of the column space of W
    I = Matrix.identity(f, n).to_rows()
    choice = next((u for u in [_vec_add(f, I[n - 1], e) for e in I[: n - 1]] + [I[n - 1]]
                   if solve_right(W1, R1 @ Matrix(f, n, 1, tuple(u))) is None), None)
    if choice is None:
        raise ConstructionError("no shear makes the last R column leave im(W)")
    L = Matrix.from_rows(f, I[: n - 1] + [choice])
    R2, W2 = L @ R1 @ L.transpose(), L @ W1
    # step 3: normalize that column to e_{n-1}
    ctop = [R2.entry(a, n - 1) for a in range(n - 1)]
    comp = _complete_basis(f, [ctop], n - 1)[1:]
    M2 = Matrix.from_rows(f, comp + [ctop]).transpose()
    h = inverse(M2)
    g3 = Matrix.diag_blocks([h, Matrix.identity(f, 1)])
    R3, W3 = g3 @ R2 @ g3.transpose(), g3 @ W2
    assert R3.entry(n - 2, n - 1) == f.one and R3.entry(n - 1, n - 2) == f.neg(f.one)
    # step 4: squeeze row/column n-1 (0-based n-2) with Diag(I, t, 1)
    qD = Matrix.diag_blocks([
        Matrix.identity(qqt, n - 2),
        Matrix.from_rows(qqt, [[qqt.t]]),
        Matrix.identity(qqt, 1),
    ])
    Rc = R3.block(0, n - 2, 0, n - 2)
    Wc = W3.block(0, n - 2, 0, k - 1)
    if rank(Wc) != k - 1:
        raise ConstructionError("corner column block lost rank")
    if rank(Q) > rank(Rc) - 2 * (k - 1):
        raise ConstructionError("corner skew block lost too much rank")
    # step 5: recurse into the corner toward the normal form of Q
    gQ, sQ = skew_normal_form(Q)
    Qin = _skew_jform(f, n - 2, sQ)
    Vin = Matrix.from_blocks([[Matrix.zeros(f, n - k - 1, k - 1)], [Matrix.identity(f, k - 1)]])
    Gin = _degen(Rc, Wc, Qin, Vin)
    Gstep = Matrix.diag_blocks([Gin, Matrix.identity(qqt, 2)])
    # exact state after the corner move
    R5 = Matrix.diag_blocks([Qin, Matrix.zeros(f, 2)])
    # step 6: move the zero row n-2 up so the identity block sits at the bottom
    order = list(range(n - k - 1)) + [n - 2] + list(range(n - k - 1, n - 3 + 1)) + [n - 1]
    perm = Matrix.from_rows(f, [I[b] for b in order])
    assert perm @ R5 @ perm.transpose() == R5  # the moved rows and columns are zero
    # step 7: shrink the last k coordinates while feeding in the target columns;
    # the permutation fixes row n-1 of W3, whose first k-1 entries are u
    u = W3.row_list(n - 1)[: k - 1]
    Tu = Matrix.from_rows(f, Matrix.identity(f, k).to_rows()[: k - 1]
                          + [[f.neg(x) for x in u] + [f.one]])
    corr = lift_to_qqt(gQ @ V @ Tu)
    A = _qqt_diag_scale(n, n - k) + Matrix.from_blocks([[Matrix.zeros(qqt, n, n - k), corr]])
    return lift_to_qqt(inverse(gQ)) @ A @ lift_to_qqt(perm) @ Gstep @ qD @ \
        lift_to_qqt(g3 @ L @ g1)
