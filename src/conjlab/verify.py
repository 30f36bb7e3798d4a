"""Named verifiers for the computational identities behind the rank-strata
classification: characteristic-2 density surrogates, commutator coverage,
block conjugation identities (checked symbolically), equivariance of dual
projections, and contrapositive witness searches for the rank-bound lemmas.

Every verifier returns a :class:`VerificationReport`; a ``fail`` verdict
always carries a concrete witness.  Reports are pure functions of
(lemma id, parameters, seed).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .chains import (
    ChainSpec,
    GroupType,
    algebra_project,
    chain_from_json,
    group_membership,
    h_form_gram,
    h_group_membership,
    project_dual,
    embed_group,
    random_algebra_element,
    random_group_element,
    random_sym_or_skew,
)
from .coordpoly import CoordPoly, PolyContext, conjugate_grid, poly_format, symbolic_matrix
from .fields import GF, QQ, field_from_name
from .graphs import ReductionCertificate, char2_gamma, incidence_rank_check, reduce_graph, replay
from .matrix import Matrix, inverse, random_matrix, rank, rank_and_rref
from .pencil import BudgetExceeded


@dataclass
class VerificationReport:
    lemma: str
    params: dict
    verdict: str  # "pass" | "fail" | "statistical-pass"
    witnesses: list = dc_field(default_factory=list)
    ms: int = 0

    def to_json(self) -> dict:
        return {
            "lemma": self.lemma,
            "params": self.params,
            "verdict": self.verdict,
            "witness": self.witnesses,
            "ms": self.ms,
        }

    @property
    def ok(self) -> bool:
        return self.verdict in ("pass", "statistical-pass")


def _report(lemma, params, verdict, witnesses, t0) -> VerificationReport:
    return VerificationReport(lemma, params, verdict, witnesses,
                              int((time.monotonic() - t0) * 1000))


def _rng_for(seed, lemma_id) -> random.Random:
    return random.Random(f"{seed}:{lemma_id}")


# ---------------------------------------------------------------------------
# Characteristic-2 density and commutator coverage
# ---------------------------------------------------------------------------

def _digits(code, p, k):
    """The matrix of a code in the coverage scans: entry k is base-p digit k."""
    return tuple(code // p ** i % p for i in range(k))


def _first_uncovered(p, dim, bases):
    """The least code (see :func:`_digits`) of a vector of F_p^dim in none of
    the spans of ``bases`` (lists of vectors); -1 if they cover F_p^dim."""
    covered = bytearray(p ** dim)
    for basis in bases:
        vecs = [(0,) * dim]
        for row in basis:
            vecs = [tuple((a + c * b) % p for a, b in zip(v, row)) for v in vecs for c in range(p)]
        for v in vecs:
            covered[sum(x * p ** k for k, x in enumerate(v))] = 1
    return covered.find(0)


def _coverage_report(lemma, params, field, n, units, t0) -> VerificationReport:
    """Exact coverage of gl_n(F_p) by the image of a map linear in its second
    argument: the union over outer matrices A of the span of ``units(A, n, p)``,
    the images of the matrix units.  A span of dimension n^2 passes at once;
    otherwise the witness is the least uncovered code, which is the first
    missing target of the former enumeration of every pair."""
    p, dim = field.p, n * n
    if p ** (2 * dim) > 10**7:  # the pair budget of that enumeration, kept
        raise BudgetExceeded(f"GF({p}) with n = {n} exceeds the enumeration budget")
    spans = set()
    for code in range(p ** dim):
        gens = units(_digits(code, p, dim), n, p)
        res = rank_and_rref(Matrix(field, len(gens), dim, sum(gens, ())))
        if res.rank == dim:
            return _report(lemma, params, "pass", [], t0)
        spans.add(tuple(res.rref.entries[r * dim:(r + 1) * dim] for r in range(res.rank)))
    code = _first_uncovered(p, dim, spans)
    wit = [] if code < 0 else [{"missing_target": list(_digits(code, p, dim))}]
    return _report(lemma, params, "fail" if wit else "pass", wit, t0)


def _char2a_units(A, n, p):
    """A E_ij + A^T E_ji: column i of A in column j, plus row j of A in column i."""
    return [tuple((A[r * n + i] * (c == j) + A[j * n + r] * (c == i)) % p
                  for r in range(n) for c in range(n)) for i in range(n) for j in range(n)]


def _commutator_units(X, n, p):
    """[X, E_ij]: column i of X in column j, minus row j of X in row i; then I."""
    return [tuple((X[r * n + i] * (c == j) - X[j * n + c] * (r == i)) % p
                  for r in range(n) for c in range(n)) for i in range(n) for j in range(n)] + \
        [tuple(int(r == c) for r in range(n) for c in range(n))]


def verify_char2(part: str, field, n: int, mode: str = "enumerate",
                 trials: int = 0, seed: int = 0) -> VerificationReport:
    """part 'a': {PQ + P^T Q^T} covers gl_n over odd characteristic.
    part 'b': over GF(2) the derivative of (P, Q) -> PQ + P^T Q^T at the
    superdiagonal / antidiagonal point has full rank n^2 - 1, cross-certified
    by the multigraph reduction.

    Part (a) in ``enumerate`` mode is exact: the map is linear in Q, so see
    :func:`_coverage_report`; the witness is the one the enumeration of all
    pairs gave.  ``sample`` mode draws ``trials`` >= 1 pairs and reports
    coverage; any other mode is a ValueError.
    """
    t0 = time.monotonic()
    params = {"part": part, "field": field.name, "n": n, "mode": mode, "trials": trials,
              "seed": seed}
    if part == "a":
        if not isinstance(field, GF) or field.p == 2:
            raise ValueError("part (a) needs an odd finite field")
        lemma = "char2a"
        if mode == "enumerate":
            return _coverage_report(lemma, params, field, n, _char2a_units, t0)
        if mode != "sample":
            raise ValueError(f"part (a) mode must be 'enumerate' or 'sample', got {mode!r}")
        if trials < 1:
            raise ValueError("sample mode needs trials >= 1")
        rng = _rng_for(seed, lemma)
        pairs = ((random_matrix(n, n, field, rng), random_matrix(n, n, field, rng))
                 for _ in range(trials))
        seen = {(A @ B + A.transpose() @ B.transpose()).entries for A, B in pairs}
        cov = len(seen) / field.p ** (n * n)
        return _report(lemma, params, "statistical-pass", [{"coverage": cov}], t0)
    if part != "b":
        raise ValueError("part must be 'a' or 'b'")
    lemma = "char2b"
    g2 = GF(2)
    # codomain basis: matrix units except the last one
    units = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if (i, j) != (n, n)]
    uidx = {u: i for i, u in enumerate(units)}
    cols = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            col = [0] * len(units)
            for pt in ((i, n + 1 - j), (j, n + 1 - i)):
                if pt in uidx:
                    col[uidx[pt]] ^= 1
            cols.append(col)
    for k in range(1, n + 1):
        for ell in range(1, n + 1):
            col = [0] * len(units)
            if k > 1 and (k - 1, ell) in uidx:
                col[uidx[(k - 1, ell)]] ^= 1
            if ell < n and (ell + 1, k) in uidx:
                col[uidx[(ell + 1, k)]] ^= 1
            cols.append(col)
    D = Matrix.from_rows(g2, [[cols[c][r] for c in range(len(cols))]
                              for r in range(len(units))])
    rk = rank(D)
    gamma = char2_gamma(n)
    res = reduce_graph(gamma)
    cert_ok = isinstance(res, ReductionCertificate) and replay(gamma, res)
    surj, irank = incidence_rank_check(gamma, g2)
    agree = cert_ok and surj and (rk == n * n - 1)
    wit = [] if agree else [{"derivative_rank": rk, "expected": n * n - 1,
                             "certificate": cert_ok, "incidence_surjective": surj}]
    return _report(lemma, params, "pass" if agree else "fail", wit, t0)


def verify_commutator_scalar(field, m: int) -> VerificationReport:
    """Every matrix is a commutator plus a scalar: exact coverage.

    The identity gl_m = {[X,Y] + lambda*I} needs char(K) not dividing m.
    Commutators are exactly sl_m over any field (Albert-Muckenhoupt), so the
    image is sl_m + K*I, which is all of gl_m only when tr(I_m) = m is
    nonzero in K.  When p divides m every image has trace m*lambda = 0 and
    the report is ``fail``; its witness is the first missing target in code
    order (entry k is base-p digit k of the code), a matrix of nonzero
    trace -- E_11, i.e. ``[1, 0, 0, 0]``, for GF(2), m = 2.

    (Y, lambda) -> [X,Y] + lambda*I is linear, so :func:`_coverage_report`
    checks the union over X of span([X, E_ij], I) and scans for the witness
    in the order of the former enumeration of all pairs, which keeps it.
    """
    t0 = time.monotonic()
    params = {"field": field.name, "m": m}
    if not isinstance(field, GF):
        raise ValueError("enumeration needs a finite field")
    return _coverage_report("commutator", params, field, m, _commutator_units, t0)


# ---------------------------------------------------------------------------
# Symbolic conjugation identities
# ---------------------------------------------------------------------------

_QQ = QQ()


def _grid_block(grid, r0, r1, c0, c1):
    return [[grid[i][j] for j in range(c0, c1)] for i in range(r0, r1)]


def _grid_eq(a, b):
    mism = []
    for i, (ra, rb) in enumerate(zip(a, b)):
        for j, (x, y) in enumerate(zip(ra, rb)):
            if x != y:
                mism.append((i, j, poly_format(x), poly_format(y)))
    return mism


def _grid_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _grid_scale(a, c):
    return [[x.scale(c) for x in ra] for ra in a]


def _conjugate_symbolic(ctx: PolyContext, A: Matrix):
    X = symbolic_matrix(ctx, _QQ)
    return X, conjugate_grid(A, X, inverse(A))


def _lam_samples(deg):
    return [Fraction(v) for v in range(deg + 2)]  # 0, 1, ..., deg+1


def _shift_matrix(N, pairs, lam):
    """I_N plus lam at the listed (row, col) positions (signs via pairs)."""
    ent = [[_QQ.one if i == j else _QQ.zero for j in range(N)] for i in range(N)]
    for (r, c, s) in pairs:
        ent[r][c] = _QQ.add(ent[r][c], lam * s)
    return Matrix.from_rows(_QQ, ent)


def _check_case_gl(l, r, z, m, case: str, tamper: bool):
    """Cases on gl_n: the single-block shear identities."""
    n = (l + r) * m + z
    ctx = PolyContext("gl", n)
    mismatches = []
    if case == "2":
        pairs = [(a, (l + r) * m + a, 1) for a in range(m)]
    elif case == "3a":
        pairs = [(a, l * m + a, 1) for a in range(m)]
    else:  # 4a
        pairs = [(a, m + a, 1) for a in range(m)]
    for lam in _lam_samples(2):
        A = _shift_matrix(n, pairs, lam)
        X, Y = _conjugate_symbolic(ctx, A)

        def blk(grid, i, j):
            return _grid_block(grid, i * m, (i + 1) * m, j * m, (j + 1) * m)

        if case == "2":
            Rrow = (l + r) * m
            R1 = _grid_block(X, Rrow, Rrow + m, 0, m)
            want = _grid_add(blk(X, 0, 0), _grid_scale(R1, lam))
            got = blk(Y, 0, 0)
            mismatches += [("P'11", lam) + w for w in _grid_eq(got, want)]
            for j in range(1, l):
                mismatches += [(f"P'{j + 1}{j + 1}", lam) + w
                               for w in _grid_eq(blk(Y, j, j), blk(X, j, j))]
            for c in range(r):
                mismatches += [(f"Q'{c + 1}{c + 1}", lam) + w
                               for w in _grid_eq(blk(Y, l + c, l + c), blk(X, l + c, l + c))]
        elif case == "3a":
            R11 = blk(X, l, 0)
            sgn = -1 if tamper else 1
            wantP = _grid_add(blk(X, 0, 0), _grid_scale(R11, lam * sgn))
            mismatches += [("P'11", lam) + w for w in _grid_eq(blk(Y, 0, 0), wantP)]
            wantQ = _grid_add(blk(X, l, l), _grid_scale(R11, -lam))
            mismatches += [("Q'11", lam) + w for w in _grid_eq(blk(Y, l, l), wantQ)]
            for j in range(1, l):
                mismatches += [(f"P'{j + 1}{j + 1}", lam) + w
                               for w in _grid_eq(blk(Y, j, j), blk(X, j, j))]
            for c in range(1, r):
                mismatches += [(f"Q'{c + 1}{c + 1}", lam) + w
                               for w in _grid_eq(blk(Y, l + c, l + c), blk(X, l + c, l + c))]
        else:  # 4a
            P21 = blk(X, 1, 0)
            wantP1 = _grid_add(blk(X, 0, 0), _grid_scale(P21, lam))
            wantP2 = _grid_add(blk(X, 1, 1), _grid_scale(P21, -lam))
            mismatches += [("P'11", lam) + w for w in _grid_eq(blk(Y, 0, 0), wantP1)]
            mismatches += [("P'22", lam) + w for w in _grid_eq(blk(Y, 1, 1), wantP2)]
            for j in range(2, l):
                mismatches += [(f"P'{j + 1}{j + 1}", lam) + w
                               for w in _grid_eq(blk(Y, j, j), blk(X, j, j))]
    return mismatches


def _check_case_cd(kind: str, l, m, tamper: bool):
    """The paired shear in Sp_{2n} / O_{2n} at n = l*m: the diagonal blocks
    transform by the stated formulas and the R row stays fixed."""
    n = l * m
    ctx = PolyContext(kind, n)
    gt = GroupType(kind, n)
    sign2 = 1 if kind == "C" else -1
    mismatches = []
    for lam in _lam_samples(2):
        pairs = [(a, n + m + a, 1) for a in range(m)] + \
                [(m + a, n + a, sign2) for a in range(m)]
        A = _shift_matrix(2 * n, pairs, lam)
        assert group_membership(gt, A)
        X, Y = _conjugate_symbolic(ctx, A)

        def blkP(grid, i, j):
            return _grid_block(grid, i * m, (i + 1) * m, j * m, (j + 1) * m)

        def blkQ(grid, i, j):
            return _grid_block(grid, i * m, (i + 1) * m, n + j * m, n + (j + 1) * m)

        def blkR(grid, i, j):
            return _grid_block(grid, n + i * m, n + (i + 1) * m, j * m, (j + 1) * m)

        def blkS(grid, i, j):
            return _grid_block(grid, n + i * m, n + (i + 1) * m, n + j * m, n + (j + 1) * m)

        wantP1 = _grid_add(blkP(X, 0, 0), _grid_scale(blkR(X, 1, 0), lam))
        wantP2 = _grid_add(blkP(X, 1, 1), _grid_scale(blkR(X, 0, 1), lam * sign2))
        mismatches += [("P'11", lam) + w for w in _grid_eq(blkP(Y, 0, 0), wantP1)]
        mismatches += [("P'22", lam) + w for w in _grid_eq(blkP(Y, 1, 1), wantP2)]
        for j in range(2, l):
            mismatches += [(f"P'{j + 1}{j + 1}", lam) + w
                           for w in _grid_eq(blkP(Y, j, j), blkP(X, j, j))]
        if kind == "C":
            wantQ1 = _grid_add(
                _grid_add(blkQ(X, 0, 0),
                          _grid_scale(_grid_add(blkS(X, 1, 0),
                                                _grid_scale(blkP(X, 0, 1), -1)), lam)),
                _grid_scale(blkR(X, 1, 1), -lam * lam))
            wantQ2 = _grid_add(
                _grid_add(blkQ(X, 1, 1),
                          _grid_scale(_grid_add(blkS(X, 0, 1),
                                                _grid_scale(blkP(X, 1, 0), -1)), lam)),
                _grid_scale(blkR(X, 0, 0), -lam * lam))
        else:
            wantQ1 = _grid_add(
                _grid_add(blkQ(X, 0, 0),
                          _grid_scale(_grid_add(blkS(X, 1, 0), blkP(X, 0, 1)), lam)),
                _grid_scale(blkR(X, 1, 1), lam * lam))
            wantQ2 = _grid_add(
                _grid_add(blkQ(X, 1, 1),
                          _grid_scale(_grid_add(blkS(X, 0, 1), blkP(X, 1, 0)), -lam)),
                _grid_scale(blkR(X, 0, 0), lam * lam))
        if tamper:
            wantQ1 = _grid_add(wantQ1, _grid_scale(blkR(X, 1, 1), lam))
        mismatches += [("Q'11", lam) + w for w in _grid_eq(blkQ(Y, 0, 0), wantQ1)]
        mismatches += [("Q'22", lam) + w for w in _grid_eq(blkQ(Y, 1, 1), wantQ2)]
        for j in range(2, l):
            mismatches += [(f"Q'{j + 1}{j + 1}", lam) + w
                           for w in _grid_eq(blkQ(Y, j, j), blkQ(X, j, j))]
        for i in range(l):
            for j in range(l):
                mismatches += [(f"R'{i + 1}{j + 1}", lam) + w
                               for w in _grid_eq(blkR(Y, i, j), blkR(X, i, j))]
    return mismatches


# -- symbolic H-form matrices (independent coordinates of the odd H-form) ---

def h_symbolic(n: int, l: int):
    """Grid of the H-form algebra with independent entries as p-variables of a
    gl context of the ambient size; dependent entries are signed copies."""
    L = l * (2 * n + 1)
    ln = l * n
    ctx = PolyContext("gl", L)
    var = lambda i, j: CoordPoly.variable(ctx, _QQ, "p", i + 1, j + 1)
    zero = CoordPoly.zero(ctx, _QQ)
    grid = [[zero for _ in range(L)] for _ in range(L)]
    # P free; S = -P^T
    for a in range(ln):
        for b in range(ln):
            grid[a][b] = var(a, b)
            grid[ln + l + a][ln + l + b] = -var(b, a)
    # Q, R skew
    for a in range(ln):
        for b in range(ln):
            if a == b:
                continue
            src = (a, ln + l + b) if a < b else None
            if a < b:
                grid[a][ln + l + b] = var(a, ln + l + b)
                grid[ln + l + a][b] = var(ln + l + a, b)
            else:
                grid[a][ln + l + b] = -var(b, ln + l + a)
                grid[ln + l + a][b] = -var(ln + l + b, a)
    # V, W free; Psi = -J V^T, Phi = -J W^T
    for a in range(ln):
        for c in range(l):
            grid[a][ln + c] = var(a, ln + c)                  # V
            grid[ln + l + a][ln + c] = var(ln + l + a, ln + c)  # W
    for a in range(l):
        for b in range(ln):
            grid[ln + a][ln + l + b] = -grid[b][ln + (l - 1 - a)]   # Psi
            grid[ln + a][b] = -grid[ln + l + b][ln + (l - 1 - a)]   # Phi
    # U: anti-transpose skew
    for a in range(l):
        for c in range(l):
            pa, pc = l - 1 - c, l - 1 - a
            if a + c == l - 1:
                continue  # forced zero
            if (a, c) < (pa, pc):
                grid[ln + a][ln + c] = var(ln + a, ln + c)
            else:
                grid[ln + a][ln + c] = -var(ln + pa, ln + pc)
    return ctx, grid


def _h_check_algebra(n, l, grid):
    """The symbolic grid satisfies M H + H M^T = 0 identically."""
    L = l * (2 * n + 1)
    Hm = h_form_gram(_QQ, n, l)
    bad = []
    for i in range(L):
        for j in range(L):
            acc = CoordPoly.zero(grid[0][0].context, _QQ)
            for t in range(L):
                acc = acc + grid[i][t].scale(Hm.entry(t, j)) + grid[j][t].scale(Hm.entry(i, t))
            if not acc.is_zero():
                bad.append((i, j, poly_format(acc)))
    return bad


def _check_case_b1(n, l, tamper: bool):
    """The corner shear of the H-form: block-sum identities for the five
    projected slots, with the quadratic term on the antidiagonal Q-sum."""
    ln = l * n
    L = l * (2 * n + 1)
    mismatches = []
    ctx0, X = h_symbolic(n, l)
    mismatches += [("algebra",) + tuple(w) for w in _h_check_algebra(n, l, X)]

    def blkP(grid, i, j):
        return _grid_block(grid, i * n, (i + 1) * n, j * n, (j + 1) * n)

    def blkQ(grid, i, j):
        return _grid_block(grid, i * n, (i + 1) * n, ln + l + j * n, ln + l + (j + 1) * n)

    def blkR(grid, i, j):
        return _grid_block(grid, ln + l + i * n, ln + l + (i + 1) * n, j * n, (j + 1) * n)

    def blkS(grid, i, j):
        return _grid_block(grid, ln + l + i * n, ln + l + (i + 1) * n,
                           ln + l + j * n, ln + l + (j + 1) * n)

    def colV(grid, i, c):
        return [[grid[i * n + a][ln + c]] for a in range(n)]

    def colW(grid, i, c):
        return [[grid[ln + l + i * n + a][ln + c]] for a in range(n)]

    def gsum(blocks):
        acc = blocks[0]
        for b in blocks[1:]:
            acc = _grid_add(acc, b)
        return acc

    for lam in _lam_samples(2):
        pairs = [(a, ln + l + (l - 1) * n + a, -1) for a in range(n)] + \
                [((l - 1) * n + a, ln + l + a, 1) for a in range(n)]
        A = _shift_matrix(L, pairs, lam)
        assert h_group_membership(_QQ, n, l, A)
        Y = conjugate_grid(A, X, inverse(A))
        # P-sum gains lam (R_{1l} - R_{l1})
        deltaP = _grid_add(blkR(X, 0, l - 1), _grid_scale(blkR(X, l - 1, 0), -1))
        wantP = _grid_add(gsum([blkP(X, a, a) for a in range(l)]), _grid_scale(deltaP, lam))
        mismatches += [("sumP", lam) + w
                       for w in _grid_eq(gsum([blkP(Y, a, a) for a in range(l)]), wantP)]
        # antidiagonal Q-sum
        lin = gsum([
            blkP(X, 0, 0), _grid_scale(blkP(X, l - 1, l - 1), -1),
            blkS(X, 0, 0), _grid_scale(blkS(X, l - 1, l - 1), -1),
        ])
        quad = _grid_add(blkR(X, 0, l - 1), blkR(X, l - 1, 0))
        if tamper:
            quad = _grid_scale(quad, -1)
        wantQ = _grid_add(
            _grid_add(gsum([blkQ(X, a, l - 1 - a) for a in range(l)]), _grid_scale(lin, lam)),
            _grid_scale(quad, -lam * lam))
        mismatches += [("antisumQ", lam) + w
                       for w in _grid_eq(gsum([blkQ(Y, a, l - 1 - a) for a in range(l)]), wantQ)]
        # R blocks and antidiagonal W-sum unchanged; V-sum gains lam (W_{1l} - W_{l1})
        for i in range(l):
            for j in range(l):
                mismatches += [(f"R'{i + 1}{j + 1}", lam) + w
                               for w in _grid_eq(blkR(Y, i, j), blkR(X, i, j))]
        wantV = _grid_add(
            gsum([colV(X, a, a) for a in range(l)]),
            _grid_scale(_grid_add(colW(X, 0, l - 1), _grid_scale(colW(X, l - 1, 0), -1)), lam))
        mismatches += [("sumV", lam) + w
                       for w in _grid_eq(gsum([colV(Y, a, a) for a in range(l)]), wantV)]
        mismatches += [("antisumW", lam) + w
                       for w in _grid_eq(gsum([colW(Y, a, l - 1 - a) for a in range(l)]),
                                         gsum([colW(X, a, l - 1 - a) for a in range(l)]))]
    return mismatches


def _b2_mid(l: int, mu: Fraction) -> Matrix:
    """The middle unipotent of the second H-form move; for l = 3 the quadratic
    correction is required for membership (the plain bidiagonal suffices
    for l >= 5)."""
    ent = [[_QQ.one if a == b else _QQ.zero for b in range(l)] for a in range(l)]
    ent[1][0] = mu
    ent[l - 1][l - 2] = -mu
    if l == 3:
        ent[2][0] = -mu * mu / 2
    return Matrix.from_rows(_QQ, ent)


def _check_case_b2(n, l, tamper: bool):
    """The middle-block move: outer blocks fixed, V and W mixed by columns,
    and the refined polynomial depends on at most two columns of W."""
    ln = l * n
    L = l * (2 * n + 1)
    mismatches = []
    ctx0, X = h_symbolic(n, l)
    span_cols = set()
    for mu in _lam_samples(2):
        Bmid = _b2_mid(l, mu)
        B = Matrix.diag_blocks([Matrix.identity(_QQ, ln), Bmid, Matrix.identity(_QQ, ln)])
        assert h_group_membership(_QQ, n, l, B)
        Y = conjugate_grid(B, X, inverse(B))
        Bi = inverse(Bmid)
        # P, Q, R, S blocks untouched
        for (r0, r1, c0, c1, tag) in [
            (0, ln, 0, ln, "P"), (0, ln, ln + l, L, "Q"),
            (ln + l, L, 0, ln, "R"), (ln + l, L, ln + l, L, "S"),
        ]:
            mismatches += [(tag, mu) + w for w in _grid_eq(
                _grid_block(Y, r0, r1, c0, c1), _grid_block(X, r0, r1, c0, c1))]
        # V' = V Bmid^{-1} and W' = W Bmid^{-1}, entrywise
        for i in range(ln):
            for c in range(l):
                wantV = CoordPoly.zero(ctx0, _QQ)
                wantW = CoordPoly.zero(ctx0, _QQ)
                for e in range(l):
                    wantV = wantV + X[i][ln + e].scale(Bi.entry(e, c))
                    wantW = wantW + X[ln + l + i][ln + e].scale(Bi.entry(e, c))
                if tamper:
                    wantW = wantW + X[ln + l + i][ln + c]
                if Y[i][ln + c] != wantV:
                    mismatches.append(("V'", mu, i, c, poly_format(Y[i][ln + c]),
                                       poly_format(wantV)))
                if Y[ln + l + i][ln + c] != wantW:
                    mismatches.append(("W'", mu, i, c, poly_format(Y[ln + l + i][ln + c]),
                                       poly_format(wantW)))
        # support of the moved slot polynomials: the antidiagonal W-sum and the
        # corner W-difference stay within the R variables and two W columns
        if mu != 0:
            anti = CoordPoly.zero(ctx0, _QQ)
            for a in range(l):
                for r in range(n):
                    anti = anti + Y[ln + l + a * n + r][ln + (l - 1 - a)]
            base = CoordPoly.zero(ctx0, _QQ)
            for a in range(l):
                for r in range(n):
                    base = base + X[ln + l + a * n + r][ln + (l - 1 - a)]
            moved = anti - base
            for var in moved.variables():
                row, col = var[1] - 1, var[2] - 1
                if not (row >= ln + l and ln <= col < ln + l):
                    mismatches.append(("w-support-foreign", mu, var))
                else:
                    span_cols.add(col - ln)
    if len(span_cols) > 2:
        mismatches.append(("w-support", sorted(span_cols)))
    return mismatches


def verify_conjugation_identity(case: str, tamper: bool = False) -> VerificationReport:
    """Exact entrywise verification of the block conjugation identities at
    minimal sizes; entries stay symbolic, the shear parameter is
    sampled past its degree bound."""
    t0 = time.monotonic()
    params = {"case": case, "tamper": tamper}
    if case == "2":
        mism = _check_case_gl(2, 1, 1, 1, "2", tamper)
    elif case == "3a":
        mism = _check_case_gl(2, 1, 0, 1, "3a", tamper)
    elif case == "4a":
        mism = _check_case_gl(3, 0, 0, 1, "4a", tamper)
    elif case == "C":
        mism = _check_case_cd("C", 3, 1, tamper)
    elif case == "D":
        mism = _check_case_cd("D", 3, 2, tamper)
    elif case == "B1":
        mism = _check_case_b1(2, 3, tamper)
    elif case == "B2":
        mism = _check_case_b2(1, 3, tamper) + _check_case_b2(1, 5, tamper)
    else:
        raise ValueError(f"unknown case {case!r}")
    mism = mism + _generic_integer_check(case)
    verdict = "pass" if not mism else "fail"
    witnesses = [[x if isinstance(x, (int, str, bool)) else str(x) for x in w]
                 for w in mism[:8]]
    return _report(f"conj-{case}", params, verdict, witnesses, t0)


def _generic_integer_check(case: str):
    """Replay the same conjugations on matrices with generic integer entries."""
    rng = random.Random(f"generic:{case}")
    out = []

    def bad(tag, lamv, got, want):
        if got != want:
            out.append(("generic", case, tag, str(lamv), str(got), str(want)))

    if case in ("2", "3a", "4a"):
        l, r, z = {"2": (2, 1, 1), "3a": (2, 1, 0), "4a": (3, 0, 0)}[case]
        n = l + r + z
        H = Matrix.from_rows(_QQ, [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)])
        feed = {"2": l + r, "3a": l, "4a": 1}[case]
        for lamv in (1, 2, 3):
            A = _shift_matrix(n, [(0, feed, 1)], Fraction(lamv))
            Y = A @ H @ inverse(A)
            bad("P'11", lamv, Y.entry(0, 0), H.entry(0, 0) + lamv * H.entry(feed, 0))
        return out
    if case in ("C", "D"):
        kind = case
        l, m = (3, 1) if kind == "C" else (3, 2)
        n = l * m
        skew = kind == "D"
        raw = Matrix.from_rows(_QQ, [[rng.randint(-20, 20) for _ in range(2 * n)]
                                     for _ in range(2 * n)])
        M = algebra_project(GroupType(kind, n), raw)
        sign2 = 1 if kind == "C" else -1
        for lamv in (1, 2):
            pairs = [(a, n + m + a, 1) for a in range(m)] + \
                    [(m + a, n + a, sign2) for a in range(m)]
            A = _shift_matrix(2 * n, pairs, Fraction(lamv))
            Y = A @ M @ inverse(A)
            blk = lambda X, r0, c0: X.block(r0 * m, (r0 + 1) * m, c0 * m, (c0 + 1) * m)
            R = lambda i, j: M.block(n + i * m, n + (i + 1) * m, j * m, (j + 1) * m)
            S = lambda i, j: M.block(n + i * m, n + (i + 1) * m, n + j * m, n + (j + 1) * m)
            Q = lambda i, j: M.block(i * m, (i + 1) * m, n + j * m, n + (j + 1) * m)
            bad("P'11", lamv, blk(Y, 0, 0), blk(M, 0, 0) + R(1, 0).scale(lamv))
            bad("P'22", lamv, blk(Y, 1, 1), blk(M, 1, 1) + R(0, 1).scale(sign2 * lamv))
            if kind == "C":
                wq = Q(0, 0) + (S(1, 0) - blk(M, 0, 1)).scale(lamv) - R(1, 1).scale(lamv * lamv)
            else:
                wq = Q(0, 0) + (S(1, 0) + blk(M, 0, 1)).scale(lamv) + R(1, 1).scale(lamv * lamv)
            bad("Q'11", lamv, Y.block(0, m, n, n + m), wq)
        return out
    # H-form cases: integer algebra element, block-sum identities
    n, l = (2, 3) if case == "B1" else (1, 3)
    ln = l * n
    L = l * (2 * n + 1)
    Hg = h_form_gram(_QQ, n, l)
    raw = Matrix.from_rows(_QQ, [[rng.randint(-20, 20) for _ in range(L)] for _ in range(L)])
    M = (raw - Hg @ raw.transpose() @ Hg).scale(Fraction(1, 2))
    blkR = lambda X, i, j: X.block(ln + l + i * n, ln + l + (i + 1) * n, j * n, (j + 1) * n)
    blkP = lambda X, i, j: X.block(i * n, (i + 1) * n, j * n, (j + 1) * n)
    if case == "B1":
        for lamv in (1, 2):
            pairs = [(a, ln + l + (l - 1) * n + a, -1) for a in range(n)] + \
                    [((l - 1) * n + a, ln + l + a, 1) for a in range(n)]
            A = _shift_matrix(L, pairs, Fraction(lamv))
            if not h_group_membership(_QQ, n, l, A):
                out.append(("generic", case, "membership", str(lamv), "-", "-"))
                continue
            Y = A @ M @ inverse(A)
            sumP = lambda X: sum((blkP(X, a, a) for a in range(1, l)), blkP(X, 0, 0))
            delta = blkR(M, 0, l - 1) - blkR(M, l - 1, 0)
            bad("sumP", lamv, sumP(Y), sumP(M) + delta.scale(lamv))
        return out
    for muv in (1, 2):
        Bmid = _b2_mid(l, Fraction(muv))
        B = Matrix.diag_blocks([Matrix.identity(_QQ, ln), Bmid, Matrix.identity(_QQ, ln)])
        if not h_group_membership(_QQ, n, l, B):
            out.append(("generic", case, "membership", str(muv), "-", "-"))
            continue
        Y = B @ M @ inverse(B)
        bad("R-fixed", muv, Y.block(ln + l, L, 0, ln), M.block(ln + l, L, 0, ln))
        Wb = M.block(ln + l, L, ln, ln + l)
        bad("W'", muv, Y.block(ln + l, L, ln, ln + l), Wb @ inverse(Bmid))
    return out


# ---------------------------------------------------------------------------
# Equivariance
# ---------------------------------------------------------------------------

def verify_equivariance(chain: ChainSpec, trials: int = 100, seed: int = 0,
                        field=None) -> VerificationReport:
    t0 = time.monotonic()
    field = field or GF(7)
    params = {"chain": chain.letter, "n1": chain.n1,
              "sig": [chain.signature_at(1).l, chain.signature_at(1).r, chain.signature_at(1).z],
              "trials": trials, "seed": seed, "field": field.name}
    rng = _rng_for(seed, f"equivariance-{chain.letter}")
    levels = max(1, len(chain.prefix))
    wit = []
    for lvl in range(1, levels + 1):
        gt = chain.group_at(lvl)
        N = chain.ambient_at(lvl + 1)
        for _ in range(trials):
            g = random_group_element(gt, field, rng, word_length=4)
            if chain.letter == "A":
                M = random_matrix(N, N, field, rng)
            else:
                M = random_algebra_element(chain.group_at(lvl + 1), field, rng)
            G = embed_group(chain, lvl, g)
            lhs = project_dual(chain, lvl, G @ M @ inverse(G))
            rhs = g @ project_dual(chain, lvl, M) @ inverse(g)
            if lhs != rhs:
                wit.append({"level": lvl, "g": [[field.format(x) for x in g.row_list(i)]
                                                for i in range(g.rows)]})
                break
    verdict = "pass" if not wit else "fail"
    return _report(f"equivariance-{chain.letter}", params, verdict, wit, t0)


# ---------------------------------------------------------------------------
# Rank-bound witness searches (statistical)
# ---------------------------------------------------------------------------

def verify_rank_bound_samples(lemma: str, n: int, m: int, trials: int = 20,
                              seed: int = 0, field=None) -> VerificationReport:
    """Contrapositive searches: a sample whose off-diagonal block already
    exceeds the bound must admit a conjugate exposing that excess in the
    hypothesis block (or, for the H-form, independent outer W columns)."""
    t0 = time.monotonic()
    field = field or GF(7)
    params = {"lemma": lemma, "n": n, "m": m, "trials": trials, "seed": seed,
              "field": field.name}
    rng = _rng_for(seed, f"rankbound-{lemma}")
    hits = 0
    misses = []
    for trial in range(trials):
        if lemma in ("sp", "od"):
            skew = lemma == "od"
            gt = GroupType("C" if lemma == "sp" else "D", n)
            bound = m if lemma == "sp" else 2 * m
            while True:
                P = random_matrix(n, n, field, rng)
                Q = random_sym_or_skew(field, n, rng, skew)
                R = random_sym_or_skew(field, n, rng, skew)
                M = Matrix.from_blocks([[P, Q], [R, -P.transpose()]])
                if rank(Q) > bound:
                    break
            I = Matrix.identity(field, n)
            Z = Matrix.zeros(field, n)
            sgn = -1 if lemma == "sp" else 1
            cands = [Matrix.from_blocks([[Z, I], [I.scale(sgn), Z]])]
            for _ in range(4):
                A = random_sym_or_skew(field, n, rng, skew)
                cands.append(Matrix.from_blocks([[Z, I], [I.scale(sgn), A]]))
                cands.append(Matrix.from_blocks([[I, A], [Z, I]]))
            found = None
            for g in cands:
                assert group_membership(gt, g)
                Mc = g @ M @ inverse(g)
                if rank(Mc.block(n, 2 * n, 0, n)) > bound:
                    found = g
                    break
            if found is not None:
                hits += 1
            else:
                misses.append({"trial": trial})
        elif lemma == "b":
            l = 3
            ln = l * n
            L = l * (2 * n + 1)
            Hg = h_form_gram(field, n, l)
            while True:
                raw = random_matrix(L, L, field, rng)
                half = field.inv(field.coerce(2))
                M = (raw - Hg @ raw.transpose() @ Hg).scale(half)
                if rank(M.block(ln + l, L, 0, ln)) > m:
                    break
            cands = [Matrix.identity(field, L), Hg]
            for _ in range(4):
                A = random_matrix(ln, l, field, rng)
                J = Matrix.from_rows(field, [[field.one if a + b == l - 1 else field.zero
                                              for b in range(l)] for a in range(l)])
                half = field.inv(field.coerce(2))
                shear = Matrix.from_blocks([
                    [Matrix.identity(field, ln), A, (A @ J @ A.transpose()).scale(field.neg(half))],
                    [Matrix.zeros(field, l, ln), Matrix.identity(field, l), -(J @ A.transpose())],
                    [Matrix.zeros(field, ln), Matrix.zeros(field, ln, l), Matrix.identity(field, ln)],
                ])
                cands.append(shear)
                cands.append(Hg @ shear)
            found = None
            for g in cands:
                if not h_group_membership(field, n, l, g):
                    continue
                Mc = g @ M @ inverse(g)
                Rblk = Mc.block(ln + l, L, 0, ln)
                Wblk = Mc.block(ln + l, L, ln, ln + l)
                two = Wblk.submatrix(range(ln), [0, l - 1])
                if rank(Rblk) > m and rank(two) == 2:
                    found = g
                    break
            if found is not None:
                hits += 1
            else:
                misses.append({"trial": trial})
        else:
            raise ValueError(f"unknown rank-bound lemma {lemma!r}")
    rate = hits / trials if trials else 1.0
    verdict = "statistical-pass" if rate >= 0.95 else "fail"
    return _report(f"rankbound-{lemma}", params, verdict,
                   [{"witness_rate": rate, "misses": misses[:5]}], t0)


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------

def default_suite_config() -> list[dict]:
    return [
        {"lemma": "char2a", "field": "gf:3", "n": 2},
        {"lemma": "char2a", "field": "gf:5", "n": 2},
        *[{"lemma": "char2b", "n": n} for n in range(2, 9)],
        # the commutator-plus-scalar coverage needs char not dividing m:
        # over GF(2) use m = 3 (m = 2 misses every trace-1 matrix)
        {"lemma": "commutator", "field": "gf:3", "m": 2},
        {"lemma": "commutator", "field": "gf:2", "m": 3},
        *[{"lemma": f"conj-{c}"} for c in ("2", "3a", "4a", "C", "D", "B1", "B2")],
        {"lemma": "equivariance-A", "chain": {"type": "A", "n1": 2, "prefix": [[1, 1, 1]], "repeat": [[1, 1, 1]]}, "trials": 50},
        {"lemma": "equivariance-B", "chain": {"type": "B", "n1": 1, "prefix": [[1, 0, 2]], "repeat": [[1, 0, 2]]}, "trials": 25},
        {"lemma": "equivariance-B", "chain": {"type": "B", "n1": 1, "prefix": [[3, 0, 0]], "repeat": [[3, 0, 0]]}, "trials": 25},
        {"lemma": "equivariance-B", "chain": {"type": "B", "n1": 1, "prefix": [[3, 0, 2]], "repeat": [[3, 0, 2]]}, "trials": 15},
        {"lemma": "equivariance-C", "chain": {"type": "C", "n1": 1, "prefix": [[2, 0, 1]], "repeat": [[2, 0, 1]]}, "trials": 50},
        {"lemma": "equivariance-D", "chain": {"type": "D", "n1": 2, "prefix": [[2, 0, 1]], "repeat": [[2, 0, 1]]}, "trials": 50},
        {"lemma": "rankbound-sp", "n": 8, "m": 1, "trials": 20},
        {"lemma": "rankbound-od", "n": 8, "m": 1, "trials": 20},
        {"lemma": "rankbound-b", "n": 2, "m": 1, "trials": 10},
    ]


def run_one(entry: dict, seed: int = 0) -> VerificationReport:
    lemma = entry["lemma"]
    if lemma == "char2a":
        return verify_char2("a", field_from_name(entry["field"]), entry["n"],
                            entry.get("mode", "enumerate"), entry.get("trials", 0), seed)
    if lemma == "char2b":
        return verify_char2("b", GF(2), entry["n"], seed=seed)
    if lemma == "commutator":
        return verify_commutator_scalar(field_from_name(entry["field"]), entry["m"])
    if lemma.startswith("conj-"):
        return verify_conjugation_identity(lemma[5:], tamper=entry.get("tamper", False))
    if lemma.startswith("equivariance"):
        ch = chain_from_json(entry["chain"])
        return verify_equivariance(ch, entry.get("trials", 50), seed,
                                   field_from_name(entry.get("field", "gf:7")))
    if lemma.startswith("rankbound-"):
        return verify_rank_bound_samples(lemma[10:], entry["n"], entry["m"],
                                         entry.get("trials", 20), seed,
                                         field_from_name(entry.get("field", "gf:7")))
    raise ValueError(f"unknown lemma id {lemma!r}")


def run_suite(config: list[dict] | None = None, seed: int = 0) -> list[VerificationReport]:
    config = default_suite_config() if config is None else config
    reports = [run_one(entry, seed) for entry in config]
    reports.sort(key=lambda r: (r.lemma, str(sorted(r.params.items()))))
    return reports
