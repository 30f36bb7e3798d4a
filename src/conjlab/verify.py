"""Named verifiers for the computational identities behind the rank-strata
classification: characteristic-2 density surrogates, commutator coverage,
block conjugation identities (checked symbolically and on integers),
equivariance of dual projections, and contrapositive witness searches for the
rank-bound lemmas.

Every verifier returns a :class:`VerificationReport`; a ``fail`` verdict
always carries a concrete witness.  Reports are pure functions of
(lemma id, parameters, seed).
"""

from __future__ import annotations

import operator
import random
import time
from fractions import Fraction
from itertools import accumulate

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
    form_inverse,
    form_matrix,
    group_inverse,
    random_algebra_element,
    random_group_element,
    random_sym_or_skew,
)
from .coordpoly import PolyContext, PolyGrid, form_layout, layout_grid, poly_format, symbolic_matrix
from .fields import GF, QQ, Record, field_from_name, integral
from .graphs import (ReductionCertificate, char2_derivative, char2_gamma, incidence_rank_check,
                     reduce_graph, replay)
from .matrix import Matrix, inverse, random_matrix, rank, rref_rows
from .pencil import ENUMERATION_BUDGET, BudgetExceeded, _refuse_over_budget


class VerificationReport(Record):
    # verdict: "pass", "fail" or "statistical-pass"
    __slots__ = ("lemma", "params", "verdict", "witnesses", "ms")

    def __init__(self, lemma, params, verdict, witnesses=None, ms=0):
        super().__init__(lemma, params, verdict, [] if witnesses is None else witnesses, ms)

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


def _refuse_over_size(what: str, charge: int) -> None:
    """Refuse, before anything is built, a size whose charge (entries built,
    or trials times N^3 for N x N products) is above the enumeration budget."""
    if charge > ENUMERATION_BUDGET:
        raise BudgetExceeded(f"{what} = {charge} exceeds the enumeration budget "
                             f"of {ENUMERATION_BUDGET}")


# ---------------------------------------------------------------------------
# Characteristic-2 density and commutator coverage
# ---------------------------------------------------------------------------

def _digits(code, p, k):
    """The matrix of a code in the coverage scans: entry k is base-p digit k."""
    return tuple(code // p ** i % p for i in range(k))


def _monic_codes(p, k):
    """0, then every code below p^k whose first nonzero digit is 1: one
    vector of each line of F_p^k."""
    return [0] + [p ** j * (1 + p * t) for j in range(k) for t in range(p ** (k - 1 - j))]


def _first_uncovered(p, dim, bases):
    """The least code (see :func:`_digits`) of a vector of F_p^dim in none of
    the spans of ``bases`` (lists of vectors); -1 if they cover F_p^dim.

    A vector is an int with digit k in bits [s k, s k + s), where
    2^(s-1) >= p.  Two such ints add digit by digit without a carry, as each
    digit sum is below 2p <= 2^s; adding 2^(s-1) - p to every digit sets the
    top bit of exactly the digits >= p, and one mask subtracts p from them.
    Over GF(2) this is XOR.  Each span is listed from the ints of its basis
    rows and marked in a bytearray indexed by those ints; the span of the
    unit vectors lists every vector in code order, which reads the marks
    back.
    """
    s = (p - 1).bit_length() + 1
    top = s - 1
    ones = sum(1 << s * k for k in range(dim))
    high, bias = ones << top, ones * ((1 << top) - p)

    def span(rows):
        """Every sum of c_i rows[i], c_i in F_p, with c_0 the lowest digit of its index."""
        vecs = [0]
        for b in rows:
            step, grown = vecs, list(vecs)
            for _ in range(p - 1):
                step = [z - ((z + bias & high) >> top) * p for v in step for z in (v + b,)]
                grown += step
            vecs = grown
        return vecs

    covered = bytearray(1 << s * dim)
    for basis in bases:
        for v in span([sum(x % p << s * k for k, x in enumerate(row)) for row in basis]):
            covered[v] = 1
    return bytes(map(covered.__getitem__, span([1 << s * k for k in range(dim)]))).find(0)


def _coverage_report(lemma, params, field, n, units, reps, t0) -> VerificationReport:
    """Exact coverage of gl_n(F_p) by the image of a map linear in its second
    argument: the union over outer matrices A of the span of ``units(A, n, p)``,
    the images of the matrix units.  That span is constant on the orbits of
    a group acting on the outer matrices, and ``reps(p, n^2)`` lists the code
    of one A in each orbit; so the distinct spans, their union and a span of
    full dimension are those of the loop over every A.  A span of dimension
    n^2 passes at once; otherwise the witness is the least uncovered code
    (:func:`_first_uncovered`), which is the first missing target of the
    former enumeration of every pair."""
    p, dim = field.p, n * n
    if p ** (2 * dim) > 10**7:  # the pair budget of that enumeration, kept
        raise BudgetExceeded(f"GF({p}) with n = {n} exceeds the enumeration budget")
    spans = set()
    for code in reps(p, dim):
        gens = units(_digits(code, p, dim), n, p)
        pivots, rows = rref_rows(Matrix(field, len(gens), dim, sum(gens, ())))
        if len(pivots) == dim:
            return _report(lemma, params, "pass", [], t0)
        spans.add(tuple(map(tuple, rows)))
    code = _first_uncovered(p, dim, spans)
    wit = [] if code < 0 else [{"missing_target": list(_digits(code, p, dim))}]
    return _report(lemma, params, "fail" if wit else "pass", wit, t0)


def _char2a_units(A, n, p):
    """A E_ij + A^T E_ji: column i of A in column j, plus row j of A in column i."""
    out = []
    for i in range(n):
        for j in range(n):
            v = [0] * (n * n)
            v[j::n] = A[i::n]
            v[i::n] = map(operator.add, v[i::n], A[j * n:j * n + n])
            out.append(tuple([x % p for x in v]))
    return out


def _char2a_reps(p, dim):
    """One A of each orbit of A -> cA, c != 0, which scales every unit image
    by c: 0 and the codes whose first nonzero digit is 1."""
    return _monic_codes(p, dim)


def _commutator_units(X, n, p):
    """[X, E_ij]: column i of X in column j, minus row j of X in row i; then I."""
    out = []
    for i in range(n):
        for j in range(n):
            v = [0] * (n * n)
            v[j::n] = X[i::n]
            v[i * n:i * n + n] = map(operator.sub, v[i * n:i * n + n], X[j * n:j * n + n])
            out.append(tuple([x % p for x in v]))
    return out + [tuple(int(r == c) for r in range(n) for c in range(n))]


def _commutator_reps(p, dim):
    """One X of each orbit of X -> cX + dI, c != 0, since [cX + dI, E] =
    c[X, E]: the codes whose digit 0 (entry X_11) is 0 and whose first
    nonzero digit is 1."""
    return [p * code for code in _monic_codes(p, dim - 1)]


def verify_char2(part: str, field, n: int, mode: str = "enumerate",
                 trials: int = 0, seed: int = 0) -> VerificationReport:
    """part 'a': {PQ + P^T Q^T} covers gl_n over odd characteristic.
    part 'b': over GF(2) the derivative of (P, Q) -> PQ + P^T Q^T at the
    superdiagonal / antidiagonal point, :func:`graphs.char2_derivative`, has
    full rank n^2 - 1.  The multigraph :func:`graphs.char2_gamma` is that
    derivative's column graph, so its replayed reduction certificate and its
    incidence surjectivity certify the same map independently of the rank.

    Part (a) in ``enumerate`` mode is exact: the map is linear in Q, so see
    :func:`_coverage_report`; the witness is the one the enumeration of all
    pairs gave.  ``sample`` mode draws ``trials`` >= 1 pairs, at most the
    enumeration budget, and reports coverage; any other mode is a ValueError.
    """
    t0 = time.monotonic()
    params = {"part": part, "field": field.name, "n": n, "mode": mode, "trials": trials,
              "seed": seed}
    if part == "a":
        if not isinstance(field, GF) or field.p == 2:
            raise ValueError("part (a) needs an odd finite field")
        lemma = "char2a"
        if mode == "enumerate":
            return _coverage_report(lemma, params, field, n, _char2a_units, _char2a_reps, t0)
        if mode != "sample":
            raise ValueError(f"part (a) mode must be 'enumerate' or 'sample', got {mode!r}")
        if trials < 1:
            raise ValueError("sample mode needs trials >= 1")
        _refuse_over_budget(trials)
        rng = _rng_for(seed, lemma)
        pairs = ((random_matrix(n, n, field, rng), random_matrix(n, n, field, rng))
                 for _ in range(trials))
        seen = {(A @ B + A.transpose() @ B.transpose()).entries for A, B in pairs}
        cov = len(seen) / field.p ** (n * n)
        return _report(lemma, params, "statistical-pass", [{"coverage": cov}], t0)
    if part != "b":
        raise ValueError("part must be 'a' or 'b'")
    lemma = "char2b"
    _refuse_over_size(f"char2b at n = {n}: the derivative's (n^2 - 1) 2n^2 entries",
                      (n * n - 1) * 2 * n * n)
    rk = rank(char2_derivative(n))
    gamma = char2_gamma(n)
    res = reduce_graph(gamma)
    cert_ok = isinstance(res, ReductionCertificate) and replay(gamma, res)
    surj, _ = incidence_rank_check(gamma, GF(2))
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
    checks the union over X of span([X, E_ij], I), one X of each orbit of
    X -> cX + dI (:func:`_commutator_reps`), and scans for the witness in
    the order of the former enumeration of all pairs, which keeps it.
    """
    t0 = time.monotonic()
    params = {"field": field.name, "m": m}
    if not isinstance(field, GF):
        raise ValueError(f"commutator coverage needs a finite field gf:<p>, got {field.name}")
    return _coverage_report("commutator", params, field, m, _commutator_units,
                            _commutator_reps, t0)


# ---------------------------------------------------------------------------
# Block conjugation identities
# ---------------------------------------------------------------------------

_QQ = QQ()
_LAMBDAS = [Fraction(v) for v in range(4)]  # past the degree 2 in lambda of every identity


def _split(T, rows, cols=None):
    """T cut into a grid of blocks with the given row and column sizes."""
    r = list(accumulate(rows, initial=0))
    c = r if cols is None else list(accumulate(cols, initial=0))
    return [[T.block(r[i], r[i + 1], c[j], c[j + 1]) for j in range(len(c) - 1)]
            for i in range(len(r) - 1)]


def _diag_sum(B):
    return sum((B[a][a] for a in range(1, len(B))), B[0][0])


def _anti_sum(B):
    k = len(B) - 1
    return sum((B[a][k - a] for a in range(1, k + 1)), B[0][k])


def _mismatches(tag, lam, got, want):
    """(tag, lam, i, j, got, want) at every entry where got and want differ."""
    fmt = poly_format if isinstance(got, PolyGrid) else got.field.format
    return [(tag, lam, i, j, fmt(got.entry(i, j)), fmt(want.entry(i, j)))
            for i in range(got.rows) for j in range(got.cols)
            if got.entry(i, j) != want.entry(i, j)]


def _run(identities, X, M, element, tamper, form=None):
    """Check ``identities(X, Y, lam, tamper) -> [(tag, got, want)]`` at every
    sample lam, with Y = A X A^-1 for A = ``element(lam)``: on the symbolic
    grid X, perturbed when ``tamper`` is set, and on the integer matrix M.
    A lies in the group of ``form`` when one is given, and is inverted by
    form_inverse.  Returns the symbolic and the integer mismatches and the
    pairs (lam, Y)."""
    sym, gen, conj = [], [], []
    for lam in _LAMBDAS:
        A = element(lam)
        A_inv = inverse(A) if form is None else form_inverse(A, form)
        Y = A @ X @ A_inv
        conj.append((lam, Y))
        for tag, got, want in identities(X, Y, lam, tamper):
            sym += _mismatches(tag, lam, got, want)
        for tag, got, want in identities(M, A @ M @ A_inv, lam, False):
            gen += [("generic",) + w for w in _mismatches(tag, lam, got, want)]
    return sym, gen, conj


def _random_ints(rng, N):
    return Matrix.from_rows(_QQ, [[rng.randint(-20, 20) for _ in range(N)] for _ in range(N)])


def _shift_matrix(N, pairs, lam):
    """I_N plus lam at the listed (row, col) positions (signs via pairs)."""
    ent = [[_QQ.one if i == j else _QQ.zero for j in range(N)] for i in range(N)]
    for (r, c, s) in pairs:
        ent[r][c] = _QQ.add(ent[r][c], lam * s)
    return Matrix.from_rows(_QQ, ent)


def _check_gl(l, r, f, m, tamper, rng):
    """gl_n in m x m blocks, conjugated by the shear that adds lam times block
    row f to block row 0: P'11 gains lam X_f1, the diagonal block f loses it,
    and the other diagonal P and Q blocks stay fixed.  Case 2 feeds the R row
    (f = l + r), case 3a the first Q block (f = l), case 4a P_2 (f = 1)."""
    n = max(l + r, f + 1) * m

    def identities(X, Y, lam, tamper):
        Xb, Yb = _split(X, [m] * (n // m)), _split(Y, [m] * (n // m))
        feed = Xb[f][0]
        out = [("P'11", Yb[0][0], Xb[0][0] + feed.scale(-lam if tamper else lam))]
        for j in range(1, l + r):
            tag = f"P'{j + 1}{j + 1}" if j < l else f"Q'{j - l + 1}{j - l + 1}"
            out.append((tag, Yb[j][j], Xb[j][j] - feed.scale(lam) if j == f else Xb[j][j]))
        return out

    X = symbolic_matrix(PolyContext("gl", n), _QQ)
    element = lambda lam: _shift_matrix(n, [(a, f * m + a, 1) for a in range(m)], lam)
    return _run(identities, X, _random_ints(rng, n), element, tamper)[:2]


def _check_cd(kind: str, l, m, tamper, rng):
    """The paired shear in Sp_{2n} / O_{2n} at n = l*m: the diagonal blocks
    transform by the stated formulas and the R row stays fixed."""
    n = l * m
    gt = GroupType(kind, n)
    s = 1 if kind == "C" else -1

    def identities(X, Y, lam, tamper):
        (P, Q), (R, S) = [[_split(B, [m] * l) for B in row] for row in _split(X, (n, n))]
        (Py, Qy), (Ry, _) = [[_split(B, [m] * l) for B in row] for row in _split(Y, (n, n))]
        q11 = (Q[0][0] + (S[1][0] - P[0][1].scale(s)).scale(lam)
               - R[1][1].scale(s * lam * lam))
        if tamper:
            q11 = q11 + R[1][1].scale(lam)
        out = [("P'11", Py[0][0], P[0][0] + R[1][0].scale(lam)),
               ("P'22", Py[1][1], P[1][1] + R[0][1].scale(s * lam)),
               ("Q'11", Qy[0][0], q11),
               ("Q'22", Qy[1][1], Q[1][1] + (S[0][1] - P[1][0].scale(s)).scale(s * lam)
                - R[0][0].scale(s * lam * lam))]
        out += [(f"P'{j + 1}{j + 1}", Py[j][j], P[j][j]) for j in range(2, l)]
        out += [(f"Q'{j + 1}{j + 1}", Qy[j][j], Q[j][j]) for j in range(2, l)]
        return out + [(f"R'{i + 1}{j + 1}", Ry[i][j], R[i][j])
                      for i in range(l) for j in range(l)]

    def element(lam):
        A = _shift_matrix(2 * n, [(a, n + m + a, 1) for a in range(m)]
                          + [(m + a, n + a, s) for a in range(m)], lam)
        assert group_membership(gt, A)
        return A

    X = symbolic_matrix(PolyContext(kind, n), _QQ)
    M = algebra_project(gt, _random_ints(rng, 2 * n))
    return _run(identities, X, M, element, tamper, form_matrix(_QQ, gt))[:2]


# -- symbolic H-form matrices (independent coordinates of the odd H-form) ---

def h_symbolic(n: int, l: int) -> PolyGrid:
    """Grid of the H-form algebra, read off the H-form by form_layout: each
    canonical position (i, j) is the variable p[i+1, j+1] of a gl context of
    the ambient size, and every other entry a signed copy of one or zero."""
    ln = l * n
    layout = form_layout(h_form_gram(_QQ, n, l), ln, ln + l)
    return layout_grid(PolyContext("gl", l * (2 * n + 1)), _QQ,
                       {("p", i + 1, j + 1): places for (i, j), places in layout.items()})


def _h_check_algebra(n, l, X: PolyGrid):
    """(i, j, S_ij) at every nonzero entry of S = X H + H X^T, which is
    X H + (X H)^T for the symmetric H; zero for a grid in the algebra."""
    XH = X @ h_form_gram(_QQ, n, l)
    S = XH + XH.transpose()
    return [(i, j, poly_format(S.entry(i, j)))
            for i in range(S.rows) for j in range(S.cols) if S.entry(i, j)]


def _h_setup(n, l, rng):
    """The symbolic H-form grid and a generic integer element of the algebra
    (M - H M^T H) / 2, with H^2 = I."""
    H = h_form_gram(_QQ, n, l)
    raw = _random_ints(rng, l * (2 * n + 1))
    return h_symbolic(n, l), (raw - H @ raw.transpose() @ H).scale(Fraction(1, 2))


def _h_slots(T, n, l):
    """The P, Q, R, S blocks (n x n) and the V, W columns (n x 1) of an H-form
    matrix, each as an l x l grid."""
    sq, col = [n] * l, [1] * l
    (P, V, Q), _, (R, W, S) = _split(T, (l * n, l, l * n))
    return [_split(B, sq) for B in (P, Q, R, S)] + [_split(B, sq, col) for B in (V, W)]


def _check_b1(n, l, tamper, rng):
    """The corner shear of the H-form: block-sum identities for the five
    projected slots, with the quadratic term on the antidiagonal Q-sum."""
    ln = l * n
    L = l * (2 * n + 1)

    def identities(X, Y, lam, tamper):
        P, Q, R, S, V, W = _h_slots(X, n, l)
        Py, Qy, Ry, _, Vy, Wy = _h_slots(Y, n, l)
        quad = R[0][l - 1] + R[l - 1][0]
        if tamper:
            quad = quad.scale(-1)
        lin = P[0][0] - P[l - 1][l - 1] + S[0][0] - S[l - 1][l - 1]
        return [
            ("sumP", _diag_sum(Py), _diag_sum(P) + (R[0][l - 1] - R[l - 1][0]).scale(lam)),
            ("antisumQ", _anti_sum(Qy),
             _anti_sum(Q) + lin.scale(lam) - quad.scale(lam * lam)),
        ] + [(f"R'{i + 1}{j + 1}", Ry[i][j], R[i][j]) for i in range(l) for j in range(l)] + [
            ("sumV", _diag_sum(Vy), _diag_sum(V) + (W[0][l - 1] - W[l - 1][0]).scale(lam)),
            ("antisumW", _anti_sum(Wy), _anti_sum(W)),
        ]

    def element(lam):
        A = _shift_matrix(L, [(a, ln + l + (l - 1) * n + a, -1) for a in range(n)]
                          + [((l - 1) * n + a, ln + l + a, 1) for a in range(n)], lam)
        assert h_group_membership(_QQ, n, l, A)
        return A

    X, M = _h_setup(n, l, rng)
    sym, gen, _ = _run(identities, X, M, element, tamper, h_form_gram(_QQ, n, l))
    return [("algebra",) + w for w in _h_check_algebra(n, l, X)] + sym, gen


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


def _check_b2(n, l, tamper, rng):
    """The middle-block move: outer blocks fixed, V and W mixed by columns,
    and the refined polynomial depends on at most two columns of W."""
    ln = l * n

    def identities(X, Y, mu, tamper):
        (P, V, Q), _, (R, W, S) = _split(X, (ln, l, ln))
        (Py, Vy, Qy), _, (Ry, Wy, Sy) = _split(Y, (ln, l, ln))
        mid_inv = inverse(_b2_mid(l, mu))
        want_w = W @ mid_inv
        if tamper:
            want_w = want_w + W
        return [("P", Py, P), ("Q", Qy, Q), ("R", Ry, R), ("S", Sy, S),
                ("V'", Vy, V @ mid_inv), ("W'", Wy, want_w)]

    def element(mu):
        B = Matrix.diag_blocks([Matrix.identity(_QQ, ln), _b2_mid(l, mu),
                                Matrix.identity(_QQ, ln)])
        assert h_group_membership(_QQ, n, l, B)
        return B

    X, M = _h_setup(n, l, rng)
    sym, gen, conj = _run(identities, X, M, element, tamper, h_form_gram(_QQ, n, l))
    # support of the moved slot polynomial: the antidiagonal W-sum stays
    # within the R variables and two W columns
    base = _anti_sum(_h_slots(X, n, l)[5])
    span_cols = set()
    for mu, Y in conj[1:]:  # every mu but 0
        moved = _anti_sum(_h_slots(Y, n, l)[5]) - base
        moved = sum((moved.entry(r, 0) for r in range(1, n)), moved.entry(0, 0))
        for var in sorted(moved.variables()):
            row, col = var[1] - 1, var[2] - 1
            if not (row >= ln + l and ln <= col < ln + l):
                sym.append(("w-support-foreign", mu, var))
            else:
                span_cols.add(col - ln)
    if len(span_cols) > 2:
        sym.append(("w-support", sorted(span_cols)))
    return sym, gen


_GL_CASES = {"2": (2, 1, 3), "3a": (2, 1, 2), "4a": (3, 0, 1)}  # (l, r, fed block row)


def verify_conjugation_identity(case: str, tamper: bool = False) -> VerificationReport:
    """Exact entrywise verification of the block conjugation identities at
    minimal sizes.  Each case states its identities once and checks them on a
    symbolic grid, whose entries stay polynomials, and on a generic integer
    element of the same algebra; the shear parameter is sampled past its
    degree bound.  ``tamper`` perturbs one identity in the symbolic run only,
    which must then fail."""
    t0 = time.monotonic()
    params = {"case": case, "tamper": tamper}
    rng = random.Random(f"generic:{case}")
    if case in _GL_CASES:
        sym, gen = _check_gl(*_GL_CASES[case], 1, tamper, rng)
    elif case in ("C", "D"):
        sym, gen = _check_cd(case, 3, 1 if case == "C" else 2, tamper, rng)
    elif case == "B1":
        sym, gen = _check_b1(2, 3, tamper, rng)
    elif case == "B2":
        (s3, g3), (s5, g5) = (_check_b2(1, l, tamper, rng) for l in (3, 5))
        sym, gen = s3 + s5, g3 + g5
    else:
        raise ValueError(f"unknown case {case!r}")
    mism = sym + gen
    verdict = "pass" if not mism else "fail"
    witnesses = [[x if isinstance(x, (int, str, bool)) else str(x) for x in w]
                 for w in mism[:8]]
    return _report(f"conj-{case}", params, verdict, witnesses, t0)


# ---------------------------------------------------------------------------
# Equivariance
# ---------------------------------------------------------------------------

def verify_equivariance(chain: ChainSpec, trials: int, field, seed: int = 0) -> VerificationReport:
    if trials < 1:
        raise ValueError("equivariance needs trials >= 1")
    _refuse_over_budget(trials)
    levels = max(1, len(chain.prefix))
    # the largest size drawn is the last level's, as no map shrinks n; the
    # size walk stops once n is past the budget
    N = GroupType(chain.letter, chain.n_at(levels + 1, cap=ENUMERATION_BUDGET)).ambient
    _refuse_over_size(f"{trials} trials at size N = {N}: trials N^3", trials * N ** 3)
    t0 = time.monotonic()
    params = {"chain": chain.letter, "n1": chain.n1,
              "sig": [chain.signature_at(1).l, chain.signature_at(1).r, chain.signature_at(1).z],
              "trials": trials, "seed": seed, "field": field.name}
    rng = _rng_for(seed, f"equivariance-{chain.letter}")
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
            lhs = project_dual(chain, lvl, G @ M @ group_inverse(chain.group_at(lvl + 1), G))
            rhs = g @ project_dual(chain, lvl, M) @ group_inverse(gt, g)
            if lhs != rhs:
                wit.append({"level": lvl, "g": [[field.format(x) for x in g.row_list(i)]
                                                for i in range(g.rows)]})
                break
    verdict = "pass" if not wit else "fail"
    return _report(f"equivariance-{chain.letter}", params, verdict, wit, t0)


# ---------------------------------------------------------------------------
# Rank-bound witness searches (statistical)
# ---------------------------------------------------------------------------

def _form_exposes(gt: GroupType, field, bound: int, rng) -> bool:
    """Draw M = [[P, Q], [R, -P^T]] in sp_2n (Q, R symmetric) or o_2n (Q, R
    skew) until rank Q > bound, and conjugate by the form J = [[0, I], [sI, 0]]
    (s = -1 for sp, +1 for o): J M J^-1 = [[-P^T, sR], [sQ, P]].  A sample is
    exposed when the lower-left block is sQ, of rank above the bound; a wrong
    conjugator shows there as a block other than sQ, even when R too has rank
    above the bound."""
    n, skew = gt.n, gt.letter == "D"
    while True:
        P = random_matrix(n, n, field, rng)
        Q = random_sym_or_skew(field, n, rng, skew)
        R = random_sym_or_skew(field, n, rng, skew)
        if rank(Q) > bound:
            break
    M = Matrix.from_blocks([[P, Q], [R, -P.transpose()]])
    J = form_matrix(field, gt)
    assert group_membership(gt, J)
    exposed = (J @ M @ J.transpose()).block(n, 2 * n, 0, n)
    s = field.one if skew else field.neg(field.one)
    return exposed == Q.scale(s) and rank(exposed) > bound


def _h_form_exposes(field, n: int, bound: int, rng) -> bool:
    """Draw M in the H-form algebra (l = 3) until its R block has rank > bound,
    then look for a group element among I, H and four random shears, each
    also composed with H, whose conjugate keeps the R block above the bound
    with the outer W columns independent."""
    l = 3
    ln = l * n
    L = l * (2 * n + 1)
    Hg = h_form_gram(field, n, l)
    half = field.inv(field.coerce(2))
    while True:
        raw = random_matrix(L, L, field, rng)
        M = (raw - Hg @ raw.transpose() @ Hg).scale(half)
        if rank(M.block(ln + l, L, 0, ln)) > bound:
            break
    J = Matrix.from_rows(field, [[field.one if a + b == l - 1 else field.zero
                                  for b in range(l)] for a in range(l)])
    cands = [Matrix.identity(field, L), Hg]
    for _ in range(4):
        A = random_matrix(ln, l, field, rng)
        shear = Matrix.from_blocks([
            [Matrix.identity(field, ln), A, (A @ J @ A.transpose()).scale(field.neg(half))],
            [Matrix.zeros(field, l, ln), Matrix.identity(field, l), -(J @ A.transpose())],
            [Matrix.zeros(field, ln), Matrix.zeros(field, ln, l), Matrix.identity(field, ln)],
        ])
        cands += [shear, Hg @ shear]
    for g in cands:
        if not h_group_membership(field, n, l, g):
            continue
        Mc = g @ M @ form_inverse(g, Hg)
        two = Mc.block(ln + l, L, ln, ln + l).submatrix(range(ln), [0, l - 1])
        if rank(Mc.block(ln + l, L, 0, ln)) > bound and rank(two) == 2:
            return True
    return False


def verify_rank_bound_samples(lemma: str, n: int, m: int, trials: int, field,
                              seed: int = 0) -> VerificationReport:
    """Contrapositive searches: a sample whose off-diagonal block already
    exceeds the bound must admit a conjugate exposing that excess in the
    hypothesis block (or, for the H-form, independent outer W columns).

    For sp and od the form J alone exposes every sample, and each trial
    checks that its lower-left block is the sample's sQ (see
    :func:`_form_exposes`); the H-form search (b) tries several candidates."""
    if trials < 1:
        raise ValueError(f"rankbound-{lemma} needs trials >= 1")
    _refuse_over_budget(trials)
    t0 = time.monotonic()
    params = {"lemma": lemma, "n": n, "m": m, "trials": trials, "seed": seed,
              "field": field.name}
    # the sampled block is symmetric n x n (sp), skew n x n (od) or skew
    # 3n x 3n (b), so no draw exceeds a bound at or above its largest rank
    bound = 2 * m if lemma == "od" else m
    most = {"sp": n, "od": 2 * (n // 2), "b": 2 * (3 * n // 2)}.get(lemma)
    if most is None:
        raise ValueError(f"unknown rank-bound lemma {lemma!r}")
    if bound >= most:
        raise ValueError(f"rankbound-{lemma} with n = {n} never exceeds the bound {bound}: "
                         f"the sampled block has rank at most {most}")
    if lemma == "b" and field.characteristic == 2:
        raise ValueError("rankbound-b halves its samples, so it needs characteristic other than 2")
    N = 3 * (2 * n + 1) if lemma == "b" else 2 * n  # the largest matrix a trial draws
    _refuse_over_size(f"{trials} trials at size N = {N}: trials N^3", trials * N ** 3)
    rng = _rng_for(seed, f"rankbound-{lemma}")
    if lemma == "b":
        search = lambda: _h_form_exposes(field, n, bound, rng)
    else:
        gt = GroupType("C" if lemma == "sp" else "D", n)
        search = lambda: _form_exposes(gt, field, bound, rng)
    misses = [{"trial": t} for t in range(trials) if not search()]
    rate = (trials - len(misses)) / trials
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


# The entry keys each lemma family reads besides "lemma"; run_one rejects any other.
_READS = {"char2a": "field n mode trials", "char2b": "n", "commutator": "field m", "conj": "tamper",
          "equivariance": "chain trials field", "rankbound": "n m trials field"}


def run_one(entry: dict, seed: int = 0) -> VerificationReport:
    """The report of one suite entry: a JSON object with a string "lemma" and
    only keys its family reads (``_READS``), a missing key taking the lemma's
    default.  "n", "m" and "trials" are integers (:func:`fields.integral`),
    "tamper" a boolean, "chain" of the lemma's type; else a ValueError."""
    if not isinstance(entry, dict) or not isinstance(entry.get("lemma"), str):
        raise ValueError("a suite entry must be a JSON object with 'lemma' as a string")
    lemma = entry["lemma"]
    family, _, case = lemma.partition("-")
    if family not in _READS:
        raise ValueError(f"unknown lemma id {lemma!r}")
    unread = sorted(set(entry) - {"lemma", *_READS[family].split()}, key=str)
    if unread:
        raise ValueError(f"lemma {lemma!r} reads no {unread[0]!r}, only: {_READS[family]}")

    def num(key, least, default):
        v = integral(entry.get(key, default))
        if v is None or v < least:
            raise ValueError(f"suite entry {lemma!r} needs {key!r} as an integer >= {least}")
        return v

    field = field_from_name(entry.get("field", "gf:3" if lemma == "commutator" else "gf:7"))
    if lemma == "char2a":
        return verify_char2("a", field, num("n", 1, 2), entry.get("mode", "enumerate"),
                            num("trials", 0, 0), seed)
    if lemma == "char2b":
        return verify_char2("b", GF(2), num("n", 1, 2), seed=seed)
    if lemma == "commutator":
        return verify_commutator_scalar(field, num("m", 1, 1))
    if family == "conj":
        tamper = entry.get("tamper", False)
        if not isinstance(tamper, bool):
            raise ValueError(f"suite entry {lemma!r} needs 'tamper' as true or false")
        return verify_conjugation_identity(case, tamper=tamper)
    if family == "equivariance":
        name = "equivariance-A" if lemma == "equivariance" else lemma
        chains = [e["chain"] for e in default_suite_config() if e["lemma"] == name]
        if "chain" not in entry and not chains:
            raise ValueError(f"unknown lemma id {lemma!r}")
        ch = chain_from_json(entry["chain"] if "chain" in entry else chains[0])
        if lemma not in ("equivariance", f"equivariance-{ch.letter}"):
            raise ValueError(f"lemma {lemma!r} does not match its type {ch.letter} chain")
        return verify_equivariance(ch, num("trials", 1, 200), field, seed)
    if family == "rankbound":
        return verify_rank_bound_samples(case, num("n", 1, 2), num("m", 0, 1),
                                         num("trials", 1, 200), field, seed)
    raise ValueError(f"unknown lemma id {lemma!r}")


def run_suite(config: list[dict] | None = None, seed: int = 0) -> list[VerificationReport]:
    config = default_suite_config() if config is None else config
    reports = [run_one(entry, seed) for entry in config]
    reports.sort(key=lambda r: (r.lemma, str(sorted(r.params.items()))))
    return reports
