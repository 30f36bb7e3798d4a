import itertools
import random
import time

import pytest
from fractions import Fraction
import hypothesis
from hypothesis import given, settings, strategies as st

from conftest import (
    berkowitz_oracle,
    charpoly_oracle,
    eigen_scan_oracle,
    gauss_jordan_oracle,
    laplace_det,
    matmul_oracle,
    matrix_of_rank,
    minor_rank_oracle,
    rational_roots_oracle,
)

from conjlab import matrix
from conjlab.fields import GF, QQ, QQT, RatFunc, UnsupportedFieldOperation, qpoly_rational_roots
from conjlab.matrix import (
    Matrix,
    MatrixError,
    PoleAtZero,
    Span,
    char_poly,
    det,
    eigen_data,
    inverse,
    kernel_basis,
    lift_to_qqt,
    limit_at_zero,
    rank,
    rank_and_rref,
    random_invertible,
    random_matrix,
    rref_rows,
    solve_left,
    solve_right,
)

G2, G3, G5, G7, QQ_, QQT_ = GF(2), GF(3), GF(5), GF(7), QQ(), QQT()
G11, G13, G_BIG = GF(11), GF(13), GF(2**31 - 1)


def test_rref_identity_gf2():
    I3 = Matrix.identity(G2, 3)
    res = rank_and_rref(I3)
    assert res.rank == 3
    assert res.rref == I3
    assert res.transform == I3


def test_rank_proportional_rows():
    M = Matrix.from_rows(QQ_, [[1, 2], [2, 4]])
    assert rank(M) == 1


def test_rank_matches_minor_oracle(rng):
    for _ in range(25):
        n = rng.randint(1, 5)
        M = random_matrix(n, n, G7, rng)
        assert rank(M) == minor_rank_oracle(M)
    for _ in range(10):
        M = random_matrix(3, 4, QQ_, rng)
        assert rank(M) == minor_rank_oracle(M)


def test_rref_postconditions(rng):
    for _ in range(20):
        M = random_matrix(rng.randint(1, 4), rng.randint(1, 4), G5, rng)
        res = rank_and_rref(M)
        assert res.transform @ M == res.rref
        assert rank(res.transform) == M.rows
        assert res.rank == len(res.pivots)


def test_charpoly_examples():
    cp = char_poly(Matrix.from_rows(QQ_, [[1, 0], [0, 2]]))
    assert cp.coeffs == (Fraction(2), Fraction(-3), Fraction(1))  # x^2 - 3x + 2
    cp = char_poly(Matrix.from_rows(QQ_, [[0, 1], [0, 0]]))
    assert cp.coeffs == (Fraction(0), Fraction(0), Fraction(1))  # x^2


def test_charpoly_against_cofactor_oracle(rng):
    for fld in (G7, G2, QQ_):
        for _ in range(12):
            n = rng.randint(1, 4)
            M = random_matrix(n, n, fld, rng)
            assert char_poly(M).coeffs == charpoly_oracle(M).coeffs


def test_charpoly_division_free_over_qqt():
    t = QQT_.t
    M = Matrix.from_rows(QQT_, [[t, QQT_.one], [QQT_.zero, QQT_.one]])
    assert char_poly(M).coeffs == charpoly_oracle(M).coeffs


def test_charpoly_similarity_invariant(rng):
    for fld in (G2, G7, QQ_):
        for _ in range(100):
            n = rng.randint(1, 5)
            M = random_matrix(n, n, fld, rng)
            g = random_invertible(n, fld, rng)
            assert char_poly(g @ M @ inverse(g)).coeffs == char_poly(M).coeffs


def test_eigen_examples():
    assert eigen_data(Matrix.from_rows(QQ_, [[5, 0, 0], [0, 5, 0], [0, 0, 7]])) == [
        (Fraction(5), 2), (Fraction(7), 1)]
    J = Matrix.from_rows(QQ_, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert eigen_data(J) == [(Fraction(0), 1)]
    comp = Matrix.from_rows(QQ_, [[0, -1], [1, 0]])
    assert eigen_data(comp) == []
    with pytest.raises(UnsupportedFieldOperation):
        eigen_data(Matrix.identity(QQT_, 2))


def _eigen_exhaustive(fld, n):
    np = fld.p ** (n * n)
    ident = Matrix.identity(fld, n)
    for code in range(np):
        ent = []
        c = code
        for _ in range(n * n):
            ent.append(c % fld.p)
            c //= fld.p
        M = Matrix(fld, n, n, tuple(ent))
        eig = dict(eigen_data(M))
        for lam in fld.elements():
            r = rank(M - ident.scale(lam))
            if lam in eig:
                assert r == n - eig[lam]
            else:
                assert r == n


def test_eigen_exhaustive_small_fields():
    # exhaustive over the matrix space where feasible; always exhaustive in lambda
    _eigen_exhaustive(G2, 2)
    _eigen_exhaustive(G2, 3)
    _eigen_exhaustive(G3, 2)
    _eigen_exhaustive(G5, 2)


def test_eigen_sampled_gf7_n3(rng):
    ident = Matrix.identity(G7, 3)
    for _ in range(150):
        M = random_matrix(3, 3, G7, rng)
        eig = dict(eigen_data(M))
        for lam in G7.elements():
            r = rank(M - ident.scale(lam))
            assert r == 3 - eig.get(lam, 0)


def test_congruence_preserves_skew(rng):
    J = Matrix.from_rows(QQ_, [[0, 1], [-1, 0]])
    for _ in range(20):
        g = random_invertible(2, QQ_, rng)
        S = g @ J @ g.transpose()
        assert (S + S.transpose()).is_zero()


def test_rank_transpose_and_conjugation_invariance(rng):
    for fld in (G5, QQ_):
        for _ in range(30):
            n = rng.randint(1, 4)
            M = random_matrix(n, n, fld, rng)
            assert rank(M) == rank(M.transpose())
            g = random_invertible(n, fld, rng)
            assert rank(g @ M @ inverse(g)) == rank(M)


def test_skew_even_rank():
    # exhaustive over skew 4x4 matrices of GF(3)
    for vals in itertools.product(range(3), repeat=6):
        ent = [[0] * 4 for _ in range(4)]
        idx = 0
        for i in range(4):
            for j in range(i + 1, 4):
                ent[i][j] = vals[idx]
                ent[j][i] = (-vals[idx]) % 3
                idx += 1
        assert rank(Matrix.from_rows(G3, ent)) % 2 == 0
    rng = random.Random(5)
    for _ in range(40):
        M = random_matrix(4, 4, QQ_, rng)
        S = M - M.transpose()
        assert rank(S) % 2 == 0


def test_limit_at_zero_examples():
    t = QQT_.t
    M = Matrix.from_rows(QQT_, [
        [QQT_.div(QQT_.one, QQT_.add(QQT_.one, t)), t],
        [QQT_.zero, QQT_.one],
    ])
    assert limit_at_zero(M) == Matrix.identity(QQ_, 2)
    bad = Matrix.from_rows(QQT_, [[QQT_.inv(t)]])
    with pytest.raises(PoleAtZero) as ei:
        limit_at_zero(bad)
    assert str(ei.value) == "pole at t=0 in entry (1,1)"
    R = Matrix.from_rows(QQ_, [[0, 3], [-3, 0]])
    tR = lift_to_qqt(R).scale(t).scale(t)
    assert limit_at_zero(tR).is_zero()


def test_limit_multiplicative(rng):
    t = QQT_.t
    for _ in range(20):
        A = random_matrix(3, 3, QQT_, rng)
        B = random_matrix(3, 3, QQT_, rng)
        assert limit_at_zero(A @ B) == limit_at_zero(A) @ limit_at_zero(B)


def test_random_invertible():
    rng = random.Random(0)
    assert random_invertible(1, G2, rng) == Matrix.from_rows(G2, [[1]])
    a = random_invertible(3, G5, random.Random(42))
    b = random_invertible(3, G5, random.Random(42))
    assert a == b
    rng = random.Random(7)
    for _ in range(1000):
        assert rank(random_invertible(3, G5, rng)) == 3
    with pytest.raises(UnsupportedFieldOperation):
        random_invertible(2, QQT_, rng)


def test_solvers(rng):
    for _ in range(20):
        A = matrix_of_rank(G7, 4, rng.randint(1, 3), rng)
        X = random_matrix(4, 2, G7, rng)
        B = A @ X
        sol = solve_right(A, B)
        assert sol is not None and A @ sol == B
        Y = random_matrix(2, 4, G7, rng)
        sol = solve_left(A, Y @ A)
        assert sol is not None and sol @ A == Y @ A
    assert solve_right(Matrix.zeros(QQ_, 2), Matrix.identity(QQ_, 2)) is None


def test_kernel_basis(rng):
    for _ in range(20):
        M = matrix_of_rank(G5, 4, rng.randint(0, 3), rng)
        ker = kernel_basis(M)
        assert (ker.rows, ker.cols) == (4 - rank(M), 4)
        assert rank(ker) == ker.rows
        assert (M @ ker.transpose()).is_zero()


@st.composite
def gf5_matrices(draw, n=3):
    ents = draw(st.lists(st.integers(min_value=0, max_value=4),
                         min_size=n * n, max_size=n * n))
    return Matrix(G5, n, n, tuple(ents))


@settings(max_examples=60, deadline=None)
@given(gf5_matrices(), gf5_matrices(), gf5_matrices())
def test_matrix_ring_laws(A, B, C):
    assert (A @ B) @ C == A @ (B @ C)
    assert A @ (B + C) == A @ B + A @ C
    assert A - B == A + (-B) and (A - B) + B == A
    assert (A + B).transpose() == A.transpose() + B.transpose()
    assert (A @ B).transpose() == B.transpose() @ A.transpose()
    assert (A + B).trace() == G5.add(A.trace(), B.trace())
    assert (A @ B).trace() == (B @ A).trace()


@settings(max_examples=40, deadline=None)
@given(gf5_matrices())
def test_rank_bounds_and_rref_idempotent(A):
    res = rank_and_rref(A)
    assert 0 <= res.rank <= 3
    again = rank_and_rref(res.rref)
    assert again.rref == res.rref


def test_det_matches_charpoly(rng):
    for _ in range(20):
        n = rng.randint(1, 4)
        M = random_matrix(n, n, QQ_, rng)
        cp = char_poly(M)
        sign = Fraction(1) if n % 2 == 0 else Fraction(-1)
        assert det(M) == sign * cp.coeffs[0]


# ---------------------------------------------------------------------------
# The elimination kernel against the frozen Gauss-Jordan loop, the minor
# rank and Laplace expansion
# ---------------------------------------------------------------------------

_T = QQT_.t
KERNEL_FIELDS = [G2, G7, QQ_, QQT_, G3, G_BIG]
NONZERO = {
    G2: [1],
    G7: [1, 2, 3, 6],
    G3: [1, 2],
    G_BIG: [1, 2, 123456789, 2**30, G_BIG.p - 1],
    QQ_: [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 4)],
    QQT_: [QQT_.one, _T, QQT_.inv(QQT_.add(QQT_.one, _T)),
           QQT_.sub(QQT_.mul(_T, _T), QQT_.one), QQT_.coerce(2)],
}


@st.composite
def kernel_matrices(draw, square=False, fields=KERNEL_FIELDS):
    """Small matrices over GF(2), GF(7), QQ, QQ(t), GF(3) and GF(2^31 - 1),
    half their entries zero on average, sometimes with a repeated row."""
    f = draw(st.sampled_from(fields))
    hi = 3 if f is QQT_ else 4
    n = draw(st.integers(0, hi))
    m = n if square else draw(st.integers(0, hi))
    entry = st.one_of(st.just(f.zero), st.sampled_from(NONZERO[f]))
    rows = [draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        rows[-1] = rows[0]
    return Matrix(f, n, m, tuple(v for r in rows for v in r))


@settings(max_examples=200, deadline=None)
@given(kernel_matrices())
def test_rref_rows_match_rank_and_rref(M):
    res = rank_and_rref(M)
    pivots, rows = rref_rows(M)
    assert pivots == res.pivots
    assert rows == [res.rref.row_list(i) for i in range(res.rank)]


def _kernel_basis_reference(M):
    """The canonical right-kernel basis read off the rref of rank_and_rref,
    one row per free column c: 1 at c and minus column c of the rref at the
    pivot columns."""
    f, res = M.field, rank_and_rref(M)
    basis = []
    for free in (c for c in range(M.cols) if c not in res.pivots):
        v = [f.zero] * M.cols
        v[free] = f.one
        for r, pc in enumerate(res.pivots):
            v[pc] = f.neg(res.rref.entry(r, free))
        basis += v
    return Matrix(f, M.cols - res.rank, M.cols, tuple(basis))


@settings(max_examples=200, deadline=None)
@given(kernel_matrices(fields=(G2, G7, QQ_, QQT_)))
def test_kernel_basis_matches_rank_and_rref_reference(M):
    ker = kernel_basis(M)
    assert ker == _kernel_basis_reference(M)
    assert (M @ ker.transpose()).is_zero()


@pytest.mark.parametrize("f", [G2, G7, QQ_, QQT_], ids=str)
def test_kernel_basis_edge_shapes(f):
    # full column rank leaves a 0 x n basis; the zero m x n matrix, the n x n identity
    nz = NONZERO[f]
    for n in range(4):
        full = Matrix(f, n + 1, n, tuple(nz[(i + j) % len(nz)] if j <= i else f.zero
                                         for i in range(n + 1) for j in range(n)))
        assert rank(full) == n
        assert kernel_basis(full) == Matrix(f, 0, n, ())
        for m in range(4):
            assert kernel_basis(Matrix.zeros(f, m, n)) == Matrix.identity(f, n)


def _assert_matches_gauss_jordan(M):
    rk, rref, T, pivots = gauss_jordan_oracle(M)
    res = rank_and_rref(M)
    assert (res.rank, res.pivots) == (rk, pivots)
    assert res.rref == rref and res.transform == T
    assert rank(M) == rk == minor_rank_oracle(M)


@settings(max_examples=200, deadline=None)
@given(kernel_matrices())
def test_rank_and_rref_match_gauss_jordan_oracle(M):
    _assert_matches_gauss_jordan(M)


SWAP_SHAPES = [
    [[0], [0], [1]],
    [[0, 0], [0, 0], [0, 1], [1, 1]],
    [[0, 1, 1], [0, 0, 0], [0, 0, 0], [1, 1, 0]],
    [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    [[1, 1], [1, 1], [0, 1]],
    [[0, 0, 0], [0, 0, 0]],
]


@pytest.mark.parametrize("rows", SWAP_SHAPES, ids=str)
@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f.name)
def test_rank_and_rref_oracle_after_swaps(field, rows):
    _assert_matches_gauss_jordan(Matrix.from_rows(field, rows))


@settings(max_examples=150, deadline=None)
@given(kernel_matrices(square=True))
def test_det_matches_laplace_expansion(M):
    assert det(M) == laplace_det(M)


@pytest.mark.parametrize("rows,want", [
    ([[0, 1], [1, 0]], -1),                      # one swap
    ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),     # one swap of three rows
    ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1),      # two swaps
    ([[0, 0, 2], [0, 3, 0], [5, 0, 0]], -30),
    ([[0, 2, 1], [0, 0, 3], [4, 1, 1]], 24),
    ([[1, 2], [2, 4]], 0),
    ([[0, 1, 1], [0, 0, 1], [0, 0, 0]], 0),
    ([[0, 0], [0, 1]], 0),
], ids=str)
@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f.name)
def test_det_swap_sign_and_singular(field, rows, want):
    M = Matrix.from_rows(field, rows)
    assert det(M) == field.coerce(want) == laplace_det(M)


# ---------------------------------------------------------------------------
# QQ(t) rank, det and inverse by evaluation at integer points, against the
# frozen Gauss-Jordan loop, the minor rank and Laplace expansion
# ---------------------------------------------------------------------------

QQT_DENS = [(1,), (2,), (3,), (1, 1), (-1, 0, 1), (2, 0, 1), (1, -2), (0, 1), (0, 0, 3)]


@st.composite
def qqt_entries(draw):
    """Zero, polynomials and fractions with constant and non-constant denominators."""
    num = draw(st.lists(st.integers(-3, 3), max_size=3))
    return RatFunc.make(num, draw(st.sampled_from(QQT_DENS)))


@st.composite
def qqt_matrices(draw, square=False):
    """Matrices over QQ(t) up to 3 x 3, sometimes with a last row that is a
    multiple (perhaps zero) of the first."""
    n = draw(st.integers(0, 3))
    m = n if square else draw(st.integers(0, 3))
    rows = [[draw(qqt_entries()) for _ in range(m)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        c = draw(qqt_entries())
        rows[-1] = [QQT_.mul(c, v) for v in rows[0]]
    return Matrix(QQT_, n, m, tuple(v for r in rows for v in r))


def _assert_same_ratfuncs(got, want):
    """Equal, printed alike, and canonical: int coefficients in reduced form."""
    assert [str(x) for x in got] == [str(x) for x in want]
    assert list(got) == list(want)
    for x in got:
        assert all(type(c) is int for c in x.num + x.den)
        assert RatFunc.make(x.num, x.den) == x


def _check_qqt_kernels(M):
    rk, _, T, _ = gauss_jordan_oracle(M)
    assert rank(M) == rk == minor_rank_oracle(M)
    if not M.is_square:
        return
    _assert_same_ratfuncs([det(M)], [laplace_det(M)])
    if rk < M.rows:
        with pytest.raises(MatrixError, match="^matrix is singular$"):
            inverse(M)
    else:
        _assert_same_ratfuncs(inverse(M).entries, T.entries)


@settings(max_examples=150, deadline=None)
@given(qqt_matrices())
def test_qqt_rank_det_inverse_match_oracles(M):
    _check_qqt_kernels(M)


@settings(max_examples=150, deadline=None)
@given(qqt_matrices(square=True))
def test_qqt_square_kernels_match_oracles(M):
    _check_qqt_kernels(M)


_S = QQT_.parse
QQT_FIXED = [
    [],                                                           # 0 x 0
    [[0, 0], [0, 0]],                                             # zero matrix
    [[0, 0, 0]],
    [["t"], ["t^2"], ["1"]],
    [["(1)/(t+1)", "(1)/(t+2)"], ["(1)/(t+2)", "(1)/(t+3)"]],     # Hilbert-like
    [["(1)/(t^2+1)", "t"], ["(t)/(t^2+1)", "t^2"]],               # singular
    [["(t^3)/(t+1)", "1", "0"], ["0", "(t^3)/(t-1)", "1"], ["1", "0", "(t^3)/(2*t+1)"]],
    [["1/2", "(t)/(3)", "0"], ["(2)/(3*t-1)", "1", "t^2"], ["0", "1/5", "(t)/(t^2-2)"]],
]


@pytest.mark.parametrize("rows", QQT_FIXED, ids=str)
def test_qqt_kernels_fixed_cases(rows):
    M = Matrix.from_rows(QQT_, [[_S(str(v)) for v in r] for r in rows])
    _check_qqt_kernels(M)


def test_qqt_kernels_5x5_seeded():
    rng = random.Random(9)
    for singular in (False, True):
        rows = [[RatFunc.make([rng.randint(-3, 3) for _ in range(2)], rng.choice(QQT_DENS))
                 for _ in range(5)] for _ in range(5)]
        if singular:
            rows[4] = [QQT_.add(a, QQT_.mul(QQT_.t, b)) for a, b in zip(rows[0], rows[1])]
        _check_qqt_kernels(Matrix(QQT_, 5, 5, tuple(v for r in rows for v in r)))


def test_qqt_empty_and_identity():
    E = Matrix(QQT_, 0, 0, ())
    assert (rank(E), det(E), inverse(E)) == (0, QQT_.one, E)
    assert inverse(Matrix.identity(QQT_, 3)) == Matrix.identity(QQT_, 3)


# ---------------------------------------------------------------------------
# Rational eigenvalues by Sturm bisection, against the divisor scan
# ---------------------------------------------------------------------------

def _polymul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def qq_polys(draw):
    """c * prod (x - r_i)^(m_i) * R(x): zero, repeated and non-integer rational
    roots, and a factor R with small integer coefficients (irrational or no
    real roots, or more rational ones)."""
    p = [draw(small_fractions.filter(bool))]
    for r in draw(st.lists(small_fractions, max_size=3)):
        for _ in range(draw(st.integers(1, 2))):
            p = _polymul(p, [-r, Fraction(1)])
    rest = draw(st.lists(st.integers(-5, 5), max_size=3))
    if rest and rest[-1]:
        p = _polymul(p, [Fraction(c) for c in rest])
    return p


@settings(max_examples=200, deadline=None)
@given(qq_polys())
def test_rational_roots_match_divisor_scan(coeffs):
    assert qpoly_rational_roots(coeffs) == rational_roots_oracle(coeffs)


@pytest.mark.parametrize("coeffs", [
    [1], [0, 1], [0, 0, 5], [-2, 0, 1], [1, 0, 1], [Fraction(-1, 4), 0, 1],
    [0, 0, 0, -1, 1], [6, -5, 1], [-6, 5, -1], [Fraction(1, 2), Fraction(-3, 2), 1],
    [2, -9, 12, -4], [Fraction(1, 3), 1, Fraction(-7, 3)],
], ids=str)
def test_rational_roots_fixed(coeffs):
    assert qpoly_rational_roots(coeffs) == rational_roots_oracle(coeffs)


def _eigen_oracle(M):
    ident = Matrix.identity(QQ_, M.rows)
    return [(lam, M.rows - rank(M - ident.scale(lam)))
            for lam in rational_roots_oracle(charpoly_oracle(M).coeffs)]


@st.composite
def qq_eigen_matrices(draw):
    """Random n x n over QQ, or g T g^-1 for an upper triangular T whose
    diagonal repeats values (zero and non-integers among them)."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        ent = [draw(small_fractions) for _ in range(n * n)]
        return Matrix(QQ_, n, n, tuple(ent))
    diag = st.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2),
                            Fraction(-1, 3), Fraction(12)])
    T = [[draw(diag) if i == j else draw(small_fractions) if i < j else Fraction(0)
          for j in range(n)] for i in range(n)]
    g = Matrix.from_rows(QQ_, [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)])
    hypothesis.assume(rank(g) == n)
    return g @ Matrix.from_rows(QQ_, T) @ inverse(g)


@settings(max_examples=200, deadline=None)
@given(qq_eigen_matrices())
def test_eigen_data_qq_matches_divisor_scan(M):
    assert eigen_data(M) == _eigen_oracle(M)


# Reach: constants whose divisor scan took 8.8 s, and one that did not finish.
BIG = 10**18 + 3
REACH_ROWS = [[BIG, 1, 0], [0, BIG, 0], [2, 3, -7]]


def _sympy_eigen(rows):
    sympy = pytest.importorskip("sympy")
    A = sympy.Matrix(rows)
    n = A.rows
    return sorted((Fraction(int(lam.p), int(lam.q)), n - (A - lam * sympy.eye(n)).rank())
                  for lam in A.eigenvals() if lam.is_rational)


@pytest.mark.parametrize("rows,want", [
    (Matrix.from_rows(QQ_, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
     @ Matrix.from_rows(QQ_, [[720720, 0, 0], [0, 720720, 0], [0, 0, 5040]])
     @ inverse(Matrix.from_rows(QQ_, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])),
     [(Fraction(5040), 1), (Fraction(720720), 2)]),
    (Matrix.from_rows(QQ_, REACH_ROWS), [(Fraction(-7), 1), (Fraction(BIG), 1)]),
], ids=["diag-720720-720720-5040", "entry-1e18+3"])
def test_eigen_data_reach_large_constants(rows, want):
    t0 = time.perf_counter()
    got = eigen_data(rows)
    assert time.perf_counter() - t0 < 3
    assert got == want
    assert got == _sympy_eigen([[int(v) for v in r] for r in rows.to_rows()])


def test_eigen_data_reach_long_coefficients():
    """A random 15 x 15 block gives characteristic coefficients of ~160 bits.
    The root bound follows them, not the a_n^(n-1)-sized coefficients of the
    monic Q (whose own Cauchy bound took 9 s here)."""
    R = random_matrix(15, 15, QQ_, random.Random(16))
    M = Matrix.diag_blocks([R, Matrix.from_rows(QQ_, [[Fraction(1, 2), 1], [0, Fraction(1, 2)]]),
                            Matrix.from_rows(QQ_, [[-3]])])
    t0 = time.perf_counter()
    got = eigen_data(M)
    assert time.perf_counter() - t0 < 3
    assert got == [(Fraction(-3), 1), (Fraction(1, 2), 1)]
    sympy = pytest.importorskip("sympy")
    P = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                    for c in reversed(char_poly(M).coeffs)], sympy.Symbol("x"))
    linear = [f.all_coeffs() for f, _ in P.factor_list()[1] if f.degree() == 1]
    assert sorted(Fraction(int(-b.p * a.q), int(b.q * a.p)) for a, b in linear) == \
        [lam for lam, _ in got]


# ---------------------------------------------------------------------------
# Hessenberg char_poly over GF(p), and the integer kernels over QQ (Berkowitz
# on d M, Bareiss, the cleared product), against the generic Berkowitz loop,
# Laplace expansion, the minor rank, the Gauss-Jordan loop and the textbook
# product
# ---------------------------------------------------------------------------

BIG_DENS = [1, 2, 3, 7, 9, 10**6 + 3, 2**61 - 1]


def _scalars(f):
    """Residues, or fractions with small numerators over small and large
    denominators."""
    if isinstance(f, GF):
        return st.integers(0, f.p - 1)
    return st.builds(Fraction, st.integers(-9, 9), st.sampled_from(BIG_DENS))


@st.composite
def square_inputs(draw, fields, max_n=8):
    """Random, zero-heavy, nilpotent, companion and block-diagonal matrices;
    the last three are conjugated by a permutation so that they are not
    Hessenberg already."""
    f = draw(st.sampled_from(fields))
    n = draw(st.integers(0, max_n))
    kind = draw(st.sampled_from(["random", "sparse", "nilpotent", "companion", "blocks"]))
    x = _scalars(f)
    zero = f.coerce(0)
    if kind == "sparse":
        x = st.one_of(st.just(zero), st.just(zero), st.just(zero), x)
    a = [[draw(x) for _ in range(n)] for _ in range(n)]
    if kind == "nilpotent":
        a = [[v if i < j else zero for j, v in enumerate(r)] for i, r in enumerate(a)]
    elif kind == "companion":
        a = [[f.coerce(int(i == j + 1)) for j in range(n)] for i in range(n)]
        for i in range(n):
            a[i][-1] = draw(x)
    elif kind == "blocks":
        cuts = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=3)))
        block = [sum(c <= i for c in cuts) for i in range(n)]
        a = [[v if block[i] == block[j] else zero for j, v in enumerate(r)]
             for i, r in enumerate(a)]
    if kind != "random" and kind != "sparse":
        perm = draw(st.permutations(range(n)))
        a = [[a[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    return Matrix.from_rows(f, a) if n else Matrix(f, 0, 0, ())


@settings(max_examples=300, deadline=None)
@given(square_inputs([G2, G3, G7, QQ_, G_BIG]))
def test_char_poly_matches_generic_berkowitz(M):
    got = char_poly(M)
    assert got == berkowitz_oracle(M)
    kind = Fraction if M.field == QQ_ else int
    assert all(type(c) is kind for c in got.coeffs)


@pytest.mark.parametrize("field", [G2, G3, G7, QQ_], ids=lambda f: f.name)
@pytest.mark.parametrize("rows", [
    [],
    [[0]],
    [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],  # zero subdiagonal at 2
    [[2, 0, 0, 0, 0], [0, 1, 2, 3, 1], [0, 1, 1, 0, 2],        # zero column 0, then a
     [0, 3, 0, 1, 1], [0, 1, 1, 1, 0]],                         # block to reduce
    [[0, 0, 1], [0, 0, 0], [1, 0, 0]],                          # column 0 swaps row 2 up
    [[2, 0, 0, 5], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]],
], ids=str)
def test_char_poly_fixed_cases(field, rows):
    M = Matrix.from_rows(field, rows) if rows else Matrix(field, 0, 0, ())
    assert char_poly(M) == berkowitz_oracle(M) == charpoly_oracle(M)


def test_char_poly_large_denominators():
    M = Matrix.from_rows(QQ_, [[Fraction(1, 2**61 - 1), 1, 0], [Fraction(-3, 10**6 + 3), 0, 5],
                               [0, Fraction(7, 9), Fraction(2, 3)]])
    assert char_poly(M) == berkowitz_oracle(M) == charpoly_oracle(M)


@st.composite
def qq_inputs(draw, square=False, max_n=5):
    """QQ matrices with zero-heavy, small and large-denominator entries,
    sometimes with a last row that combines two others."""
    n = draw(st.integers(0, max_n))
    m = n if square else draw(st.integers(0, max_n))
    x = st.one_of(st.just(Fraction(0)), _scalars(QQ_))
    rows = [[draw(x) for _ in range(m)] for _ in range(n)]
    if n >= 3 and draw(st.booleans()):
        c = draw(_scalars(QQ_))
        rows[-1] = [u + c * v for u, v in zip(rows[0], rows[1])]
    return Matrix(QQ_, n, m, tuple(v for r in rows for v in r))


@settings(max_examples=150, deadline=None)
@given(qq_inputs())
def test_qq_rank_matches_oracles(M):
    assert rank(M) == minor_rank_oracle(M) == gauss_jordan_oracle(M)[0]


@settings(max_examples=150, deadline=None)
@given(qq_inputs(square=True))
def test_qq_det_and_inverse_match_oracles(M):
    d = det(M)
    assert type(d) is Fraction and d == laplace_det(M)
    rk, _, T, _ = gauss_jordan_oracle(M)
    if rk < M.rows:
        with pytest.raises(MatrixError, match="^matrix is singular$"):
            inverse(M)
    else:
        X = inverse(M)
        assert X == T and all(type(v) is Fraction for v in X.entries)


@pytest.mark.parametrize("rows", [[[0]], [[1, 2], [2, 4]], [[0, 0, 1], [0, 1, 0], [0, 0, 0]],
                                  [[Fraction(1, 3), 1], [1, 3]]], ids=str)
def test_qq_singular_inverse_message(rows):
    with pytest.raises(MatrixError, match="^matrix is singular$"):
        inverse(Matrix.from_rows(QQ_, rows))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_qq_matmul_matches_textbook_product(data):
    n, k, m = (data.draw(st.integers(0, 5)) for _ in range(3))
    x = st.one_of(st.just(Fraction(0)), _scalars(QQ_))
    A = Matrix(QQ_, n, k, tuple(data.draw(x) for _ in range(n * k)))
    B = Matrix(QQ_, k, m, tuple(data.draw(x) for _ in range(k * m)))
    C = A @ B
    assert C == matmul_oracle(A, B) and all(type(v) is Fraction for v in C.entries)


# ---------------------------------------------------------------------------
# The GF(p) kernels on int rows against the generic scalar loop, the
# textbook product, the Gauss-Jordan loop and Laplace expansion
# ---------------------------------------------------------------------------

GF_FIELDS = [G2, G3, G7, G_BIG]


def _gf_scalars(f):
    """Residues, zero often, and ints outside range(p), negative ones too."""
    return st.one_of(st.just(0), st.integers(0, f.p - 1), st.integers(-3 * f.p, 3 * f.p))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_gf_matmul_matches_textbook_product(data):
    f = data.draw(st.sampled_from([G2, G7, G_BIG]))
    n, k, m = (data.draw(st.integers(0, 5)) for _ in range(3))
    x = _gf_scalars(f)
    A = Matrix(f, n, k, tuple(data.draw(x) for _ in range(n * k)))
    B = Matrix(f, k, m, tuple(data.draw(x) for _ in range(k * m)))
    C = A @ B
    assert C == matmul_oracle(A, B) == matrix._GENERIC.matmul(A, B)
    assert all(type(v) is int and 0 <= v < f.p for v in C.entries)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_matmul_row_kinds_match_generic_loop(data):
    """Left factors whose rows are zero, a unit vector, a single -1 or
    scalar, or dense, as in shears and diagonal embeddings; over GF(p) the
    units and scalars may lie outside range(p)."""
    f = data.draw(st.sampled_from([G2, G7, G_BIG, QQ_]))
    if f is QQ_:
        x, units, minus = st.one_of(st.just(Fraction(0)), _scalars(QQ_)), [Fraction(1)], Fraction(-1)
    else:
        x, units, minus = _gf_scalars(f), [1, f.p + 1, 1 - f.p], -1
    n, k, m = (data.draw(st.integers(0, 5)) for _ in range(3))
    zero = f.coerce(0)
    rows = []
    for _ in range(n):
        kind = data.draw(st.sampled_from(["zero", "unit", "minus", "single", "dense"]))
        row = [data.draw(x) for _ in range(k)] if kind == "dense" else [zero] * k
        if k and kind in ("unit", "minus", "single"):
            c = {"unit": st.sampled_from(units), "minus": st.just(minus), "single": x}[kind]
            row[data.draw(st.integers(0, k - 1))] = data.draw(c)
        rows.append(row)
    A = Matrix(f, n, k, tuple(v for r in rows for v in r))
    B = Matrix(f, k, m, tuple(data.draw(x) for _ in range(k * m)))
    C = A @ B
    assert C == matmul_oracle(A, B) == matrix._GENERIC.matmul(A, B)
    if f is QQ_:
        assert all(type(v) is Fraction for v in C.entries)
    else:
        assert all(type(v) is int and 0 <= v < f.p for v in C.entries)


@settings(max_examples=200, deadline=None)
@given(st.one_of(kernel_matrices(fields=GF_FIELDS), kernel_matrices(square=True, fields=GF_FIELDS)))
def test_gf_elimination_matches_generic_loop(M):
    generic = matrix._GENERIC
    res = rank_and_rref(M)
    assert res == generic.rref(M)
    assert rref_rows(M) == generic.rref_rows(M)
    assert rank(M) == generic.rank(M) == res.rank
    if not M.is_square:
        return
    assert det(M) == generic.det(M) == laplace_det(M)
    rk, _, T, _ = gauss_jordan_oracle(M)
    if rk < M.rows:
        with pytest.raises(MatrixError, match="^matrix is singular$"):
            inverse(M)
    else:
        X = inverse(M)
        assert X == generic.inverse(M) == T and X @ M == Matrix.identity(M.field, M.rows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_span_matches_gauss_jordan_rank(data):
    f = data.draw(st.sampled_from([G3, G_BIG, G2, QQ_]))
    dim = data.draw(st.integers(0, 5))
    x = small_fractions if f == QQ_ else _gf_scalars(f)
    vecs = data.draw(st.lists(st.lists(x, min_size=dim, max_size=dim), max_size=7))
    if len(vecs) >= 3 and data.draw(st.booleans()):
        vecs[2] = [a + 2 * b for a, b in zip(vecs[0], vecs[1])]  # in the span of the first two
    span, seen, rk = Span(f), [], 0
    for v in vecs:
        inside = span.contains(v)
        seen.append(v)
        before, rk = rk, gauss_jordan_oracle(Matrix.from_rows(f, seen))[0]
        assert inside == (rk == before)
        assert span.add(v) == (not inside)
        assert span.contains(v)
        assert len(span.rows) == rk
        for piv, row in span.rows.items():  # 1 at its pivot, 0 left of it
            assert row[piv] == f.one and all(f.is_zero(c) for c in row[:piv])


# ---------------------------------------------------------------------------
# Eigenvalues over GF(p) from the roots of the characteristic polynomial,
# against one rank per element
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(square_inputs([G3, G5, G7, G11, G13], max_n=6))
def test_eigen_data_gf_matches_element_scan(M):
    assert eigen_data(M) == eigen_scan_oracle(M)


def test_eigen_data_reach_largest_prime():
    """p = 2^31 - 1: the element scan would take p ranks."""
    p = G_BIG.p
    g = Matrix.from_rows(G_BIG, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    D = Matrix.from_rows(G_BIG, [[p - 1, 0, 0], [0, 123456789, 0], [0, 0, p - 1]])
    nonsquare = next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)
    t0 = time.perf_counter()
    assert eigen_data(g @ D @ inverse(g)) == [(123456789, 1), (p - 1, 2)]
    assert eigen_data(Matrix.from_rows(G_BIG, [[0, nonsquare], [1, 0]])) == []
    assert eigen_data(Matrix.from_rows(G_BIG, [[5, 1], [0, 5]])) == [(5, 1)]
    assert time.perf_counter() - t0 < 1


_SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 4), (4, 1), (2, 3), (3, 3)]


@pytest.mark.parametrize("field", [G2, G7, QQ_, QQT_], ids=lambda f: f.name)
def test_slice_accessors_match_entry_definitions(field):
    # transpose, submatrix, block, from_blocks, diag_blocks and trace read
    # slices of entries; each against its definition entry by entry
    rng = random.Random(11)
    for r, c in _SHAPES:
        M = random_matrix(r, c, field, rng)
        assert M.transpose() == Matrix(field, c, r, tuple(
            M.entry(j, i) for i in range(c) for j in range(r)))
        if r == c:
            acc = field.zero
            for i in range(r):
                acc = field.add(acc, M.entry(i, i))
            assert M.trace() == acc
        for _ in range(4):
            rows = [rng.randrange(r) for _ in range(rng.randint(0, 3))] if r else []
            cols = [rng.randrange(c) for _ in range(rng.randint(0, 3))] if c else []
            assert M.submatrix(rows, cols) == Matrix(field, len(rows), len(cols), tuple(
                M.entry(i, j) for i in rows for j in cols))
            r0, r1 = sorted(rng.randint(0, r) for _ in range(2))
            c0, c1 = sorted(rng.randint(0, c) for _ in range(2))
            assert M.block(r0, r1, c0, c1) == Matrix(field, r1 - r0, c1 - c0, tuple(
                M.entry(i, j) for i in range(r0, r1) for j in range(c0, c1)))
        for bad in ((0, 1, 0, c + 1), (0, r + 1, 0, 1), (-1, 0, 0, 0), (0, 0, -1, 0)):
            with pytest.raises(MatrixError, match="out of range"):
                M.block(*bad)
    heights, widths = [1, 0, 2], [3, 1, 0]
    grid = [[random_matrix(h, w, field, rng) for w in widths] for h in heights]
    big = Matrix.from_blocks(grid)
    assert (big.rows, big.cols) == (3, 4)
    for bi, h in enumerate(heights):
        for bj, w in enumerate(widths):
            r0, c0 = sum(heights[:bi]), sum(widths[:bj])
            for i in range(h):
                for j in range(w):
                    assert big.entry(r0 + i, c0 + j) == grid[bi][bj].entry(i, j)
    blocks = [random_matrix(h, w, field, rng) for h, w in ((1, 3), (0, 2), (2, 1), (1, 1))]
    D = Matrix.diag_blocks(blocks)
    assert (D.rows, D.cols) == (4, 7)
    want = [[field.zero] * 7 for _ in range(4)]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                want[r0 + i][c0 + j] = b.entry(i, j)
        r0, c0 = r0 + b.rows, c0 + b.cols
    assert D.to_rows() == want


def test_map_field_is_the_entrywise_image():
    """map_field applies convert to every entry and keeps the shape; reducing
    rationals with denominators prime to 7 into GF(7) is a ring map, so it
    commutes with products and determinants."""
    rng = random.Random(31)
    red = lambda M: M.map_field(G7, G7.coerce)

    def rand(rows, cols):
        return Matrix(QQ_, rows, cols, tuple(Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5]))
                                             for _ in range(rows * cols)))

    for _ in range(40):
        n, m = rng.randint(0, 4), rng.randint(0, 4)
        A, B = rand(n, m), rand(m, n)
        for M in (A, B):
            R = red(M)
            assert R.field == G7 and (R.rows, R.cols) == (M.rows, M.cols)
            assert all(R.entry(i, j) == G7.coerce(M.entry(i, j))
                       for i in range(M.rows) for j in range(M.cols))
        assert red(A @ B) == red(A) @ red(B)
        if n:
            assert G7.coerce(det(A @ B)) == det(red(A @ B))
        assert lift_to_qqt(A) == A.map_field(QQT_, QQT_.coerce)
