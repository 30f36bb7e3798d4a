import itertools
import random
from dataclasses import replace

import pytest
from fractions import Fraction

from conftest import matrix_of_rank, minor_gl_oracle, skew_of_rank

from conjlab.chains import ChainError, ChainSpec, project_dual
from conjlab.fields import GF, QQ, QQT, UnsupportedFieldOperation
from conjlab.matrix import (
    Matrix,
    det,
    inverse,
    lift_to_qqt,
    limit_at_zero,
    rank,
    random_matrix,
)
from conjlab.matrix import MatrixError
from conjlab.orbits import (
    ConstructionError,
    OrbitClosure,
    classify_orbit_closure,
    degeneration_witness,
    is_skew,
    minor_vanishing_test,
    raise_sum_rank,
    shape_left,
    shape_right,
    skew_normal_form,
    topleft_realization,
    tuple_rank_lift,
)
from conjlab import matrix, orbits, pencil
from conjlab.pencil import BudgetExceeded, enumerate_subspaces, shift_rank, tuple_rank_identity

G2, G3, G5, G7, QQ_ = GF(2), GF(3), GF(5), GF(7), QQ()


def _check_shapes(P, m):
    fld, n, k = P.field, P.rows, rank(P)
    h, B = shape_left(P, m)
    assert B == h @ P @ inverse(h)
    assert all(fld.is_zero(B.entry(i, j)) for i in range(n) for j in range(m, n))
    assert rank(B.block(m, n, 0, m)) == k
    g, C = shape_right(P, m)
    assert C == g @ P @ inverse(g)
    assert all(fld.is_zero(C.entry(i, j)) for i in range(m, n) for j in range(n))
    assert rank(C.block(0, m, m, n)) == k


def test_shape_left_right(rng):
    for fld in (G5, QQ_):
        for _ in range(15):
            n = 6
            k = rng.randint(1, 2)
            P = matrix_of_rank(fld, n, k, rng)
            _check_shapes(P, rng.randint(k, 3))
    # 2k <= n < 3k is the only range where ker P can fit inside the span the
    # greedy pass has built, so where its one pass could fail
    for fld in (G2, G3, G5, QQ_):
        for k in (1, 2, 3):
            for n in range(2 * k, 3 * k):
                for m in range(k, n - k + 1):
                    for _ in range(3):
                        _check_shapes(matrix_of_rank(fld, n, k, rng), m)


def test_shape_left_pinned():
    # exact witnesses: another valid h would still change the output of the
    # topleft and raise-rank verbs; both inputs need a kernel-adjusted
    # e_j + kv for some pivot
    P = Matrix.from_rows(G2, [[0, 1, 0, 1, 1], [0, 0, 0, 0, 0], [0, 1, 0, 1, 1],
                              [0, 1, 0, 0, 1], [0, 1, 0, 1, 1]])
    h, _ = shape_left(P, 2)
    assert h == Matrix.from_rows(G2, [[0, 1, 0, 0, 1], [0, 0, 0, 1, 0], [1, 0, 0, 1, 0],
                                      [0, 0, 1, 0, 0], [0, 0, 0, 0, 1]])
    P = Matrix.from_rows(QQ_, [[1, -2, 0, -1], [-2, 0, -1, 2], [-2, 0, -1, 2], [0, 0, 0, 0]])
    h, _ = shape_left(P, 2)
    F = Fraction
    assert h == Matrix.from_rows(QQ_, [[1, 0, F(1, 2), -1], [0, 1, F(1, 4), 0],
                                       [-1, 0, F(1, 2), 1], [0, -1, F(-1, 4), 1]])


def test_shape_left_eliminates_p_once(monkeypatch):
    # the pivots and the kernel vectors are read off one rref of P
    kernels, eliminated = matrix._KERNELS[GF], []

    def counting(kernel):
        def run(M):
            eliminated.append(M)
            return kernel(M)
        return run

    monkeypatch.setitem(matrix._KERNELS, GF, replace(kernels, rref=counting(kernels.rref),
                                                      rref_rows=counting(kernels.rref_rows)))
    P = Matrix.from_rows(G2, [[0, 1, 0, 1, 1], [0, 0, 0, 0, 0], [0, 1, 0, 1, 1],
                              [0, 1, 0, 0, 1], [0, 1, 0, 1, 1]])
    shape_left(P, 2)
    assert eliminated.count(P) == 1


def test_topleft_examples():
    P = Matrix.basis(QQ_, 4, 0, 0)
    g = topleft_realization(P, Matrix.basis(QQ_, 2, 0, 0))
    assert (g @ P @ inverse(g)).block(0, 2, 0, 2) == Matrix.basis(QQ_, 2, 0, 0)
    g = topleft_realization(P, Matrix.zeros(QQ_, 2))
    assert (g @ P @ inverse(g)).block(0, 2, 0, 2).is_zero()
    with pytest.raises(ValueError):
        topleft_realization(Matrix.identity(QQ_, 4), Matrix.zeros(QQ_, 2))  # rank not < n


def test_topleft_random(rng):
    for fld in (G5, QQ_):
        for _ in range(30):
            n = rng.randint(2, 3)
            k = rng.randint(1, n - 1)
            P = matrix_of_rank(fld, 2 * n, k, rng)
            Q = matrix_of_rank(fld, n, rng.randint(0, k), rng)
            g = topleft_realization(P, Q)
            conj = g @ P @ inverse(g)
            assert conj.block(0, n, 0, n) == Q
            assert rank(conj) == rank(P)


def test_raise_sum_rank_example():
    mats = [Matrix.basis(QQ_, 6, 0, 0)] * 2
    gs = raise_sum_rank(mats)
    S = sum((g @ M @ inverse(g) for g, M in zip(gs, mats)), Matrix.zeros(QQ_, 6))
    assert 1 < rank(S) <= 3
    assert tuple_rank_identity(S) == rank(S)
    assert shift_rank(S).lam == 0


def test_raise_sum_rank_random(rng):
    for ell in (2, 3, 4):
        for _ in range(8):
            mats = [matrix_of_rank(G7, 6, 1, rng) for _ in range(ell)]
            gs = raise_sum_rank(mats)
            S = sum((g @ M @ inverse(g) for g, M in zip(gs, mats)), Matrix.zeros(G7, 6))
            assert 1 < rank(S) <= 3
            assert tuple_rank_identity(S) == rank(S)
    with pytest.raises(ValueError):
        raise_sum_rank([Matrix.zeros(QQ_, 6)] * 2)  # rank 0
    with pytest.raises(ValueError):
        raise_sum_rank([matrix_of_rank(QQ_, 5, 1, rng)] * 2)  # n < 6k


def test_minor_vanishing():
    assert minor_vanishing_test(Matrix.zeros(G2, 2), 1)
    assert not minor_vanishing_test(Matrix.identity(G2, 2), 1)
    rng = random.Random(3)
    assert not minor_vanishing_test(Matrix.identity(QQ_, 3), 2, mode="sampled", trials=300,
                                    rng=rng)
    for trials in (0, -1):  # no sample would report vanishing without checking a conjugate
        with pytest.raises(ValueError, match="trials"):
            minor_vanishing_test(Matrix.zeros(QQ_, 3), 1, mode="sampled", trials=trials, rng=rng)
    # no enumeration over a field that is not finite: unsupported, not over budget
    with pytest.raises(UnsupportedFieldOperation, match="finite field"):
        minor_vanishing_test(Matrix.zeros(QQ_, 2), 1)


def test_minor_vanishing_sampled_results_pinned():
    """Seeded sampled runs: an invertible P at k = n has det(P) != 0 as every
    conjugate's minor, so the first trial reports False; a P of rank < k has
    no nonzero k x k minor in any conjugate, so every trial passes.  The next
    draw of the rng is pinned, so the draws keep their order."""
    P = Matrix.from_rows(G7, [[1, 2, 0], [0, 3, 4], [5, 0, 6]])
    assert rank(P) == 3
    rng = random.Random(7)
    assert minor_vanishing_test(P, 3, mode="sampled", trials=10, rng=rng) is False
    assert rng.random() == 0.36568891691258554
    P = Matrix.from_rows(G7, [[1, 2, 3], [2, 4, 6], [3, 6, 2]])
    assert rank(P) == 1
    rng = random.Random(7)
    assert minor_vanishing_test(P, 2, mode="sampled", trials=10, rng=rng) is True
    assert rng.random() == 0.8219247866097149


def test_minor_vanishing_exhaustive_gf2_n2():
    for ent in itertools.product(range(2), repeat=4):
        P = Matrix(G2, 2, 2, ent)
        for k in (1, 2):
            assert minor_vanishing_test(P, k) == (rank(P) < k)


def test_minor_vanishing_matches_gl_oracle():
    # every 2x2 over GF(2) and GF(3) and every 3x3 over GF(2), each k
    for fld, n in ((G2, 2), (GF(3), 2), (G2, 3)):
        for ent in itertools.product(range(fld.p), repeat=n * n):
            P = Matrix(fld, n, n, ent)
            for k in range(1, n + 1):
                assert minor_vanishing_test(P, k) == minor_gl_oracle(P, k), (P.to_rows(), k)


def test_minor_vanishing_gf3_n4(rng):
    # |GL_4(F_3)| ~ 2.4e7 is over the budget; |Gr(k, 4)|^2 <= 130^2 is not
    for r in range(5):
        P = matrix_of_rank(GF(3), 4, r, rng)
        for k in range(1, 5):
            assert minor_vanishing_test(P, k) == (r < k)


def _minor_charge(P, k):
    """k n for each R and C a scan of Gr(k, n) tries up to its first pair with
    det(R C^T) != 0 and det(R P C^T) != 0; an R with rank(R P) < k has no C."""
    f, n, tries = P.field, P.rows, 0
    for r_rows in enumerate_subspaces(k, n, f.p):
        tries += 1
        R = Matrix.from_rows(f, r_rows)
        if rank(R @ P) < k:
            continue
        for c_rows in enumerate_subspaces(k, n, f.p):
            tries += 1
            Ct = Matrix.from_rows(f, c_rows).transpose()
            if rank(R @ Ct) == rank(R @ P @ Ct) == k:
                return k * n * tries


def test_minor_vanishing_budget(monkeypatch):
    # a pass by the lemma costs nothing; a fail passes at a budget of k n per
    # R and C it tries and raises one unit below
    monkeypatch.setattr(pencil, "ENUMERATION_BUDGET", 0)
    assert minor_vanishing_test(Matrix.zeros(G2, 4), 2)
    rng = random.Random(35)
    for fld, n, k, r in ((G2, 4, 2, 2), (G3, 4, 3, 3), (G2, 5, 3, 4), (G5, 3, 2, 2)):
        P = matrix_of_rank(fld, n, r, rng)
        charge = _minor_charge(P, k)
        monkeypatch.setattr(pencil, "ENUMERATION_BUDGET", charge)
        assert minor_vanishing_test(P, k) is False
        monkeypatch.setattr(pencil, "ENUMERATION_BUDGET", charge - 1)
        with pytest.raises(BudgetExceeded, match="minor search"):
            minor_vanishing_test(P, k)


def test_minor_vanishing_reach_past_the_pair_count():
    # |Gr(4, 8)|^2 = 4.0e10 pairs over GF(2): the identity fails at its first
    # pair, and the zero matrix passes by the lemma
    assert minor_vanishing_test(Matrix.identity(G2, 8), 4) is False
    assert minor_vanishing_test(Matrix.zeros(G2, 8), 4) is True


def test_minor_vanishing_pass_never_scans(monkeypatch):
    # a P of rank < k passes by the lemma, before any subspace is listed
    def scan(*args):
        raise AssertionError("the scan ran on a passing input")
    monkeypatch.setattr(orbits, "enumerate_subspaces", scan)
    rng = random.Random(34)
    for fld, n in ((G2, 4), (G3, 4), (G5, 3)):
        for r in range(n):
            assert minor_vanishing_test(matrix_of_rank(fld, n, r, rng), r + 1)


def test_minor_with_no_pair_raises(monkeypatch):
    # with every det read as 0, an invertible P at k = n has rank P >= k but
    # no pair with a nonzero minor, which contradicts the theorem
    monkeypatch.setattr(orbits, "det", lambda M: M.field.zero)
    for fld, n in ((G2, 2), (G3, 3)):
        with pytest.raises(ConstructionError):
            minor_vanishing_test(Matrix.identity(fld, n), n)


def test_minor_vanishing_rejects_a_non_square_matrix():
    # the zero 3 x 2 matrix passed the exhaustive scan as "vanishes"
    for rows in ([[0, 0], [0, 0], [0, 0]], [[1, 0], [0, 1], [0, 0]]):
        P = Matrix.from_rows(GF(3), rows)
        with pytest.raises(MatrixError, match="minor criterion expects a square matrix"):
            minor_vanishing_test(P, 1)
        with pytest.raises(MatrixError, match="minor criterion expects a square matrix"):
            minor_vanishing_test(P, 1, mode="sampled", trials=3, rng=random.Random(0))


def test_minor_vanishing_gf2_n3_sample(rng):
    for _ in range(25):
        P = random_matrix(3, 3, G2, rng)
        for k in (1, 2, 3):
            assert minor_vanishing_test(P, k) == (rank(P) < k)


def test_classify_orbit_closure(rng):
    P = Matrix.scalar(QQ_, 4, 5) + Matrix.basis(QQ_, 4, 0, 0)
    oc = classify_orbit_closure(P)
    assert oc == OrbitClosure("stratum", Fraction(5), 1, 4)
    D = Matrix.from_rows(QQ_, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]])
    assert classify_orbit_closure(D).kind == "dense"
    for _ in range(15):
        P = matrix_of_rank(G7, 5, 1, rng)
        g = inverse(random_matrix(5, 5, G7, rng)) if False else None
        from conjlab.matrix import random_invertible
        g = random_invertible(5, G7, rng)
        assert classify_orbit_closure(g @ P @ inverse(g)) == classify_orbit_closure(P)


def test_tuple_rank_lift_example():
    ch = ChainSpec.make("A", 6, [], [(2, 0, 0)])
    P = Matrix.diag_blocks([Matrix.basis(G5, 6, 0, 0), Matrix.zeros(G5, 6)])
    assert tuple_rank_identity(P) == 1
    g = tuple_rank_lift(ch, 1, P)
    proj = project_dual(ch, 1, g @ P @ inverse(g))
    assert tuple_rank_identity(proj) == 2


def test_tuple_rank_lift_random(rng):
    ch = ChainSpec.make("A", 6, [], [(2, 0, 0)])
    for _ in range(15):
        P = matrix_of_rank(G5, 12, 1, rng)
        g = tuple_rank_lift(ch, 1, P)
        assert tuple_rank_identity(project_dual(ch, 1, g @ P @ inverse(g))) > 1
    # with a dual copy in the signature
    chr_ = ChainSpec.make("A", 6, [], [(1, 1, 0)])
    for _ in range(10):
        P = matrix_of_rank(G5, 12, 1, rng)
        g = tuple_rank_lift(chr_, 1, P)
        assert tuple_rank_identity(project_dual(chr_, 1, g @ P @ inverse(g))) > 1


def test_tuple_rank_lift_scalar_rejected():
    ch = ChainSpec.make("A", 6, [], [(2, 0, 0)])
    with pytest.raises(ChainError):
        tuple_rank_lift(ch, 1, Matrix.scalar(G5, 12, 3))


def test_skew_normal_form(rng):
    for n in (2, 3, 4, 5):
        for _ in range(8):
            R = skew_of_rank(QQ_, n, rng.choice([r for r in (0, 2, 4) if r <= n]), rng)
            g, pairs = skew_normal_form(R)
            N = g @ R @ g.transpose()
            assert rank(R) == 2 * pairs
            for i in range(pairs):
                assert N.entry(2 * i, 2 * i + 1) == 1


def test_skew_normal_form_pinned():
    # the exact g: another valid g would still change every degeneration curve
    F = Fraction
    cases = [
        # full rank over QQ
        (Matrix.from_rows(QQ_, [[0, 1, 2, -1], [-1, 0, 3, 1], [-2, -3, 0, 2], [1, -1, -2, 0]]),
         [[1, 0, 0, 0], [0, 1, 0, 0], [3, -2, 1, 0], [F(-1, 3), F(-1, 3), 0, F(-1, 3)]], 2),
        # rank 2 of 5 over QQ: u v^T - v u^T
        (Matrix.from_rows(QQ_, [[0, 1, 1, 2, -1], [-1, 0, 2, 5, -5], [-1, -2, 0, 1, -3],
                                [-2, -5, -1, 0, -5], [1, 5, 3, 5, 0]]),
         [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [2, -1, 1, 0, 0], [5, -2, 0, 1, 0],
          [-5, 1, 0, 0, 1]], 1),
        # full rank over GF(5), whose first pivot pair is (e_1, e_3)
        (Matrix.from_rows(G5, [[0, 0, 1, 2], [0, 0, 3, 4], [4, 2, 0, 1], [3, 1, 4, 0]]),
         [[1, 0, 0, 0], [0, 0, 1, 0], [2, 1, 0, 0], [2, 0, 1, 2]], 2),
    ]
    for R, rows, pairs in cases:
        g, got_pairs = skew_normal_form(R)
        assert (g, got_pairs) == (Matrix.from_rows(R.field, rows), pairs)


def test_degeneration_examples():
    J2 = Matrix.from_rows(QQ_, [[0, 1], [-1, 0]])
    G = degeneration_witness(J2, Matrix.zeros(QQ_, 2, 0), Matrix.zeros(QQ_, 2),
                             Matrix.zeros(QQ_, 2, 0))
    assert limit_at_zero(G @ lift_to_qqt(J2) @ G.transpose()).is_zero()
    W = Matrix.from_rows(QQ_, [[0], [1]])
    V = Matrix.from_rows(QQ_, [[1], [0]])
    G = degeneration_witness(J2, W, Matrix.zeros(QQ_, 2), V)
    assert limit_at_zero(G @ lift_to_qqt(W)) == V


def test_degeneration_pinned_k0():
    # the exact k = 0 curve, read off the two skew normal forms
    R = Matrix.from_rows(QQ_, [[0, 1, 2, -1], [-1, 0, 3, 1], [-2, -3, 0, 2], [1, -1, -2, 0]])
    Q = Matrix.from_rows(QQ_, [[0, 0, 0, 0], [0, 0, 1, 0], [0, -1, 0, 0], [0, 0, 0, 0]])
    G = degeneration_witness(R, Matrix.zeros(QQ_, 4, 0), Q, Matrix.zeros(QQ_, 4, 0))
    qqt = QQT()
    assert G == Matrix.from_rows(qqt, [[qqt.parse(x) for x in row] for row in [
        ["3*t", "-2*t", "t", "0"],
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
        ["-t/3", "-t/3", "0", "-t/3"],
    ]])


def test_degeneration_pinned():
    # the exact k = 2 curve: another valid curve would still change the
    # output of the degenerate verb
    R = Matrix.from_rows(QQ_, [[0, 1, 0, 2, 0], [-1, 0, 1, 0, 0], [0, -1, 0, 0, 3],
                               [-2, 0, 0, 0, 1], [0, 0, -3, -1, 0]])
    W = Matrix.from_rows(QQ_, [[1, 0], [0, 1], [1, 1], [0, 0], [2, 0]])
    V = Matrix.from_rows(QQ_, [[0, 1], [1, 0], [0, 0], [1, 1], [0, 2]])
    G = degeneration_witness(R, W, Matrix.zeros(QQ_, 5), V)
    qqt = QQT()
    assert G == Matrix.from_rows(qqt, [[qqt.parse(x) for x in row] for row in [
        ["-t-1", "3*t", "-3*t+1", "-3*t/2", "t"],
        ["t+1", "2*t", "-2*t", "-3*t/2", "t"],
        ["0", "0", "0", "0", "-t/3"],
        ["t^2", "0", "1", "0", "0"],
        ["-3*t-2", "0", "t+2", "0", "0"],
    ]])


def test_degeneration_preconditions():
    J2 = Matrix.from_rows(QQ_, [[0, 1], [-1, 0]])
    with pytest.raises(ValueError):
        degeneration_witness(J2, Matrix.from_rows(QQ_, [[0], [1]]), J2,
                             Matrix.from_rows(QQ_, [[1], [0]]))  # rank Q too big
    with pytest.raises(ValueError):
        degeneration_witness(J2, Matrix.zeros(QQ_, 2, 1), Matrix.zeros(QQ_, 2),
                             Matrix.zeros(QQ_, 2, 1))  # W not full column rank


def test_topleft_gf2(rng):
    # the binary field is the hardest case for the greedy basis choices
    for _ in range(60):
        n = rng.randint(2, 3)
        k = rng.randint(1, n - 1)
        P = matrix_of_rank(G2, 2 * n, k, rng)
        Q = matrix_of_rank(G2, n, rng.randint(0, k), rng)
        g = topleft_realization(P, Q)
        assert (g @ P @ inverse(g)).block(0, n, 0, n) == Q


def test_raise_sum_rank_k2_gf2(rng):
    for _ in range(6):
        mats = [matrix_of_rank(G2, 12, 2, rng) for _ in range(3)]
        gs = raise_sum_rank(mats)
        S = sum((g @ M @ inverse(g) for g, M in zip(gs, mats)), Matrix.zeros(G2, 12))
        assert 2 < rank(S) <= 6 and tuple_rank_identity(S) == rank(S)


def test_tuple_rank_lift_with_trivial_summands(rng):
    chz = ChainSpec.make("A", 6, [], [(2, 0, 3)])
    for _ in range(6):
        P = matrix_of_rank(G5, 15, 1, rng)
        g = tuple_rank_lift(chz, 1, P)
        assert tuple_rank_identity(project_dual(chz, 1, g @ P @ inverse(g))) > 1


def test_degeneration_two_marked_columns(rng):
    # k = 2 runs the recursion twice and needs the interior row permutation
    for _ in range(8):
        n = rng.choice((4, 5, 6))
        rR = 4 if n >= 4 else 2
        R = skew_of_rank(QQ_, n, rR, rng)
        Q = skew_of_rank(QQ_, n, 0, rng)
        while True:
            W = random_matrix(n, 2, QQ_, rng)
            if rank(W) == 2:
                break
        V = random_matrix(n, 2, QQ_, rng)
        G = degeneration_witness(R, W, Q, V)
        assert limit_at_zero(G @ lift_to_qqt(R) @ G.transpose()) == Q
        assert limit_at_zero(G @ lift_to_qqt(W)) == V


def test_degeneration_random(rng):
    for _ in range(10):
        R = skew_of_rank(QQ_, 4, 4, rng)
        W = random_matrix(4, 1, QQ_, rng)
        while rank(W) != 1:
            W = random_matrix(4, 1, QQ_, rng)
        Q = skew_of_rank(QQ_, 4, rng.choice((0, 2)), rng)
        V = random_matrix(4, 1, QQ_, rng)
        G = degeneration_witness(R, W, Q, V)
        # curve invertible over QQ(t) and pole-free at 0
        assert not det(G).num == ()
        assert limit_at_zero(G @ lift_to_qqt(R) @ G.transpose()) == Q
        assert limit_at_zero(G @ lift_to_qqt(W)) == V


def test_is_skew_and_the_normal_form_refuses_the_rest():
    """M is skew when M + M^T = 0; in characteristic 2 that is every symmetric
    matrix, a nonzero diagonal included."""
    rng = random.Random(23)
    for fld in (G3, G7, QQ_):
        for n in range(1, 5):
            A = random_matrix(n, n, fld, rng)
            assert is_skew(A - A.transpose())
            S = A + A.transpose()
            assert is_skew(S) == S.is_zero()
        assert is_skew(Matrix.zeros(fld, 3))
        assert not is_skew(Matrix.identity(fld, 2))
        assert not is_skew(Matrix.zeros(fld, 2, 3))
        with pytest.raises(MatrixError, match="expected a skew matrix"):
            skew_normal_form(Matrix.basis(fld, 2, 0, 1))
    assert is_skew(Matrix.identity(G2, 3))
    assert is_skew(Matrix.from_rows(G2, [[1, 1], [1, 0]]))
    assert not is_skew(Matrix.basis(G2, 2, 0, 1))
