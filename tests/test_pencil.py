import itertools
import math
import random
from collections import Counter

import pytest
from fractions import Fraction

from conftest import (enumerate_gl_rows, gauss_jordan_oracle, matmul_oracle, matrix_of_rank,
                      minor_rank_oracle, offdiag_bad_pairs_oracle, offdiag_gl_oracle,
                      offdiag_pairs_oracle, run_capped)
from conjlab import pencil
from conjlab.fields import GF, QQ, UnsupportedFieldOperation
from conjlab.matrix import Matrix, Span, inverse, kernel_basis, rank, random_invertible, random_matrix
from conjlab.orbits import minor_vanishing_test
from conjlab.pencil import (
    ENUMERATION_BUDGET,
    BudgetExceeded,
    PencilTuple,
    gaussian_binomial,
    enumerate_subspaces,
    offdiag_criterion_check,
    pencil_rank_enumerate,
    projective_count,
    projective_points,
    shift_rank,
    tuple_rank_identity,
)

G2, G3, G5, QQ_ = GF(2), GF(3), GF(5), QQ()


def _all_sq(fld, n):
    for ent in itertools.product(range(fld.p), repeat=n * n):
        yield Matrix(fld, n, n, ent)


def test_shift_rank_examples():
    sr = shift_rank(Matrix.from_rows(QQ_, [[5, 0, 0], [0, 5, 0], [0, 0, 7]]))
    assert (sr.lam, sr.rank) == (Fraction(5), 1)
    sr = shift_rank(Matrix.from_rows(QQ_, [[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
    assert (sr.lam, sr.rank) == (Fraction(0), 2)
    sr = shift_rank(Matrix.from_rows(QQ_, [[0, -1], [1, 0]]))
    assert (sr.lam, sr.rank) == (None, 2)


def test_shift_rank_exhaustive_gf2_n2():
    I2 = Matrix.identity(G2, 2)
    for M in _all_sq(G2, 2):
        direct = min(rank(M - I2.scale(l)) for l in range(2))
        assert shift_rank(M).rank == direct


def test_tuple_rank_examples():
    assert tuple_rank_identity(Matrix.identity(QQ_, 4)) == 0
    assert tuple_rank_identity(Matrix.from_rows(G2, [[0, 1], [0, 0]])) == 1
    assert tuple_rank_identity(Matrix.from_rows(QQ_, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])) == 2


def test_tuple_rank_invariances(rng):
    for _ in range(25):
        n = rng.randint(1, 4)
        M = random_matrix(n, n, G5, rng)
        g = random_invertible(n, G5, rng)
        assert tuple_rank_identity(g @ M @ inverse(g)) == tuple_rank_identity(M)
    # shift invariance, exhaustive over GF(3) at n=2
    I2 = Matrix.identity(G3, 2)
    for M in _all_sq(G3, 2):
        base = tuple_rank_identity(M)
        for lam in range(3):
            assert tuple_rank_identity(M + I2.scale(lam)) == base


def test_projective_points_order():
    pts = list(projective_points(G3, 2))
    assert pts == [(1, 0), (1, 1), (1, 2), (0, 1)]
    assert projective_count(3, 2) == 4
    assert len(list(projective_points(G2, 3))) == projective_count(2, 3) == 7


def test_pencil_enumerate_examples():
    tup = PencilTuple.make([Matrix.identity(G3, 2), Matrix.from_rows(G3, [[1, 0], [0, 0]])])
    r, wit = pencil_rank_enumerate(tup)
    assert r == 1 and wit == (1, 2)  # the point (1 : -1)
    z = Matrix.zeros(G2, 2)
    assert pencil_rank_enumerate(PencilTuple.make([z, z])) == (0, (1, 0))
    with pytest.raises(UnsupportedFieldOperation):
        pencil_rank_enumerate(PencilTuple.make([Matrix.identity(QQ_, 2)]))


def test_pencil_triples_match_affine_bruteforce(rng):
    # ranks are scaling-invariant, so the projective minimum equals the
    # minimum over all nonzero coefficient tuples
    for fld in (G2, G3):
        for _ in range(20):
            mats = [random_matrix(2, 2, fld, rng) for _ in range(3)]
            r, wit = pencil_rank_enumerate(PencilTuple.make(mats))
            best = None
            for c0 in fld.elements():
                for c1 in fld.elements():
                    for c2 in fld.elements():
                        if c0 == c1 == c2 == 0:
                            continue
                        comb = mats[0].scale(c0) + mats[1].scale(c1) + mats[2].scale(c2)
                        rr = rank(comb)
                        best = rr if best is None else min(best, rr)
            assert r == best
            comb = sum((M.scale(c) for c, M in zip(wit, mats)), Matrix.zeros(fld, 2))
            assert rank(comb) == r


def test_pencil_matches_tuple_rank_gf2_n2():
    I2 = Matrix.identity(G2, 2)
    for M in _all_sq(G2, 2):
        r, _ = pencil_rank_enumerate(PencilTuple.make([M, I2]))
        assert r == tuple_rank_identity(M)


def test_offdiag_examples():
    holds, wit = offdiag_criterion_check(Matrix.identity(G2, 2), 0, 1)
    assert holds and wit is None
    holds, wit = offdiag_criterion_check(Matrix.from_rows(G3, [[1, 0], [0, 2]]), 0, 1)
    assert not holds
    g, K, L = wit
    assert g == Matrix.from_rows(G3, [[1, 1], [0, 1]])
    assert (K, L) == ((0,), (1,))
    with pytest.raises(ValueError):
        offdiag_criterion_check(Matrix.identity(G2, 2), 1, 1)  # needs m >= k+1
    for mode in ("exhaustive", "sampled"):  # k = -1, m = 0 meets n >= 2m >= 2(k+1)
        with pytest.raises(ValueError, match="k >= 0"):
            offdiag_criterion_check(Matrix.identity(G2, 2), -1, 0, mode=mode,
                                    rng=random.Random(0))
    for trials in (0, -5):  # no sample would pass without checking a conjugate
        with pytest.raises(ValueError, match="trials"):
            offdiag_criterion_check(Matrix.identity(G2, 2), 0, 1, mode="sampled",
                                    trials=trials, rng=random.Random(0))


def test_sampled_criteria_need_an_int_trials():
    # sampled mode has no default trials: a missing or non-int count is refused,
    # and a count above the enumeration budget before any draw
    P = Matrix.identity(G2, 2)
    for kw in ({}, {"trials": None}, {"trials": 2.5}, {"trials": "5"}):
        with pytest.raises(ValueError, match="trials"):
            offdiag_criterion_check(P, 0, 1, mode="sampled", rng=random.Random(0), **kw)
        with pytest.raises(ValueError, match="trials"):
            minor_vanishing_test(P, 1, mode="sampled", rng=random.Random(0), **kw)
    rng = random.Random(0)
    state = rng.getstate()
    for check in (lambda t: offdiag_criterion_check(P, 0, 1, mode="sampled", trials=t, rng=rng),
                  lambda t: minor_vanishing_test(P, 1, mode="sampled", trials=t, rng=rng)):
        with pytest.raises(BudgetExceeded, match="enumeration budget"):
            check(ENUMERATION_BUDGET + 1)
        assert rng.getstate() == state


def test_offdiag_equals_tuple_rank_exhaustive_small():
    for M in _all_sq(G2, 2):
        holds, _ = offdiag_criterion_check(M, 0, 1)
        assert holds == (tuple_rank_identity(M) <= 0)
    rng = random.Random(3)
    for _ in range(60):
        M = random_matrix(3, 3, G2, rng)
        holds, _ = offdiag_criterion_check(M, 0, 1)
        assert holds == (tuple_rank_identity(M) <= 0)


def test_offdiag_sampled_witness_certifies(rng):
    P = Matrix.from_rows(G5, [[1, 0], [0, 2]])
    holds, wit = offdiag_criterion_check(P, 0, 1, mode="sampled", trials=500, rng=rng)
    assert not holds
    g, K, L = wit
    Q = g @ P @ inverse(g)
    assert rank(Q.submatrix(K, L)) > 0


def test_offdiag_sampled_results_pinned():
    """Seeded sampled runs: a fail's block rank, recomputed by the conftest
    oracles, exceeds k; a pass (rk(P, I) <= k) is (True, None); the witness
    and the next draw of the rng are as pinned, so the draws keep their order
    (one random_invertible, then one shuffle, per trial)."""
    P = Matrix.from_rows(G5, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]])
    assert tuple_rank_identity(P) == 3
    rng = random.Random(7)
    holds, (g, K, L) = offdiag_criterion_check(P, 1, 2, mode="sampled", trials=20, rng=rng)
    assert not holds
    assert g.to_rows() == [[2, 1, 3, 0], [0, 4, 0, 2], [4, 0, 4, 1], [0, 0, 3, 3]]
    assert (K, L) == ((1, 2), (0, 3))
    g_rank, _, g_inv, _ = gauss_jordan_oracle(g)
    assert g_rank == 4
    Q = matmul_oracle(matmul_oracle(g, P), g_inv)
    assert gauss_jordan_oracle(Q.submatrix(K, L))[0] > 1
    P = Matrix.from_rows(G5, [[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    assert tuple_rank_identity(P) == 1
    rng = random.Random(7)
    assert offdiag_criterion_check(P, 1, 2, mode="sampled", trials=30, rng=rng) == (True, None)
    assert rng.random() == 0.17076280319827852


def test_offdiag_matches_gl_oracle_small():
    # every 2x2 over GF(2) and GF(3) and every 3x3 over GF(2): verdict and witness
    for fld, n in ((G2, 2), (G3, 2), (G2, 3)):
        for M in _all_sq(fld, n):
            assert offdiag_criterion_check(M, 0, 1) == offdiag_gl_oracle(M, 0, 1), M.to_rows()


def _transvection(fld, n, rng):
    """I + u v^T with v.u = 0 and u, v nonzero: invertible of identity-tuple rank 1."""
    while True:
        u, v = random_matrix(n, 1, fld, rng), random_matrix(n, 1, fld, rng)
        if not u.is_zero() and not v.is_zero() and (v.transpose() @ u).is_zero():
            return Matrix.identity(fld, n) + u @ v.transpose()


def test_offdiag_matches_gl_oracle_gf2_n4():
    rng = random.Random(11)
    ins = [random_matrix(4, 4, G2, rng) for _ in range(4)]
    ins += [random_invertible(4, G2, rng) for _ in range(2)]
    ins += [matrix_of_rank(G2, 4, 1, rng), _transvection(G2, 4, rng)]
    for P in ins:
        for k, m in ((0, 1), (0, 2), (1, 2)):
            if k == 1 and tuple_rank_identity(P) <= 1:
                continue  # holds: the oracle would scan all of GL_4(F_2)
            assert offdiag_criterion_check(P, k, m) == offdiag_gl_oracle(P, k, m), (P.to_rows(), k, m)


def test_offdiag_matches_gl_oracle_gf2_n5():
    # past n = 2m the rows in L must be independent modulo ann(C), a condition
    # of the witness walk that cannot bind at n = 4.  Each input fails
    # (rk(P, I) > k), so the oracle's scan stops at its first certifying
    # g: the 1st, 5th or 9th element of GL_5(F_2) here.  A first hit that
    # changes a K row lies past element 10752, too far for a test.
    ins = [random_matrix(5, 5, G2, random.Random(s)) for s in (0, 8)]
    ins += [matrix_of_rank(G2, 5, 2, random.Random(s)) for s in (0, 3)]
    rng = random.Random(14)
    ins.append(_transvection(G2, 5, rng) @ _transvection(G2, 5, rng))
    for P in ins:
        assert tuple_rank_identity(P) > 1
        assert offdiag_criterion_check(P, 1, 2) == offdiag_gl_oracle(P, 1, 2), P.to_rows()


def test_offdiag_gf3_n4():
    # |GL_4(F_3)| ~ 2.4e7 is over the budget; the 130 subspace pairs are not
    rng = random.Random(4)
    ins = [random_matrix(4, 4, G3, rng) for _ in range(3)]
    ins += [Matrix.scalar(G3, 4, 2) + matrix_of_rank(G3, 4, 1, rng), _transvection(G3, 4, rng)]
    for P in ins:
        for k, m in ((0, 1), (1, 2)):
            holds, wit = offdiag_criterion_check(P, k, m)
            assert holds == (tuple_rank_identity(P) <= k), (P.to_rows(), k, m)
            if not holds:
                g, K, L = wit
                assert rank((g @ P @ inverse(g)).submatrix(K, L)) > k


def _bad_pairs_full_scan(P, k, m):
    """Every (R, C) with rank(R P C) > k, testing every pair of subspaces."""
    f, n = P.field, P.rows
    bad = []
    for r_rows in enumerate_subspaces(m, n, f.p):
        R = Matrix.from_rows(f, r_rows)
        B = kernel_basis(R)
        for x_rows in enumerate_subspaces(m, n - m, f.p):
            C = (Matrix.from_rows(f, x_rows) @ B).transpose()
            if rank(R @ P @ C) > k:
                bad.append((R, C))
    return bad


def test_kernels_read_off_rref_rows_match_kernel_basis():
    # B^T read off each R's RREF rows, with no elimination, is the eliminating kernel_basis
    for m, n, p in ((2, 5, 2), (2, 4, 3), (1, 3, 5)):
        count = 0
        for rows in enumerate_subspaces(m, n, p):
            R, Bt = pencil._with_kernel(GF(p), rows)
            assert R.to_rows() == [list(r) for r in rows]
            assert Bt == kernel_basis(R).transpose()
            count += 1
        assert count == gaussian_binomial(n, m, p)


def test_offdiag_bad_pairs_match_full_scan():
    # an R has a bad pair exactly when rank(R P B^T) > k, so the walk's first
    # such R is the first bad R, whose RREF rows, last first, are the
    # witness's K rows; its bad C's, B^T X^T over the X's with
    # rank(R P B^T X^T) > k, are the oracle's in the oracle's order
    rng = random.Random(23)
    for fld in (G2, G3):
        ins = [random_matrix(4, 4, fld, rng) for _ in range(3)]
        ins += [matrix_of_rank(fld, 4, 1, rng), _transvection(fld, 4, rng),
                Matrix.scalar(fld, 4, 1) + matrix_of_rank(fld, 4, 2, rng)]
        for P in ins:
            for k, m in ((0, 1), (0, 2), (1, 2)):
                full = _bad_pairs_full_scan(P, k, m)
                assert full == offdiag_bad_pairs_oracle(P, k, m)
                bad = [(rows, R, Bt) for rows in enumerate_subspaces(m, 4, fld.p)
                       for R, Bt in [pencil._with_kernel(fld, rows)] if rank(R @ P @ Bt) > k]
                assert [R for _, R, _ in bad] == list(dict.fromkeys(R for R, _ in full))
                if not bad:
                    continue
                rows, R, Bt = bad[0]
                W = R @ P @ Bt
                xts = [Matrix.from_rows(fld, x).transpose() for x in enumerate_subspaces(m, 4 - m, fld.p)]
                assert [Bt @ Xt for Xt in xts if rank(W @ Xt) > k] == [C for S, C in full if S == R]
                holds, (g, _, _) = offdiag_criterion_check(P, k, m)
                assert not holds and g.to_rows()[:m] == [list(r) for r in rows[::-1]]


def test_walk_row_tests_by_image_match_annihilator_spans():
    # the walk tests a row v by its image v C, as A = ann(C) is the kernel of
    # v -> v C: v in A + span(L) iff v C in span(L C), and v in A iff v C = 0,
    # against the generic Span of the rows of ker C^T and the L rows
    rng = random.Random(32)
    for p, n, m in ((2, 6, 3), (2, 5, 2), (3, 5, 2), (5, 4, 2)):
        f = GF(p)
        for _ in range(3):
            C = random_matrix(n, m, f, rng)
            while rank(C) < m:
                C = random_matrix(n, m, f, rng)
            Ls = [random_matrix(1, n, f, rng) for _ in range(rng.randint(1, m))]
            A = kernel_basis(C.transpose()).to_rows()
            ann, ann_L = Span(f, A), Span(f, A + [u.row_list(0) for u in Ls])
            images, budget = {(0,) * m}, pencil._Budget("the test")
            for u in Ls:
                images = pencil._grow(images, (u @ C).entries, p, budget)
            assert len(images) == p ** rank(Matrix.from_rows(f, [(u @ C).entries for u in Ls]))
            for v in itertools.product(range(p), repeat=n):
                vc = (Matrix(f, 1, n, v) @ C).entries
                assert ann_L.contains(v) == (vc in images)
                assert ann.contains(v) == (not any(vc))


def _differential_input(fld, n, rng):
    """A random n x n matrix, or with probability 0.3 a scalar plus rank one."""
    if rng.random() < 0.3:
        return Matrix.scalar(fld, n, rng.randrange(fld.p)) + matrix_of_rank(fld, n, 1, rng)
    return random_matrix(n, n, fld, rng)


def test_offdiag_matches_pairs_oracle():
    # 1052 checks (P, k, m): the lazy walk over the cached table gives the
    # verdict and witness of the eager pair list and its walk; GF(3) at n = 5
    # has a row after L at p > 2
    checks = Counter()
    rng = random.Random(30)
    for p, n, m, ks, count in ((2, 4, 2, (0, 1), 440), (2, 5, 2, (0, 1), 12),
                               (2, 6, 2, (1,), 1), (2, 6, 3, (0, 1, 2), 3),
                               (3, 4, 2, (0, 1), 60), (5, 4, 2, (0, 1), 6),
                               (3, 5, 2, (0, 1), 3)):
        for _ in range(count):
            P = _differential_input(GF(p), n, rng)
            for k in ks:
                verdict, _ = offdiag_pairs_oracle(P, k, m)
                assert offdiag_criterion_check(P, k, m) == verdict, (P.to_rows(), k, m)
                checks[verdict[0]] += 1
    assert sum(checks.values()) >= 1000 and min(checks.values()) >= 100, checks


def test_offdiag_gf2_n6_follows_the_theorem():
    # n = 6, m = 2, k = 1: the verdict is rk(P, I) <= 1, over 22785 subspace pairs
    rng = random.Random(6)
    P = _transvection(G2, 6, rng)
    assert tuple_rank_identity(P) == 1
    assert offdiag_criterion_check(P, 1, 2) == (True, None)
    P2 = P @ _transvection(G2, 6, rng)
    assert tuple_rank_identity(P2) == 2
    holds, (g, K, L) = offdiag_criterion_check(P2, 1, 2)
    assert not holds and rank((g @ P2 @ inverse(g)).submatrix(K, L)) > 1


def test_first_check_of_a_large_grassmannian_stays_small():
    # GF(2), n = 8, m = 4: a pass is decided by the lemma and a fail streams
    # the 200787 points of Gr(4, 8) up to its first bad R, so a fresh process
    # holds no table of them (a table of Gr(4, 8) peaked at about 230 MB)
    code, _, err, peak = run_capped("""
        import random
        from conjlab.fields import GF
        from conjlab.matrix import Matrix, inverse, random_matrix, rank
        from conjlab.pencil import offdiag_criterion_check, tuple_rank_identity
        f = GF(2)
        assert offdiag_criterion_check(Matrix.identity(f, 8), 1, 4) == (True, None)
        P = random_matrix(8, 8, f, random.Random(0))
        assert tuple_rank_identity(P) > 1
        holds, (g, K, L) = offdiag_criterion_check(P, 1, 4)
        assert not holds and rank((g @ P @ inverse(g)).submatrix(K, L)) > 1
    """)
    assert code == 0, err
    assert peak < 64 * 1024  # in kB


def test_offdiag_pass_never_walks(monkeypatch):
    # a P with rk(P, I) <= k passes by the lemma, before any subspace is listed
    def walk(*args):
        raise AssertionError("the walk ran on a passing input")
    monkeypatch.setattr(pencil, "_witness_walk", walk)
    rng = random.Random(34)
    for fld, n, m, k in ((G2, 4, 2, 1), (G3, 4, 2, 1), (G2, 6, 3, 2), (G5, 4, 1, 0)):
        ins = [Matrix.identity(fld, n), Matrix.scalar(fld, n, fld.p - 1) + matrix_of_rank(fld, n, k, rng)]
        for P in ins:
            assert tuple_rank_identity(P) <= k
            assert offdiag_criterion_check(P, k, m) == (True, None), P.to_rows()


def test_offdiag_walk_with_no_bad_pair_raises(monkeypatch):
    # a walk that finds no bad pair contradicts the theorem: with the lemma
    # made to miss the identity, the check raises rather than pass
    monkeypatch.setattr(pencil, "tuple_rank_identity", lambda P: 2)
    with pytest.raises(AssertionError, match="no subspace pair"):
        offdiag_criterion_check(Matrix.identity(G2, 4), 1, 2)


def test_offdiag_budget():
    # a failing GF(101) input is refused: the row prefix's span alone would
    # hold 101^3 vectors; the identity passes by its lemma
    P = Matrix.from_rows(GF(101), [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]])
    with pytest.raises(BudgetExceeded, match="witness walk"):
        offdiag_criterion_check(P, 1, 2)
    assert offdiag_criterion_check(Matrix.identity(GF(101), 4), 1, 2) == (True, None)


def _k_row_tests(rows, p):
    """The rows that the oracle walk tests to reach the K rows r_m, ..., r_1
    (given in that order): every vector of span(r_(j+1), ..., r_m) comes
    before r_j, so sum_j code(r_j) + m - (p^m - 1)/(p - 1), code(v) =
    sum_i v_i p^(n-1-i) being the vectors before v."""
    n, m = len(rows[0]), len(rows)
    codes = sum(x * p ** (n - 1 - i) for v in rows for i, x in enumerate(v))
    return codes + m - (p**m - 1) // (p - 1)


def _walk_charge(monkeypatch, P, k, m):
    """The witness walk's rows and its charge, with the count of rows tested
    after the K rows: the charge less m n per X^T of Gr(m, n - m), n^2 per R
    streamed up to the first bad R, and the entries of the vectors that
    _grow adds, counted from its output, over the n per row tested."""
    grown, grow = [], pencil._grow

    def counted(vecs, v, p, budget):
        out = grow(vecs, v, p, budget)
        grown.append((len(out) - len(vecs)) * len(v))
        return out
    monkeypatch.setattr(pencil, "_grow", counted)
    budget = pencil._Budget("the witness walk")
    rows = pencil._witness_walk(P, k, m, budget)
    monkeypatch.setattr(pencil, "_grow", grow)
    f, n = P.field, P.rows
    streamed = list(enumerate_subspaces(m, n, f.p)).index(tuple(rows[:m][::-1])) + 1
    xts = m * n * gaussian_binomial(n - m, m, f.p)
    tested, rest = divmod(budget.spent - xts - n * n * streamed - sum(grown), n)
    assert rest == 0
    return rows, budget.spent, tested


def test_offdiag_budget_counts_the_work_done(monkeypatch):
    # a pass decided by its lemma costs nothing, at any size; a failing input
    # passes at its charge and raises one unit below it
    monkeypatch.setattr(pencil, "ENUMERATION_BUDGET", 0)
    for P, k, m in ((Matrix.identity(G2, 8), 1, 2), (Matrix.identity(G3, 6), 1, 2),
                    (Matrix.scalar(GF(7), 2, 3), 0, 1)):
        assert offdiag_criterion_check(P, k, m) == (True, None)
    rng = random.Random(35)
    for fld, n, m, k in ((G2, 4, 2, 1), (G3, 4, 2, 0), (G2, 6, 3, 1)):
        P = random_matrix(n, n, fld, rng)
        while tuple_rank_identity(P) <= k:
            P = random_matrix(n, n, fld, rng)
        monkeypatch.setattr(pencil, "ENUMERATION_BUDGET", ENUMERATION_BUDGET)
        rows, spent, _ = _walk_charge(monkeypatch, P, k, m)
        monkeypatch.setattr(pencil, "ENUMERATION_BUDGET", spent)
        holds, (g, _, _) = offdiag_criterion_check(P, k, m)
        assert not holds and g == Matrix.from_rows(fld, rows)
        monkeypatch.setattr(pencil, "ENUMERATION_BUDGET", spent - 1)
        with pytest.raises(BudgetExceeded, match="witness walk"):
            offdiag_criterion_check(P, k, m)


def test_offdiag_witness_walk_budget(monkeypatch):
    # the X^T of Gr(1, 1): 1 * 2; R's (0,1), (1,0), (1,1): 3 * 2^2; the
    # prefix span of (1, 1): 2 vectors * 2, and the C's image span: 2 * 1;
    # rows tested after K: (0, 1), 2
    P = Matrix.from_rows(G3, [[1, 0], [0, 2]])
    monkeypatch.setattr(pencil, "ENUMERATION_BUDGET", 22)
    holds, (g, _, _) = offdiag_criterion_check(P, 0, 1)
    assert not holds and g == Matrix.from_rows(G3, [[1, 1], [0, 1]])
    monkeypatch.setattr(pencil, "ENUMERATION_BUDGET", 21)
    with pytest.raises(BudgetExceeded):
        offdiag_criterion_check(P, 0, 1)


def test_offdiag_walk_budget_matches_pairs_oracle(monkeypatch):
    # T = the rows the oracle walk tests on a failing input: the walk tests
    # T less the oracle's K-row tests after its K rows, and the check returns
    # the oracle's witness at a budget of its charge and raises one unit below
    rng = random.Random(12)
    cases = 0
    for p in (5, 7, 11, 13):
        fld = GF(p)
        # diag(a, b), a != b: every row before (1, 1) spans an eigenline
        ins = [Matrix.from_rows(fld, [[a, 0], [0, b]])
               for a, b in (rng.sample(range(p), 2) for _ in range(3))]
        ins += [random_matrix(2, 2, fld, rng) for _ in range(30)]
        for P in ins:
            verdict, T = offdiag_pairs_oracle(P, 0, 1)
            if verdict[0]:
                continue
            rows, spent, tested = _walk_charge(monkeypatch, P, 0, 1)
            assert tested == T - _k_row_tests(rows[:1], p), P.to_rows()
            monkeypatch.setattr(pencil, "ENUMERATION_BUDGET", spent)
            assert offdiag_criterion_check(P, 0, 1) == verdict, P.to_rows()
            monkeypatch.setattr(pencil, "ENUMERATION_BUDGET", spent - 1)
            with pytest.raises(BudgetExceeded, match="witness walk"):
                offdiag_criterion_check(P, 0, 1)
            monkeypatch.setattr(pencil, "ENUMERATION_BUDGET", ENUMERATION_BUDGET)
            cases += 1
    assert cases >= 10


def test_witness_walk_charges_match_pairs_oracle_at_m_above_one(monkeypatch):
    # at m > 1 the oracle's K-row tests have the term m - (p^m - 1)/(p - 1):
    # the walk gives the oracle's rows, tests T less them after its K rows,
    # and raises one unit below its charge
    rng = random.Random(33)
    for p, n, m, count in ((2, 4, 2, 6), (2, 5, 2, 3), (3, 4, 2, 3), (2, 6, 3, 2)):
        cases = 0
        while cases < count:
            P, k = _differential_input(GF(p), n, rng), rng.randrange(m)
            verdict, T = offdiag_pairs_oracle(P, k, m)
            if verdict[0]:
                continue
            rows, spent, tested = _walk_charge(monkeypatch, P, k, m)
            assert Matrix.from_rows(GF(p), rows) == verdict[1][0], (P.to_rows(), k)
            assert tested == T - _k_row_tests(rows[:m], p), (P.to_rows(), k)
            monkeypatch.setattr(pencil, "ENUMERATION_BUDGET", spent - 1)
            with pytest.raises(BudgetExceeded, match="witness walk"):
                pencil._witness_walk(P, k, m, pencil._Budget("the witness walk"))
            monkeypatch.setattr(pencil, "ENUMERATION_BUDGET", ENUMERATION_BUDGET)
            cases += 1


def _worst_walk_charge(p, n, m):
    """The most the witness walk can charge: the X^T entries, every R, the
    prefix span, every X's image span, and every vector outside the prefix
    tested at each row after K."""
    xs = gaussian_binomial(n - m, m, p)
    return (m * n * xs + n * n * gaussian_binomial(n, m, p) + n * (p ** (n - 1) - 1)
            + m * xs * (p**m - 1) + n * sum(p**n - p**d for d in range(m, n)))


def test_budget_refuses_no_input_that_fit_the_gl_scan():
    # wherever the former scan of GL_n(F_p) fit the budget, the most either
    # search can charge does
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for n in range(2, 6):
            gl_order = math.prod(p**n - p**i for i in range(n))
            if gl_order > ENUMERATION_BUDGET:
                continue
            for m in range(1, n // 2 + 1):
                assert _worst_walk_charge(p, n, m) <= ENUMERATION_BUDGET
            for k in range(1, n + 1):
                g = gaussian_binomial(n, k, p)
                assert k * n * g * (1 + g) <= ENUMERATION_BUDGET  # each R, each C per R


def test_offdiag_reach_past_the_pair_count():
    # inputs whose subspace pairs exceed the budget (GF(2), n = 8, m = 2:
    # 7.0 M; GF(3), n = 6, m = 2: 1.43 M; GF(2), n = 10, m = 3) pass by the
    # lemma or reach a witness, which a plain block rank confirms
    for fld, n, m in ((G2, 8, 2), (G3, 6, 2), (G2, 10, 3)):
        assert offdiag_criterion_check(Matrix.identity(fld, n), 1, m) == (True, None)
        P = random_matrix(n, n, fld, random.Random(0))
        assert tuple_rank_identity(P) > 1
        holds, (g, K, L) = offdiag_criterion_check(P, 1, m)
        assert not holds and minor_rank_oracle((g @ P @ inverse(g)).submatrix(K, L)) > 1


def test_offdiag_refuses_before_listing_the_xts(monkeypatch):
    # GF(2), n = 11, m = 3: the 97155 X^T of Gr(3, 8) cost 33 units each,
    # charged first, so the walk is refused before it streams any R or lists
    # any X^T
    calls, stream = [], pencil.enumerate_subspaces

    def listed(k, n, p):
        calls.append((k, n, p))
        return stream(k, n, p)
    monkeypatch.setattr(pencil, "enumerate_subspaces", listed)
    P = random_matrix(11, 11, G2, random.Random(0))
    assert tuple_rank_identity(P) > 1
    with pytest.raises(BudgetExceeded, match="witness walk"):
        offdiag_criterion_check(P, 1, 3)
    assert calls == []


def test_offdiag_refusal_at_the_budget_edge_stays_small():
    # GF(31), n = 5, m = 2: the prefix span nears 31^4 vectors, 5 entries
    # each, before the budget refuses it.  E_00 over GF(2) at k = 0: at
    # n = 21, m = 1, the 2^20 - 1 lines with r_0 = 0 are good R's ahead of
    # the first bad one, but the 21 (2^20 - 1) entries of the X^T are charged
    # before any R; at n = 20, m = 10 there is one X^T.  Charged by entries,
    # the R's and spans bound the time and the peak, which grow with n at a
    # charge per R or per vector
    code, out, err, peak = run_capped("""
        import random
        from conjlab.fields import GF
        from conjlab.matrix import Matrix, random_matrix
        from conjlab.pencil import BudgetExceeded, offdiag_criterion_check, tuple_rank_identity
        P = random_matrix(5, 5, GF(31), random.Random(0))
        assert tuple_rank_identity(P) > 1
        cases = [(P, 1, 2)]
        for n, m in ((21, 1), (20, 10)):
            E00 = Matrix.from_rows(GF(2), [[int(i == j == 0) for j in range(n)] for i in range(n)])
            cases.append((E00, 0, m))
        for P, k, m in cases:
            try:
                offdiag_criterion_check(P, k, m)
            except BudgetExceeded:
                print("refused")
    """, mem_mb=1024, timeout=20)
    assert code == 0 and out == "refused\n" * 3, err
    assert peak < 96 * 1024  # in kB


def _is_rref(rows, p):
    pivots = []
    for r in rows:
        lead = next(c for c, x in enumerate(r) if x)
        if r[lead] != 1 or (pivots and lead <= pivots[-1]):
            return False
        pivots.append(lead)
    return all(all(x in range(p) for x in r) for r in rows) and all(
        rows[j][c] == 0 for i, c in enumerate(pivots) for j in range(len(rows)) if j != i)


def _span(rows, p, n):
    out = {(0,) * n}
    for r in rows:
        out = {tuple((a + c * b) % p for a, b in zip(v, r)) for v in out for c in range(p)}
    return frozenset(out)


def test_enumerate_subspaces():
    for p, n in ((2, 1), (2, 3), (2, 4), (3, 3), (5, 2)):
        vectors = list(itertools.product(range(p), repeat=n))
        for k in range(0, n + 1):
            subs = list(enumerate_subspaces(k, n, p))
            assert len(subs) == gaussian_binomial(n, k, p)
            assert all(len(S) == k and _is_rref(S, p) for S in subs)
            spans = [_span(S, p, n) for S in subs]
            assert len(set(spans)) == len(subs)  # each subspace once
            assert all(len(sp) == p**k for sp in spans)
            if k <= 2:  # every k-subspace, by the spans of all k-tuples of vectors
                brute = {sp for vs in itertools.product(vectors, repeat=k)
                         if len(sp := _span(vs, p, n)) == p**k}
                assert set(spans) == brute
            # canonical order: the RREF rows read last first
            key = lambda S: S[::-1]
            assert subs == sorted(subs, key=key)
    assert list(enumerate_subspaces(1, 2, 3)) == [((0, 1),), ((1, 0),), ((1, 1),), ((1, 2),)]
    assert gaussian_binomial(4, 2, 2) == 35 and gaussian_binomial(4, 2, 3) == 130


def test_rref_rows_last_first_are_the_least_basis():
    # the least vector of R outside the span of the rows picked so far is the
    # next RREF row from the bottom, so the witness walk meets the R's in the
    # order of their least bases, the order enumerate_subspaces yields
    for p, n, m in ((2, 4, 2), (2, 6, 3), (3, 4, 2)):
        keys = []
        for S in enumerate_subspaces(m, n, p):
            vecs, basis = sorted(_span(S, p, n)), []
            while len(basis) < m:
                below = _span(basis, p, n)
                basis.append(next(v for v in vecs if v not in below))
            assert basis == list(S[::-1]), S
            keys.append(basis)
        assert keys == sorted(keys)


def test_gl_enumeration_counts():
    # |GL_n(F_q)| = prod over i < n of (q^n - q^i)
    for n, q, order in ((2, 2, 6), (2, 3, 48), (3, 2, 168)):
        assert math.prod(q**n - q**i for i in range(n)) == order
        assert sum(1 for _ in enumerate_gl_rows(n, q)) == order


def test_uniqueness_of_small_shift():
    # a shift with corank above n/2 is the unique minimizer
    for fld, n in ((G2, 2), (G2, 3), (G3, 2), (G3, 3)):
        I = Matrix.identity(fld, n)
        for M in _all_sq(fld, n):
            ranks = {lam: rank(M - I.scale(lam)) for lam in fld.elements()}
            best = min(ranks.values())
            if best < n / 2:
                assert sum(1 for r in ranks.values() if r == best) == 1


def test_pencil_tuple_validation():
    with pytest.raises(Exception):
        PencilTuple.make([])
    with pytest.raises(Exception):
        PencilTuple.make([Matrix.identity(G2, 2), Matrix.identity(G3, 2)])


def test_offdiag_census_gl4_f2():
    # the distribution of rk(P, I) over all of gl_4(F_2), and the exhaustive
    # (k, m) = (1, 2) criterion against it on 25 samples at seed 0
    counts = Counter(tuple_rank_identity(Matrix(G2, 4, 4, ent))
                     for ent in itertools.product(range(2), repeat=16))
    assert counts == {0: 2, 1: 450, 2: 14140, 3: 45120, 4: 5824}
    rng = random.Random(0)
    for _ in range(25):
        P = random_matrix(4, 4, G2, rng)
        holds, _ = offdiag_criterion_check(P, 1, 2)
        assert holds == (tuple_rank_identity(P) <= 1)
