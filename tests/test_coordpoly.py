import random

import pytest
from fractions import Fraction

from conjlab.chains import (
    ChainSpec,
    GroupType,
    form_matrix,
    random_algebra_element,
    random_group_element,
)
from conjlab.coordpoly import (
    DEG,
    GRAD,
    CoordPoly,
    PolyContext,
    PolyError,
    PolyGrid,
    evaluate,
    graded_part,
    group_act,
    linear_combination,
    off_diagonal_test,
    poly_format,
    poly_parse,
    pullback_projection,
    symbolic_matrix,
    vandermonde_coefficients,
)
from conjlab.fields import GF, QQ
from conjlab.matrix import Matrix, inverse, random_invertible, random_matrix

QQ_, G5, G7 = QQ(), GF(5), GF(7)
GL2 = PolyContext("gl", 2)
GL3 = PolyContext("gl", 3)
V = CoordPoly.variable


def rand_gl_poly(ctx, fld, rng, terms=3, deg=2):
    out = CoordPoly.zero(ctx, fld)
    n = ctx.n
    for _ in range(terms):
        t = CoordPoly.constant(ctx, fld, fld.random_nonzero(rng))
        for _ in range(rng.randint(1, deg)):
            t = t * V(ctx, fld, "p", rng.randint(1, n), rng.randint(1, n))
        out = out + t
    return out


def test_canonical_vars():
    C2 = PolyContext("C", 2)
    D2 = PolyContext("D", 2)
    V(C2, QQ_, "q", 1, 1)
    V(C2, QQ_, "q", 1, 2)
    with pytest.raises(PolyError):
        V(C2, QQ_, "q", 2, 1)
    with pytest.raises(PolyError):
        V(D2, QQ_, "q", 1, 1)  # skew diagonal absent
    with pytest.raises(PolyError):
        V(GL2, QQ_, "q", 1, 2)  # gl has only p
    B2 = PolyContext("B", 2)
    V(B2, QQ_, "v", 2)
    with pytest.raises(PolyError):
        V(B2, QQ_, "v", 3)


def test_symbolic_matrix_lies_in_the_algebra():
    """X J + J X^T = 0 for the form J of types B, C and D."""
    for kind in ("B", "C", "D"):
        for n in range(1, 6):
            X = symbolic_matrix(PolyContext(kind, n), QQ_)
            J = form_matrix(QQ_, GroupType(kind, n))
            S = X @ J + J @ X.transpose()
            assert all(S.entry(i, j).is_zero() for i in range(S.rows) for j in range(S.cols))


def test_symbolic_matrix_variable_count():
    want = {"gl": lambda n: n * n, "B": lambda n: n * (2 * n + 1),
            "C": lambda n: n * (2 * n + 1), "D": lambda n: n * (2 * n - 1)}
    for kind, count in want.items():
        for n in range(1, 6):
            X = symbolic_matrix(PolyContext(kind, n), QQ_)
            assert len(set().union(*(e.variables() for row in X.polys for e in row))) == count(n)


def test_symbolic_matrix_type_b_pinned():
    X = symbolic_matrix(PolyContext("B", 2), QQ_)
    assert [[poly_format(e) for e in row] for row in X.polys] == [
        ["p[1,1]", "p[1,2]", "v[1]", "0", "q[1,2]"],
        ["p[2,1]", "p[2,2]", "v[2]", "-q[1,2]", "0"],
        ["-w[1]", "-w[2]", "0", "-v[1]", "-v[2]"],
        ["0", "r[1,2]", "w[1]", "-p[1,1]", "-p[2,1]"],
        ["-r[1,2]", "0", "w[2]", "-p[1,2]", "-p[2,2]"],
    ]


def test_evaluate_examples():
    f = V(GL2, QQ_, "p", 1, 2)
    assert evaluate(f, {"p": Matrix.from_rows(QQ_, [[0, 3], [0, 0]])}) == 3
    fdet = V(GL2, QQ_, "p", 1, 1) * V(GL2, QQ_, "p", 2, 2) \
        - V(GL2, QQ_, "p", 1, 2) * V(GL2, QQ_, "p", 2, 1)
    assert evaluate(fdet, {"p": Matrix.identity(QQ_, 2)}) == 1
    C2 = PolyContext("C", 2)
    fq = V(C2, QQ_, "q", 1, 2)
    assert evaluate(fq, {"q": Matrix.from_rows(QQ_, [[0, 5], [5, 0]])}) == 5
    with pytest.raises(PolyError):
        evaluate(fq, {"q": Matrix.from_rows(QQ_, [[0, 5], [4, 0]])})  # not symmetric
    with pytest.raises(PolyError):
        evaluate(fq, {"p": Matrix.identity(QQ_, 2)})  # missing family


def test_group_act_examples():
    swap = Matrix.from_rows(QQ_, [[0, 1], [1, 0]])
    assert group_act(V(GL2, QQ_, "p", 1, 2), swap) == V(GL2, QQ_, "p", 2, 1)
    tr = V(GL2, QQ_, "p", 1, 1) + V(GL2, QQ_, "p", 2, 2)
    g = Matrix.from_rows(QQ_, [[1, 5], [0, 1]])
    assert group_act(tr, g) == tr


def test_group_act_composition(rng):
    for _ in range(8):
        g = random_invertible(3, G5, rng)
        h = random_invertible(3, G5, rng)
        f = rand_gl_poly(GL3, G5, rng)
        assert group_act(group_act(f, h), g) == group_act(f, g @ h)


def test_group_act_eval_compat(rng):
    for _ in range(8):
        g = random_invertible(3, G5, rng)
        M = random_matrix(3, 3, G5, rng)
        f = rand_gl_poly(GL3, G5, rng)
        assert evaluate(group_act(f, g), {"p": M}) == evaluate(f, {"p": inverse(g) @ M @ g})
    # and for a form-preserving conjugator in type C
    C2 = PolyContext("C", 2)
    gt = GroupType("C", 2)
    for _ in range(6):
        g = random_group_element(gt, G7, rng, 4)
        f = V(C2, G7, "q", 1, 2) * V(C2, G7, "p", 2, 1) + V(C2, G7, "r", 1, 1)
        from conjlab.chains import random_algebra_element
        M = random_algebra_element(gt, G7, rng)
        n = 2
        point = {
            "p": M.block(0, n, 0, n),
            "q": M.block(0, n, n, 2 * n),
            "r": M.block(n, 2 * n, 0, n),
        }
        Mc = inverse(g) @ M @ g
        point_c = {
            "p": Mc.block(0, n, 0, n),
            "q": Mc.block(0, n, n, 2 * n),
            "r": Mc.block(n, 2 * n, 0, n),
        }
        assert evaluate(group_act(f, g), point) == evaluate(f, point_c)


def test_group_act_eval_compat_types_b_d(rng):
    from conjlab.chains import random_algebra_element

    for kind, n in (("B", 2), ("D", 2)):
        ctx = PolyContext(kind, n)
        gt = GroupType(kind, n)
        if kind == "B":
            f = V(ctx, G7, "v", 1) * V(ctx, G7, "w", 2) + V(ctx, G7, "q", 1, 2)
        else:
            f = V(ctx, G7, "q", 1, 2) * V(ctx, G7, "p", 2, 1) + V(ctx, G7, "r", 1, 2)
        for _ in range(6):
            g = random_group_element(gt, G7, rng, 3)
            M = random_algebra_element(gt, G7, rng)

            def blocks(mat):
                if kind == "D":
                    return {"p": mat.block(0, n, 0, n),
                            "q": mat.block(0, n, n, 2 * n),
                            "r": mat.block(n, 2 * n, 0, n)}
                N = 2 * n + 1
                return {"p": mat.block(0, n, 0, n),
                        "v": mat.block(0, n, n, n + 1),
                        "q": mat.block(0, n, n + 1, N),
                        "w": mat.block(n + 1, N, n, n + 1),
                        "r": mat.block(n + 1, N, 0, n)}

            Mc = inverse(g) @ M @ g
            assert evaluate(group_act(f, g), blocks(M)) == evaluate(f, blocks(Mc))


def test_group_act_membership_checked():
    C2 = PolyContext("C", 2)
    f = V(C2, QQ_, "q", 1, 1)
    with pytest.raises(PolyError):
        group_act(f, Matrix.identity(QQ_, 4).scale(2))  # not symplectic


def test_group_act_degree_and_grad_preserved(rng):
    gt = GroupType("C", 2)
    C2 = PolyContext("C", 2)
    f = V(C2, G7, "q", 1, 2) * V(C2, G7, "r", 2, 2) + V(C2, G7, "p", 1, 1) * V(C2, G7, "p", 1, 2)
    for _ in range(6):
        g = random_group_element(gt, G7, rng, 4)
        acted = group_act(f, g)
        assert acted.total_degree() == f.total_degree()
    # the weighted grading is preserved by the block-diagonal subgroup
    # Diag(A, A^{-T}), which is what the grading argument acts with
    topw = lambda h: max(sum(GRAD.of(v[0]) * e for v, e in m) for m, _ in h.terms)
    for _ in range(6):
        A = random_invertible(2, G7, rng)
        g = Matrix.diag_blocks([A, inverse(A).transpose()])
        acted = group_act(f, g)
        assert topw(acted) == topw(f)
        parts = {w for m, _ in acted.terms for w in [sum(GRAD.of(v[0]) * e for v, e in m)]}
        base = {w for m, _ in f.terms for w in [sum(GRAD.of(v[0]) * e for v, e in m)]}
        assert parts == base


def test_pullback_examples():
    ch = ChainSpec.make("A", 1, [], [(2, 0, 0)])
    f = V(PolyContext("gl", 1), QQ_, "p", 1, 1)
    out = pullback_projection(f, ch, 1)
    assert out == V(GL2, QQ_, "p", 1, 1) + V(GL2, QQ_, "p", 2, 2)
    ch = ChainSpec.make("A", 2, [], [(1, 1, 0)])
    f = V(GL2, QQ_, "p", 1, 2)
    ctx4 = PolyContext("gl", 4)
    assert pullback_projection(f, ch, 1) == \
        V(ctx4, QQ_, "p", 1, 2) - V(ctx4, QQ_, "p", 4, 3)


def test_pullback_degree_preserved_and_injective(rng):
    ch = ChainSpec.make("A", 2, [], [(2, 1, 1)])
    seen = {}
    for _ in range(50):
        f = rand_gl_poly(GL2, G7, rng)
        pf = pullback_projection(f, ch, 1)
        assert pf.total_degree() == f.total_degree()
        key = tuple(sorted(pf.terms))
        assert seen.get(key, f) == f  # distinct inputs stay distinct
        seen[key] = f


def test_pullback_grad_preserved_type_c(rng):
    ch = ChainSpec.make("C", 1, [], [(3, 0, 0)])
    C1 = PolyContext("C", 1)
    f = V(C1, G7, "q", 1, 1) * V(C1, G7, "r", 1, 1) + V(C1, G7, "p", 1, 1)
    pf = pullback_projection(f, ch, 1)
    tops = lambda h: max(sum(GRAD.of(v[0]) * e for v, e in m) for m, _ in h.terms)
    assert tops(pf) == tops(f)


def test_vandermonde():
    def fam(lam):
        lam = Fraction(lam)
        a = V(GL2, QQ_, "p", 1, 1) + V(GL2, QQ_, "p", 2, 1).scale(lam)
        b = V(GL2, QQ_, "p", 2, 2) + V(GL2, QQ_, "p", 1, 2).scale(lam)
        return a * b

    cs = vandermonde_coefficients(fam, 2, [0, 1, 2])
    assert cs[2] == V(GL2, QQ_, "p", 2, 1) * V(GL2, QQ_, "p", 1, 2)
    assert cs[0] == V(GL2, QQ_, "p", 1, 1) * V(GL2, QQ_, "p", 2, 2)
    lam0 = Fraction(7)
    rec = cs[0] + cs[1].scale(lam0) + cs[2].scale(lam0 * lam0)
    assert rec == fam(lam0)
    const = V(GL2, QQ_, "p", 1, 1)
    assert vandermonde_coefficients(lambda lam: const, 0, [0]) == [const]
    with pytest.raises(PolyError):
        vandermonde_coefficients(fam, 2, [1, 1, 2])


def test_shear_top_coefficient_matches_substitution(rng):
    """The top lambda-coefficient of the shear-acted pullback of f is the top
    homogeneous part of f with its variables moved to the feeding block."""
    for m in (1, 2):
        ctxm = PolyContext("gl", m)
        chain = ChainSpec.make("A", m, [], [(2, 0, m)])
        n = 3 * m
        ctxn = PolyContext("gl", n)
        f = rand_gl_poly(ctxm, QQ_, rng, terms=2, deg=2)
        d = f.total_degree()
        g = pullback_projection(f, chain, 1)

        def shear(lam):
            ent = [[QQ_.one if i == j else QQ_.zero for j in range(n)] for i in range(n)]
            for a in range(m):
                ent[a][2 * m + a] = Fraction(lam)
            return Matrix.from_rows(QQ_, ent)

        fam = lambda lam: group_act(g, shear(lam))
        cs = vandermonde_coefficients(fam, d, list(range(d + 1)))
        # the action substitutes P - lam * R_1, so the top coefficient is
        # (-1)^d f_d evaluated on the feeding block
        fd = graded_part(f, DEG)
        shifted = {}
        for mono, c in fd.terms:
            new_mono = tuple(sorted(
                (("p", 2 * m + var[1], var[2]), e) for var, e in mono))
            shifted[new_mono] = QQ_.add(shifted.get(new_mono, QQ_.zero), c)
        expect = CoordPoly._normalize(ctxn, QQ_, shifted)
        if d % 2 == 1:
            expect = -expect
        assert cs[d] == expect
        assert off_diagonal_test(cs[d]) is not None


def test_graded_parts():
    B2 = PolyContext("B", 2)
    f = V(B2, QQ_, "p", 1, 1) + V(B2, QQ_, "q", 1, 2)
    assert graded_part(f, GRAD) == V(B2, QQ_, "q", 1, 2)
    assert graded_part(f, GRAD, 1) == V(B2, QQ_, "p", 1, 1)
    hom = V(B2, QQ_, "p", 1, 1) * V(B2, QQ_, "p", 2, 2)
    assert graded_part(hom, DEG) == hom
    assert graded_part(CoordPoly.zero(B2, QQ_), GRAD).is_zero()


def test_graded_part_sum_consistency(rng):
    for _ in range(10):
        f = rand_gl_poly(GL3, QQ_, rng, terms=2, deg=3)
        g = rand_gl_poly(GL3, QQ_, rng, terms=2, deg=1)
        if f.total_degree() > g.total_degree():
            assert graded_part(f + g, DEG) == graded_part(f, DEG)


def test_off_diagonal():
    f = V(GL3, QQ_, "p", 1, 3) * V(GL3, QQ_, "p", 1, 3)
    assert off_diagonal_test(f) == ((1,), (3,))
    assert off_diagonal_test(V(GL3, QQ_, "p", 1, 1)) is None
    assert off_diagonal_test(V(GL2, QQ_, "p", 1, 2)) is None  # size bound fails
    ctx5 = PolyContext("gl", 5)
    f = V(ctx5, QQ_, "p", 1, 3) * V(ctx5, QQ_, "p", 2, 4)
    assert off_diagonal_test(f) == ((1, 2), (3, 4))
    assert off_diagonal_test(f, m=1) is None


def test_parse_format_roundtrip(rng):
    B4 = PolyContext("B", 4)
    for text in ("3*p[1,2]*q[2,3] - 1/2*w[4]", "p[1,1]^2 + 2*p[1,2]", "0", "-v[1]"):
        f = poly_parse(text, B4, QQ_)
        assert poly_parse(poly_format(f), B4, QQ_) == f
    for _ in range(10):
        f = rand_gl_poly(GL3, G5, rng)
        assert poly_parse(poly_format(f), GL3, G5) == f
    assert poly_format(poly_parse("3*p[1,2]*q[2,3] - 1/2*w[4]", B4, QQ_)) \
        == "3*p[1,2]*q[2,3] - 1/2*w[4]"


def test_linear_combination_is_the_sum_of_scaled_terms(rng):
    for _ in range(10):
        polys = [rand_gl_poly(GL3, G7, rng) for _ in range(4)]
        cs = [rng.randrange(7) for _ in polys]
        want = CoordPoly.zero(GL3, G7)
        for c, p in zip(cs, polys):
            want = want + p.scale(c)
        assert linear_combination(GL3, G7, zip(cs, polys)) == want
    assert linear_combination(GL3, G7, []) == CoordPoly.zero(GL3, G7)


def test_polygrid_conjugate_evaluates_to_the_matrix_conjugate(rng):
    """Entry by entry, A X A^-1 of the symbolic matrix evaluated at the blocks
    of M is A M A^-1, on gl, C and D contexts; A need not preserve a form."""
    for kind, n in (("gl", 3), ("C", 2), ("D", 2)):
        ctx = PolyContext(kind, n)
        X = symbolic_matrix(ctx, G7)
        assert isinstance(X, PolyGrid) and (X.rows, X.cols) == (ctx.ambient, ctx.ambient)
        for _ in range(3):
            A = random_invertible(ctx.ambient, G7, rng)
            if kind == "gl":
                M = random_matrix(n, n, G7, rng)
                point = {"p": M}
            else:
                M = random_algebra_element(GroupType(kind, n), G7, rng)
                point = {"p": M.block(0, n, 0, n), "q": M.block(0, n, n, 2 * n),
                         "r": M.block(n, 2 * n, 0, n)}
            Y, want = A @ X @ inverse(A), A @ M @ inverse(A)
            assert isinstance(Y, PolyGrid)
            for i in range(ctx.ambient):
                for j in range(ctx.ambient):
                    assert evaluate(Y.entry(i, j), point) == want.entry(i, j)


def _dense_polys(A, X, left):
    """A @ X (left) or X @ A as rows of polys, one linear_combination per
    entry over every entry of a row or column of A."""
    z = X.entry(0, 0)
    lc = lambda pairs: linear_combination(z.context, z.field, pairs)
    if left:
        return [[lc([(A.entry(i, t), X.entry(t, j)) for t in range(A.cols)])
                 for j in range(X.cols)] for i in range(A.rows)]
    return [[lc([(A.entry(t, j), X.entry(i, t)) for t in range(A.rows)])
             for j in range(A.cols)] for i in range(X.rows)]


def test_polygrid_products_match_dense_linear_combinations(rng):
    # rows (and, for X @ A, columns) of A that are zero, a unit vector, a
    # single -1 or scalar, or dense; over GF(7) units and scalars outside range(7)
    for kind, n, fld in (("gl", 3, QQ_), ("C", 2, G7), ("D", 2, QQ_), ("B", 1, G7)):
        ctx = PolyContext(kind, n)
        X, N = symbolic_matrix(ctx, fld), ctx.ambient
        units = [1] if fld is QQ_ else [1, 8, -6]
        scalar = (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5))) if fld is QQ_ \
            else (lambda: rng.randint(-14, 14))
        for _ in range(8):
            rows = []
            for _ in range(N):
                row = [fld.zero] * N
                how = rng.choice(["zero", "unit", "minus", "single", "dense"])
                if how == "dense":
                    row = [scalar() for _ in range(N)]
                elif how != "zero":
                    c = {"unit": rng.choice(units), "minus": -1, "single": scalar()}[how]
                    row[rng.randrange(N)] = fld.coerce(c) if fld is QQ_ else c
                rows.append(row)
            A = Matrix(fld, N, N, tuple(v for r in rows for v in r))
            for got, left in ((A @ X, True), (X @ A, False)):
                assert (got.rows, got.cols) == (N, N)
                assert got.polys == _dense_polys(A, X, left)
            wide = A.block(0, N - 1, 0, N)
            assert (wide @ X).polys == _dense_polys(wide, X, True)
            assert (X @ wide.transpose()).polys == _dense_polys(wide.transpose(), X, False)


def test_polygrid_products_with_a_zero_dimension():
    X = symbolic_matrix(GL2, QQ_)
    zero = CoordPoly.zero(GL2, QQ_)
    cases = [
        (Matrix.identity(QQ_, 2) @ X.block(0, 2, 0, 0), (2, 0)),
        (X.block(0, 2, 0, 0) @ Matrix.zeros(QQ_, 0, 3), (2, 3)),
        (Matrix.zeros(QQ_, 3, 0) @ X.block(0, 0, 0, 2), (3, 2)),
        (X.block(0, 0, 0, 2) @ Matrix.identity(QQ_, 2), (0, 2)),
        (Matrix.zeros(QQ_, 0, 2) @ X, (0, 2)),
        (X @ Matrix.zeros(QQ_, 2, 0), (2, 0)),
        (X.block(0, 0, 0, 2).transpose(), (2, 0)),
        (X.block(0, 2, 0, 0).transpose(), (0, 2)),
    ]
    for Y, shape in cases:
        assert isinstance(Y, PolyGrid) and (Y.rows, Y.cols) == shape
        assert Y.polys == [[zero] * shape[1] for _ in range(shape[0])]


def test_matrix_times_polygrid_is_a_polygrid():
    X = symbolic_matrix(GL2, QQ_)
    swap = Matrix.from_rows(QQ_, [[0, 1], [1, 0]])
    Y = swap @ X
    assert isinstance(Y, PolyGrid)
    assert [[poly_format(Y.entry(i, j)) for j in range(2)] for i in range(2)] == \
        [["p[2,1]", "p[2,2]"], ["p[1,1]", "p[1,2]"]]
    assert (X @ swap).entry(0, 0) == V(GL2, QQ_, "p", 1, 2)
    assert X.transpose().entry(0, 1) == V(GL2, QQ_, "p", 2, 1)
    with pytest.raises(PolyError):
        Matrix.identity(QQ_, 3) @ X
    with pytest.raises(TypeError):
        X @ 2
