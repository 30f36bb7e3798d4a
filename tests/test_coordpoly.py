import itertools
import operator
import re

import pytest
from fractions import Fraction

from conftest import coordpoly_value
from conjlab.chains import GroupType, form_matrix, random_algebra_element
from conjlab.coordpoly import (
    CoordPoly,
    PolyContext,
    PolyError,
    PolyGrid,
    _layout,
    linear_combination,
    poly_format,
    symbolic_matrix,
)
from conjlab.fields import GF, QQ
from conjlab.matrix import Matrix, MatrixError, inverse, random_invertible, random_matrix

QQ_, G7 = QQ(), GF(7)
GL2 = PolyContext("gl", 2)
GL3 = PolyContext("gl", 3)


def V(ctx, fld, family, i, j=None):
    """The canonical variable family[i,j] (or family[i]) of ctx as a form."""
    var = (family, i) if j is None else (family, i, j)
    assert var in _layout(ctx)
    return CoordPoly(ctx, fld, ((var, fld.one),))


def term(ctx, fld, c, family, i, j=None):
    """c times the variable family[i,j] (or family[i])."""
    return V(ctx, fld, family, i, j).scale(c)


def rand_gl_poly(ctx, fld, rng, terms=3):
    """A sum of ``terms`` p variables, each with a nonzero coefficient."""
    out = CoordPoly.zero(ctx, fld)
    n = ctx.n
    for _ in range(terms):
        c = fld.random(rng)
        while fld.is_zero(c):
            c = fld.random(rng)
        out = out + term(ctx, fld, c, "p", rng.randint(1, n), rng.randint(1, n))
    return out


def test_canonical_vars():
    """Which keys name a variable: q[k,l] with k <= l for the symmetric
    block of C, k < l for the skew block of D, only p for gl, and the
    middle column v[1..n] for B."""
    C2, D2, B2 = PolyContext("C", 2), PolyContext("D", 2), PolyContext("B", 2)
    assert ("q", 1, 1) in _layout(C2) and ("q", 1, 2) in _layout(C2)
    assert ("q", 2, 1) not in _layout(C2)
    assert ("q", 1, 1) not in _layout(D2)  # skew diagonal absent
    assert ("q", 1, 2) not in _layout(GL2)  # gl has only p
    assert ("v", 2) in _layout(B2) and ("v", 3) not in _layout(B2)


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


def test_parse_format_roundtrip():
    """poly_format prints the terms sorted by variable, whatever order they
    were summed in."""
    B4 = PolyContext("B", 4)
    cases = [
        ([(Fraction(-1, 2), ("w", 4)), (3, ("p", 1, 2))], "3*p[1,2] - 1/2*w[4]"),
        ([(2, ("p", 1, 2)), (1, ("p", 1, 1))], "p[1,1] + 2*p[1,2]"),
        ([], "0"),
        ([(-1, ("v", 1))], "-v[1]"),
    ]
    for terms, text in cases:
        f = CoordPoly.zero(B4, QQ_)
        for c, var in terms:
            f = f + term(B4, QQ_, c, *var)
        assert poly_format(f) == text


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
                    assert coordpoly_value(Y.entry(i, j), point) == want.entry(i, j)


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


def test_polygrid_add_sub_and_block_check_shapes_as_matrix_does():
    """block raises PolyError where Matrix.block raises MatrixError and
    otherwise gives the entries of the same range; + and - need equal shapes."""
    X = symbolic_matrix(GL2, QQ_)
    M = Matrix.identity(QQ_, 2)
    for r0, r1, c0, c1 in itertools.product(range(-1, 4), repeat=4):
        try:
            want = M.block(r0, r1, c0, c1)
        except MatrixError:
            with pytest.raises(PolyError, match="block out of range"):
                X.block(r0, r1, c0, c1)
            continue
        got = X.block(r0, r1, c0, c1)
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert got.polys == [[X.entry(i, j) for j in range(c0, c1)] for i in range(r0, r1)]
    for Y in (X.block(0, 1, 0, 2), X.block(0, 2, 0, 1), symbolic_matrix(GL3, QQ_)):
        for op, symbol in ((operator.add, "+"), (operator.sub, "-")):
            for a, b in ((X, Y), (Y, X)):
                with pytest.raises(PolyError, match=re.escape(f"shape mismatch in {symbol}")):
                    op(a, b)
    assert (X + X).polys == X.scale(2).polys
    assert (X - X).polys == [[CoordPoly.zero(GL2, QQ_)] * 2] * 2
