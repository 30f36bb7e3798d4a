import pytest

from conjlab.chains import (
    ChainError,
    ChainSpec,
    GroupType,
    Signature,
    TruncatedPoint,
    algebra_membership,
    algebra_project,
    chain_from_json,
    chain_to_json,
    check_point,
    classify_case,
    dual_projection_instructions,
    embed_group,
    form_inverse,
    form_matrix,
    group_inverse,
    group_membership,
    h_form_gram,
    h_group_membership,
    normalize_signatures,
    project_dual,
    random_algebra_element,
    random_group_element,
    trace_invariant,
    _h_sigma,
)
from conjlab.fields import GF, QQ
from conjlab.matrix import Matrix, inverse, random_matrix

G2, G3, G5, G7, QQ_ = GF(2), GF(3), GF(5), GF(7), QQ()

CHAINS = [
    ChainSpec.make("A", 2, [], [(1, 1, 1)]),
    ChainSpec.make("A", 2, [], [(2, 0, 0)]),
    ChainSpec.make("C", 1, [], [(2, 0, 1)]),
    ChainSpec.make("D", 2, [], [(2, 0, 1)]),
    ChainSpec.make("B", 1, [], [(1, 0, 2)]),
    ChainSpec.make("B", 1, [], [(3, 0, 0)]),
    ChainSpec.make("B", 1, [], [(3, 0, 2)]),
]


def test_membership_examples():
    sl2 = GroupType("A", 2)
    assert algebra_membership(sl2, Matrix.from_rows(QQ_, [[1, 0], [0, -1]]))
    assert not algebra_membership(sl2, Matrix.identity(QQ_, 2))
    assert group_membership(sl2, Matrix.from_rows(QQ_, [[0, 1], [-1, 0]]))
    assert not group_membership(sl2, Matrix.from_rows(QQ_, [[2, 0], [0, 1]]))
    sp4 = GroupType("C", 2)
    Qb = Matrix.from_rows(QQ_, [[1, 2], [2, 3]])
    Rb = Matrix.from_rows(QQ_, [[0, 5], [5, 1]])
    Pb = Matrix.from_rows(QQ_, [[1, 2], [3, 4]])
    M = Matrix.from_blocks([[Pb, Qb], [Rb, -Pb.transpose()]])
    assert algebra_membership(sp4, M)
    B = Matrix.from_rows(QQ_, [[1, 7], [7, 2]])
    g = Matrix.from_blocks([[Matrix.identity(QQ_, 2), B],
                            [Matrix.zeros(QQ_, 2), Matrix.identity(QQ_, 2)]])
    assert group_membership(sp4, g)


def test_group_sizes():
    assert GroupType("A", 3).ambient == 3
    assert GroupType("B", 2).ambient == 5
    assert GroupType("C", 2).ambient == 4
    assert GroupType("D", 3).ambient == 6


def test_random_group_elements(rng):
    for gt in (GroupType("A", 3), GroupType("B", 2), GroupType("C", 2), GroupType("D", 2)):
        assert random_group_element(gt, G7, rng, 0) == Matrix.identity(G7, gt.ambient)
        for _ in range(25):
            g = random_group_element(gt, G7, rng, 4)
            assert group_membership(gt, g)
            assert group_membership(gt, inverse(g))
    gt = GroupType("C", 2)
    for _ in range(500):
        g = random_group_element(gt, G5, rng, 3)
        J = form_matrix(G5, gt)
        assert g @ J @ g.transpose() == J


def test_random_algebra_elements(rng):
    for gt in (GroupType("B", 2), GroupType("C", 2), GroupType("D", 2)):
        for _ in range(20):
            assert algebra_membership(gt, random_algebra_element(gt, G7, rng))
    assert algebra_membership(GroupType("A", 3), random_algebra_element(GroupType("A", 3), QQ_, rng))


# chains whose embeddings are checked as homomorphisms and for equivariance,
# beyond CHAINS: several r and z blocks, l = 3, and l = 5 and z = 4 in type B
EMBED_CHAINS = CHAINS + [
    ChainSpec.make("A", 2, [], [(1, 2, 3)]),
    ChainSpec.make("C", 1, [], [(3, 0, 2)]),
    ChainSpec.make("D", 2, [], [(3, 0, 0)]),
    ChainSpec.make("B", 1, [], [(5, 0, 0)]),
    ChainSpec.make("B", 1, [], [(1, 0, 4)]),
]


def _cd_layout(g):
    """(2, 0, 1) on [[A, B], [C, D]]: two copies of each n x n block and a
    hyperbolic pair whose one part is the identity."""
    f, n = g.field, g.rows // 2
    A, B, C, D = (g.block(r, r + n, c, c + n) for r in (0, n) for c in (0, n))
    one, zero = Matrix.identity(f, 1), Matrix.zeros(f, 1)
    return Matrix.from_blocks([
        [Matrix.diag_blocks([A, A, one]), Matrix.diag_blocks([B, B, zero])],
        [Matrix.diag_blocks([C, C, zero]), Matrix.diag_blocks([D, D, one])],
    ])


def _b_insert_layout(g):
    """(1, 0, 2) on the odd form of rank n: psi inserts one new coordinate
    after each n-block, and g acts as the identity on both."""
    f, n = g.field, (g.rows - 1) // 2
    cut = (0, n, n + 1, 2 * n + 1)
    (A, al, B), (be, mu, ga), (C, de, D) = (
        [g.block(cut[a], cut[a + 1], cut[b], cut[b + 1]) for b in range(3)] for a in range(3))
    one = Matrix.identity(f, 1)

    def Z(r, c):
        return Matrix.zeros(f, r, c)

    return Matrix.from_blocks([
        [A, Z(n, 1), al, B, Z(n, 1)],
        [Z(1, n), one, Z(1, 1), Z(1, n), Z(1, 1)],
        [be, Z(1, 1), mu, ga, Z(1, 1)],
        [C, Z(n, 1), de, D, Z(n, 1)],
        [Z(1, n), Z(1, 1), Z(1, 1), Z(1, n), one],
    ])


def _a_layout(g):
    """(1, 1, 1): g, its contragredient g^{-T}, and a fixed coordinate."""
    return Matrix.diag_blocks([g, inverse(g).transpose(), Matrix.identity(g.field, 1)])


@pytest.mark.parametrize("letter, n1, sig, field, layout", [
    ("A", 2, (2, 0, 0), QQ_, lambda g: Matrix.diag_blocks([g, g])),
    ("A", 3, (1, 1, 1), QQ_, _a_layout),
    ("A", 2, (1, 1, 1), G7, _a_layout),
    ("C", 2, (2, 0, 1), G7, _cd_layout),
    ("D", 2, (2, 0, 1), QQ_, _cd_layout),
    ("B", 1, (1, 0, 2), G7, _b_insert_layout),
    ("B", 2, (1, 0, 2), QQ_, _b_insert_layout),
], ids=["A2-doubling", "A3-111-qq", "A2-111-gf7", "C2-201-gf7", "D2-201-qq", "B1-102-gf7",
        "B2-102-qq"])
def test_embed_block_layouts(letter, n1, sig, field, layout, rng):
    chain = ChainSpec.make(letter, n1, [], [sig])
    gt = chain.group_at(1)
    for _ in range(5):
        g = random_group_element(gt, field, rng, 4)
        assert embed_group(chain, 1, g) == layout(g)
    if (letter, n1) == ("A", 2):
        g = Matrix.from_rows(field, [[0, 1], [-1, 0]])
        assert embed_group(chain, 1, g) == layout(g)


def test_embed_homomorphism(rng):
    for ch in EMBED_CHAINS:
        gt = ch.group_at(1)
        assert embed_group(ch, 1, Matrix.identity(G7, gt.ambient)) == \
            Matrix.identity(G7, ch.ambient_at(2))
        for _ in range(8):
            g = random_group_element(gt, G7, rng, 3)
            h = random_group_element(gt, G7, rng, 3)
            assert embed_group(ch, 1, g @ h) == embed_group(ch, 1, g) @ embed_group(ch, 1, h)
            assert embed_group(ch, 1, inverse(g)) == inverse(embed_group(ch, 1, g))


def test_embed_rejects_non_members():
    ch = ChainSpec.make("A", 2, [], [(2, 0, 0)])
    with pytest.raises(ChainError):
        embed_group(ch, 1, Matrix.from_rows(QQ_, [[2, 0], [0, 1]]))


def test_project_examples():
    ch = ChainSpec.make("A", 2, [], [(2, 0, 0)])
    P1 = Matrix.from_rows(QQ_, [[1, 2], [3, 4]])
    P2 = Matrix.from_rows(QQ_, [[5, 6], [7, 8]])
    assert project_dual(ch, 1, Matrix.diag_blocks([P1, P2])) == P1 + P2
    # type C, (l, z) = (1, 1), n_i = 1: central sub-blocks extracted
    ch = ChainSpec.make("C", 1, [], [(1, 0, 1)])
    M = Matrix.zeros(QQ_, 4)
    ent = [[0] * 4 for _ in range(4)]
    ent[0][0], ent[0][2], ent[2][0], ent[2][2] = 1, 2, 3, -1
    M = Matrix.from_rows(QQ_, ent)
    out = project_dual(ch, 1, M)
    assert out == Matrix.from_rows(QQ_, [[1, 2], [3, -1]])


def test_projection_lands_in_algebra(rng):
    for ch in CHAINS:
        if ch.letter == "A":
            continue
        for _ in range(10):
            M = random_algebra_element(ch.group_at(2), G7, rng)
            out = project_dual(ch, 1, M)
            assert algebra_membership(ch.group_at(1), out)


def test_project_surjective_block_lifts(rng):
    for ch in CHAINS:
        gt1 = ch.group_at(1)
        N1, N2 = ch.ambient_at(1), ch.ambient_at(2)
        for _ in range(10):
            if ch.letter == "A":
                target = random_matrix(N1, N1, G7, rng)
            else:
                target = random_algebra_element(gt1, G7, rng)
            # place the target through the first standard-representation copy
            lift = _first_copy_lift(ch, target)
            assert project_dual(ch, 1, lift) == target


def _first_copy_lift(ch, target):
    """Embed the level-1 representative through the first standard copy."""
    f = target.field
    N2 = ch.ambient_at(2)
    n = ch.n_at(1)
    s = ch.signature_at(1)
    ent = [[f.zero] * N2 for _ in range(N2)]
    if ch.letter == "A":
        for a in range(n):
            for b in range(n):
                ent[a][b] = target.entry(a, b)
        return Matrix.from_rows(f, ent)
    if ch.letter in "CD":
        half = s.l * n + s.z
        for a in range(n):
            for b in range(n):
                ent[a][b] = target.entry(a, b)
                ent[a][half + b] = target.entry(a, n + b)
                ent[half + a][b] = target.entry(n + a, b)
                ent[half + a][half + b] = target.entry(n + a, n + b)
        return Matrix.from_rows(f, ent)
    # type B: invert the instruction map through its first contributor
    instrs = dual_projection_instructions(ch, 1)
    used = set()
    for sg, (sr, sc), (dr, dc) in instrs:
        if (dr, dc) in used:
            continue
        used.add((dr, dc))
        v = target.entry(dr, dc)
        ent[sr][sc] = f.add(ent[sr][sc], v if sg == 1 else f.neg(v))
    M = Matrix.from_rows(f, ent)
    # symmetrize into the algebra and fix the projection exactly
    gt2 = ch.group_at(2)
    M = algebra_project(gt2, M + M - M)  # no-op arithmetic keeps field coercion
    # the raw lift may not sit in the algebra; project and re-balance
    delta = project_dual(ch, 1, M) - target
    if delta.is_zero() and algebra_membership(gt2, M):
        return M
    # fall back: average the raw lift with its algebra projection
    M2 = algebra_project(gt2, Matrix.from_rows(f, ent))
    d2 = project_dual(ch, 1, M2) - target
    assert d2.is_zero()
    return M2


def test_equivariance_all_types(rng):
    for ch in EMBED_CHAINS:
        gt = ch.group_at(1)
        for _ in range(30):
            g = random_group_element(gt, G7, rng, 4)
            if ch.letter == "A":
                M = random_matrix(ch.ambient_at(2), ch.ambient_at(2), G7, rng)
            else:
                M = random_algebra_element(ch.group_at(2), G7, rng)
            G = embed_group(ch, 1, g)
            assert project_dual(ch, 1, G @ M @ inverse(G)) == \
                g @ project_dual(ch, 1, M) @ inverse(g)


def test_h_form_conversion(rng):
    n, l = 1, 3
    f = G7
    L = l * (2 * n + 1)
    # the permutation matrix of the index map that the embedding uses
    sigma = _h_sigma(n, l)
    P = Matrix.from_rows(f, [[int(sigma[j] == i) for j in range(L)] for i in range(L)])
    H = h_form_gram(f, n, l)
    J = form_matrix(f, GroupType("B", (l * (2 * n + 1) - 1) // 2))
    assert P @ H @ P.transpose() == J
    # conjugation by P carries the H-form algebra onto the standard odd algebra
    for _ in range(20):
        raw = random_matrix(L, L, f, rng)
        half = f.inv(f.coerce(2))
        M = (raw - H @ raw.transpose() @ H).scale(half)
        assert (M @ H + H @ M.transpose()).is_zero()
        conv = P @ M @ P.transpose()
        assert algebra_membership(GroupType("B", (L - 1) // 2), conv)
        back = P.transpose() @ conv @ P
        assert back == M
    # and group membership commutes with the conversion
    for _ in range(10):
        g = random_group_element(GroupType("B", (L - 1) // 2), f, rng, 3)
        assert h_group_membership(f, n, l, P.transpose() @ g @ P)


@pytest.mark.parametrize("field", [G3, G7, QQ_], ids=lambda f: f.name)
def test_form_inverse_matches_elimination(field, rng):
    """J g^T J^T is inverse(g), entry for entry, on seeded members of types
    B, C and D and of the H-form; type A keeps the elimination."""
    for gt in (GroupType("B", 1), GroupType("B", 2), GroupType("C", 2), GroupType("D", 3)):
        J = form_matrix(field, gt)
        assert form_matrix(field, gt) is J and J.transpose() @ J == Matrix.identity(field, gt.ambient)
        for _ in range(10):
            g = random_group_element(gt, field, rng, 4)
            assert form_inverse(g, J) == group_inverse(gt, g) == inverse(g)
    g = random_group_element(GroupType("A", 3), field, rng, 4)
    assert group_inverse(GroupType("A", 3), g) == inverse(g)
    for n, l in ((1, 3), (2, 3), (1, 5)):
        # H = J.submatrix(sigma, sigma), so g.submatrix(sigma, sigma) is in
        # the H-form group when g is in the type B group
        L, sigma = l * (2 * n + 1), _h_sigma(n, l)
        H = h_form_gram(field, n, l)
        for _ in range(5):
            g = random_group_element(GroupType("B", (L - 1) // 2), field, rng, 4)
            h = g.submatrix(sigma, sigma)
            assert h_group_membership(field, n, l, h)
            assert form_inverse(h, H) == inverse(h)


def test_h_form_gram_is_the_explicit_block_form():
    """h_form_gram against [[0,0,I_ln],[0,J_l,0],[I_ln,0,0]] built block by
    block, J_l the l x l anti-diagonal of ones."""
    for f in (G2, G7, QQ_):
        for n, l in ((1, 1), (1, 3), (2, 1), (2, 3), (1, 5), (3, 5), (2, 7)):
            ln = l * n
            Z = lambda r, c: Matrix.zeros(f, r, c)
            J = Matrix.from_rows(f, [[int(i + j == l - 1) for j in range(l)] for i in range(l)])
            I = Matrix.identity(f, ln)
            want = Matrix.from_blocks([[Z(ln, ln), Z(ln, l), I],
                                       [Z(l, ln), J, Z(l, ln)],
                                       [I, Z(ln, l), Z(ln, ln)]])
            assert h_form_gram(f, n, l) == want, (f, n, l)


def test_h_form_gram_needs_an_odd_l():
    """An even l has no middle J_l block of an odd form: it raises rather than
    give a singular gram matrix."""
    for l in (2, 4, 0, -1):
        with pytest.raises(ChainError, match="odd l"):
            h_form_gram(QQ_, 1, l)


def test_classify_cases():
    assert classify_case(ChainSpec.make("A", 1, [], [(1, 0, 1)]), 0).tag == "1"
    t = classify_case(ChainSpec.make("A", 1, [], [(2, 0, 1)]), 0)
    assert t.tag == "2" and t.alpha is None and t.gamma is None
    assert classify_case(ChainSpec.make("A", 2, [], [(2, 1, 0)]), 2).tag == "3b"
    assert classify_case(ChainSpec.make("A", 2, [], [(2, 1, 0)]), 3).tag == "3a"
    assert classify_case(ChainSpec.make("A", 3, [], [(2, 1, 0)]), 2).tag == "3a"
    assert classify_case(ChainSpec.make("A", 2, [], [(3, 0, 0)]), 2).tag == "4b"
    assert classify_case(ChainSpec.make("A", 2, [], [(3, 0, 0)]), 5).tag == "4a"
    # divisibility that only starts after the prefix
    assert classify_case(ChainSpec.make("A", 3, [(3, 0, 1)], [(3, 0, 0)]), 2).tag == "4b"
    # an odd multiplier keeps every level odd
    assert classify_case(ChainSpec.make("A", 3, [], [(3, 0, 0)]), 2).tag == "4a"
    with pytest.raises(ChainError):
        classify_case(ChainSpec.make("C", 1, [], [(2, 0, 0)]), 0)


def test_classify_rejects_non_characteristics():
    # every n is divisible by 1, so char 1 would turn case 4a into 4b
    ch = ChainSpec.make("A", 2, [], [(2, 0, 0)])
    for char in (1, 4, -3, 10**30 + 57):
        with pytest.raises(ChainError, match="prime"):
            classify_case(ch, char)


def test_classify_invariance():
    # comp: the map from level 1 to level 3, two maps of signature s composed,
    # (l^2 + r^2, 2 l r, (l + r + 1) z)
    for s, comp, n1, char in [((1, 1, 0), (2, 2, 0), 2, 2), ((2, 0, 1), (4, 0, 3), 1, 3),
                              ((3, 0, 0), (9, 0, 0), 2, 2), ((1, 0, 1), (1, 0, 2), 1, 0),
                              ((2, 1, 0), (5, 4, 0), 2, 2)]:
        ch = ChainSpec.make("A", n1, [], [s])
        skip = ChainSpec.make("A", n1, [], [comp])
        assert skip.n_at(2) == ch.n_at(3)
        assert classify_case(skip, char).tag == classify_case(ch, char).tag
        assert classify_case(ChainSpec.make("A", ch.n_at(2), [], [s]), char).tag == \
            classify_case(ch, char).tag


def test_normalize():
    ch = ChainSpec.make("A", 2, [(0, 1, 0)], [(1, 2, 3)])
    out = normalize_signatures(ch)
    assert all(s.l >= s.r for s in out.prefix + out.repeat)
    assert normalize_signatures(out) == out
    # flip parities: replaying the recursion k_{i+1} = k_i xor [l_i < r_i]
    # reproduces the per-level swaps
    k = 0
    for orig, new in zip(ch.prefix + ch.repeat, out.prefix + out.repeat):
        flip = 1 if orig.l < orig.r else 0
        k_next = k ^ flip
        expect = orig.swapped() if (k + k_next) % 2 else orig
        assert new == expect
        k = k_next


def test_point_checks():
    ch = ChainSpec.make("A", 2, [], [(2, 0, 0)])
    E = Matrix.basis(G2, 2, 0, 0)
    lift2 = Matrix.diag_blocks([E, Matrix.zeros(G2, 2)])
    lift3 = Matrix.diag_blocks([lift2, Matrix.zeros(G2, 4)])
    pt = TruncatedPoint.make(ch, [E, lift2, lift3])
    assert check_point(pt)
    assert check_point(TruncatedPoint.make(ch, [E, lift2 + Matrix.identity(G2, 4), lift3]))
    assert not check_point(TruncatedPoint.make(ch, [E, lift2 + Matrix.basis(G2, 4, 0, 1), lift3]))
    zero = TruncatedPoint.make(ch, [Matrix.zeros(G2, 2), Matrix.zeros(G2, 4)])
    assert check_point(zero)
    with pytest.raises(ChainError):
        TruncatedPoint.make(ch, [])  # a point with no level has nothing to check
    with pytest.raises(ChainError, match="over qq"):
        TruncatedPoint.make(ch, [E, Matrix.identity(QQ_, 4)])  # levels over two fields


def test_trace_invariant():
    ch = ChainSpec.make("A", 2, [], [(2, 0, 0)])
    E = Matrix.basis(G2, 2, 0, 0)
    lift2 = Matrix.diag_blocks([E, Matrix.zeros(G2, 2)])
    lift3 = Matrix.diag_blocks([lift2, Matrix.zeros(G2, 4)])
    assert trace_invariant(TruncatedPoint.make(ch, [E, lift2, lift3])) == 1
    assert trace_invariant(TruncatedPoint.make(ch, [Matrix.zeros(G2, 2)])) == 0
    chz = ChainSpec.make("A", 2, [], [(2, 0, 2)])
    assert trace_invariant(TruncatedPoint.make(chz, [Matrix.basis(G2, 2, 0, 0)])) == 0
    bad = TruncatedPoint.make(ch, [E, Matrix.basis(G2, 4, 0, 1)])  # traces 1 vs 0
    with pytest.raises(ChainError):
        trace_invariant(bad)


def test_chain_spec_validation():
    with pytest.raises(ChainError):
        ChainSpec.make("B", 1, [], [(2, 0, 0)])  # even l
    with pytest.raises(ChainError):
        ChainSpec.make("B", 1, [], [(1, 0, 1)])  # odd z
    with pytest.raises(ChainError):
        ChainSpec.make("C", 1, [], [(1, 1, 0)])  # r != 0
    with pytest.raises(ChainError):
        ChainSpec.make("A", 1, [], [])


def test_signature_validation_and_swap():
    """A signature (l, r, z) needs nonnegative parts and l + r >= 1; swapped
    exchanges l and r, the signature of the map composed with the transpose
    inverse."""
    s = Signature(2, 1, 3)
    assert s.swapped() == Signature(1, 2, 3)
    assert s.swapped().swapped() == s
    assert Signature(1, 1, 0).swapped() == Signature(1, 1, 0)
    for bad in ((0, 0, 1), (0, 0, 0), (-1, 2, 0), (1, -1, 0), (1, 0, -1)):
        with pytest.raises(ChainError, match="bad signature"):
            Signature(*bad)
        with pytest.raises(ChainError):
            ChainSpec.make("A", 1, [], [bad])
    ch = ChainSpec.make("A", 1, [(1, 0, 0)], [(2, 1, 1)])
    assert ch.signature_at(1) == Signature(1, 0, 0)
    assert ch.signature_at(2) == ch.signature_at(5) == Signature(2, 1, 1)


def test_json_document_checks_the_named_members():
    from conjlab.jsonio import json_document

    doc = {"chain": {"type": "A"}, "levels": [], "extra": 1}
    assert json_document(doc, "point", chain=dict, levels=list) is doc
    assert json_document({}, "descriptor") == {}
    for bad in ([], "x", None, 3):
        with pytest.raises(ValueError, match="point JSON must be an object"):
            json_document(bad, "point")
    with pytest.raises(ValueError, match="point JSON needs 'levels' as a JSON array"):
        json_document({"chain": {}}, "point", chain=dict, levels=list)
    with pytest.raises(ValueError, match="point JSON needs 'chain' as a JSON object"):
        json_document({"chain": [], "levels": []}, "point", chain=dict, levels=list)


def test_chain_json_roundtrip():
    for ch in CHAINS:
        assert chain_from_json(chain_to_json(ch)) == ch


def test_point_json_roundtrip():
    from conjlab.jsonio import point_from_json

    ch = ChainSpec.make("A", 2, [], [(2, 0, 0)])
    E = Matrix.basis(G2, 2, 0, 0)
    pt = TruncatedPoint.make(ch, [E, Matrix.diag_blocks([E, Matrix.zeros(G2, 2)])])
    doc = {"chain": {"type": "A", "n1": 2, "prefix": [], "repeat": [[2, 0, 0]]},
           "levels": [{"field": "gf:2", "rows": [["1", "0"], ["0", "0"]]},
                      {"field": "gf:2", "rows": [["1", "0", "0", "0"], ["0", "0", "0", "0"],
                                                  ["0", "0", "0", "0"], ["0", "0", "0", "0"]]}]}
    assert point_from_json(doc) == pt


def test_size_recursions():
    assert ChainSpec.make("A", 2, [], [(2, 1, 1)]).n_at(3) == 22
    assert ChainSpec.make("C", 1, [], [(2, 0, 1)]).n_at(2) == 3
    assert ChainSpec.make("B", 1, [], [(3, 0, 2)]).n_at(2) == 5  # 2*5+1 = 3*3 + 2


def _walked_n(ch, level):
    """n at a level by applying every map below it in turn."""
    n = ch.n1
    for i in range(1, level):
        s = ch.signature_at(i)
        n = {"A": (s.l + s.r) * n + s.z, "C": s.l * n + s.z, "D": s.l * n + s.z,
             "B": (s.l * (2 * n + 1) + s.z - 1) // 2}[ch.letter]
    return n


def test_n_at_skips_fixed_repeats_and_stops_past_cap():
    chains = CHAINS + [
        ChainSpec.make("A", 3, [(2, 0, 1), (0, 1, 0)], [(1, 0, 0), (0, 1, 0)]),
        ChainSpec.make("C", 2, [(2, 0, 0)], [(1, 0, 0)]),
        ChainSpec.make("B", 1, [(3, 0, 0)], [(1, 0, 0)]),
        ChainSpec.make("D", 2, [], [(1, 0, 0), (1, 0, 2)]),
    ]
    for ch in chains:
        for level in range(0, 9):
            n = _walked_n(ch, level)
            assert ch.n_at(level) == n
            for cap in (1, 3, 10, 100):
                got = ch.n_at(level, cap)
                assert got == n if n <= cap else cap < got <= n
    # a repeat that fixes n answers for any level; one that grows stops at the cap
    assert chains[-4].n_at(10**18) == _walked_n(chains[-4], 3) == 7
    assert CHAINS[0].n_at(10**18, cap=100) == _walked_n(CHAINS[0], 7) == 191


def test_group_for_rejects_sizes_past_the_level():
    ch = ChainSpec.make("A", 2, [], [(1, 1, 0)])
    M = Matrix.identity(QQ_, 4)
    assert ch.group_for(2, M) == GroupType("A", 4)
    with pytest.raises(ValueError, match="level 1 has 2x2 matrices, not 4x4"):
        ch.group_for(1, M)
    with pytest.raises(ValueError, match="level 1000000000000000000 has matrices larger than 4x4"):
        ch.group_for(10**18, M)
