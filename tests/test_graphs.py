import random

import pytest

from conjlab.fields import GF, QQ
from conjlab.graphs import (
    MigrateEdge,
    Multigraph,
    Obstruction,
    ReductionCertificate,
    RemoveEdge,
    RemoveLoopedVertex,
    RuleError,
    apply_rule,
    char2_derivative,
    char2_gamma,
    incidence_matrix,
    incidence_rank_check,
    reduce_graph,
    replay,
)
from conjlab.jsonio import certificate_from_json, certificate_to_json, graph_from_json
from conjlab.matrix import Matrix

G2, G3, QQ_ = GF(2), GF(3), QQ()


def test_reduce_examples():
    g = Multigraph.make(["a"], [("a", "a")])
    cert = reduce_graph(g)
    assert cert == ReductionCertificate((RemoveLoopedVertex("a"),))
    assert replay(g, cert)
    assert reduce_graph(Multigraph.make(["a"], [])) == Obstruction(frozenset({"a"}))
    path4 = Multigraph.make("abcd", [("a", "a"), ("a", "b"), ("b", "c"), ("c", "d"), ("d", "d")])
    cert = reduce_graph(path4)
    assert isinstance(cert, ReductionCertificate)
    assert replay(path4, cert)


def test_rule_preconditions():
    g = Multigraph.make("ab", [("a", "b")])
    with pytest.raises(RuleError):
        apply_rule(g, RemoveLoopedVertex("a"))  # no loop
    with pytest.raises(RuleError):
        apply_rule(g, MigrateEdge(("a", "b"), "a"))  # a not looped
    with pytest.raises(RuleError):
        apply_rule(g, RemoveEdge(("a", "a")))
    g2 = Multigraph.make("ab", [("a", "a"), ("a", "b")])
    out = apply_rule(g2, MigrateEdge(("a", "b"), "a"))
    assert out.edges.count(("b", "b")) == 1
    with pytest.raises(RuleError):
        apply_rule(g2, MigrateEdge(("a", "a"), "a"))  # migrating a loop


def test_replay_rejections():
    g = Multigraph.make("ab", [("a", "a"), ("a", "b")])
    cert = reduce_graph(g)
    assert replay(g, cert)
    other = Multigraph.make("xy", [("x", "y")])
    assert not replay(other, cert)
    truncated = ReductionCertificate(cert.steps[:-1])
    assert not replay(g, truncated)


def _random_graph(rng, max_v=8):
    nv = rng.randint(1, max_v)
    verts = [f"v{i}" for i in range(nv)]
    edges = []
    for _ in range(rng.randint(0, 2 * nv)):
        a = rng.choice(verts)
        b = rng.choice(verts)
        edges.append((a, b))
    return Multigraph.make(verts, edges)


def test_reduce_total_and_sound():
    rng = random.Random(99)
    reduced = 0
    for _ in range(500):
        g = _random_graph(rng)
        res = reduce_graph(g)
        if isinstance(res, ReductionCertificate):
            reduced += 1
            assert replay(g, res)
            for fld in (G2, G3, QQ_):
                surj, _ = incidence_rank_check(g, fld)
                assert surj
        else:
            assert not any(g.has_loop_at(v) for v in res.component)
    assert reduced > 50  # sanity: the sampler hits both outcomes


def test_reducibility_characterization():
    rng = random.Random(5)
    for _ in range(300):
        g = _random_graph(rng, max_v=5)
        res = reduce_graph(g)
        every_component_looped = all(
            any(g.has_loop_at(v) for v in comp) for comp in g.components())
        assert isinstance(res, ReductionCertificate) == every_component_looped


def test_loop_free_components_stay_loop_free():
    rng = random.Random(17)
    for _ in range(200):
        g = _random_graph(rng, max_v=4)
        loop_free = [comp for comp in g.components()
                     if not any(g.has_loop_at(v) for v in comp)]
        moves = []
        for e in set(g.edges):
            moves.append(RemoveEdge(e))
            a, b = e
            if a != b:
                if g.has_loop_at(a):
                    moves.append(MigrateEdge(e, a))
                if g.has_loop_at(b):
                    moves.append(MigrateEdge(e, b))
        for v in g.vertices:
            if g.has_loop_at(v):
                moves.append(RemoveLoopedVertex(v))
        for mv in moves:
            out = apply_rule(g, mv)
            for comp in loop_free:
                for v in comp:
                    assert not out.has_loop_at(v)


def test_incidence_examples():
    assert incidence_rank_check(Multigraph.make(["v"], [("v", "v")]), G2) == (True, 1)
    assert incidence_rank_check(Multigraph.make("vw", [("v", "w")]), G2) == (False, 1)


def test_incidence_matrix_columns_are_edge_endpoints():
    """Column j of the |V| x |E| incidence matrix is e_a + e_b for the edge
    (a, b) and e_a for a loop at a, rows in the sorted vertex order."""
    rng = random.Random(17)
    for _ in range(100):
        g = _random_graph(rng)
        for fld in (G2, QQ_):
            M = incidence_matrix(g, fld)
            assert (M.rows, M.cols) == (len(g.vertices), len(g.edges))
            for j, (a, b) in enumerate(g.edges):
                want = [fld.one if v in (a, b) else fld.zero for v in g.vertices]
                assert [M.entry(i, j) for i in range(M.rows)] == want
    g = Multigraph.make("abc", [("a", "b"), ("c", "c"), ("b", "a")])
    assert incidence_matrix(g, QQ_) == Matrix.from_rows(QQ_, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert incidence_matrix(Multigraph.make("ab", []), G2) == Matrix.zeros(G2, 2, 0)


def test_char2_gamma():
    with pytest.raises(ValueError):
        char2_gamma(1)
    for n in range(2, 9):
        g = char2_gamma(n)
        assert len(g.vertices) == n * n - 1
        cert = reduce_graph(g)
        assert isinstance(cert, ReductionCertificate)
        assert replay(g, cert)
        surj, r = incidence_rank_check(g, G2)
        assert surj and r == n * n - 1
        for k in range(2, n + 1):
            assert g.has_loop_at(f"E_{k}_1")
        for ell in range(1, n):
            assert g.has_loop_at(f"E_{ell}_{n}")
        assert g.edges.count(("E_1_1", "E_1_1")) == (3 if n == 2 else 2)


def _derivative_by_products(n):
    """The derivative of (P, Q) -> PQ + P^T Q^T over GF(2) at the superdiagonal
    P0 and the antidiagonal Q0, one direction per column, from Matrix
    products; the entry at E_{n,n} is dropped."""
    P0 = Matrix.from_rows(G2, [[int(j == i + 1) for j in range(n)] for i in range(n)])
    Q0 = Matrix.from_rows(G2, [[int(i + j == n - 1) for j in range(n)] for i in range(n)])
    units = [Matrix.basis(G2, n, i, j) for i in range(n) for j in range(n)]
    images = [X @ Q0 + X.transpose() @ Q0.transpose() for X in units]
    images += [P0 @ Y + P0.transpose() @ Y.transpose() for Y in units]
    return Matrix.from_rows(G2, [[im.entries[r] for im in images] for r in range(n * n - 1)])


def test_char2_derivative_matches_matrix_products():
    with pytest.raises(ValueError):
        char2_derivative(1)
    for n in range(2, 6):
        D = char2_derivative(n)
        assert (D.rows, D.cols) == (n * n - 1, 2 * n * n)
        assert D == _derivative_by_products(n)


def test_char2_gamma_n3_edges():
    g = char2_gamma(3)
    assert g.vertices == ("E_1_1", "E_1_2", "E_1_3", "E_2_1", "E_2_2", "E_2_3", "E_3_1", "E_3_2")
    assert g.edges == (
        ("E_1_1", "E_1_1"), ("E_1_1", "E_1_1"), ("E_1_1", "E_2_2"), ("E_1_2", "E_2_3"),
        ("E_1_2", "E_2_3"), ("E_1_2", "E_3_2"), ("E_1_3", "E_1_3"), ("E_2_1", "E_2_1"),
        ("E_2_1", "E_2_3"), ("E_2_1", "E_3_2"), ("E_2_1", "E_3_2"), ("E_2_2", "E_2_2"),
        ("E_2_3", "E_2_3"), ("E_3_1", "E_3_1"))


def test_graph_json_roundtrip():
    g = Multigraph.make("ab", [("a", "a"), ("a", "b"), ("a", "b")])
    assert graph_from_json({"vertices": ["a", "b"], "edges": [["a", "b"], ["a", "a"], ["b", "a"]]}) == g
    cert = reduce_graph(g)
    assert certificate_from_json(certificate_to_json(cert)) == cert


def test_graph_json_edges_are_pairs_of_string_or_integer_vertices():
    g = graph_from_json({"vertices": ["a", 1], "edges": [["a", 1]]})
    assert g == Multigraph.make(["a", "1"], [("a", "1")])
    for doc, msg in (({"vertices": ["a"], "edges": [["a"]]}, "lists of two vertices"),
                     ({"vertices": [["a"]], "edges": []}, "strings or integers"),
                     ({"vertices": ["a", True], "edges": []}, "strings or integers"),
                     ({"vertices": ["a"], "edges": [["a", None]]}, "strings or integers")):
        with pytest.raises(ValueError, match=msg):
            graph_from_json(doc)


def test_certificate_json_steps_are_checked_like_graph_json():
    # a step's edge and vertices pass the graph's checks, and a missing member is named
    for step, msg in (({"rule": "remove_edge", "edge": ["a"]}, "lists of two vertices"),
                      ({"rule": "remove_looped_vertex", "vertex": ["a"]}, "strings or integers"),
                      ({"rule": "migrate_edge", "edge": ["a", "b"], "looped": ["a"]},
                       "strings or integers"),
                      ({"rule": "migrate_edge", "edge": ["a", True], "looped": "a"},
                       "strings or integers"),
                      ({"rule": "migrate_edge", "edge": ["a", "b"]}, "needs 'looped'"),
                      ({"rule": "remove_edge"}, "needs 'edge'"),
                      ({"edge": ["a", "a"]}, "needs 'rule'")):
        with pytest.raises(ValueError, match=msg):
            certificate_from_json([step])
    steps = [{"rule": "migrate_edge", "edge": ["a", 1], "looped": 1},
             {"rule": "remove_looped_vertex", "vertex": "a"}]
    assert certificate_from_json(steps) == ReductionCertificate(
        (MigrateEdge(("a", 1), 1), RemoveLoopedVertex("a")))
