"""Multigraph reduction calculus and the incidence surjectivity certificate.

Three rules act on an undirected multigraph (loops allowed):

  (1) remove an edge;
  (2) remove a vertex that carries at least one loop, together with all
      incident edges;
  (3) at a vertex v with a loop, replace an edge {v, w} with v != w by a
      loop at w.

A graph that reduces to the empty graph certifies that the incidence map
sending an edge weight vector to its vertex sums (loops counted once) is
surjective.  A connected component without a loop can never acquire one, so
it certifies irreducibility.
"""

from __future__ import annotations

from .fields import GF, Record
from .matrix import Matrix, rank


class RuleError(ValueError):
    pass


def _norm_edge(e) -> tuple[str, str]:
    a, b = e
    a, b = str(a), str(b)
    return (a, b) if a <= b else (b, a)


class Multigraph(Record):
    # edges: a multiset, kept sorted; each edge a sorted pair (loop = equal endpoints)
    __slots__ = ("vertices", "edges")

    @staticmethod
    def make(vertices, edges) -> "Multigraph":
        vs = tuple(sorted(set(str(v) for v in vertices)))
        vset = set(vs)
        es = []
        for e in edges:
            pair = _norm_edge(e)
            if pair[0] not in vset or pair[1] not in vset:
                raise RuleError(f"edge {pair} has an endpoint outside the vertex set")
            es.append(pair)
        return Multigraph(vs, tuple(sorted(es)))

    @property
    def is_empty(self) -> bool:
        return not self.vertices and not self.edges

    def has_loop_at(self, v) -> bool:
        return (v, v) in self.edges

    def components(self) -> list[frozenset]:
        adj = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = set()
        out = []
        for v in self.vertices:
            if v in seen:
                continue
            comp = set()
            stack = [v]
            while stack:
                u = stack.pop()
                if u in comp:
                    continue
                comp.add(u)
                stack.extend(adj[u] - comp)
            seen |= comp
            out.append(frozenset(comp))
        return out


class RemoveEdge(Record):
    __slots__ = ("edge",)


class RemoveLoopedVertex(Record):
    __slots__ = ("vertex",)


class MigrateEdge(Record):
    # edge {v, w}, v != w; looped is v, which must carry a loop: the edge
    # becomes a loop at the other end
    __slots__ = ("edge", "looped")


class ReductionCertificate(Record):
    __slots__ = ("steps",)


class Obstruction(Record):
    __slots__ = ("component",)  # a connected, loop-free component, as a frozenset


def apply_rule(g: Multigraph, step) -> Multigraph:
    if isinstance(step, RemoveEdge):
        e = _norm_edge(step.edge)
        if e not in g.edges:
            raise RuleError(f"edge {e} not present")
        es = list(g.edges)
        es.remove(e)
        return Multigraph(g.vertices, tuple(es))
    if isinstance(step, RemoveLoopedVertex):
        v = str(step.vertex)
        if v not in g.vertices:
            raise RuleError(f"vertex {v} not present")
        if not g.has_loop_at(v):
            raise RuleError(f"vertex {v} has no loop")
        vs = tuple(u for u in g.vertices if u != v)
        es = tuple(e for e in g.edges if v not in e)
        return Multigraph(vs, es)
    if isinstance(step, MigrateEdge):
        e = _norm_edge(step.edge)
        v = str(step.looped)
        if v not in e:
            raise RuleError(f"{v} is not an endpoint of {e}")
        w = e[1] if e[0] == v else e[0]
        if v == w:
            raise RuleError("cannot migrate a loop")
        if e not in g.edges:
            raise RuleError(f"edge {e} not present")
        if not g.has_loop_at(v):
            raise RuleError(f"vertex {v} has no loop")
        es = list(g.edges)
        es.remove(e)
        es.append((w, w))
        return Multigraph(g.vertices, tuple(sorted(es)))
    raise RuleError(f"unknown rule {step!r}")


def reduce_graph(g: Multigraph):
    """Reduce to the empty graph or report a loop-free component.

    Strategy: in every component that has a loop, push loops outward along a
    spanning tree with rule (3), then delete every vertex with rule (2);
    deletion removes leftover edges, so rule (1) is never needed here.
    """
    steps = []
    for comp in sorted(g.components(), key=min):
        looped = sorted(v for v in comp if g.has_loop_at(v))
        if not looped:
            return Obstruction(comp)
    work = g
    for comp in sorted(g.components(), key=min):
        root = min(v for v in comp if g.has_loop_at(v))
        # BFS tree from the root; migrating the tree edge seeds a loop at the child
        parent = {root: None}
        order = [root]
        frontier = [root]
        adj = {v: set() for v in comp}
        for a, b in g.edges:
            if a in comp and a != b:
                adj[a].add(b)
                adj[b].add(a)
        while frontier:
            nxt = []
            for u in frontier:
                for w in sorted(adj[u]):
                    if w not in parent:
                        parent[w] = u
                        order.append(w)
                        nxt.append(w)
            frontier = nxt
        for w in order[1:]:
            if not work.has_loop_at(w):
                step = MigrateEdge((parent[w], w), parent[w])
                steps.append(step)
                work = apply_rule(work, step)
        for v in order:
            step = RemoveLoopedVertex(v)
            steps.append(step)
            work = apply_rule(work, step)
    assert work.is_empty
    return ReductionCertificate(tuple(steps))


def replay(g: Multigraph, cert: ReductionCertificate) -> bool:
    """True iff every step's precondition holds and the final graph is empty."""
    work = g
    for step in cert.steps:
        try:
            work = apply_rule(work, step)
        except RuleError:
            return False
    return work.is_empty


def incidence_matrix(g: Multigraph, field) -> Matrix:
    """|V| x |E| matrix of the edge-to-vertex-sum map; loops contribute once."""
    vidx = {v: i for i, v in enumerate(g.vertices)}
    nv, ne = len(g.vertices), len(g.edges)
    ent = [field.zero] * (nv * ne)
    for j, (a, b) in enumerate(g.edges):
        ent[vidx[a] * ne + j] = field.add(ent[vidx[a] * ne + j], field.one)
        if b != a:
            ent[vidx[b] * ne + j] = field.add(ent[vidx[b] * ne + j], field.one)
    return Matrix(field, nv, ne, tuple(ent))


def incidence_rank_check(g: Multigraph, field) -> tuple[bool, int]:
    r = rank(incidence_matrix(g, field))
    return r == len(g.vertices), r


# ---------------------------------------------------------------------------
# The explicit multigraph behind the characteristic-2 density argument
# ---------------------------------------------------------------------------

def _char2_units(n: int) -> list[tuple[int, int]]:
    """The matrix units (i, j) of gl_n except E_{n,n}, row-major."""
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if (i, j) != (n, n)]


def char2_derivative(n: int) -> Matrix:
    """The derivative of (P, Q) -> PQ + P^T Q^T over GF(2) at the base point
    P0 = superdiagonal, Q0 = antidiagonal, modulo the last matrix unit.

    Rows are the matrix units except E_{n,n}, in row-major order.  Columns
    are the 2n^2 directions, row-major, the P directions first.  Direction
    E_ij of P maps to E_ij Q0 + E_ji Q0 = E_{i,n+1-j} + E_{j,n+1-i}, and
    direction E_kl of Q maps to P0 E_kl + P0^T E_lk = E_{k-1,l} + E_{l+1,k},
    where a unit outside the n x n grid is zero.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    row = {u: r for r, u in enumerate(_char2_units(n))}
    span = range(1, n + 1)
    images = [((i, n + 1 - j), (j, n + 1 - i)) for i in span for j in span]
    images += [((k - 1, ell), (ell + 1, k)) for k in span for ell in span]
    ent = [[0] * len(images) for _ in row]
    for c, image in enumerate(images):
        for unit in image:
            if unit in row:
                ent[row[unit]][c] ^= 1
    return Matrix.from_rows(GF(2), ent)


def char2_gamma(n: int) -> Multigraph:
    """Multigraph whose reducibility certifies surjectivity of
    :func:`char2_derivative`: the column graph of that matrix.

    Vertices are the matrix units except E_{n,n}.  Each nonzero column is an
    edge between the two units it hits, or a loop at the only one.
    """
    D = char2_derivative(n)
    verts = [f"E_{i}_{j}" for i, j in _char2_units(n)]
    cols = ([verts[r] for r in range(D.rows) if D.entry(r, c)] for c in range(D.cols))
    return Multigraph.make(verts, [(ends[0], ends[-1]) for ends in cols if ends])
