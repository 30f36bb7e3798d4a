"""JSON readers and writers for matrices and certificates, and readers for
graphs and truncated points."""

from __future__ import annotations

from .chains import TruncatedPoint, chain_from_json
from .fields import field_from_name
from .graphs import (
    MigrateEdge,
    Multigraph,
    ReductionCertificate,
    RemoveEdge,
    RemoveLoopedVertex,
)
from .matrix import Matrix


def json_document(obj, what: str, **members) -> dict:
    """obj, once it is a JSON object whose named members are present and are
    instances of the given types (list for an array, dict for an object)."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} JSON must be an object")
    for key, kind in members.items():
        if not isinstance(obj.get(key), kind):
            raise ValueError(f"{what} JSON needs {key!r} as a JSON "
                             f"{'array' if kind is list else 'object'}")
    return obj


def matrix_to_json(M: Matrix) -> dict:
    f = M.field
    return {
        "field": f.name,
        "rows": [[f.format(M.entry(i, j)) for j in range(M.cols)] for i in range(M.rows)],
    }


def matrix_from_json(obj, field=None) -> Matrix:
    rows = json_document(obj, "matrix", rows=list)["rows"]
    f = field_from_name(obj["field"]) if "field" in obj else field
    if f is None:
        raise ValueError("matrix JSON needs a field")
    if not all(isinstance(row, list) for row in rows):
        raise ValueError("matrix JSON rows must be a list of lists")
    return Matrix.from_rows(f, [[f.parse(str(v)) for v in row] for row in rows])


def _vertices_and_edges(what: str, vertices, edges) -> tuple[list, list]:
    """vertices, and edges as tuples, once each edge is a JSON array of two
    vertices and each vertex, listed or an end of an edge, a string or an
    integer."""
    if not all(isinstance(e, list) and len(e) == 2 for e in edges):
        raise ValueError(f"{what} JSON edges must be lists of two vertices")
    if not all(isinstance(v, (str, int)) and not isinstance(v, bool)
               for v in [*vertices, *(v for e in edges for v in e)]):
        raise ValueError(f"{what} JSON vertices must be strings or integers")
    return list(vertices), [tuple(e) for e in edges]


def graph_from_json(obj) -> Multigraph:
    json_document(obj, "graph", vertices=list, edges=list)
    return Multigraph.make(*_vertices_and_edges("graph", obj["vertices"], obj["edges"]))


def certificate_to_json(cert: ReductionCertificate) -> list:
    out = []
    for step in cert.steps:
        if isinstance(step, RemoveEdge):
            out.append({"rule": "remove_edge", "edge": list(step.edge)})
        elif isinstance(step, RemoveLoopedVertex):
            out.append({"rule": "remove_looped_vertex", "vertex": step.vertex})
        else:
            out.append({"rule": "migrate_edge", "edge": list(step.edge), "looped": step.looped})
    return out


def _step_member(step: dict, key: str):
    if key not in step:
        raise ValueError(f"certificate step JSON needs {key!r}")
    return step[key]


def certificate_from_json(obj) -> ReductionCertificate:
    if not isinstance(obj, list):
        raise ValueError("certificate JSON must be an array")
    steps = []
    for item in obj:
        rule = _step_member(json_document(item, "certificate step"), "rule")
        if rule == "remove_edge":
            _, (edge,) = _vertices_and_edges("certificate step", [], [_step_member(item, "edge")])
            steps.append(RemoveEdge(edge))
        elif rule == "remove_looped_vertex":
            (vertex,), _ = _vertices_and_edges("certificate step", [_step_member(item, "vertex")], [])
            steps.append(RemoveLoopedVertex(vertex))
        elif rule == "migrate_edge":
            (looped,), (edge,) = _vertices_and_edges(
                "certificate step", [_step_member(item, "looped")], [_step_member(item, "edge")])
            steps.append(MigrateEdge(edge, looped))
        else:
            raise ValueError(f"unknown rule {rule!r}")
    return ReductionCertificate(tuple(steps))


def point_from_json(obj) -> TruncatedPoint:
    json_document(obj, "point", chain=dict, levels=list)
    chain = chain_from_json(obj["chain"])
    reps = [matrix_from_json(m) for m in obj["levels"]]
    return TruncatedPoint.make(chain, reps)
