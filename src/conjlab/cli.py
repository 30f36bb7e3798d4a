"""Command-line front end.  Every verb reads JSON (file or stdin), writes one
canonical JSON document (or CSV) to stdout, and is deterministic given the
seed.  Exit codes: 0 ok, 1 verification failure, 2 malformed input."""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import __version__
from .chains import (chain_from_json, chain_to_json, check_point, classify_case, embed_group,
                     normalize_signatures, project_dual, trace_invariant)
from .descriptors import (descriptor_canonicalize, descriptor_contains, descriptor_from_json,
                          descriptor_intersect, descriptor_to_json, descriptor_union)
from .fields import field_from_name, integral
from .graphs import ReductionCertificate, incidence_rank_check, reduce_graph, replay
from .jsonio import (certificate_from_json, certificate_to_json, graph_from_json, json_document,
                     matrix_from_json, matrix_to_json, point_from_json)
from .matrix import char_poly, eigen_data, rank
from .orbits import (classify_orbit_closure, degeneration_witness, minor_vanishing_test,
                     raise_sum_rank, topleft_realization, tuple_rank_lift)
from .pencil import (PencilTuple, offdiag_criterion_check, pencil_rank_enumerate, shift_rank,
                     tuple_rank_identity)
from .verify import run_one, run_suite


def _csv(prefix, v):
    """The CSV lines of v: one per leaf of its nested dicts, a list as JSON."""
    if isinstance(v, dict):
        return [line for k in sorted(v)
                for line in _csv(f"{prefix}.{k}" if prefix else str(k), v[k])]
    return [f"{prefix},{json.dumps(v, sort_keys=True) if isinstance(v, list) else v}"]


def _emit(args, obj) -> None:
    if args.out == "csv":
        sys.stdout.write("\n".join(_csv("", obj)) + "\n")
    else:
        sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _load(path):
    """The JSON document at path, or on stdin for ``-``."""
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _document(args, kind, **shape):
    """The field of --field, and the JSON object of --in checked by json_document."""
    field = field_from_name(args.field)
    return field, json_document(_load(args.infile), kind, **shape)


def _matrix(args):
    """The matrix of --in over the field of --field."""
    field = field_from_name(args.field)
    return matrix_from_json(_load(args.infile), field)


def _rank(args):
    _emit(args, {"rank": rank(_matrix(args))})


def _charpoly(args):
    M = _matrix(args)
    _emit(args, {"coeffs": [M.field.format(c) for c in char_poly(M).coeffs]})


def _eig(args):
    M = _matrix(args)
    _emit(args, {"eigenvalues": [
        {"lambda": M.field.format(l), "multiplicity": m} for l, m in eigen_data(M)]})


def _tuplerank(args):
    M = _matrix(args)
    sr = shift_rank(M)
    _emit(args, {"rank": tuple_rank_identity(M),
                 "lambda": None if sr.lam is None else M.field.format(sr.lam)})


def _pencil(args):
    field, obj = _document(args, "pencil", matrices=list)
    mats = [matrix_from_json(m, field) for m in obj["matrices"]]
    r, wit = pencil_rank_enumerate(PencilTuple.make(mats))
    _emit(args, {"rank": r, "witness": [mats[0].field.format(c) for c in wit]})


def _classify_orbit(args):
    M = _matrix(args)
    oc = classify_orbit_closure(M)
    _emit(args, {"kind": oc.kind, "lambda": None if oc.lam is None else M.field.format(oc.lam),
                 "rank": oc.rank, "level": oc.level})


def _topleft(args):
    field, obj = _document(args, "topleft")
    P = matrix_from_json(obj["p"], field)
    Q = matrix_from_json(obj["q"], field)
    _emit(args, {"g": matrix_to_json(topleft_realization(P, Q))})


def _raise_rank(args):
    field, obj = _document(args, "raise-rank", matrices=list)
    gs = raise_sum_rank([matrix_from_json(m, field) for m in obj["matrices"]])
    _emit(args, {"conjugators": [matrix_to_json(g) for g in gs]})


def _lift_tuple_rank(args):
    field, obj = _document(args, "lift-tuple-rank", chain=dict)
    ch = chain_from_json(obj["chain"])
    P = matrix_from_json(obj["matrix"], field)
    level = integral(obj.get("level", 1))
    if level is None:
        raise ValueError("lift-tuple-rank JSON needs 'level' as an integer")
    _emit(args, {"g": matrix_to_json(tuple_rank_lift(ch, level, P))})


def _degenerate(args):
    field, obj = _document(args, "degenerate")
    R, W, Q, V = (matrix_from_json(obj[key], field) for key in "rwqv")
    _emit(args, {"curve": matrix_to_json(degeneration_witness(R, W, Q, V))})


def _offdiag_check(args):
    M = _matrix(args)
    holds, wit = offdiag_criterion_check(M, args.k, args.m, args.mode, trials=args.trials,
                                         rng=random.Random(args.seed))
    out = {"holds": holds, "witness": None}
    if wit is not None:
        g, K, L = wit
        out["witness"] = {"g": matrix_to_json(g), "K": [i + 1 for i in K],
                          "L": [j + 1 for j in L]}
    _emit(args, out)


def _minor_vanishing(args):
    M = _matrix(args)
    _emit(args, {"vanishes": minor_vanishing_test(M, args.k, args.mode, trials=args.trials,
                                                  rng=random.Random(args.seed))})


def _descriptor(args):
    field = field_from_name(args.field)
    if args.op != "canon" and len(args.paths) < 2:
        raise ValueError(f"descriptor {args.op} needs two paths")
    ds = [descriptor_from_json(field, json_document(_load(p), "descriptor"))
          for p in args.paths]
    if args.op == "union":
        _emit(args, descriptor_to_json(descriptor_union(ds[0], ds[1])))
    elif args.op == "intersect":
        _emit(args, descriptor_to_json(descriptor_intersect(ds[0], ds[1])))
    elif args.op == "contains":
        _emit(args, {"contains": descriptor_contains(ds[0], ds[1])})
    else:
        _emit(args, descriptor_to_json(descriptor_canonicalize(ds[0])))


def _chain(args):
    field, obj = _document(args, "chain")
    if args.op == "classify":
        tag = classify_case(chain_from_json(obj), args.char)
        inf = lambda v: "inf" if v is None else v
        _emit(args, {"case": tag.tag, "alpha": inf(tag.alpha),
                     "beta": inf(tag.beta), "gamma": inf(tag.gamma)})
    elif args.op == "normalize":
        _emit(args, chain_to_json(normalize_signatures(chain_from_json(obj))))
    elif args.op in ("project", "embed"):
        ch = chain_from_json(json_document(obj, f"chain {args.op}", chain=dict)["chain"])
        M = matrix_from_json(obj["matrix"], field)
        moved = project_dual if args.op == "project" else embed_group
        _emit(args, matrix_to_json(moved(ch, args.level, M)))
    elif args.op == "check-point":
        _emit(args, {"ok": check_point(point_from_json(obj))})
    else:  # trace
        pt = point_from_json(obj)
        _emit(args, {"trace": pt.reps[0].field.format(trace_invariant(pt))})


def _graph(args):
    obj = _load(args.infile)
    if args.op == "reduce":
        res = reduce_graph(graph_from_json(obj))
        if isinstance(res, ReductionCertificate):
            _emit(args, {"reducible": True, "certificate": certificate_to_json(res)})
        else:
            _emit(args, {"reducible": False, "obstruction": sorted(res.component)})
    elif args.op == "replay":
        g = graph_from_json(json_document(obj, "replay")["graph"])
        _emit(args, {"ok": replay(g, certificate_from_json(obj["certificate"]))})
    else:
        surj, r = incidence_rank_check(graph_from_json(obj), field_from_name(args.field))
        _emit(args, {"surjective": surj, "rank": r})


def _verify(args):
    given = {k: v for k, v in vars(args).items()
             if k in ("field", "n", "m", "trials") and v is not None}
    report = run_one({"lemma": args.lemma, **given}, args.seed)
    _emit(args, report.to_json())
    return 0 if report.ok else 1


def _suite(args):
    config = None  # the default suite
    if args.config is not None:
        config = _load(args.config)
        if not isinstance(config, list):
            raise ValueError("suite config JSON must be an array of entries")
    reports = run_suite(config, args.seed)
    ok = all(r.ok for r in reports)
    _emit(args, {"reports": [r.to_json() for r in reports], "ok": ok})
    return 0 if ok else 1


# The options that several verbs read; a verb names those it reads in _VERBS.
_OPTIONS = {
    "field": ("--field", {"default": "qq", "help": "gf:<p>, qq or qq_t"}),
    "in": ("--in", {"dest": "infile", "default": "-", "help": "input path or - for stdin"}),
    "out": ("--out", {"choices": ("json", "csv"), "default": "json"}),
    "seed": ("--seed", {"type": int, "default": 0}),
    "k": ("--k", {"type": int, "required": True}),
    "mode": ("--mode", {"choices": ("exhaustive", "sampled"), "default": "exhaustive"}),
}

# The options that only --mode sampled reads; their defaults are in _OP_OPTIONS.
_SAMPLED = (("--seed", {"type": int}), ("--trials", {"type": int}))

# verb -> (handler, the shared options it reads, its own arguments as (name, kwargs))
_VERBS = {
    "rank": (_rank, "field in out"),
    "charpoly": (_charpoly, "field in out"),
    "eig": (_eig, "field in out"),
    "tuplerank": (_tuplerank, "field in out"),
    "pencil": (_pencil, "field in out"),
    "classify-orbit": (_classify_orbit, "field in out"),
    "topleft": (_topleft, "field in out"),
    "raise-rank": (_raise_rank, "field in out"),
    "lift-tuple-rank": (_lift_tuple_rank, "field in out"),
    "degenerate": (_degenerate, "field in out"),
    "offdiag-check": (_offdiag_check, "field in out k mode",
                      ("--m", {"type": int, "required": True}), *_SAMPLED),
    "minor-vanishing": (_minor_vanishing, "field in out k mode", *_SAMPLED),
    "descriptor": (_descriptor, "field out",
                   ("op", {"choices": ("union", "intersect", "contains", "canon")}),
                   ("paths", {"nargs": "+"})),
    "chain": (_chain, "in out",
              ("op", {"choices": ("classify", "normalize", "project", "embed",
                                  "check-point", "trace")}),
              ("--char", {"type": int}), ("--level", {"type": int}),
              ("--field", {"help": "gf:<p>, qq or qq_t"})),
    "graph": (_graph, "in out", ("op", {"choices": ("reduce", "replay", "incidence")}),
              ("--field", {"help": "gf:<p>, qq or qq_t"})),
    "verify": (_verify, "seed out", ("lemma", {}), ("--field", {"help": "default: the lemma's"}),
               ("--n", {"type": int}), ("--m", {"type": int}), ("--trials", {"type": int})),
    "suite": (_suite, "seed out", ("--config", {"default": None})),
}

# The options that only some ops (or modes) of a verb read: (verb, option) ->
# (the argument that picks the op, those ops, its default).  Any other op
# given one is a usage error.
_OP_OPTIONS = {("chain", "char"): ("op", "classify", 0),
               ("chain", "level"): ("op", "project embed", 1),
               ("chain", "field"): ("op", "project embed", "qq"),
               ("graph", "field"): ("op", "incidence", "qq"),
               ("offdiag-check", "seed"): ("mode", "sampled", 0),
               ("offdiag-check", "trials"): ("mode", "sampled", 200),
               ("minor-vanishing", "seed"): ("mode", "sampled", 0),
               ("minor-vanishing", "trials"): ("mode", "sampled", 200)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="conjlab")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="verb", required=True)
    for verb, (handler, options, *own) in _VERBS.items():
        p = sub.add_parser(verb)
        for name, kwargs in [_OPTIONS[o] for o in options.split()] + own:
            p.add_argument(name, **kwargs)
        p.set_defaults(handler=handler)
    args = ap.parse_args(argv)
    for (verb, dest), (pick, ops, default) in _OP_OPTIONS.items():
        if verb == args.verb and getattr(args, dest) is None:
            setattr(args, dest, default)
        elif verb == args.verb and getattr(args, pick) not in ops.split():
            sub.choices[verb].error(f"{getattr(args, pick)} reads no --{dest}")
    try:
        return args.handler(args) or 0
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
