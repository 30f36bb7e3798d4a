"""Command-line front end.  Every verb reads JSON (file or stdin), writes one
canonical JSON document (or CSV) to stdout, and is deterministic given the
seed.  Exit codes: 0 ok, 1 verification failure, 2 malformed input."""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import __version__
from .chains import (
    chain_from_json,
    chain_to_json,
    check_point,
    classify_case,
    embed_group,
    normalize_signatures,
    project_dual,
    trace_invariant,
)
from .descriptors import (
    descriptor_canonicalize,
    descriptor_contains,
    descriptor_from_json,
    descriptor_intersect,
    descriptor_to_json,
    descriptor_union,
)
from .fields import field_from_name, integral
from .graphs import ReductionCertificate, incidence_rank_check, reduce_graph, replay
from .jsonio import (
    certificate_from_json,
    certificate_to_json,
    graph_from_json,
    json_document,
    matrix_from_json,
    matrix_to_json,
    point_from_json,
)
from .matrix import char_poly, eigen_data, rank
from .orbits import (
    classify_orbit_closure,
    degeneration_witness,
    minor_vanishing_test,
    raise_sum_rank,
    topleft_realization,
    tuple_rank_lift,
)
from .pencil import (
    PencilTuple,
    offdiag_criterion_check,
    pencil_rank_enumerate,
    shift_rank,
    tuple_rank_identity,
)
from .verify import default_suite_config, run_one, run_suite


def _emit(args, obj) -> None:
    if args.out == "csv":
        lines = []

        def flat(prefix, v):
            if isinstance(v, dict):
                for k in sorted(v):
                    flat(f"{prefix}.{k}" if prefix else str(k), v[k])
            elif isinstance(v, list):
                lines.append(f"{prefix},{json.dumps(v, sort_keys=True)}")
            else:
                lines.append(f"{prefix},{v}")

        flat("", obj)
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _load(path):
    """The JSON document at path, or on stdin for ``-``."""
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", default="qq", help="gf:<p>, qq or qq_t")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--trials", type=int, default=200)
    common.add_argument("--out", choices=("json", "csv"), default="json")
    common.add_argument("--in", dest="infile", default="-", help="input path or - for stdin")

    ap = argparse.ArgumentParser(prog="conjlab")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="verb", required=True)

    for simple in ("rank", "charpoly", "eig", "tuplerank", "pencil", "classify-orbit",
                   "topleft", "raise-rank", "lift-tuple-rank", "degenerate"):
        sub.add_parser(simple, parents=[common])
    p = sub.add_parser("offdiag-check", parents=[common])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p = sub.add_parser("minor-vanishing", parents=[common])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p = sub.add_parser("descriptor", parents=[common])
    p.add_argument("op", choices=("union", "intersect", "contains", "canon"))
    p.add_argument("paths", nargs="+")
    p = sub.add_parser("chain", parents=[common])
    p.add_argument("op", choices=("classify", "normalize", "project", "embed",
                                  "check-point", "trace"))
    p.add_argument("--char", type=int, default=0)
    p.add_argument("--level", type=int, default=1)
    p = sub.add_parser("graph", parents=[common])
    p.add_argument("op", choices=("reduce", "replay", "incidence"))
    p = sub.add_parser("verify", parents=[common])
    p.add_argument("lemma")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=1)
    p = sub.add_parser("suite", parents=[common])
    p.add_argument("--config", default=None)

    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def _dispatch(args) -> int:
    field = field_from_name(args.field)
    verb = args.verb
    if verb == "rank":
        M = matrix_from_json(_load(args.infile), field)
        _emit(args, {"rank": rank(M)})
    elif verb == "charpoly":
        M = matrix_from_json(_load(args.infile), field)
        cp = char_poly(M)
        _emit(args, {"coeffs": [M.field.format(c) for c in cp.coeffs]})
    elif verb == "eig":
        M = matrix_from_json(_load(args.infile), field)
        _emit(args, {"eigenvalues": [
            {"lambda": M.field.format(l), "multiplicity": m} for l, m in eigen_data(M)]})
    elif verb == "tuplerank":
        M = matrix_from_json(_load(args.infile), field)
        sr = shift_rank(M)
        _emit(args, {"rank": tuple_rank_identity(M),
                     "lambda": None if sr.lam is None else M.field.format(sr.lam)})
    elif verb == "pencil":
        obj = json_document(_load(args.infile), "pencil", matrices=list)
        mats = [matrix_from_json(m, field) for m in obj["matrices"]]
        r, wit = pencil_rank_enumerate(PencilTuple.make(mats))
        _emit(args, {"rank": r, "witness": [mats[0].field.format(c) for c in wit]})
    elif verb == "offdiag-check":
        M = matrix_from_json(_load(args.infile), field)
        rng = random.Random(args.seed)
        holds, wit = offdiag_criterion_check(M, args.k, args.m, args.mode,
                                             trials=args.trials, rng=rng)
        out = {"holds": holds, "witness": None}
        if wit is not None:
            g, K, L = wit
            out["witness"] = {"g": matrix_to_json(g), "K": [i + 1 for i in K],
                              "L": [j + 1 for j in L]}
        _emit(args, out)
    elif verb == "classify-orbit":
        M = matrix_from_json(_load(args.infile), field)
        oc = classify_orbit_closure(M)
        _emit(args, {"kind": oc.kind,
                     "lambda": None if oc.lam is None else M.field.format(oc.lam),
                     "rank": oc.rank, "level": oc.level})
    elif verb == "minor-vanishing":
        M = matrix_from_json(_load(args.infile), field)
        rng = random.Random(args.seed)
        _emit(args, {"vanishes": minor_vanishing_test(M, args.k, args.mode,
                                                      trials=args.trials, rng=rng)})
    elif verb == "descriptor":
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
    elif verb == "chain":
        obj = json_document(_load(args.infile), "chain")
        if args.op == "classify":
            ch = chain_from_json(obj)
            tag = classify_case(ch, args.char)
            inf = lambda v: "inf" if v is None else v
            _emit(args, {"case": tag.tag, "alpha": inf(tag.alpha),
                         "beta": inf(tag.beta), "gamma": inf(tag.gamma)})
        elif args.op == "normalize":
            _emit(args, chain_to_json(normalize_signatures(chain_from_json(obj))))
        elif args.op == "project":
            ch = chain_from_json(json_document(obj, "chain project", chain=dict)["chain"])
            M = matrix_from_json(obj["matrix"], field)
            _emit(args, matrix_to_json(project_dual(ch, args.level, M)))
        elif args.op == "embed":
            ch = chain_from_json(json_document(obj, "chain embed", chain=dict)["chain"])
            g = matrix_from_json(obj["matrix"], field)
            _emit(args, matrix_to_json(embed_group(ch, args.level, g)))
        elif args.op == "check-point":
            _emit(args, {"ok": check_point(point_from_json(obj))})
        else:  # trace
            pt = point_from_json(obj)
            _emit(args, {"trace": pt.reps[0].field.format(trace_invariant(pt))})
    elif verb == "topleft":
        obj = json_document(_load(args.infile), "topleft")
        P = matrix_from_json(obj["p"], field)
        Q = matrix_from_json(obj["q"], field)
        _emit(args, {"g": matrix_to_json(topleft_realization(P, Q))})
    elif verb == "raise-rank":
        obj = json_document(_load(args.infile), "raise-rank", matrices=list)
        mats = [matrix_from_json(m, field) for m in obj["matrices"]]
        gs = raise_sum_rank(mats)
        _emit(args, {"conjugators": [matrix_to_json(g) for g in gs]})
    elif verb == "lift-tuple-rank":
        obj = json_document(_load(args.infile), "lift-tuple-rank", chain=dict)
        ch = chain_from_json(obj["chain"])
        P = matrix_from_json(obj["matrix"], field)
        level = integral(obj.get("level", 1))
        if level is None:
            raise ValueError("lift-tuple-rank JSON needs 'level' as an integer")
        g = tuple_rank_lift(ch, level, P)
        _emit(args, {"g": matrix_to_json(g)})
    elif verb == "degenerate":
        obj = json_document(_load(args.infile), "degenerate")
        R = matrix_from_json(obj["r"], field)
        W = matrix_from_json(obj["w"], field)
        Q = matrix_from_json(obj["q"], field)
        V = matrix_from_json(obj["v"], field)
        _emit(args, {"curve": matrix_to_json(degeneration_witness(R, W, Q, V))})
    elif verb == "graph":
        obj = _load(args.infile)
        if args.op == "reduce":
            g = graph_from_json(obj)
            res = reduce_graph(g)
            if isinstance(res, ReductionCertificate):
                _emit(args, {"reducible": True, "certificate": certificate_to_json(res)})
            else:
                _emit(args, {"reducible": False,
                             "obstruction": sorted(res.component)})
        elif args.op == "replay":
            g = graph_from_json(json_document(obj, "replay")["graph"])
            cert = certificate_from_json(obj["certificate"])
            _emit(args, {"ok": replay(g, cert)})
        else:
            g = graph_from_json(obj)
            surj, r = incidence_rank_check(g, field)
            _emit(args, {"surjective": surj, "rank": r})
    elif verb == "verify":
        default = "gf:3" if args.lemma == "commutator" else "gf:7"  # for the default qq
        entry = {"lemma": args.lemma, "n": args.n, "m": args.m,
                 "field": args.field if args.field != "qq" else default,
                 "trials": args.trials}
        if args.lemma.startswith("equivariance"):
            name = "equivariance-A" if args.lemma == "equivariance" else args.lemma
            chains = [e["chain"] for e in default_suite_config() if e["lemma"] == name]
            if not chains:
                raise ValueError(f"unknown lemma id {args.lemma!r}")
            entry["chain"] = chains[0]
        report = run_one(entry, args.seed)
        _emit(args, report.to_json())
        return 0 if report.ok else 1
    elif verb == "suite":
        config = None  # the default suite
        if args.config is not None:
            config = _load(args.config)
            if not isinstance(config, list):
                raise ValueError("suite config JSON must be an array of entries")
        reports = run_suite(config, args.seed)
        _emit(args, {"reports": [r.to_json() for r in reports],
                     "ok": all(r.ok for r in reports)})
        return 0 if all(r.ok for r in reports) else 1
    else:
        raise ValueError(f"unknown verb {verb!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
