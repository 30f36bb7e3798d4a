"""Every metric the benchmark reports: names, units, and how the per-layer
values come out of a traced pass.  BENCHMARK.json lists the same metrics;
run.py refuses to run when the two disagree.  After changing a metric,
regenerate it:  python3 perfbench/metrics.py > BENCHMARK.json
"""

from __future__ import annotations

import json
import statistics

from tracer import MATRIX_OPS
from workloads import kernel_points

RUN_SECONDS = 20  # how long one run measures

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    # a pass's timed phase, first task to last verdict, summed task latencies
    # at the probe's reference speed (speed.py); median over passes.  Lazy
    # caches every process pays for (the _gl_with_inverses fill) are inside it.
    ("wall_s", "s", "lower", 0.25),
    # interpreter start, import of conjlab and input generation, up to the
    # first timed task, at reference speed; median of at least 7 set-ups
    ("setup_s", "s", "lower", 0.25),
    # ru_maxrss of the pass process (for cli, of its largest child); median over passes
    ("peak_rss_mb", "MB", "lower", 0.05),
)
# Printed with them but not in BENCHMARK.json: the raw times and the probe
# itself (its median time at the start of a pass shows the machine's phase);
# the task percentiles over every task of the run, which over seeds jump
# between tasks of different sizes (the suite's 27 unequal entries, the
# conjugates inputs' early exits) and, for cli, include each process's cold
# start; and fail_frac, failed / attempted tasks, which reads 0 on three
# workloads.
REPORTED = (("wall_raw_s", "s"), ("setup_raw_s", "s"), ("probe_ms", "ms"),
            ("task_p50_ms", "ms"), ("task_p90_ms", "ms"), ("fail_frac", "frac"))

FAMILIES = ("char2a", "char2b", "commutator", "conj", "equivariance", "rankbound")
ORBIT_FNS = ("minor_vanishing_test", "topleft_realization", "raise_sum_rank",
             "degeneration_witness")
FIELD_KEYS = ("gf2", "gfp", "qq", "qqt")
SCALAR_FIELDS = ("gf", "qq", "qqt")
MODULES = ("chains", "coordpoly", "graphs")


def kernel_metric_points():
    """Sweep points with a per-layer metric: every large size, and the small
    sizes of the finite fields, where a per-call set-up cost would show.
    The small QQ and QQ(t) points are timed but get no metric (128 at most)."""
    return [(op, fk, n) for op, fk, n, large in kernel_points() if large or fk in ("gf2", "gf7")]


def _unit(name: str) -> str:
    if name.endswith((".calls", ".yielded")):
        return "count"
    if name.endswith(".ms") or name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "frac"
    return "s"


def per_layer_names() -> list[str]:
    names = []
    for fam in FAMILIES:
        names += [f"verify.{fam}.s", f"verify.{fam}.self_s"]
    names += [f"pencil.offdiag_criterion_check.{k}" for k in ("calls", "s", "self_s")]
    names += ["pencil.offdiag_first_call_s", "pencil.enumerate_gl_rows.yielded",
              "pencil.projective_points.yielded", "pencil.pencil_rank_enumerate.s"]
    for fn in ORBIT_FNS:
        names += [f"orbits.{fn}.s", f"orbits.{fn}.self_s"]
    for op in MATRIX_OPS:
        for fk in FIELD_KEYS:
            names += [f"matrix.{op}.{fk}.calls", f"matrix.{op}.{fk}.self_s"]
    names += [f"kernel.{op}.{fk}.n{n}.ms" for op, fk, n in kernel_metric_points()]
    for fk in SCALAR_FIELDS:
        names += [f"fields.{fk}.{op}.calls" for op in ("add", "mul", "inv")]
    names += ["fields.qqt.make.calls"]
    names += [f"{m}.self_s" for m in MODULES]
    names += ["cli.interp_ms", "cli.import_ms", "cli.verb_warm_ms", "jsonio.s",
              "trace.overhead_frac"]
    return names


PER_LAYER = tuple((name, _unit(name), "lower") for name in per_layer_names())


def layer_values(untraced: dict, traced: dict, cli_ms: dict) -> dict[str, float]:
    """Per-layer metrics from an untraced pass, a traced pass and, for the cli
    workload, the cold-start decomposition.  Absent layers read 0."""
    spans = traced["layers"]["names"]
    groups = traced["layers"]["groups"]
    counts = traced["layers"]["counts"]
    out = {}
    for name, _, _ in PER_LAYER:
        head, _, last = name.rpartition(".")
        if name.startswith(("verify.", "orbits.", "matrix.")) or \
                name.startswith("pencil.") and last in ("calls", "s", "self_s"):
            rec = spans.get(head, {})
            out[name] = rec.get(last, 0)
        elif name == "pencil.offdiag_first_call_s":
            out[name] = spans.get("pencil.offdiag_criterion_check", {}).get("first_s", 0.0)
        elif last == "yielded" or name.startswith("fields."):
            out[name] = counts.get(name, 0)
        elif name.startswith(MODULES):
            out[name] = groups.get(head, {}).get("self_s", 0.0)
        elif name == "jsonio.s":
            out[name] = groups.get("jsonio", {}).get("s", 0.0)
        elif name.startswith("kernel."):
            label = name[len("kernel."):-len(".ms")]
            lat = [ms for lab, ms in zip(untraced["labels"], untraced["latencies_ms"]) if lab == label]
            out[name] = statistics.median(lat) if lat else 0.0
        elif name.startswith("cli."):
            out[name] = cli_ms.get(name, 0.0)
        elif name == "trace.overhead_frac":
            out[name] = traced["traced_ref_wall_s"] / untraced["ref_wall_s"] - 1.0
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
    return out


def benchmark_json() -> dict:
    """The BENCHMARK.json document these definitions imply."""
    from workloads import WHY
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in WHY],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
