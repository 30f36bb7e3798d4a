"""One workload pass in a fresh interpreter, so that lru_cache state and
peak RSS belong to that pass alone.

    python3 perfbench/worker.py WORKLOAD SEED MODE WORKDIR

MODE is ``setup`` (set up, then exit), ``pass`` (time one pass), ``inprocess``
(a cli pass that calls ``conjlab.cli.main`` in this process) or ``trace`` (a
traced pass, then restore and an untraced pass whose digest must match).
The worker prints READY once conjlab is imported and the inputs exist, then
one JSON line with the results.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

import workloads  # noqa: E402
from speed import Probes, probe  # noqa: E402


def run_pass(tasks, tracer=None):
    """Time every task, with speed probes between tasks; outputs are checked later."""
    clock = time.perf_counter
    probes = Probes()
    probes.take()
    outcomes, lat, bracket = [], [], []
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task_id = i
        bracket.append(len(probes.samples) - 1)
        t = clock()
        try:
            outcomes.append((True, task.call()))
        except Exception as exc:  # a task that raises is a failed operation
            outcomes.append((False, exc))
        lat.append((clock() - t) * 1000.0)
        probes.take_if_due()
    probes.take()
    scale = [probes.factor(b) for b in bracket]
    timing = {"wall_s": sum(lat) / 1000.0,
              "ref_wall_s": sum(ms * f for ms, f in zip(lat, scale)) / 1000.0,
              "latencies_ms": lat, "scale": scale, "probe_s": probes.samples[0][1]}
    return timing, outcomes


def judge(workload, tasks, outcomes):
    failed = wrong = 0
    errors, records = [], []
    for task, (ok, val) in zip(tasks, outcomes):
        if not ok:
            failed += 1
            errors.append(f"{task.label}: raised {type(val).__name__}: {val}")
            records.append({"raised": type(val).__name__})
            continue
        verdict = task.check(val)
        if verdict is not None:
            kind, why = verdict
            failed += 1
            wrong += kind == "wrong"
            errors.append(f"{task.label}: {kind}: {why}")
        records.append(task.canon(val))
    if workload == "suite":
        records = workloads.suite_digest_order(records)
    blob = json.dumps(records, sort_keys=True, separators=(",", ":")).encode()
    return {"attempted": len(tasks), "failed": failed, "wrong": wrong,
            "errors": errors[:8], "digest": hashlib.sha256(blob).hexdigest()}


def main(argv):
    workload, seed, mode, workdir = argv[0], int(argv[1]), argv[2], argv[3]
    import conjlab
    if os.path.dirname(os.path.dirname(os.path.abspath(conjlab.__file__))) != SRC:
        sys.stderr.write(f"conjlab was imported from {conjlab.__file__}, not from {SRC}\n")
        return 3
    ctx = {"workdir": workdir, "inprocess": mode in ("inprocess", "trace"),
           "env": dict(os.environ, PYTHONPATH=SRC)}
    if workload == "cli" and ctx["inprocess"]:
        import conjlab.cli
        ctx["cli_module"] = conjlab.cli
    tasks = workloads.TASK_LISTS[workload](seed, ctx)
    print("READY", flush=True)
    if mode == "setup":
        print(json.dumps({"probe_s": probe()}), flush=True)
        return 0
    result = {"extras": ctx.get("extras", {})}
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        timing, outcomes = run_pass(tasks, tracer)
        restored = tracer.restore()
        traced = judge(workload, tasks, outcomes)
        agg = tracer.aggregate(timing["scale"])
        agg["counts"] = tracer.counts()
        tracer.write_spans(os.path.join(workdir, f"spans-{workload}-{seed}.tsv"))
        del tracer
        _, outcomes = run_pass(tasks)
        after = judge(workload, tasks, outcomes)
        result.update(after, traced_wall_s=timing["wall_s"], traced_ref_wall_s=timing["ref_wall_s"],
                      probe_s=timing["probe_s"],
                      traced=traced, restored=restored,
                      layers=agg, attempted=traced["attempted"] + after["attempted"],
                      failed=traced["failed"] + after["failed"],
                      wrong=traced["wrong"] + after["wrong"])
    else:
        timing, outcomes = run_pass(tasks)
        timing.pop("scale")
        result.update(judge(workload, tasks, outcomes), **timing, labels=[t.label for t in tasks])
    who = resource.RUSAGE_CHILDREN if workload == "cli" and mode == "pass" else resource.RUSAGE_SELF
    result["rss_kb"] = resource.getrusage(who).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
