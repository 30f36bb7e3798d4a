"""conjlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; conjlab is imported from its ``src``.  The
load is a closed loop with one client: each task starts after the previous
one returned.  Every pass runs in a fresh interpreter (worker.py); passes
repeat until --seconds have gone by, and at least twice.

--trace 0 reports the end-to-end metrics, measured untraced; wall_s and
setup_s are at the reference speed of a machine-speed probe (speed.py), and
the raw times are printed beside them.  --trace 1 runs one untraced and one
traced pass and reports the per-layer metrics.  Either way the last line of
stdout is one JSON object: correct, attempted, failed, metrics.  Lines before
it give every metric with its sample count, the output digest and each
failure.  A failed task raised, crashed or gave an output the benchmark's own
check rejects; only the last kind makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER, REPORTED, layer_values  # noqa: E402
from speed import REF_PROBE_S, probe  # noqa: E402
from workloads import WHY  # noqa: E402

MIN_PASSES = 2
SETUP_SAMPLES = 7
RUN_BUDGET_S = 170.0  # every run ends well inside 180 s
COLD_START_SAMPLES = 5


class BenchError(RuntimeError):
    pass


def spawn(workload, seed, mode, workdir, deadline):
    """Run worker.py; returns (set-up seconds raw, at reference speed, result dict)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode, workdir]
    before = probe()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} {mode} worker ran past the time budget")
    if proc.returncode != 0 or first.strip() != "READY":
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    res = json.loads(out.strip().splitlines()[-1])
    return setup_s, setup_s * 2 * REF_PROBE_S / (before + res["probe_s"]), res


def spawn_timed(code, env):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=ROOT,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
    return (time.perf_counter() - t0) * 1000.0


def measure(workload, seed, seconds, workdir, deadline):
    start = time.monotonic()
    setups, passes = [], []
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        if passes and time.monotonic() + max(p["wall_s"] for p in passes) * 1.5 > deadline:
            break
        *setup, res = spawn(workload, seed, "pass", workdir, deadline)
        setups.append(setup)
        passes.append(res)
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup", workdir, deadline)[:2])
    lat = [ms for p in passes for ms in p["latencies_ms"]]
    q = statistics.quantiles(lat, n=10, method="inclusive")
    attempted = sum(p["attempted"] for p in passes)
    metrics = {
        "wall_s": (statistics.median(p["ref_wall_s"] for p in passes), len(passes)),
        "setup_s": (statistics.median(ref for _, ref in setups), len(setups)),
        "peak_rss_mb": (statistics.median(p["rss_kb"] for p in passes) / 1024.0, len(passes)),
        "wall_raw_s": (statistics.median(p["wall_s"] for p in passes), len(passes)),
        "setup_raw_s": (statistics.median(raw for raw, _ in setups), len(setups)),
        "probe_ms": (statistics.median(p["probe_s"] for p in passes) * 1000.0, len(passes)),
        "task_p50_ms": (statistics.median(lat), len(lat)),
        "task_p90_ms": (q[8], len(lat)),
        "fail_frac": (sum(p["failed"] for p in passes) / attempted, attempted),
    }
    digests = {p["digest"] for p in passes}
    correct = all(p["wrong"] == 0 for p in passes) and len(digests) == 1
    notes = [f"passes {len(passes)}, tasks {len(lat)}, set-ups {len(setups)}",
             f"digest {' '.join(sorted(digests))}"]
    return correct, passes, metrics, notes


def traced(workload, seed, workdir, deadline):
    untraced_mode = "inprocess" if workload == "cli" else "pass"
    *_, base = spawn(workload, seed, untraced_mode, workdir, deadline)
    *_, tr = spawn(workload, seed, "trace", workdir, deadline)
    cli_ms = {}
    if workload == "cli":
        env = dict(os.environ, PYTHONPATH=SRC)
        bare = statistics.median(spawn_timed("pass", env) for _ in range(COLD_START_SAMPLES))
        imp = statistics.median(spawn_timed("import conjlab.cli", env)
                                for _ in range(COLD_START_SAMPLES))
        cli_ms = {"cli.interp_ms": bare, "cli.import_ms": imp - bare,
                  "cli.verb_warm_ms": statistics.median(base["latencies_ms"])}
    values = layer_values(base, tr, cli_ms)
    digests = {base["digest"], tr["traced"]["digest"], tr["digest"]}
    correct = base["wrong"] == 0 and tr["wrong"] == 0 and tr["restored"] and len(digests) == 1
    metrics = {name: (values[name], 1) for name, _, _ in PER_LAYER}
    notes = [f"spans {tr['layers']['spans']}, traced wall {tr['traced_wall_s']:.3f} s raw, "
             f"{tr['traced_ref_wall_s']:.3f} s at reference speed; untraced wall "
             f"{base['wall_s']:.3f} s raw, {base['ref_wall_s']:.3f} s at reference speed",
             f"patches restored: {tr['restored']}",
             f"digest untraced {base['digest']}",
             f"digest traced {tr['traced']['digest']}",
             f"digest after restore {tr['digest']}"]
    return correct, [base, tr], metrics, notes


def check_benchmark_json():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        doc = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in doc["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    if e2e != [(n, u) for n, u, _, _ in END_TO_END] or layers != [(n, u) for n, u, _ in PER_LAYER]:
        raise BenchError("BENCHMARK.json and perfbench/metrics.py list different metrics")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not os.path.isfile(os.path.join(SRC, "conjlab", "__init__.py")):
        sys.stderr.write(f"no conjlab sources under {SRC}: run from a checkout\n")
        return 2
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        check_benchmark_json()
        if args.trace:
            correct, passes, metrics, notes = traced(args.workload, args.seed, workdir, deadline)
        else:
            correct, passes, metrics, notes = measure(args.workload, args.seed, args.seconds,
                                                      workdir, deadline)
        for name in os.listdir(workdir):
            if name.startswith("spans-"):
                os.replace(os.path.join(workdir, name), os.path.join(base, name))
    except (BenchError, OSError, ValueError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    units = {n: u for n, u, *_ in END_TO_END + REPORTED + PER_LAYER}
    gated = {n for n, *_ in END_TO_END + PER_LAYER}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: " + notes[0])
    for line in notes[1:]:
        print(line)
    extras = passes[0].get("extras", {})
    if extras:
        print("inputs " + ", ".join(f"{k} {v:.4g}" for k, v in sorted(extras.items())))
    for err in sorted({e for p in passes for e in p["errors"] + p.get("traced", {}).get("errors", [])}):
        print(f"  failed: {err}")
    for name, (value, n) in metrics.items():
        print(f"{name} {value:.6g} {units[name]} (samples {n})")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, (value, _) in metrics.items() if name in gated}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
