"""Compare a parent commit with a change, by the rule of the choosing-metrics
guide, section 8.

    python3 perfbench/compare.py measure BASE_DIR CHANGE_DIR --out PREFIX
    python3 perfbench/compare.py judge BASE.json CHANGE.json

``measure`` runs the benchmark in two checkouts as ten alternating pairs per
workload, seeds 0 to 9 (the side that goes first alternates; both sides of a
pair use the same seed; each run lasts BENCHMARK.json's run_seconds) and writes
PREFIX-base.json and PREFIX-change.json.  ``judge`` reads two result sets and
reports each workload x metric as better, unchanged, not worse, worse or
unresolved:

- better: at least ten pairs, the change wins at least nine tenths of them
  (ties count for neither side), and the medians differ by more than the
  parent's interquartile spread;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
- not worse: otherwise, when either side's spread is wider than the bound
  but every run of the change beats every run of the parent (no gain claim);
- unresolved: otherwise, when either side's spread is wider than the bound;
- unchanged: otherwise.

A gain does not count (it reads unresolved) when more operations fail, any
output is wrong, or the output digest of any seed differs between the two
sides: a change that alters a verdict, a witness or a JSON output is flagged
"output changed".
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from report import environment, run_once  # noqa: E402
from workloads import WHY  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def measure(base_dir, change_dir, workloads):
    sets = {"base": [], "change": []}
    dirs = {"base": base_dir, "change": change_dir}
    for w in workloads:
        for seed in range(MIN_PAIRS):
            order = ("base", "change") if seed % 2 == 0 else ("change", "base")
            for side in order:
                run = run_once(dirs[side], w, seed)
                sets[side].append(run)
                print(f"{w} seed {seed} {side}: " + ", ".join(
                    f"{k} {m['value']:.4g}" for k, m in run["result"]["metrics"].items()),
                    flush=True)
    return {side: {"env": environment(dirs[side]), "runs": sets[side]} for side in sets}


def _iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    return q[2] - q[0]


def judge_metric(pairs, better, bound):
    """Verdict for one workload x metric from (parent, change) values paired by seed."""
    b = [x for x, _ in pairs]
    c = [y for _, y in pairs]
    sign = 1 if better == "lower" else -1
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    mb, mc = statistics.median(b), statistics.median(c)
    iqr_b, iqr_c = _iqr(b), _iqr(c)
    change_frac = sign * (mc - mb) / mb if mb else 0.0  # > 0: the change is worse
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and sign * (mb - mc) > iqr_b:
        verdict = "better"
    elif change_frac > bound:
        verdict = "worse"
    elif (iqr_b / mb if mb else 0) > bound or (iqr_c / mc if mc else 0) > bound:
        all_better = all(sign * (x - y) > 0 for x in b for y in c)
        verdict = "not worse" if all_better else "unresolved"
    else:
        verdict = "unchanged"
    return {"verdict": verdict, "base_median": mb, "change_median": mc,
            "base_iqr": iqr_b, "change_iqr": iqr_c, "wins": wins, "pairs": len(pairs),
            "change_frac": change_frac}


def judge(base_set, change_set, bench):
    bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    index = lambda s: {(r["workload"], r["seed"]): r for r in s["runs"]}
    bi, ci = index(base_set), index(change_set)
    rows = []
    for w in WHY:
        keys = sorted(k for k in bi if k[0] == w and k in ci)
        if not keys:
            continue
        share = lambda r: r["result"]["failed"] / r["result"]["attempted"]
        failed_more = any(share(ci[k]) > share(bi[k]) for k in keys)
        wrong = any(not ci[k]["result"]["correct"] for k in keys)
        changed = any(ci[k]["digest"] != bi[k]["digest"] for k in keys)
        for name, (better, bound) in bounds.items():
            pairs = [(bi[k]["result"]["metrics"][name]["value"],
                      ci[k]["result"]["metrics"][name]["value"]) for k in keys]
            res = judge_metric(pairs, better, bound)
            if res["verdict"] == "better" and (failed_more or wrong or changed):
                res["verdict"] = "unresolved"
            rows.append({"workload": w, "metric": name, **res, "failed_more": failed_more,
                         "wrong_output": wrong, "output_changed": changed})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    m = sub.add_parser("measure")
    m.add_argument("base_dir")
    m.add_argument("change_dir")
    m.add_argument("--out", required=True, help="prefix of the two result-set files")
    m.add_argument("--workload", action="append", choices=list(WHY))
    j = sub.add_parser("judge")
    j.add_argument("base")
    j.add_argument("change")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.cmd == "measure":
        sets = measure(os.path.abspath(args.base_dir), os.path.abspath(args.change_dir),
                       args.workload or list(WHY))
        for side, data in sets.items():
            with open(f"{args.out}-{side}.json", "w") as fh:
                json.dump(data, fh, indent=1)
        base_set, change_set = sets["base"], sets["change"]
    else:
        with open(args.base) as fh:
            base_set = json.load(fh)
        with open(args.change) as fh:
            change_set = json.load(fh)
    print(f"base {base_set['env']}\nchange {change_set['env']}")
    for r in judge(base_set, change_set, bench):
        flags = " (more failed)" if r["failed_more"] else ""
        flags += " (wrong output)" if r["wrong_output"] else ""
        flags += " (output changed)" if r["output_changed"] else ""
        print(f"{r['workload']:<11} {r['metric']:<12} {r['verdict']:<10} "
              f"base {r['base_median']:.4g} (IQR {r['base_iqr']:.3g}) "
              f"change {r['change_median']:.4g} (IQR {r['change_iqr']:.3g}) "
              f"wins {r['wins']}/{r['pairs']} {100 * r['change_frac']:+.1f}% worse{flags}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
