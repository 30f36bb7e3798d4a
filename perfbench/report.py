"""Run every workload once and print all end-to-end metrics with units and
sample counts, including the failed share.

    python3 perfbench/report.py [--workload W]

Each run uses seed 0 and lasts run_seconds.  Result sets for a comparison come
from ``compare.py measure``, not from here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import RUN_SECONDS  # noqa: E402
from workloads import WHY  # noqa: E402

_METRIC_LINE = re.compile(r"^(\S+) (\S+) (\S+) \(samples (\d+)\)$")


def environment(root: str) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": commit}


def run_once(root: str, workload: str, seed: int) -> dict:
    """One untraced run.py invocation in checkout `root`, parsed.  ``digest``
    is the output digest run.py printed (one per run when the run is correct)."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {root} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    printed = {}  # every metric run.py printed, the gated ones and the reported ones
    for line in lines[:-1]:
        m = _METRIC_LINE.match(line)
        if m:
            printed[m.group(1)] = {"value": float(m.group(2)), "unit": m.group(3),
                                   "samples": int(m.group(4))}
    notes = [l for l in lines[:-1] if not _METRIC_LINE.match(l)]
    digest = " ".join(l[len("digest "):] for l in notes if l.startswith("digest "))
    return {"workload": workload, "seed": seed, "result": json.loads(lines[-1]),
            "printed": printed, "digest": digest, "notes": notes}


def print_run(run: dict) -> None:
    res = run["result"]
    print(f"{run['workload']} (seed {run['seed']}): correct {res['correct']}, "
          f"failed {res['failed']} of {res['attempted']} tasks, digest {run['digest']}")
    for name, m in run["printed"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6} samples {m['samples']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=list(WHY),
                    help="repeatable; default every workload")
    args = ap.parse_args(argv)
    for w in args.workload or list(WHY):
        print_run(run_once(ROOT, w, 0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
