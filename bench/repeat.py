"""Run a workload once per seed and summarize the spread of each metric.

Usage (from the repository root)::

    python3 bench/repeat.py --workload ps-stream --seeds 1-10 [--out FILE]

Runs ``bench/run.py --trace 0`` sequentially with ``BENCHMARK.json``'s
command and ``run_seconds``, one run per seed; per-layer numbers come from
``run.py --trace 1``.  For every metric it reports the median and quartiles
(``statistics.quantiles(values, n=4)``) over the runs and the spread, the
interquartile distance as a share of the median.  End-to-end
metrics whose spread exceeds their bound are flagged, and so are those
above a third of it, the margin a steady metric should keep.  The summary,
with git sha, Python version, nproc, seeds and run count, is printed and,
with ``--out``, written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import ROOT, git_sha, summary


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            file=sys.stderr)

    metrics = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        entry = summary(values)
        median = entry["median"]
        spread = (entry["q3"] - entry["q1"]) / median if median else 0.0
        entry.update(unit=runs[0]["metrics"][name]["unit"], spread=spread,
                     values=values)
        if name in bounds:
            entry["bound"] = bounds[name]
            entry["over_bound"] = spread > bounds[name]
            entry["over_third_of_bound"] = spread > bounds[name] / 3
        metrics[name] = entry
    report = {
        "context": {"git_sha": git_sha(), "python": sys.version.split()[0],
                    "nproc": os.cpu_count(), "workload": args.workload,
                    "seeds": [r["seed"] for r in runs], "runs": len(runs),
                    "run_seconds": spec["run_seconds"]},
        "all_correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "metrics": metrics,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    for name, m in metrics.items():
        flag = ("OVER BOUND" if m.get("over_bound")
                else "over 1/3 bound" if m.get("over_third_of_bound") else "")
        print(f"{name:>32} median={m['median']:.6g} spread={m['spread']:.3f} "
              f"{flag}")
    return 0 if report["all_correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
