"""Fold the benchmark runs of a parent and a change into one BENCH_<n>.json.

    python3 tools/collect_bench.py --parent <checkout> --change <checkout> \\
        --parent-commit <sha> --change-commit <text> --out BENCH_<n>.json

Each checkout's `bench_results/*/result.json` (written by
`benchmarks/run.py`) are its runs. Run the two sides as interleaved pairs,
alternating which side goes first: the i-th run of a workload on one side
is paired with the i-th on the other, in the order the runs ended.

The output holds, per workload and metric, each side's median, IQR
(75th minus 25th percentile) and run count, and the number of pairs in
which the change is better, by the metric's direction in the change's
`BENCHMARK.json`. It also holds both commits as given, a sha256 of each
side's `src/` files (so a later commit can be matched to the measured
tree), the environment block the runs share, and the `tools/same_bits.py`
digest of each side at OPENBLAS_NUM_THREADS=1, which this script computes
(about 20 s a side). Runs whose environments differ are an error.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys

import numpy as np

SAME_BITS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "same_bits.py")


def runs(checkout: str) -> list:
    """The checkout's result.json contents, oldest first."""
    paths = glob.glob(os.path.join(checkout, "bench_results", "*", "result.json"))
    out = []
    for path in sorted(paths, key=os.path.getmtime):
        with open(path) as f:
            out.append(json.load(f))
    if not out:
        sys.exit(f"no bench_results/*/result.json under {checkout}")
    return out


def src_digest(checkout: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(checkout, "src")
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, src).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def same_bits(checkout: str) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, SAME_BITS, checkout], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def summary(values: list) -> dict | None:
    if not values:                  # a metric that one side does not report
        return None
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "iqr": float(q3 - q1), "n": len(values)}


def compare(parent: list, change: list, better: dict) -> dict:
    """Per workload and metric: each side's summary and the pairs the change wins."""
    out = {}
    for workload in sorted({r["workload"] for r in parent + change}):
        side = {name: [r["result"]["metrics"] for r in rs if r["workload"] == workload]
                for name, rs in (("parent", parent), ("change", change))}
        metrics = {}
        for metric in sorted(set().union(*side["parent"], *side["change"])):
            values = {name: [m[metric]["value"] for m in ms if metric in m]
                      for name, ms in side.items()}
            sign = 1.0 if better[metric] == "higher" else -1.0
            pairs = list(zip(values["parent"], values["change"]))
            metrics[metric] = {
                "better": better[metric],
                "parent": summary(values["parent"]),
                "change": summary(values["change"]),
                "pairs": len(pairs),
                "change_better_pairs": sum(sign * (c - p) > 0 for p, c in pairs),
            }
        out[workload] = metrics
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--parent-commit", required=True)
    p.add_argument("--change-commit", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    parent, change = runs(args.parent), runs(args.change)
    environments = {json.dumps(r["environment"], sort_keys=True) for r in parent + change}
    if len(environments) != 1:
        sys.exit(f"the runs ran in {len(environments)} environments: {sorted(environments)}")
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bench = {
        "parent": {"commit": args.parent_commit, "src_sha256": src_digest(args.parent),
                   "same_bits": same_bits(args.parent)},
        "change": {"commit": args.change_commit, "src_sha256": src_digest(args.change),
                   "same_bits": same_bits(args.change)},
        "environment": json.loads(environments.pop()),
        "seconds": sorted({r["seconds"] for r in parent + change}),
        "workloads": compare(parent, change, better),
    }
    with open(args.out, "w") as f:
        json.dump(bench, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
