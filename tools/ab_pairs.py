"""Alternating paired perfbench runs: a base commit against the working tree.

Run from the repository root:

    python tools/ab_pairs.py --base HEAD --workload stream_long --pairs 10

The tool unpacks the base commit with ``git archive`` into a temporary
directory and runs ``perfbench/run.py`` (end-to-end metrics, ``--trace 0``)
from each side's root, each run as long as ``run_seconds`` of
``BENCHMARK.json``.  Pair i runs both sides with seed ``--seed + i``, and
the side that runs first alternates from pair to pair.  It prints one line
per run, then per end-to-end metric of ``BENCHMARK.json``: each side's
median, the base's quartiles and their distance (IQR), the relative change
of the medians, and the number of pairs the working tree won (by the
metric's ``better`` direction; ties count for neither side).  Last come the
failed and attempted ops of each side.  A run that exits non-zero stops the
tool with its exit code.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def unpack(commit: str, into: str):
    """Write the files of ``commit`` under ``into``."""
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result of one untraced perfbench run from ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(metrics, base_runs, head_runs):
    """One line per metric: medians, base quartiles and IQR, change, wins."""
    lines = []
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        base = np.array([r["metrics"][name]["value"] for r in base_runs])
        head = np.array([r["metrics"][name]["value"] for r in head_runs])
        wins = int(np.sum(head > base if higher else head < base))
        q1, med, q3 = np.percentile(base, [25, 50, 75])
        new = float(np.median(head))
        lines.append(
            f"{name:14s} base {med:10.4f} [{q1:.4f}, {q3:.4f}] IQR "
            f"{q3 - q1:.4f}  head {new:10.4f}  {100 * (new / med - 1):+6.2f}%"
            f"  wins {wins}/{len(base)}  ({spec['unit']}, "
            f"{spec['better']} is better)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD",
                        help="commit to compare against (default HEAD)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=101,
                        help="seed of the first pair; pair i uses seed + i")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]

    runs = {"base": [], "head": []}
    with tempfile.TemporaryDirectory() as scratch:
        unpack(args.base, scratch)
        trees = {"base": scratch, "head": ROOT}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                result = run_once(trees[side], args.workload, seed, seconds)
                runs[side].append(result)
                values = " ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.4f}"
                    for m in metrics)
                print(f"pair {i} seed {seed} {side}: {values}", flush=True)

    print(f"{args.workload}: {args.pairs} pairs, {seconds:g} s runs, "
          f"base {args.base} against the working tree")
    for line in summarize(metrics, runs["base"], runs["head"]):
        print(line)
    for side in ("base", "head"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side}: {failed} of {attempted} ops failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
