#!/usr/bin/env python3
"""Same-host A/B of the simulator benchmark between two source trees.

    python3 bench/ab.py --workload serve_million --workload os_1024 \\
        --pairs 10 --seed 7 --seconds 30 [--base HEAD~1] [--head HEAD]

--base and --head each name a git revision of this repository, exported
with `git archive` into a scratch directory, or an existing source tree
(a directory holding dune-project), used as it is; `--head .` measures
the working tree. Both trees are built first, then each workload runs
--pairs alternating pairs of

    python3 TREE/perfbench/run.py --workload W --seed S --seconds T --trace 0|1

with base first on even pairs and head first on odd ones, so host drift
does not favour a side. A run that fails, or reports "correct": false or
failed units, stops the script. For every metric the script prints each
side's median, q1 and q3, the change of the medians, and on how many
pairs head was better (by the metric's direction in BENCHMARK.json),
followed by every run's value in pair order.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tree_of(spec, workdir, label):
    """A source tree for SPEC: an existing directory, or a git export."""
    if os.path.isfile(os.path.join(spec, "dune-project")):
        return os.path.abspath(spec)
    dest = os.path.join(workdir, label)
    os.makedirs(dest)
    archive = subprocess.run(
        ["git", "-C", REPO, "archive", "--format=tar", spec],
        stdout=subprocess.PIPE, check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return dest


def build(tree):
    subprocess.run(
        ["dune", "build", "--root", tree, "./perfbench/perfbench.exe"],
        cwd=tree, stdout=sys.stderr, check=True,
    )


def run_once(tree, w, a):
    cmd = [
        sys.executable, os.path.join(tree, "perfbench", "run.py"),
        "--workload", w, "--seed", str(a.seed), "--seconds", repr(a.seconds),
        "--trace", str(a.trace),
    ]
    p = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().split("\n")
    if p.returncode != 0:
        sys.exit("ab: %s exited %d on %s" % (tree, p.returncode, w))
    r = json.loads(lines[-1])
    if r["correct"] is not True or r["failed"] != 0:
        sys.exit("ab: %s: correct=%s failed=%s on %s"
                 % (tree, r["correct"], r["failed"], w))
    return {k: v["value"] for k, v in r["metrics"].items()}


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def report(w, metrics, base, head):
    print("== %s: %d pairs (base / head)" % (w, len(base)))
    print("%-26s %12s %12s %12s | %12s %12s %12s %8s %6s"
          % ("metric", "base q1", "base med", "base q3",
             "head q1", "head med", "head q3", "change", "wins"))
    for m, better in metrics.items():
        b = [r[m] for r in base]
        h = [r[m] for r in head]
        bq, hq = quartiles(b), quartiles(h)
        change = (hq[1] - bq[1]) / bq[1] * 100 if bq[1] else 0.0
        wins = sum(1 for x, y in zip(b, h)
                   if (y < x if better == "lower" else y > x))
        print("%-26s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g %+7.1f%% %3d/%d"
              % (m, bq[0], bq[1], bq[2], hq[0], hq[1], hq[2], change,
                 wins, len(b)))
    for m in metrics:
        print("runs %s base: %s" % (m, " ".join("%.10g" % r[m] for r in base)))
        print("runs %s head: %s" % (m, " ".join("%.10g" % r[m] for r in head)))
    sys.stdout.flush()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", default="HEAD~1")
    ap.add_argument("--head", default="HEAD")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    workdir = tempfile.mkdtemp(prefix="mk-ab-")
    try:
        base = tree_of(a.base, workdir, "base")
        head = tree_of(a.head, workdir, "head")
        for t in (base, head):
            build(t)
        with open(os.path.join(head, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        key = "per_layer" if a.trace else "end_to_end"
        metrics = {m["name"]: m["better"] for m in spec[key]}
        for w in a.workload:
            trees, runs = (base, head), ([], [])
            for i in range(a.pairs):
                for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                    runs[side].append(run_once(trees[side], w, a))
                print("ab: %s pair %d/%d done" % (w, i + 1, a.pairs),
                      file=sys.stderr)
            report(w, metrics, runs[0], runs[1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
