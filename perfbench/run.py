#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune (from the root of the source
tree this file sits in), runs it, relays its output, and checks that its
last line is the JSON result with exactly the metrics BENCHMARK.json lists
for the requested mode. Exits non-zero, without a result line, when the
tree cannot be built, the run fails or overruns, or the result is
malformed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
EXPECTED = os.path.join(HERE, "expected_digests.txt")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
SOURCE_DIRS = ("lib", "bench", "perfbench")


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_id():
    """Identify the code under test: the git commit when the tree is a
    repository, and always a hash of the sources, since benchmark
    checkouts need not be repositories."""
    h = hashlib.sha256()
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames.sort()
            for f in sorted(filenames):
                if f == "dune" or f.endswith((".ml", ".mli", ".txt")):
                    p = os.path.join(dirpath, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    ident = "tree:" + h.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip()
            if sha:
                ident = "git:" + sha + " " + ident
        except (OSError, subprocess.SubprocessError):
            pass
    return ident


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_checked(cmd, timeout):
    """Run cmd, stdout captured, stderr passed through; kill it and wait
    for it on overrun."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s and was stopped" % timeout, 4)
    finally:
        events = os.path.join(ROOT, "%d.events" % proc.pid)
        if os.path.exists(events):
            os.remove(events)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "dune-project")) or not os.path.isdir(
        os.path.join(ROOT, "lib")
    ):
        fail("no simulator sources next to the benchmark (dune-project, lib/)", 2)

    t0 = time.time()
    try:
        b = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.SubprocessError) as e:
        fail("build failed: %s" % e, 3)
    if b.returncode != 0:
        fail("build failed", 3)
    print("perfbench: built in %.1f s" % (time.time() - t0), file=sys.stderr)

    cmd = [
        EXE, "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", repr(a.seconds), "--trace", str(a.trace),
        "--commit", source_id(), "--expected", EXPECTED,
    ]
    code, out = run_checked(cmd, RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1] if lines else ""
    if code != 0:
        sys.stdout.write("\n".join(body) + "\n")
        fail("benchmark exited with code %d" % code, 5)
    try:
        result = json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        want = expected_metrics(a.trace)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, "metrics differ from BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(want.items())
        )
    except (ValueError, AssertionError, KeyError, TypeError) as e:
        sys.stdout.write("\n".join(body) + "\n")
        fail("malformed result line: %s" % e, 6)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
