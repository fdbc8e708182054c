#!/usr/bin/env python3
"""The repo benchmark's one command.

    python3 perfbench/run.py --workload kv|wiki --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the root of a source tree.  It builds perfbench/fbbench.exe
from that tree with dune, runs one workload, checks every answer, and
prints the metrics: human-readable lines, a `facts:` line (host, toolchain,
revision, sizes), and as the last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics` -- the end-to-end metrics
with `--trace 0`, the per-layer split with `--trace 1`.  The full record of
each run is also written to `.perfbench/results/`.  It exits nonzero, and
prints no result line, when the tree cannot be built or a run fails; it
exits 1 after printing the result when an answer was wrong.

`--self-test` runs every workload twice on one seed at small sizes and
asserts that the count metrics repeat exactly, that the traced time
accounting leaves no negative residue, and that the emitted metric names
are the ones BENCHMARK.json declares.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "fbbench.exe")
WORKLOADS = ("kv", "wiki")
RUN_TIMEOUT_S = 170

# Count metrics that must repeat exactly for a fixed seed.
EXACT = (
    "chunk.puts_per_op",
    "chunk.dedup_ratio",
    "chunk.put_bytes_per_op",
    "wire.bytes_per_op",
    "replica.chunks_fetched_per_entry",
)


def fail(msg, code=1):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s here: run from the root of a forkbase source tree" % need, 2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/fbbench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (dune exit %d)" % done.returncode)


def source_digest():
    """SHA-256 over the files the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("dune-project", "dune", "lib", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_revision():
    """HEAD (+dirty) when ROOT is itself a git work tree, else None."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return None
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode != 0:
            return None
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, timeout=10)
        return rev.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.TimeoutExpired):
        return None


def run_once(workload, seed, seconds, trace, quick=False, echo=True):
    """One fbbench run; returns its full JSON record."""
    os.makedirs(WORK, exist_ok=True)
    tag = "%d-%s-%d-%d" % (os.getpid(), workload, seed, trace)
    scratch = os.path.join(WORK, "run-" + tag)
    out = os.path.join(WORK, "out-" + tag + ".json")
    shutil.rmtree(scratch, ignore_errors=True)
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--dir", scratch, "--out", out]
    if quick:
        cmd.append("--quick")
    try:
        # Its own process group, so a timeout also stops the server child.
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            text, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            fail("%s seed %d timed out" % (workload, seed))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if echo:
        sys.stdout.write(text)
    if not os.path.exists(out):
        fail("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    with open(out) as fh:
        rec = json.load(fh)
    os.remove(out)
    if rec["correct"] != (proc.returncode == 0):
        fail("%s seed %d exited %d" % (workload, seed, proc.returncode))
    return rec


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def main_run(args):
    build()
    rec = run_once(args.workload, args.seed, args.seconds, args.trace)
    rec["facts"].update(nproc=nproc(), revision=git_revision(),
                        source_sha256=source_digest())
    print("facts: " + json.dumps(rec["facts"], sort_keys=True))
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(rec, fh, indent=1, sort_keys=True)
    group = rec["per_layer"] if args.trace else rec["end_to_end"]
    print(json.dumps({
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in group.items()},
    }))
    sys.exit(0 if rec["correct"] else 1)


def self_test():
    build()
    declared = None
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec):
        with open(spec) as fh:
            bench = json.load(fh)
        declared = ({m["name"] for m in bench["end_to_end"]},
                    {m["name"] for m in bench["per_layer"]})
    problems = []
    for w in WORKLOADS:
        a, b = (run_once(w, 7, 1, 1, quick=True, echo=False) for _ in range(2))
        for rec in (a, b):
            if not rec["correct"]:
                problems.append("%s: wrong answers %s" % (w, rec["mismatches"][:3]))
            layer = rec["per_layer"]
            if layer["wire.transport_us"]["value"] < 0:
                problems.append("%s: negative transport residue" % w)
            if abs(layer["wire.client_gap_us"]["value"]) > 0.01:
                problems.append("%s: client parts do not add up" % w)
            if w == "kv" and layer["replica.residual_us_per_entry"]["value"] < 0:
                problems.append("%s: negative catch-up residue" % w)
            if declared and (set(rec["end_to_end"]), set(layer)) != declared:
                problems.append("%s: metric names differ from BENCHMARK.json" % w)
        pairs = [(k, a["per_layer"][k]["value"], b["per_layer"][k]["value"]) for k in EXACT]
        pairs.append(("stored_bytes_per_user_byte",
                      a["end_to_end"]["stored_bytes_per_user_byte"]["value"],
                      b["end_to_end"]["stored_bytes_per_user_byte"]["value"]))
        for k, x, y in pairs:
            if x != y:
                problems.append("%s: %s differs between runs: %r vs %r" % (w, k, x, y))
        print("%s: %s" % (w, ", ".join("%s=%g" % (k, x) for k, x, _ in pairs)))
    for p in problems:
        print("FAIL " + p)
    print("self-test " + ("failed" if problems else "passed"))
    sys.exit(1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
    elif args.workload is None:
        fail("--workload is required", 2)
    else:
        main_run(args)


if __name__ == "__main__":
    main()
