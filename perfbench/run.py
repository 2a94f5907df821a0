#!/usr/bin/env python3
"""divscrape repo benchmark: build the harness from source, run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The harness is configured with CMake into $CARGO_TARGET_DIR (default
`.bench_build`) under the checkout and built there; inputs are generated
into a scratch directory beside it and removed afterwards. The last line of
standard output is the result object; earlier lines carry provenance.
Exit codes: 0 = result printed, 1 = build or run failure, 2 = usage,
3 = identity/exactly-once gate failed (no result printed).
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
WORKLOADS = ("replay_paper", "catchup_megasite", "live_tail")
# Hard ceiling for one harness run; the benchmark must end well inside
# the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", *targets])
    for cmd in steps:
        # Build chatter goes to stderr: stdout is reserved for the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return out


def source_digest():
    """SHA-256 over the program sources: identifies the code under test in
    a checkout that is not a git repository."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src",):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit_id():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def run_child(cmd):
    """Runs cmd in its own process group, relaying stdout; kills the whole
    group on timeout or interruption and always waits for it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("harness killed (timeout or interrupt)")
        return 1, ""
    return proc.returncode, out


def valid_result(line, trace):
    try:
        doc = json.loads(line)
    except ValueError:
        return False
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if doc["correct"] is not True or doc["attempted"] < 1 or doc["failed"]:
        return False
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    return set(doc["metrics"]) == names


def main():
    # A terminated run must take the harness down with it (see run_child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "src")):
        log(f"no divscrape source tree beside {HERE}")
        return 1

    out = build(["perfbench_measure_test"] if args.self_test
                else ["perfbench_harness"])
    if out is None:
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(out, "perfbench_measure_test")]
                              ).returncode

    work = os.path.join(out, f"work-{os.getpid()}")
    traces = os.path.join(out, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(out, "perfbench_harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work,
           "--trace-out", os.path.join(traces, f"{args.workload}.trace.json"),
           "--commit", commit_id(), "--source-digest", source_digest()]
    try:
        code, stdout = run_child(cmd)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines or not valid_result(lines[-1], args.trace):
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        log(f"harness exited {code} without a valid result")
        return code if code else 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
