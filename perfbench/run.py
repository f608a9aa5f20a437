#!/usr/bin/env python3
"""The windim benchmark: build, run one workload, check, report.

Run from the repository root:

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --unit

The program under test is built from source (perfbench/CMakeLists.txt
compiles ../src) into the build directory named by CARGO_TARGET_DIR, or
.bench_build.  One process then runs every section (serve, batch,
scenario); the named workload gets half the measured time.  --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of the traced run, whose spans are written beside the
result file.

Standard output: a table of every reported metric with its unit and
sample count, the host fingerprint, and as the last line one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is
0 only when every output check passed.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_step(cmd, timeout):
    """Runs a build step with its output on stderr; kills it on timeout."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return -1


def build(out):
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    rc = run_step(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                  BUILD_TIMEOUT_S)
    if rc != 0:
        fail("configuring the build failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = run_step(["cmake", "--build", out, "-j", jobs],
                  max(1, deadline - time.monotonic()))
    if rc != 0:
        fail("building the benchmark failed")
    binary = os.path.join(out, "windim_perfbench")
    if not os.access(binary, os.X_OK):
        fail("benchmark binary missing after the build")
    return binary


def source_hash():
    """sha256 over the library and benchmark sources: identifies the
    code measured when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def socket_path(out):
    # AF_UNIX paths are short; keep the socket path relative to ROOT.
    rel = os.path.relpath(os.path.join(out, "perfbench-%d.sock" % os.getpid()),
                          ROOT)
    return rel if len(rel) < 100 else "perfbench-%d.sock" % os.getpid()


def main():
    # A terminated run unwinds through subprocess.run, which kills and
    # reaps the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--unit", action="store_true",
                        help="run the benchmark's own unit checks only")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    out = build_dir()
    binary = build(out)

    unit = subprocess.run([binary, "--unit"], cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr, timeout=60)
    if unit.returncode != 0:
        fail("unit checks failed")
    if args.unit:
        return 0

    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload %r; BENCHMARK.json lists %s" %
             (args.workload, ", ".join(workloads)))

    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" %
                        (args.workload, args.seed, args.trace))
    sock = socket_path(out)
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--out=" + stem + ".json", "--socket=" + sock]
    if args.trace:
        cmd.append("--spans=" + stem + ".spans.jsonl")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        if os.path.exists(os.path.join(ROOT, sock)):
            os.unlink(os.path.join(ROOT, sock))
    if proc.returncode != 0:
        fail("the benchmark exited with code %d" % proc.returncode)
    with open(stem + ".json") as f:
        doc = json.load(f)

    doc["host"]["commit"] = commit()
    doc["host"]["source_sha256"] = source_hash()
    with open(stem + ".json", "w") as f:
        json.dump(doc, f, indent=1)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = doc["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        fail("metrics not measured: " + ", ".join(missing))
    wrong_unit = [m["name"] for m in wanted
                  if measured[m["name"]]["unit"] != m["unit"]]
    if wrong_unit:
        fail("units differ from BENCHMARK.json: " + ", ".join(wrong_unit))

    print("windim benchmark: workload %s, seed %d, %g s, trace %d" %
          (args.workload, args.seed, args.seconds, args.trace))
    host = doc["host"]
    print("host: %s hardware threads, %s, %s, %s build, commit %s, "
          "sources %s" % (host["hardware_threads"], host["cpu_model"],
                          host["compiler"], host["build_type"], host["commit"],
                          host["source_sha256"]))
    width = max(len(m["name"]) for m in wanted)
    for m in wanted:
        v = measured[m["name"]]
        print("  %-*s %16.6g %-16s n=%d" % (width, m["name"], v["value"],
                                           v["unit"], v["samples"]))
    attempted, failed = doc["attempted"], doc["failed"]
    print("failed_ratio %.6g (%d failed of %d attempted)" %
          (failed / attempted if attempted else 1.0, failed, attempted))
    for line in doc["failures"]:
        print("  failed: " + line)
    print("result file: " + os.path.relpath(stem + ".json", ROOT))

    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
