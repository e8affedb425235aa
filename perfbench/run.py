#!/usr/bin/env python3
"""Build and run the imrm end-to-end benchmark.

    python3 perfbench/run.py --workload campus_day|grid|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the imrm libraries plus the imrm_bench program, in
Release) into $CARGO_TARGET_DIR, or .bench_build when that is unset; later
calls only re-check the build. Build output goes to stderr. The arguments
go to imrm_bench unchanged; it rejects bad ones with exit code 2.

imrm_bench prints the metrics it measures, each with its unit. This script
checks them against BENCHMARK.json at the repository root, which lists every
metric once: an untraced run must report exactly the `end_to_end` metrics,
a traced run a subset of the `per_layer` ones, and the ones a workload does
not exercise are reported as 0. The last line printed is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero, without a result, when the sources are missing, the build
fails, imrm_bench fails, or its metrics disagree with BENCHMARK.json.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no imrm sources under {ROOT}/src; run from a full checkout", 2)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "imrm_bench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {step[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step[:2])} exited {done.returncode}")
    return os.path.join(build_dir, "imrm_bench")


def complete(result):
    """Checks result["metrics"] against BENCHMARK.json and fills in the
    per-layer metrics the workload does not exercise, in the listed order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    measured = result["metrics"]
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    listed = end_to_end if set(measured) == set(end_to_end) else per_layer
    for name, metric in measured.items():
        if listed.get(name) != metric["unit"]:
            fail(f"metric {name} ({metric['unit']}) is not listed with that unit "
                 "in BENCHMARK.json")
    result["metrics"] = {name: measured.get(name, {"value": 0, "unit": unit})
                         for name, unit in listed.items()}
    return result


def main():
    binary = build()
    try:
        done = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"imrm_bench did not finish: {e}")
    if done.returncode != 0:
        fail(f"imrm_bench exited {done.returncode}", done.returncode)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        fail(f"imrm_bench printed no result line: {e}")
    print("\n".join(lines[:-1] + [json.dumps(complete(result))]), flush=True)


if __name__ == "__main__":
    main()
