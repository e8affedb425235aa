#!/usr/bin/env python3
"""End-to-end contract for the sharded grid campus.

One sweep through scenario_cli with identical scenario flags: the grid
campus ("campus-scale --shards K --batch B") over the full batch
{1, 8, 64, auto} x K {1, 2, 4, 8} matrix, so window batching is pinned as
an execution knob that can never leak into results, plus the bare
invocation (neither flag), so the default path is pinned to the same bytes.

The sweep also repeats one K=2 run with --profile 1: the profiler only
reads clocks, so it must never move a simulation result.

Every run in the sweep must produce:

  * identical stdout summary lines (events, windows, boundary messages,
    and all scenario counts; the shards=/batch= echo tokens are stripped
    before comparison — they name the execution, not the simulation), and
  * byte-identical md5 over the report's "metrics" object.

Only the "metrics" object is hashed: the surrounding report carries
wall-clock fields (wall_seconds) and the config echo (which includes the
shards/batch knobs) that describe the host and the execution, not the
simulation.

Usage: check_shard_determinism.py <path-to-scenario_cli>
"""
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

SHARDS = [1, 2, 4, 8]
BATCHES = [1, 8, 64, 0]  # 0 = adaptive controller

MATRIX = [["--shards", str(k), "--batch", str(b)]
          for k in SHARDS for b in BATCHES]
PROFILED = ["--shards", "2", "--profile", "1"]

# The scenario flags, and the execution flags of each run; the first run is
# the sweep's reference.
FLAGS = ["campus-scale", "--cells", "25", "--portables", "120",
         "--duration", "900", "--tick", "5", "--seed", "7"]
POINTS = [[]] + MATRIX + [PROFILED]


def run(cli, flags, execution, metrics_path):
    cmd = [cli] + flags + execution + ["--metrics-json", str(metrics_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        print(f"FAIL: `{' '.join(cmd[1:])}` exited {proc.returncode}")
        print(proc.stderr)
        sys.exit(1)
    return proc.stdout


def metrics_md5(path):
    report = json.loads(Path(path).read_text())
    metrics = report.get("metrics")
    if metrics is None:
        print(f"FAIL: {path} has no metrics object")
        sys.exit(1)
    canonical = json.dumps(metrics, sort_keys=True)
    return hashlib.md5(canonical.encode()).hexdigest()


def strip_execution_tokens(line):
    return " ".join(tok for tok in line.split()
                    if not tok.startswith(("shards=", "batch=")))


def sweep(cli, name, flags, points):
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        golden_line = golden_md5 = None
        for i, execution in enumerate(points):
            tag = " ".join(execution) or "default"
            metrics_path = tmp / f"run{i}.json"
            line = run(cli, flags, execution, metrics_path)
            if "--profile" in execution:
                # The profile table follows the summary line.
                line = line.splitlines(keepends=True)[0]
            digest = metrics_md5(metrics_path)
            print(f"{name}: {tag} md5={digest}")
            if golden_line is None:
                golden_line, golden_md5 = line, digest
                continue
            if strip_execution_tokens(line) != strip_execution_tokens(golden_line):
                print(f"FAIL: {name} stdout at {tag} differs from baseline")
                print(f"  baseline: {golden_line.strip()}")
                print(f"  {tag}: {line.strip()}")
                ok = False
            if digest != golden_md5:
                print(f"FAIL: {name} metrics md5 at {tag} differs "
                      f"({digest} != {golden_md5})")
                ok = False
    return ok


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: check_shard_determinism.py <scenario_cli>",
              file=sys.stderr)
        return 2
    cli = sys.argv[1]
    ok = sweep(cli, "campus-scale", FLAGS, POINTS)
    print("OK: metrics byte-identical across shard and batch counts and "
          "with --profile 1"
          if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
