#!/usr/bin/env python3
"""Wall-clock floor on what --profile 1 costs the sharded grid.

Runs the pinned barrier-heavy grid day (GRID below) three times clean and
three times with --profile 1, alternating, and requires the best profiled
events/s to be at least FLOOR times the best clean events/s.

The floor sits below the profiler's 5% per-scope budget because this day
is its worst case: a 20 ms tick on a sparse grid runs ~91k windows with
~0.03 portable events each, and every window pays its fixed clock reads
(DESIGN.md "Overhead budget and discipline"). It catches an
allocation, lock or log call on the per-round record path. Being wall
clock, it is not a ctest and CI does not run it; that profiling never
moves a result is checked exactly by tools/check_shard_determinism.py.

Usage: check_profile_overhead.py <path-to-scenario_cli>
Exit status 0 when the ratio meets the floor, 1 when it does not.
"""
import json
import subprocess
import sys
import tempfile
from pathlib import Path

FLOOR = 0.78
RUNS = 3
GRID = ["campus-scale", "--shards", "2", "--cells", "32", "--portables", "128",
        "--duration", "3600", "--tick", "0.02", "--seed", "11"]


def events_per_second(cli, extra, report):
    cmd = [cli] + GRID + extra + ["--metrics-json", str(report)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        print(f"FAIL: `{' '.join(cmd[1:])}` exited {proc.returncode}\n{proc.stderr}")
        sys.exit(1)
    return json.loads(report.read_text())["events_per_second"]


def main():
    if len(sys.argv) != 2:
        print("usage: check_profile_overhead.py <scenario_cli>", file=sys.stderr)
        return 2
    cli = sys.argv[1]
    clean, profiled = [], []
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        for _ in range(RUNS):
            clean.append(events_per_second(cli, [], report))
            profiled.append(events_per_second(cli, ["--profile", "1"], report))
    ratio = max(profiled) / max(clean)
    print(f"clean best {max(clean):.0f} events/s, profiled best "
          f"{max(profiled):.0f} events/s, ratio {ratio:.3f} (floor {FLOOR})")
    if ratio < FLOOR:
        print("FAIL: profiled throughput is below the floor: something heavier "
              "than clock reads is on the per-round record path")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
