#!/usr/bin/env python3
"""Contract test for scenario_cli's flag tables.

Three checks against one scenario_cli binary:

  1. golden — every deterministic invocation in CASES must reproduce the
     report's `config` block (keys, values, order and which keys are
     present), its stdout and the report fields REPORT_FIELDS names for it
     exactly as stored in tests/golden/cli_golden.json. The config block
     names the workload a report measured, so a flag-table change must
     leave it byte-identical.
  2. profile — every invocation in PROFILED, run with --profile 1, must
     write a non-empty `profile` block naming the phases PROFILED_PHASES
     lists for it: the modes that keep the flag honour it (the others
     refuse it with exit 2).
  3. strictness — for every command and flag listed in the usage text
     (scenario_cli with no arguments), a malformed value of the flag's type
     must exit 2 with a diagnostic naming the flag.

Usage: check_cli.py <path-to-scenario_cli>
       check_cli.py --write-golden <path-to-scenario_cli>
A change meant to alter a config echo or a summary line rewrites the golden
with --write-golden.
"""
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "cli_golden.json"

# A three-event arrival trace, written next to each run as arrivals.trace.
TRACE = "0.00 admit 0 0\n0.01 admit 1 1\n0.02 handoff 0 1\n"

# The closed adaptation loop's pinned quiet day, and an 8-variant faults
# sweep on a slow-converging campus topology (run cold and forked from one
# warm checkpoint): the historical benchmark invocations.
ADAPT_DAY = ["campus", "--adapt-loop", "1", "--attendees", "0", "--squatters", "0",
             "--seed", "5"]
# The adaptation loop at the default crowd, which leaves squatters blocked at
# the end of the day: their retries must stop at the horizon.
CROWDED_ADAPT_DAY = ["campus", "--adapt-loop", "1"]
FAULTS_SWEEP = ["faults", "--topology", "campus", "--cells", "12", "--conns", "48",
                "--faults-start", "60", "--stop", "0.5", "--drop", "0.2", "--flaps",
                "2", "--crashes", "1", "--replications", "8", "--threads", "1",
                "--seed", "3"]

CASES = [
    ["classroom"],
    ["classroom", "--size", "20", "--policy", "brute-force", "--passby", "6",
     "--seed", "3"],
    ["twocell"],
    ["twocell", "--window", "0.1", "--pqos", "0.05", "--rule", "static",
     "--guard", "0.2", "--duration", "300", "--seed", "4"],
    ["twocell", "--faults", "0.2", "--fault-retries", "2", "--duration", "300"],
    ["fig4"],
    ["fig4", "--hours", "10", "--users", "4", "--seed", "2"],
    ["maxmin"],
    ["maxmin", "--links", "8", "--conns", "24", "--seed", "3"],
    ["campus"],
    ["--attendees", "8", "--squatters", "2", "--seed", "3"],
    ["campus", "--policy", "aggregate", "--attendees", "12", "--squatters", "3",
     "--seed", "2", "--faults", "0.1", "--fault-retries", "2"],
    ["campus", "--replications", "3", "--threads", "2", "--seed", "4",
     "--attendees", "12", "--squatters", "3"],
    ADAPT_DAY,
    ["campus", "--adapt-loop", "1", "--adapt-flows", "2", "--adapt-fault", "0.5",
     "--adapt-fault-start", "30", "--adapt-fault-stop", "50", "--attendees", "4",
     "--squatters", "0"],
    ["campus", "--adapt-loop", "1", "--replications", "2", "--attendees", "0",
     "--squatters", "0"],
    CROWDED_ADAPT_DAY,
    ["faults"],
    ["faults", "--replications", "1"],
    ["faults", "--topology", "campus", "--cells", "6", "--conns", "12", "--drop",
     "0.2", "--flaps", "1", "--crashes", "0", "--stop", "0.3", "--horizon", "20",
     "--replications", "3", "--threads", "2", "--seed", "3"],
    ["faults", "--faults-start", "5", "--replications", "1"],
    ["faults", "--faults-start", "5", "--replications", "2", "--fork", "1"],
    FAULTS_SWEEP,
    FAULTS_SWEEP + ["--fork", "1"],
    ["campus-scale", "--cells", "20", "--portables", "200", "--duration", "600",
     "--shards", "2"],
    ["campus-scale", "--cells", "20", "--portables", "200", "--duration", "600",
     "--shards", "2", "--batch", "4"],
    ["drive", "--duration", "2"],
    ["drive", "--rate", "2000", "--duration", "2", "--seed", "9", "--portables",
     "32", "--cells", "8", "--queue-cap", "16", "--slo-p99-us", "2000",
     "--retry-after-us", "1000", "--service-cost-us", "100", "--adapt-every", "4"],
    ["drive", "--transport", "ring", "--pacing", "virtual", "--arrivals", "trace",
     "--trace-in", "arrivals.trace", "--cells", "8"],
]

# Report fields pinned besides `config`, per invocation: the whole metrics
# object of two single campus days (a function of the seed alone: no wall
# clock reaches it), the adaptation loop's renegotiation counts, breach
# windows, shaper bits and grant trajectory, and the whole metrics object of
# both faults sweeps.
REPORT_FIELDS = {
    ("campus",): ("metrics",),
    ("--attendees", "8", "--squatters", "2", "--seed", "3"): ("metrics",),
    tuple(ADAPT_DAY): ("events_fired", "adaptation"),
    tuple(CROWDED_ADAPT_DAY): ("events_fired", "adaptation"),
    tuple(FAULTS_SWEEP): ("events_fired", "metrics"),
    tuple(FAULTS_SWEEP + ["--fork", "1"]): ("events_fired", "metrics"),
}

# A small grid day on two shards, the sharded run the profile check uses.
SHARDED_GRID = ["campus-scale", "--cells", "20", "--portables", "200", "--duration", "600",
                "--shards", "2"]

# Invocations that accept --profile 1 must write a non-empty profile block;
# the other modes refuse the flag (pinned by scenario_cli_rejects_* ctests).
PROFILED = [
    ["maxmin"],
    ["campus", "--attendees", "8", "--squatters", "2"],
    ["campus", "--adapt-loop", "1", "--attendees", "8", "--squatters", "2"],
    ["campus", "--replications", "2", "--attendees", "8", "--squatters", "2"],
    SHARDED_GRID,
    ["drive", "--duration", "2"],
]

# Phases a profiled run must name, keyed by its arguments.
PROFILED_PHASES = {
    ("campus", "--adapt-loop", "1", "--attendees", "8", "--squatters", "2"): ["campus.adapt"],
    tuple(SHARDED_GRID): ["shard.window", "shard.exchange"],
}

# A value of each usage type that the parser must refuse.
MALFORMED = {"count": "4x", "number": "nan", "probability": "1.5"}


def fail(message):
    print(f"FAIL: {message}")
    sys.exit(1)


def run_report(cli, args, tmp):
    """(finished process, report text) of one run."""
    (tmp / "arrivals.trace").write_text(TRACE)
    report = tmp / "report.json"
    report.unlink(missing_ok=True)
    proc = subprocess.run([cli, *args, "--metrics-json", str(report)], cwd=tmp,
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail(f"`{' '.join(args)}` exited {proc.returncode}\n{proc.stderr}")
    return proc, report.read_text()


def run_case(cli, args, tmp):
    proc, text = run_report(cli, args, tmp)
    # The config block as key/value pairs, so its key order is compared too.
    config = dict(json.loads(text, object_pairs_hook=list))["config"]
    case = {"args": args, "config": [list(pair) for pair in config],
            "stdout": proc.stdout}
    report = json.loads(text)
    for field in REPORT_FIELDS.get(tuple(args), ()):
        case[field] = report[field]
    return case


def golden_text(cli, tmp):
    """One invocation per block, one field per line, so a diff of the golden
    names the field that moved."""
    blocks = []
    for args in CASES:
        case = run_case(cli, args, tmp)
        fields = [f'  "{key}": {json.dumps(value)}' for key, value in case.items()]
        blocks.append(" {\n" + ",\n".join(fields) + "\n }")
    return '{"cases": [\n' + ",\n".join(blocks) + "\n]}\n"


def check_golden(cli, tmp):
    want = json.loads(GOLDEN.read_text())["cases"]
    if [case["args"] for case in want] != CASES:
        fail(f"{GOLDEN.name} covers different invocations than CASES; "
             "rewrite it with --write-golden")
    for expected in want:
        got = run_case(cli, expected["args"], tmp)
        for field in sorted(set(got) | set(expected)):
            if got.get(field) != expected.get(field):
                fail(f"`{' '.join(expected['args'])}` {field} differs from "
                     f"{GOLDEN.name}:\n  want {expected.get(field)!r}\n"
                     f"  got  {got.get(field)!r}")
    print(f"OK: {len(want)} invocations match {GOLDEN.name}")


def check_profiles(cli, tmp):
    for args in PROFILED:
        _, text = run_report(cli, args + ["--profile", "1"], tmp)
        profile = json.loads(text).get("profile") or {}
        if not profile.get("phases"):
            fail(f"`{' '.join(args)} --profile 1` wrote no profile phases")
        for phase in PROFILED_PHASES.get(tuple(args), []):
            if phase not in profile["phases"]:
                fail(f"`{' '.join(args)} --profile 1` names no {phase} phase")
    print(f"OK: {len(PROFILED)} --profile 1 runs write a profile block")


def usage_flags(cli):
    """(command, flag, type) for every flag line of the usage text."""
    proc = subprocess.run([cli], capture_output=True, text=True, timeout=60)
    if proc.returncode != 2:
        fail(f"bare scenario_cli exited {proc.returncode}, expected 2")
    # A command's section opens with "<command>  <summary>" and lists one
    # "  --<flag>  <type>  (default ...)" line per row; any other unindented
    # line closes it.
    flags, command = [], None
    for line in proc.stdout.splitlines():
        if not line.startswith(" "):
            header = re.match(r"([a-z][a-z0-9-]*)  \S", line)
            command = header.group(1) if header else None
        elif command is not None:
            row = re.match(r"\s+--([a-z0-9-]+)\s+(\S+)", line)
            if row:
                flags.append((command, row.group(1), row.group(2)))
    if not flags:
        fail("usage text lists no command flags")
    return flags


def check_strictness(cli):
    checked = 0
    for command, flag, kind in usage_flags(cli):
        bad = MALFORMED.get(kind, "bogus" if "|" in kind else None)
        if bad is None:
            continue  # a path accepts any text
        args = [cli, command, f"--{flag}", bad]
        proc = subprocess.run(args, capture_output=True, text=True, timeout=60)
        if proc.returncode != 2 or f"--{flag}" not in proc.stderr:
            fail(f"`{command} --{flag} {bad}` exited {proc.returncode} "
                 f"with stderr {proc.stderr!r}; expected 2 naming --{flag}")
        checked += 1
    print(f"OK: {checked} malformed flag values exit 2 naming the flag")


def main():
    args = sys.argv[1:]
    write = args[:1] == ["--write-golden"]
    if write:
        args = args[1:]
    if len(args) != 1:
        print("usage: check_cli.py [--write-golden] <scenario_cli>", file=sys.stderr)
        return 2
    cli = str(Path(args[0]).resolve())
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if write:
            GOLDEN.write_text(golden_text(cli, tmp))
            print(f"wrote {GOLDEN}")
            return 0
        check_golden(cli, tmp)
        check_profiles(cli, tmp)
        check_strictness(cli)
    return 0


if __name__ == "__main__":
    sys.exit(main())
